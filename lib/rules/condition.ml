(* Rule conditions (Section 2 and 3.3).

   A condition is a conjunction of atoms: class ranges, event formulas
   ([occurred], [at]) and comparison predicates.  Evaluation is
   set-oriented: it produces every variable binding satisfying all atoms,
   and the action then runs once per binding.  Conjunctions are
   order-independent, so atoms are evaluated in a cheap-first order
   (event formulas bind variables from the event base before class ranges
   enumerate extents). *)

open Chimera_util
open Chimera_calculus
open Chimera_store

type atom =
  | Range of { var : string; class_name : string }
      (** [stock(S)]: S ranges over the class extent. *)
  | Occurred of { expr : Expr.inst; var : string }
      (** [occurred(expr, S)]: S binds the objects activating [expr]. *)
  | At of { expr : Expr.inst; var : string; time_var : string }
      (** [at(expr, S, T)]: additionally binds the occurrence instants. *)
  | Compare of Query.predicate
  | Absent of atom list
      (** negated subcondition: the binding survives iff the nested
          conjunction has no solution under it *)

type t = atom list

(* A binding environment; object variables are bound to [Value.Oid],
   time variables to [Value.Int] carrying the raw instant. *)
type env = (string * Value.t) list

let lookup env x = List.assoc_opt x env

type error = [ Query.error | `Rule_error of string ]

let pp_error ppf = function
  | #Query.error as e -> Query.pp_error ppf e
  | `Rule_error msg -> Fmt.string ppf msg

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let rec atom_cost = function
  | Occurred _ | At _ -> 0
  | Range _ -> 1
  | Compare _ -> 2
  | Absent atoms ->
      (* Evaluate negated subconditions last: they only filter, and their
         nested atoms may use variables bound by the outer ones. *)
      3 + List.fold_left (fun acc a -> acc + atom_cost a) 0 atoms

let plan atoms = List.stable_sort (fun a b -> compare (atom_cost a) (atom_cost b)) atoms

(* Candidate objects for an event formula: those affected inside the
   window.  For negation-dominated formulas the caller's class extent
   would be needed; [Occurred]/[At] fall back to it via [Range] atoms. *)
let rec eval_atom store ts_env ~at atom envs : (env list, error) result =
  match atom with
  | Absent atoms ->
      map_result
        (fun env ->
          let* solutions = eval_under store ts_env ~at atoms [ env ] in
          Ok (if solutions = [] then [ env ] else []))
        envs
      |> Result.map List.concat
  | Range { var; class_name } ->
      let extent = Object_store.extent store ~class_name in
      map_result
        (fun env ->
          match lookup env var with
          | Some (Value.Oid oid) ->
              (* Already bound: keep the env iff the object belongs. *)
              Ok
                (if List.exists (Ident.Oid.equal oid) extent then [ env ]
                 else [])
          | Some v ->
              Error
                (`Type_error
                  (Printf.sprintf "variable %s is not an object (%s)" var
                     (Value.to_string v)))
          | None ->
              Ok (List.map (fun oid -> (var, Value.Oid oid) :: env) extent))
        envs
      |> Result.map List.concat
  | Occurred { expr; var } ->
      let matching = Ts.occurred_objects ts_env ~at expr in
      map_result
        (fun env ->
          match lookup env var with
          | Some (Value.Oid oid) ->
              Ok
                (if List.exists (Ident.Oid.equal oid) matching then [ env ]
                 else [])
          | Some v ->
              Error
                (`Type_error
                  (Printf.sprintf "variable %s is not an object (%s)" var
                     (Value.to_string v)))
          | None ->
              Ok (List.map (fun oid -> (var, Value.Oid oid) :: env) matching))
        envs
      |> Result.map List.concat
  | At { expr; var; time_var } ->
      let extend env oid =
        let instants = Ts.occurrence_instants ts_env ~at expr oid in
        List.map
          (fun tau ->
            let env =
              if lookup env var = None then (var, Value.Oid oid) :: env
              else env
            in
            (time_var, Value.Int (Time.to_int tau)) :: env)
          instants
      in
      map_result
        (fun env ->
          match lookup env var with
          | Some (Value.Oid oid) -> Ok (extend env oid)
          | Some v ->
              Error
                (`Type_error
                  (Printf.sprintf "variable %s is not an object (%s)" var
                     (Value.to_string v)))
          | None ->
              let candidates = Ts.occurred_objects ts_env ~at expr in
              Ok (List.concat_map (extend env) candidates))
        envs
      |> Result.map List.concat
  | Compare pred ->
      map_result
        (fun env ->
          let* keep =
            (Query.eval_predicate store ~resolve:(lookup env) pred
              : (bool, Query.error) result
              :> (bool, error) result)
          in
          Ok (if keep then [ env ] else []))
        envs
      |> Result.map List.concat

(* Evaluates [atoms] under the given initial bindings. *)
and eval_under store ts_env ~at atoms envs : (env list, error) result =
  List.fold_left
    (fun acc atom ->
      let* envs = acc in
      if envs = [] then Ok [] else eval_atom store ts_env ~at atom envs)
    (Ok envs) (plan atoms)

(* Evaluates the condition at instant [at] against the window R carried
   by the [Ts] environment; returns the satisfying bindings (empty list: not
   satisfied). *)
let eval store ts_env ~at atoms : (env list, error) result =
  eval_under store ts_env ~at atoms [ [] ]

(* Event types the condition's event formulas probe: the union of the
   primitive types of every [occurred]/[at] expression, including those
   nested under [absent].  The sliding-window horizon must not retire a
   type's postings past any window these formulas can still reach into. *)
let event_types atoms =
  let module Event_type = Chimera_event.Event_type in
  let rec collect acc = function
    | Range _ | Compare _ -> acc
    | Occurred { expr; _ } | At { expr; _ } ->
        Event_type.Set.union acc (Expr.primitives_inst expr)
    | Absent nested -> List.fold_left collect acc nested
  in
  List.fold_left collect Event_type.Set.empty atoms

let vars atoms =
  (* Variables bound inside an [Absent] are local to it. *)
  List.concat_map
    (function
      | Range { var; _ } | Occurred { var; _ } -> [ var ]
      | At { var; time_var; _ } -> [ var; time_var ]
      | Compare _ | Absent _ -> [])
    atoms
  |> List.sort_uniq String.compare

let rec pp_atom ppf = function
  | Range { var; class_name } -> Fmt.pf ppf "%s(%s)" class_name var
  | Occurred { expr; var } ->
      Fmt.pf ppf "occurred(%a, %s)" Expr.pp_inst expr var
  | At { expr; var; time_var } ->
      Fmt.pf ppf "at(%a, %s, %s)" Expr.pp_inst expr var time_var
  | Compare pred -> Query.pp_predicate ppf pred
  | Absent atoms -> Fmt.pf ppf "absent(%a)" pp atoms

and pp ppf atoms = Fmt.(list ~sep:comma pp_atom) ppf atoms
