(** Rule conditions (Sections 2 and 3.3): conjunctions of class ranges,
    event formulas and comparison predicates, evaluated set-oriented into
    the full list of satisfying bindings. *)

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
      (** Negated subcondition: a binding survives iff the nested
          conjunction has no solution under it (variables bound inside are
          local). *)

type t = atom list

(** A binding environment: object variables map to [Value.Oid], time
    variables to [Value.Int] carrying the raw instant. *)
type env = (string * Value.t) list

val lookup : env -> string -> Value.t option

type error = [ Query.error | `Rule_error of string ]

val pp_error : Format.formatter -> error -> unit

val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
(** All-or-nothing map; shared with the action interpreter. *)

val eval :
  Object_store.t -> Ts.env -> at:Time.t -> t -> (env list, error) result
(** Evaluates the condition at instant [at] against the window R carried by
    the [Ts] environment: event formulas are recomputed from the
    event-base indexes.  The empty list means "not satisfied".  Atoms are
    conjunctive, hence order-independent; evaluation reorders them
    cheapest-first (event formulas before ranges before comparisons). *)

val vars : t -> string list
(** Variables bound by the condition, sorted. *)

val event_types : t -> Chimera_event.Event_type.Set.t
(** The primitive event types the condition's event formulas
    ([occurred]/[at], including under [absent]) probe — part of a rule's
    interest set for the sliding-window retirement horizon. *)

val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> t -> unit
