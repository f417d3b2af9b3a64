(* Event formulas (Section 3.3): occurred over composite instance
   expressions, and the new occurrence-timestamp predicate at. *)

open Core

let a = Domain.create_stock
let m = Domain.modify_stock_quantity
let o1 = Ident.Oid.of_int 1
let o2 = Ident.Oid.of_int 2

let replay occs =
  let eb = Event_base.create () in
  (* Explicit fold: the recording order is load-bearing and List.map's
     application order is unspecified. *)
  let stamps =
    List.rev
      (List.fold_left
         (fun acc (etype, oid) ->
           Occurrence.timestamp (Event_base.record eb ~etype ~oid) :: acc)
         [] occs)
  in
  (eb, stamps)

let env_all eb = Ts.env eb ~window:(Window.all ~upto:(Event_base.probe_now eb))

(* occurred(create(stock) <= modify(stock.quantity), X) binds the created
   objects whose quantity was later modified. *)
let test_occurred_composite () =
  let eb, _ = replay [ (a, o1); (a, o2); (m, o1) ] in
  let env = env_all eb in
  let ie =
    Expr_parse.parse_inst_exn "create(stock) <= modify(stock.quantity)"
  in
  let at = Event_base.probe_now eb in
  let bound = Ts.occurred_objects env ~at ie in
  Alcotest.(check (list int))
    "only o1 bound" [ 1 ]
    (List.map Ident.Oid.to_int bound)

(* The paper's at example: a creation followed by two quantity updates
   makes the composite occur twice, exactly at the two update instants. *)
let test_at_binds_both_updates () =
  let eb, stamps = replay [ (a, o1); (m, o1); (m, o1) ] in
  let t2 = List.nth stamps 1 and t3 = List.nth stamps 2 in
  let env = env_all eb in
  let ie =
    Expr_parse.parse_inst_exn "create(stock) <= modify(stock.quantity)"
  in
  let at = Event_base.probe_now eb in
  let instants = Ts.occurrence_instants env ~at ie o1 in
  Alcotest.(check (list int))
    "both update instants" [ Time.to_int t2; Time.to_int t3 ]
    (List.map Time.to_int instants)

(* The creation instant itself is not an occurrence of the precedence. *)
let test_at_excludes_creation () =
  let eb, stamps = replay [ (a, o1); (m, o1) ] in
  let t1 = List.hd stamps in
  let env = env_all eb in
  let ie =
    Expr_parse.parse_inst_exn "create(stock) <= modify(stock.quantity)"
  in
  let at = Event_base.probe_now eb in
  let instants = Ts.occurrence_instants env ~at ie o1 in
  Alcotest.(check bool)
    "creation instant not included" false
    (List.exists (Time.equal t1) instants)

(* Consumption: with a window starting after the creation, the precedence
   cannot bind (its first component was consumed). *)
let test_occurred_respects_window () =
  let eb, stamps = replay [ (a, o1); (m, o1) ] in
  let t1 = List.hd stamps in
  let ie =
    Expr_parse.parse_inst_exn "create(stock) <= modify(stock.quantity)"
  in
  let at = Event_base.probe_now eb in
  let consuming =
    Ts.env eb ~window:(Window.make ~after:(Time.probe_after t1) ~upto:at)
  in
  Alcotest.(check (list int))
    "nothing bound" []
    (List.map Ident.Oid.to_int (Ts.occurred_objects consuming ~at ie))

(* The holds-replacement note of Section 3.3: net-effect creation — an
   object created and not deleted — expressed directly in the calculus. *)
let test_net_effect_creation () =
  let d = Domain.delete_stock in
  let eb, _ = replay [ (a, o1); (m, o1); (a, o2); (d, o2) ] in
  let env = env_all eb in
  let net_created = Expr_parse.parse_inst_exn "create(stock) += -=delete(stock)" in
  let at = Event_base.probe_now eb in
  let bound = Ts.occurred_objects env ~at net_created in
  Alcotest.(check (list int))
    "o1 survives, o2 was deleted" [ 1 ]
    (List.map Ident.Oid.to_int bound)

(* at on a disjunction reports every refreshing occurrence. *)
let test_at_disjunction () =
  let eb, stamps = replay [ (a, o1); (m, o1) ] in
  let env = env_all eb in
  let ie =
    Expr_parse.parse_inst_exn "create(stock) ,= modify(stock.quantity)"
  in
  let at = Event_base.probe_now eb in
  let instants = Ts.occurrence_instants env ~at ie o1 in
  Alcotest.(check (list int))
    "both instants occur" (List.map Time.to_int stamps)
    (List.map Time.to_int instants)

(* The [occurred] and [at] formulas see the same objects and instants
   under both semantic styles, over every window a consumption can
   leave. *)
let formulas_agree_across_styles =
  Gen.qcheck ~count:200 "occurred/at: logical = algebraic"
    (QCheck.make
       ~print:(fun (h, e) ->
         Printf.sprintf "history=[%s] expr=%s" (Gen.print_history h)
           (Expr.inst_to_string e))
       QCheck.Gen.(pair Gen.gen_history Gen.gen_inst_expr))
    (fun (h, e) ->
      let eb = Gen.build_event_base h in
      let at = Event_base.probe_now eb in
      List.for_all
        (fun after ->
          let window = Window.make ~after ~upto:at in
          let logical = Ts.env ~style:Ts.Logical eb ~window in
          let algebraic = Ts.env ~style:Ts.Algebraic eb ~window in
          let objs env = List.sort compare (Ts.occurred_objects env ~at e) in
          objs logical = objs algebraic
          && List.for_all
               (fun oid ->
                 Ts.occurrence_instants logical ~at e oid
                 = Ts.occurrence_instants algebraic ~at e oid)
               (objs logical))
        (Gen.window_starts eb))

let suite =
  [
    Alcotest.test_case "occurred over composite" `Quick test_occurred_composite;
    Alcotest.test_case "at binds both updates (paper example)" `Quick
      test_at_binds_both_updates;
    Alcotest.test_case "at excludes the creation instant" `Quick
      test_at_excludes_creation;
    Alcotest.test_case "occurred respects consumption window" `Quick
      test_occurred_respects_window;
    Alcotest.test_case "net-effect creation replaces holds" `Quick
      test_net_effect_creation;
    Alcotest.test_case "at on disjunction" `Quick test_at_disjunction;
    formulas_agree_across_styles;
  ]
