(* The worked timelines of Sections 3.1 and 3.2: each walkthrough in the
   paper is transcribed as a test on activation status and activation
   timestamp at every regime the text discusses. *)

open Core

let a = Domain.create_stock
let m = Domain.modify_stock_quantity
let mmin = Domain.modify_stock_minquantity
let o1 = Ident.Oid.of_int 1
let o2 = Ident.Oid.of_int 2
let o3 = Ident.Oid.of_int 3

(* Replays occurrences and returns (eb, instants of each occurrence). *)
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

let check_ts env expr ~at expected_msg expected =
  Alcotest.(check int) expected_msg expected (Ts.ts env ~at expr)

(* Section 3.1, disjunction: create at t1, t2; modify at t3. *)
let test_set_disjunction () =
  let eb, stamps = replay [ (a, o1); (a, o2); (m, o1) ] in
  let t1, t2, t3 =
    match stamps with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  let env = env_all eb in
  let e = Expr_parse.parse_exn "create(stock) , modify(stock.quantity)" in
  let before = Time.probe_before t1 in
  check_ts env e ~at:before "inactive before t1" (-Time.to_int before);
  check_ts env e ~at:t1 "stamp t1 in [t1,t2)" (Time.to_int t1);
  check_ts env e ~at:(Time.probe_before t2) "still t1 just before t2" (Time.to_int t1);
  check_ts env e ~at:t2 "stamp t2 in [t2,t3)" (Time.to_int t2);
  check_ts env e ~at:t3 "stamp t3 after t3" (Time.to_int t3);
  check_ts env e ~at:(Time.probe_after t3) "stays t3" (Time.to_int t3)

(* Section 3.1, conjunction: active only from t3, stamped t3. *)
let test_set_conjunction () =
  let eb, stamps = replay [ (a, o1); (a, o2); (m, o1) ] in
  let t1, t2, t3 =
    match stamps with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  let env = env_all eb in
  let e = Expr_parse.parse_exn "create(stock) + modify(stock.quantity)" in
  let before = Time.probe_before t1 in
  check_ts env e ~at:before "inactive before t1" (-Time.to_int before);
  let mid = Time.probe_before t2 in
  check_ts env e ~at:mid "still inactive in [t1,t2)" (-Time.to_int mid);
  let mid2 = Time.probe_before t3 in
  check_ts env e ~at:mid2 "still inactive in [t2,t3)" (-Time.to_int mid2);
  check_ts env e ~at:t3 "active from t3 with stamp t3" (Time.to_int t3);
  (* After t3 the conjunction keeps the max of activation stamps. *)
  check_ts env e ~at:(Time.probe_after t3) "stays t3" (Time.to_int t3)

(* Section 3.1, negation: -create(stock) with a single create at t1. *)
let test_set_negation () =
  let eb, stamps = replay [ (a, o1) ] in
  let t1 = List.hd stamps in
  let env = env_all eb in
  let e = Expr_parse.parse_exn "-create(stock)" in
  let before = Time.probe_before t1 in
  check_ts env e ~at:before "active before t1, stamped now" (Time.to_int before);
  check_ts env e ~at:t1 "inactive from t1" (-Time.to_int t1);
  check_ts env e ~at:(Time.probe_after t1) "stays inactive"
    (-Time.to_int t1)

(* Section 3.1, precedence: creates at t1 t2, modify at t3. *)
let test_set_precedence () =
  let eb, stamps = replay [ (a, o1); (a, o2); (m, o1) ] in
  let t1, t2, t3 =
    match stamps with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  ignore t1;
  let env = env_all eb in
  let e = Expr_parse.parse_exn "create(stock) < modify(stock.quantity)" in
  let mid = Time.probe_before t3 in
  check_ts env e ~at:mid "inactive before t3" (-Time.to_int mid);
  check_ts env e ~at:t3 "active at t3 with stamp t3" (Time.to_int t3);
  check_ts env e ~at:(Time.probe_after t3) "stamp remains t3" (Time.to_int t3);
  ignore t2

(* Precedence requires the first operand strictly before the second's
   activation: modify-then-create is not create-before-modify. *)
let test_set_precedence_order_matters () =
  let eb, _ = replay [ (m, o1); (a, o1) ] in
  let env = env_all eb in
  let e = Expr_parse.parse_exn "create(stock) < modify(stock.quantity)" in
  let at = Event_base.probe_now eb in
  Alcotest.(check bool) "not active" false (Ts.active env ~at e)

(* Section 3.2, instance-oriented primitives: creates on o1 at t1 and o2 at
   t2 are tracked per object. *)
let test_instance_primitive () =
  let eb, stamps = replay [ (a, o1); (a, o2) ] in
  let t1, t2 = match stamps with [ x; y ] -> (x, y) | _ -> assert false in
  let env = env_all eb in
  let p = Expr.I_prim a in
  let mid = Time.probe_before t2 in
  Alcotest.(check int) "o1 active at t1" (Time.to_int t1) (Ts.ots env ~at:mid p o1);
  Alcotest.(check int) "o2 inactive before t2" (-Time.to_int mid)
    (Ts.ots env ~at:mid p o2);
  let late = Time.probe_after t2 in
  Alcotest.(check int) "o1 keeps t1" (Time.to_int t1) (Ts.ots env ~at:late p o1);
  Alcotest.(check int) "o2 active from t2" (Time.to_int t2)
    (Ts.ots env ~at:late p o2)

(* Section 3.2, instance conjunction: create and modify must hit the same
   object. *)
let test_instance_conjunction () =
  let eb, _ = replay [ (a, o1); (m, o2) ] in
  let env = env_all eb in
  let e = Expr_parse.parse_exn "create(stock) += modify(stock.quantity)" in
  let at = Event_base.probe_now eb in
  Alcotest.(check bool) "different objects: inactive" false (Ts.active env ~at e);
  let eb2, stamps = replay [ (a, o1); (m, o2); (m, o1) ] in
  let env2 = env_all eb2 in
  let t3 = List.nth stamps 2 in
  Alcotest.(check int) "same object o1: active with stamp t3" (Time.to_int t3)
    (Ts.ts env2 ~at:(Event_base.probe_now eb2) e)

(* Section 3.2, instance disjunction walkthrough: creates on o1, o2;
   modifies on o1, o3. *)
let test_instance_disjunction () =
  let eb, stamps = replay [ (a, o1); (a, o2); (m, o1); (m, o3) ] in
  let t1, t2, t3, t4 =
    match stamps with [ w; x; y; z ] -> (w, x, y, z) | _ -> assert false
  in
  let env = env_all eb in
  let e = Expr_parse.parse_exn "create(stock) ,= modify(stock.quantity)" in
  let ie =
    Expr_parse.parse_inst_exn "create(stock) ,= modify(stock.quantity)"
  in
  let late = Event_base.probe_now eb in
  Alcotest.(check int) "o1: most recent of create/modify" (Time.to_int t3)
    (Ts.ots env ~at:late ie o1);
  Alcotest.(check int) "o2: its create" (Time.to_int t2) (Ts.ots env ~at:late ie o2);
  Alcotest.(check int) "o3: its modify" (Time.to_int t4) (Ts.ots env ~at:late ie o3);
  (* Set-lifted: the most recent activation across objects. *)
  Alcotest.(check int) "lifted stamp" (Time.to_int t4) (Ts.ts env ~at:late e);
  ignore t1

(* Section 3.2, instance negation: -=create(stock) is active for an object
   with no creation, and set-wise iff no object has one. *)
let test_instance_negation () =
  let eb, stamps = replay [ (a, o1); (m, o2) ] in
  let t1 = List.hd stamps in
  let env = env_all eb in
  let ie = Expr_parse.parse_inst_exn "-=create(stock)" in
  let late = Event_base.probe_now eb in
  Alcotest.(check bool) "inactive for created o1" false
    (Ts.active_on env ~at:late ie o1);
  Alcotest.(check bool) "active for untouched-by-create o2" true
    (Ts.active_on env ~at:late ie o2);
  (* Set level: some object (o1) has the creation, so the lifted negation
     is inactive. *)
  let e = Expr.Inst ie in
  Alcotest.(check bool) "lifted: inactive" false (Ts.active env ~at:late e);
  (* Before t1 nothing was created: lifted negation active. *)
  let before = Time.probe_before t1 in
  Alcotest.(check bool) "lifted active before any create" true
    (Ts.active env ~at:before e)

(* Section 3.2, instance precedence: both events on the same object, in
   order. *)
let test_instance_precedence () =
  let eb, stamps = replay [ (mmin, o1); (mmin, o1); (m, o1) ] in
  let t3 = List.nth stamps 2 in
  let env = env_all eb in
  let ie =
    Expr_parse.parse_inst_exn
      "modify(stock.minquantity) <= modify(stock.quantity)"
  in
  let late = Event_base.probe_now eb in
  Alcotest.(check int) "active for o1 with stamp t3" (Time.to_int t3)
    (Ts.ots env ~at:late ie o1);
  (* Cross-object sequence does not satisfy the instance precedence. *)
  let eb2, _ = replay [ (mmin, o1); (m, o2) ] in
  let env2 = env_all eb2 in
  Alcotest.(check bool) "cross-object: inactive set-wise" false
    (Ts.active env2 ~at:(Event_base.probe_now eb2) (Expr.Inst ie));
  (* But the set-oriented precedence is satisfied by different objects. *)
  let se =
    Expr_parse.parse_exn "modify(stock.minquantity) < modify(stock.quantity)"
  in
  Alcotest.(check bool) "set-oriented: active" true
    (Ts.active env2 ~at:(Event_base.probe_now eb2) se)

(* The paper's complex sample expression (Section 3.1) parses and evaluates. *)
let test_paper_sample_expression () =
  let e = Scenario.sample_composite_event in
  let eb, _ = replay [ (Domain.modify_show_quantity, o1) ] in
  let env = env_all eb in
  (* A shown-product change with no stock-order creation: the negated
     branch holds, so the conjunction is active. *)
  Alcotest.(check bool) "active on modify(show.quantity) alone" true
    (Ts.active env ~at:(Event_base.probe_now eb) e)

(* Windows: a consuming window hides occurrences before the last
   consideration. *)
let test_window_consumption () =
  let eb, stamps = replay [ (a, o1); (m, o1) ] in
  let t1 = List.hd stamps in
  let e = Expr_parse.parse_exn "create(stock)" in
  let late = Event_base.probe_now eb in
  let consuming =
    Ts.env eb ~window:(Window.make ~after:(Time.probe_after t1) ~upto:late)
  in
  Alcotest.(check bool) "create consumed" false (Ts.active consuming ~at:late e);
  let preserving = Ts.env eb ~window:(Window.all ~upto:late) in
  Alcotest.(check bool) "preserved" true (Ts.active preserving ~at:late e)

(* The paper's two semantic styles agree at every (window start, probe
   instant) pair — the moving windows consumption produces, not only the
   whole history. *)
let styles_agree_over_moving_windows =
  Gen.qcheck ~count:200 "logical = algebraic over moving windows"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      let eb = Gen.build_event_base h in
      let upto = Event_base.probe_now eb in
      List.for_all
        (fun after ->
          let window = Window.make ~after ~upto in
          let logical = Ts.env ~style:Ts.Logical eb ~window in
          let algebraic = Ts.env ~style:Ts.Algebraic eb ~window in
          List.for_all
            (fun at -> Ts.ts logical ~at e = Ts.ts algebraic ~at e)
            (Gen.probe_instants eb))
        (Gen.window_starts eb))

let suite =
  [
    Alcotest.test_case "set disjunction timeline (3.1)" `Quick
      test_set_disjunction;
    Alcotest.test_case "set conjunction timeline (3.1)" `Quick
      test_set_conjunction;
    Alcotest.test_case "set negation timeline (3.1)" `Quick test_set_negation;
    Alcotest.test_case "set precedence timeline (3.1)" `Quick
      test_set_precedence;
    Alcotest.test_case "precedence needs order" `Quick
      test_set_precedence_order_matters;
    Alcotest.test_case "instance primitives (3.2)" `Quick
      test_instance_primitive;
    Alcotest.test_case "instance conjunction (3.2)" `Quick
      test_instance_conjunction;
    Alcotest.test_case "instance disjunction (3.2)" `Quick
      test_instance_disjunction;
    Alcotest.test_case "instance negation (3.2)" `Quick test_instance_negation;
    Alcotest.test_case "instance precedence (3.2)" `Quick
      test_instance_precedence;
    Alcotest.test_case "paper sample expression" `Quick
      test_paper_sample_expression;
    Alcotest.test_case "window consumption" `Quick test_window_consumption;
    styles_agree_over_moving_windows;
  ]
