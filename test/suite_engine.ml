(* Integration tests for the rule engine: the paper's checkStockQty
   example (Section 2), coupling modes, consumption modes, priorities,
   detriggering/retriggering, cascades, and the R <> 0 reactivity gate. *)

open Core

let stock_schema () =
  let schema = Schema.create () in
  let ok = function Ok x -> x | Error _ -> Alcotest.fail "schema" in
  let _ =
    ok
      (Schema.define schema ~name:"stock"
         ~attributes:
           [
             ("quantity", Value.T_int);
             ("maxquantity", Value.T_int);
             ("minquantity", Value.T_int);
           ]
         ())
  in
  let _ =
    ok
      (Schema.define schema ~name:"show"
         ~attributes:[ ("quantity", Value.T_int) ]
         ())
  in
  let _ =
    ok
      (Schema.define schema ~name:"stockOrder"
         ~attributes:[ ("delquantity", Value.T_int) ]
         ())
  in
  schema

let create_stock ~quantity ~maxquantity =
  Operation.Create
    {
      class_name = "stock";
      attrs =
        [
          ("quantity", Value.Int quantity);
          ("maxquantity", Value.Int maxquantity);
          ("minquantity", Value.Int 0);
        ];
    }

(* The rule of Section 2: on stock creation, clamp quantity to
   maxquantity. *)
let check_stock_qty_spec =
  {
    Rule.name = "checkStockQty";
    target = Some "stock";
    event = Expr_parse.parse_exn "create(stock)";
    condition =
      [
        Condition.Range { var = "S"; class_name = "stock" };
        Condition.Occurred
          { expr = Expr_parse.parse_inst_exn "create(stock)"; var = "S" };
        Condition.Compare
          (Query.Cmp (Query.Gt, Query.Attr ("S", "quantity"),
             Query.Attr ("S", "maxquantity")));
      ];
    action =
      [
        Action.A_modify
          {
            var = "S";
            attribute = "quantity";
            value = Query.Term (Query.Attr ("S", "maxquantity"));
          };
      ];
    coupling = Rule.Immediate;
    consumption = Rule.Consuming;
    priority = 1;
  }

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "engine error: %a" Engine.pp_error e

let get_int engine oid attr =
  match Object_store.get (Engine.store engine) oid ~attribute:attr with
  | Ok (Value.Int i) -> i
  | Ok v -> Alcotest.failf "expected int, got %s" (Value.to_string v)
  | Error e -> Alcotest.failf "get: %a" Object_store.pp_error e

let all_stock engine = Object_store.extent (Engine.store engine) ~class_name:"stock"

let test_check_stock_qty () =
  let engine = Engine.create (stock_schema ()) in
  let _rule = Engine.define_exn engine check_stock_qty_spec in
  (* Two violating creations and one compliant, in one transaction line:
     the rule runs set-oriented and fixes both violators. *)
  ok
    (Engine.execute_line engine
       [
         create_stock ~quantity:50 ~maxquantity:10;
         create_stock ~quantity:5 ~maxquantity:10;
         create_stock ~quantity:99 ~maxquantity:20;
       ]);
  (match all_stock engine with
  | [ a; b; c ] ->
      Alcotest.(check int) "first clamped" 10 (get_int engine a "quantity");
      Alcotest.(check int) "second untouched" 5 (get_int engine b "quantity");
      Alcotest.(check int) "third clamped" 20 (get_int engine c "quantity")
  | other -> Alcotest.failf "expected 3 stock objects, got %d" (List.length other));
  let stats = Engine.statistics engine in
  Alcotest.(check bool) "rule executed" true (stats.Engine.executions >= 1)

let test_consuming_no_reconsideration () =
  (* After consideration, old events lose the capability of triggering the
     rule (Section 2): a consuming rule does not re-fire on its own
     history. *)
  let engine = Engine.create (stock_schema ()) in
  let _ = Engine.define_exn engine check_stock_qty_spec in
  ok (Engine.execute_line engine [ create_stock ~quantity:50 ~maxquantity:10 ]);
  let stats = Engine.statistics engine in
  let execs_before = stats.Engine.executions in
  (* A line with an unrelated event: rule must not re-run on the old
     create. *)
  ok
    (Engine.execute_line engine
       [
         Operation.Create
           { class_name = "show"; attrs = [ ("quantity", Value.Int 1) ] };
       ]);
  Alcotest.(check int) "no new execution" execs_before stats.Engine.executions

let test_deferred_waits_for_commit () =
  let spec = { check_stock_qty_spec with Rule.coupling = Rule.Deferred } in
  let engine = Engine.create (stock_schema ()) in
  let _ = Engine.define_exn engine spec in
  ok (Engine.execute_line engine [ create_stock ~quantity:50 ~maxquantity:10 ]);
  (match all_stock engine with
  | [ a ] ->
      Alcotest.(check int) "not yet clamped" 50 (get_int engine a "quantity");
      ok (Engine.commit engine);
      Alcotest.(check int) "clamped at commit" 10 (get_int engine a "quantity")
  | _ -> Alcotest.fail "expected one stock object")

let test_priorities_order_consideration () =
  (* Two rules on the same event; the higher-priority one must be
     considered first.  Observable through the actions: both append to a
     log class via creations whose order shows up in oids. *)
  let schema = stock_schema () in
  let _ =
    match
      Schema.define schema ~name:"log" ~attributes:[ ("tag", Value.T_str) ] ()
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "schema"
  in
  let engine = Engine.create schema in
  let log_rule name priority tag =
    {
      Rule.name;
      target = None;
      event = Expr_parse.parse_exn "create(stock)";
      condition =
        [
          Condition.Occurred
            { expr = Expr_parse.parse_inst_exn "create(stock)"; var = "S" };
        ];
      action =
        [
          Action.A_create
            {
              class_name = "log";
              attrs = [ ("tag", Query.Term (Query.Const (Value.Str tag))) ];
              bind = None;
            };
        ];
      coupling = Rule.Immediate;
      consumption = Rule.Consuming;
      priority;
    }
  in
  let _ = Engine.define_exn engine (log_rule "low" 1 "low") in
  let _ = Engine.define_exn engine (log_rule "high" 9 "high") in
  ok (Engine.execute_line engine [ create_stock ~quantity:1 ~maxquantity:10 ]);
  let logs = Object_store.extent (Engine.store engine) ~class_name:"log" in
  let tags =
    List.map
      (fun oid ->
        match Object_store.get (Engine.store engine) oid ~attribute:"tag" with
        | Ok (Value.Str s) -> s
        | _ -> Alcotest.fail "tag")
      logs
  in
  Alcotest.(check (list string)) "high first" [ "high"; "low" ] tags

let test_cascade_retriggering () =
  (* Rule A's action creates a show object; rule B reacts to that creation:
     rule processing must cascade. *)
  let engine = Engine.create (stock_schema ()) in
  let rule_a =
    {
      Rule.name = "onStockCreate";
      target = None;
      event = Expr_parse.parse_exn "create(stock)";
      condition =
        [
          Condition.Occurred
            { expr = Expr_parse.parse_inst_exn "create(stock)"; var = "S" };
        ];
      action =
        [
          Action.A_create
            {
              class_name = "show";
              attrs = [ ("quantity", Query.Term (Query.Const (Value.Int 0))) ];
              bind = None;
            };
        ];
      coupling = Rule.Immediate;
      consumption = Rule.Consuming;
      priority = 2;
    }
  in
  let rule_b =
    {
      Rule.name = "onShowCreate";
      target = None;
      event = Expr_parse.parse_exn "create(show)";
      condition =
        [
          Condition.Occurred
            { expr = Expr_parse.parse_inst_exn "create(show)"; var = "W" };
        ];
      action =
        [
          Action.A_modify
            {
              var = "W";
              attribute = "quantity";
              value = Query.Term (Query.Const (Value.Int 42));
            };
        ];
      coupling = Rule.Immediate;
      consumption = Rule.Consuming;
      priority = 1;
    }
  in
  let _ = Engine.define_exn engine rule_a in
  let _ = Engine.define_exn engine rule_b in
  ok (Engine.execute_line engine [ create_stock ~quantity:1 ~maxquantity:10 ]);
  let shows = Object_store.extent (Engine.store engine) ~class_name:"show" in
  (match shows with
  | [ w ] -> Alcotest.(check int) "cascaded" 42 (get_int engine w "quantity")
  | _ -> Alcotest.fail "expected one show object")

let test_nontermination_guard () =
  (* A rule that reacts to create(show) by creating another show never
     quiesces; the engine must stop with `Nontermination instead of
     looping. *)
  let config =
    { Engine.default_config with Engine.max_rule_executions = 50 }
  in
  let engine = Engine.create ~config (stock_schema ()) in
  let spec =
    {
      Rule.name = "loop";
      target = None;
      event = Expr_parse.parse_exn "create(show)";
      condition =
        [
          Condition.Occurred
            { expr = Expr_parse.parse_inst_exn "create(show)"; var = "W" };
        ];
      action =
        [
          Action.A_create
            {
              class_name = "show";
              attrs = [ ("quantity", Query.Term (Query.Const (Value.Int 0))) ];
              bind = None;
            };
        ];
      coupling = Rule.Immediate;
      consumption = Rule.Consuming;
      priority = 1;
    }
  in
  let _ = Engine.define_exn engine spec in
  match
    Engine.execute_line engine
      [
        Operation.Create
          { class_name = "show"; attrs = [ ("quantity", Value.Int 1) ] };
      ]
  with
  | Error (`Nontermination _) -> ()
  | Ok () -> Alcotest.fail "expected nontermination"
  | Error e -> Alcotest.failf "unexpected error: %a" Engine.pp_error e

let test_negation_reactive_not_active () =
  (* A rule on -create(stock) must not fire while nothing at all happens
     (the R <> 0 gate keeps the system reactive), but fires once any
     activity occurs without a stock creation.  Since any event retriggers
     a negation rule — including its own action's — the rule's condition
     makes it quiesce (set a marker to 7 only while it differs). *)
  let engine = Engine.create (stock_schema ()) in
  let spec =
    {
      Rule.name = "noStock";
      target = None;
      event = Expr_parse.parse_exn "-create(stock)";
      condition =
        [
          Condition.Range { var = "W"; class_name = "show" };
          Condition.Compare
            (Query.Cmp (Query.Neq, Query.Attr ("W", "quantity"),
               Query.Const (Value.Int 7)));
        ];
      action =
        [
          Action.A_modify
            {
              var = "W";
              attribute = "quantity";
              value = Query.Term (Query.Const (Value.Int 7));
            };
        ];
      coupling = Rule.Deferred;
      consumption = Rule.Consuming;
      priority = 1;
    }
  in
  let _ = Engine.define_exn engine spec in
  (* Empty transaction: commit must not trigger the rule at all. *)
  ok (Engine.commit engine);
  let stats = Engine.statistics engine in
  Alcotest.(check int)
    "nothing happened, never triggered" 0
    stats.Engine.trigger_stats.Trigger_support.fired;
  (* Unrelated activity (a show creation, no stock creation): the negation
     rule fires at commit and sets the marker. *)
  ok
    (Engine.execute_line engine
       [
         Operation.Create
           { class_name = "show"; attrs = [ ("quantity", Value.Int 1) ] };
       ]);
  ok (Engine.commit engine);
  (match Object_store.extent (Engine.store engine) ~class_name:"show" with
  | [ w ] -> Alcotest.(check int) "marker set" 7 (get_int engine w "quantity")
  | _ -> Alcotest.fail "expected one show object");
  Alcotest.(check bool)
    "triggered at least once" true
    (stats.Engine.trigger_stats.Trigger_support.fired >= 1)

let test_targeted_rule_validation () =
  let engine = Engine.create (stock_schema ()) in
  let spec =
    {
      check_stock_qty_spec with
      Rule.name = "bad";
      event = Expr_parse.parse_exn "create(show)";
    }
  in
  match Engine.define engine spec with
  | Error (`Rule_error _) -> ()
  | Ok _ -> Alcotest.fail "expected target validation to fail"

(* Undefining a rule the engine does not hold is an [Error], never an
   exception — the server leans on this when an UNSUB races a
   disconnect's own teardown of the same dynamic rule. *)
let test_undefine_unknown_is_error () =
  let engine = Engine.create (stock_schema ()) in
  (match Engine.undefine engine "never-defined" with
  | Error (`Rule_error _) -> ()
  | Ok () -> Alcotest.fail "undefine of an unknown rule succeeded");
  (match Engine.define_dynamic engine check_stock_qty_spec with
  | Ok _ -> ()
  | Error (`Rule_error msg) -> Alcotest.fail msg);
  (match Engine.undefine engine "checkStockQty" with
  | Ok () -> ()
  | Error (`Rule_error msg) -> Alcotest.fail msg);
  (* The second drop of the same name: same clean refusal. *)
  (match Engine.undefine engine "checkStockQty" with
  | Error (`Rule_error _) -> ()
  | Ok () -> Alcotest.fail "double undefine succeeded");
  (* And the engine still works: redefining under the dropped name is
     legal. *)
  match Engine.define_dynamic engine check_stock_qty_spec with
  | Ok _ -> ()
  | Error (`Rule_error msg) -> Alcotest.fail msg

(* The timer registry rejects a duplicate name in O(1) and leaves the
   definition order untouched. *)
let test_duplicate_timer_rejected () =
  let engine = Engine.create (Schema.create ()) in
  let _ = Engine.define_timer engine ~name:"tick" ~period_lines:3 in
  (match Engine.define_timer engine ~name:"tick" ~period_lines:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate timer name accepted");
  Alcotest.(check (list string)) "registry unchanged by rejection"
    [ "tick" ]
    (Engine.timer_names engine);
  let _ = Engine.define_timer engine ~name:"tock" ~period_lines:2 in
  Alcotest.(check (list string)) "definition order preserved"
    [ "tick"; "tock" ]
    (Engine.timer_names engine)

let suite =
  [
    Alcotest.test_case "checkStockQty clamps violators" `Quick
      test_check_stock_qty;
    Alcotest.test_case "consuming rules do not reconsider old events" `Quick
      test_consuming_no_reconsideration;
    Alcotest.test_case "deferred rules wait for commit" `Quick
      test_deferred_waits_for_commit;
    Alcotest.test_case "priorities order consideration" `Quick
      test_priorities_order_consideration;
    Alcotest.test_case "rule cascades retrigger" `Quick
      test_cascade_retriggering;
    Alcotest.test_case "nontermination guard" `Quick test_nontermination_guard;
    Alcotest.test_case "negation rules are reactive, not active" `Quick
      test_negation_reactive_not_active;
    Alcotest.test_case "targeted rule validation" `Quick
      test_targeted_rule_validation;
    Alcotest.test_case "undefine of an unknown rule is an error" `Quick
      test_undefine_unknown_is_error;
    Alcotest.test_case "duplicate timer rejected" `Quick
      test_duplicate_timer_rejected;
  ]
