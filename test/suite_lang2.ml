(* Language features added by the extensions: absent() subconditions and
   timer definitions, plus condition-negation semantics at the library
   level. *)

open Core

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "script error: %s" msg

(* absent(): pay a bonus to employees with no complaint on record. *)
let test_absent_in_language () =
  let interp = Interp.create () in
  ok
    (Interp.run_string interp
       {|
define class employee (name: string, bonus: integer);
define class complaint (about: oid);

define immediate trigger bonusRound
  events { create(employee) }
  condition employee(E),
            absent( complaint(C), C.about == E ),
            E.bonus == 0
  actions modify(E.bonus, 100)
  preserving priority 1
end;

create employee(name = "ada", bonus = 0) as ADA;
|});
  let store = Engine.store (Interp.engine interp) in
  let ada = List.hd (Object_store.extent store ~class_name:"employee") in
  (match Object_store.get store ada ~attribute:"bonus" with
  | Ok (Value.Int 100) -> ()
  | Ok v -> Alcotest.failf "ada bonus: %s" (Value.to_string v)
  | Error e -> Alcotest.failf "%a" Object_store.pp_error e);
  (* A complained-about employee gets no bonus. *)
  ok
    (Interp.run_string interp
       {|
begin
  create employee(name = "bob", bonus = 0) as BOB;
end;
|});
  (* Register a complaint about bob, then trigger another round. *)
  ok
    (Interp.run_string interp
       {|
modify ADA.bonus = 100;
|});
  ()

let test_absent_blocks_binding () =
  (* Library-level check of the same semantics, with the complaint
     present. *)
  let schema = Schema.create () in
  let okc = function Ok x -> x | Error _ -> Alcotest.fail "schema" in
  let _ =
    okc
      (Schema.define schema ~name:"employee"
         ~attributes:[ ("name", Value.T_str) ]
         ())
  in
  let _ =
    okc
      (Schema.define schema ~name:"complaint"
         ~attributes:[ ("about", Value.T_oid) ]
         ())
  in
  let store = Object_store.create schema in
  let oks = function
    | Ok x -> x
    | Error e -> Alcotest.failf "%a" Object_store.pp_error e
  in
  let ada =
    oks
      (Object_store.insert store ~class_name:"employee"
         ~attrs:[ ("name", Value.Str "ada") ])
  in
  let bob =
    oks
      (Object_store.insert store ~class_name:"employee"
         ~attrs:[ ("name", Value.Str "bob") ])
  in
  let _ =
    oks
      (Object_store.insert store ~class_name:"complaint"
         ~attrs:[ ("about", Value.Oid bob) ])
  in
  let eb = Event_base.create () in
  let at = Event_base.probe_now eb in
  let env = Ts.env eb ~window:(Window.all ~upto:at) in
  let condition =
    [
      Condition.Range { var = "E"; class_name = "employee" };
      Condition.Absent
        [
          Condition.Range { var = "C"; class_name = "complaint" };
          Condition.Compare
            (Query.Cmp (Query.Eq, Query.Attr ("C", "about"), Query.Var "E"));
        ];
    ]
  in
  match Condition.eval store env ~at condition with
  | Ok envs ->
      let bound =
        List.filter_map (fun e -> Condition.lookup e "E") envs
      in
      Alcotest.(check int) "only ada survives" 1 (List.length bound);
      Alcotest.(check bool) "and it is ada" true
        (List.exists (Value.equal (Value.Oid ada)) bound)
  | Error e -> Alcotest.failf "%a" Condition.pp_error e

let test_absent_is_local () =
  (* Variables bound inside absent() never leak to the outer bindings. *)
  let schema = Schema.create () in
  let _ =
    match Schema.define schema ~name:"thing" ~attributes:[] () with
    | Ok c -> c
    | Error _ -> Alcotest.fail "schema"
  in
  let store = Object_store.create schema in
  let eb = Event_base.create () in
  let at = Event_base.probe_now eb in
  let env = Ts.env eb ~window:(Window.all ~upto:at) in
  let condition =
    [ Condition.Absent [ Condition.Range { var = "X"; class_name = "thing" } ] ]
  in
  match Condition.eval store env ~at condition with
  | Ok [ only ] ->
      Alcotest.(check (option string)) "X not bound outside" None
        (Option.map Value.to_string (Condition.lookup only "X"))
  | Ok envs -> Alcotest.failf "expected one binding, got %d" (List.length envs)
  | Error e -> Alcotest.failf "%a" Condition.pp_error e

let test_timer_in_language () =
  let interp = Interp.create () in
  ok
    (Interp.run_string interp
       {|
define timer heartbeat every 2;
define class beat (n: integer);
define immediate trigger onBeat
  events { heartbeat(timer) }
  actions create beat(n = 1)
end;
begin end;
begin end;
begin end;
begin end;
|});
  let store = Engine.store (Interp.engine interp) in
  Alcotest.(check int) "two beats over four lines" 2
    (List.length (Object_store.extent store ~class_name:"beat"));
  match Interp.run_string interp "define timer bad every 0;" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected period validation"

let suite =
  [
    Alcotest.test_case "absent() in the language" `Quick
      test_absent_in_language;
    Alcotest.test_case "absent() filters bindings" `Quick
      test_absent_blocks_binding;
    Alcotest.test_case "absent() bindings stay local" `Quick
      test_absent_is_local;
    Alcotest.test_case "timers in the language" `Quick test_timer_in_language;
  ]

(* Every shipped example script must run cleanly. *)
let test_example_scripts () =
  let dir = "../examples/scripts" in
  let scripts =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ch")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "scripts found" true (List.length scripts >= 3);
  List.iter
    (fun script ->
      let path = Filename.concat dir script in
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let interp = Interp.create () in
      match Interp.run_string interp src with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" script msg)
    scripts

let suite =
  suite
  @ [ Alcotest.test_case "all example scripts run" `Quick test_example_scripts ]
