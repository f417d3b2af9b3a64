(* Foundations: the even/odd clock discipline, the deterministic PRNG, and
   the growable vector's binary searches. *)

open Core

let test_clock_discipline () =
  let clock = Time.Clock.create () in
  let t1 = Time.Clock.next_event_instant clock in
  let t2 = Time.Clock.next_event_instant clock in
  Alcotest.(check bool) "event instants are even" true
    (Time.is_event_instant t1 && Time.is_event_instant t2);
  Alcotest.(check bool) "strictly increasing" true (Time.( < ) t1 t2);
  Alcotest.(check bool) "probe between any two events" true
    (Time.is_probe_instant (Time.probe_before t2)
    && Time.( < ) t1 (Time.probe_before t2));
  let probe = Time.Clock.probe_now clock in
  Alcotest.(check bool) "probe_now after all events" true
    (Time.is_probe_instant probe && Time.( > ) probe t2)

let test_clock_advance () =
  let clock = Time.Clock.create () in
  Time.Clock.advance_to clock (Time.of_int 100);
  let t = Time.Clock.next_event_instant clock in
  Alcotest.(check bool) "past the advance" true (Time.( > ) t (Time.of_int 100))

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  let xs = List.init 20 (fun _ -> Prng.next_int a ~bound:1000) in
  let ys = List.init 20 (fun _ -> Prng.next_int b ~bound:1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Prng.create ~seed:43 in
  let zs = List.init 20 (fun _ -> Prng.next_int c ~bound:1000) in
  Alcotest.(check bool) "different seed, different stream" true (xs <> zs)

let test_prng_bounds () =
  let p = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.next_int p ~bound:10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds"
  done;
  let f = Prng.next_float p in
  Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0);
  match Prng.next_int p ~bound:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid bound"

let test_vec_bisect () =
  let v = Vec.create ~dummy:0 in
  List.iter (Vec.push v) [ 2; 4; 4; 8; 10 ];
  let key x = x in
  Alcotest.(check int) "bisect_right finds last <= 4" 2 (Vec.bisect_right v ~key 4);
  Alcotest.(check int) "bisect_right below all" (-1) (Vec.bisect_right v ~key 1);
  Alcotest.(check int) "bisect_right above all" 4 (Vec.bisect_right v ~key 99);
  Alcotest.(check int) "bisect_after 4 is index 3" 3 (Vec.bisect_after v ~key 4);
  Alcotest.(check int) "bisect_after 10 is length" 5 (Vec.bisect_after v ~key 10)

let test_vec_growth () =
  let v = Vec.create ~dummy:(-1) in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "get" 567 (Vec.get v 567);
  Alcotest.(check (option int)) "last" (Some 999) (Vec.last v);
  Alcotest.(check int) "fold" (999 * 1000 / 2) (Vec.fold ( + ) 0 v);
  match Vec.get v 1000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out of bounds"

let test_pretty_table () =
  let t =
    Pretty.table ~title:"demo" ~header:[ "name"; "value" ]
      ~aligns:[ Pretty.Left; Pretty.Right ] ()
  in
  Pretty.add_row t [ "a"; "1" ];
  Pretty.add_row t [ "long-name"; "12345" ];
  let rendered = Pretty.render t in
  Alcotest.(check bool) "has title" true (Astring_contains.contains rendered "demo");
  Alcotest.(check bool) "has separator" true (Astring_contains.contains rendered "|-");
  (match Pretty.add_row t [ "wrong" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity mismatch");
  Alcotest.(check string) "ns formatting" "1.50us" (Pretty.ns_cell 1500.0);
  Alcotest.(check string) "ms formatting" "2.50ms" (Pretty.ns_cell 2.5e6)

(* --- Monotonic clock ------------------------------------------------- *)

let test_monotime_monotonic () =
  let a = Monotime.now_ns () in
  let b = Monotime.now_ns () in
  let c = Monotime.now_ns () in
  Alcotest.(check bool) "never decreases" true (a <= b && b <= c);
  Alcotest.(check bool) "positive" true (a > 0);
  let s = Monotime.now_s () in
  Alcotest.(check bool) "seconds agree with ns" true
    (Float.abs (s -. (float_of_int c /. 1e9)) < 1.0)

let test_monotime_elapsed_clamp () =
  let since = Monotime.now_ns () in
  Alcotest.(check bool) "elapsed non-negative" true
    (Monotime.elapsed_ns ~since >= 0);
  (* A [since] from the future must clamp to zero, not go negative. *)
  let future = Monotime.now_ns () + 1_000_000_000 in
  Alcotest.(check int) "future since clamps" 0 (Monotime.elapsed_ns ~since:future)

(* --- FNV-1a ----------------------------------------------------------- *)

let test_fnv_full_string () =
  (* Every byte participates: strings sharing a long prefix differ. *)
  let prefix = String.make 200 'x' in
  let h1 = Fnv.hash (prefix ^ "a") and h2 = Fnv.hash (prefix ^ "b") in
  Alcotest.(check bool) "suffix changes hash" true (h1 <> h2);
  Alcotest.(check bool) "non-negative" true (h1 >= 0 && h2 >= 0);
  Alcotest.(check int) "deterministic" h1 (Fnv.hash (prefix ^ "a"));
  let s1 = Fnv.hash_seeded ~seed:1 "key" and s2 = Fnv.hash_seeded ~seed:2 "key" in
  Alcotest.(check bool) "seeds give distinct partitionings" true (s1 <> s2)

(* Shard-pinning skew regression (the bug this PR fixes): [Session.Manager]
   used to pin via [Hashtbl.hash sid mod engines] over dense integer
   session ids.  Over the window of sessions a server actually holds at
   once — say 64 consecutive ids — that clusters badly (up to 4x between
   the fullest and emptiest of 4 shards).  FNV-1a over the full id string
   must stay balanced both globally over 10k prefixed ids and over every
   such window. *)

let max_min_ratio counts =
  let mx = Array.fold_left max 0 counts in
  let mn = Array.fold_left min max_int counts in
  float_of_int mx /. float_of_int (Stdlib.max 1 mn)

let skew_over ~shards ~ids pin =
  let counts = Array.make shards 0 in
  List.iter (fun id -> let s = pin id mod shards in counts.(s) <- counts.(s) + 1) ids;
  max_min_ratio counts

let worst_window_skew ~shards ~window pin n =
  (* Worst max/min ratio over any [window] consecutive integer ids. *)
  let worst = ref 1.0 in
  let start = ref 0 in
  while !start + window <= n do
    let ids = List.init window (fun i -> !start + i) in
    let r = skew_over ~shards ~ids pin in
    if r > !worst then worst := r;
    start := !start + window
  done;
  !worst

let test_shard_skew_regression () =
  let n = 10_000 in
  (* 10k prefixed ids, as issued to sessions keyed like [user-00042]. *)
  let prefixed = List.init n (fun i -> Printf.sprintf "user-%08d" i) in
  List.iter
    (fun shards ->
      let r = skew_over ~shards ~ids:prefixed Fnv.hash in
      Alcotest.(check bool)
        (Printf.sprintf "fnv balanced over 10k prefixed ids (/%d): %.2f" shards r)
        true (r <= 1.5))
    [ 4; 8 ];
  (* Windowed: any 64 consecutive integer ids, as [open_session] pins. *)
  let fnv_int i = Fnv.hash (string_of_int i) in
  let fnv_worst = worst_window_skew ~shards:4 ~window:64 fnv_int n in
  Alcotest.(check bool)
    (Printf.sprintf "fnv worst 64-id window (/4): %.2f" fnv_worst)
    true (fnv_worst <= 1.5);
  (* The old scheme fails exactly this bound — keep it as documentation
     that the test would have caught the bug. *)
  let old_pin i = Hashtbl.hash i in
  let old_worst = worst_window_skew ~shards:4 ~window:64 old_pin n in
  Alcotest.(check bool)
    (Printf.sprintf "old Hashtbl.hash pinning skews (/4): %.2f" old_worst)
    true (old_worst > 1.5)

(* --- Loadgen percentile ----------------------------------------------- *)

let test_percentile_edges () =
  let pct = Loadgen.percentile in
  Alcotest.(check int) "empty p50" 0 (pct [||] 50.);
  Alcotest.(check int) "empty p99" 0 (pct [||] 99.);
  let one = [| 7 |] in
  List.iter
    (fun p -> Alcotest.(check int) "single sample" 7 (pct one p))
    [ 0.; 50.; 90.; 99.; 100. ];
  let two = [| 1; 9 |] in
  Alcotest.(check int) "two p50" 1 (pct two 50.);
  Alcotest.(check int) "two p90" 9 (pct two 90.);
  Alcotest.(check int) "two p99" 9 (pct two 99.);
  Alcotest.(check int) "two p100" 9 (pct two 100.);
  let hundred = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "hundred p50" 50 (pct hundred 50.);
  Alcotest.(check int) "hundred p90" 90 (pct hundred 90.);
  Alcotest.(check int) "hundred p99" 99 (pct hundred 99.);
  Alcotest.(check int) "hundred p100" 100 (pct hundred 100.);
  Alcotest.(check int) "hundred p0 clamps" 1 (pct hundred 0.);
  Alcotest.(check int) "over 100 clamps" 100 (pct hundred 150.)

(* ------------------------- Vec prefix retirement (offset semantics) *)

(* The sliding-window substrate: after [retire_prefix], absolute indices
   stay stable, live iteration drops exactly the retired prefix, and the
   bisections keep answering over the live region (with [start - 1] as
   the "nothing live at or below" sentinel).  A model list of
   (absolute index, value) pairs is the oracle. *)

let test_vec_retire_basics () =
  let v = Vec.create ~dummy:(-1) in
  for i = 0 to 9 do
    Vec.push v (i * 10)
  done;
  Vec.retire_prefix v 4;
  Alcotest.(check int) "length stays absolute" 10 (Vec.length v);
  Alcotest.(check int) "start advanced" 4 (Vec.start v);
  Alcotest.(check int) "live_length" 6 (Vec.live_length v);
  Alcotest.(check int) "surviving index stable" 70 (Vec.get v 7);
  (match Vec.get v 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "retired index readable");
  Alcotest.(check (list int)) "to_list is the live suffix"
    [ 40; 50; 60; 70; 80; 90 ] (Vec.to_list v);
  (* Clamps and bounds. *)
  Vec.retire_prefix v 2;
  Alcotest.(check int) "lower bound is a no-op" 4 (Vec.start v);
  (match Vec.retire_prefix v 11 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "retire past length accepted");
  (* Pushes continue the absolute numbering. *)
  Vec.push v 100;
  Alcotest.(check int) "push after retire" 100 (Vec.get v 10);
  (* Bisection over the live region: keys 40..100 at indices 4..10. *)
  let key x = x in
  Alcotest.(check int) "bisect_right live" 6 (Vec.bisect_right v ~key 65);
  Alcotest.(check int) "bisect_right below live" 3 (Vec.bisect_right v ~key 5);
  Alcotest.(check int) "bisect_after" 7 (Vec.bisect_after v ~key 65);
  (* Full retirement: empty live region, indices still absolute. *)
  Vec.retire_prefix v 11;
  Alcotest.(check bool) "empty after full retire" true (Vec.is_empty v);
  Alcotest.(check (option int)) "last on empty" None (Vec.last v);
  Alcotest.(check int) "bisect_right on empty" 10 (Vec.bisect_right v ~key 999);
  Vec.push v 110;
  Alcotest.(check int) "numbering continues" 110 (Vec.get v 11)

let test_vec_retire_truncate_interplay () =
  (* truncate below start is the abort-after-retire edge: rejected, the
     vector unchanged. *)
  let v = Vec.create ~dummy:(-1) in
  for i = 0 to 9 do
    Vec.push v i
  done;
  Vec.retire_prefix v 5;
  (match Vec.truncate v 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truncate below start accepted");
  Vec.truncate v 7;
  Alcotest.(check int) "truncate above start works" 7 (Vec.length v);
  Alcotest.(check (list int)) "live window" [ 5; 6 ] (Vec.to_list v)

let test_vec_retire_qcheck =
  Gen.qcheck ~count:500 "vec retire/push/bisect ≡ model"
    QCheck.(
      pair (int_bound 1_000_000)
        (small_list (pair (int_bound 2) small_nat)))
    (fun (seed, script) ->
      ignore seed;
      let v = Vec.create ~dummy:(-1) in
      (* model: (absolute index, value) assoc of the live region, plus
         the absolute length *)
      let model = ref [] and next = ref 0 in
      let sorted_push x =
        (* values pushed non-decreasing so bisection's precondition
           holds: use the running maximum *)
        let x = match !model with (_, m) :: _ when m > x -> m | _ -> x in
        model := (!next, x) :: !model;
        Vec.push v x;
        incr next
      in
      List.iter
        (fun (op, n) ->
          match op with
          | 0 -> sorted_push n
          | 1 ->
              (* retire a random prefix bound within [0, length] *)
              let bound = min n !next in
              Vec.retire_prefix v bound;
              model := List.filter (fun (i, _) -> i >= bound) !model
          | _ -> (
              (* probe: live view and a bisection agree with the model *)
              let live = List.rev !model in
              if Vec.to_list v <> List.map snd live then
                QCheck.Test.fail_report "live view diverged";
              if Vec.length v <> !next then
                QCheck.Test.fail_report "absolute length diverged";
              if Vec.live_length v <> List.length live then
                QCheck.Test.fail_report "live_length diverged";
              let expect =
                List.fold_left
                  (fun acc (i, x) -> if x <= n then max acc i else acc)
                  (Vec.start v - 1) live
              in
              if Vec.bisect_right v ~key:(fun x -> x) n <> expect then
                QCheck.Test.fail_report "bisect_right diverged";
              match live with
              | [] -> ()
              | (i0, x0) :: _ ->
                  if Vec.get v i0 <> x0 then
                    QCheck.Test.fail_report "first live index diverged"))
        script;
      true)

let suite =
  [
    Alcotest.test_case "clock discipline" `Quick test_clock_discipline;
    Alcotest.test_case "clock advance" `Quick test_clock_advance;
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "vec bisect" `Quick test_vec_bisect;
    Alcotest.test_case "vec growth" `Quick test_vec_growth;
    Alcotest.test_case "vec prefix retirement" `Quick test_vec_retire_basics;
    Alcotest.test_case "vec retire/truncate interplay" `Quick
      test_vec_retire_truncate_interplay;
    test_vec_retire_qcheck;
    Alcotest.test_case "pretty tables" `Quick test_pretty_table;
    Alcotest.test_case "monotime monotonic" `Quick test_monotime_monotonic;
    Alcotest.test_case "monotime elapsed clamp" `Quick test_monotime_elapsed_clamp;
    Alcotest.test_case "fnv full-string" `Quick test_fnv_full_string;
    Alcotest.test_case "shard skew regression" `Quick test_shard_skew_regression;
    Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
  ]
