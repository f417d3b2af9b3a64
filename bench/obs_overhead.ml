(* E10: observability overhead (extension).

   The obs layer rides the hottest engine paths (ts probes, trigger
   sweeps, every transaction line), so its cost is measured where it
   hurts: identical inventory traffic under three modes —

     disabled   the shipped default: every obs entry point is one
                load-and-branch
     metrics    counters/histograms live, spans recorded into the ring
     trace      metrics plus the JSONL file sink streaming every span

   The acceptance budget is the *disabled* row: it must stay within noise
   of the pre-obs engine (checked against E6/E8 numbers); the enabled
   rows document what turning the instruments on costs. *)

open Core

let e10 () =
  Bench_util.print_header "E10: observability overhead";
  Bench_util.print_note
    "Identical traffic (400 lines x 5 ops, standard rule set) per row;\n\
     only the obs mode differs.  min of 5 runs per row.";
  let was_enabled = Obs.enabled () in
  let run () =
    let engine = Scenario.engine () in
    let prng = Prng.create ~seed:(Bench_util.seed_of_experiment "e10") in
    let lines = 400 and ops_per_line = 5 in
    let elapsed, () =
      Bench_util.time_once_ns (fun () ->
          Scenario.run_inventory_traffic prng engine ~lines ~ops_per_line;
          match Engine.commit engine with
          | Ok () -> ()
          | Error e -> invalid_arg (Fmt.str "%a" Engine.pp_error e))
    in
    (elapsed, lines)
  in
  (* One discarded run per mode: the first measured transaction of a
     process otherwise absorbs heap growth and cache warm-up, which
     lands entirely on whichever mode happens to run first. *)
  let min_of_5 f =
    ignore (f ());
    let best = ref infinity and lines = ref 0 in
    for _ = 1 to 5 do
      let t, n = f () in
      if t < !best then best := t;
      lines := n
    done;
    (!best, !lines)
  in
  let trace_path = Filename.temp_file "chimera_e10" ".jsonl" in
  let modes =
    [
      ( "disabled",
        (fun () -> Obs.set_enabled false),
        fun () -> () );
      ( "metrics",
        (fun () ->
          Obs.set_enabled true;
          Obs.reset ()),
        fun () -> () );
      ( "trace",
        (fun () ->
          Obs.set_enabled true;
          Obs.reset ();
          Obs.Sink.attach (Obs.Sink.jsonl ~path:trace_path)),
        fun () -> Obs.Sink.detach ("jsonl:" ^ trace_path) );
    ]
  in
  let table =
    Pretty.table ~title:"engine traffic under obs modes"
      ~header:[ "mode"; "lines/s"; "ns/line"; "overhead" ]
      ~aligns:[ Pretty.Left; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  let json_rows = ref [] in
  let baseline = ref nan in
  Obs.set_enabled false;
  ignore (run ());
  List.iter
    (fun (mode, setup, teardown) ->
      setup ();
      let t, lines = min_of_5 run in
      teardown ();
      let per_line = t /. float_of_int lines in
      if Float.is_nan !baseline then baseline := per_line;
      let overhead = 100.0 *. ((per_line /. !baseline) -. 1.0) in
      Pretty.add_row table
        [
          mode;
          Printf.sprintf "%.0f" (float_of_int lines /. (t /. 1e9));
          Printf.sprintf "%.0f" per_line;
          Printf.sprintf "%+.1f%%" overhead;
        ];
      json_rows :=
        Bench_util.(
          J_obj
            [
              ("mode", J_string mode);
              ("lines", J_int lines);
              ("ns_per_line", J_float per_line);
              ("overhead_pct", J_float overhead);
            ])
        :: !json_rows)
    modes;
  Pretty.print table;
  (try Sys.remove trace_path with Sys_error _ -> ());
  Obs.set_enabled was_enabled;
  Bench_util.write_json ~experiment:"e10" (List.rev !json_rows)
