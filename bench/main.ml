(* The experiment harness: regenerates every figure and worked example of
   the paper (F1-F6, W1-W2) and runs the performance study its
   implementation section motivates (E1-E6), as indexed in DESIGN.md and
   recorded in EXPERIMENTS.md.

     dune exec bench/main.exe            runs everything
     dune exec bench/main.exe -- f5 e2   runs selected experiments
     dune exec bench/main.exe -- micro   bechamel micro-benchmarks only *)

let experiments =
  [
    ("f1", "operator table (Fig. 1/2)", Figures.f1);
    ("f3", "example event base (Fig. 3/4)", Figures.f3);
    ("f5", "ts timelines + De Morgan (Fig. 5)", Figures.f5);
    ("f6", "V(E) worked example (Fig. 6/7)", Figures.f6);
    ("w1", "set-oriented walkthroughs (3.1)", Figures.w1);
    ("w2", "instance-oriented walkthroughs (3.2)", Figures.w2);
    ("e1", "ts latency vs window size", Perf.e1);
    ("e2", "V(E) ablation", Perf.e2);
    ("e3", "calculus vs baselines", Compare.e3);
    ("e4", "instance vs set granularity", Perf.e4);
    ("e5", "consuming vs preserving", Perf.e5);
    ("e6", "engine throughput", Perf.e6);
    ("e9", "journaling overhead (fsync policy)", Durability.e9);
    ("e10", "observability overhead", Obs_overhead.e10);
    ("e11", "wide rule sets: sweep vs indexed wake", Wide.e11);
    ("e12", "network serving throughput (1 vs 4 shards)", Serve_bench.e12);
    ( "e14",
      "journal-shipping replication (0 vs 1 follower, failover)",
      Serve_bench.e14 );
    ("e15", "bounded state (checkpoints, GC, windows)", Bounded.e15);
    ( "e16",
      "pipelined binary ingestion vs text EVENT ping-pong",
      Serve_bench.e16 );
    ( "e17",
      "live-subscription push throughput (8 vs 64 subscribers)",
      Serve_bench.e17 );
    ("micro", "bechamel micro-benchmarks", Micro.run);
  ]

let usage () =
  print_endline "usage: main.exe [experiment ...]";
  print_endline "experiments:";
  List.iter
    (fun (id, descr, _) -> Printf.printf "  %-6s %s\n" id descr)
    experiments

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
      print_endline
        "Composite Events in Chimera (EDBT 1996) - experiment harness";
      List.iter (fun (_, _, run) -> run ()) experiments
  | _ :: args ->
      if List.mem "--help" args || List.mem "-h" args then usage ()
      else
        List.iter
          (fun arg ->
            match
              List.find_opt (fun (id, _, _) -> String.equal id arg) experiments
            with
            | Some (_, _, run) -> run ()
            | None ->
                Printf.printf "unknown experiment %s\n" arg;
                usage ();
                exit 1)
          args
  | [] -> usage ()
