(* E12: network serving throughput — connection scaling, 1 vs 4 engine
   shards.

   The server and the load generator are both single-threaded pollable
   reactors, so the bench interleaves [Server.poll] and [Loadgen.poll]
   co-operatively in this one process: the numbers measure the full
   protocol path (framing, session multiplexing, engine execution,
   reply) without scheduler or loopback-stack noise dominating.  Every
   LINE creates one object and fires the boot trigger, so each round
   trip is one real transaction-line's worth of engine work.

   Sharding changes *serialization*, not parallelism (one thread): with
   1 shard all C sessions funnel their transactions through one engine
   and queue FIFO; with 4 shards sessions hash across 4 independent
   engines, so the queue behind any one transaction is a quarter as
   long.  The table reports how throughput and tail latency respond. *)

open Core

let lines = 150
let commit_every = 10
let shard_counts = [ 1; 4 ]
let conn_counts = [ 8; 64 ]

let boot_script =
  "define class item (n: integer);\n\
   define class audit (tag: string);\n\
   define immediate trigger onItem for item\n\
  \  events { create(item) }\n\
  \  condition item(I), occurred({ create(item) }, I), I.n > 0\n\
  \  actions create audit(tag = \"item\")\n\
   end;\n"

type row = {
  shards : int;
  conns : int;
  report : Loadgen.report;
}

let run_one ~shards ~conns =
  let server_config =
    {
      Server.default_config with
      Server.engines = shards;
      boot_script = Some boot_script;
      max_conns = conns + 8;
      idle_timeout = 0.;
    }
  in
  match Server.create server_config with
  | Error msg -> failwith msg
  | Ok srv ->
      let lg =
        match
          Loadgen.create
            {
              Loadgen.default_config with
              Loadgen.port = Server.port srv;
              conns;
              lines;
              commit_every;
            }
        with
        | Ok lg -> lg
        | Error msg -> failwith msg
      in
      let rec drive () =
        if not (Loadgen.finished lg) then begin
          ignore (Server.poll srv ~timeout:0.);
          Loadgen.poll lg ~timeout:0.;
          drive ()
        end
      in
      drive ();
      let report = Loadgen.report lg in
      (* Epilogue: drain so journal-free shards still close sockets. *)
      Server.request_drain srv;
      let rec stop n =
        if n > 0 then
          match Server.poll srv ~timeout:0.005 with
          | Server.Stopped -> ()
          | Server.Running -> stop (n - 1)
      in
      stop 1000;
      if report.Loadgen.errors > 0 then
        failwith
          (Printf.sprintf "e12: %d protocol error(s) at shards=%d conns=%d"
             report.Loadgen.errors shards conns);
      { shards; conns; report }

let e12 () =
  Bench_util.print_header
    "E12: network serving throughput (1 vs 4 engine shards, inline on the \
     reactor)";
  Bench_util.print_note
    (Printf.sprintf
       "in-process loopback; %d lines/conn, commit every %d; every line \
        creates an object and fires the boot trigger"
       lines commit_every);
  let rows =
    List.concat_map
      (fun shards ->
        List.map (fun conns -> run_one ~shards ~conns) conn_counts)
      shard_counts
  in
  Printf.printf "\n  %6s %6s %10s %12s %10s %10s %10s\n" "shards" "conns"
    "lines" "lines/s" "p50 us" "p99 us" "max us";
  List.iter
    (fun { shards; conns; report = r } ->
      Printf.printf "  %6d %6d %10d %12.0f %10d %10d %10d\n" shards conns
        r.Loadgen.lines_ok r.Loadgen.lines_per_s
        (r.Loadgen.lat_p50_ns / 1000)
        (r.Loadgen.lat_p99_ns / 1000)
        (r.Loadgen.lat_max_ns / 1000))
    rows;
  let base speed_of target =
    match
      List.find_opt (fun r -> r.shards = 1 && r.conns = target.conns) rows
    with
    | Some b -> speed_of target.report /. speed_of b.report
    | None -> Float.nan
  in
  let speed r = r.Loadgen.lines_per_s in
  List.iter
    (fun r ->
      if r.shards > 1 then
        Printf.printf
          "  %d conns: %d shards serve %.2fx the single-shard throughput\n"
          r.conns r.shards (base speed r))
    rows;
  Bench_util.write_json ~experiment:"e12"
    (List.map
       (fun { shards; conns; report = r } ->
         Bench_util.J_obj
           [
             ("shards", Bench_util.J_int shards);
             ("conns", Bench_util.J_int conns);
             ("lines_per_conn", Bench_util.J_int lines);
             ("commit_every", Bench_util.J_int commit_every);
             ("lines_sent", Bench_util.J_int r.Loadgen.lines_sent);
             ("lines_ok", Bench_util.J_int r.Loadgen.lines_ok);
             ("triggered", Bench_util.J_int r.Loadgen.triggered);
             ("commits", Bench_util.J_int r.Loadgen.commits);
             ("errors", Bench_util.J_int r.Loadgen.errors);
             ("wall_s", Bench_util.J_float r.Loadgen.wall_s);
             ("lines_per_s", Bench_util.J_float r.Loadgen.lines_per_s);
             ("lat_p50_ns", Bench_util.J_int r.Loadgen.lat_p50_ns);
             ("lat_p90_ns", Bench_util.J_int r.Loadgen.lat_p90_ns);
             ("lat_p99_ns", Bench_util.J_int r.Loadgen.lat_p99_ns);
             ("lat_max_ns", Bench_util.J_int r.Loadgen.lat_max_ns);
           ])
       rows)

(* E14: journal-shipping replication — what a warm standby costs and
   what a failover buys.

   The same co-operative single-thread harness as E12, now with up
   to three reactors interleaved: the primary, its journal-tailing
   standby, and the load generator.  The follower row pays the full
   semi-synchronous price: every COMMIT reply is parked until the
   standby has written the records to its local segment copy (fsync per
   the follower's policy) and acknowledged them, so the delta against
   the zero-follower row is the whole replication round trip, not just
   the shipped bytes.

   After the load completes the primary is drained away, the standby is
   promoted, and two numbers are recorded: how long promotion takes (it
   is warm — the shipped segments are re-opened for append, nothing is
   replayed) and how many acknowledged commits the promoted journals
   are missing.  Semi-sync's contract is that the second number is
   zero. *)

let e14_conns = 32
let e14_lines = 100
let e14_shards = 2

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let e14_dir label =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chimera-e14-%s-%d" label (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

type rrow = {
  followers : int;
  r_report : Loadgen.report;
  lag_max : int;  (** worst commits-behind seen on any shard mid-run *)
  promote_ms : float;  (** NaN on the baseline row *)
  acked_lost : int;  (** acked commits missing from the promoted journals *)
}

(* Sum of last committed sequence numbers across a data directory's
   shard journals — commits are per-shard monotone from 1, so this is
   the directory's total committed-transaction count. *)
let e14_journal_commits dir =
  List.fold_left
    (fun acc shard ->
      match
        Journal.read
          ~path:(Filename.concat dir (Printf.sprintf "shard-%d.journal" shard))
      with
      | Ok r -> acc + r.Journal.last_commit_seq
      | Error msg -> failwith msg)
    0
    (List.init e14_shards Fun.id)

let run_repl ~follower =
  let dir_p = e14_dir "primary" in
  let dir_f = e14_dir "standby" in
  let base_config =
    {
      Server.default_config with
      Server.engines = e14_shards;
      boot_script = Some boot_script;
      max_conns = e14_conns + 8;
      idle_timeout = 0.;
    }
  in
  let primary =
    match
      Server.create { base_config with Server.journal_dir = Some dir_p }
    with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let standby =
    if not follower then None
    else
      match
        Server.create
          {
            base_config with
            Server.journal_dir = Some dir_f;
            follow = Some ("127.0.0.1", Server.port primary);
          }
      with
      | Ok s -> Some s
      | Error msg -> failwith msg
  in
  let lg =
    match
      Loadgen.create
        {
          Loadgen.default_config with
          Loadgen.port = Server.port primary;
          conns = e14_conns;
          lines = e14_lines;
          commit_every;
        }
    with
    | Ok lg -> lg
    | Error msg -> failwith msg
  in
  let lag_max = ref 0 in
  let sample_lag () =
    match standby with
    | None -> ()
    | Some s ->
        Array.iter
          (fun (applied, head) -> lag_max := max !lag_max (head - applied))
          (Session.Manager.repl_seqs (Server.manager s))
  in
  let poll_all () =
    ignore (Server.poll primary ~timeout:0.);
    match standby with
    | Some s -> ignore (Server.poll s ~timeout:0.)
    | None -> ()
  in
  let rec drive n =
    if not (Loadgen.finished lg) then begin
      poll_all ();
      Loadgen.poll lg ~timeout:0.;
      if n mod 64 = 0 then sample_lag ();
      drive (n + 1)
    end
  in
  drive 0;
  let report = Loadgen.report lg in
  if report.Loadgen.errors > 0 then
    failwith
      (Printf.sprintf "e14: %d protocol error(s) with %d follower(s)"
         report.Loadgen.errors
         (if follower then 1 else 0));
  (* Let any in-flight replication batch land before the primary goes
     away: under semi-sync the last acked COMMIT already implies the
     follower applied it, so a short grace is enough. *)
  for _ = 1 to 50 do
    poll_all ()
  done;
  sample_lag ();
  let stop srv =
    Server.request_drain srv;
    let rec go n =
      if n > 0 then
        match Server.poll srv ~timeout:0.005 with
        | Server.Stopped -> ()
        | Server.Running -> go (n - 1)
    in
    go 1000
  in
  stop primary;
  let promote_ms, acked_lost =
    match standby with
    | None -> (Float.nan, 0)
    | Some s ->
        let t0 = Monotime.now_s () in
        Server.request_promote s;
        let rec go n =
          if Server.standby s && n > 0 then begin
            ignore (Server.poll s ~timeout:0.001);
            go (n - 1)
          end
        in
        go 10_000;
        let ms = (Monotime.now_s () -. t0) *. 1e3 in
        if Server.standby s then failwith "e14: promotion never completed";
        stop s;
        (* Every acknowledged commit, plus the boot transaction each
           shard journals, must be in the promoted journals. *)
        let expected = report.Loadgen.commits + e14_shards in
        (ms, max 0 (expected - e14_journal_commits dir_f))
  in
  rm_rf dir_p;
  rm_rf dir_f;
  {
    followers = (if follower then 1 else 0);
    r_report = report;
    lag_max = !lag_max;
    promote_ms;
    acked_lost;
  }

let e14 () =
  Bench_util.print_header
    "E14: journal-shipping replication (0 vs 1 follower, failover)";
  Bench_util.print_note
    (Printf.sprintf
       "in-process loopback, %d shards inline; %d conns, %d lines/conn, \
        commit every %d; the follower row is semi-synchronous (COMMIT \
        waits for the standby's durable ack), then the primary is \
        stopped and the standby promoted"
       e14_shards e14_conns e14_lines commit_every);
  let rows = [ run_repl ~follower:false; run_repl ~follower:true ] in
  Printf.printf "\n  %9s %10s %12s %10s %10s %9s %11s %11s\n" "followers"
    "lines" "lines/s" "p50 us" "p99 us" "lag max" "promote ms" "acked lost";
  List.iter
    (fun { followers; r_report = r; lag_max; promote_ms; acked_lost } ->
      Printf.printf "  %9d %10d %12.0f %10d %10d %9d %11s %11d\n" followers
        r.Loadgen.lines_ok r.Loadgen.lines_per_s
        (r.Loadgen.lat_p50_ns / 1000)
        (r.Loadgen.lat_p99_ns / 1000)
        lag_max
        (if Float.is_nan promote_ms then "-"
         else Printf.sprintf "%.1f" promote_ms)
        acked_lost)
    rows;
  (match rows with
  | [ base; repl ] ->
      Printf.printf
        "  semi-sync replication keeps %.2fx the standalone throughput; \
         %d acked commit(s) lost across failover\n"
        (repl.r_report.Loadgen.lines_per_s
        /. base.r_report.Loadgen.lines_per_s)
        repl.acked_lost
  | _ -> ());
  Bench_util.write_json ~experiment:"e14"
    (List.map
       (fun { followers; r_report = r; lag_max; promote_ms; acked_lost } ->
         Bench_util.J_obj
           [
             ("followers", Bench_util.J_int followers);
             ("shards", Bench_util.J_int e14_shards);
             ("conns", Bench_util.J_int e14_conns);
             ("lines_per_conn", Bench_util.J_int e14_lines);
             ("commit_every", Bench_util.J_int commit_every);
             ("semi_sync", Bench_util.J_bool true);
             ("lines_sent", Bench_util.J_int r.Loadgen.lines_sent);
             ("lines_ok", Bench_util.J_int r.Loadgen.lines_ok);
             ("triggered", Bench_util.J_int r.Loadgen.triggered);
             ("commits", Bench_util.J_int r.Loadgen.commits);
             ("errors", Bench_util.J_int r.Loadgen.errors);
             ("reconnects", Bench_util.J_int r.Loadgen.reconnects);
             ("wall_s", Bench_util.J_float r.Loadgen.wall_s);
             ("lines_per_s", Bench_util.J_float r.Loadgen.lines_per_s);
             ("lat_p50_ns", Bench_util.J_int r.Loadgen.lat_p50_ns);
             ("lat_p90_ns", Bench_util.J_int r.Loadgen.lat_p90_ns);
             ("lat_p99_ns", Bench_util.J_int r.Loadgen.lat_p99_ns);
             ("lat_max_ns", Bench_util.J_int r.Loadgen.lat_max_ns);
             ("repl_lag_max_commits", Bench_util.J_int lag_max);
             ("promote_ms", Bench_util.J_float promote_ms);
             ("acked_commits_lost", Bench_util.J_int acked_lost);
           ])
       rows)

(* E16: pipelined binary ingestion — the tentpole measurement.

   Both rows do *identical engine work* (one external event occurrence
   per round-trip unit, through [Engine.ingest_event]); what differs is
   the wire path.  The baseline is text ping-pong: one [EVENT <etype>
   <oid>] frame outstanding per session, parsed by the text
   command-grammar on the reactor.  The contender is the binary path:
   BATCH frames of fixed-width records, decoded without the text
   parser, [pipeline] frames deep per session — so the round-trip
   latency is amortised over a full window.

   The ratio between the two events/s figures is the deliverable:
   single-shard it isolates protocol overhead (same engine, same
   serialization); at 4 shards (all inline on the reactor) it shows
   pipelining composing with sharded serialization. *)

let e16_conns = 8
let e16_events = 1500
let e16_commit_every = 100
let e16_pipeline = 64
let e16_batch = 16
let e16_shard_counts = [ 1; 4 ]

type e16_row = { b_shards : int; b_binary : bool; b_report : Loadgen.report }

let e16_run ~shards ~binary =
  let server_config =
    {
      Server.default_config with
      Server.engines = shards;
      boot_script = Some boot_script;
      max_conns = e16_conns + 8;
      idle_timeout = 0.;
    }
  in
  match Server.create server_config with
  | Error msg -> failwith msg
  | Ok srv ->
      let lg_config =
        if binary then
          {
            Loadgen.default_config with
            Loadgen.port = Server.port srv;
            conns = e16_conns;
            lines = e16_events;
            commit_every = e16_commit_every;
            binary = true;
            pipeline = e16_pipeline;
            batch = e16_batch;
          }
        else
          {
            Loadgen.default_config with
            Loadgen.port = Server.port srv;
            conns = e16_conns;
            lines = e16_events;
            commit_every = e16_commit_every;
            events = true;
          }
      in
      let lg =
        match Loadgen.create lg_config with
        | Ok lg -> lg
        | Error msg -> failwith msg
      in
      let rec drive () =
        if not (Loadgen.finished lg) then begin
          ignore (Server.poll srv ~timeout:0.);
          Loadgen.poll lg ~timeout:0.;
          drive ()
        end
      in
      drive ();
      let report = Loadgen.report lg in
      Server.request_drain srv;
      let rec stop n =
        if n > 0 then
          match Server.poll srv ~timeout:0.005 with
          | Server.Stopped -> ()
          | Server.Running -> stop (n - 1)
      in
      stop 1000;
      if report.Loadgen.errors > 0 then
        failwith
          (Printf.sprintf "e16: %d protocol error(s) at shards=%d binary=%b"
             report.Loadgen.errors shards binary);
      if report.Loadgen.lines_ok < e16_conns * e16_events then
        failwith
          (Printf.sprintf "e16: only %d/%d events acknowledged"
             report.Loadgen.lines_ok (e16_conns * e16_events));
      { b_shards = shards; b_binary = binary; b_report = report }

let e16 () =
  let cores = Stdlib.Domain.recommended_domain_count () in
  Bench_util.print_header
    "E16: pipelined binary ingestion vs text EVENT ping-pong (shards \
     inline on the reactor)";
  Bench_util.print_note
    (Printf.sprintf
       "in-process loopback; %d conns x %d events, commit every %d; text \
        rows ping-pong EVENT frames, binary rows pipeline %d frames of \
        %d-record BATCHes; identical engine work per event; %d core(s)"
       e16_conns e16_events e16_commit_every e16_pipeline e16_batch cores);
  let rows =
    List.concat_map
      (fun shards ->
        [ e16_run ~shards ~binary:false; e16_run ~shards ~binary:true ])
      e16_shard_counts
  in
  Printf.printf "\n  %6s %7s %10s %12s %10s %10s\n" "shards" "mode" "events"
    "events/s" "p50 us" "p99 us";
  List.iter
    (fun { b_shards; b_binary; b_report = r } ->
      Printf.printf "  %6d %7s %10d %12.0f %10d %10d\n" b_shards
        (if b_binary then "binary" else "text")
        r.Loadgen.lines_ok r.Loadgen.lines_per_s
        (r.Loadgen.lat_p50_ns / 1000)
        (r.Loadgen.lat_p99_ns / 1000))
    rows;
  let ratio shards =
    let find binary =
      List.find_opt
        (fun r -> r.b_shards = shards && r.b_binary = binary)
        rows
    in
    match (find false, find true) with
    | Some t, Some b ->
        b.b_report.Loadgen.lines_per_s /. t.b_report.Loadgen.lines_per_s
    | _ -> Float.nan
  in
  List.iter
    (fun shards ->
      Printf.printf
        "  %d shard(s): binary pipelined ingests %.2fx the text ping-pong \
         rate\n"
        shards (ratio shards))
    e16_shard_counts;
  Bench_util.write_json ~experiment:"e16"
    (List.map
       (fun { b_shards; b_binary; b_report = r } ->
         Bench_util.J_obj
           [
             ("shards", Bench_util.J_int b_shards);
             ( "mode",
               Bench_util.J_string (if b_binary then "binary" else "text") );
             ("conns", Bench_util.J_int e16_conns);
             ("events_per_conn", Bench_util.J_int e16_events);
             ("commit_every", Bench_util.J_int e16_commit_every);
             ( "pipeline",
               Bench_util.J_int (if b_binary then e16_pipeline else 1) );
             ("batch", Bench_util.J_int (if b_binary then e16_batch else 1));
             ("cores", Bench_util.J_int cores);
             ("events_sent", Bench_util.J_int r.Loadgen.lines_sent);
             ("events_ok", Bench_util.J_int r.Loadgen.lines_ok);
             ("commits", Bench_util.J_int r.Loadgen.commits);
             ("errors", Bench_util.J_int r.Loadgen.errors);
             ("wall_s", Bench_util.J_float r.Loadgen.wall_s);
             ("events_per_s", Bench_util.J_float r.Loadgen.lines_per_s);
             ("lat_p50_ns", Bench_util.J_int r.Loadgen.lat_p50_ns);
             ("lat_p90_ns", Bench_util.J_int r.Loadgen.lat_p90_ns);
             ("lat_p99_ns", Bench_util.J_int r.Loadgen.lat_p99_ns);
             ("lat_max_ns", Bench_util.J_int r.Loadgen.lat_max_ns);
             ( "vs_text_ratio",
               Bench_util.J_float
                 (if b_binary then ratio b_shards else 1.0) );
           ])
       rows)

(* E17: live-subscription push throughput — one engine shard, binary
   pipelined ingestion, a growing pool of subscribers each holding one
   SUB rule on the ingested event type.

   Every committed event activates every subscription, so the push side
   fans out: S subscribers turn E ingested events into up to E*S NOTIFY
   frames, shed down to NOTIFY_GAP accounting when a subscriber's
   bounded queue overflows.  The delivery invariant is asserted, not
   assumed: delivered + shed = events * subscribers, exactly.  Each
   ingested oid is its send time in nanoseconds, so every delivered
   binding is one trigger-to-notify latency sample with no correlation
   state (see Loadgen). *)

let e17_ingest_conns = 4
let e17_events = 500
let e17_commit_every = 10
let e17_pipeline = 16
let e17_sub_counts = [ 8; 64 ]

type e17_row = { s_subs : int; s_report : Loadgen.report }

let e17_run ~subscribers =
  let server_config =
    {
      Server.default_config with
      Server.engines = 1;
      max_conns = e17_ingest_conns + subscribers + 8;
      idle_timeout = 0.;
    }
  in
  match Server.create server_config with
  | Error msg -> failwith msg
  | Ok srv ->
      let lg =
        match
          Loadgen.create
            {
              Loadgen.default_config with
              Loadgen.port = Server.port srv;
              conns = e17_ingest_conns;
              lines = e17_events;
              commit_every = e17_commit_every;
              binary = true;
              pipeline = e17_pipeline;
              subscribe = subscribers;
            }
        with
        | Ok lg -> lg
        | Error msg -> failwith msg
      in
      let rec drive () =
        if not (Loadgen.finished lg) then begin
          ignore (Server.poll srv ~timeout:0.);
          Loadgen.poll lg ~timeout:0.;
          drive ()
        end
      in
      drive ();
      let report = Loadgen.report lg in
      Server.request_drain srv;
      let rec stop n =
        if n > 0 then
          match Server.poll srv ~timeout:0.005 with
          | Server.Stopped -> ()
          | Server.Running -> stop (n - 1)
      in
      stop 1000;
      if report.Loadgen.errors > 0 then
        failwith
          (Printf.sprintf "e17: %d protocol error(s) at subscribers=%d"
             report.Loadgen.errors subscribers);
      let expected = e17_ingest_conns * e17_events * subscribers in
      let accounted = report.Loadgen.notifies + report.Loadgen.gap_dropped in
      if accounted <> expected then
        failwith
          (Printf.sprintf
             "e17: delivery invariant broken at subscribers=%d: %d \
              delivered + %d shed <> %d expected"
             subscribers report.Loadgen.notifies report.Loadgen.gap_dropped
             expected);
      { s_subs = subscribers; s_report = report }

let e17 () =
  let cores = Stdlib.Domain.recommended_domain_count () in
  Bench_util.print_header
    "E17: live-subscription push throughput (one shard)";
  Bench_util.print_note
    (Printf.sprintf
       "in-process loopback; %d ingesters x %d binary events (pipeline \
        %d, commit every %d) fanning out to each subscriber's SUB rule; \
        notify queue %d/conn, overflow sheds into NOTIFY_GAP; %d core(s)"
       e17_ingest_conns e17_events e17_pipeline e17_commit_every
       Server.default_config.Server.notify_queue cores);
  let rows = List.map (fun s -> e17_run ~subscribers:s) e17_sub_counts in
  Printf.printf "\n  %6s %10s %8s %12s %10s %10s %10s\n" "subs" "notifies"
    "shed" "notifies/s" "p50 us" "p99 us" "max us";
  List.iter
    (fun { s_subs; s_report = r } ->
      Printf.printf "  %6d %10d %8d %12.0f %10d %10d %10d\n" s_subs
        r.Loadgen.notifies r.Loadgen.gap_dropped r.Loadgen.notifies_per_s
        (r.Loadgen.nlat_p50_ns / 1000)
        (r.Loadgen.nlat_p99_ns / 1000)
        (r.Loadgen.nlat_max_ns / 1000))
    rows;
  List.iter
    (fun { s_subs; s_report = r } ->
      if s_subs = 64 then
        Printf.printf
          "  64 subscribers: %.0f notifies/s delivered (target: 10000)\n"
          r.Loadgen.notifies_per_s)
    rows;
  Bench_util.write_json ~experiment:"e17"
    (List.map
       (fun { s_subs; s_report = r } ->
         Bench_util.J_obj
           [
             ("shards", Bench_util.J_int 1);
             ("subscribers", Bench_util.J_int s_subs);
             ("ingest_conns", Bench_util.J_int e17_ingest_conns);
             ("events_per_conn", Bench_util.J_int e17_events);
             ("commit_every", Bench_util.J_int e17_commit_every);
             ("pipeline", Bench_util.J_int e17_pipeline);
             ( "notify_queue",
               Bench_util.J_int Server.default_config.Server.notify_queue );
             ("cores", Bench_util.J_int cores);
             ("events_ok", Bench_util.J_int r.Loadgen.lines_ok);
             ("notifies", Bench_util.J_int r.Loadgen.notifies);
             ("gap_frames", Bench_util.J_int r.Loadgen.gap_frames);
             ("gap_dropped", Bench_util.J_int r.Loadgen.gap_dropped);
             ("errors", Bench_util.J_int r.Loadgen.errors);
             ("wall_s", Bench_util.J_float r.Loadgen.wall_s);
             ("notifies_per_s", Bench_util.J_float r.Loadgen.notifies_per_s);
             ("nlat_p50_ns", Bench_util.J_int r.Loadgen.nlat_p50_ns);
             ("nlat_p90_ns", Bench_util.J_int r.Loadgen.nlat_p90_ns);
             ("nlat_p99_ns", Bench_util.J_int r.Loadgen.nlat_p99_ns);
             ("nlat_max_ns", Bench_util.J_int r.Loadgen.nlat_max_ns);
           ])
       rows)
