(* The benchmark driver.

     driver.exe --workload NAME --seed N --seconds S --trace 0|1
     driver.exe --selftest

   Untraced (--trace 0): spawns the built [chimera serve], sets it up
   several times (set-up time is the median), then drives it from this
   single thread through an open-loop latency phase and a closed-loop
   saturation phase, checks the outputs, and prints the end-to-end
   metrics.  Traced (--trace 1): the same run against [serve --metrics],
   then the same job replayed in-process, timed and counted per layer.
   The last line of standard output is the JSON result. *)

open Core

let fail = Replay.fail
let root = Sys.getcwd ()
let chimera = Filename.concat root "_build/default/bin/chimera.exe"
let work_root = Filename.concat root ".perfbench-work"
let now = Monotime.now_ns
let ms ns = Float.of_int ns /. 1e6

(* Set-ups per run; the reported set-up time is their median. *)
let setups = 5

(* Silences longer than this with frames outstanding count as stalls. *)
let stall_ns = 100_000_000

(* A run whose open-loop generator sent its p99 frame later than this
   after the frame was due measured the driver, not the server. *)
let late_bound_ms = 50.

(* ------------------------------------------------------------ samples *)

type vec = Replay.vec

let vec = Replay.vec
let push = Replay.push

let sorted (v : vec) =
  let a = Replay.contents v in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [p]% at or below it. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. Float.of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* -------------------------------------------------------------- setup *)

type kind = Work of int | Commit_ack | Control
type expect = { kind : kind; due : int }

let control = { kind = Control; due = -1 }

type notice = Note of { recv : int; n : Protocol.notify } | Gap of { sub : int; dropped : int }

type session = {
  proc : Proc.t;
  workers : expect Net.t array;
  sub : expect Net.t option;
  window : int;
  sid : int;  (** the subscriber's server-side session id *)
  dir : string;
  journal_commits : int;  (** journal commit markers after set-up *)
}

let all_conns s =
  Array.to_list s.workers @ match s.sub with Some c -> [ c ] | None -> []

(* A blocking request during set-up or teardown: one frame, one reply. *)
let call (c : expect Net.t) command =
  Net.enqueue c (Protocol.command_to_payload command) control;
  Net.flush c;
  let reply = ref None in
  let deadline = now () + 60_000_000_000 in
  while !reply = None do
    Net.turn [ c ] ~timeout:0.05 ~on_payload:(fun c p ->
        if Protocol.is_notify_payload p then fail "notify before its subscription settled"
        else
          match Protocol.reply_of_payload p with
          | Ok r ->
              ignore (Queue.pop c.Net.expect);
              reply := Some r
          | Error msg -> fail "bad reply: %s" msg);
    if c.Net.eof then fail "connection closed during set-up";
    if now () > deadline then fail "no reply within 60 s"
  done;
  Option.get !reply

let call_ok c command =
  match call c command with
  | Protocol.Ok_ info -> info
  | r -> fail "%s refused: %s" (Protocol.command_to_payload command) (Protocol.reply_to_payload r)

let token_int text key =
  let words = String.split_on_char ' ' (String.concat " " (String.split_on_char '\n' text)) in
  List.find_map
    (fun w ->
      let k = key ^ "=" in
      let lk = String.length k in
      if String.length w > lk && String.sub w 0 lk = k then
        int_of_string_opt (String.sub w lk (String.length w - lk))
      else None)
    words

(* The number before [label] on the STATS line starting with [prefix]. *)
let stats_field text ~prefix ~label =
  let lines = String.split_on_char '\n' text in
  match List.find_opt (fun l -> String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix) lines with
  | None -> None
  | Some line ->
      let parts = String.split_on_char ',' (String.sub line (String.length prefix) (String.length line - String.length prefix)) in
      List.find_map
        (fun part ->
          match String.split_on_char ' ' (String.trim part) with
          | n :: rest when String.concat " " rest = label -> int_of_string_opt n
          | _ -> None)
        parts

let serve_args (w : Workload.t) ~dir ~metrics =
  let boot = Filename.concat dir "boot.ch" in
  Proc.write_file boot w.boot;
  [ "--port"; "0"; "--script"; boot ]
  @ (if w.name = "store" then [ "--journal"; Filename.concat dir "journal" ] else [])
  @ (if metrics then [ "--metrics" ] else [])
  @ w.serve_flags

let hello c =
  let info = call_ok c (Protocol.Hello Protocol.version) in
  match token_int info "window" with Some w -> w | None -> fail "HELLO reply has no window: %s" info

(* Set-up traffic: frames sent window-full on one connection, each
   answered before set-up ends. *)
let preload (c : expect Net.t) ~window (ops : Workload.op array) =
  let next = ref 0 in
  while !next < Array.length ops || not (Queue.is_empty c.Net.expect) do
    while !next < Array.length ops && Net.outstanding c < window do
      Net.enqueue c (Replay.payload_of ops.(!next)) control;
      incr next
    done;
    Net.flush c;
    Net.turn [ c ] ~timeout:0.05 ~on_payload:(fun c p ->
        match Protocol.reply_of_payload p with
        | Ok (Protocol.Ok_ _ | Protocol.Triggered _) -> ignore (Queue.pop c.Net.expect)
        | _ -> fail "set-up frame refused: %S" p);
    if c.Net.eof then fail "connection closed during set-up"
  done

(* Servers this run has spawned and not yet stopped: killed on failure. *)
let live_procs = ref []

(* Spawn, wait for the listening line (the boot script has run by then),
   connect, negotiate, announce event types, send the preload, register
   subscriptions. *)
let setup (w : Workload.t) ~dir ~metrics =
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let args = serve_args w ~dir ~metrics in
  let t0 = now () in
  let proc = Proc.spawn ~exe:chimera ~dir ~args in
  live_procs := [ proc ];
  let workers = Array.init w.workers (fun _ -> Net.connect ~port:proc.Proc.port) in
  let window = Array.fold_left (fun _ c -> hello c) 0 workers in
  Array.iter
    (fun c -> Array.iteri (fun id name -> ignore (call_ok c (Protocol.Etype { id; name }))) w.etypes)
    workers;
  preload workers.(0) ~window w.preload;
  let sub, sid =
    match w.subs with
    | [] -> (None, 0)
    | specs ->
        let c = Net.connect ~port:proc.Proc.port in
        ignore (hello c);
        List.iteri (fun id spec -> ignore (call_ok c (Protocol.Sub { id; binary = true; spec }))) specs;
        let stats = call_ok c Protocol.Stats in
        let sid = Scanf.sscanf stats "session %d" (fun d -> d) in
        (Some c, sid)
  in
  let elapsed = now () - t0 in
  let journal_commits =
    if w.name = "store" then
      match stats_field (call_ok workers.(0) Protocol.Stats) ~prefix:"journal: " ~label:"commit(s)" with
      | Some n -> n
      | None -> fail "STATS shows no journal"
    else 0
  in
  ({ proc; workers; sub; window; sid; dir; journal_commits }, Float.of_int elapsed /. 1e9)

let teardown s =
  List.iter Net.close (all_conns s);
  Proc.stop s.proc

(* ---------------------------------------------------------------- run *)

type run = {
  mutable outstanding : int;  (** work frames in flight, all connections *)
  mutable gap_start : int;
  mutable stall_gaps : int;
  mutable gap_max : int;
  mutable errors : int;
  mutable dropped_conns : int;
  mutable lost_frames : int;
  mutable sent_frames : int;
  mutable units_acked : int;
  mutable commits_acked : int;
  ack : vec;
  commit : vec;
  late : vec;
  mutable due_frames : int;
  mutable window_full : int;
  notices : notice Queue.t;
  event_due : vec;  (** fanout: per event sent, its frame's due time (-1 unmeasured) *)
}

let new_run () =
  {
    outstanding = 0;
    gap_start = 0;
    stall_gaps = 0;
    gap_max = 0;
    errors = 0;
    dropped_conns = 0;
    lost_frames = 0;
    sent_frames = 0;
    units_acked = 0;
    commits_acked = 0;
    ack = vec ();
    commit = vec ();
    late = vec ();
    due_frames = 0;
    window_full = 0;
    notices = Queue.create ();
    event_due = vec ();
  }

let on_worker run (c : expect Net.t) p =
  if Protocol.is_notify_payload p then fail "notify on a connection without subscriptions";
  if Queue.is_empty c.Net.expect then fail "unexpected reply %S" p;
  let e = Queue.pop c.Net.expect in
  let t = now () in
  if e.kind <> Control then begin
    let gap = t - run.gap_start in
    if gap > run.gap_max then run.gap_max <- gap;
    if gap >= stall_ns then run.stall_gaps <- run.stall_gaps + 1;
    run.gap_start <- t;
    run.outstanding <- run.outstanding - 1
  end;
  let ok =
    match Protocol.reply_of_payload p with
    | Ok (Protocol.Ok_ _ | Protocol.Triggered _) -> true
    | Ok (Protocol.Err _) -> false
    | Error msg -> fail "bad reply: %s" msg
  in
  if not ok then run.errors <- run.errors + 1;
  let latency () = if ok then t - e.due else max_int in
  match e.kind with
  | Work n ->
      if ok then run.units_acked <- run.units_acked + n;
      if e.due >= 0 then push run.ack (latency ())
  | Commit_ack ->
      if ok then run.commits_acked <- run.commits_acked + 1;
      if e.due >= 0 then push run.commit (latency ())
  | Control -> ()

let on_subscriber run (c : expect Net.t) p =
  if Protocol.is_notify_payload p then
    match Protocol.notify_of_payload p with
    | Ok (`Notify n) -> Queue.push (Note { recv = now (); n }) run.notices
    | Ok (`Gap (sub, dropped)) -> Queue.push (Gap { sub; dropped }) run.notices
    | Error msg -> fail "bad notify: %s" msg
  else begin
    if Queue.is_empty c.Net.expect then fail "unexpected reply %S" p;
    ignore (Queue.pop c.Net.expect);
    match Protocol.reply_of_payload p with
    | Ok (Protocol.Ok_ _) -> ()
    | _ -> fail "subscriber request refused: %S" p
  end

let dispatch run s c p =
  match s.sub with Some sub when sub == c -> on_subscriber run c p | _ -> on_worker run c p

let check_links run s =
  Array.iter
    (fun (c : expect Net.t) ->
      if c.Net.eof && not (Queue.is_empty c.Net.expect) then begin
        run.dropped_conns <- run.dropped_conns + 1;
        let lost = Queue.length c.Net.expect in
        run.lost_frames <- run.lost_frames + lost;
        run.outstanding <- run.outstanding - lost;
        Queue.clear c.Net.expect
      end)
    s.workers;
  match s.sub with Some c when c.Net.eof -> fail "subscriber connection dropped" | _ -> ()

let send run s (c : expect Net.t) op ~due =
  let t = now () in
  if run.outstanding = 0 then run.gap_start <- t;
  run.outstanding <- run.outstanding + 1;
  run.sent_frames <- run.sent_frames + 1;
  let kind = match op with Workload.Commit -> Commit_ack | op -> Work (Workload.units op) in
  (match op with
  | Workload.Batch recs when s.sub <> None -> Array.iter (fun _ -> push run.event_due due) recs
  | _ -> ());
  Net.enqueue c (Replay.payload_of op) { kind; due }

let deadline = ref max_int

let turn run s ~timeout =
  Net.turn (all_conns s) ~timeout ~on_payload:(dispatch run s);
  check_links run s;
  if now () > !deadline then fail "run exceeded its time limit"

(* Open loop: each connection sends its own stream at its share of the
   offered rate.  Frames fall due one by one, or, with [burst_units],
   whole transactions fall due together in bursts of that many units;
   each spacing is drawn uniformly from 0.5-1.5 times its mean, and a
   COMMIT is due with the frame before it.  Each frame is sent when due
   whatever is still in flight.  The schedule has a fixed seed of its
   own, so runs with different workload seeds differ in their data, not
   in their timing. *)
let schedule (w : Workload.t) ~conn (ops : Workload.op array) ~start =
  let prng = Prng.create ~seed:(7919 + conn) in
  let rate = w.offered_per_s *. w.shares.(conn) in
  let gap units = int_of_float (Float.of_int units /. rate *. (0.5 +. Prng.next_float prng) *. 1e9) in
  let t = ref start and left = ref 0 and tx_start = ref true in
  Array.map
    (fun op ->
      (if w.burst_units = 0 then (if op <> Workload.Commit then t := !t + gap (Workload.units op))
       else if !tx_start && !left <= 0 then begin
         t := !t + gap w.burst_units;
         left := w.burst_units
       end);
      left := !left - Workload.units op;
      tx_start := op = Workload.Commit;
      !t)
    ops

let open_loop run s (w : Workload.t) (per_conn : Workload.op array array) =
  let start = now () + 20_000_000 in
  let dues = Array.mapi (fun conn ops -> schedule w ~conn ops ~start) per_conn in
  let next = Array.make (Array.length per_conn) 0 in
  let finished () =
    run.outstanding = 0
    && Array.for_all2 (fun i ops -> i >= Array.length ops) next per_conn
  in
  while not (finished ()) do
    let t = now () in
    let wake = ref (t + 50_000_000) in
    Array.iteri
      (fun i ops ->
        let c = s.workers.(i) in
        while next.(i) < Array.length ops && dues.(i).(next.(i)) <= t && not c.Net.eof do
          let due = dues.(i).(next.(i)) in
          run.due_frames <- run.due_frames + 1;
          if Net.outstanding c >= s.window then run.window_full <- run.window_full + 1;
          push run.late (now () - due);
          send run s c ops.(next.(i)) ~due;
          next.(i) <- next.(i) + 1
        done;
        if c.Net.eof then next.(i) <- Array.length ops;
        Net.flush c;
        if next.(i) < Array.length ops then wake := min !wake dues.(i).(next.(i)))
      per_conn;
    turn run s ~timeout:(Float.of_int (!wake - now ()) /. 1e9)
  done

(* Closed loop: keep every connection's pipeline window full. *)
let saturate run s (per_conn : Workload.op array array) =
  let next = Array.make (Array.length per_conn) 0 in
  let finished () =
    run.outstanding = 0
    && Array.for_all2 (fun i ops -> i >= Array.length ops) next per_conn
  in
  while not (finished ()) do
    Array.iteri
      (fun i ops ->
        let c = s.workers.(i) in
        while next.(i) < Array.length ops && Net.outstanding c < s.window && not c.Net.eof do
          send run s c ops.(next.(i)) ~due:(-1);
          next.(i) <- next.(i) + 1
        done;
        if c.Net.eof then next.(i) <- Array.length ops;
        Net.flush c)
      per_conn;
    turn run s ~timeout:0.05
  done

(* Subscriptions leave last: each UNSUB reply rides behind every notify
   owed to it, so the notify stream is complete when they are in. *)
let unsubscribe run s (w : Workload.t) =
  match s.sub with
  | None -> ()
  | Some c ->
      List.iteri
        (fun id _ -> Net.enqueue c (Protocol.command_to_payload (Protocol.Unsub { id })) control)
        w.subs;
      Net.flush c;
      while not (Queue.is_empty c.Net.expect) do
        turn run s ~timeout:0.05
      done

(* ----------------------------------------------------- output checks *)

type check = { name : string; ok : bool; detail : string }

let render_bindings envs =
  String.concat "|" (List.map (fun env -> String.concat "," (List.map (fun (v, x) -> v ^ "=" ^ x) env)) envs)

(* The NOTIFY stream, per subscription, equals the reference activation
   log: each delivered notify matches the next owed activation, and a
   gap of d accounts for exactly d of them.  Returns the check and the
   (receipt, activation) pairs for latency. *)
let check_notifies run (reference : Replay.activation list) ~sid ~subs =
  let owed = Array.make subs [] in
  List.iter
    (fun (a : Replay.activation) ->
      match String.split_on_char '.' a.Replay.rule with
      | [ "sub"; s; i ] when int_of_string_opt s = Some sid -> (
          match int_of_string_opt i with
          | Some i when i < subs -> owed.(i) <- a :: owed.(i)
          | _ -> ())
      | _ -> ())
    reference;
  let owed = Array.map (fun l -> ref (List.rev l)) owed in
  let total_owed = Array.fold_left (fun n l -> n + List.length !l) 0 owed in
  let mismatch = ref None and delivered = ref 0 and shed = ref 0 in
  let matched = ref [] in
  Queue.iter
    (fun notice ->
      if !mismatch = None then
        match notice with
        | Gap { sub; dropped } ->
            shed := !shed + dropped;
            let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: t -> drop (k - 1) t in
            owed.(sub) := drop dropped !(owed.(sub))
        | Note { recv; n } -> (
            incr delivered;
            match !(owed.(n.Protocol.sub)) with
            | [] -> mismatch := Some (Printf.sprintf "sub %d: notify at %d beyond the reference log" n.Protocol.sub n.Protocol.at)
            | a :: rest ->
                owed.(n.Protocol.sub) := rest;
                if a.Replay.at <> n.Protocol.at || render_bindings a.Replay.bindings <> render_bindings n.Protocol.bindings
                then
                  mismatch :=
                    Some
                      (Printf.sprintf "sub %d: got %d:%s, reference %d:%s" n.Protocol.sub n.Protocol.at
                         (render_bindings n.Protocol.bindings) a.Replay.at (render_bindings a.Replay.bindings))
                else matched := (recv, a) :: !matched))
    run.notices;
  let check =
    match !mismatch with
    | Some detail -> { name = "notify stream equals the reference activations"; ok = false; detail }
    | None ->
        {
          name = "notify stream equals the reference activations";
          ok = !delivered + !shed = total_owed;
          detail = Printf.sprintf "delivered %d + shed %d, owed %d" !delivered !shed total_owed;
        }
  in
  (check, List.rev !matched, !shed, total_owed)

(* Notify latency: from the due time of the last event on the bound
   object [X] at or before the activation instant, to the notify's
   receipt.  The reference replay gives every event its instant; events
   sent in the saturation phase have no due time and are not sampled. *)
let notify_latencies ~(oids : int array) ~(instants : int array) ~(dues : int array) matched =
  let lists = Hashtbl.create 4096 in
  for k = Array.length oids - 1 downto 0 do
    Hashtbl.replace lists oids.(k) (k :: (try Hashtbl.find lists oids.(k) with Not_found -> []))
  done;
  let per_oid = Hashtbl.create 4096 in
  Hashtbl.iter (fun oid ks -> Hashtbl.replace per_oid oid (Array.of_list ks)) lists;
  let all = Array.init (Array.length instants) Fun.id in
  (* the last event of [ks] (ascending) whose instant is <= [at] *)
  let last_before ks at =
    let lo = ref 0 and hi = ref (Array.length ks) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if instants.(ks.(mid)) <= at then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then None else Some ks.(!lo - 1)
  in
  let oid_of v =
    if String.length v > 1 && v.[0] = 'o' then int_of_string_opt (String.sub v 1 (String.length v - 1))
    else None
  in
  let out = vec () in
  List.iter
    (fun (recv, (a : Replay.activation)) ->
      let ks =
        match a.Replay.bindings with
        | env :: _ -> (
            match Option.bind (List.assoc_opt "X" env) oid_of with
            | Some oid -> ( match Hashtbl.find_opt per_oid oid with Some ks -> ks | None -> all)
            | None -> all)
        | [] -> all
      in
      match last_before ks a.Replay.at with
      | Some k when k < Array.length dues && dues.(k) >= 0 -> push out (recv - dues.(k))
      | _ -> ())
    matched;
  out

(* The journal must recover to exactly the commits acknowledged: the
   set-up's plus every COMMIT the driver saw answered. *)
let check_recovery s (w : Workload.t) ~acked =
  let journal = Filename.concat (Filename.concat s.dir "journal") "shard-0.journal" in
  let out_path = Filename.concat s.dir "recover.out" in
  let out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process chimera
      [| chimera; "recover"; journal; Filename.concat s.dir "boot.ch" |]
      Unix.stdin out Unix.stderr
  in
  Unix.close out;
  let _, status = Unix.waitpid [] pid in
  let text = Proc.read_file out_path in
  let expected = s.journal_commits + acked in
  let name = "journal recovers the acknowledged commits" in
  match (status, Scanf.sscanf_opt text "recovered %d transaction(s)" Fun.id) with
  | Unix.WEXITED 0, Some n ->
      { name; ok = n = expected; detail = Printf.sprintf "recovered %d, expected %d (%s)" n expected w.name }
  | _ -> { name; ok = false; detail = "chimera recover failed: " ^ text }

(* ---------------------------------------------------------- socket run *)

type outcome = {
  setup_s : float;
  r : run;
  open_units : int;
  sat_units : int;
  sat_wall_ns : int;
  sat_cpu_s : float;
  hwm_kb : int;
  stats : string;  (** the final STATS reply *)
  serve_out : string;  (** the server's standard output after drain *)
  checks : check list;
  notify : int array;  (** sorted notify latencies *)
  shed : int;
  owed : int;
  ops : Workload.op array;  (** the whole job, in replay order *)
  reference : Replay.plain option;
  window : int;
}

let socket_run (w : Workload.t) ~seed ~metrics =
  let dir k = Filename.concat (Filename.concat work_root w.name) (Printf.sprintf "setup-%d" k) in
  let times = ref [] in
  let rec boot k =
    let s, t = setup w ~dir:(dir k) ~metrics in
    times := t :: !times;
    if k + 1 < setups then begin
      (match teardown s with Ok () -> () | Error msg -> fail "%s" msg);
      live_procs := [];
      boot (k + 1)
    end
    else s
  in
  let s = boot 0 in
  let open_ops, sat_ops = Workload.phases w ~seed in
  let count ops = Array.fold_left (fun n f -> Array.fold_left (fun n op -> n + Workload.units op) n f) 0 ops in
  let run = new_run () in
  open_loop run s w open_ops;
  let units0 = run.units_acked in
  let cpu0 = Proc.cpu_s s.proc in
  let t0 = now () in
  saturate run s sat_ops;
  let sat_wall_ns = now () - t0 in
  let sat_cpu_s = Proc.cpu_s s.proc -. cpu0 in
  let sat_units = run.units_acked - units0 in
  unsubscribe run s w;
  let stats = call_ok s.workers.(0) Protocol.Stats in
  let hwm_kb = Proc.vm_hwm_kb s.proc in
  (match teardown s with Ok () -> () | Error msg -> fail "%s" msg);
  live_procs := [];
  let serve_out = Proc.read_file s.proc.Proc.stdout_path in
  let ops = Array.append (Replay.interleave open_ops) (Replay.interleave sat_ops) in
  let replies = run.sent_frames - run.lost_frames - run.outstanding in
  let checks =
    ref
      [
        {
          name = "every frame answered or counted failed";
          ok = run.outstanding = 0 && replies + run.lost_frames = run.sent_frames;
          detail = Printf.sprintf "%d sent, %d answered, %d lost" run.sent_frames replies run.lost_frames;
        };
      ]
  in
  if w.name = "store" then checks := check_recovery s w ~acked:run.commits_acked :: !checks;
  let reference, notify, shed, owed =
    match w.subs with
    | [] -> (None, [||], 0, 0)
    | subs ->
        let st = Replay.boot w ~journal:None ~sid:s.sid in
        let plain = Replay.plain st ops in
        let check, matched, shed, owed =
          check_notifies run plain.Replay.activations ~sid:s.sid ~subs:(List.length subs)
        in
        checks := check :: !checks;
        let oids =
          Array.concat
            (Array.to_list
               (Array.map (function Workload.Batch r -> Array.map snd r | _ -> [||]) ops))
        in
        let lat =
          notify_latencies ~oids ~instants:plain.Replay.instants
            ~dues:(Replay.contents run.event_due) matched
        in
        (Some plain, sorted lat, shed, owed)
  in
  {
    setup_s = median_f !times;
    r = run;
    open_units = count open_ops;
    sat_units;
    sat_wall_ns;
    sat_cpu_s;
    hwm_kb;
    stats;
    serve_out;
    checks = List.rev !checks;
    notify;
    shed;
    owed;
    ops;
    reference;
    window = s.window;
  }

(* ------------------------------------------------------------- report *)

type metric = { m_name : string; value : float; unit_ : string; samples : int option }

let metric ?samples m_name value unit_ = { m_name; value; unit_; samples }

let print_metric m =
  Printf.printf "%-34s %14.4f %-6s%s\n" m.m_name m.value m.unit_
    (match m.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> "")

let json_float v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_float m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let lat_ms a p = if Array.length a = 0 then 0. else ms (pct a p)

let git_rev () =
  let read p = try Some (String.trim (Proc.read_file (Filename.concat root p))) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      match read (".git/" ^ String.sub head 5 (String.length head - 5)) with
      | Some rev -> rev
      | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"

let manifest (w : Workload.t) ~seed ~seconds ~trace (o : outcome) =
  Printf.printf
    "manifest {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %b, \"git_rev\": %S, \
     \"nproc\": %d, \"ocaml\": %S, \"serve_flags\": %S, \"window\": %d, \"open_loop\": {\"ops\": %d, \
     \"frames\": %d, \"ack_samples\": %d, \"commit_samples\": %d, \"offered_per_s\": %.0f}, \
     \"saturation\": {\"ops\": %d}, \"setups\": %d}\n"
    w.name seed seconds trace (git_rev ())
    (Stdlib.Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat " " ((if w.name = "store" then [ "--journal"; "DIR" ] else []) @ w.serve_flags))
    o.window o.open_units o.r.due_frames o.r.ack.Replay.len o.r.commit.Replay.len w.offered_per_s o.sat_units
    setups

let failed_of (o : outcome) = o.r.errors + o.r.dropped_conns + o.r.lost_frames + o.shed
let attempted_of (o : outcome) = o.r.sent_frames + o.owed

(* The figures every run prints, whatever it reports in its result. *)
let common_lines (o : outcome) =
  let late = sorted o.r.late in
  let failed_ratio = Float.of_int (failed_of o) /. Float.of_int (max 1 (attempted_of o)) in
  [
    metric "notify_p50_ms" (lat_ms o.notify 50.) "ms" ~samples:(Array.length o.notify);
    metric "notify_p99_ms" (lat_ms o.notify 99.) "ms" ~samples:(Array.length o.notify);
    metric "failed_ratio" failed_ratio "ratio";
    metric "gen_late_p99_ms" (lat_ms late 99.) "ms" ~samples:(Array.length late);
    metric "driver.stall_gaps" (Float.of_int o.r.stall_gaps) "count";
    metric "driver.reply_gap_max_ms" (ms o.r.gap_max) "ms";
  ]

let sat_rate (o : outcome) = Float.of_int o.sat_units /. (Float.of_int o.sat_wall_ns /. 1e9)

let end_to_end (o : outcome) =
  let ack = sorted o.r.ack and commit = sorted o.r.commit in
  [
    metric "setup_s" o.setup_s "s" ~samples:setups;
    metric "max_ops_per_s" (sat_rate o) "ops/s";
    metric "ack_p50_ms" (lat_ms ack 50.) "ms" ~samples:(Array.length ack);
    metric "ack_p99_ms" (lat_ms ack 99.) "ms" ~samples:(Array.length ack);
    metric "commit_p50_ms" (lat_ms commit 50.) "ms" ~samples:(Array.length commit);
    metric "commit_p99_ms" (lat_ms commit 99.) "ms" ~samples:(Array.length commit);
    metric "cpu_us_per_op" (o.sat_cpu_s *. 1e6 /. Float.of_int (max 1 o.sat_units)) "us";
    metric "peak_rss_mb" (Float.of_int o.hwm_kb /. 1024.) "MB";
  ]

(* ------------------------------------------------------------- traced *)

let counter (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.counters with Some v -> v | None -> 0

let hist_mean (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.histograms with
  | Some h when h.Obs.Metrics.h_count > 0 -> Float.of_int h.Obs.Metrics.h_sum /. Float.of_int h.Obs.Metrics.h_count
  | _ -> 0.

let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b

(* [server.frame_ns] from the snapshot [serve --metrics] prints at
   drain: the log-scale bucket holding each percentile.  Bucket labels
   are pretty-printed lower bounds, all powers of two. *)
let frame_ns_percentiles serve_out =
  let parse_ns label =
    let num suffix scale =
      let n = String.length label - String.length suffix in
      if n > 0 && String.sub label n (String.length suffix) = suffix then
        Option.map (fun f -> f *. scale) (float_of_string_opt (String.sub label 0 n))
      else None
    in
    List.find_map Fun.id [ num "ms" 1e6; num "us" 1e3; num "ns" 1.; num "s" 1e9 ]
  in
  let row =
    List.find_opt
      (fun l -> List.mem "server.frame_ns" (String.split_on_char ' ' l))
      (String.split_on_char '\n' serve_out)
  in
  match row with
  | None -> (0., 0.)
  | Some line ->
      let buckets =
        List.filter_map
          (fun w ->
            match String.split_on_char ':' w with
            | [ lo; c ] -> (
                match (parse_ns lo, int_of_string_opt c) with
                | Some lo, Some c ->
                    (* snap the rounded label back to its power of two *)
                    Some (2. ** Float.round (Float.log2 (Float.max 1. lo)), c)
                | _ -> None)
            | _ -> None)
          (String.split_on_char ' ' line)
      in
      let total = List.fold_left (fun n (_, c) -> n + c) 0 buckets in
      let at p =
        let rank = Float.ceil (p /. 100. *. Float.of_int total) in
        let rec go acc = function
          | [] -> 0.
          | (lo, c) :: rest -> if Float.of_int (acc + c) >= rank then lo else go (acc + c) rest
        in
        go 0 buckets
      in
      (at 50., at 99.)

let per_layer (w : Workload.t) (o : outcome) =
  let units = Array.fold_left (fun n op -> n + Workload.units op) 0 o.ops in
  let journal = if w.name = "store" then Some (Filename.concat (Filename.concat work_root w.name) "replay.journal") else None in
  let fresh () =
    Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) journal;
    Replay.boot w ~journal ~sid:0
  in
  let plain = match o.reference with Some p -> p | None -> Replay.plain (fresh ()) o.ops in
  let traced = Replay.traced (fresh ()) o.ops in
  let snap = traced.Replay.snapshot in
  Replay.write_spans traced.Replay.spans (Filename.concat (Filename.concat work_root w.name) "spans.jsonl");
  let self = Replay.self_ns traced.Replay.spans in
  let per_unit ns = Float.of_int ns /. Float.of_int (max 1 units) in
  let mean a = if Array.length a = 0 then 0. else Float.of_int (Array.fold_left ( + ) 0 a) /. Float.of_int (Array.length a) in
  let p a q =
    let a = Array.copy a in
    Array.sort compare a;
    Float.of_int (pct a q)
  in
  let c = counter snap in
  let commits = max 1 (c "engine.commits") in
  let frame_p50, frame_p99 = frame_ns_percentiles o.serve_out in
  let bytes_out = Option.value ~default:0 (stats_field o.stats ~prefix:"server: " ~label:"byte(s) out") in
  let notifies = Option.value ~default:0 (stats_field o.stats ~prefix:"subs: " ~label:"notify(s) delivered") in
  let gaps = Option.value ~default:0 (stats_field o.stats ~prefix:"subs: " ~label:"gap frame(s)") in
  let shed = Option.value ~default:0 (stats_field o.stats ~prefix:"subs: " ~label:"notify(s) shed") in
  let acked = o.r.units_acked in
  let plain_s = Float.of_int plain.Replay.wall_ns /. 1e9 in
  [
    metric "server.frame_ns_p50" frame_p50 "ns";
    metric "server.frame_ns_p99" frame_p99 "ns";
    metric "server.bytes_out_per_op" (ratio bytes_out acked) "B/op";
    metric "driver.window_full_share" (ratio o.r.window_full o.r.due_frames) "ratio";
    metric "protocol.decode_ns" (mean traced.Replay.decode_ns) "ns" ~samples:(Array.length traced.Replay.decode_ns);
    metric "lang.parse_ns" (mean traced.Replay.parse_ns) "ns" ~samples:(Array.length traced.Replay.parse_ns);
    metric "engine.ingest_ns_p50" (p traced.Replay.ingest_ns 50.) "ns" ~samples:(Array.length traced.Replay.ingest_ns);
    metric "engine.ingest_ns_p99" (p traced.Replay.ingest_ns 99.) "ns" ~samples:(Array.length traced.Replay.ingest_ns);
    metric "engine.line_ns_p50" (p traced.Replay.line_ns 50.) "ns" ~samples:(Array.length traced.Replay.line_ns);
    metric "engine.line_ns_p99" (p traced.Replay.line_ns 99.) "ns" ~samples:(Array.length traced.Replay.line_ns);
    metric "engine.commit_ns_p50" (p traced.Replay.commit_ns 50.) "ns" ~samples:(Array.length traced.Replay.commit_ns);
    metric "engine.commit_ns_p99" (p traced.Replay.commit_ns 99.) "ns" ~samples:(Array.length traced.Replay.commit_ns);
    metric "engine.considerations_per_op" (ratio (c "engine.considerations") units) "count";
    metric "engine.activations_per_op" (ratio (c "engine.executions") units) "count";
    metric "engine.condition_ns" (hist_mean snap "engine.condition_ns") "ns";
    metric "trigger.woken_per_op" (ratio (c "trigger.woken") units) "count";
    metric "trigger.probes_per_op" (ratio (c "trigger.probes") units) "count";
    metric "trigger.skipped_per_op" (ratio (c "trigger.skipped") units) "count";
    metric "trigger.fired_ratio" (ratio (c "trigger.fired") (c "trigger.woken")) "ratio";
    metric "trigger.wake_ns" (hist_mean snap "trigger.wake_ns") "ns";
    metric "memo.evals_per_op" (ratio (c "memo.evals") units) "count";
    metric "memo.hit_ratio" (ratio (c "memo.hits") (c "memo.hits" + c "memo.misses")) "ratio";
    metric "memo.eval_ns" (hist_mean snap "memo.eval_ns") "ns";
    metric "eventbase.posting_probes_per_op" (ratio (c "eventbase.posting_probes") units) "count";
    metric "window.retired_per_commit" (ratio (c "window.retired") commits) "count";
    metric "journal.append_ns" (hist_mean snap "journal.append_ns") "ns";
    metric "journal.fsync_ns" (hist_mean snap "journal.fsync_ns") "ns";
    metric "journal.syncs_per_commit" (ratio (c "journal.syncs") commits) "count";
    metric "sub.notifies" (Float.of_int notifies) "count";
    metric "sub.dropped" (Float.of_int shed) "count";
    metric "sub.gaps" (Float.of_int gaps) "count";
    metric "self.op_ns_per_op" (per_unit self.(Replay.span_op)) "ns";
    metric "self.decode_ns_per_op" (per_unit self.(Replay.span_decode)) "ns";
    metric "self.parse_ns_per_op" (per_unit self.(Replay.span_parse)) "ns";
    metric "self.engine_ns_per_op" (per_unit self.(Replay.span_engine)) "ns";
    metric "replay_ops_per_s" (Float.of_int units /. plain_s) "ops/s";
    metric "trace.overhead_pct"
      (100. *. Float.of_int (traced.Replay.t_wall_ns - plain.Replay.wall_ns) /. Float.of_int plain.Replay.wall_ns)
      "%";
    metric "traced.max_ops_per_s" (sat_rate o) "ops/s";
  ]

(* ----------------------------------------------------------- selftest *)

(* The work counters the traced run reports are deterministic: two
   traced replays of the same seeded job must agree exactly, counter
   by counter, so a later change may claim a count. *)
let selftest () =
  let ok = ref true in
  List.iter
    (fun name ->
      let w = Option.get (Workload.find name ~seconds:2) in
      let open_ops, sat_ops = Workload.phases w ~seed:7 in
      let ops = Array.append (Replay.interleave open_ops) (Replay.interleave sat_ops) in
      let journal = if name = "store" then Some (Filename.concat work_root "selftest.journal") else None in
      let counts () =
        Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) journal;
        (Replay.traced (Replay.boot w ~journal ~sid:0) ops).Replay.snapshot.Obs.counters
      in
      let a = counts () and b = counts () in
      let same = a = b in
      if not same then ok := false;
      Printf.printf "selftest %-7s %s (%d counters, engine.considerations=%d)\n" name
        (if same then "repeat exactly" else "DIFFER")
        (List.length a)
        (match List.assoc_opt "engine.considerations" a with Some v -> v | None -> 0))
    Workload.names;
  if !ok then 0 else 1

(* --------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and self = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  ingest | store | fanout");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  run length the phase sizes derive from");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--selftest", Arg.Set self, " check that the work counters repeat exactly");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "driver.exe [options]";
  let code =
    try
      if not (Sys.file_exists chimera) then fail "%s is not built" chimera;
      Proc.mkdir_p work_root;
      if !self then selftest ()
      else
        match Workload.find !workload ~seconds:(max 1 !seconds) with
        | None -> fail "unknown workload %S (expected one of: %s)" !workload (String.concat ", " Workload.names)
        | Some w ->
            deadline := now () + 170_000_000_000;
            let traced = !trace = 1 in
            let o = socket_run w ~seed:!seed ~metrics:traced in
            manifest w ~seed:!seed ~seconds:!seconds ~trace:traced o;
            List.iter
              (fun c -> Printf.printf "check %-48s %s  %s\n" c.name (if c.ok then "ok" else "FAILED") c.detail)
              o.checks;
            let late_p99 = lat_ms (sorted o.r.late) 99. in
            let e2e = end_to_end o in
            List.iter print_metric (e2e @ common_lines o);
            let layers = if traced then per_layer w o else [] in
            List.iter print_metric layers;
            let correct = List.for_all (fun c -> c.ok) o.checks in
            if late_p99 > late_bound_ms then begin
              Printf.printf "invalid run: the generator ran %.2f ms late at p99 (bound %.0f ms)\n%!" late_p99
                late_bound_ms;
              3
            end
            else begin
              let reported = if traced then layers @ common_lines o else e2e in
              print_result ~correct ~attempted:(attempted_of o) ~failed:(failed_of o) reported;
              if correct then 0 else 1
            end
    with e ->
      List.iter Proc.kill !live_procs;
      Printf.eprintf "perfbench: %s\n%!"
        (match e with Failure msg | Sys_error msg -> msg | e -> Printexc.to_string e);
      1
  in
  exit code
