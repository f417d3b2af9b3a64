(* The same seeded job run in-process, straight through the layers'
   public functions: [Protocol] decode, [Parser], [Interp]/[Engine],
   with the journal attached when the served workload has one.

   Two uses: the plain replay is the single-threaded baseline of the job
   and, for [fanout], the reference activation log the NOTIFY stream must
   equal; the traced replay times every call from here, records one span
   per op with decode, parse and engine children, and runs with the [Obs]
   registry on, so it also snapshots the program's own counters and
   histograms over the measured ops. *)

open Core

let fail fmt = Printf.ksprintf failwith fmt

type state = { interp : Interp.t; engine : Engine.t; etypes : Event_type.t array }

let sub_rule_name ~sid i = Printf.sprintf "sub.%d.%d" sid i

(* -------------------------------------------------------------- calls *)

let ingest st etype_id oid =
  match Engine.ingest_event st.engine ~etype:st.etypes.(etype_id) ~oid:(Ident.Oid.of_int oid) with
  | Ok () -> ()
  | Error e -> fail "ingest: %s" (Format.asprintf "%a" Engine.pp_error e)

let run_statements st statements =
  List.iter
    (fun stmt ->
      match Interp.run_statement st.interp stmt with
      | Ok () -> ()
      | Error msg -> fail "line: %s" msg)
    statements

let parse text =
  match Lang_parser.parse text with Ok s -> s | Error msg -> fail "parse: %s" msg

let commit st =
  match Interp.run_statement st.interp Lang_ast.Commit with
  | Ok () -> ()
  | Error msg -> fail "commit: %s" msg

(* One op, untimed. *)
let exec st = function
  | Workload.Batch recs -> Array.iter (fun (e, oid) -> ingest st e oid) recs
  | Workload.Line text -> run_statements st (parse text)
  | Workload.Commit -> commit st

(* Mirrors how a shard boots (run the script, commit) and how a SUB
   becomes a rule (immediate, consuming, no action, watched). *)
let boot (w : Workload.t) ~journal ~sid =
  let interp = Interp.create () in
  let engine = Interp.engine interp in
  (match journal with
  | None -> ()
  | Some path ->
      Engine.set_journal engine
        (Journal.create ~sync:Server.default_config.Server.fsync ~path ()));
  (match Interp.run_string interp w.boot with
  | Ok () -> ()
  | Error msg -> fail "boot script: %s" msg);
  Interp.clear_output interp;
  (match Engine.commit engine with
  | Ok () -> ()
  | Error e -> fail "boot commit: %s" (Format.asprintf "%a" Engine.pp_error e));
  let etypes =
    Array.map
      (fun n ->
        match Event_type.of_string n with Ok e -> e | Error msg -> fail "etype %s: %s" n msg)
      w.etypes
  in
  let st = { interp; engine; etypes } in
  Array.iter (exec st) w.preload;
  List.iteri
    (fun i spec ->
      match Lang_parser.parse_subscription spec with
      | Error msg -> fail "subscription %d: %s" i msg
      | Ok (event, condition) -> (
          let name = sub_rule_name ~sid i in
          let rule =
            {
              Rule.name;
              target = None;
              event;
              condition;
              action = [];
              coupling = Rule.Immediate;
              consumption = Rule.Consuming;
              priority = 0;
            }
          in
          match Engine.define_dynamic engine rule with
          | Ok _ -> Engine.watch_rule engine name
          | Error (`Rule_error msg) -> fail "subscription %d: %s" i msg))
    w.subs;
  st

(* ------------------------------------------------------------ schedule *)

(* Splits one connection's frames into transactions (each ends with its
   COMMIT). *)
let transactions (frames : Workload.op array) =
  let txs = ref [] and cur = ref [] in
  Array.iter
    (fun op ->
      cur := op :: !cur;
      if op = Workload.Commit then begin
        txs := Array.of_list (List.rev !cur) :: !txs;
        cur := []
      end)
    frames;
  if !cur <> [] then txs := Array.of_list (List.rev !cur) :: !txs;
  List.rev !txs

(* The server serializes transactions per shard in arrival order, which
   two live connections make nondeterministic; the replay fixes one
   order — whole transactions, round-robin over the connections. *)
let interleave (per_conn : Workload.op array array) =
  let queues = Array.map (fun f -> ref (transactions f)) per_conn in
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun q ->
        match !q with
        | [] -> ()
        | tx :: rest ->
            q := rest;
            progress := true;
            out := tx :: !out)
      queues
  done;
  Array.concat (List.rev !out)

(* The payload a client sends for an op. *)
let payload_of = function
  | Workload.Batch recs ->
      Protocol.encode_batch
        (Array.to_list
           (Array.map (fun (e, oid) -> { Protocol.etype_id = e; oid; timestamp = 0 }) recs))
  | Workload.Line text -> Protocol.command_to_payload (Protocol.Line text)
  | Workload.Commit -> Protocol.command_to_payload Protocol.Commit

(* ------------------------------------------------------ plain replay *)

type activation = { rule : string; at : int; bindings : (string * string) list list }

type plain = {
  wall_ns : int;
  activations : activation list;  (** committed, in drain order *)
  instants : int array;  (** per ingested event, its instant *)
}

let plain st (ops : Workload.op array) =
  let events = Array.fold_left (fun n op -> n + Workload.units op) 0 ops in
  let instants = Array.make events 0 in
  let next = ref 0 in
  let acts = ref [] in
  let record = st.etypes <> [||] in
  let t0 = Monotime.now_ns () in
  Array.iter
    (fun op ->
      match op with
      | Workload.Batch recs ->
          Array.iter
            (fun (e, oid) ->
              ingest st e oid;
              if record then begin
                instants.(!next) <- Time.to_int (Event_base.now (Engine.event_base st.engine));
                incr next
              end)
            recs
      | Workload.Line text -> run_statements st (parse text)
      | Workload.Commit ->
          commit st;
          List.iter
            (fun (a : Engine.activation) ->
              acts :=
                { rule = a.Engine.act_rule; at = Time.to_int a.Engine.act_at; bindings = a.Engine.act_bindings }
                :: !acts)
            (Engine.drain_activations st.engine))
    ops;
  { wall_ns = Monotime.now_ns () - t0; activations = List.rev !acts; instants }

(* ----------------------------------------------------- traced replay *)

(* Span names. *)
let span_op = 0
let span_decode = 1
let span_parse = 2
let span_engine = 3
let span_names = [| "op"; "decode"; "parse"; "engine" |]

type spans = {
  mutable n : int;
  name : int array;
  parent : int array;
  start : int array;
  stop : int array;
}

type traced = {
  t_wall_ns : int;
  snapshot : Obs.snapshot;  (** the registry, zeroed after boot *)
  spans : spans;
  decode_ns : int array;  (** per frame *)
  parse_ns : int array;  (** per LINE *)
  ingest_ns : int array;  (** per [Engine.ingest_event] call *)
  line_ns : int array;  (** per LINE's statements *)
  commit_ns : int array;  (** per COMMIT *)
}

(* A growable sample vector. *)
type vec = { mutable a : int array; mutable len : int }

let vec () = { a = Array.make 1024 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 b 0 v.len;
    v.a <- b
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let contents v = Array.sub v.a 0 v.len

let traced st (ops : Workload.op array) =
  let frames = Array.map (fun op -> Protocol.frame_exn ~max_frame:Net.max_frame (payload_of op)) ops in
  let cap = 4 * Array.length ops in
  let spans =
    { n = 0; name = Array.make cap 0; parent = Array.make cap 0; start = Array.make cap 0; stop = Array.make cap 0 }
  in
  let open_span name parent =
    let i = spans.n in
    spans.n <- i + 1;
    spans.name.(i) <- name;
    spans.parent.(i) <- parent;
    spans.start.(i) <- Monotime.now_ns ();
    i
  in
  let close_span i = spans.stop.(i) <- Monotime.now_ns () in
  let dur i = spans.stop.(i) - spans.start.(i) in
  let decode_ns = vec () and parse_ns = vec () and ingest_ns = vec () in
  let line_ns = vec () and commit_ns = vec () in
  Obs.set_enabled true;
  Obs.reset ();
  let t0 = Monotime.now_ns () in
  Array.iter
    (fun frame ->
      let root = open_span span_op (-1) in
      let d = open_span span_decode root in
      let bytes = Bytes.unsafe_of_string frame in
      let decoded =
        match Protocol.decode ~max_frame:Net.max_frame bytes ~off:0 ~len:(Bytes.length bytes) with
        | Protocol.Frame (p, _) ->
            if Protocol.is_binary_payload p then
              match Protocol.decode_binary p with
              | Ok recs -> `Records recs
              | Error msg -> fail "decode_binary: %s" msg
            else (
              match Protocol.command_of_payload p with
              | Ok (Protocol.Line text) -> `Line text
              | Ok Protocol.Commit -> `Commit
              | Ok _ | Error _ -> fail "unexpected payload %S" p)
        | _ -> fail "frame did not decode"
      in
      close_span d;
      push decode_ns (dur d);
      (match decoded with
      | `Records recs ->
          let e = open_span span_engine root in
          List.iter
            (fun (r : Protocol.event_record) ->
              let c0 = Monotime.now_ns () in
              ingest st r.Protocol.etype_id r.Protocol.oid;
              push ingest_ns (Monotime.now_ns () - c0))
            recs;
          close_span e
      | `Line text ->
          let p = open_span span_parse root in
          let statements = parse text in
          close_span p;
          push parse_ns (dur p);
          let e = open_span span_engine root in
          run_statements st statements;
          close_span e;
          push line_ns (dur e)
      | `Commit ->
          let e = open_span span_engine root in
          commit st;
          ignore (Engine.drain_activations st.engine);
          close_span e;
          push commit_ns (dur e));
      close_span root)
    frames;
  let t_wall_ns = Monotime.now_ns () - t0 in
  let snapshot = Obs.snapshot () in
  Obs.set_enabled false;
  {
    t_wall_ns;
    snapshot;
    spans;
    decode_ns = contents decode_ns;
    parse_ns = contents parse_ns;
    ingest_ns = contents ingest_ns;
    line_ns = contents line_ns;
    commit_ns = contents commit_ns;
  }

(* Self time per span name: each span's duration minus its children's. *)
let self_ns spans =
  let child = Array.make spans.n 0 in
  for i = 0 to spans.n - 1 do
    let p = spans.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (spans.stop.(i) - spans.start.(i))
  done;
  let self = Array.make (Array.length span_names) 0 in
  for i = 0 to spans.n - 1 do
    let nm = spans.name.(i) in
    self.(nm) <- self.(nm) + (spans.stop.(i) - spans.start.(i) - child.(i))
  done;
  self

let write_spans spans path =
  let oc = open_out path in
  for i = 0 to spans.n - 1 do
    Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d}\n" i
      spans.parent.(i) span_names.(spans.name.(i)) spans.start.(i)
      (spans.stop.(i) - spans.start.(i))
  done;
  close_out oc
