(* Session management: per-connection sessions multiplexed onto N
   independent engine shards, every one of them executed inline on the
   reactor thread.

   The engine is single-threaded and transactional, so concurrency comes
   from partitioning, not sharing: [--engines N] creates N ordinary
   engines (each wrapped in the script interpreter, each with its own
   journal) and a session is pinned to the shard its key hashes to
   (FNV-1a over the full key — a client-supplied HELLO key when given,
   the decimal session id otherwise).  Within a shard, transactions
   serialize: the first LINE of a session acquires the shard,
   COMMIT/ABORT release it, and engine-bound commands of other sessions
   queue FIFO until then.  Queued sessions are reported [blocked] so the
   reactor stops reading from them — the queue bound plus that read-stop
   is the admission control of the protocol.

   Every state transition is synchronous: the reactor calls in with one
   decoded payload at a time and gets back the list of replies (possibly
   for *other* sessions: releasing a shard answers its waiters) to write
   out.  A reply therefore exists by the time the call returns, and reply
   order per session is the order its commands executed in. *)

open Chimera_event
open Chimera_rules
open Chimera_lang
module Fnv = Chimera_util.Fnv

module Manager = struct
  type event =
    | Reply of int * Protocol.reply
    | Close of int
    | Committed of { sid : int; shard : int; seq : int; reply : Protocol.reply }
        (** a successful COMMIT on a journaled shard: [seq] is the shard's
            commit sequence after the marker.  The reactor may park the
            reply until replication followers acknowledge [seq]
            (semi-synchronous replication); without followers it sends
            the reply immediately. *)
    | Notify of {
        sid : int;
        sub : int;
        binary : bool;
        at : int;
        bindings : (string * string) list list;
      }
        (** a committed activation of [sid]'s subscription [sub] — the
            committing session and the subscriber are in general
            different sessions of the same shard.  Emitted before the
            commit's own Reply/Committed event, so a subscriber that is
            also the committer sees its notifies first.  The reactor
            frames it (text or binary per the subscription) onto the
            connection's bounded notify queue. *)

  (* One queued unit of session input: a parsed text command, or a raw
     binary EVENT/BATCH payload.  Binary payloads stay undecoded until
     they execute: a frame queued behind a busy shard costs no decode,
     and the O(1) shape check runs before the shard is acquired. *)
  type input = Cmd of Protocol.command | Events of string

  (* One live subscription: the engine rule it registered (named
     [sub.<sid>.<id>], which is what routes activations back) and the
     NOTIFY encoding the client asked for. *)
  type sub_entry = { sub_rule : string; sub_bin : bool }

  type session = {
    id : int;
    mutable shard : int;  (** re-pinned by a HELLO session key *)
    mutable greeted : bool;
    pending : input Queue.t;
    mutable waiting : bool;  (** enqueued in its shard's waiter queue *)
    mutable closed : bool;
    mutable etypes : Event_type.t option array;
        (** the session's interned etype table, indexed by the ids binary
            records carry; announced by ETYPE *)
    subs : (int, sub_entry) Hashtbl.t;
        (** the connection's subscription registry: an entry exists
            exactly while its rule is defined on the shard *)
  }

  type shard = {
    idx : int;
    mutable interp : Interp.t;  (** replaced wholesale by a standby reset *)
    mutable journal : Journal.t option;  (** attached at promotion on a standby *)
    mutable owner : int option;  (** session id holding the open tx *)
    waiters : int Queue.t;
    executed : string list ref;  (** execution-listener accumulator, newest first *)
    mutable dropped_subs : string list;
        (** rule names of disconnected sessions' subscriptions,
            undefined at the shard's next transaction boundary (an
            undefine inside another session's open transaction would
            move its savepoint); newest first *)
    (* Standby (replication follower) state; inert on a primary. *)
    mutable repl_sink : Journal.Sink.t option;
        (** the local byte-for-byte copy of the primary's segment *)
    mutable repl_pending : Journal.entry list;
        (** records since the last commit/abort marker, newest first *)
    mutable repl_seq : int;  (** last commit sequence applied *)
    mutable repl_head : int;  (** primary's commit sequence, last reported *)
  }

  type t = {
    engines : int;
    shards : shard array;
    sessions : (int, session) Hashtbl.t;
    mutable next_sid : int;
    max_pending : int;
    extra_stats : (unit -> string) option;
    mutable down : bool;
    mutable standby_mode : bool;
        (** a replication follower: writes are refused, records shipped
            from a primary apply through {!repl_apply}, {!promote} flips
            it to an ordinary primary *)
    fsync : Journal.sync_policy;
    boot_script : string option;  (** kept for standby shard resets *)
    checkpoint_every : int option;
        (** commits between engine checkpoints (journaled shards);
            with [checkpoint_interval] also [None], the legacy
            compact/rotate behaviour applies *)
    checkpoint_interval : float option;
        (** seconds between engine checkpoints (checked at commit
            boundaries); combinable with [checkpoint_every] — whichever
            cadence is due first fires *)
    gc_floors : int Atomic.t array;
        (** per-shard replication ack floor, written by the reactor
            ({!set_gc_floor}) and read by the engine's GC callback;
            [max_int] = no follower pins anything *)
    boot_seqs : int array;
        (** each shard's journal commit sequence right after boot (the
            reactor's baseline for replication head tracking) *)
  }

  (* ------------------------------------------------------------ setup *)

  let rec mkdir_p path =
    if path = "" || path = "." || path = "/" || Sys.file_exists path then Ok ()
    else
      let parent = Filename.dirname path in
      let ( let* ) = Result.bind in
      let* () = if parent = path then Ok () else mkdir_p parent in
      match Unix.mkdir path 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot create journal directory %s: %s" path
               (Unix.error_message e))

  (* A standby shard bootstraps the way [chimera recover] does: only the
     boot script's *definitions* run — classes, triggers and timers are
     program text, not journaled state — while the boot transaction's
     operations arrive from the primary's journal stream and replay like
     every other record.  Running the full script here would apply those
     operations twice. *)
  let run_boot_definitions interp src =
    match Parser.parse src with
    | Error msg -> Error msg
    | Ok statements ->
        let definitions =
          List.filter
            (function
              | Ast.Define_class _ | Ast.Define_trigger _ | Ast.Define_timer _
                ->
                  true
              | _ -> false)
            statements
        in
        List.fold_left
          (fun acc stmt ->
            match acc with
            | Error _ -> acc
            | Ok () -> Interp.run_statement interp stmt)
          (Ok ()) definitions

  let shard_journal_path dir idx =
    Filename.concat dir (Printf.sprintf "shard-%d.journal" idx)

  let make_shard ~standby ~journal_dir ~fsync ~boot_script ~checkpoint_every
      ~checkpoint_interval ~gc_floor idx =
    let ( let* ) = Result.bind in
    let interp = Interp.create () in
    let executed = ref [] in
    Engine.set_on_execution (Interp.engine interp)
      (fun name -> executed := name :: !executed);
    let finish ~journal ~repl_sink =
      {
        idx;
        interp;
        journal;
        owner = None;
        waiters = Queue.create ();
        executed;
        dropped_subs = [];
        repl_sink;
        repl_pending = [];
        repl_seq = 0;
        repl_head = 0;
      }
    in
    if standby then
      (* No engine-attached journal: the local segment copy is a raw
         [Sink] fed by the replication stream; promotion reopens it for
         appending and attaches it. *)
      let* repl_sink =
        match journal_dir with
        | None -> Ok None
        | Some dir -> (
            let path = shard_journal_path dir idx in
            match Journal.Sink.create ~sync:fsync ~path () with
            | sink -> Ok (Some sink)
            | exception Sys_error msg ->
                Error (Printf.sprintf "cannot open journal %s: %s" path msg))
      in
      let* () =
        match boot_script with
        | None -> Ok ()
        | Some src -> (
            match run_boot_definitions interp src with
            | Ok () -> Ok ()
            | Error msg ->
                Error (Printf.sprintf "boot script (shard %d): %s" idx msg))
      in
      Ok (finish ~journal:None ~repl_sink)
    else
      let* journal =
        match journal_dir with
        | None -> Ok None
        | Some dir -> (
            let path = shard_journal_path dir idx in
            match Journal.create ~sync:fsync ~path () with
            | j ->
                Engine.set_journal (Interp.engine interp) j;
                Ok (Some j)
            | exception Sys_error msg ->
                Error (Printf.sprintf "cannot open journal %s: %s" path msg))
      in
      let* () =
        match boot_script with
        | None -> Ok ()
        | Some src -> (
            match Interp.run_string interp src with
            | Error msg ->
                Error (Printf.sprintf "boot script (shard %d): %s" idx msg)
            | Ok () -> (
                (* Shards open for traffic on a committed, quiescent state
                   whatever the script's trailing statement was. *)
                Interp.clear_output interp;
                match Engine.commit (Interp.engine interp) with
                | Ok () -> Ok ()
                | Error e ->
                    Error
                      (Fmt.str "boot script commit (shard %d): %a" idx
                         Engine.pp_error e)))
      in
      (* Bounded state: periodic checkpoints + segment GC on journaled
         shards, gated by the replication ack floor the reactor feeds.
         Count cadence, time cadence, or both — first due fires. *)
      (match (journal, checkpoint_every, checkpoint_interval) with
      | Some _, None, None | None, _, _ -> ()
      | Some _, every_commits, every_seconds ->
          Engine.enable_checkpoints (Interp.engine interp) ?every_commits
            ?every_seconds ~gc_floor ());
      Ok (finish ~journal ~repl_sink:None)

  (* ----------------------------------------------------- shard pinning *)

  (* FNV-1a over the full key.  The previous scheme — [Hashtbl.hash sid]
     over the dense id sequence — looks fine in aggregate but skews badly
     over the window of ids a batch of concurrent clients actually holds
     (64 consecutive ids over 4 shards land up to 4x apart); hashing the
     decimal string byte-by-byte spreads dense and common-prefixed keys
     alike. *)
  let pin t key = Fnv.hash key mod t.engines

  (* -------------------------------------------------- shard execution *)

  (* Everything below [run_line]/[do_commit]/[stats_text] touches only
     the shard's own interp/journal/executed cell. *)

  let trim_trailing_newlines s =
    let n = ref (String.length s) in
    while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = '\r') do
      decr n
    done;
    String.sub s 0 !n

  (* Runs the statements of one LINE as a unit; the engine rolls a failed
     block back by itself, and the reply is either the executed-rule list
     or the inspection output the statements produced. *)
  let run_line shard statements =
    let interp = shard.interp in
    shard.executed := [];
    Interp.clear_output interp;
    let result =
      List.fold_left
        (fun acc stmt ->
          match acc with
          | Error _ -> acc
          | Ok () -> Interp.run_statement interp stmt)
        (Ok ()) statements
    in
    match result with
    | Error msg -> Protocol.Err ("engine", msg)
    | Ok () -> (
        match List.rev !(shard.executed) with
        | [] -> Protocol.Ok_ (trim_trailing_newlines (Interp.output interp))
        | rules -> Protocol.Triggered rules)

  let executed_reply shard =
    match List.rev !(shard.executed) with
    | [] -> Protocol.Ok_ ""
    | rules -> Protocol.Triggered rules

  (* Besides the reply, a successful commit on a journaled shard reports
     the commit sequence its marker carries — what a replication follower
     must acknowledge before the reply may be released under
     semi-synchronous replication. *)
  let do_commit shard =
    let engine = Interp.engine shard.interp in
    shard.executed := [];
    match Interp.run_statement shard.interp Ast.Commit with
    | Ok () ->
        (executed_reply shard, Option.map Journal.commit_seq shard.journal)
    | Error msg ->
        (* A failed commit (e.g. a non-terminating deferred cascade)
           leaves no committed state to hand over: abort, so the shard
           frees in a defined state. *)
        Engine.abort engine;
        (Protocol.Err ("engine", msg ^ " (transaction aborted)"), None)

  let do_abort shard = Engine.abort (Interp.engine shard.interp)

  (* One external event occurrence as its own engine line (the text
     EVENT verb, etype resolved on the reactor). *)
  let run_event shard ~etype ~oid =
    shard.executed := [];
    match
      Engine.ingest_event (Interp.engine shard.interp) ~etype
        ~oid:(Chimera_util.Ident.Oid.of_int oid)
    with
    | Ok () -> executed_reply shard
    | Error e -> Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e)

  (* Decodes and applies one binary EVENT/BATCH payload: the per-record
     loop — field validation, etype-id resolution, engine ingestion —
     runs here, once the frame holds its shard.  A BATCH
     is exactly that many single-event lines with ONE reply: the rules
     every record executed, in order, or the first error — preceding
     records stay applied and the transaction stays open (the client
     decides between COMMIT and ABORT).  The wire timestamp is the
     client's clock, carried for tooling; the engine assigns its own
     instants, so replicas and replays agree regardless of client
     clocks. *)
  let run_events shard ~etypes payload =
    shard.executed := [];
    match Protocol.decode_binary payload with
    | Error msg -> Protocol.Err ("proto", msg)
    | Ok records ->
        let engine = Interp.engine shard.interp in
        let rec apply = function
          | [] -> executed_reply shard
          | { Protocol.etype_id; oid; timestamp = _ } :: rest -> (
              let etype =
                if etype_id < Array.length etypes then etypes.(etype_id)
                else None
              in
              match etype with
              | None ->
                  Protocol.Err
                    ( "proto",
                      Printf.sprintf
                        "unknown etype id %d (announce it with ETYPE)" etype_id
                    )
              | Some etype -> (
                  match
                    Engine.ingest_event engine ~etype
                      ~oid:(Chimera_util.Ident.Oid.of_int oid)
                  with
                  | Ok () -> apply rest
                  | Error e ->
                      Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e)))
        in
        apply records

  (* [note] is the session's ownership annotation ([greeting_note]). *)
  let stats_text t ~sid ~shard_idx ~note =
    let shard = t.shards.(shard_idx) in
    let engine = Interp.engine shard.interp in
    let st = Engine.statistics engine in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "session %d shard %d/%d%s\n\
          engine: %d line(s), %d event(s), %d consideration(s), %d \
          execution(s), %d abort(s)"
         sid shard_idx t.engines note st.Engine.lines st.Engine.events
         st.Engine.considerations st.Engine.executions st.Engine.aborts);
    (match shard.journal with
    | None -> ()
    | Some j ->
        let c = Journal.counters j in
        Buffer.add_string buf
          (Printf.sprintf
             "\njournal: %d record(s), %d commit(s), %d fsync(s), %d \
              rotation(s) -> %s"
             c.Journal.appends c.Journal.commits c.Journal.syncs
             c.Journal.rotations (Journal.path j)));
    (* The journal-GC floor and the replication ack floor gating it —
       ROADMAP's "unobservable floor": "none" until a checkpoint cycle
       ran (resp. while no follower pins anything). *)
    (if Engine.checkpoint_path engine <> None then
       let floor_text =
         match Engine.gc_floor engine with
         | Some floor -> string_of_int floor
         | None -> "none"
       in
       let ack = Atomic.get t.gc_floors.(shard_idx) in
       let ack_text = if ack = max_int then "none" else string_of_int ack in
       Buffer.add_string buf
         (Printf.sprintf "\nbounds: gc.floor=%s, repl.ack_floor=%s" floor_text
            ack_text));
    if t.standby_mode then begin
      Buffer.add_string buf
        (Printf.sprintf "\nrepl: standby, applied seq %d, primary seq %d"
           shard.repl_seq shard.repl_head);
      match shard.repl_sink with
      | None -> ()
      | Some sink ->
          Buffer.add_string buf
            (Printf.sprintf " -> %s (%d byte(s))" (Journal.Sink.path sink)
               (Journal.Sink.bytes_written sink))
    end;
    (match t.extra_stats with
    | None -> ()
    | Some f ->
        let extra = f () in
        if extra <> "" then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf extra
        end);
    Buffer.contents buf

  (* ---------------------------------------------------------- create *)

  let create ~engines ?journal_dir ?(fsync = Journal.Per_commit) ?boot_script
      ?(max_pending = 64) ?extra_stats ?(standby = false) ?checkpoint_every
      ?checkpoint_interval () =
    let ( let* ) = Result.bind in
    if engines <= 0 then Error "engines must be positive"
    else if (match checkpoint_every with Some n -> n <= 0 | None -> false)
    then Error "checkpoint interval must be positive"
    else if
      match checkpoint_interval with Some s -> s <= 0.0 | None -> false
    then Error "checkpoint interval must be positive"
    else
      let* () =
        match journal_dir with None -> Ok () | Some dir -> mkdir_p dir
      in
      let gc_floors = Array.init engines (fun _ -> Atomic.make max_int) in
      let* shards =
        let rec build acc idx =
          if idx >= engines then Ok (List.rev acc)
          else
            let* shard =
              make_shard ~standby ~journal_dir ~fsync ~boot_script
                ~checkpoint_every ~checkpoint_interval
                ~gc_floor:(fun () -> Atomic.get gc_floors.(idx))
                idx
            in
            build (shard :: acc) (idx + 1)
        in
        build [] 0
      in
      let shards = Array.of_list shards in
      let boot_seqs =
        Array.map
          (fun shard ->
            match shard.journal with Some j -> Journal.commit_seq j | None -> 0)
          shards
      in
      Ok
        {
          engines;
          shards;
          sessions = Hashtbl.create 64;
          next_sid = 1;
          max_pending;
          extra_stats;
          down = false;
          standby_mode = standby;
          fsync;
          boot_script;
          checkpoint_every;
          checkpoint_interval;
          gc_floors;
          boot_seqs;
        }

  let engines t = t.engines

  (* The reactor publishes each shard's replication ack floor (the lowest
     commit sequence every attached follower has durably acked;
     [max_int] without followers): segment GC reads it through the
     engine's [gc_floor] callback. *)
  let set_gc_floor t ~shard floor = Atomic.set t.gc_floors.(shard) floor
  let standby t = t.standby_mode
  let boot_seqs t = Array.copy t.boot_seqs
  let session_count t = Hashtbl.length t.sessions

  let open_session t =
    let sid = t.next_sid in
    t.next_sid <- sid + 1;
    Hashtbl.replace t.sessions sid
      {
        id = sid;
        shard = pin t (string_of_int sid);
        greeted = false;
        pending = Queue.create ();
        waiting = false;
        closed = false;
        etypes = [||];
        subs = Hashtbl.create 4;
      };
    sid

  let shard_of_session t sid =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> s.shard
    | None -> pin t (string_of_int sid)

  let in_transaction t sid =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> t.shards.(s.shard).owner = Some sid
    | None -> false

  let blocked t sid =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> s.waiting || not (Queue.is_empty s.pending)
    | None -> false

  let journal_paths t =
    Array.to_list t.shards
    |> List.filter_map (fun shard ->
           match shard.journal with
           | Some j -> Some (Journal.path j)
           | None -> Option.map Journal.Sink.path shard.repl_sink)

  (* -------------------------------------------------------- execution *)

  let push acc e = acc := e :: !acc

  let requires_shard = function
    | Events _
    | Cmd
        ( Protocol.Line _ | Protocol.Event _ | Protocol.Commit | Protocol.Abort
        | Protocol.Sub _ | Protocol.Unsub _ ) ->
        true
    | Cmd
        ( Protocol.Hello _ | Protocol.Etype _ | Protocol.Stats
        | Protocol.Ping _ | Protocol.Quit | Protocol.Repl_hello _
        | Protocol.Repl_ack _ | Protocol.Promote ) ->
        false

  (* Statements a LINE may carry: anything but [commit] — the transaction
     boundary is a protocol verb, so the session manager always knows who
     holds the shard. *)
  let line_statements text =
    match Parser.parse text with
    | Error msg -> Error ("parse", msg)
    | Ok statements ->
        if List.exists (function Ast.Commit -> true | _ -> false) statements
        then Error ("proto", "commit inside LINE: use the COMMIT verb")
        else Ok statements

  (* ------------------------------------------------------ subscriptions *)

  (* Subscription rules are named [sub.<sid>.<id>] — globally unique
     (session ids are), and the name alone routes a committed activation
     back to its connection, whichever session's commit drained it. *)
  let sub_rule_name ~sid ~sub = Printf.sprintf "sub.%d.%d" sid sub

  let parse_sub_rule_name name =
    match String.split_on_char '.' name with
    | [ "sub"; sid_text; sub_text ] -> (
        match (int_of_string_opt sid_text, int_of_string_opt sub_text) with
        | Some sid, Some sub -> Some (sid, sub)
        | _ -> None)
    | _ -> None

  (* The SUB payload parses on the reactor — a parse error never reaches
     the shard — into an ordinary rule spec: immediate coupling (the
     activation instant is the block that completed the pattern, not the
     commit), consuming (each notify consumes the events that produced
     it — re-delivery would be a phantom), empty action (detection IS the
     reaction; it cannot fail, so buffering at consideration is safe).
     [Rule.make] inside the engine derives the V(E) relevance filter
     exactly as for boot-script triggers. *)
  let sub_spec ~sid ~sub text =
    match Parser.parse_subscription text with
    | Error msg -> Error msg
    | Ok (event, condition) ->
        Ok
          {
            Rule.name = sub_rule_name ~sid ~sub;
            target = None;
            event;
            condition;
            action = [];
            coupling = Rule.Immediate;
            consumption = Rule.Consuming;
            priority = 0;
          }

  let subscription_count t =
    Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.subs) t.sessions 0

  (* Routes one committed activation to its subscriber, by rule name.  A
     missing session or registry entry means the subscriber disconnected
     while its rule still awaited removal at the shard's next transaction
     boundary — nobody is owed the notify, it drops here. *)
  let route_activation t acc (a : Engine.activation) =
    match parse_sub_rule_name a.Engine.act_rule with
    | None -> ()
    | Some (sid, sub) -> (
        match Hashtbl.find_opt t.sessions sid with
        | None -> ()
        | Some s when s.closed -> ()
        | Some s -> (
            match Hashtbl.find_opt s.subs sub with
            | None -> ()
            | Some entry ->
                push acc
                  (Notify
                     {
                       sid;
                       sub;
                       binary = entry.sub_bin;
                       at = Chimera_util.Time.to_int a.Engine.act_at;
                       bindings = a.Engine.act_bindings;
                     })))

  (* HELLO argument: "<version>" or "<version> <session-key>".  A key,
     when present, re-pins the session by FNV-1a of the full key before
     any engine traffic — clients that mint related ids (dense counters,
     a common prefix) still spread evenly over the shards. *)
  let split_hello arg =
    match String.index_opt arg ' ' with
    | None -> (arg, "")
    | Some i ->
        ( String.sub arg 0 i,
          String.trim (String.sub arg (i + 1) (String.length arg - i - 1)) )

  (* ETYPE: pure session state.  Any event type the text grammar can name
     is internable — external events by bare name, operation events as
     "op(class)". *)
  let exec_etype s ~id ~name =
    match Event_type.of_string name with
    | Error msg -> Protocol.Err ("parse", msg)
    | Ok etype ->
        let len = Array.length s.etypes in
        if id >= len then begin
          let grown = Array.make (id + 1) None in
          Array.blit s.etypes 0 grown 0 len;
          s.etypes <- grown
        end;
        s.etypes.(id) <- Some etype;
        Protocol.Ok_ ""

  let greeting_note s shard =
    match shard.owner with
    | Some owner when owner = s.id -> " (transaction open)"
    | Some _ -> " (shard busy)"
    | None -> ""

  (* HELLO is pure session state. *)
  let exec_hello t s arg acc =
    let reply r = push acc (Reply (s.id, r)) in
    let version, key = split_hello arg in
    if s.greeted then reply (Protocol.Err ("state", "already greeted"))
    else if String.equal version Protocol.version then begin
      s.greeted <- true;
      if key <> "" then s.shard <- pin t key;
      (* [window] is the pipelining depth on offer: how many frames the
         client may keep in flight before the per-session pending bound
         (and the read-stop behind it) pushes back. *)
      reply
        (Protocol.Ok_
           (Printf.sprintf "%s features=%s window=%d" Protocol.version
              (String.concat "," Protocol.features)
              t.max_pending))
    end
    else begin
      reply
        (Protocol.Err
           ( "proto",
             Printf.sprintf "unsupported version %S; speak %s" version
               Protocol.version ));
      s.closed <- true;
      push acc (Close s.id)
    end

  (* Takes a subscription rule out of the engine; a rule already gone is
     not an error. *)
  let drop_rule engine rule =
    Engine.unwatch_rule engine rule;
    match Engine.undefine engine rule with Ok () | Error (`Rule_error _) -> ()

  let park s shard =
    if not s.waiting then begin
      s.waiting <- true;
      Queue.add s.id shard.waiters
    end

  (* Undefines the subscription rules of disconnected sessions, at a
     transaction boundary of their shard: called whenever the shard
     frees (and at disconnect time when it already is free). *)
  let flush_dropped shard =
    match shard.dropped_subs with
    | [] -> ()
    | dropped ->
        shard.dropped_subs <- [];
        List.iter (drop_rule (Interp.engine shard.interp)) (List.rev dropped)

  let rec release_shard t shard acc =
    shard.owner <- None;
    flush_dropped shard;
    drain_waiters t shard acc

  (* Wakes the next waiting sessions of a freed shard, FIFO; each woken
     session runs its queued commands until it blocks again (e.g. its
     LINE re-acquired the shard and its COMMIT is yet to come — then the
     queue simply continues) or empties. *)
  and drain_waiters t shard acc =
    if shard.owner = None && not (Queue.is_empty shard.waiters) then begin
      let sid = Queue.pop shard.waiters in
      (match Hashtbl.find_opt t.sessions sid with
      | Some s when not s.closed ->
          s.waiting <- false;
          process_session t s acc
      | Some _ | None -> ());
      drain_waiters t shard acc
    end

  (* Runs the session's queued commands in order until one needs a shard
     another session holds (then the session parks as that shard's
     waiter) or the queue empties. *)
  and process_session t s acc =
    if (not (Queue.is_empty s.pending)) && not s.closed then begin
      let shard = t.shards.(s.shard) in
      let busy =
        match shard.owner with Some owner -> owner <> s.id | None -> false
      in
      if requires_shard (Queue.peek s.pending) && busy then park s shard
      else begin
        exec t s (Queue.pop s.pending) acc;
        process_session t s acc
      end
    end

  and exec t s input acc =
    let shard = t.shards.(s.shard) in
    let engine = Interp.engine shard.interp in
    let reply r = push acc (Reply (s.id, r)) in
    let owner_self () = shard.owner = Some s.id in
    match input with
    | Cmd (Protocol.Hello v) -> exec_hello t s v acc
    | Cmd (Protocol.Ping token) ->
        reply (Protocol.Ok_ (if token = "" then "pong" else "pong " ^ token))
    | Cmd Protocol.Stats ->
        reply
          (Protocol.Ok_
             (stats_text t ~sid:s.id ~shard_idx:s.shard
                ~note:(greeting_note s shard)))
    | Cmd Protocol.Quit ->
        (* Orderly close: an uncommitted transaction aborts before the
           shard passes to the next waiter. *)
        if owner_self () then begin
          Engine.abort engine;
          release_shard t shard acc
        end;
        reply (Protocol.Ok_ "bye");
        s.closed <- true;
        push acc (Close s.id)
    | Cmd (Protocol.Repl_hello _ | Protocol.Repl_ack _ | Protocol.Promote) ->
        (* Replication verbs never reach the session manager — the
           reactor intercepts them before dispatch; one slipping through
           means the caller is not a chimera server. *)
        reply (Protocol.Err ("proto", "replication verb outside a replication stream"))
    | Cmd
        ( Protocol.Line _ | Protocol.Etype _ | Protocol.Event _
        | Protocol.Commit | Protocol.Abort | Protocol.Sub _ | Protocol.Unsub _ )
    | Events _
      when not s.greeted ->
        reply (Protocol.Err ("proto", "HELLO required first"))
    | Cmd
        ( Protocol.Line _ | Protocol.Etype _ | Protocol.Event _
        | Protocol.Commit | Protocol.Abort | Protocol.Sub _ | Protocol.Unsub _ )
    | Events _
      when t.standby_mode ->
        reply
          (Protocol.Err
             ("standby", "server is a warm standby; writes go to the primary"))
    | Cmd (Protocol.Sub { id; binary; spec }) ->
        (* Subscription changes run at a transaction boundary only:
           [define_dynamic]/[undefine] refresh the savepoint, which
           would swallow part of an open transaction's rollback. *)
        if owner_self () then
          reply (Protocol.Err ("state", "SUB requires a closed transaction"))
        else if Hashtbl.mem s.subs id then
          reply
            (Protocol.Err
               ("state", Printf.sprintf "subscription %d already registered" id))
        else (
          match sub_spec ~sid:s.id ~sub:id spec with
          | Error msg -> reply (Protocol.Err ("parse", msg))
          | Ok rule_spec -> (
              match Engine.define_dynamic engine rule_spec with
              | Error (`Rule_error msg) -> reply (Protocol.Err ("engine", msg))
              | Ok _ ->
                  Engine.watch_rule engine rule_spec.Rule.name;
                  Hashtbl.replace s.subs id
                    { sub_rule = rule_spec.Rule.name; sub_bin = binary };
                  reply (Protocol.Ok_ "")))
    | Cmd (Protocol.Unsub { id }) -> (
        if owner_self () then
          reply (Protocol.Err ("state", "UNSUB requires a closed transaction"))
        else
          match Hashtbl.find_opt s.subs id with
          | None ->
              reply
                (Protocol.Err
                   ("state", Printf.sprintf "unknown subscription %d" id))
          | Some entry ->
              Hashtbl.remove s.subs id;
              drop_rule engine entry.sub_rule;
              reply (Protocol.Ok_ ""))
    | Cmd (Protocol.Etype { id; name }) -> reply (exec_etype s ~id ~name)
    | Cmd (Protocol.Line text) -> (
        match line_statements text with
        | Error (code, msg) -> reply (Protocol.Err (code, msg))
        | Ok statements ->
            (* Acquire on first contact, hold across engine errors: the
               failed block was rolled back but the transaction is the
               client's to COMMIT or ABORT. *)
            shard.owner <- Some s.id;
            reply (run_line shard statements))
    | Cmd (Protocol.Event { etype; oid }) -> (
        match Event_type.of_string etype with
        | Error msg -> reply (Protocol.Err ("parse", msg))
        | Ok etype ->
            shard.owner <- Some s.id;
            reply (run_event shard ~etype ~oid))
    | Events payload -> (
        (* The shape check mirrors [line_statements]: a malformed frame
           never acquires the shard. *)
        match Protocol.check_binary payload with
        | Error msg -> reply (Protocol.Err ("proto", msg))
        | Ok _ ->
            shard.owner <- Some s.id;
            reply (run_events shard ~etypes:s.etypes payload))
    | Cmd Protocol.Commit ->
        if owner_self () then begin
          (let commit_reply, seq = do_commit shard in
           (* Notifies precede the commit's own reply: a subscriber that
              is also the committer observes its activations first. *)
           List.iter (route_activation t acc) (Engine.drain_activations engine);
           match seq with
           | Some seq ->
               push acc
                 (Committed { sid = s.id; shard = s.shard; seq; reply = commit_reply })
           | None -> reply commit_reply);
          release_shard t shard acc
        end
        else reply (Protocol.Err ("state", "no open transaction"))
    | Cmd Protocol.Abort ->
        if owner_self () then begin
          do_abort shard;
          release_shard t shard acc;
          reply (Protocol.Ok_ "aborted")
        end
        else reply (Protocol.Err ("state", "no open transaction"))

  (* ---------------------------------------------------------- feeding *)

  let enqueue t s input acc =
    if Queue.length s.pending >= t.max_pending then begin
      (* The per-session pending bound: the client kept sending past a
         busy shard faster than admission allows.  Pipelining clients
         never hit this through the reactor — it stops decoding a
         session's input at [blocked] — so tripping it means frames
         arrived for a session the reactor should have paused. *)
      push acc
        (Reply
           ( s.id,
             Protocol.Err
               ( "overflow",
                 Printf.sprintf "more than %d queued command(s)" t.max_pending
               ) ));
      s.closed <- true;
      push acc (Close s.id)
    end
    else begin
      Queue.add input s.pending;
      process_session t s acc
    end

  let on_payload t sid payload =
    if t.down then []
    else
      match Hashtbl.find_opt t.sessions sid with
      | None -> []
      | Some s when s.closed -> []
      | Some s ->
          let acc = ref [] in
          (match Protocol.command_of_payload payload with
          | Error msg -> push acc (Reply (sid, Protocol.Err ("proto", msg)))
          | Ok cmd -> enqueue t s (Cmd cmd) acc);
          List.rev !acc

  (* The binary twin of [on_payload]: the payload goes in raw — tag
     classification already happened (one byte); the shape check and the
     record decode run when the frame executes. *)
  let on_binary t sid payload =
    if t.down then []
    else
      match Hashtbl.find_opt t.sessions sid with
      | None -> []
      | Some s when s.closed -> []
      | Some s ->
          let acc = ref [] in
          enqueue t s (Events payload) acc;
          List.rev !acc

  let disconnect t sid =
    match Hashtbl.find_opt t.sessions sid with
    | None -> []
    | Some s ->
        s.closed <- true;
        Hashtbl.remove t.sessions sid;
        let shard = t.shards.(s.shard) in
        let acc = ref [] in
        (* Subscriptions die with the connection: no registry residue
           (the session record just left the table), and the rules leave
           the engine at the shard's next transaction boundary. *)
        Hashtbl.iter
          (fun _ entry ->
            shard.dropped_subs <- entry.sub_rule :: shard.dropped_subs)
          s.subs;
        Hashtbl.reset s.subs;
        if shard.owner = Some sid then begin
          do_abort shard;
          release_shard t shard acc
        end
        else if shard.owner = None then flush_dropped shard;
        List.rev !acc

  (* ----------------------------------------------- standby (follower) *)

  let check_standby t =
    if t.down then Error "manager is down"
    else if not t.standby_mode then Error "not a standby"
    else Ok ()

  (* A new segment generation began upstream (initial attach, or a
     checkpoint rotation on the primary): the shipped records rebuild the
     shard from nothing, so the engine restarts fresh — definitions only,
     exactly like standby boot — and the local segment copy truncates to
     a new header. *)
  let repl_reset t ~shard:idx =
    let ( let* ) = Result.bind in
    let* () = check_standby t in
    let shard = t.shards.(idx) in
    let interp = Interp.create () in
    Engine.set_on_execution (Interp.engine interp) (fun name ->
        shard.executed := name :: !(shard.executed));
    let* () =
      match t.boot_script with
      | None -> Ok ()
      | Some src -> (
          match run_boot_definitions interp src with
          | Ok () -> Ok ()
          | Error msg ->
              Error (Printf.sprintf "boot script (shard %d): %s" idx msg))
    in
    shard.interp <- interp;
    shard.repl_pending <- [];
    shard.repl_seq <- 0;
    shard.repl_head <- 0;
    (match shard.repl_sink with
    | None -> ()
    | Some sink -> Journal.Sink.reset sink);
    Ok ()

  (* Applies one [REPL_RECORDS] batch.  The raw bytes reach the local
     segment copy first — the ack this enables must vouch for durability
     — then the records parse, group into transactions at the
     commit/abort markers they arrived with, and the committed groups
     replay through the same machinery as recovery.  The primary's
     tailer ships only marker-terminated chunks, so [repl_pending] is
     normally empty between calls; it buffers defensively regardless.
     Returns the applied commit sequence (what the follower acks). *)
  let repl_apply t ~shard:idx ~head_seq data =
    let ( let* ) = Result.bind in
    let* () = check_standby t in
    if idx < 0 || idx >= t.engines then
      Error (Printf.sprintf "no shard %d (engines=%d)" idx t.engines)
    else begin
      let shard = t.shards.(idx) in
      (match shard.repl_sink with
      | None -> ()
      | Some sink -> Journal.Sink.write sink data);
      shard.repl_head <- max shard.repl_head head_seq;
      let* txs_rev, last_seq =
        List.fold_left
          (fun acc line ->
            match acc with
            | Error _ -> acc
            | Ok (txs, _seq) -> (
                if line = "" then acc
                else
                  match Journal.entry_of_line line with
                  | Error msg ->
                      Error ("corrupt record in the replication stream: " ^ msg)
                  | Ok entry -> (
                      match entry.Journal.tag with
                      | "commit" -> (
                          match int_of_string_opt entry.Journal.payload with
                          | None -> Error "corrupt commit marker in the stream"
                          | Some marker_seq ->
                              let tx = List.rev shard.repl_pending in
                              shard.repl_pending <- [];
                              Ok ((tx, marker_seq) :: txs, marker_seq))
                      | "abort" ->
                          shard.repl_pending <- [];
                          acc
                      | _ ->
                          shard.repl_pending <- entry :: shard.repl_pending;
                          acc)))
          (Ok ([], shard.repl_seq))
          (String.split_on_char '\n' data)
      in
      (* Idempotency guard: a checkpoint base synthesized on the primary
         can cover sequences this shard already applied (the reactor may
         read a checkpoint newer than the seal it is handling) — skip
         any committed group at or below the applied sequence. *)
      let fresh =
        List.filter_map
          (fun (tx, seq) -> if seq > shard.repl_seq then Some tx else None)
          (List.rev txs_rev)
      in
      let* () =
        match fresh with
        | [] -> Ok ()
        | txs -> Engine.apply_replayed (Interp.engine shard.interp) txs
      in
      shard.repl_seq <- max shard.repl_seq last_seq;
      Ok shard.repl_seq
    end

  let repl_seqs t =
    Array.map (fun shard -> (shard.repl_seq, shard.repl_head)) t.shards

  (* Promotion: the standby becomes a primary, warm.  The shipped segment
     copy is byte-identical to the primary's journal, so it simply
     reopens for appending at the applied sequence and attaches to the
     engine — no replay; the engine already settled on committed state
     (every [repl_apply] ends in a fresh transaction, exactly as a
     completed recovery would). *)
  let promote t =
    let ( let* ) = Result.bind in
    let* () = check_standby t in
    t.standby_mode <- false;
    let rec go idx =
      if idx >= Array.length t.shards then Ok ()
      else
        let shard = t.shards.(idx) in
        let* () =
          match shard.repl_sink with
          | None -> Ok ()
          | Some sink -> (
              let path = Journal.Sink.path sink in
              Journal.Sink.close sink;
              shard.repl_sink <- None;
              match
                Journal.open_append ~sync:t.fsync ~path
                  ~commit_seq:shard.repl_seq ()
              with
              | j ->
                  Engine.set_journal (Interp.engine shard.interp) j;
                  shard.journal <- Some j;
                  (* The promoted primary checkpoints like any other. *)
                  (match (t.checkpoint_every, t.checkpoint_interval) with
                  | None, None -> ()
                  | every_commits, every_seconds ->
                      Engine.enable_checkpoints (Interp.engine shard.interp)
                        ?every_commits ?every_seconds
                        ~gc_floor:(fun () -> Atomic.get t.gc_floors.(idx))
                        ());
                  Ok ()
              | exception Sys_error msg ->
                  Error (Printf.sprintf "cannot reopen journal %s: %s" path msg)
              )
        in
        go (idx + 1)
    in
    go 0

  (* --------------------------------------------------------- shutdown *)

  let shutdown t =
    if not t.down then begin
      Array.iter
        (fun shard ->
          if shard.owner <> None then begin
            do_abort shard;
            shard.owner <- None
          end;
          Option.iter Journal.close shard.journal;
          Option.iter Journal.Sink.close shard.repl_sink)
        t.shards;
      t.down <- true;
      Hashtbl.reset t.sessions
    end
end
