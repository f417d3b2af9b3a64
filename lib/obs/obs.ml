(* The observability layer: metrics (counters / gauges / log-scale
   histograms), trace spans in a bounded ring, and pluggable sinks.

   Everything hangs off one global [on] flag.  The discipline throughout:
   a disabled recording call is a single load-and-branch and allocates
   nothing — instrumentation can therefore live inside the engine's hot
   paths (ts probes, trigger checks, journal writes) without being paid
   for when observability is off.  Enabled-mode cost is bounded too: the
   open-span stack and the ring are preallocated arrays, so a span is two
   clock reads plus a handful of stores.

   The registry is global by design (process-wide metrics model); tests
   isolate with [reset]/[hard_reset]. *)

let on = ref false
let[@inline] enabled () = !on
let set_enabled b = on := b

(* The clock: the process monotonic clock in integer nanoseconds — never
   stepped by NTP, so span durations and latency samples cannot go
   negative; tests swap in a hand-stepped counter for determinism.  Only
   consulted while enabled. *)
let default_clock = Chimera_util.Monotime.now_ns

let clock = ref default_clock
let now_ns () = !clock ()
let set_clock f = clock := f

(* ------------------------------------------------------------ metrics *)

module Metrics = struct
  (* Counters, gauges and histogram cells are [Atomic.t]: the handles are
     process-wide, so any domain may bump them concurrently, and a plain
     mutable field would silently lose increments.  The disabled path is
     still one load-and-branch; the enabled path pays one atomic RMW. *)
  type counter = { cname : string; cv : int Atomic.t }
  type gauge = { gname : string; gv : int Atomic.t }

  (* 63 buckets cover every positive OCaml int. *)
  let n_buckets = 63

  type histogram = {
    hname : string;
    hcounts : int Atomic.t array;
    hcount : int Atomic.t;
    hsum : int Atomic.t;
    hmin : int Atomic.t;  (** [max_int] while empty *)
    hmax : int Atomic.t;
  }

  let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
  let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
  let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

  (* Registration is rare (module-load time) but may race when a worker
     domain forces a module first; a lock keeps the registry coherent.
     The hot paths never take it — they go through the handle. *)
  let registry_lock = Mutex.create ()

  let registered tbl name make =
    Mutex.lock registry_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_lock)
      (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some v -> v
        | None ->
            let v = make () in
            Hashtbl.add tbl name v;
            v)

  let counter name =
    registered counters name (fun () -> { cname = name; cv = Atomic.make 0 })

  let incr c = if !on then ignore (Atomic.fetch_and_add c.cv 1)
  let add c n = if !on then ignore (Atomic.fetch_and_add c.cv n)
  let counter_value c = Atomic.get c.cv
  let counter_name c = c.cname

  let gauge name =
    registered gauges name (fun () -> { gname = name; gv = Atomic.make 0 })

  let set_gauge g v = if !on then Atomic.set g.gv v
  let gauge_value g = Atomic.get g.gv

  let histogram name =
    registered histograms name (fun () ->
        {
          hname = name;
          hcounts = Array.init n_buckets (fun _ -> Atomic.make 0);
          hcount = Atomic.make 0;
          hsum = Atomic.make 0;
          hmin = Atomic.make max_int;
          hmax = Atomic.make 0;
        })

  let bucket_index v =
    if v <= 1 then 0
    else begin
      let i = ref 0 and v = ref v in
      while !v > 1 do
        v := !v lsr 1;
        Stdlib.incr i
      done;
      !i
    end

  let bucket_lower i = 1 lsl i

  let rec atomic_min a v =
    let cur = Atomic.get a in
    if v >= cur then ()
    else if Atomic.compare_and_set a cur v then ()
    else atomic_min a v

  let rec atomic_max a v =
    let cur = Atomic.get a in
    if v <= cur then ()
    else if Atomic.compare_and_set a cur v then ()
    else atomic_max a v

  let observe h v =
    if !on then begin
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      ignore (Atomic.fetch_and_add h.hcounts.(i) 1);
      atomic_min h.hmin v;
      atomic_max h.hmax v;
      ignore (Atomic.fetch_and_add h.hcount 1);
      ignore (Atomic.fetch_and_add h.hsum v)
    end

  type histogram_stat = {
    h_count : int;
    h_sum : int;
    h_min : int;
    h_max : int;
    h_buckets : (int * int) list;
  }

  let histogram_stat h =
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      let c = Atomic.get h.hcounts.(i) in
      if c > 0 then buckets := (bucket_lower i, c) :: !buckets
    done;
    let count = Atomic.get h.hcount in
    {
      h_count = count;
      h_sum = Atomic.get h.hsum;
      h_min = (if count = 0 then 0 else Atomic.get h.hmin);
      h_max = Atomic.get h.hmax;
      h_buckets = !buckets;
    }

  let reset_all () =
    Hashtbl.iter (fun _ c -> Atomic.set c.cv 0) counters;
    Hashtbl.iter (fun _ g -> Atomic.set g.gv 0) gauges;
    Hashtbl.iter
      (fun _ h ->
        Array.iter (fun a -> Atomic.set a 0) h.hcounts;
        Atomic.set h.hcount 0;
        Atomic.set h.hsum 0;
        Atomic.set h.hmin max_int;
        Atomic.set h.hmax 0)
      histograms

  let forget_all () =
    Hashtbl.reset counters;
    Hashtbl.reset gauges;
    Hashtbl.reset histograms
end

let start_timer () = if !on then now_ns () else 0
let observe_since h t0 = if t0 <> 0 && !on then Metrics.observe h (now_ns () - t0)

(* ------------------------------------------------------- trace spans *)

module Trace = struct
  type span = {
    name : string;
    detail : string;
    start_ns : int;
    dur_ns : int;
    depth : int;
    tx : int;
    eid : int;
  }

  (* The open-span stack and the tx/eid context are per-domain state
     (Domain.DLS): each engine shard traces its own nesting without
     seeing the others'.  Only the completed-span ring and the sinks are
     shared, behind [ring_lock].  Nesting past [max_depth] is tolerated
     (tokens stay valid) but the overflowing spans are not recorded. *)
  let max_depth = 256

  type tls = {
    stk_name : string array;
    stk_detail : string array;
    stk_start : int array;
    stk_tx : int array;
    stk_eid : int array;
    mutable depth : int;
    mutable cur_tx : int;
    mutable cur_eid : int;
  }

  let tls_key =
    Domain.DLS.new_key (fun () ->
        {
          stk_name = Array.make max_depth "";
          stk_detail = Array.make max_depth "";
          stk_start = Array.make max_depth 0;
          stk_tx = Array.make max_depth 0;
          stk_eid = Array.make max_depth 0;
          depth = 0;
          cur_tx = 0;
          cur_eid = 0;
        })

  let tls () = Domain.DLS.get tls_key
  let set_tx n = if !on then (tls ()).cur_tx <- n
  let set_eid n = if !on then (tls ()).cur_eid <- n
  let ring_lock = Mutex.create ()

  (* The bounded span ring: completed spans, newest overwriting oldest. *)
  let dummy =
    { name = ""; detail = ""; start_ns = 0; dur_ns = 0; depth = 0; tx = 0; eid = 0 }

  let ring = ref (Array.make 4096 dummy)
  let ring_next = ref 0  (* total spans ever recorded *)

  let ring_capacity () = Array.length !ring

  let set_ring_capacity n =
    if n <= 0 then invalid_arg "Obs.Trace.set_ring_capacity: capacity must be positive";
    Mutex.lock ring_lock;
    ring := Array.make n dummy;
    ring_next := 0;
    Mutex.unlock ring_lock

  (* Set by the sink layer below; a forward reference breaks the module
     cycle between spans and sinks. *)
  let emit : (span -> unit) ref = ref (fun _ -> ())

  let record sp =
    Mutex.lock ring_lock;
    let r = !ring in
    r.(!ring_next mod Array.length r) <- sp;
    incr ring_next;
    Mutex.unlock ring_lock;
    !emit sp

  let recorded () =
    Mutex.lock ring_lock;
    let r = !ring in
    let cap = Array.length r in
    let n = if !ring_next < cap then !ring_next else cap in
    let first = !ring_next - n in
    let spans = List.init n (fun i -> r.((first + i) mod cap)) in
    Mutex.unlock ring_lock;
    spans

  let open_depth () = (tls ()).depth

  let begin_ ?(detail = "") name =
    if not !on then -1
    else begin
      let s = tls () in
      let d = s.depth in
      if d < max_depth then begin
        s.stk_name.(d) <- name;
        s.stk_detail.(d) <- detail;
        s.stk_start.(d) <- now_ns ();
        s.stk_tx.(d) <- s.cur_tx;
        s.stk_eid.(d) <- s.cur_eid
      end;
      s.depth <- d + 1;
      d
    end

  (* Closes the span of [token], first closing any inner spans an
     exception path left open — every begin gets its end.  [stop] is the
     shared clock reading, so [end_into] costs one read. *)
  let close_to s token stop =
    for i = s.depth - 1 downto token do
      if i < max_depth then
        record
          {
            name = s.stk_name.(i);
            detail = s.stk_detail.(i);
            start_ns = s.stk_start.(i);
            dur_ns = stop - s.stk_start.(i);
            depth = i;
            tx = s.stk_tx.(i);
            eid = s.stk_eid.(i);
          }
    done;
    s.depth <- token

  let end_ token =
    if token >= 0 && !on then begin
      let s = tls () in
      if token < s.depth then close_to s token (now_ns ())
    end

  let end_into h token =
    if token >= 0 && !on then begin
      let s = tls () in
      if token < s.depth then begin
        let stop = now_ns () in
        let dur = if token < max_depth then stop - s.stk_start.(token) else 0 in
        close_to s token stop;
        Metrics.observe h dur
      end
    end

  let instant ?(detail = "") name =
    if !on then begin
      let s = tls () in
      let now = now_ns () in
      record
        {
          name;
          detail;
          start_ns = now;
          dur_ns = 0;
          depth = s.depth;
          tx = s.cur_tx;
          eid = s.cur_eid;
        }
    end

  let with_span ?detail name f =
    let tok = begin_ ?detail name in
    Fun.protect ~finally:(fun () -> end_ tok) f

  (* Resets the calling domain's stack/context plus the shared ring; other
     domains' open stacks are theirs to unwind (tests run single-domain). *)
  let reset_all () =
    let s = tls () in
    s.depth <- 0;
    s.cur_tx <- 0;
    s.cur_eid <- 0;
    Mutex.lock ring_lock;
    ring_next := 0;
    Array.fill !ring 0 (Array.length !ring) dummy;
    Mutex.unlock ring_lock
end

(* --------------------------------------------------------- snapshots *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * Metrics.histogram_stat) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  {
    counters =
      List.sort by_name
        (Hashtbl.fold
           (fun name c acc -> (name, Atomic.get c.Metrics.cv) :: acc)
           Metrics.counters []);
    gauges =
      List.sort by_name
        (Hashtbl.fold
           (fun name g acc -> (name, Atomic.get g.Metrics.gv) :: acc)
           Metrics.gauges []);
    histograms =
      List.sort by_name
        (Hashtbl.fold
           (fun name h acc -> (name, Metrics.histogram_stat h) :: acc)
           Metrics.histograms []);
  }

let ns_pretty v =
  if v >= 1_000_000_000 then Printf.sprintf "%.2fs" (float_of_int v /. 1e9)
  else if v >= 1_000_000 then Printf.sprintf "%.2fms" (float_of_int v /. 1e6)
  else if v >= 1_000 then Printf.sprintf "%.2fus" (float_of_int v /. 1e3)
  else Printf.sprintf "%dns" v

let pp_snapshot ppf snap =
  let open Chimera_util in
  (if snap.counters <> [] then begin
     let t =
       Pretty.table ~title:"counters" ~header:[ "name"; "value" ]
         ~aligns:[ Pretty.Left; Pretty.Right ] ()
     in
     List.iter (fun (n, v) -> Pretty.add_row t [ n; string_of_int v ]) snap.counters;
     Fmt.pf ppf "%s" (Pretty.render t)
   end);
  (if snap.gauges <> [] then begin
     let t =
       Pretty.table ~title:"gauges" ~header:[ "name"; "value" ]
         ~aligns:[ Pretty.Left; Pretty.Right ] ()
     in
     List.iter (fun (n, v) -> Pretty.add_row t [ n; string_of_int v ]) snap.gauges;
     Fmt.pf ppf "%s" (Pretty.render t)
   end);
  if snap.histograms <> [] then begin
    let t =
      Pretty.table ~title:"histograms"
        ~header:[ "name"; "count"; "mean"; "min"; "max"; "buckets" ]
        ~aligns:[ Pretty.Left; Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Left ]
        ()
    in
    List.iter
      (fun (n, (s : Metrics.histogram_stat)) ->
        let mean = if s.h_count = 0 then 0 else s.h_sum / s.h_count in
        let buckets =
          String.concat " "
            (List.map
               (fun (lo, c) -> Printf.sprintf "%s:%d" (ns_pretty lo) c)
               s.h_buckets)
        in
        Pretty.add_row t
          [
            n;
            string_of_int s.h_count;
            ns_pretty mean;
            ns_pretty s.h_min;
            ns_pretty s.h_max;
            buckets;
          ])
      snap.histograms;
    Fmt.pf ppf "%s" (Pretty.render t)
  end

(* ------------------------------------------------------------- sinks *)

(* Minimal JSON emission/parsing for the JSONL sink — enough for our own
   span lines; no external dependency. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' when !i + 5 < n ->
           (match int_of_string_opt ("0x" ^ String.sub s (!i + 2) 4) with
           | Some code when code < 0x100 -> Buffer.add_char buf (Char.chr code)
           | _ -> ());
           i := !i + 4
       | c -> Buffer.add_char buf c);
       i := !i + 2
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

module Sink = struct
  type t = {
    name : string;
    on_span : Trace.span -> unit;
    on_snapshot : snapshot -> unit;
    on_flush : unit -> unit;
  }

  let sinks : t list ref = ref []

  let rewire () =
    match !sinks with
    | [] -> Trace.emit := fun _ -> ()
    | ss -> Trace.emit := fun sp -> List.iter (fun s -> s.on_span sp) ss

  let attach s =
    sinks := !sinks @ [ s ];
    rewire ()

  let detach name =
    sinks := List.filter (fun s -> not (String.equal s.name name)) !sinks;
    rewire ()

  let detach_all () =
    sinks := [];
    rewire ()

  let attached () = List.map (fun s -> s.name) !sinks

  let memory () =
    let acc = ref [] in
    ( {
        name = "memory";
        on_span = (fun sp -> acc := sp :: !acc);
        on_snapshot = (fun _ -> ());
        on_flush = (fun () -> ());
      },
      fun () -> List.rev !acc )

  let pp_span_line ppf (sp : Trace.span) =
    Fmt.pf ppf "[trace] tx=%d eid=%d %s%s%s %s depth=%d" sp.tx sp.eid sp.name
      (if sp.detail = "" then "" else "(")
      (if sp.detail = "" then "" else sp.detail ^ ")")
      (ns_pretty sp.dur_ns) sp.depth

  let stderr () =
    {
      name = "stderr";
      on_span = (fun sp -> Fmt.epr "%a@." pp_span_line sp);
      on_snapshot = (fun snap -> Fmt.epr "%a@." pp_snapshot snap);
      on_flush = (fun () -> flush Stdlib.stderr);
    }

  let span_to_json (sp : Trace.span) =
    Printf.sprintf
      "{\"name\":\"%s\",\"detail\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d,\"depth\":%d,\"tx\":%d,\"eid\":%d}"
      (json_escape sp.name) (json_escape sp.detail) sp.start_ns sp.dur_ns
      sp.depth sp.tx sp.eid

  (* Field extraction from our own span lines: finds ["key":] outside any
     string literal and reads the value after it.  Not a general JSON
     parser — exactly the shape [span_to_json] emits. *)
  let find_field line key =
    let marker = "\"" ^ key ^ "\":" in
    let mlen = String.length marker and n = String.length line in
    let rec scan i in_string =
      if i >= n then None
      else if in_string then
        if line.[i] = '\\' then scan (i + 2) true
        else scan (i + 1) (line.[i] <> '"')
      else if
        line.[i] = '"'
        && i + mlen <= n
        && String.sub line i mlen = marker
      then Some (i + mlen)
      else if line.[i] = '"' then scan (i + 1) true
      else scan (i + 1) false
    in
    scan 0 false

  let string_field line key =
    match find_field line key with
    | None -> Error (Printf.sprintf "missing field %S" key)
    | Some start ->
        if start >= String.length line || line.[start] <> '"' then
          Error (Printf.sprintf "field %S is not a string" key)
        else begin
          let n = String.length line in
          let rec close i =
            if i >= n then Error (Printf.sprintf "unterminated field %S" key)
            else if line.[i] = '\\' then close (i + 2)
            else if line.[i] = '"' then
              Ok (json_unescape (String.sub line (start + 1) (i - start - 1)))
            else close (i + 1)
          in
          close (start + 1)
        end

  let int_field line key =
    match find_field line key with
    | None -> Error (Printf.sprintf "missing field %S" key)
    | Some start ->
        let n = String.length line in
        let stop = ref start in
        while
          !stop < n && (line.[!stop] = '-' || (line.[!stop] >= '0' && line.[!stop] <= '9'))
        do
          incr stop
        done;
        (match int_of_string_opt (String.sub line start (!stop - start)) with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "field %S is not an integer" key))

  let span_of_json line =
    let ( let* ) = Result.bind in
    let* name = string_field line "name" in
    let* detail = string_field line "detail" in
    let* start_ns = int_field line "start_ns" in
    let* dur_ns = int_field line "dur_ns" in
    let* depth = int_field line "depth" in
    let* tx = int_field line "tx" in
    let* eid = int_field line "eid" in
    Ok { Trace.name; detail; start_ns; dur_ns; depth; tx; eid }

  let snapshot_to_json snap =
    let buf = Buffer.create 512 in
    Buffer.add_string buf "{\"snapshot\":{\"counters\":{";
    List.iteri
      (fun i (n, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape n) v))
      snap.counters;
    Buffer.add_string buf "},\"gauges\":{";
    List.iteri
      (fun i (n, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape n) v))
      snap.gauges;
    Buffer.add_string buf "},\"histograms\":{";
    List.iteri
      (fun i (n, (s : Metrics.histogram_stat)) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf
             "\"%s\":{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"buckets\":["
             (json_escape n) s.h_count s.h_sum s.h_min s.h_max);
        List.iteri
          (fun j (lo, c) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Printf.sprintf "[%d,%d]" lo c))
          s.h_buckets;
        Buffer.add_string buf "]}")
      snap.histograms;
    Buffer.add_string buf "}}}";
    Buffer.contents buf

  let jsonl ~path =
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
    {
      name = "jsonl:" ^ path;
      on_span =
        (fun sp ->
          output_string oc (span_to_json sp);
          output_char oc '\n');
      on_snapshot =
        (fun snap ->
          output_string oc (snapshot_to_json snap);
          output_char oc '\n');
      on_flush = (fun () -> flush oc);
    }
end

let publish () =
  match !Sink.sinks with
  | [] -> ()
  | sinks ->
      let snap = snapshot () in
      List.iter (fun (s : Sink.t) -> s.on_snapshot snap) sinks;
      List.iter (fun (s : Sink.t) -> s.on_flush ()) sinks

let reset () =
  Metrics.reset_all ();
  Trace.reset_all ()

let hard_reset () =
  reset ();
  Metrics.forget_all ();
  Sink.detach_all ()

(* ---------------------------------------------- environment start-up *)

(* CHIMERA_METRICS=1 turns metrics on; CHIMERA_TRACE additionally records
   spans — into the ring only ("1"), to stderr ("stderr") or to a JSONL
   file (any other value, taken as a path, flushed at exit). *)
let () =
  (match Sys.getenv_opt "CHIMERA_METRICS" with
  | Some ("1" | "true" | "yes") -> set_enabled true
  | Some _ | None -> ());
  match Sys.getenv_opt "CHIMERA_TRACE" with
  | None | Some "" | Some "0" -> ()
  | Some v ->
      set_enabled true;
      (match v with
      | "1" | "true" | "yes" -> ()
      | "stderr" -> Sink.attach (Sink.stderr ())
      | path ->
          Sink.attach (Sink.jsonl ~path);
          at_exit publish)
