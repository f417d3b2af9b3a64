(* The three traffic mixes, generated from a seed.

   A workload is a boot script, the [serve] flags, the frames each
   connection sends in each measured phase, and for [fanout] the live
   subscriptions.  Everything here is a pure function of the seed and the
   run length, so two builds measured with the same arguments receive
   byte-identical input. *)

open Core

type op =
  | Batch of (int * int) array  (** binary BATCH: (etype id, oid) records *)
  | Line of string  (** text LINE carrying one rule-language line *)
  | Commit

(* Work units an op acknowledges: events for a batch, lines for a line. *)
let units = function Batch a -> Array.length a | Line _ -> 1 | Commit -> 0

type t = {
  name : string;
  boot : string;  (** boot script, run and committed on the shard *)
  serve_flags : string list;
  workers : int;  (** connections sending work *)
  etypes : string array;  (** ETYPE table: id -> external event type *)
  preload : op array;  (** set-up frames the first connection sends *)
  subs : string list;  (** fanout: SUB specs on a subscriber connection *)
  offered_per_s : float;  (** open-loop offered rate, work units per second *)
  shares : float array;  (** each connection's share of the open-loop traffic *)
  burst_units : int;
      (** open loop: work units falling due together, whole transactions
          ([0]: every frame has its own due time) *)
  open_units : int;  (** work units in the open-loop phase *)
  sat_units : int;  (** work units in the saturation phase *)
  gen : Prng.t -> int -> op array;
      (** [gen prng units]: one connection's frames for one phase *)
}

(* ------------------------------------------------------------ helpers *)

(* Zipf(s = 1) ranks over a fixed key space: rank r has weight 1/(r+1). *)
let zipf_table m =
  let cdf = Array.make m 0. in
  let acc = ref 0. in
  for r = 0 to m - 1 do
    acc := !acc +. (1. /. Float.of_int (r + 1));
    cdf.(r) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw cdf prng =
  let u = Prng.next_float prng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Frames of [batch] events, a COMMIT after every [commit_every] events. *)
let event_frames ~batch ~commit_every ~draw prng total =
  let ops = ref [] and since_commit = ref 0 and left = ref total in
  while !left > 0 do
    let n = min batch (min !left (commit_every - !since_commit)) in
    ops := Batch (Array.init n (fun _ -> draw prng)) :: !ops;
    left := !left - n;
    since_commit := !since_commit + n;
    if !since_commit = commit_every then begin
      ops := Commit :: !ops;
      since_commit := 0
    end
  done;
  if !since_commit > 0 then ops := Commit :: !ops;
  Array.of_list (List.rev !ops)

(* ------------------------------------------------------------- ingest *)

(* Eight composite rules over five external types [a..e]; [x] and [y] are
   never sent, so V(E) skips the checks that only they could move.  The
   actions only raise a [select] event: the store stays empty. *)
let ingest_boot =
  {|define class tally (n: integer);
define immediate trigger setConj events { a + b } actions select tally end;
define immediate trigger setPrec events { a < c } actions select tally end;
define immediate trigger instConj events { c += d }
  condition occurred({ c += d }, X) actions select tally end;
define immediate trigger instNeg events { a }
  condition occurred({ a <= -=b }, X) actions select tally end;
define immediate trigger instPrec events { d <= e }
  condition occurred({ d <= e }, X) actions select tally end;
define deferred trigger setNeg events { e + -x } actions select tally end;
define immediate trigger disj events { b , y } actions select tally end;
define immediate trigger unseen events { x < y } actions select tally end;
|}

let ingest_keys = 5000

(* Every key once, so the measured phases start with the whole key space
   known to the event base and the per-object cost does not drift. *)
let key_space_preload keys =
  let next = ref 0 in
  let draw _ =
    let k = !next in
    incr next;
    (k mod 5, k)
  in
  event_frames ~batch:10 ~commit_every:100 ~draw (Prng.create ~seed:0) keys

(* Phase sizes scale with the run length: the open loop lasts 0.6 of it
   at the offered rate (about half of [max_ops_per_s] as measured here),
   and the saturation phase holds what the measured rate serves in about
   0.3 of it. *)
let ingest ~seconds =
  let cdf = zipf_table ingest_keys in
  let draw prng = (Prng.next_int prng ~bound:5, zipf_draw cdf prng) in
  let s = Float.of_int seconds in
  {
    name = "ingest";
    boot = ingest_boot;
    serve_flags = [];
    workers = 2;
    etypes = [| "a"; "b"; "c"; "d"; "e" |];
    preload = key_space_preload ingest_keys;
    subs = [];
    offered_per_s = 1300.;
    shares = [| 0.85; 0.15 |];
    burst_units = 0;
    open_units = int_of_float (1300. *. 0.6 *. s);
    sat_units = int_of_float (3400. *. 0.3 *. s);
    gen = event_frames ~batch:10 ~commit_every:100 ~draw;
  }

(* -------------------------------------------------------------- store *)

let store_preload = 3000

(* The population is created before the trigger exists, so set-up does
   not pay the per-line rule cost the measured phases study. *)
let store_boot =
  let b = Buffer.create (store_preload * 24) in
  Buffer.add_string b
    "define class item (n: integer);\ndefine class audit (tag: string);\n";
  for _ = 1 to store_preload do
    Buffer.add_string b "create item(n = 0);\n"
  done;
  Buffer.add_string b
    {|define immediate trigger onItem for item
  events { create(item) }
  condition item(I), occurred({ create(item) }, I), I.n > 0
  actions create audit(tag = "item")
end;
|};
  Buffer.contents b

let store_lines prng total =
  let ops = ref [] in
  for i = 1 to total do
    let n = 1 + Prng.next_int prng ~bound:1000 in
    ops := Line (Printf.sprintf "create item(n = %d)" n) :: !ops;
    if i mod 10 = 0 || i = total then ops := Commit :: !ops
  done;
  Array.of_list (List.rev !ops)

let store ~seconds =
  let s = Float.of_int seconds in
  {
    name = "store";
    boot = store_boot;
    serve_flags = [ "--domains"; "0" ];
    workers = 2;
    etypes = [||];
    preload = [||];
    subs = [];
    offered_per_s = 150.;
    shares = [| 0.85; 0.15 |];
    burst_units = 0;
    open_units = int_of_float (150. *. 0.6 *. s);
    sat_units = int_of_float (300. *. 0.35 *. s);
    gen = store_lines;
  }

(* ------------------------------------------------------------- fanout *)

(* 32 subscriptions.  16 share the set conjunction [a + b]; 8 more watch
   other ingested types, 6 of them binding the object [X] they fired on;
   8 mention only types never sent ([x], [y], [z]), so V(E) leaves them
   idle. *)
let fanout_subs =
  let on e = Printf.sprintf "ON { %s }" e in
  let bound e = Printf.sprintf "ON { %s } DO at({ %s }, X, T)" e e in
  List.map on
    [
      "a + b"; "(a + b) < c"; "(a + b) < d"; "(a + b) < e"; "(a + b) + c";
      "(a + b) + d"; "(a + b) + e"; "(a + b) , c"; "(a + b) , d"; "(a + b) , e";
      "c < (a + b)"; "d < (a + b)"; "e < (a + b)"; "(a + b) + -c";
      "(a + b) + -d"; "(a + b) + -e";
    ]
  @ List.map bound [ "c"; "d"; "c <= d"; "e <= c"; "b <= a"; "d += e" ]
  @ List.map on [ "e < d"; "c + e" ]
  @ List.map bound [ "x"; "y"; "z"; "x += y"; "y <= z"; "x ,= z"; "z <= x"; "x += z" ]

(* A smaller key space than [ingest]: the per-object rule cost that
   workload measures stays a minor share here. *)
let fanout_keys = 500

let fanout ~seconds =
  let cdf = zipf_table fanout_keys in
  let draw prng = (Prng.next_int prng ~bound:5, zipf_draw cdf prng) in
  let s = Float.of_int seconds in
  {
    name = "fanout";
    boot = "define class tally (n: integer);\n";
    serve_flags = [ "--domains"; "0" ];
    workers = 1;
    etypes = [| "a"; "b"; "c"; "d"; "e" |];
    preload = key_space_preload fanout_keys;
    subs = fanout_subs;
    offered_per_s = 5000.;
    shares = [| 1. |];
    burst_units = 3000;
    open_units = int_of_float (5000. *. 0.4 *. s);
    sat_units = int_of_float (11000. *. 0.3 *. s);
    gen = event_frames ~batch:10 ~commit_every:100 ~draw;
  }

let names = [ "ingest"; "store"; "fanout" ]

let find name ~seconds =
  match name with
  | "ingest" -> Some (ingest ~seconds)
  | "store" -> Some (store ~seconds)
  | "fanout" -> Some (fanout ~seconds)
  | _ -> None

(* Each connection's frames for the open-loop phase (split by [shares])
   and for the saturation phase (split evenly).  Each (phase, connection)
   pair draws from its own stream, so the phases do not shift each other. *)
let phases t ~seed =
  let frames ~phase ~conn units =
    t.gen (Prng.create ~seed:((seed * 1_000_003) + (phase * 101) + conn)) units
  in
  ( Array.init t.workers (fun conn ->
        frames ~phase:0 ~conn (int_of_float (t.shares.(conn) *. Float.of_int t.open_units))),
    Array.init t.workers (fun conn -> frames ~phase:1 ~conn (t.sat_units / t.workers)) )
