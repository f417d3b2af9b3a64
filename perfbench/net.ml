(* Non-blocking client connections speaking the serve wire protocol
   through [Protocol]'s public encoders and decoders.

   Each connection keeps a FIFO of what it expects back — the protocol
   preserves reply order — and hands every decoded payload to the
   caller's handler; notify pushes are told apart with
   [Protocol.is_notify_payload]. *)

open Core

let max_frame = Protocol.default_max_frame

type 'a t = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable obuf : Bytes.t;
  mutable ooff : int;
  mutable olen : int;
  expect : 'a Queue.t;
  mutable eof : bool;
}

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    rbuf = Bytes.create 65536;
    rlen = 0;
    obuf = Bytes.create 65536;
    ooff = 0;
    olen = 0;
    expect = Queue.create ();
    eof = false;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let outstanding c = Queue.length c.expect
let wants_write c = c.olen > c.ooff

(* Appends one framed payload and records what its reply means. *)
let enqueue c payload expectation =
  let frame = Protocol.frame_exn ~max_frame payload in
  let n = String.length frame in
  if c.ooff = c.olen then begin
    c.ooff <- 0;
    c.olen <- 0
  end;
  if c.olen + n > Bytes.length c.obuf then begin
    let live = c.olen - c.ooff in
    let size = max (2 * Bytes.length c.obuf) (live + n) in
    let fresh = Bytes.create size in
    Bytes.blit c.obuf c.ooff fresh 0 live;
    c.obuf <- fresh;
    c.ooff <- 0;
    c.olen <- live
  end;
  Bytes.blit_string frame 0 c.obuf c.olen n;
  c.olen <- c.olen + n;
  Queue.push expectation c.expect

let flush c =
  let rec go () =
    if c.ooff < c.olen then
      match Unix.write c.fd c.obuf c.ooff (c.olen - c.ooff) with
      | n ->
          c.ooff <- c.ooff + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          c.eof <- true
  in
  go ()

(* Reads what is available and calls [on_payload] for every whole frame. *)
let read c ~on_payload =
  if c.rlen = Bytes.length c.rbuf then begin
    let fresh = Bytes.create (2 * Bytes.length c.rbuf) in
    Bytes.blit c.rbuf 0 fresh 0 c.rlen;
    c.rbuf <- fresh
  end;
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> c.eof <- true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true
  | n ->
      c.rlen <- c.rlen + n;
      let off = ref 0 in
      let continue = ref true in
      while !continue do
        match Protocol.decode ~max_frame c.rbuf ~off:!off ~len:(c.rlen - !off) with
        | Protocol.Frame (payload, used) ->
            off := !off + used;
            on_payload payload
        | Protocol.Need_more -> continue := false
        | Protocol.Reject (msg, _) | Protocol.Corrupt msg ->
            failwith ("reply stream lost framing: " ^ msg)
      done;
      let rest = c.rlen - !off in
      Bytes.blit c.rbuf !off c.rbuf 0 rest;
      c.rlen <- rest

(* One select turn over [conns]: writes what is pending, then reads.
   Returns after at most [timeout] seconds. *)
let turn conns ~timeout ~on_payload =
  let reads = List.filter_map (fun c -> if c.eof then None else Some c.fd) conns in
  let writes =
    List.filter_map (fun c -> if wants_write c && not c.eof then Some c.fd else None) conns
  in
  match Unix.select reads writes [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      List.iter (fun c -> if List.memq c.fd writable then flush c) conns;
      List.iter
        (fun c -> if List.memq c.fd readable then read c ~on_payload:(on_payload c))
        conns
