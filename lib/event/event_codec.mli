(** Textual persistence for event bases: one tab-separated occurrence per
    line under a versioned header, so traces can be archived, diffed and
    replayed.  Timestamps are preserved exactly; EIDs are reassigned
    densely on load. *)

open Chimera_util

val to_string : Event_base.t -> string

val of_string : string -> (Event_base.t, string) result
(** Validates the header, field shapes, timestamp monotonicity and the
    even-instant discipline; errors carry line numbers. *)

val write_file : Event_base.t -> path:string -> (unit, string) result
(** [Error] (carrying the path) on unwritable destinations — never
    raises [Sys_error]. *)

val read_file : string -> (Event_base.t, string) result
(** [Error] (carrying the path) on missing or unreadable files — never
    raises [Sys_error]. *)

val occurrence_line : Occurrence.t -> string
(** One occurrence in the line format (no header/newline); the journal
    frames these as its ["ev"] payloads. *)

val parse_occurrence_line :
  string -> (Event_type.t * Ident.Oid.t * Time.t, string) result
(** Parses one {!occurrence_line} (EIDs are reassigned on replay, so only
    the type, object and instant are returned). *)

(** {2 Binary occurrence records}

    The wire's hot-path encoding: fixed-width big-endian fields — etype
    id u32, oid u64, timestamp u64 — 20 bytes per record, no parsing.
    This module owns both directions (encode on the client, decode on
    the server), so the formats can never drift apart. *)

val binary_record_bytes : int
(** Size of one encoded record: 20. *)

val encode_record :
  Buffer.t -> etype_id:int -> oid:int -> timestamp:int -> unit
(** Appends one record.  Raises [Invalid_argument] on a negative field
    or an etype id outside u32 — the encoder is the trusted side. *)

val decode_record : string -> off:int -> (int * int * int, string) result
(** [decode_record s ~off] reads the record at [off] as
    [(etype_id, oid, timestamp)].  Total: short buffers and u64 fields
    that would overflow OCaml's 63-bit int return [Error], never raise. *)
