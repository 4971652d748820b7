(** Big-endian wire-format helpers for protocol header codecs. *)

exception Truncated of string
(** Raised by readers that run past the end of the buffer. *)

(** {1 Writing} — a growable buffer that renders to [Bytes.t]. *)

type writer

val writer : unit -> writer
val u8 : writer -> int -> unit
val u16 : writer -> int -> unit
val u32 : writer -> int32 -> unit
val u32_of_int : writer -> int -> unit
(** Writes the low 32 bits of a native int (sequence numbers are kept as
    ints in protocol code). *)

val bytes : writer -> Bytes.t -> unit
val string : writer -> string -> unit
val contents : writer -> Bytes.t

(** {1 Reading} — a cursor over immutable bytes. *)

type reader

val reader : Bytes.t -> reader
val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int32
val read_u32_int : reader -> int
(** Reads 32 bits into a non-negative native int. *)

val read_bytes : reader -> int -> Bytes.t
val read_rest : reader -> Bytes.t
val remaining : reader -> int
