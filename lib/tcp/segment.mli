(** TCP segments and their wire codec.

    The wire layout is the classic 20-byte header (RFC 793, no options):
    source/destination port (2+2), sequence (4), acknowledgement (4),
    data offset + flags (2), window (2), checksum (2), urgent (2),
    followed by the payload.  The checksum is a simple 16-bit ones'
    complement over the segment (no pseudo-header: our addresses are
    node names, not IPs), enough for corruption-detection experiments. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
}

val no_flags : flags
val flag_ack : flags
val flag_syn : flags
val flag_syn_ack : flags
val flag_rst : flags
val flag_fin_ack : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : Seq32.t;
  ack : Seq32.t;
  flags : flags;
  window : int;
  payload : Bytes.t;
}

val make :
  ?payload:Bytes.t -> src_port:int -> dst_port:int -> seq:Seq32.t ->
  ack:Seq32.t -> flags:flags -> window:int -> unit -> t

val len : t -> int
(** Payload length in bytes. *)

val seq_span : t -> int
(** Sequence-space footprint: payload length plus one for SYN and FIN. *)

(** {1 Wire codec} *)

val encode : t -> Bytes.t

val decode : Bytes.t -> (t, string) result
(** Fails on short input or checksum mismatch (corrupted segments are
    reported, not silently mangled — receivers drop them). *)

(** {1 Messages} *)

val proto_attr_value : string
(** Value of the ["proto"] message attribute on TCP messages. *)

val to_message : t -> dst:string -> Pfi_stack.Message.t
(** Encodes into a network-addressed message. *)

val of_message : Pfi_stack.Message.t -> (t, string) result

(** {1 Inspection} *)

val kind : t -> string
(** Symbolic type for filters: ["SYN"], ["SYN-ACK"], ["RST"], ["FIN"],
    ["DATA"], ["ACK"] (pure ack), ["OTHER"]. *)

val describe : t -> string
