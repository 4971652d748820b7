(** Reliable communication layer over the (unreliable) network.

    The student GMP "implemented a reliable communication layer using
    retransmission timers and sequence numbers" on top of UDP; the PFI
    tool was inserted {e below} it, at the UDP send/receive calls — so
    injected faults also hit retransmissions.  This layer reproduces
    that design:

    - each payload sent reliably gets a per-destination sequence number,
      is retransmitted at a fixed interval up to a bounded number of
      times, and is acknowledged by the receiver;
    - the receiver suppresses duplicates;
    - unreliable sends (heartbeats) bypass all of that.

    Wire format: 1 byte kind (0 raw, 1 data, 2 ack), 4 bytes sequence
    number, 2 bytes checksum (ones' complement over the rest), payload.
    Packets failing the checksum are dropped silently, as UDP would. *)

open Pfi_engine

val header_size : int

type t

val create : sim:Sim.t -> node:string -> unit -> t
(** A reliable send is retransmitted every 500 ms, at most 3 times.
    Every copy carries the attribute list of the message pushed down,
    and the send's ACK cancels its pending retransmission. *)

val layer : t -> Pfi_stack.Layer.t
(** Downward messages must carry {!Pfi_netsim.Network.dst_attr} and the
    attribute [rel=1] to be sent reliably (anything else passes as raw).
    Upward messages are unwrapped and handed up; ACKs are consumed. *)

val reliable_attr : string
(** ["rel"]: set to ["1"] on a message to request reliable delivery. *)

val inspect : Bytes.t -> ([ `Raw | `Data | `Ack ] * int * Bytes.t) option
(** Parses a rel-layer packet into (kind, seq, inner payload) without
    consuming it — used by packet stubs that must look through the rel
    header.  None on malformed input. *)

val kind_raw : int
val kind_data : int
val kind_ack : int
(** The wire kind bytes, for callers of {!inspect_header}. *)

val inspect_header : Bytes.t -> int
(** Allocation-free variant of {!inspect} for classification hot
    paths: validates the length and checksum in place (same acceptance
    as {!inspect}) and returns the raw kind byte (0–255), or [-1] on
    malformed input.  Nothing is copied out: read the sequence number
    with {!header_seq} and the inner payload at offset {!header_size}. *)

val header_seq : Bytes.t -> int
(** The sequence number of a packet {!inspect_header} accepted. *)

val wrap_raw : Bytes.t -> Bytes.t
(** Wraps a payload as an unreliable (raw) rel packet — for stubs that
    generate spontaneous messages below the reliable layer. *)

val pending_count : t -> int
(** Transmissions awaiting acknowledgement. *)

val give_up_count : t -> int
(** Messages abandoned after exhausting retries. *)
