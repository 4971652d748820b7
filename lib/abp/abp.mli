(** The alternating-bit protocol — a third target protocol.

    The paper's future work includes "experimental studies of other
    commercial and prototype distributed protocols"; ABP is the
    classic textbook stop-and-wait ARQ and makes a compact target for
    the script-generation campaigns in {!Pfi_testgen}: a sender
    transmits one frame at a time, tagged with a single alternating
    bit, retransmitting on a timer until the matching ACK arrives; the
    receiver delivers each fresh bit exactly once and re-acknowledges
    duplicates.

    Wire format: 1 byte kind (0 = MSG, 1 = ACK), 1 byte bit, 2 bytes
    checksum (ones' complement over the rest), payload (MSG only).
    Frames failing the checksum are dropped — corruption faults are
    tolerated by retransmission.

    A known fault can be re-implanted for the campaign to find:
    [bug_ignore_ack_bit] makes the sender accept {e any} ACK as
    acknowledging the outstanding frame, so a duplicated or stale ACK
    releases the next frame early and data is lost on the wire. *)

open Pfi_engine

type t

val create :
  sim:Sim.t -> node:string -> peer:string ->
  ?retransmit_every:Vtime.t -> ?bug_ignore_ack_bit:bool -> unit -> t
(** One endpoint; it can both send and receive. *)

val layer : t -> Pfi_stack.Layer.t

val send : t -> string -> unit
(** Queues one application message for reliable delivery to the peer. *)

val delivered : t -> string list
(** Everything delivered to the application, oldest first. *)

val unacked : t -> int
(** Queued + in-flight messages not yet acknowledged. *)

(** {1 Packet stub}

    Protocol name ["abp"]; types ["MSG"]/["ACK"],
    fields [bit], [kind], [len]; generates stateless ACK frames (and
    MSG frames, which the campaign uses as spurious injections). *)

val stub : Pfi_core.Stubs.t
