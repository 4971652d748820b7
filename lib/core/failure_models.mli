(** The failure-model library (paper §2.2).

    Each constructor describes one way a protocol participant may
    deviate from its specification; {!apply} writes it as filter script
    text and installs that on a PFI layer, so a model is a fault like
    any other: it draws from the layer's own random stream, a later
    [Pfi_layer.set_*_filter] replaces it and [clear_*_filter] heals it.
    Models are ordered by severity: a model [b] is more severe than [a]
    when the faulty behaviours allowed by [a] are a proper subset of
    those allowed by [b], so an implementation tolerating [b] also
    tolerates [a]. *)

open Pfi_engine

type t =
  | Process_crash of { at : Vtime.t }
      (** halt at [at]: nothing is sent or received from then on
          (correct behaviour before).  Both filters drop once
          [[now_us]] reaches [at]. *)
  | Link_crash of { at : Vtime.t }
      (** the outgoing link stops transporting messages at [at]: the
          send filter drops from then on *)
  | Send_omission of { p : float }
      (** each outgoing message is omitted with probability [p]
          ([chance p]) *)
  | Receive_omission of { p : float }
      (** each incoming message is omitted with probability [p] *)
  | General_omission of { p_send : float; p_recv : float }
  | Timing of { mean : float; std : float }
      (** every message, both ways, is delayed by
          [max(0, [dst_normal mean std])] seconds: steps take longer
          than their specified bound *)
  | Byzantine of { corrupt_p : float; reorder_p : float; duplicate_p : float }
      (** arbitrary behaviour on outgoing messages, each part gated by
          its own [chance]: [xCorrupt] flips a random byte, [xDup] sends
          one copy, and reordering is a random delay of
          [[dst_uniform 0 0.05]] seconds, which lets later messages
          overtake *)

val severity : t -> int
(** Position in the severity order (crash = 0 ... byzantine = 6). *)

val more_severe : t -> t -> bool
(** [more_severe a b] iff [a] allows strictly more faulty behaviour. *)

val describe : t -> string

val apply : Pfi_layer.t -> t list -> unit
(** Installs the models on the layer.  Each direction's filter is the
    concatenation of the models' scripts for it, in list order, so every
    model runs on every message and a later model's verdict wins (a drop
    after a delay drops).  A direction no model touches gets no filter:
    [apply pfi []] clears both.  Replaces whatever filters were set. *)
