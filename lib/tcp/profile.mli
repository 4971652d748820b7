(** Vendor behaviour profiles.

    The paper tested four commercial TCPs without source access and
    characterised how each deviates from (or interprets) RFC 793/1122.
    We encode those characterisations as parameters of one TCP engine,
    so the PFI experiments can re-discover them:

    - {b SunOS 4.1.3} / {b AIX 3.2.3} / {b NeXT Mach}: BSD-derived.
      12 data retransmissions, exponential backoff to a 64 s ceiling,
      RST on timeout; Jacobson RTO with Karn sampling and backoff
      retention; keep-alive first probe at ~7200 s then 8 probes at
      75 s before RST (SunOS pads the probe with one garbage byte);
      zero-window probes forever at a 60 s ceiling.
    - {b Solaris 2.3}: System V derived.  330 ms retransmission floor,
      9 retransmissions counted by a {e global} error counter that an
      ambiguous (retransmitted-segment) ACK does not reset, silent
      close (no RST); does not adapt its RTO to network delay (no
      Jacobson/Karn backoff retention); keep-alive first probe at
      6752 s with exponential backoff and 7 retries, no RST;
      zero-window ceiling 56 s — the 6752/7200 = 56/60 clock-scaling
      anomaly the paper highlights.

    What every profile shares is not a parameter: all segment at
    {!Tcp}'s 512-byte MSS into a 4096-byte receive buffer, acknowledge
    in-order data at once (the experiments measure ACK timing, so the
    instrumented x-Kernel peer must not add delays of its own), and run
    Van Jacobson slow start and congestion avoidance. *)

open Pfi_engine

type keepalive_probe_schedule =
  | Fixed_interval of { interval : Vtime.t; max_probes : int }
      (** BSD: probes every [interval]; after [max_probes] unanswered,
          give up. *)
  | Exponential_backoff of { max_probes : int }
      (** Solaris: probe retransmissions back off like data. *)

type t = {
  name : string;
  (* --- retransmission ------------------------------------------- *)
  rto_min : Vtime.t;
  rto_max : Vtime.t;  (** backoff ceiling (the 64 s plateau) *)
  rto_initial : Vtime.t;  (** before any RTT sample exists *)
  rto_granule : Vtime.t;  (** timer tick the RTO is rounded up to *)
  rttvar_floor : Vtime.t;
      (** lower bound kept in the smoothed deviation — the profile knob
          that yields each vendor's distinct adapted RTO *)
  use_jacobson : bool;
      (** false: RTT samples never update the estimator (the RTO stays
          at its initial/minimum value — Solaris-observed behaviour) *)
  karn_sampling : bool;
      (** true: ambiguous samples (segments that were retransmitted) are
          discarded, per Karn's algorithm; false: every ACK is sampled
          from the segment's first transmission — the classic pre-Karn
          estimator corruption the ablation bench demonstrates *)
  karn_backoff_retention : bool;
      (** true: a backed-off RTO carries over to new segments until an
          unambiguous sample arrives (Karn's algorithm, part 2) *)
  fast_retransmit : bool;
      (** Reno-style: three duplicate ACKs retransmit the missing
          segment without waiting for the timer (BSD-derived stacks;
          not Solaris 2.3) *)
  max_data_retries : int;
  rst_on_timeout : bool;  (** send RST when giving up on a connection *)
  global_error_counter : bool;
      (** true: one counter of consecutive timeouts for the whole
          connection, reset only by an ACK of a never-retransmitted
          segment; false: per-segment retry counting *)
  (* --- keep-alive ------------------------------------------------ *)
  keepalive_idle : Vtime.t;  (** idle time before the first probe *)
  keepalive_schedule : keepalive_probe_schedule;
  keepalive_rst_on_fail : bool;
  keepalive_garbage_byte : bool;  (** SunOS-style 1 garbage data byte *)
  (* --- zero-window probing --------------------------------------- *)
  persist_max : Vtime.t;  (** probe-interval ceiling (60 s / 56 s) *)
}

val sunos_413 : t
val aix_323 : t
val next_mach : t
val solaris_23 : t

val all_vendors : t list
(** The four, in the paper's table order. *)

val xkernel : t
(** The instrumented x-Kernel peer the PFI tool runs on: RFC-compliant
    BSD-style parameters. *)

val slug : t -> string
(** Single-token identifier for the profile: the lowercased name with
    spaces replaced by dashes (["sunos-4.1.3"], ["x-kernel"]).  Usable
    where whitespace-free tokens are required (scenario directives,
    generated file names) and accepted back by {!find}. *)

val find : string -> t option
(** Lookup by [name] (case-insensitive) or by {!slug}. *)
