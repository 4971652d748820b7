(** The TCP engine.

    One {!t} is a host's TCP: it owns a stack layer, demultiplexes
    segments to connections, and implements the transmission policies
    the paper probes — timeout/retransmission with exponential backoff,
    Jacobson/Karn RTO estimation, keep-alive, zero-window (persist)
    probing, out-of-order queueing and reset generation — all
    parameterised by a vendor {!Profile.t}.

    The application ("driver" in the paper's terms) interacts through
    {!connect}/{!listen}, {!send}, {!read} and callbacks.  With
    {!set_auto_consume} off, received data stays in the receive buffer
    and closes the advertised window — the lever the zero-window-probe
    experiment uses. *)

open Pfi_engine

type t
type conn

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

val state_to_string : state -> string

(** {1 Host setup} *)

val create : sim:Sim.t -> node:string -> profile:Profile.t -> unit -> t
(** The returned host owns a layer ({!layer}) to be placed at the top of
    a stack; segments it emits carry the destination in
    {!Pfi_netsim.Network.dst_attr}. *)

val layer : t -> Pfi_stack.Layer.t

(** {1 Connections} *)

val listen : t -> port:int -> unit
val on_accept : t -> (conn -> unit) -> unit

val connect : t -> dst:string -> dst_port:int -> ?src_port:int -> unit -> conn
(** Active open; the three-way handshake proceeds in simulated time.
    [src_port] defaults to an ephemeral port. *)

val close : conn -> unit
(** Orderly release (FIN). *)

val abort : conn -> unit
(** Sends RST and closes immediately. *)

val state : conn -> state
val on_state_change : conn -> (state -> unit) -> unit
val on_data : conn -> (string -> unit) -> unit
(** Called when data is delivered in order.  With auto-consume on
    (default) the data is also removed from the receive buffer. *)

(** {1 Data transfer} *)

val send : conn -> string -> unit
(** Queues application data for transmission. *)

val read : conn -> int -> string
(** Consumes up to [n] bytes from the receive buffer, re-opening the
    advertised window (sends a window update if the window was closed). *)

val set_auto_consume : conn -> bool -> unit
(** Off: received data accumulates until {!read} — the advertised
    window shrinks and eventually closes. *)

val set_keepalive : conn -> bool -> unit

(** {1 Introspection (for experiments and tests)} *)

val local_port : conn -> int
val snd_una : conn -> int
val snd_nxt : conn -> int
val rcv_nxt : conn -> int
val advertised_window : conn -> int
val peer_window : conn -> int
val congestion_window : conn -> int
val slow_start_threshold : conn -> int
val current_rto : conn -> Vtime.t
(** The effective retransmission timeout (after backoff and clamping)
    that the next retransmission timer will use. *)

val srtt : conn -> Vtime.t option
val error_counter : conn -> int
(** Solaris-style global counter (always maintained; only consulted for
    the give-up decision when the profile enables it). *)

val segment_retries : conn -> int
val total_retransmits : conn -> int
val close_reason : conn -> string option
(** Why the connection reached [Closed] (e.g. ["rexmt-exhausted"],
    ["keepalive-exhausted"], ["reset-received"], ["user-abort"]). *)

(** {1 Trace tags}

    The engine records these tags in the simulation trace (node = host):
    [tcp.out] every transmitted segment; [tcp.in] every segment accepted
    by a connection; [tcp.retransmit] data retransmissions;
    [tcp.keepalive-probe] and [tcp.persist-probe] probes;
    [tcp.rst-sent]; [tcp.state] state transitions; [tcp.closed] with the
    close reason. *)
