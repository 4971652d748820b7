(** TCP campaign/scenario harness: a client and a server stack over the
    simulated network, with the PFI layer spliced below the client's
    transport (TCP / PFI / IP / device — the paper's probe placement).
    The workload is a deterministic bulk transfer; the service oracle
    demands the server received exactly the bytes the client sent and
    the connection is still ESTABLISHED at the horizon.  Faults are
    transient: filters are cleared at an interior instant so the rest
    of the horizon exercises recovery.

    The harness is parameterised over the vendor {!Pfi_tcp.Profile.t}
    under test and a workload {!phase}, so handshake-time and
    teardown-time fault scenarios (SYN loss, FIN duplication, TIME_WAIT
    assassination) exercise the full 10-state FSM rather than a
    pre-warmed stream. *)

type phase =
  | Handshake
      (** the active open happens inside the workload, i.e. {e under}
          the installed fault filters — SYN and SYN-ACK loss are live *)
  | Stream
      (** (default) the connection is opened at build time and the
          fault window covers the established data stream *)
  | Close
      (** like [Stream], plus an orderly client close at one simulated
          minute — after the default stream drains, before the filters
          clear, so teardown faults act on live filters; the server
          closes back from CLOSE_WAIT, so the client walks
          FIN_WAIT_1 / FIN_WAIT_2 / TIME_WAIT and the check demands
          the teardown completed via TIME_WAIT expiry *)

val phase_name : phase -> string
(** ["handshake"] / ["stream"] / ["close"] — inverse of
    {!phase_of_string}. *)

val phase_of_string : string -> phase option

val strip_port : string -> string
(** ["port=N rest"] → ["rest"]: a client trace detail without its
    ephemeral port. *)

type env

val harness :
  ?chunk_count:int ->
  ?profile:Pfi_tcp.Profile.t ->
  ?phase:phase ->
  ?keepalive:bool ->
  ?server_reads:bool ->
  ?heal:bool ->
  unit ->
  Harness_intf.packed
(** [chunk_count] payload chunks (default 12) are sent two seconds
    apart, starting at virtual time zero.  [profile] (default
    {!Pfi_tcp.Profile.xkernel}) configures {e both} endpoints.
    [keepalive] (default false) arms the client connection's
    keep-alive timer.  [server_reads] (default true) wires the
    server's receive callback; false leaves received data unconsumed
    so the advertised window closes — the zero-window-probe lever.
    [heal] (default true) clears the fault filters installed by a
    campaign or scenario at three simulated minutes, making every fault
    a transient outage; false keeps the fault active to the horizon
    (exhaustion experiments).  The default horizon is ten simulated
    minutes. *)
