(** The group membership daemon (gmd).

    Implements the strong group membership protocol the paper tests: a
    group has a unique leader (the member with the lowest id, mirroring
    "lowest IP address"); membership changes run a two-phase protocol
    (MEMBERSHIP_CHANGE → ACK/NAK → COMMIT) so that all members see
    changes in the same order; members in between the two phases are
    {e in transition}.  Failure detection is heartbeat-based: every
    member heartbeats every group member (including itself, through the
    full stack — which is how the self-death experiment can drop them);
    an expired heartbeat-expect timer declares the peer dead.  Nodes
    outside a full group send PROCLAIM messages; members forward
    proclaims to their leader; leaders respond with PROCLAIM or JOIN
    depending on id order.

    The three implementation faults the paper's experiments uncovered
    are re-implanted behind {!bugs} flags so the experiments can find
    them again (and show the fixed behaviour with flags off). *)

open Pfi_engine

type bugs = {
  self_death : bool;
      (** Table 5: on missing own heartbeats, broadcast DEAD(self) and
          mark self down {e without} forming a singleton; while in this
          state, proclaim forwarding silently fails (the wrong-parameter
          bug). *)
  proclaim_reply_to_sender : bool;
      (** Table 7: the leader answers a forwarded PROCLAIM to its
          transport sender (the forwarder) instead of its originator,
          creating the proclaim loop. *)
  timer_unset_inverted : bool;
      (** Table 8: the unset-all-timeouts call has its NULL test
          inverted, so entering IN_TRANSITION cancels only the first
          heartbeat-expect timer instead of all of them. *)
}

val no_bugs : bugs
val all_bugs : bugs

type view = {
  group_id : int;
  members : int list;  (** sorted ascending; the head is the leader *)
  leader : int;
}

type phase = Normal | In_transition

type t

val create :
  sim:Sim.t -> node:string -> id:int -> peers:(string * int) list ->
  ?bugs:bugs -> unit -> t
(** [peers] maps every other node's name to its id (the "potential
    members" universe); [bugs] defaults to {!no_bugs}.  Every daemon
    heartbeats each member every 2 s and declares it dead after 7 s
    without one, proclaims every 8 s while seeking a group, and waits
    3 s for ACKs as leader or 15 s for a COMMIT as member. *)

val layer : t -> Pfi_stack.Layer.t
(** Top of the daemon's stack; place a reliable layer (and a PFI layer)
    beneath it. *)

val start : t -> unit
(** Boots the daemon: it forms a singleton group and starts
    proclaiming. *)

val stop : t -> unit
(** Halts all timers (process shutdown). *)

val suspend : t -> unit
(** Freezes the daemon without disarming timers, like typing Ctrl-Z on
    the running gmd: incoming messages are ignored and periodic work
    stops while suspended. *)

val resume : t -> unit

(** {1 Introspection} *)

val view : t -> view
val phase : t -> phase

val self_marked_down : t -> bool
(** True only in the buggy self-death state. *)

val armed_timers : t -> string list
(** Names of currently armed timers — what the Table 8 experiment
    inspects ("no timers except the membership change timer should be
    set"). *)

val view_history : t -> view list
(** Every view this daemon has committed, oldest first. *)

(** {1 Trace tags}

    [gmp.view] committed view adoptions; [gmp.transition] entering
    IN_TRANSITION; [gmp.singleton] singleton formation; [gmp.dead]
    declaring a member dead; [gmp.self-dead] the buggy self-death;
    [gmp.proclaim-fwd] forwarding; [gmp.fwd-dropped] the silent
    forwarding failure; [gmp.spurious-timeout] an expect timer firing
    during IN_TRANSITION; [gmp.send] every protocol message sent. *)
