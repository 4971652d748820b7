(** A campaign harness for the group membership protocol.

    Topology: [n1..n3] daemons (the PFI layer under [n1]'s reliable
    layer carries the generated fault scripts).  The fault window is
    transient — scripts are cleared two-thirds into the horizon — so a
    correct implementation must re-converge.

    Oracle (the protocol's specification, §4.2):
    - all daemons agree on one final view containing every member;
    - no heartbeat-expect timer ever fired while IN_TRANSITION
      ([gmp.spurious-timeout] must be absent);
    - no proclaim storm ([gmp.proclaim-fwd] stays bounded — the
      forwarding loop of Table 7 trips this).

    The two trace guarantees are {!Oracle.monitor}s attached to the sim's
    trace at build, so they are decided while the trial records and a
    counting trace serves as well as a stored one.

    With {!Pfi_gmp.Gmd.bugs} flags enabled, the campaign (or even its
    fault-free control trial, for the proclaim loop) rediscovers the
    paper's implanted defects. *)

val harness : ?bugs:Pfi_gmp.Gmd.bugs -> unit -> Harness_intf.packed
(** A packed {!Harness_intf.HARNESS}: registry name ["gmp"] (or
    ["gmp-buggy"] with any bug implanted), spec {!Spec.gmp}, target
    ["n2"]. *)

val default_horizon : Pfi_engine.Vtime.t
