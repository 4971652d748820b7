(** A ready-made campaign harness for the alternating-bit protocol.

    Topology: [alice] (sender, with the PFI layer under her ABP
    endpoint) and [bob] (receiver).  Workload: twenty application
    messages, one per second.  Oracle: bob delivered exactly the sent
    sequence, in order, with no duplicates, and alice has nothing left
    unacknowledged. *)

val harness : ?bug_ignore_ack_bit:bool -> unit -> Harness_intf.packed
(** A packed {!Harness_intf.HARNESS}: registry name ["abp"] (or
    ["abp-buggy"] with the bug implanted), spec {!Spec.abp}, target
    ["bob"]. *)

val default_horizon : Pfi_engine.Vtime.t
(** Comfortably enough for the workload to finish under every campaign
    fault (120 s of virtual time). *)
