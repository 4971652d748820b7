(** Packet recognition/generation stub for GMP over the reliable layer.

    The PFI layer in the GMP experiments sits where the UDP send/receive
    calls are made, i.e. {e below} the reliable layer — so what it sees
    are rel-layer packets.  This stub looks through the rel header:
    [msg_type] yields the inner GMP type (["HEARTBEAT"], ["PROCLAIM"],
    ["JOIN"], ["MEMBERSHIP_CHANGE"], ["ACK"], ["NAK"], ["COMMIT"],
    ["DEAD"]) or ["RACK"] for a rel-layer acknowledgement; [msg_field]
    reads [origin sender gid subject members relseq]; [msg_gen]
    fabricates spontaneous GMP messages (wrapped as unreliable rel
    packets) for probing. *)

val stub : Pfi_core.Stubs.t
