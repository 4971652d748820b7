(** Packet recognition/generation stub for TCP.

    Gives filter scripts symbolic access to TCP segments: [msg_type]
    returns ["SYN"|"SYN-ACK"|"ACK"|"DATA"|"FIN"|"RST"|"OTHER"];
    [msg_field] reads [sport dport seq ack window len flags]; fields
    [seq], [ack] and [window] can be rewritten ([msg_set_field]
    re-encodes and re-checksums the segment); [msg_gen] builds
    stateless segments — e.g. a spurious ACK:

    {[ msg_gen type ACK sport 2000 dport 80 seq 5 ack 1234 window 4096 ]} *)

val stub : Pfi_core.Stubs.t
