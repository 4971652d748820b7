(** The paper catalog: the paper results the vendor matrix
    ({!Conformance.catalog}) does not already re-measure, one
    {!Conformance.row} each, rendered as [EXPERIMENTS_paper.md].

    Each row builds the paper's own testbed from its derived row seed —
    {!Tcp_rig} (Figure 3: PFI on the x-Kernel peer) or {!Gmp_rig}
    (Figure 5: PFI at every gmd's UDP boundary, one shared blackboard)
    — on this domain's {!Arena} scratch, installs the paper's filter
    scripts, and reads what its filters logged and the protocol state
    (final srtt, view histories, armed timers) show.  The log is read
    through {!Conformance.collect}ors attached to the scratch's
    counting trace before the rig is built, and per-[(node, tag)]
    counts; no row stores its trace.  A row reads its rig before it
    takes another scratch, so the Karn row's 50 sub-trials run one
    after another.

    Sections, in report order: Table 2 with Figure 4's delayed-ACK
    series ([table2], 8 rows), the Solaris 35 s retry probe with global
    and per-segment counting ([retry], Table 2's probe and Ablation B),
    Table 3 with probes ACKed ([keepalive-acked]), Table 4 with probes
    unanswered plus the two-day unplug ([zerowin-unanswered]),
    Experiment 5 ([exp5]), GMP Tables 5–8 ([table5] .. [table8], with
    buggy/fixed pairs for the three re-implanted bugs), and Ablation A,
    Karn's rule over 25 seeds per variant ([ablation-karn]). *)

val catalog : unit -> Conformance.row list
