(** Per-domain trial arenas: recycled simulator scratch.

    A campaign trial builds a whole simulated system, runs it for a few
    thousand virtual events and throws it away.  The event queue's heap
    array and the trace's per-[(node, tag)] records are protocol-
    independent, so one {!Pfi_engine.Sim.scratch} per executor domain
    can back every trial that domain runs: {!Pfi_engine.Sim.create}
    clears the recycled structures back to their observable empty state
    (capacity and pair records are retained, which is the point).
    The scratch trace is a counting one: it stores no entry at all, so
    a trial's trace is no garbage either.

    The arena is keyed on one process-global [Domain.DLS] key, so
    concurrent executor workers each get their own scratch and never
    contend; see {!Campaign.run_trial} for when a trial may adopt it
    (only when its trace does not escape into the outcome).

    Reuse is invisible in every outcome by construction: a cleared
    trace answers every query exactly like a fresh one of its kind (see
    {!Pfi_engine.Trace.clear}), a cleared queue restarts sequence
    numbering from 0 (see {!Pfi_engine.Event_queue.clear}), and the
    harness checks that read the trace are monitors that decide the same
    verdict over a counting trace as over a stored one.  So a campaign
    run through arenas is byte-identical to one that builds every trial
    from nothing — the property [test/executor_tests.ml] and the
    [perf/] benchmark's cross-width digest check both pin. *)

open Pfi_engine

val scratch : unit -> Sim.scratch
(** This domain's arena scratch (created on first use), counting the
    call as one trial served.  The caller must be done with any sim
    previously created over this domain's scratch: the next
    [Sim.create ?scratch] clears the trace and queue in place. *)

val trials_served : unit -> int
(** How many trials this domain's arena has backed — the allocation
    counter [pfi_run --stats] reports. *)
