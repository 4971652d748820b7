(** Per-domain trial arenas: recycled simulator scratch.

    A campaign trial builds a whole simulated system, runs it for a few
    thousand virtual events and throws it away.  The event queue's heap
    array and the trace's per-[(node, tag)] records are protocol-
    independent, so one {!Pfi_engine.Sim.scratch} per executor domain
    can back every trial that domain runs: {!scratch} clears the
    recycled structures back to their observable empty state as it
    hands them out (capacity and pair records are retained, which is
    the point), before the trial attaches its feeds and builds its sim.
    The scratch trace is a counting one: it stores no entry at all, so
    a trial's trace is no garbage either.

    The arena is keyed on one process-global [Domain.DLS] key, so
    concurrent executor workers each get their own scratch and never
    contend.  {!Campaign.exec}, the one harness-trial runner, adopts it
    for every trial, exported or not (an export is one more feed), and
    reads every verdict off it before returning; each paper-catalog row
    ({!Paper}) passes it to its testbed and reads the testbed before
    it takes the next one.

    Reuse is invisible in every outcome by construction: a cleared
    trace answers every query exactly like a fresh one of its kind (see
    {!Pfi_engine.Trace.clear}), a cleared queue restarts sequence
    numbering from 0 (see {!Pfi_engine.Event_queue.clear}), and every
    trace-derived verdict is a monitor or feed that decides the same
    over a counting trace as over a stored one.  So a campaign run
    through arenas is byte-identical to one that builds every trial
    from nothing — the property [test/executor_tests.ml] and the
    [perf/] benchmark's cross-width digest check both pin. *)

open Pfi_engine

val scratch : unit -> Sim.scratch
(** This domain's arena scratch (created on first use), cleared
    ({!Pfi_engine.Sim.clear_scratch}) and counted as one trial served.
    The caller must be done with any sim previously created over this
    domain's scratch: clearing empties its trace and queue in place. *)

val trials_served : unit -> int
(** How many trials this domain's arena has backed — the allocation
    counter [pfi_run --stats] reports. *)
