(** Deterministic fault-injection campaigns.

    A campaign takes a harness (a packed {!Harness_intf.HARNESS}
    module), generates the systematic fault set for its protocol
    specification ({!Generator.campaign}), and runs each fault as an
    isolated trial: a fresh simulated system is built, the generated
    script is installed on a PFI layer, the workload runs to a horizon,
    and an oracle checks the protocol's service guarantee.  The result
    says which faults the implementation tolerates and which ones
    expose a violation — the paper's "identify specific problems"
    orientation, as opposed to statistical coverage.

    Every trial is seeded individually: the seed is a pure function of
    the campaign seed, the fault's identity ({!Generator.fault_key})
    and the filter side ({!trial_seed}), never of the trial's position
    in the run.  Adding, removing or permuting faults or sides
    therefore cannot change any other trial's verdict, a single trial
    can be re-executed byte-for-byte from its [.pfis] repro
    ({!Scenario.repro}), and — because trials share no state — the whole campaign
    can be executed by any {!Executor.t} (including the multicore
    domain pool) with byte-identical results: outcomes always come
    back in canonical {!plan} order, whatever the worker count.

    There is one entrypoint for a whole campaign: build a {!plan}
    (either the stock generated fault set via {!plan}, or an explicit
    trial list via {!plan_of_trials}), choose what to observe with an
    {!observer}, and {!run} it.  The shrinker runs its trials one by
    one through {!run_trial}.  Every harness trial in
    the library — campaign, control, fuzz, scenario and vendor-row —
    is built by one function, {!exec}. *)

open Pfi_engine

type side = Send_filter | Receive_filter | Both_filters

type verdict =
  | Tolerated
  | Violation of string

type outcome = {
  fault : Generator.fault;
  side : side;
  seed : int64;  (** the per-trial RNG seed the trial actually ran with *)
  verdict : verdict;
  injected_events : int;
      (** [testgen.fault] plus [pfi.log] trace entries: the messages the
          trial's filters logged as faulted *)
  sim_events : int;
      (** simulator callbacks fired by the trial ({!Sim.events}) — the
          engine benchmark's events/sec numerator *)
}

type trial = {
  t_fault : Generator.fault;
  t_side : side;
  t_seed : int64;  (** derived via {!trial_seed} *)
  t_script : Pfi_script.Ast.script;
      (** the fault's filter, compiled once per (campaign, fault) by
          {!plan} and shared by value across sides and executor domains *)
  t_arm : (Sim.t -> Pfi_core.Pfi_layer.t -> unit) option;
      (** extra per-trial arming hook, run after the filter is
          installed and before the workload starts; the fuzzer uses it
          to schedule fault-window clears ([Pfi_layer.clear_*]) at a
          mutated virtual time.  Must only touch the trial's own sim
          and PFI layer (trials share no state). *)
}
(** One campaign trial descriptor: everything an {!Executor.t} worker
    needs to run the trial on a fresh system of its own. *)

exception Control_failure of string
(** The fault-free control trial violated the harness check (the
    carried string is its diagnostic) — the harness or protocol is
    broken, so every fault verdict would be meaningless. *)

val side_name : side -> string
(** ["send"], ["receive"] or ["both"] — the inverse of {!side_of_name}. *)

val side_of_name : string -> side option

val default_seed : int64
(** Campaign seed used when none is given (31). *)

val trial_seed : campaign_seed:int64 -> side:side -> Generator.fault -> int64
(** The per-trial seed: splitmix64-mixed from the campaign seed, the
    fault's {!Generator.fault_key} and the side.  Pure, so a recorded
    trial replays identically and sibling trials cannot perturb it. *)

val trial_seed_of_key : campaign_seed:int64 -> side:side -> int64 -> int64
(** {!trial_seed} with the fault identity already folded to a 64-bit
    key.  The fuzzer derives trial seeds from the key of a whole
    multi-fault input; for a single fault,
    [trial_seed_of_key ~campaign_seed ~side (Generator.fault_key f)]
    equals [trial_seed ~campaign_seed ~side f], so shrunk single-fault
    findings replay through the stock campaign machinery. *)

(** {1 Observers}

    What a {!run} should watch, stated as data instead of threaded
    optional arguments.  The CLI's [--trace-out] and the scenario runner
    consume the same record.  The verdict itself is always the
    harness's [check]: every trace-derived part of it is a monitor the
    harness attached at build, so an export never changes a verdict. *)

type observer = {
  obs_traces : bool;
      (** build each trial on a storing trace ({!exec}'s [capture_trace])
          that nothing reads: only [perf/] sets it, to time that kind *)
  obs_trace_out : Trace_out.t option;
      (** the sink each trial's entries stream to as they are recorded *)
}

val observe : ?traces:bool -> ?trace_out:Trace_out.t -> unit -> observer
(** Observer constructor; off and no export by default, as {!run}'s. *)

(** {1 Plans} *)

type plan = {
  p_harness : Harness_intf.packed;
  p_trials : trial list;  (** canonical order *)
  p_horizon : Vtime.t;
  p_seed : int64;  (** the campaign seed trials were derived from *)
  p_control : bool;
      (** run the fault-free control trial before the faulted ones *)
}

val plan : ?seed:int64 -> Harness_intf.packed -> plan
(** The stock campaign plan: every generated fault
    ({!Generator.campaign} over the harness spec and target) on every
    side (send, receive, both — the canonical order), each with its
    derived {!trial_seed}, after a control trial.  Each fault's filter
    script is compiled once and shared by every (side, executor-domain)
    trial that runs it.  The seed defaults to the harness's
    [default_seed]; the horizon is its [default_horizon].  Summaries,
    trace exports and repros follow the plan's trial order
    regardless of which executor ran the trials. *)

val plan_of_trials :
  ?seed:int64 -> trials:trial list -> Harness_intf.packed -> plan
(** A plan over an explicit trial list, such as a fuzz corpus (mutated
    inputs are not the stock fault set), at the harness's
    [default_horizon].  It runs no control trial. *)

val trial :
  ?arm:(Sim.t -> Pfi_core.Pfi_layer.t -> unit) ->
  ?script:Pfi_script.Ast.script ->
  seed:int64 -> side:side -> Generator.fault -> trial
(** Trial constructor.  [script] defaults to compiling the fault's
    generated filter source. *)

(** {1 Running} *)

val exec :
  ?capture_trace:bool -> ?arm:(Sim.t -> Pfi_core.Pfi_layer.t -> unit) ->
  Harness_intf.packed -> horizon:Vtime.t -> seed:int64 ->
  filters:(side * Pfi_script.Ast.script) list ->
  (Trace.t -> verdict -> Sim.t -> 'a) -> 'a
(** The one function that builds a harness trial.  It takes this
    domain's {!Arena} scratch and calls [feed] on its trace before
    [build] records anything — tcp's [build] records the client's SYN
    as entry #0 — so monitors and {!Trace_out} exports see it.  It then
    builds the harness with [seed], installs each filter on its side,
    runs [arm] and the workload to [horizon], and returns what the
    reader [feed] returned makes of the harness's [check] and the
    finished sim.  The reader runs before [exec] returns, so every
    verdict comes off this trial's trace before the domain's next trial
    clears the arena.  [capture_trace] (default false; only tests and
    [obs_traces] set it) uses a fresh storing scratch instead, so the
    reader may return the trace itself. *)

val run_trial :
  ?trace_out:Trace_out.t -> Harness_intf.packed -> horizon:Vtime.t -> trial ->
  outcome
(** One trial through {!exec}: its script on its side, its arming hook,
    its seed, its entries streaming to [trace_out].  [injected_events]
    is read with {!Trace.count}. *)

type summary = {
  s_outcomes : outcome list;  (** in plan order *)
  s_exec : Executor.stats;
      (** the executor's accumulated scheduling counters, snapshotted
          after the trials ran — purely observational (never part of
          {!table} or any digest), surfaced by [pfi_run --stats] and
          the [perf/] benchmark's executor metrics *)
}

val run :
  ?executor:Executor.t -> ?observe:observer -> plan -> summary
(** The single campaign entrypoint.  Runs the plan's control trial (if
    [p_control]) on the calling domain seeded with the campaign seed —
    raising {!Control_failure} if the harness check rejects the
    fault-free system — then every planned trial
    through the executor (default a fresh {!Executor.of_jobs}[ 1]) by
    {!Trace_out.map}.  Outcomes, and the observer's export (labelled
    [campaign], the harness name, and [sim], 0 for the control and
    [i + 1] for trial [i]), come in plan order for any executor.  A
    trial whose runner raised re-raises after every other trial has
    completed.  Every trial, the control included, records into
    per-domain scratch (see {!exec}). *)

val table : outcome list -> string
(** Human-readable table of outcomes. *)

val violations : outcome list -> outcome list
