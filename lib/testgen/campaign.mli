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
    can be re-executed byte-for-byte from a recorded {!Repro.t}
    artifact, and — because trials share no state — the whole campaign
    can be executed by any {!Executor.t} (including the multicore
    domain pool) with byte-identical results: outcomes always come
    back in canonical {!plan} order, whatever the worker count.

    There is one entrypoint for a whole campaign: build a {!plan}
    (either the stock generated fault set via {!plan}, or an explicit
    trial list via {!plan_of_trials}), choose what to observe with an
    {!observer}, and {!run} it.  The fuzzer and the shrinker run their
    trials one by one through {!run_trial}. *)

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
  trace : Trace.t option;
      (** the trial sim's full trace, kept when the observer asked for
          traces; [None] otherwise *)
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
    optional arguments.  The CLI's [--trace-out], the scenario runner
    and the fuzzer's coverage loop all consume the same record.  The
    verdict itself is always the harness's [check]: every trace-derived
    part of it is a monitor the harness attached at build, so whether
    traces are kept never changes a verdict. *)

type observer = {
  obs_traces : bool;
      (** keep each trial sim's stored {!Trace.t} on its outcome (and
          the control trial's trace on the summary).  Off, trials
          record into counting traces that store no entry. *)
}

val observe : ?traces:bool -> unit -> observer
(** Observer constructor; [traces] defaults to off. *)

val silent : observer
(** [observe ()] — no traces.  The default for {!run}. *)

(** {1 Plans} *)

type plan = {
  p_harness : Harness_intf.packed;
  p_trials : trial list;  (** canonical order *)
  p_horizon : Vtime.t;
  p_seed : int64;  (** the campaign seed trials were derived from *)
  p_control : bool;
      (** run the fault-free control trial before the faulted ones *)
}

val plan :
  ?sides:side list -> ?seed:int64 -> ?horizon:Vtime.t ->
  Harness_intf.packed -> plan
(** The stock campaign plan: every generated fault
    ({!Generator.campaign} over the harness spec and target) on every
    requested side (default send, receive, both — the canonical order),
    each with its derived {!trial_seed}, after a control trial.  Each
    fault's filter script is compiled once and shared by every (side,
    executor-domain) trial that runs it.  Defaults: the harness's
    [default_seed] and [default_horizon].  Summaries, trace exports and
    repro artifacts follow the plan's trial order regardless of which
    executor ran the trials. *)

val plan_of_trials :
  ?seed:int64 -> ?horizon:Vtime.t -> trials:trial list ->
  Harness_intf.packed -> plan
(** A plan over an explicit trial list, such as a fuzz corpus (mutated
    inputs are not the stock fault set).  It runs no control trial. *)

val trial :
  ?arm:(Sim.t -> Pfi_core.Pfi_layer.t -> unit) ->
  ?script:Pfi_script.Ast.script ->
  seed:int64 -> side:side -> Generator.fault -> trial
(** Trial constructor.  [script] defaults to compiling the fault's
    generated filter source. *)

(** {1 Running} *)

val run_trial :
  Harness_intf.packed -> side:side -> horizon:Vtime.t -> seed:int64 ->
  ?capture_trace:bool -> ?script:string ->
  ?compiled:Pfi_script.Ast.script ->
  ?arm:(Sim.t -> Pfi_core.Pfi_layer.t -> unit) ->
  Generator.fault -> outcome
(** One isolated trial.  [script] overrides the generated filter text —
    replay installs the recorded script bytes rather than regenerating
    them, so an artifact stays reproducible even if the generator's
    templates later change.  [compiled] (used when [script] is absent)
    installs an already-compiled filter, the campaign hot path: {!plan}
    compiles each fault once and every trial shares the AST.  With
    neither, the generated source is compiled here.  [arm] is the
    trial's {!trial.t_arm} hook.  The verdict is the harness's [check];
    [injected_events] is read with {!Trace.count}.  [capture_trace]
    keeps the trial sim's stored {!Trace.t} on the outcome (default
    false).

    A trial whose trace is not kept adopts this domain's {!Arena}
    scratch — recycled event-queue storage and a counting trace —
    instead of allocating fresh backing arrays and a storing trace.
    The verdict, event count and injected-event count are identical
    either way; only the stored entries are missing, and nothing reads
    them.  An [arm] hook on such a trial sees a counting trace. *)

type summary = {
  s_outcomes : outcome list;  (** in plan order *)
  s_control_trace : Trace.t option;
      (** the control trial's trace, when the plan ran a control and
          the observer asked for traces *)
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
    through the executor (default {!Executor.sequential}).  Outcomes
    come back in plan order for any executor.  A trial whose runner raised
    re-raises after every other trial has completed.  Trials reuse
    per-domain scratch whenever their traces are not kept (see
    {!run_trial}); the control trial always builds fresh, with a
    storing trace. *)

val table : outcome list -> string
(** Human-readable table of outcomes. *)

val violations : outcome list -> outcome list
