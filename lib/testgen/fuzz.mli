(** Coverage-guided fault fuzzing.

    The stock campaign enumerates a systematic fault set; the fuzzer
    {e searches} the same lattice instead.  Starting from a small seed
    corpus of mild faults, it repeatedly mutates corpus inputs —
    nudging parameters up and down, flipping the filter side, swapping
    the fault kind, splicing faults from other corpus entries into
    multi-fault sequences, jittering a fault-window clear time — runs
    each mutant as an isolated campaign trial, and keeps the ones that
    reach {!Coverage} features no earlier input reached.  Inputs whose
    trial trips the service oracle are reduced on the spot — the clear
    window is stripped and faults greedily dropped from the set while
    the violation persists, then a lone surviving fault descends the
    {!Shrink.minimize} lattice — and deduplicated by a normalized
    failure signature, so a run reports each distinct bug once, as its
    smallest known trigger.

    Determinism: the whole run is a pure function of (harness, seed,
    budget).  Candidate batches are drawn sequentially from
    per-candidate splitmix64 streams, trial seeds derive from
    {!Campaign.trial_seed_of_key} over the input's canonical text, and
    coverage/finding folds follow canonical batch order — so any
    {!Executor.t} width produces byte-identical findings. *)

open Pfi_engine

(** {1 Inputs} *)

type input = {
  in_side : Campaign.side;
  in_faults : Generator.fault list;
      (** non-empty; all installed on [in_side], their generated filter
          scripts concatenated exactly as a scenario's [+]-sequence *)
  in_clear : Vtime.t option;
      (** fault window: when set, both filters are cleared at this
          virtual time (via the trial's arming hook), so the fuzzer can
          search transient-outage shapes *)
}

val canonical : input -> string
(** Canonical one-line text of the input ([side|fault+fault|@clear_us]);
    input identity for dedupe and for {!input_key}. *)

val input_key : input -> int64
(** {!Pfi_engine.Rng.fnv1a64} of {!canonical} — what trial seeds derive
    from. *)

val max_faults : int
(** Splicing cap on [in_faults] (3). *)

val seed_corpus : spec:Spec.t -> input list
(** The initial corpus: one mild send-side [Drop_fraction] per message
    type plus a mild [Omission_all] — deliberately bland, so coverage
    search (not seed curation) finds the bugs. *)

val mutate :
  Rng.t -> spec:Spec.t -> target:string -> horizon:Vtime.t ->
  corpus:input array -> input -> input
(** One mutation step: parameter nudge (×2/÷2 with clamps), side cycle,
    kind replacement from the spec's fault templates, splice of a fault
    from a random corpus donor (capped at {!max_faults}), fault drop,
    or clear-window jitter. *)

(** {1 Executions} *)

val trial : fuzz_seed:int64 -> input -> Campaign.trial
(** The campaign trial an input runs as: its faults' filters
    concatenated on its side, a filter-clearing arming hook at its
    window end, and the seed {!Campaign.trial_seed_of_key} derives from
    {!input_key}. *)

val execute :
  Harness_intf.packed -> Campaign.trial -> Campaign.verdict * Coverage.features
(** One fuzz execution, as a batch runs it on an executor worker: the
    trial through {!Campaign.exec}, at the harness's default horizon,
    on this domain's arena (a counting trace), with the harness's state
    feed ({!Harness_intf.attach_states}) attached before [build].  Its
    features are read off the trace's pair counts and that feed as soon
    as the run returns.  They equal {!Coverage.features_of_trace} of
    the same trial captured, with [~states] from
    {!Harness_intf.state_of_trace}. *)

(** {1 Failure signatures} *)

val signature_of :
  side:Campaign.side -> faults:Generator.fault list -> reason:string -> string
(** Normalized failure identity: filter side, each fault's kind and
    message type ({e parameters stripped}, slugs sorted so two mutation
    orders reaching the same fault set match), and the violation reason
    with every digit run collapsed to [N] — so "lost msg-07" and "lost
    msg-12" from neighbouring parameter values dedupe to one bug. *)

(** {1 Findings} *)

type finding = {
  fd_signature : string;
  fd_input : input;
      (** the violating input after set reduction: windowless and with
          every droppable fault removed *)
  fd_exec : int;  (** fuzz executions spent when it was discovered *)
  fd_fault : Generator.fault;
      (** minimized single fault; the reduced input's first fault when
          only a fault {e combination} reproduces the violation *)
  fd_side : Campaign.side;
  fd_horizon : Vtime.t;
  fd_seed : int64;  (** per-trial seed of the minimized repro *)
  fd_reason : string;
  fd_minimized : bool;
      (** true when [fd_fault]/[fd_side]/[fd_horizon]/[fd_seed] are a
          self-contained single-fault repro (shrunk, windowless) *)
  fd_shrink_trials : int;
  fd_injected_events : int;
}

val finding_json : harness:string -> finding -> Json.t
(** One findings-stream JSONL object (no trace, no wall-clock data —
    byte-stable across runs and executor widths). *)

val repro_of_finding :
  harness:string -> protocol:string -> target:string ->
  campaign_seed:int64 -> finding -> Repro.t option
(** A replayable {!Repro} artifact for a minimized finding ([None] when
    [fd_minimized] is false: multi-fault windowed inputs are carried in
    the findings stream only). *)

val finding_trial : finding -> Campaign.trial
(** The trial a finding reports, run to [fd_horizon]: its minimized
    single fault, or else its reduced input, window included, with
    [fd_seed].  Findings keep no trace: [pfi_run fuzz --trace-out]
    re-runs this trial with a storing trace to export one. *)

(** {1 Running} *)

type result = {
  r_harness : string;
  r_seed : int64;
  r_budget : int;
  r_execs : int;  (** fuzz-loop executions actually spent *)
  r_shrink_execs : int;  (** extra trials spent reducing violations *)
  r_features : int;  (** corpus-wide coverage bits at the end *)
  r_corpus : input list;  (** coverage-increasing inputs, discovery order *)
  r_findings : finding list;  (** deduplicated, discovery order *)
}

val default_budget : int
(** 200 executions. *)

val run :
  ?executor:Executor.t ->
  ?seed:int64 ->
  ?budget:int ->
  Harness_intf.packed ->
  result
(** Runs the fuzzing loop until [budget] (default {!default_budget})
    executions are spent or mutation stops producing unseen inputs.
    [seed] defaults to {!Campaign.default_seed}.  Each generation hands
    the executor a fixed batch of 16 candidates — part of input
    identity derivation, not of scheduling, so changing [executor]
    never changes the result — and each finding's {!Shrink.minimize}
    descent is capped at 150 re-runs.

    No trial keeps a trace.  A batch trial records into its worker's
    arena counting trace with the harness's state feed
    ({!Harness_intf.attach_states}) attached before [build] (see
    {!execute}), and
    the worker reads its {!Coverage} features off that trace as soon
    as the run returns; reductions run on the calling domain, also on
    its arena. *)
