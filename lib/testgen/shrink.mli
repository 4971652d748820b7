(** Counterexample shrinking for campaign violations.

    Given a violating trial (a fault and a filter side), the minimizer
    walks the fault's parameter lattice downward — re-running a fresh
    deterministic trial for every candidate — and keeps the smallest
    state that still trips the oracle.  "Smaller" is the documented
    {!size} metric:

    {v size(state) = fault_cost + side_cost v}

    where probabilities and delays count in rounded permille, counters
    count linearly, [Byzantine_mix] pays a compound premium (10 + 2p‰)
    so decomposing it into a constituent single fault is always a
    strict shrink, and [Both_filters] costs 2 against 1 for a single
    side.  Every candidate strictly reduces exactly one component, so
    each accepted step strictly decreases the total and minimization
    terminates.

    Every trial runs to its source's horizon: the harness checks judge
    the end state a full-length workload reaches, so a shorter run
    fails on correct code too and would shrink into a repro that names
    no defect.

    The lattice, per the fault classes of {!Generator.fault}:
    - [Drop_after n] / [Drop_first n]: [n/2] and [n - 1]
    - [Drop_fraction p] / [Corrupt p] / [Omission_all p]: halve [p]
      (rounded to the 4 decimals the script prints, floored at 0.01)
    - [Delay_each s]: halve [s] (3 decimals, floored at 1 ms)
    - [Byzantine_mix p]: its constituents — [Omission_all p] (the drop
      half) and [Duplicate t] per spec message type (the duplication
      half) — then [Byzantine_mix (p/2)]
    - [Both_filters]: each single side
    - [Drop_all] / [Duplicate] / [Reorder] / [Inject_spurious]: atomic. *)

type state = {
  fault : Generator.fault;
  side : Campaign.side;
}

val size : state -> int
(** The documented shrink-size metric (see the module preamble). *)

val candidates : spec:Spec.t -> state -> state list
(** All one-step reductions of [state], each strictly smaller by
    {!size}, sorted smallest-first so greedy acceptance takes the
    biggest step available. *)

val trial : campaign_seed:int64 -> state -> Campaign.trial
(** The stock single-fault trial a state runs as: its fault's generated
    filter on its side, seeded by {!Campaign.trial_seed}.  [pfi_run
    shrink] and the fuzzer's reduction both run their states through
    it. *)

type step = {
  state : state;
  step_size : int;
  reason : string;  (** the violation that kept this state *)
}

type report = {
  minimized : state;
  outcome : Campaign.outcome;
      (** the run that accepted [minimized] (the first run if no step
          was accepted): its seed, violation and injected events are
          the minimized trial's *)
  initial_size : int;
  steps : step list;  (** accepted states, in order *)
  trials : int;  (** runs made, accepted or not, the first included *)
}

val minimize :
  ?max_trials:int -> spec:Spec.t -> run:(state -> Campaign.outcome) -> state ->
  (report, string) Stdlib.result
(** Greedy descent: runs the candidates one at a time (via [run], which
    must be a deterministic trial runner, e.g. {!Campaign.run_trial} of
    {!trial} at a fixed horizon) and repeatedly accepts the first —
    smallest — candidate that still violates, until none does or
    [max_trials] (default 1000) runs have been made.  [Error] if the
    starting state does not violate the oracle.

    The scan is sequential on purpose: a round often has one candidate
    (a one-sided [Delay_each] halves its delay, and nothing else), so
    running a round's candidates in parallel did not make the stock
    repros shrink faster on a 2-core host. *)
