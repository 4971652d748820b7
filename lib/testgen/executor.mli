(** Pluggable trial execution strategies for campaigns.

    A campaign is a list of independent trial descriptors plus a pure
    trial-runner closure: every trial builds its own fresh simulated
    system from its own derived seed ({!Campaign.trial_seed}), so
    trials share no state and their verdicts cannot depend on execution
    order.  An executor decides only {e how} that list is mapped — by
    how many OCaml 5 domains, the calling one included — and always
    yields results in input order, so campaign summaries and trace
    exports are byte-identical for any worker count.  Both stock
    executors are one pool ({!domains}); the sequential one is that
    pool at width 1.

    The type is a first-class record of a polymorphic mapping function,
    not a closed variant: callers can plug in their own strategy
    (remote workers, rate-limited runners, ...) without touching
    {!Campaign}. *)

exception Uninitialized
(** Sentinel occupying result slots before a worker writes them; never
    escapes unless the cursor invariant is broken. *)

type worker_stat = {
  ws_claims : int;  (** cursor claims that yielded at least one item *)
  ws_items : int;  (** items this worker executed *)
  ws_busy_s : float;  (** wall seconds spent inside the runner *)
}
(** One worker's share of the work.  Worker 0 is always the calling
    domain; workers 1.. are spawned domains.  [ws_busy_s / elapsed] is
    the worker's busy fraction — the utilization number [--stats]
    prints. *)

type stats = {
  st_exec : string;  (** the executor's [name] *)
  st_maps : int;  (** [try_map] calls accumulated (empty maps excluded) *)
  st_items : int;
  st_spawned : int;  (** domains spawned, total across maps *)
  st_elapsed_s : float;  (** wall time inside [try_map], summed *)
  st_workers : worker_stat list;
      (** per-worker totals, calling domain first; length is the widest
          worker count any accumulated map used *)
}
(** Lifetime scheduling counters of one executor, accumulated across
    every [try_map] it ran.  Purely observational: results never depend
    on them.  Accounting is unsynchronized — don't share one executor
    between domains (trial runners never nest executors). *)

type t = {
  exec_name : string;  (** e.g. ["sequential"], ["domains(4)"] *)
  width : int;
      (** degree of parallelism; batch-oriented consumers (e.g.
          {!Shrink.minimize}) dispatch work in groups of [width] *)
  try_map : 'a 'b. (('a -> 'b) -> 'a list -> ('b, exn) result list);
      (** Maps the runner over the items, returning per-item results in
          input order.  An item whose runner raises yields [Error exn]
          in its slot; every other item is still executed — no trial is
          lost to a sibling's exception. *)
  stats_cell : stats ref;
      (** where [try_map] accumulates its {!stats} *)
}

val stats : t -> stats
(** The executor's accumulated lifetime counters. *)

val domains : ?jobs:int -> unit -> t
(** A pool of [jobs] workers (the calling domain plus [jobs - 1]
    spawned domains) pulling trial indexes from a shared atomic cursor
    with {e guided self-scheduling}: each claim takes
    [max 1 (remaining / (2 * jobs))] consecutive indexes, so early
    claims are large (amortizing the atomic operation over many
    trials) and claims shrink toward 1 near the tail (no worker is
    left holding a big chunk while the others idle).  Results land in
    a per-index slot, so completion order — which is
    scheduling-dependent — never reorders outcomes.  [jobs] defaults
    to {!default_jobs} and is clamped to at least 1.

    Each [try_map] call additionally clamps its worker count to the
    item count, so an executor requested wider than the input never
    spawns idle domains, and an empty input spawns no domains at all;
    [exec_name] and [width] keep reporting the requested value, which
    is what the next (possibly larger) map may use.

    Safe because each trial builds its own fresh [Sim]/stack from its
    descriptor seed: workers share only the read-only runner closure,
    the input array and the atomic cursor.  Runners must not write
    process-global state. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    useful parallelism on this machine. *)

val of_jobs : int -> t
(** The conventional CLI mapping for [--jobs N]: [1] (or less) is a
    fresh executor named ["sequential"] — the {!domains} pool at width
    1, whose calling domain claims every index in order and spawns
    none — and anything larger is [domains ~jobs:N ()].  Always a fresh
    executor, so its {!stats} cover exactly the maps the caller runs
    through it; no executor is shared process-wide.  [of_jobs 1] is the
    default of every [?executor] argument. *)

val name : t -> string

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [try_map] with errors re-raised: runs {e every} item to completion,
    then re-raises the first (lowest-index) exception, if any. *)
