(** Coverage signal for fault fuzzing, read off a trial's trace.

    A fuzzer needs to know whether a mutated fault script made the
    system do {e something new}.  For protocol implementations the
    paper's traces already carry that signal: which (node, tag) event
    classes fired and how often — the per-pair counts every trace
    keeps, counting ones included ({!Trace.fold_pairs}) — and which
    protocol-state transitions the harness's labeler saw
    ({!Harness_intf.HARNESS.state_label}, fed live or replayed).
    This module hashes those observations into a compact feature set
    (AFL-style: 2{^16} buckets, hit counts folded into log₂ classes)
    and accumulates them in a persistent corpus-wide bitmap, so "did
    this input reach new coverage?" is one {!merge} call.

    Everything here is deterministic: the same trace yields the same
    features (FNV-1a hashing, no randomization), so fuzzing campaigns
    replay bit-identically from their seed. *)

open Pfi_engine

(** {1 Feature extraction} *)

type features
(** The deduplicated feature-bucket set of one trace. *)

type scratch
(** A reusable seen-label set for {!features_of_trace}, so extracting
    features from many traces on one domain keeps its (grown) table
    instead of re-allocating it.  Cleared on entry; the result is
    identical with or without one.  Not shareable between domains. *)

val scratch : unit -> scratch

val features_of_trace :
  ?scratch:scratch ->
  ?states:string list -> Trace.t -> features
(** Extracts:
    - one feature per distinct (node, tag) pair;
    - one per (node, tag, log₂-bucketed hit count) — so an input that
      makes a known event class fire 10× more often still counts as
      new behaviour;
    - from [states] (the harness's state trajectory): one per
      distinct label and one per consecutive label pair (the
      protocol-state {e transitions}).

    The first two come from the trace's per-pair counts, so a counting
    trace serves as well as a storing one: no entry is read. *)

val cardinality : features -> int
(** Distinct buckets in the set. *)

val feature_list : features -> int list
(** The bucket indexes, sorted ascending — for tests. *)

(** {1 The corpus bitmap} *)

type t
(** Corpus-wide accumulated coverage: one bit per feature bucket. *)

val create : unit -> t

val merge : t -> features -> int
(** Folds the features in; returns how many were new (0 = the input
    reached nothing the corpus hadn't already). *)

val count : t -> int
(** Total bits set — the fuzzer's "coverage features" metric. *)
