(** Coverage signal for fault fuzzing, extracted from recorded traces.

    A fuzzer needs to know whether a mutated fault script made the
    system do {e something new}.  For protocol implementations the
    paper's traces already carry that signal: which (node, tag) event
    classes fired and how often, which protocol-state transitions the
    harness extractor saw ({!Harness_intf.HARNESS.state_of_trace}).
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
(** Reusable working tables for {!features_of_trace}: the extraction
    needs a hit-count table and a seen-label set per call, and a fuzz
    run extracts features from thousands of traces on one domain, so
    passing one scratch keeps the (grown) tables instead of
    re-allocating them.  Cleared on entry; the result is identical
    with or without one.  Not shareable between domains. *)

val scratch : unit -> scratch

val features_of_trace :
  ?scratch:scratch ->
  ?states:string list -> Trace.t -> features
(** Extracts:
    - one feature per distinct (node, tag) pair;
    - one per (node, tag, log₂-bucketed hit count) — so an input that
      makes a known event class fire 10× more often still counts as
      new behaviour;
    - from [states] (the harness state extractor's labels): one per
      distinct label and one per consecutive label pair (the
      protocol-state {e transitions}).

    The trace must be a storing one. *)

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
