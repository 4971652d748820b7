(** Temporal conformance oracles over experiment traces.

    The paper's experiments are really conformance checks: inject a
    fault, then judge the target's reaction (retransmission schedule,
    membership transition) against the spec.  An {!t} states one such
    expectation as data — a temporal predicate over {!Pfi_engine.Trace.t}
    entries — and its {!verdict} is a structured pass/fail record citing
    the witnessing (or violating) entry by recording index, so a failing
    conformance test points at the exact trace line that broke it.

    There is one evaluator: an oracle compiles to a {!monitor}, which
    is fed one entry at a time and keeps O(1) state.  A monitor
    {!attach}ed to a trace before its first entry decides the oracle
    while the run records, so the trace need not store the entries
    (see {!Pfi_engine.Trace.create_counting}); {!eval} and {!check} feed
    a stored trace's entries to the same monitor, for tests and [perf/].

    Oracles are plain constructors, so scenario files ({!Scenario}),
    campaign harnesses and ad-hoc tests can all state expectations in
    the same vocabulary. *)

open Pfi_engine

(** {1 Entry patterns} *)

type pattern
(** A conjunctive match over one trace entry: node equality, tag
    equality, detail substring, and required [fields] key/values.  An
    unconstrained pattern matches every entry. *)

val pattern :
  ?node:string ->
  ?tag:string ->
  ?detail:string ->
  ?fields:(string * string) list ->
  unit ->
  pattern
(** [detail] matches as a substring of the entry's detail string;
    [fields] must each be present with the exact value.

    Any value containing ['*'] is instead treated as a glob over the
    whole entry value — each ['*'] matches any (possibly empty) run of
    characters — so [~tag:"abp.*"] matches every abp event and
    [~detail:"msg-*-final"]-style anchored shapes are expressible.
    A wildcarded [detail] globs the {e full} detail string (wrap it in
    ['*']s to keep substring behaviour). *)

val pattern_describe : pattern -> string
(** E.g. ["node=bob tag=abp.deliver detail~msg-00"]; ["*"] when
    unconstrained. *)

val contains_sub : string -> string -> bool
(** [contains_sub s sub]: [sub] occurs in [s] (the empty string occurs
    everywhere). *)

(** {1 Oracles} *)

type comparison = Lt | Le | Eq | Ne | Ge | Gt

val comparison_name : comparison -> string
(** ["<"], ["<="], ["=="], ["!="], [">="], [">"]. *)

val comparison_of_name : string -> comparison option

type t =
  | Eventually of pattern  (** at least one entry matches *)
  | Never of pattern  (** no entry matches *)
  | Within of pattern * Vtime.t * Vtime.t
      (** [Within (p, a, b)]: some match has [a <= time <= b] *)
  | Ordered of pattern list
      (** matches occur in order, at strictly increasing indexes *)
  | Count of pattern * comparison * int
      (** the number of matches satisfies the bound *)

val describe : t -> string

(** {1 Evaluation} *)

type verdict = {
  oracle : string;  (** {!describe} of the evaluated oracle *)
  pass : bool;
  reason : string;
      (** pointed diagnostic: which entry satisfied or violated the
          oracle, or why no entry could *)
  witness : int option;
      (** recording index of the deciding entry (its position in
          {!Pfi_engine.Trace.entries}); the
          satisfying match on pass, the violating or nearest-miss entry
          on failure when one exists *)
}

(** {2 Monitors} *)

type monitor
(** An oracle compiled for online evaluation.  Whether each pattern
    value is exact, substring or glob is decided at compile time.  Each
    monitor keeps O(1) state: [Eventually] its first match, [Never] its
    first match and a count, [Within] its first in-window match, its
    first match and a count, [Ordered] its current step and last
    witness, [Count] a count and its last match.  A monitor declares the
    tags it can match — the exact tags when each of its patterns pins
    one, every tag otherwise — and is fed only entries with those tags.
    A detail pattern forces the detail of an entry whose node and tag
    already match, when the entry is fed. *)

val monitor : t -> monitor
(** A fresh monitor that has seen no entry. *)

val attach : monitor -> Trace.t -> unit
(** Feeds the monitor every entry recorded into the trace from now on
    whose tag it declares ({!Trace.attach}).  Attach before the trace's
    first entry for the monitor to judge the whole trace. *)

val verdict : monitor -> Trace.t -> verdict
(** The verdict on the entries fed so far, for a monitor attached to
    [trace] before its first entry.  Equal to {!eval} of the oracle over
    the same entries stored: same [oracle], [pass], [reason] and
    [witness].  Reads only {!Trace.length} of [trace], so it works on a
    counting trace. *)

val check_monitors : monitor list -> Trace.t -> (unit, string) result
(** {!check} for monitors attached to [trace]: [Error] names the first
    failing monitor's oracle and reason.  Only that verdict's strings
    are built. *)

(** {2 Stored traces} *)

val eval : t -> Trace.t -> verdict
(** Feeds the stored entries of the trace to a fresh {!monitor}.
    Raises [Invalid_argument] on a counting trace, unless the oracle
    names no pattern. *)

val check : t list -> Trace.t -> (unit, string) result
(** [Error reason] for the first failing oracle, evaluated as {!eval}
    does; [Ok ()] for [[]] on any trace, counting ones included. *)
