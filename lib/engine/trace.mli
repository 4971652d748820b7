(** Experiment trace recorder.

    Every experiment in the paper reduces to "the receive filter script
    logged each packet with a timestamp".  [Trace.t] is that log: a flat,
    append-only sequence of timestamped entries, numbered by recording
    index.

    A trace comes in one of two kinds.
    - A {e storing} trace ({!create}) keeps every entry for {!entries},
      the store's one reader: a whole log, read after its run by the
      JSONL export ([Pfi_testgen.Json.output_trace]) and the MSC
      renderer.
    - A {e counting} trace ({!create_counting}) stores no entry, and
      {!entries} raises [Invalid_argument] on it.  Every trial whose
      trace is not exported records into one: what it needs from the
      trace is decided while it is recorded, by {!attach}ed feeds.

    Both kinds keep the recording index ({!length}) and a count per
    [(node, tag)] pair ({!count}).

    Alongside the rendered [detail] string an entry may carry structured
    key/value [fields], which the JSONL export preserves so campaign
    artifacts can be compared mechanically.  This library knows no
    JSON. *)

type entry = {
  time : Vtime.t;
  node : string;  (** which participant recorded the entry *)
  tag : string;   (** category, e.g. ["tcp.retransmit"] or ["gmp.commit"] *)
  detail : string Lazy.t;
      (** rendered description; possibly deferred — read it with
          {!detail}.  Hot protocol paths record via {!record_with} so
          the formatting cost is only paid if something actually reads
          the string (JSONL export, oracle detail matching, pretty
          printing). *)
  fields : (string * string) list;
      (** optional structured payload; empty for plain entries *)
}

val detail : entry -> string
(** Forces and returns the entry's detail string. *)

type t

val create : unit -> t
(** An empty storing trace. *)

val create_counting : unit -> t
(** An empty counting trace: it numbers and counts entries and feeds
    them to {!attach}ed feeds, but stores none.  {!length} and {!count}
    answer as on a storing trace that recorded the same entries;
    {!entries} raises [Invalid_argument]. *)

val attach : t -> tags:string list option -> (int -> entry -> unit) -> unit
(** [attach t ~tags feed] calls [feed i e] for each entry [e] recorded
    into [t] from now on whose tag is in [tags] ([None]: every tag),
    with its recording index [i], in recording order, right after the
    entry is recorded.  Feeds run in attach order.  A counting trace
    builds an entry record only when some feed wants its tag, and never
    forces its detail itself.  {!clear} detaches every feed. *)

val record :
  ?fields:(string * string) list ->
  t -> time:Vtime.t -> node:string -> tag:string -> string -> unit
(** Appends an entry.  [fields] defaults to none. *)

val record_with :
  ?fields:(string * string) list ->
  t -> time:Vtime.t -> node:string -> tag:string -> ('a -> string) -> 'a -> unit
(** [record_with t ~time ~node ~tag render x] is {!record} with the
    detail [render x], rendered only when first read.  The deferred
    detail is built only with the entry, when [t] stores entries or a
    feed wants [tag]; otherwise the call counts the entry and allocates
    nothing.  For per-message recording on protocol hot paths, where a
    campaign trial records thousands of entries whose details nothing
    ever inspects.  [render] must be pure and [x] immutable: the detail
    may be rendered long after the simulation step that recorded it (or
    never). *)

val clear : t -> unit
(** Empties the trace and detaches its feeds while keeping its grown
    capacity (the entry store and the per-pair records), so a reused
    trace records without reallocating.  A cleared trace is
    observationally identical to a fresh one of its kind — same query
    results, same {!entries} for the same subsequent records —
    which is what lets trial arenas recycle one trace across trials. *)

val length : t -> int
(** Entries recorded so far: the next entry's recording index.
    Answered by both kinds. *)

val count : ?node:string -> tag:string -> t -> int
(** Entries recorded with [tag] (and [node]): a sum of per-pair counts.
    Answered by both kinds. *)

val fold_pairs : (node:string -> tag:string -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every [(node, tag)] pair recorded since the last
    {!clear}, with its count, in no specified order.  Answered by both
    kinds. *)

val entries : t -> entry list
(** Every entry, in recording order: an entry's position is its
    recording index, what oracle verdicts cite as witnesses. *)
