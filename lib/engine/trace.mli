(** Experiment trace recorder.

    Every experiment in the paper reduces to "the receive filter script
    logged each packet with a timestamp".  [Trace.t] is that log: a flat,
    append-only sequence of timestamped entries, numbered by recording
    index.

    A trace comes in one of two kinds.
    - A {e storing} trace ({!create}) keeps every entry.  The queries
      that read entries back ({!entries}, {!find}, {!iteri} and the
      JSONL export) scan the whole log: only cold, post-hoc readers
      issue them.
    - A {e counting} trace ({!create_counting}) stores no entry.  Every
      query that reads entries back raises [Invalid_argument] on it.
      Campaign trials whose trace does not escape record into one: what
      they need from the trace is decided while it is recorded, by
      {!attach}ed feeds.

    Both kinds keep the recording index ({!length}) and a count per
    [(node, tag)] pair ({!count}).

    Alongside the rendered [detail] string an entry may carry structured
    key/value [fields], which the JSONL exporter preserves so campaign
    artifacts can be compared mechanically. *)

type entry = {
  time : Vtime.t;
  node : string;  (** which participant recorded the entry *)
  tag : string;   (** category, e.g. ["tcp.retransmit"] or ["gmp.commit"] *)
  detail : string Lazy.t;
      (** rendered description; possibly deferred — read it with
          {!detail}.  Hot protocol paths record via {!record_lazy} so
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
    {!entries}, {!find}, {!iteri} and the JSONL export raise
    [Invalid_argument]. *)

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

val record_lazy :
  ?fields:(string * string) list ->
  t -> time:Vtime.t -> node:string -> tag:string -> string Lazy.t -> unit
(** Like {!record}, but the detail string is only rendered when first
    read.  For per-message recording on protocol hot paths, where a
    campaign trial records thousands of entries whose details nothing
    ever inspects.  The thunk must be pure and must capture only
    immutable data: it may be forced long after the simulation step
    that recorded it (or never). *)

val clear : t -> unit
(** Empties the trace and detaches its feeds while keeping its grown
    capacity (the entry store and the per-pair records), so a reused
    trace records without reallocating.  A cleared trace is
    observationally identical to a fresh one of its kind — same query
    results, same {!to_jsonl} bytes for the same subsequent records —
    which is what lets trial arenas recycle one trace across trials. *)

val length : t -> int
(** Entries recorded so far: the next entry's recording index.
    Answered by both kinds. *)

val count : ?node:string -> tag:string -> t -> int
(** Entries recorded with [tag] (and [node]): a sum of per-pair counts.
    Answered by both kinds. *)

val entries : t -> entry list
(** In recording order. *)

val find : ?node:string -> ?tag:string -> t -> entry list
(** Entries matching all the given criteria, in recording order. *)

val iteri : (int -> entry -> unit) -> t -> unit
(** Every entry in recording order, with its recording index — what
    oracle verdicts cite as witnesses. *)

(** {1 JSONL export}

    One JSON object per entry, one per line:
    [{"t_us":<int>, "node":"...", "tag":"...", "detail":"...",
      "fields":{"k":"v", ...}}]
    ["fields"] is omitted when the entry has none.  [extra] key/value
    pairs (e.g. a run or artifact id) are spliced into every object,
    right after ["t_us"].  Escaping is self-contained — no JSON library
    is involved. *)

val add_json_string : Buffer.t -> string -> unit
(** Appends a quoted, escaped JSON string literal to [buf] — the same
    escaper the exporter uses, shared so other JSON emitters in the
    repo agree on escaping. *)

val entry_to_json : ?extra:(string * string) list -> entry -> string

val to_jsonl : ?extra:(string * string) list -> t -> string
(** Every entry, each line terminated by ['\n']. *)

val output_jsonl :
  ?extra:(string * string) list -> ?tag:string -> out_channel -> t -> unit
(** {!to_jsonl} of the entries with [tag] (default: every entry),
    written to the channel. *)
