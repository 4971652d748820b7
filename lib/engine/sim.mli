(** The discrete-event simulator.

    A simulation is a virtual clock plus a queue of pending callbacks.
    [run] repeatedly advances the clock to the earliest pending event and
    fires it; two events at the same instant fire in scheduling order, so a
    run is a pure function of its seed and initial schedule. *)

type t

type handle [@@immediate]
(** A scheduled callback, for cancellation. *)

type scratch
(** Backing storage for a simulation: an event heap and a trace.  A
    trial arena keeps one counting scratch per worker domain and
    threads it through every {!create}, so back-to-back trials rebuild
    their sims without re-growing either structure.  Not thread-safe: a
    scratch belongs to one domain at a time. *)

val scratch : ?stores:bool -> unit -> scratch
(** An empty scratch: its trace stores entries when [stores], and only
    counts them ({!Trace.create_counting}) by default. *)

val scratch_trace : scratch -> Trace.t
(** The trace a sim over the scratch will record into: feeds attached
    before {!create} see every entry, from the first. *)

val clear_scratch : scratch -> unit
(** Empties the queue and trace in place, keeping their capacity and
    detaching the trace's feeds ({!Event_queue.clear}, {!Trace.clear}),
    so the scratch is observationally fresh.  The previous owner of the
    scratch must be dead. *)

val create : ?scratch:scratch -> ?seed:int64 -> unit -> t
(** [seed] defaults to [1L]; [scratch] to a fresh storing one, which
    the sim adopts as it is.  Whatever builds a trial's sim — a
    harness's [build], a paper testbed's [make] — takes [?scratch] and
    forwards it here.  Over a fresh or cleared scratch the events,
    clock and RNG are identical to a sim built without one; a counting
    trace answers {!Trace.length}, {!Trace.count} and attached feeds,
    and reads back no entry. *)

val now : t -> Vtime.t

val rng : t -> Rng.t
(** The root generator.  Components should {!Rng.split} their own stream
    from it at setup time so their draws do not interleave. *)

val trace : t -> Trace.t
(** The shared experiment trace. *)

val record :
  ?fields:(string * string) list ->
  t -> node:string -> tag:string -> string -> unit
(** Appends to {!trace} stamped with the current virtual time.
    [fields] attaches structured key/values alongside the detail
    string (see {!Trace.record}). *)

val record_with :
  ?fields:(string * string) list ->
  t -> node:string -> tag:string -> ('a -> string) -> 'a -> unit
(** {!record} with the detail [render x], rendered only when read and
    built only when an entry is — see {!Trace.record_with} for when to
    use it and what [render] and [x] may be. *)

val set_want_labels : t -> bool -> unit
(** Tells protocol layers whether any attached renderer consumes
    per-message ["msc.label"] decorations.  Off by default; flipped on
    by [Network.set_msc_enabled].  Layers consult {!want_labels} before
    formatting a human-facing label on every send, so simulations with
    no renderer attached (campaign trials) skip that cost entirely. *)

val want_labels : t -> bool

(** {1 Scheduling} *)

val schedule : t -> delay:Vtime.t -> (unit -> unit) -> handle
(** Fire the callback [delay] after the current time.  Negative delays are
    clamped to zero. *)

val schedule_at : t -> time:Vtime.t -> (unit -> unit) -> handle
(** Fire at an absolute time; times in the past are clamped to now. *)

val cancel : t -> handle -> unit

val null_handle : handle
(** A handle that is never pending ({!Event_queue.null_handle}). *)

val events : t -> int
(** Callbacks fired over the simulation's lifetime (monotonic across
    {!run} calls).  The numerator of the engine benchmark's events/sec
    figure. *)

(** {1 Running} *)

val run : ?until:Vtime.t -> t -> unit
(** Runs until the queue is empty or the clock would pass [until].
    Events scheduled exactly at [until] still fire.  A run that fires
    10,000,000 callbacks fails (a runaway backstop). *)

exception Stop

val stop : t -> unit
(** Makes the innermost [run] return after the current callback. *)
