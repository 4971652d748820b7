(** The discrete-event simulator.

    A simulation is a virtual clock plus a queue of pending callbacks.
    [run] repeatedly advances the clock to the earliest pending event and
    fires it; two events at the same instant fire in scheduling order, so a
    run is a pure function of its seed and initial schedule. *)

type t

type handle [@@immediate]
(** A scheduled callback, for cancellation. *)

type scratch
(** Reusable backing storage for a simulation: an event heap and a
    counting trace ({!Trace.create_counting}) whose grown capacity (and
    per-pair records) survive across simulations.  A trial arena allocates
    one per worker domain and threads it through every {!create}, so
    back-to-back trials rebuild their sims without re-growing either
    structure.  Not thread-safe: a scratch belongs to one domain at a
    time. *)

val scratch : unit -> scratch

val create : ?scratch:scratch -> ?seed:int64 -> unit -> t
(** [seed] defaults to [1L].

    [scratch] donates recycled backing storage: the scratch's queue and
    trace are cleared and adopted by the new simulation.  Its events,
    clock and RNG are then identical to one built without [scratch]
    (cleared structures behave exactly like fresh ones, see
    {!Event_queue.clear} and {!Trace.clear}), but it records into a
    counting trace: {!Trace.length}, {!Trace.count} and attached feeds
    answer as before, and no entry can be read back.  The previous
    owner of the scratch must be dead (its queue handles become inert
    and its trace empties). *)

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

val record_lazy :
  ?fields:(string * string) list ->
  t -> node:string -> tag:string -> string Lazy.t -> unit
(** {!record} with a deferred detail string — see {!Trace.record_lazy}
    for when to use it and what the thunk may capture. *)

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
