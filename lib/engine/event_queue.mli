(** Priority queue of scheduled events.

    A binary min-heap ordered by (time, insertion sequence); two events at
    the same virtual time fire in the order they were scheduled, which keeps
    runs deterministic.  Cancellation is O(1) by marking; dead entries are
    dropped lazily when they reach the top, and the heap is compacted
    (amortised O(1) per cancel) when cancelled entries outnumber live
    ones, so cancel-heavy workloads stay bounded. *)

type 'a t

type handle
(** Identifies a scheduled event, for cancellation. *)

val create : unit -> 'a t

val null_handle : handle
(** A handle that is never pending: cancelling it is a no-op.  A
    placeholder for holders of an optional handle that should not box
    it in an option. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Live (non-cancelled) entries. *)

val physical_size : 'a t -> int
(** Stored entries, including cancelled ones not yet reclaimed — for
    tests and diagnostics.  Bounded by roughly twice {!size} (plus a
    small constant): the heap is compacted whenever more than half of
    its entries are cancelled. *)

val push : 'a t -> time:Vtime.t -> 'a -> handle

val push_batch : 'a t -> (Vtime.t * 'a) list -> handle list
(** Pushes every (time, value) pair, growing the backing array at most
    once; when the batch dominates the heap the order is restored with
    a single bottom-up heapify (O(n)) instead of per-entry sift-ups.
    Observably equivalent to [List.map (fun (time, v) -> push t ~time v)]
    — handles come back in batch order, and pop order is fixed by the
    total (time, insertion sequence) order either way. *)

val cancel : 'a t -> handle -> unit
(** Cancelling twice, or cancelling an already-popped event, is a no-op. *)

val peek_time : 'a t -> Vtime.t option
(** Time of the earliest live event. *)

val pop : 'a t -> (Vtime.t * 'a) option
(** Removes and returns the earliest live event. *)

val pop_until : 'a t -> until:Vtime.t -> (Vtime.t * 'a) option
(** [pop_until t ~until] removes and returns the earliest live event at
    time [<= until]; [None] — removing nothing — when the queue is empty
    or the earliest live event lies beyond [until].  Fuses {!peek_time}
    with {!pop} so the simulator loop inspects the heap top once per
    fired event instead of twice. *)

val pop_until_k : 'a t -> until:Vtime.t -> (Vtime.t -> 'a -> unit) -> bool
(** Callback form of {!pop_until}: applies the continuation to the
    popped (time, value) and returns [true], or returns [false] without
    removing anything.  Semantically identical, but avoids allocating
    the option/tuple per fired event — the simulator's driving loop
    uses this. *)

val clear : 'a t -> unit
(** Forget every entry while keeping the heap's backing storage, so a
    reused queue pushes without re-growing.  Handles retained across a
    clear become inert (as if cancelled), and the insertion sequence
    restarts at zero: a cleared queue orders subsequent pushes exactly
    like a fresh {!create}.  No slot keeps a value pushed before the
    clear reachable, popped ones included. *)
