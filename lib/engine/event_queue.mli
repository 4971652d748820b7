(** Priority queue of scheduled events.

    A binary min-heap ordered by (time, insertion sequence); two events at
    the same virtual time fire in the order they were scheduled, which keeps
    runs deterministic.  The heap is indexed: its keys sit in flat [int]
    arrays in heap order, and each entry's value lives in a slot that
    remembers the entry's heap position, so {!cancel} removes an entry at
    once in O(log n) and storage stays bounded by the live entries.  Once
    the arrays have grown, pushing, popping and cancelling allocate
    nothing. *)

type 'a t

type handle [@@immediate]
(** Identifies a scheduled event, for cancellation: the entry's slot
    tagged with the slot's generation, which advances whenever the slot
    is freed, so a handle outliving its entry stays inert even after the
    slot is reused. *)

val create : unit -> 'a t

val null_handle : handle
(** A handle that is never pending: cancelling it is a no-op.  A
    placeholder for holders of an optional handle that should not box
    it in an option. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Pending entries. *)

val push : 'a t -> time:Vtime.t -> 'a -> handle

val cancel : 'a t -> handle -> unit
(** Removes the entry at once.  A no-op for a handle whose entry has
    already fired, been cancelled or been forgotten by {!clear}. *)

val peek_time : 'a t -> Vtime.t option
(** Time of the earliest pending event. *)

val pop : 'a t -> (Vtime.t * 'a) option
(** Removes and returns the earliest pending event. *)

val pop_until_k : 'a t -> until:Vtime.t -> (Vtime.t -> 'a -> unit) -> bool
(** [pop_until_k t ~until k] removes the earliest pending event if it
    lies at time [<= until], applies [k] to its (time, value) and
    returns [true]; otherwise it removes nothing and returns [false].
    The simulator's driving loop: one inspection of the heap top per
    fired event, and no option or tuple allocated. *)

val clear : 'a t -> unit
(** Forget every entry while keeping the backing storage, so a reused
    queue pushes without re-growing.  Handles retained across a clear
    become inert (as if cancelled), and the insertion sequence restarts
    at zero: a cleared queue orders subsequent pushes exactly like a
    fresh {!create}.  No slot keeps a value pushed before the clear
    reachable. *)
