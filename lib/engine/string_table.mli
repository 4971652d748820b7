(** Hash tables keyed by [string], for lookups on the per-message path.

    Keys compare with [String.equal] instead of polymorphic compare, and
    hash with [Hashtbl.hash], the generic table's own hash: the same
    sequence of operations leaves the same buckets, so [iter] and [fold]
    visit bindings in the order a generic [Hashtbl] would. *)

include Hashtbl.S with type key = string
