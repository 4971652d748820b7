(** Hash tables keyed by [int], for lookups on the per-message path.

    Keys compare with [Int.equal] and hash to themselves: sequence
    numbers and small peer ids spread over the buckets as they are, with
    no call to the generic hash or to polymorphic compare.  Iteration
    order is unspecified. *)

include Hashtbl.S with type key = int
