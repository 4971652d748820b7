(** 32-bit sequence-space arithmetic (RFC 793 §3.3).

    Sequence numbers live on a circle of 2^32; comparisons are defined
    relative to a window smaller than half the space.  Values are kept
    in native ints in [0, 2^32). *)

type t = int

val modulus : int

val of_int : int -> t
(** Reduces mod 2^32. *)

val add : t -> int -> t
val diff : t -> t -> int
(** [diff a b] is the signed circular distance from [b] to [a] in
    [-2^31, 2^31). *)

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

val in_window : t -> base:t -> size:int -> bool
(** Whether [t] lies in [base, base + size) on the circle. *)
