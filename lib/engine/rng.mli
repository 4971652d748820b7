(** Deterministic random number generation.

    Every source of randomness in a simulation flows from one of these
    generators so that a run is exactly reproducible from its seed.  The
    core generator is splitmix64, which is small, fast and splittable —
    each protocol participant can carry an independent stream derived
    from the experiment seed. *)

type t

val create : seed:int64 -> t

val split : t -> t
(** Derives an independent generator; the parent advances. *)

(** {1 Raw draws} *)

val bits64 : t -> int64
val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound > 0].
    Uses rejection sampling, so corruption offsets and loss decisions
    carry no modulo bias. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

(** {1 Distributions}

    These back the script-level [dst_*] utilities the paper exposes for
    probabilistic fault injection. *)

val bernoulli : t -> p:float -> bool
(** True with probability [p]. *)

val uniform : t -> lo:float -> hi:float -> float

val normal : t -> mean:float -> std:float -> float
(** Box–Muller transform. *)

val exponential : t -> mean:float -> float

(** {1 Hashing}

    The two mixers nearly every derived seed in the repo is built from:
    a campaign's per-trial seeds, a matrix's per-scenario seeds, a
    conformance row's seed, fault identity and fuzz coverage buckets.
    The one other mixer is [Pfi_testgen.Fuzz]'s candidate-stream mixer
    (MurmurHash3's fmix64), kept because it seeds every pinned fuzz
    trajectory. *)

val mix : int64 -> int64
(** The splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014) that
    {!bits64} applies to each state: a bijection that spreads every
    input bit over the whole word. *)

val fnv1a64 : string -> int64
(** FNV-1a, 64-bit, over the string's bytes. *)
