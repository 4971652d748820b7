(** Restartable named timers on top of {!Sim}.

    Protocol code manipulates timers constantly (the GMP timer-test
    experiment is entirely about which timers are armed in which state), so
    timers are first-class: they carry a name, can be re-armed, disarmed
    and inspected, and can repeat. *)

type t

val create : Sim.t -> name:string -> callback:(unit -> unit) -> t
(** A one-shot timer, initially disarmed.  Arming an armed timer replaces
    the previous deadline. *)

val create_periodic :
  Sim.t -> name:string -> interval:Vtime.t -> callback:(unit -> unit) -> t
(** Fires every [interval] once armed, until disarmed. *)

val arm : t -> delay:Vtime.t -> unit
(** For periodic timers, [delay] is the time to the first firing;
    subsequent firings use the creation interval. *)

val disarm : t -> unit

val is_armed : t -> bool

val deadline : t -> Vtime.t option
(** Absolute time of the next firing, if armed. *)

val remaining : t -> Vtime.t option

val fired_count : t -> int
(** Number of times the callback has run since creation. *)
