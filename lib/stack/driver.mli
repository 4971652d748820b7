(** Driver layer: the test workload generator at the top of a stack.

    The paper's driver layer "is responsible for generating messages and
    running the test"; because it sits {e above} the target protocol it
    can create stateful messages (e.g. TCP data) that the PFI layer
    below cannot.  This driver records everything delivered to it and
    can forward deliveries to a callback. *)

type t

val create : node:string -> unit -> t

val layer : t -> Layer.t
(** To place at the top when wiring the stack. *)

val send : t -> Message.t -> unit
(** Pushes a message down into the stack. *)

val send_string : t -> string -> unit

val set_on_receive : t -> (Message.t -> unit) -> unit
(** Calls the function on every later delivery (none until set). *)

val received : t -> Message.t list
(** Messages delivered up to the driver, oldest first. *)

val received_count : t -> int
val clear_received : t -> unit
