(** Protocol layers, x-Kernel style.

    A layer receives messages {e pushed} from the layer above (heading
    down toward the wire) and {e popped} from the layer below (heading up
    toward the application).  Layers are doubly linked; inserting a layer
    between two others — how the PFI layer splices itself under a target
    protocol — is a constant-time relink. *)

type t

type handlers = {
  on_push : t -> Message.t -> unit;
      (** a message arriving from above, travelling down *)
  on_pop : t -> Message.t -> unit;
      (** a message arriving from below, travelling up *)
}

val create : name:string -> node:string -> handlers -> t

val passthrough : name:string -> node:string -> unit -> t
(** Forwards in both directions unchanged. *)

(** {1 Moving messages}

    These are what layer handler bodies call to continue a message's
    journey.  Sending off the end of the stack is an error: the bottom
    layer must consume downward messages (hand them to the network) and
    the top layer must consume upward ones. *)

val send_down : t -> Message.t -> unit
(** Pushes to the layer below [t].  @raise Failure if none. *)

val deliver_up : t -> Message.t -> unit
(** Pops to the layer above [t].  @raise Failure if none. *)

val push : t -> Message.t -> unit
(** Invokes [t]'s own push handler (enter the layer from above). *)

val pop : t -> Message.t -> unit
(** Invokes [t]'s own pop handler (enter the layer from below). *)

(** {1 Wiring} *)

val link : upper:t -> lower:t -> unit

val stack : t list -> unit
(** Links a top-to-bottom list of layers. *)

val insert_below : t -> t -> unit
(** [insert_below target layer] splices [layer] directly beneath
    [target] — the paper's "PFI layer sits directly between the TCP layer
    and the IP layer". *)

val remove : t -> unit
(** Unsplices a layer, relinking its neighbours. *)
