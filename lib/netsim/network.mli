(** Simulated network fabric.

    One {!t} models the broadcast domain the paper's testbed machines
    shared.  Each node attaches a {e device layer} that forms the bottom
    of its protocol stack: messages pushed down into it are transmitted
    to the destination named by the message's [net.dst] attribute and
    popped out of the destination's device layer after the link latency.

    Physical faults live here — latency, probabilistic link loss,
    directional blocking, partitions, and unplugging a machine's
    Ethernet (the paper's two-day zero-window experiment).  Protocol-level
    faults belong to the PFI layer, not the network. *)

type t

val create : Pfi_engine.Sim.t -> t
(** Every link has a 1 ms latency until {!set_latency} gives it its
    own. *)

val sim : t -> Pfi_engine.Sim.t

(** {1 Topology} *)

val attach : t -> node:string -> Pfi_stack.Layer.t
(** Creates, registers and returns the device layer for [node].
    @raise Failure if the node is already attached. *)

(** {1 Addressing attributes} *)

val dst_attr : string
(** ["net.dst"]: set on a message before pushing it down to the device
    layer.  The value is a destination node name, or {!broadcast}. *)

val src_attr : string
(** ["net.src"]: stamped by the network on delivery. *)

val broadcast : string
(** ["*"]: deliver to every other attached node. *)

(** {1 Link properties} *)

val set_latency : t -> src:string -> dst:string -> Pfi_engine.Vtime.t -> unit
(** Applies to copies sent afterwards: a copy already in flight
    arrives at the latency it was sent with.  Copies due at the same
    instant arrive in the order they were sent, over one link or
    several. *)

val set_loss : t -> src:string -> dst:string -> float -> unit
(** Probabilistic loss rate in [0, 1] for the directed link. *)

(** {1 Physical faults} *)

val block : t -> src:string -> dst:string -> unit
(** Silently discard traffic on the directed link. *)

val unblock : t -> src:string -> dst:string -> unit

val partition : t -> string list list -> unit
(** Installs a partition: traffic is delivered only within a group.
    Nodes not listed form an implicit extra group.  Replaces any
    previous partition. *)

val heal : t -> unit
(** Removes the partition. *)

val unplug : t -> string -> unit
(** Disconnects the node entirely (no send, no receive). *)

val replug : t -> string -> unit

val is_unplugged : t -> string -> bool

(** {1 Statistics} *)

val sent_count : t -> int
val delivered_count : t -> int
val dropped_count : t -> int

val set_msc_enabled : t -> bool -> unit
(** When on, every transmission records an [msc] trace entry for
    {!Msc.render} (labels come from the [msc.label] message
    attribute).  The flag is the simulation's
    {!Pfi_engine.Sim.want_labels}, so protocol layers format those
    labels exactly when the entries are recorded. *)
