(** The TCP experiment testbed (Figure 3 of the paper).

    Two machines share a network: ["vendor"] runs a TCP with the vendor
    profile under test, ["xkernel"] runs the instrumented stack with the
    PFI layer spliced {e between TCP and IP}.  A connection is opened
    from the vendor machine to the x-Kernel machine (port 7777), and the
    experiment scripts are installed on the x-Kernel PFI layer. *)

open Pfi_engine
open Pfi_tcp

type t = {
  sim : Sim.t;
  net : Pfi_netsim.Network.t;
  vendor_tcp : Tcp.t;
  xk_tcp : Tcp.t;
  pfi : Pfi_core.Pfi_layer.t;  (** on the x-Kernel machine *)
}

val vendor_node : string
val xk_node : string

val make : profile:Profile.t -> ?scratch:Sim.scratch -> ?seed:int64 -> unit -> t
(** [scratch] is forwarded to {!Sim.create}, as a harness's [build]
    forwards it: a paper row passes this domain's {!Arena} scratch, with
    its collectors already attached to the scratch's trace. *)

val connect : t -> Tcp.conn * Tcp.conn
(** Opens the connection and runs the simulation until both sides are
    established; returns (vendor side, x-Kernel side).
    @raise Failure if the handshake does not complete. *)

val feed_vendor :
  t -> conn:Tcp.conn -> chunk:int -> every:Vtime.t -> count:int -> unit
(** Schedules the vendor driver workload: [count] sends of [chunk]
    bytes, one every [every]. *)

(** {1 Drop-log analysis}

    Experiment scripts log packets with [log exp.drop <seq>] before
    dropping them; these helpers reduce that log, read as (seq, time)
    pairs in recording order. *)

val busiest_seq : (int * Vtime.t) list -> int * Vtime.t list
(** The sequence number observed most often and its timestamps — i.e.
    the dropped segment and its (re)transmission times. *)

val intervals : Vtime.t list -> Vtime.t list
