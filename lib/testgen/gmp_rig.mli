(** The GMP experiment testbed (Figure 5 of the paper).

    A cluster of gmd daemons named [compsun1..compsunN] (ids 1..N), each
    running the stack gmd / reliable-UDP / PFI / device — the PFI layer
    sits where the UDP send/receive calls are made, exactly as the paper
    inserted it.  All PFI layers share a blackboard and are connected
    for cross-node scripting. *)

open Pfi_engine
open Pfi_gmp

type node = {
  gmd : Gmd.t;
  pfi : Pfi_core.Pfi_layer.t;
}

type t = {
  sim : Sim.t;
  net : Pfi_netsim.Network.t;
  blackboard : Pfi_core.Blackboard.t;
  names : string list;
  node : string -> node;
}

val make :
  ?n:int -> ?bugs:Gmd.bugs -> ?scratch:Sim.scratch -> ?seed:int64 -> unit -> t
(** [scratch] is forwarded to {!Sim.create}, as a harness's [build]
    forwards it. *)

val start : t -> ?names:string list -> stagger:Vtime.t -> unit -> unit
(** Schedules [Gmd.start] for the named daemons (default: all),
    [stagger] apart, beginning at the current simulation time. *)

val members : t -> string -> int list
(** Members of the named daemon's current view. *)
