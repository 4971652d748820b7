open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core
open Pfi_gmp

type node = {
  gmd : Gmd.t;
  pfi : Pfi_layer.t;
}

type t = {
  sim : Sim.t;
  net : Network.t;
  blackboard : Blackboard.t;
  names : string list;
  node : string -> node;
}

let name_of_id i = Printf.sprintf "compsun%d" i

let make ?(n = 3) ?bugs ?scratch ?(seed = 77L) () =
  let sim = Sim.create ?scratch ~seed () in
  let net = Network.create sim in
  let blackboard = Blackboard.create () in
  let ids = List.init n (fun i -> (name_of_id (i + 1), i + 1)) in
  let nodes =
    List.map
      (fun (name, node_id) ->
        let peers = List.filter (fun (m, _) -> m <> name) ids in
        let gmd = Gmd.create ~sim ~node:name ~id:node_id ~peers ?bugs () in
        let pfi =
          Pfi_layer.create ~sim ~node:name ~stub:Gmp_stub.stub ~blackboard ()
        in
        let rel = Rel_udp.create ~sim ~node:name () in
        let device = Network.attach net ~node:name in
        Layer.stack [ Gmd.layer gmd; Rel_udp.layer rel; Pfi_layer.layer pfi; device ];
        (name, { gmd; pfi }))
      ids
  in
  Pfi_layer.connect (List.map (fun (_, gn) -> gn.pfi) nodes);
  { sim;
    net;
    blackboard;
    names = List.map fst ids;
    node = (fun name -> List.assoc name nodes) }

let start t ?names ~stagger () =
  let names = Option.value names ~default:t.names in
  List.iteri
    (fun i name ->
      ignore
        (Sim.schedule t.sim ~delay:(Vtime.mul stagger i) (fun () ->
             Gmd.start (t.node name).gmd)))
    names

let members t name = (Gmd.view (t.node name).gmd).Gmd.members
