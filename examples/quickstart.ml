(* Quickstart: splice a PFI layer into a two-node stack and run the
   paper's canonical filter script — "this script drops all ACK
   messages" — against live traffic.

   Run with:  dune exec examples/quickstart.exe *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core

(* A toy protocol: the first byte tags the message type. *)
let toy_stub =
  { Stubs.protocol = "toy";
    msg_type =
      (fun msg ->
        match Message.peek msg 1 with
        | b when Bytes.length b = 1 && Bytes.get b 0 = 'A' -> "ACK"
        | b when Bytes.length b = 1 && Bytes.get b 0 = 'D' -> "DATA"
        | _ -> "?");
    describe = (fun msg -> "toy " ^ Message.to_string msg);
    get_field = (fun _ _ -> None);
    set_field = (fun _ _ _ -> false);
    generate = (fun _ -> None);
    fields = (fun _ -> []) }

let () =
  (* 1. a simulation and a network; a feed keeps what the filter logs
        as messages pass *)
  let sim = Sim.create ~seed:42L () in
  let net = Network.create sim in
  let dropped = ref [] in
  Trace.attach (Sim.trace sim) ~tags:(Some [ "quickstart.dropped" ]) (fun _ e ->
      dropped := e :: !dropped);

  (* 2. two nodes; the sender gets a PFI layer between its application
        (driver) and the network device *)
  let make name ~with_pfi =
    let driver = Driver.create ~node:name () in
    let device = Network.attach net ~node:name in
    let pfi =
      if with_pfi then Some (Pfi_layer.create ~sim ~node:name ~stub:toy_stub ())
      else None
    in
    (match pfi with
     | Some pfi -> Layer.stack [ Driver.layer driver; Pfi_layer.layer pfi; device ]
     | None -> Layer.stack [ Driver.layer driver; device ]);
    (driver, pfi)
  in
  let alice, alice_pfi = make "alice" ~with_pfi:true in
  let bob, _ = make "bob" ~with_pfi:false in
  Driver.set_on_receive bob (fun msg ->
      Printf.printf "  bob received: %s\n" (Message.to_string msg));

  (* 3. the paper's example filter, nearly verbatim *)
  let pfi = Option.get alice_pfi in
  Pfi_layer.set_send_filter pfi
    {|
# This script drops all ACK messages.
set type [msg_type cur_msg]
if {$type == "ACK"} {
  msg_log cur_msg quickstart.dropped
  xDrop cur_msg
}
|};

  (* 4. traffic: DATA passes, ACKs vanish *)
  let send text =
    let msg = Message.of_string text in
    Message.set_attr msg Network.dst_attr "bob";
    Driver.send alice msg
  in
  print_endline "alice sends: D:hello  A:ack-1  D:world  A:ack-2";
  send "D:hello";
  send "A:ack-1";
  send "D:world";
  send "A:ack-2";
  Sim.run sim;

  (* 5. what the PFI layer saw *)
  let stats = Pfi_layer.send_stats pfi in
  Printf.printf "PFI send filter: %d passed, %d dropped\n"
    stats.Pfi_layer.passed stats.Pfi_layer.dropped;
  print_endline "trace of dropped messages:";
  List.iter (fun e -> Printf.printf "  %s\n" (Trace.detail e)) (List.rev !dropped)
