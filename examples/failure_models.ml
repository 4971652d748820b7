(* The failure-model library (paper §2.2) in action: a message stream
   crosses a PFI layer configured with each model in turn; the delivery
   statistics show what each model does to the traffic.

   Run with:  dune exec examples/failure_models.exe *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core

type outcome = {
  delivered : int;  (* distinct messages that arrived intact *)
  duplicates : int;  (* intact copies after a message's first *)
  corrupted : int;  (* arrivals whose payload no message was sent with *)
  in_order : bool;  (* judged on each message's first intact arrival *)
  ends : float;  (* when the run drained, in seconds *)
}

let run_under_model model =
  let sim = Sim.create ~seed:7L () in
  let net = Network.create sim in
  let sender = Driver.create ~node:"sender" () in
  let pfi = Pfi_layer.create ~sim ~node:"sender" () in
  let dev_s = Network.attach net ~node:"sender" in
  Layer.stack [ Driver.layer sender; Pfi_layer.layer pfi; dev_s ];
  let receiver = Driver.create ~node:"receiver" () in
  let pfi_r = Pfi_layer.create ~sim ~node:"receiver" () in
  let dev_r = Network.attach net ~node:"receiver" in
  Layer.stack [ Driver.layer receiver; Pfi_layer.layer pfi_r; dev_r ];
  (* the faulty behaviour covers the whole path: outgoing faults act at
     the sender's PFI layer, incoming ones at the receiver's *)
  let models = Option.to_list model in
  Failure_models.apply pfi models;
  Failure_models.apply pfi_r models;
  (* 200 messages, one every 100 ms *)
  let sent = List.init 200 (Printf.sprintf "m%03d") in
  List.iteri
    (fun i text ->
      ignore
        (Sim.schedule sim ~delay:(Vtime.ms (100 * i)) (fun () ->
             let msg = Message.of_string text in
             Message.set_attr msg Network.dst_attr "receiver";
             Driver.send sender msg)))
    sent;
  Sim.run sim;
  (* each message counts once, on its first intact arrival; a later
     intact copy is a duplicate, and a payload no message was sent with
     is a corrupted arrival *)
  let first = Hashtbl.create 200 in
  let firsts = ref [] and duplicates = ref 0 and corrupted = ref 0 in
  List.iter
    (fun msg ->
      let text = Message.to_string msg in
      if not (List.mem text sent) then incr corrupted
      else if Hashtbl.mem first text then incr duplicates
      else begin
        Hashtbl.add first text ();
        firsts := text :: !firsts
      end)
    (Driver.received receiver);
  let firsts = List.rev !firsts in
  { delivered = List.length firsts;
    duplicates = !duplicates;
    corrupted = !corrupted;
    in_order = List.sort compare firsts = firsts;
    ends = Vtime.to_sec_f (Sim.now sim) }

let () =
  let open Failure_models in
  let models =
    [ ("none (baseline)", None);
      ("process crash @10s", Some (Process_crash { at = Vtime.sec 10 }));
      ("link crash @10s", Some (Link_crash { at = Vtime.sec 10 }));
      ("send omission p=0.3", Some (Send_omission { p = 0.3 }));
      ("receive omission p=0.3", Some (Receive_omission { p = 0.3 }));
      ( "general omission 0.2/0.2",
        Some (General_omission { p_send = 0.2; p_recv = 0.2 }) );
      ("timing N(0.5s, 0.2s)", Some (Timing { mean = 0.5; std = 0.2 }));
      ( "byzantine (corrupt/reorder/dup)",
        Some (Byzantine { corrupt_p = 0.2; reorder_p = 0.3; duplicate_p = 0.2 }) ) ]
  in
  Printf.printf "%-34s %10s %5s %8s %9s %10s\n" "failure model" "delivered" "dup"
    "corrupt" "in-order" "run ends";
  let outcomes =
    List.map
      (fun (label, model) ->
        let o = run_under_model model in
        Printf.printf "%-34s %7d/200 %5d %8d %9b %9.1fs\n" label o.delivered o.duplicates
          o.corrupted o.in_order o.ends;
        o)
      models
  in
  print_newline ();
  print_endline "severity order (each tolerates everything before it):";
  let chain =
    [ Process_crash { at = Vtime.zero };
      Link_crash { at = Vtime.zero };
      Send_omission { p = 0.1 };
      Receive_omission { p = 0.1 };
      General_omission { p_send = 0.1; p_recv = 0.1 };
      Timing { mean = 0.1; std = 0.1 };
      Byzantine { corrupt_p = 0.1; reorder_p = 0.1; duplicate_p = 0.1 } ]
  in
  List.iter (fun m -> Printf.printf "  %d. %s\n" (severity m) (describe m)) chain;
  (* without a failure model every message arrives once, intact and in
     order *)
  match outcomes with
  | { delivered = 200; duplicates = 0; corrupted = 0; in_order = true; _ } :: _ -> ()
  | _ ->
    prerr_endline "failure_models: the baseline lost, repeated, corrupted or reordered a message";
    exit 1
