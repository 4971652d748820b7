(* Tests for the simulated network fabric. *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim

(* A two-layer stack per node: a driver on top of the network device. *)
type endpoint = { driver : Driver.t }

let make_node net name =
  let driver = Driver.create ~node:name () in
  let device = Network.attach net ~node:name in
  Layer.stack [ Driver.layer driver; device ];
  { driver }

let send ep ~dst text =
  let msg = Message.of_string text in
  Message.set_attr msg Network.dst_attr dst;
  Driver.send ep.driver msg

let received_texts ep = List.map Message.to_string (Driver.received ep.driver)

let setup ?(names = [ "a"; "b"; "c" ]) () =
  let sim = Sim.create ~seed:42L () in
  let net = Network.create sim in
  let eps = List.map (fun n -> (n, make_node net n)) names in
  (sim, net, fun n -> List.assoc n eps)

let test_basic_delivery () =
  let sim, _net, ep = setup () in
  send (ep "a") ~dst:"b" "hello";
  Sim.run sim;
  Alcotest.(check (list string)) "b got it" [ "hello" ] (received_texts (ep "b"));
  Alcotest.(check (list string)) "c did not" [] (received_texts (ep "c"))

let test_latency () =
  let sim, net, ep = setup () in
  Network.set_latency net ~src:"a" ~dst:"b" (Vtime.ms 250);
  let arrival = ref Vtime.zero in
  Driver.set_on_receive (ep "b").driver (fun _ -> arrival := Sim.now sim);
  send (ep "a") ~dst:"b" "x";
  Sim.run sim;
  Alcotest.(check bool) "arrives at 250ms" true (Vtime.equal !arrival (Vtime.ms 250))

(* Arrivals at [dst], as (text, time). *)
let arrivals sim ep =
  let got = ref [] in
  Driver.set_on_receive ep.driver (fun m -> got := (Message.to_string m, Sim.now sim) :: !got);
  fun () -> List.rev !got

let check_arrivals = Alcotest.(check (list (pair string int)))

(* A latency change applies to copies sent after it: a copy already in
   flight keeps the latency it was sent with, even when a later copy
   on the same link overtakes it. *)
let test_latency_change_in_flight () =
  let sim, net, ep = setup () in
  let got = arrivals sim (ep "b") in
  Network.set_latency net ~src:"a" ~dst:"b" (Vtime.ms 100);
  send (ep "a") ~dst:"b" "m1";
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 10) (fun () ->
         Network.set_latency net ~src:"a" ~dst:"b" (Vtime.ms 20);
         send (ep "a") ~dst:"b" "m2"));
  Sim.run sim;
  check_arrivals "m2 overtakes m1" [ ("m2", Vtime.ms 30); ("m1", Vtime.ms 100) ] (got ())

(* Copies due at one instant over two links into one node arrive in
   the order they were transmitted, interleaved across the links. *)
let test_same_instant_links () =
  let sim, _net, ep = setup () in
  let got = arrivals sim (ep "c") in
  List.iter (fun (src, text) -> send (ep src) ~dst:"c" text)
    [ ("a", "a1"); ("b", "b1"); ("a", "a2"); ("b", "b2"); ("b", "b3"); ("a", "a3") ];
  Sim.run sim;
  check_arrivals "transmit order"
    (List.map (fun text -> (text, Vtime.ms 1)) [ "a1"; "b1"; "a2"; "b2"; "b3"; "a3" ])
    (got ())

let test_fifo_order () =
  let sim, _net, ep = setup () in
  for i = 1 to 10 do
    send (ep "a") ~dst:"b" (string_of_int i)
  done;
  Sim.run sim;
  Alcotest.(check (list string)) "in-order delivery"
    (List.init 10 (fun i -> string_of_int (i + 1)))
    (received_texts (ep "b"))

let test_src_attr_stamped () =
  let sim, _net, ep = setup () in
  send (ep "a") ~dst:"b" "x";
  Sim.run sim;
  match Driver.received (ep "b").driver with
  | [ m ] ->
    Alcotest.(check (option string)) "src stamped" (Some "a")
      (Message.get_attr m Network.src_attr)
  | _ -> Alcotest.fail "expected one delivery"

let test_broadcast () =
  let sim, _net, ep = setup () in
  send (ep "a") ~dst:Network.broadcast "boom";
  Sim.run sim;
  Alcotest.(check (list string)) "b" [ "boom" ] (received_texts (ep "b"));
  Alcotest.(check (list string)) "c" [ "boom" ] (received_texts (ep "c"));
  Alcotest.(check (list string)) "not self" [] (received_texts (ep "a"))

let test_block_unblock () =
  let sim, net, ep = setup () in
  Network.block net ~src:"a" ~dst:"b";
  send (ep "a") ~dst:"b" "dropped";
  send (ep "b") ~dst:"a" "other direction ok";
  Sim.run sim;
  Alcotest.(check (list string)) "a->b blocked" [] (received_texts (ep "b"));
  Alcotest.(check (list string)) "b->a open" [ "other direction ok" ]
    (received_texts (ep "a"));
  Network.unblock net ~src:"a" ~dst:"b";
  send (ep "a") ~dst:"b" "now open";
  Sim.run sim;
  Alcotest.(check (list string)) "unblocked" [ "now open" ] (received_texts (ep "b"))

let test_partition_and_heal () =
  let sim, net, ep = setup ~names:[ "n1"; "n2"; "n3"; "n4"; "n5" ] () in
  Network.partition net [ [ "n1"; "n2"; "n3" ]; [ "n4"; "n5" ] ];
  send (ep "n1") ~dst:"n2" "in-group";
  send (ep "n1") ~dst:"n4" "cross-group";
  send (ep "n5") ~dst:"n4" "in-group-2";
  Sim.run sim;
  Alcotest.(check (list string)) "within group flows" [ "in-group" ] (received_texts (ep "n2"));
  Alcotest.(check (list string)) "cross group dropped; own group flows"
    [ "in-group-2" ] (received_texts (ep "n4"));
  Network.heal net;
  send (ep "n1") ~dst:"n4" "after heal";
  Sim.run sim;
  Alcotest.(check (list string)) "healed" [ "in-group-2"; "after heal" ]
    (received_texts (ep "n4"))

let test_unplug_replug () =
  let sim, net, ep = setup () in
  Network.unplug net "b";
  Alcotest.(check bool) "marked unplugged" true (Network.is_unplugged net "b");
  send (ep "a") ~dst:"b" "lost";
  send (ep "b") ~dst:"a" "also lost";
  Sim.run sim;
  Alcotest.(check (list string)) "nothing in" [] (received_texts (ep "b"));
  Alcotest.(check (list string)) "nothing out" [] (received_texts (ep "a"));
  Network.replug net "b";
  send (ep "a") ~dst:"b" "back";
  Sim.run sim;
  Alcotest.(check (list string)) "replugged" [ "back" ] (received_texts (ep "b"))

let test_unplug_in_flight () =
  (* a message already on the wire is lost if the destination unplugs
     before it lands *)
  let sim, net, ep = setup () in
  Network.set_latency net ~src:"a" ~dst:"b" (Vtime.ms 100);
  send (ep "a") ~dst:"b" "in flight";
  ignore (Sim.schedule sim ~delay:(Vtime.ms 50) (fun () -> Network.unplug net "b"));
  Sim.run sim;
  Alcotest.(check (list string)) "lost in flight" [] (received_texts (ep "b"))

let test_msc_in_flight_unplug_marks_lost () =
  (* the MSC must not claim an arrival for a message whose destination
     unplugged while it was on the wire — the delivery outcome is only
     known when the wire event fires *)
  let sim, net, ep = setup () in
  Network.set_msc_enabled net true;
  Network.set_latency net ~src:"a" ~dst:"b" (Vtime.ms 100);
  send (ep "a") ~dst:"b" "doomed";
  ignore (Sim.schedule sim ~delay:(Vtime.ms 50) (fun () -> Network.unplug net "b"));
  Sim.run sim;
  match Msc.events (Sim.trace sim) with
  | [ e ] ->
    Alcotest.(check string) "src" "a" e.Msc.src;
    Alcotest.(check string) "dst" "b" e.Msc.dst;
    Alcotest.(check bool) "lost in flight, no arrival" true (e.Msc.arrival = None);
    Alcotest.(check bool) "stamped at send time" true (Vtime.equal e.Msc.time Vtime.zero)
  | evs ->
    Alcotest.fail (Printf.sprintf "expected one msc event, got %d" (List.length evs))

let test_msc_events_in_send_order () =
  (* deliveries are recorded when they land; the ladder must still read
     in send order even when a later message overtakes an earlier one *)
  let sim, net, ep = setup () in
  Network.set_msc_enabled net true;
  Network.set_latency net ~src:"a" ~dst:"b" (Vtime.ms 100);
  Network.set_latency net ~src:"a" ~dst:"c" (Vtime.ms 10);
  send (ep "a") ~dst:"b" "slow";
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 20) (fun () -> send (ep "a") ~dst:"c" "fast"));
  Sim.run sim;
  match Msc.events (Sim.trace sim) with
  | [ e1; e2 ] ->
    Alcotest.(check string) "first by send time" "b" e1.Msc.dst;
    Alcotest.(check string) "second by send time" "c" e2.Msc.dst;
    Alcotest.(check bool) "slow arrival" true (e1.Msc.arrival = Some (Vtime.ms 100));
    Alcotest.(check bool) "fast arrival" true (e2.Msc.arrival = Some (Vtime.ms 30))
  | evs ->
    Alcotest.fail (Printf.sprintf "expected two msc events, got %d" (List.length evs))

let test_loss_rate () =
  let sim, net, ep = setup () in
  Network.set_loss net ~src:"a" ~dst:"b" 0.5;
  for _ = 1 to 500 do
    send (ep "a") ~dst:"b" "x"
  done;
  Sim.run sim;
  let got = List.length (received_texts (ep "b")) in
  Alcotest.(check bool) "roughly half lost" true (got > 180 && got < 320)

let test_stats () =
  let sim, net, ep = setup () in
  Network.block net ~src:"a" ~dst:"c";
  send (ep "a") ~dst:"b" "ok";
  send (ep "a") ~dst:"c" "blocked";
  Sim.run sim;
  Alcotest.(check int) "sent" 2 (Network.sent_count net);
  Alcotest.(check int) "delivered" 1 (Network.delivered_count net);
  Alcotest.(check int) "dropped" 1 (Network.dropped_count net)

let test_double_attach_fails () =
  let sim = Sim.create () in
  let net = Network.create sim in
  ignore (Network.attach net ~node:"a");
  match Network.attach net ~node:"a" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

let test_missing_dst_fails () =
  let _sim, _net, ep = setup () in
  match Driver.send (ep "a").driver (Message.of_string "no dst") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "latency" `Quick test_latency;
    Alcotest.test_case "latency change keeps in-flight copies" `Quick
      test_latency_change_in_flight;
    Alcotest.test_case "same-instant arrivals over two links" `Quick test_same_instant_links;
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "src attr stamped" `Quick test_src_attr_stamped;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "block and unblock" `Quick test_block_unblock;
    Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
    Alcotest.test_case "unplug and replug" `Quick test_unplug_replug;
    Alcotest.test_case "unplug catches in-flight" `Quick test_unplug_in_flight;
    Alcotest.test_case "msc: in-flight unplug shows no arrival" `Quick
      test_msc_in_flight_unplug_marks_lost;
    Alcotest.test_case "msc: events read in send order" `Quick
      test_msc_events_in_send_order;
    Alcotest.test_case "probabilistic loss" `Quick test_loss_rate;
    Alcotest.test_case "statistics" `Quick test_stats;
    Alcotest.test_case "double attach fails" `Quick test_double_attach_fails;
    Alcotest.test_case "missing dst fails" `Quick test_missing_dst_fails;
  ]
