(* Tests for the GMP substrate: message codec, reliable layer, and the
   group membership daemon (including the re-implanted bugs). *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core
open Pfi_gmp

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let m =
    Gmp_msg.make ~mtype:Gmp_msg.Membership_change ~origin:3 ~sender:1
      ~group_id:1000042 ~subject:5 ~members:[ 1; 3; 5 ] ()
  in
  match Gmp_msg.decode (Gmp_msg.encode m) with
  | Ok d ->
    Alcotest.(check bool) "same message" true (d = m);
    Alcotest.(check string) "type name" "MEMBERSHIP_CHANGE"
      (Gmp_msg.mtype_to_string d.Gmp_msg.mtype)
  | Error e -> Alcotest.failf "decode failed: %s" e

let prop_codec_roundtrip =
  let mtype_gen =
    QCheck.Gen.oneofl
      [ Gmp_msg.Heartbeat; Gmp_msg.Proclaim; Gmp_msg.Join;
        Gmp_msg.Membership_change; Gmp_msg.Mc_ack; Gmp_msg.Mc_nak;
        Gmp_msg.Commit; Gmp_msg.Dead ]
  in
  let gen =
    QCheck.make
      QCheck.Gen.(
        mtype_gen >>= fun mtype ->
        int_bound 65535 >>= fun origin ->
        int_bound 65535 >>= fun sender ->
        int_bound 1000000 >>= fun gid ->
        list_size (int_bound 8) (int_bound 65535) >>= fun members ->
        return (mtype, origin, sender, gid, members))
  in
  QCheck.Test.make ~name:"gmp codec roundtrip" ~count:300 gen
    (fun (mtype, origin, sender, gid, members) ->
      let m = Gmp_msg.make ~mtype ~origin ~sender ~group_id:gid ~members () in
      Gmp_msg.decode (Gmp_msg.encode m) = Ok m)

let test_codec_rejects_garbage () =
  (match Gmp_msg.decode (Bytes.of_string "xy") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "truncated accepted");
  match Gmp_msg.decode (Bytes.of_string "\xff\x00\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad type accepted"

(* ------------------------------------------------------------------ *)
(* Reliable layer                                                     *)
(* ------------------------------------------------------------------ *)

type rel_node = { rel : Rel_udp.t; drv : Driver.t }

let rel_setup () =
  let sim = Sim.create ~seed:5L () in
  let net = Network.create sim in
  let make name =
    let drv = Driver.create ~node:name () in
    let rel = Rel_udp.create ~sim ~node:name () in
    let device = Network.attach net ~node:name in
    Layer.stack [ Driver.layer drv; Rel_udp.layer rel; device ];
    { rel; drv }
  in
  (sim, net, make "a", make "b")

let rel_send ?(reliable = true) n ~dst text =
  let msg = Message.of_string text in
  Message.set_attr msg Network.dst_attr dst;
  if reliable then Message.set_attr msg Rel_udp.reliable_attr "1";
  Driver.send n.drv msg

let rel_received n = List.map Message.to_string (Driver.received n.drv)

let test_rel_basic () =
  let sim, _net, a, b = rel_setup () in
  rel_send a ~dst:"b" "reliable hello";
  rel_send ~reliable:false a ~dst:"b" "raw hello";
  Sim.run ~until:(Vtime.sec 5) sim;
  Alcotest.(check (list string)) "both delivered, no duplicates"
    [ "reliable hello"; "raw hello" ] (rel_received b);
  Alcotest.(check int) "nothing pending" 0 (Rel_udp.pending_count a.rel)

(* An ACK cancels its send's retransmission outright: a run without a
   horizon drains at the ACK's arrival, with no retry left queued. *)
let test_rel_ack_cancels_retry () =
  let sim, _net, a, b = rel_setup () in
  rel_send a ~dst:"b" "once";
  Sim.run sim;
  Alcotest.(check (list string)) "delivered" [ "once" ] (rel_received b);
  Alcotest.(check int) "ends at the ACK's arrival" (Vtime.ms 2) (Sim.now sim);
  Alcotest.(check int) "nothing pending" 0 (Rel_udp.pending_count a.rel)

let test_rel_retransmits_through_loss () =
  let sim, net, a, b = rel_setup () in
  (* block the forward path briefly: the retry must get through *)
  Network.block net ~src:"a" ~dst:"b";
  rel_send a ~dst:"b" "persistent";
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 700) (fun () ->
         Network.unblock net ~src:"a" ~dst:"b"));
  Sim.run ~until:(Vtime.sec 5) sim;
  Alcotest.(check (list string)) "delivered via retry" [ "persistent" ]
    (rel_received b)

let test_rel_dedups () =
  let sim, net, a, b = rel_setup () in
  (* block the ACK path: sender keeps retransmitting, receiver must
     deliver only one copy *)
  Network.block net ~src:"b" ~dst:"a";
  rel_send a ~dst:"b" "once only";
  Sim.run ~until:(Vtime.sec 10) sim;
  Alcotest.(check (list string)) "single delivery" [ "once only" ] (rel_received b)

let test_rel_gives_up () =
  let sim, net, a, _b = rel_setup () in
  Network.block net ~src:"a" ~dst:"b";
  rel_send a ~dst:"b" "doomed";
  Sim.run ~until:(Vtime.sec 10) sim;
  Alcotest.(check int) "gave up" 1 (Rel_udp.give_up_count a.rel);
  Alcotest.(check int) "not pending" 0 (Rel_udp.pending_count a.rel)

(* ------------------------------------------------------------------ *)
(* GMD cluster harness                                                *)
(* ------------------------------------------------------------------ *)

type gnode = { gmd : Gmd.t; pfi : Pfi_layer.t }

let cluster ?(n = 3) ?(config = Gmd.default_config) ?(seed = 21L) () =
  let sim = Sim.create ~seed () in
  let net = Network.create sim in
  let bb = Blackboard.create () in
  let names = List.init n (fun i -> (Printf.sprintf "compsun%d" (i + 1), i + 1)) in
  let nodes =
    List.map
      (fun (name, node_id) ->
        let peers = List.filter (fun (m, _) -> m <> name) names in
        let gmd = Gmd.create ~sim ~node:name ~id:node_id ~peers ~config () in
        let pfi =
          Pfi_layer.create ~sim ~node:name ~stub:Gmp_stub.stub ~blackboard:bb ()
        in
        let rel = Rel_udp.create ~sim ~node:name () in
        let device = Network.attach net ~node:name in
        Layer.stack [ Gmd.layer gmd; Rel_udp.layer rel; Pfi_layer.layer pfi; device ];
        (name, { gmd; pfi }))
      names
  in
  Pfi_layer.connect (List.map (fun (_, gn) -> gn.pfi) nodes);
  (sim, net, fun name -> List.assoc name nodes)

let start_all sim node names ~stagger =
  List.iteri
    (fun i name ->
      ignore
        (Sim.schedule sim ~delay:(Vtime.mul stagger i) (fun () ->
             Gmd.start (node name).gmd)))
    names

let members_of gn = (Gmd.view gn.gmd).Gmd.members

let test_group_formation () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  Sim.run ~until:(Vtime.sec 60) sim;
  List.iter
    (fun name ->
      let gn = node name in
      Alcotest.(check (list int)) (name ^ " members") [ 1; 2; 3 ] (members_of gn);
      Alcotest.(check int) (name ^ " leader") 1 (Gmd.view gn.gmd).Gmd.leader)
    [ "compsun1"; "compsun2"; "compsun3" ]

let test_views_agree_on_gid () =
  let sim, _net, node = cluster ~n:4 () in
  start_all sim node
    [ "compsun1"; "compsun2"; "compsun3"; "compsun4" ]
    ~stagger:(Vtime.sec 2);
  Sim.run ~until:(Vtime.sec 90) sim;
  let v1 = Gmd.view (node "compsun1").gmd in
  List.iter
    (fun name ->
      let v = Gmd.view (node name).gmd in
      Alcotest.(check int) (name ^ " same gid") v1.Gmd.group_id v.Gmd.group_id;
      Alcotest.(check (list int)) (name ^ " same members") v1.Gmd.members v.Gmd.members)
    [ "compsun2"; "compsun3"; "compsun4" ]

let test_crash_detected () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  (* crash the non-leader compsun3 at t=60 s *)
  ignore (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () -> Gmd.stop (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 120) sim;
  Alcotest.(check (list int)) "survivors regroup" [ 1; 2 ]
    (members_of (node "compsun1"));
  Alcotest.(check (list int)) "both agree" [ 1; 2 ] (members_of (node "compsun2"))

let test_leader_crash_crown_prince () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  ignore (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () -> Gmd.stop (node "compsun1").gmd));
  Sim.run ~until:(Vtime.sec 150) sim;
  Alcotest.(check (list int)) "survivors" [ 2; 3 ] (members_of (node "compsun2"));
  Alcotest.(check int) "crown prince leads" 2 (Gmd.view (node "compsun2").gmd).Gmd.leader;
  Alcotest.(check bool) "takeover traced" true
    (Trace.count ~node:"compsun2" ~tag:"gmp.takeover" (Sim.trace sim) >= 1)

let test_partition_and_remerge () =
  let sim, net, node = cluster ~n:5 () in
  let names = List.init 5 (fun i -> Printf.sprintf "compsun%d" (i + 1)) in
  start_all sim node names ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () ->
         Network.partition net
           [ [ "compsun1"; "compsun2"; "compsun3" ]; [ "compsun4"; "compsun5" ] ]));
  Sim.run ~until:(Vtime.sec 150) sim;
  Alcotest.(check (list int)) "majority group" [ 1; 2; 3 ]
    (members_of (node "compsun1"));
  Alcotest.(check (list int)) "minority group" [ 4; 5 ]
    (members_of (node "compsun4"));
  Alcotest.(check int) "minority leader" 4 (Gmd.view (node "compsun4").gmd).Gmd.leader;
  (* heal: one group again *)
  Network.heal net;
  Sim.run ~until:(Vtime.sec 300) sim;
  List.iter
    (fun name ->
      Alcotest.(check (list int)) (name ^ " merged") [ 1; 2; 3; 4; 5 ]
        (members_of (node name)))
    names

let test_suspend_resume_like_timeout () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  ignore (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () -> Gmd.suspend (node "compsun3").gmd));
  ignore (Sim.schedule sim ~delay:(Vtime.sec 90) (fun () -> Gmd.resume (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 200) sim;
  (* with the fix, the suspended daemon rejoins after resuming *)
  Alcotest.(check (list int)) "suspended node rejoined" [ 1; 2; 3 ]
    (members_of (node "compsun3"))

(* --- bug reproductions ------------------------------------------- *)

let buggy base = { base with Gmd.bugs = Gmd.all_bugs }

let test_self_death_bug () =
  (* drop compsun3's heartbeats to itself: the buggy daemon announces
     its own death, stays in the group marked down, and breaks
     proclaim forwarding *)
  let config = buggy Gmd.default_config in
  let sim, _net, node = cluster ~n:3 ~config () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 40) (fun () ->
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] == "compsun3"} {
  xDrop cur_msg
}
|}));
  Sim.run ~until:(Vtime.sec 120) sim;
  let gn = node "compsun3" in
  Alcotest.(check bool) "self-dead event traced" true
    (Trace.count ~node:"compsun3" ~tag:"gmp.self-dead" (Sim.trace sim) >= 1);
  Alcotest.(check bool) "marked down, not singleton" true (Gmd.self_marked_down gn.gmd);
  Alcotest.(check bool) "stayed in old group (bug)" true
    (List.length (members_of gn) > 1)

let test_self_death_fixed () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  let installed = ref false in
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 40) (fun () ->
         installed := true;
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] == "compsun3"} {
  xDrop cur_msg
}
|}));
  Sim.run ~until:(Vtime.sec 120) sim;
  ignore !installed;
  let gn = node "compsun3" in
  Alcotest.(check bool) "no buggy self-dead state" false (Gmd.self_marked_down gn.gmd);
  Alcotest.(check bool) "formed singleton at some point" true
    (Trace.count ~node:"compsun3" ~tag:"gmp.singleton" (Sim.trace sim) >= 2)

let test_proclaim_forwarding_bug_loops () =
  let config = { Gmd.default_config with Gmd.bugs = { Gmd.no_bugs with Gmd.proclaim_reply_to_sender = true } } in
  let sim, _net, node = cluster ~n:3 ~config () in
  (* form a group of 1 and 2 first; compsun3 arrives later and its
     proclaims to the leader are dropped, so only the crown prince
     forwards them *)
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "PROCLAIM" && [msg_attr cur_msg net.dst] == "compsun1"} {
  xDrop cur_msg
}
|};
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 45) sim;
  (* the vicious cycle: forwarder and leader bounce proclaims *)
  let forwards = Trace.count ~node:"compsun2" ~tag:"gmp.proclaim-fwd" (Sim.trace sim) in
  Alcotest.(check bool) "proclaim loop detected" true (forwards > 20);
  Alcotest.(check bool) "compsun3 never admitted" true
    (not (List.mem 3 (members_of (node "compsun1"))))

let test_proclaim_forwarding_fixed () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "PROCLAIM" && [msg_attr cur_msg net.dst] == "compsun1"} {
  xDrop cur_msg
}
|};
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 120) sim;
  Alcotest.(check (list int)) "admitted via forwarded proclaim" [ 1; 2; 3 ]
    (members_of (node "compsun1"));
  let forwards = Trace.count ~node:"compsun2" ~tag:"gmp.proclaim-fwd" (Sim.trace sim) in
  Alcotest.(check bool) "no loop" true (forwards < 20)

let timer_test_filter = {|
set t [msg_type cur_msg]
if {$t == "MEMBERSHIP_CHANGE"} {
  set mc_seen [expr {[bb_get mc2_seen 0] + 1}]
  bb_set mc2_seen $mc_seen
  if {$mc_seen >= 2} { bb_set dropping 1 }
}
if {[bb_get dropping 0] == 1 && ($t == "COMMIT" || $t == "HEARTBEAT")} {
  xDrop cur_msg
}
|}

let test_timer_unset_bug () =
  let config = { Gmd.default_config with Gmd.bugs = { Gmd.no_bugs with Gmd.timer_unset_inverted = true } } in
  let sim, _net, node = cluster ~n:3 ~config () in
  (* compsun2 joins one group; on the second membership change it drops
     COMMIT and heartbeats: with the bug, a heartbeat-expect timer fires
     while in transition *)
  Pfi_layer.set_receive_filter (node "compsun2").pfi timer_test_filter;
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 60) sim;
  Alcotest.(check bool) "spurious timeout in transition (bug)" true
    (Trace.count ~node:"compsun2" ~tag:"gmp.spurious-timeout" (Sim.trace sim) >= 1)

let test_timer_unset_fixed () =
  let sim, _net, node = cluster ~n:3 () in
  Pfi_layer.set_receive_filter (node "compsun2").pfi timer_test_filter;
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 60) sim;
  Alcotest.(check int) "no spurious timeouts" 0
    (Trace.count ~node:"compsun2" ~tag:"gmp.spurious-timeout" (Sim.trace sim))

let test_armed_timers_introspection () =
  let sim, _net, node = cluster ~n:2 () in
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  Sim.run ~until:(Vtime.sec 30) sim;
  let timers = Gmd.armed_timers (node "compsun1").gmd in
  Alcotest.(check bool) "hb_send armed" true (List.mem "hb_send" timers);
  Alcotest.(check bool) "expect_2 armed" true (List.mem "expect_2" timers)

(* --- GMP stub ----------------------------------------------------- *)

let test_gmp_stub () =
  let m =
    Gmp_msg.make ~mtype:Gmp_msg.Commit ~origin:1 ~sender:1 ~group_id:7
      ~members:[ 1; 2 ] ()
  in
  let wire = Message.create (Rel_udp.wrap_raw (Gmp_msg.encode m)) in
  Alcotest.(check string) "type through rel header" "COMMIT"
    (Gmp_stub.stub.Stubs.msg_type wire);
  Alcotest.(check (option string)) "origin" (Some "1")
    (Gmp_stub.stub.Stubs.get_field wire "origin");
  Alcotest.(check (option string)) "members" (Some "1,2")
    (Gmp_stub.stub.Stubs.get_field wire "members")

let test_gmp_stub_generate () =
  match
    Gmp_stub.stub.Stubs.generate
      [ ("type", "PROCLAIM"); ("origin", "9"); ("sender", "9"); ("dst", "compsun1") ]
  with
  | Some msg ->
    Alcotest.(check string) "generated type" "PROCLAIM"
      (Gmp_stub.stub.Stubs.msg_type msg)
  | None -> Alcotest.fail "generate failed"

(* ------------------------------------------------------------------ *)
(* The proclaim-forwarding storm trial                                *)
(* ------------------------------------------------------------------ *)

(* The stock gmp-buggy campaign's send-side "delay each PROCLAIM by
   1.5s" trial: after the filter clears at 300 s, the Table 7 loop runs
   reliable PROCLAIMs back and forth until the horizon, so most of the
   campaign's events — and allocation — happen here, on the plain
   gmd -> rel_udp -> netsim path.  Its event and trace counts are pinned
   to catch any change to what the trial does, and its minor-heap words
   per fired event to catch the per-message path growing again.  It
   runs twice: capturing its trace, as [--trace-out] does, and as a
   plain campaign trial does, counting entries without storing them
   while gmp's monitors decide the verdict.  Each ceiling is 10% above
   the words/event measured in the dev profile (captured 47.9, lean
   41.4; the release profile allocates about 4 words/event less). *)
let storm_words_per_event_ceiling = 52.7
let lean_storm_words_per_event_ceiling = 45.5

(* the verdict both runs must reach, byte for byte: the recording index
   a counting trace cites is the one the stored trace holds *)
let storm_violation =
  "oracle count(tag=gmp.proclaim-fwd) <= 100: count(tag=gmp.proclaim-fwd) = 75000, \
   expected <= 100; last match #227804 @450.000s n2 gmp.proclaim-fwd \
   \"origin=1 -> leader=1 (loop)\""

let storm_trial ?arm ~capture_trace () =
  let open Pfi_testgen in
  let ((module H : Harness_intf.HARNESS) as h) =
    Gmp_harness.harness ~bugs:Gmd.all_bugs ()
  in
  let fault = Generator.Delay_each ("PROCLAIM", 1.5) in
  let side = Campaign.Send_filter in
  let seed = Campaign.trial_seed ~campaign_seed:H.default_seed ~side fault in
  let w0 = Gc.minor_words () in
  let o =
    Campaign.run_trial ~capture_trace h ~horizon:H.default_horizon
      (Campaign.trial ?arm ~seed ~side fault)
  in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "sim events" 305_216 o.Campaign.sim_events;
  Alcotest.(check int) "injected events" 777 o.Campaign.injected_events;
  (match o.Campaign.verdict with
   | Campaign.Violation reason -> Alcotest.(check string) "verdict" storm_violation reason
   | Campaign.Tolerated -> Alcotest.fail "the storm trial must violate");
  (o, words /. float_of_int o.Campaign.sim_events)

let check_ceiling per_event ceiling =
  if per_event > ceiling then
    Alcotest.failf "%.2f minor words per event, ceiling %.1f" per_event ceiling

let test_storm_trial_counters () =
  let o, per_event = storm_trial ~capture_trace:true () in
  Alcotest.(check int) "trace entries" 227_806
    (match o.Pfi_testgen.Campaign.trace with Some tr -> Trace.length tr | None -> -1);
  check_ceiling per_event storm_words_per_event_ceiling

let test_lean_storm_trial () =
  let sim = ref None in
  let o, per_event =
    storm_trial ~arm:(fun s _ -> sim := Some s) ~capture_trace:false ()
  in
  Alcotest.(check bool) "no trace on the outcome" true (o.Pfi_testgen.Campaign.trace = None);
  let trace = Sim.trace (Option.get !sim) in
  Alcotest.(check int) "trace entries" 227_806 (Trace.length trace);
  Alcotest.(check int) "proclaim-fwd entries" 75_000
    (Trace.count ~tag:"gmp.proclaim-fwd" trace);
  Alcotest.(check bool) "a counting trace refuses reads" true
    (match Trace_lists.find ~tag:"gmp.proclaim-fwd" trace with
     | _ -> false
     | exception Invalid_argument _ -> true);
  let words = Obj.reachable_words (Obj.repr trace) in
  if words >= 10_000 then Alcotest.failf "the counting trace holds %d words" words;
  check_ceiling per_event lean_storm_words_per_event_ceiling

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "rel basic" `Quick test_rel_basic;
    Alcotest.test_case "rel ACK cancels the retry" `Quick test_rel_ack_cancels_retry;
    Alcotest.test_case "rel retransmits" `Quick test_rel_retransmits_through_loss;
    Alcotest.test_case "rel dedups" `Quick test_rel_dedups;
    Alcotest.test_case "rel gives up" `Quick test_rel_gives_up;
    Alcotest.test_case "group formation" `Quick test_group_formation;
    Alcotest.test_case "views agree" `Quick test_views_agree_on_gid;
    Alcotest.test_case "crash detected" `Quick test_crash_detected;
    Alcotest.test_case "crown prince takeover" `Quick test_leader_crash_crown_prince;
    Alcotest.test_case "partition and remerge" `Quick test_partition_and_remerge;
    Alcotest.test_case "suspend/resume" `Quick test_suspend_resume_like_timeout;
    Alcotest.test_case "self-death bug" `Quick test_self_death_bug;
    Alcotest.test_case "self-death fixed" `Quick test_self_death_fixed;
    Alcotest.test_case "proclaim forwarding bug loops" `Quick test_proclaim_forwarding_bug_loops;
    Alcotest.test_case "proclaim forwarding fixed" `Quick test_proclaim_forwarding_fixed;
    Alcotest.test_case "proclaim storm trial counters" `Quick test_storm_trial_counters;
    Alcotest.test_case "proclaim storm trial stores no trace" `Quick test_lean_storm_trial;
    Alcotest.test_case "timer unset bug" `Quick test_timer_unset_bug;
    Alcotest.test_case "timer unset fixed" `Quick test_timer_unset_fixed;
    Alcotest.test_case "armed timers introspection" `Quick test_armed_timers_introspection;
    Alcotest.test_case "gmp stub recognition" `Quick test_gmp_stub;
    Alcotest.test_case "gmp stub generation" `Quick test_gmp_stub_generate;
  ]
