(* Tests for the ABP target protocol, the MSC renderer, and the
   script-generation / campaign machinery (the paper's future work made
   concrete). *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_abp
open Pfi_testgen

(* ------------------------------------------------------------------ *)
(* ABP basics                                                         *)
(* ------------------------------------------------------------------ *)

type pair = { sim : Sim.t; net : Network.t; a : Abp.t; b : Abp.t }

let abp_pair ?bug_ignore_ack_bit () =
  let sim = Sim.create ~seed:3L () in
  let net = Network.create sim in
  let a = Abp.create ~sim ~node:"a" ~peer:"b" ?bug_ignore_ack_bit () in
  let dev_a = Network.attach net ~node:"a" in
  Layer.stack [ Abp.layer a; dev_a ];
  let b = Abp.create ~sim ~node:"b" ~peer:"a" ?bug_ignore_ack_bit () in
  let dev_b = Network.attach net ~node:"b" in
  Layer.stack [ Abp.layer b; dev_b ];
  { sim; net; a; b }

let test_abp_delivery () =
  let p = abp_pair () in
  Abp.send p.a "one";
  Abp.send p.a "two";
  Abp.send p.a "three";
  Sim.run ~until:(Vtime.sec 30) p.sim;
  Alcotest.(check (list string)) "in order" [ "one"; "two"; "three" ]
    (Abp.delivered p.b);
  Alcotest.(check int) "all acked" 0 (Abp.unacked p.a)

let test_abp_retransmits_through_loss () =
  let p = abp_pair () in
  Network.set_loss p.net ~src:"a" ~dst:"b" 0.5;
  Network.set_loss p.net ~src:"b" ~dst:"a" 0.5;
  for i = 1 to 10 do
    Abp.send p.a (string_of_int i)
  done;
  Sim.run ~until:(Vtime.minutes 5) p.sim;
  Alcotest.(check (list string)) "survives 50% loss both ways"
    (List.init 10 (fun i -> string_of_int (i + 1)))
    (Abp.delivered p.b);
  Alcotest.(check bool) "retransmissions happened" true
    (Trace.count ~node:"a" ~tag:"abp.retransmit" (Sim.trace p.sim) > 0)

let test_abp_no_duplicates_on_lost_acks () =
  let p = abp_pair () in
  Network.set_loss p.net ~src:"b" ~dst:"a" 0.7;
  Abp.send p.a "only once";
  Sim.run ~until:(Vtime.minutes 2) p.sim;
  Alcotest.(check (list string)) "exactly one delivery" [ "only once" ]
    (Abp.delivered p.b)

let test_abp_corruption_rejected () =
  let p = abp_pair () in
  (* corrupt the first two frames in flight via a PFI-free trick:
     deliver a corrupted copy directly *)
  let data = Bytes.of_string "XXXXXX" in
  let msg = Message.create data in
  Message.set_attr msg Network.src_attr "a";
  Layer.pop (Abp.layer p.b) msg;
  Sim.run p.sim;
  Alcotest.(check int) "bad frame traced" 1
    (Trace.count ~node:"b" ~tag:"abp.bad-frame" (Sim.trace p.sim));
  Alcotest.(check (list string)) "nothing delivered" [] (Abp.delivered p.b)

let test_abp_stub () =
  let s = Abp.stub in
  match s.Pfi_core.Stubs.generate [ ("type", "ACK"); ("bit", "1"); ("dst", "b") ] with
  | Some msg ->
    Alcotest.(check string) "type" "ACK" (s.Pfi_core.Stubs.msg_type msg);
    Alcotest.(check (option string)) "bit" (Some "1")
      (s.Pfi_core.Stubs.get_field msg "bit");
    Alcotest.(check bool) "set bit" true (s.Pfi_core.Stubs.set_field msg "bit" "0");
    Alcotest.(check (option string)) "bit rewritten" (Some "0")
      (s.Pfi_core.Stubs.get_field msg "bit")
  | None -> Alcotest.fail "generate failed"

(* ------------------------------------------------------------------ *)
(* MSC renderer                                                       *)
(* ------------------------------------------------------------------ *)

let test_msc_events () =
  let p = abp_pair () in
  let events = Msc.collect (Sim.trace p.sim) in
  Network.set_msc_enabled p.net true;
  Abp.send p.a "hello";
  Sim.run ~until:(Vtime.sec 10) p.sim;
  let events = events () in
  Alcotest.(check bool) "events recorded" true (List.length events >= 2);
  (match events with
   | first :: _ ->
     Alcotest.(check string) "src" "a" first.Msc.src;
     Alcotest.(check string) "dst" "b" first.Msc.dst;
     Alcotest.(check bool) "delivered" true (first.Msc.arrival <> None);
     Alcotest.(check bool) "labelled" true
       (String.length first.Msc.label > 0)
   | [] -> Alcotest.fail "no events")

let test_msc_drop_marked () =
  let p = abp_pair () in
  let events = Msc.collect (Sim.trace p.sim) in
  Network.set_msc_enabled p.net true;
  Network.block p.net ~src:"a" ~dst:"b";
  Abp.send p.a "lost";
  Sim.run ~until:(Vtime.ms 100) p.sim;
  match events () with
  | first :: _ ->
    Alcotest.(check bool) "drop has no arrival" true (first.Msc.arrival = None)
  | [] -> Alcotest.fail "no events"

let test_msc_render_two_nodes () =
  let p = abp_pair () in
  let events = Msc.collect (Sim.trace p.sim) in
  Network.set_msc_enabled p.net true;
  Abp.send p.a "ping";
  Sim.run ~until:(Vtime.sec 5) p.sim;
  let out = Format.asprintf "%a" (Msc.render ~nodes:[ "a"; "b" ]) (events ()) in
  Alcotest.(check bool) "ladder has arrows" true
    (String.exists (fun c -> c = '>') out && String.exists (fun c -> c = '|') out)

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_generated_scripts_parse () =
  List.iter
    (fun fault ->
      let script = Generator.script_of_fault fault in
      match Pfi_script.Parser.parse script with
      | _ -> ()
      | exception Pfi_script.Parser.Parse_error e ->
        Alcotest.failf "script for %S does not parse: %s" (Generator.describe fault) e)
    (Generator.campaign Spec.abp @ Generator.campaign Spec.tcp
     @ Generator.campaign Spec.gmp)

(* Property: every fault the generator can emit for a spec produces a
   script that not only parses but *installs* — compiles into a fresh
   PFI layer carrying the protocol's stub — on both filter sides,
   without raising.  This is what a repro's replay relies on: any
   recorded fault can always be re-armed. *)
let check_scripts_install ~stub spec =
  List.iter
    (fun fault ->
      let script = Generator.script_of_fault fault in
      let sim = Sim.create ~seed:5L () in
      let pfi = Pfi_core.Pfi_layer.create ~sim ~node:"install" ~stub () in
      match
        Pfi_core.Pfi_layer.set_send_filter pfi script;
        Pfi_core.Pfi_layer.set_receive_filter pfi script
      with
      | () -> ()
      | exception exn ->
        Alcotest.failf "script for %S does not install on a fresh %s layer: %s"
          (Generator.describe fault) spec.Spec.protocol (Printexc.to_string exn))
    (Generator.campaign spec)

let test_abp_scripts_install () =
  check_scripts_install ~stub:Pfi_abp.Abp.stub Spec.abp

let test_tcp_scripts_install () =
  check_scripts_install ~stub:Pfi_tcp.Tcp_stub.stub Spec.tcp

let test_gmp_scripts_install () =
  check_scripts_install ~stub:Pfi_gmp.Gmp_stub.stub Spec.gmp

let test_campaign_shape () =
  let faults = Generator.campaign Spec.abp in
  (* 2 message types x 6 faults + 1 spurious (ACK only) + omission_all
     + byzantine_mix *)
  Alcotest.(check int) "fault count" 15 (List.length faults);
  Alcotest.(check bool) "has spurious ACK injection" true
    (List.exists
       (function Generator.Inject_spurious (m, _) -> m.Spec.mtype = "ACK" | _ -> false)
       faults)

(* the compile-once fix: planning a campaign parses each fault script
   exactly once, and running a planned trial parses the (already
   compiled) filter zero further times.  [Parser.parse_count] is the
   process-wide counting hook; the nested-script parses an interpreter
   performs during evaluation are excluded by using a bracket-free
   filter for the run-side assertion. *)
let test_campaign_parse_count () =
  let (module H : Harness_intf.HARNESS) =
    Option.get (Registry.find "abp")
  in
  let before = Pfi_script.Parser.parse_count () in
  let plan = Campaign.plan (module H : Harness_intf.HARNESS) in
  let after_plan = Pfi_script.Parser.parse_count () in
  let faults = List.length (Generator.campaign ~target:H.target H.spec) in
  Alcotest.(check int) "plan parses each fault script once (not once per trial)"
    faults (after_plan - before);
  Alcotest.(check bool) "plan has more trials than faults" true
    (List.length plan.Campaign.p_trials > faults);
  (* a planned trial's script arrives compiled: no re-parse at install *)
  (* bracket-free no-op filter: evaluation parses no nested scripts *)
  let compiled = Pfi_script.Interp.compile "set unused 1" in
  let before_run = Pfi_script.Parser.parse_count () in
  let outcome =
    Campaign.run_trial
      (module H : Harness_intf.HARNESS)
      ~horizon:(Vtime.sec 30)
      (Campaign.trial ~script:compiled ~seed:7L ~side:Campaign.Send_filter
         (Generator.Drop_all "MSG"))
  in
  Alcotest.(check int) "running a precompiled trial parses nothing" 0
    (Pfi_script.Parser.parse_count () - before_run);
  Alcotest.(check bool) "trial produced a verdict" true
    (match outcome.Campaign.verdict with
     | Campaign.Tolerated | Campaign.Violation _ -> true)

(* regression: TCP's hyphenated "SYN-ACK" message type used to produce
   scripts where [$d_SYN-ACK] parsed as the variable [d_SYN] — every
   trial (and even the fault-free control) died with a script error.
   The generator now sanitises variable names; the whole campaign must
   run to verdicts. *)
let test_tcp_campaign_hyphenated_mtype () =
  let (module H : Harness_intf.HARNESS) =
    Option.get (Registry.find "tcp")
  in
  let outcomes =
    (Campaign.run (Campaign.plan (module H : Harness_intf.HARNESS)))
      .Campaign.s_outcomes
  in
  Alcotest.(check int) "all tcp trials ran" 120 (List.length outcomes);
  Alcotest.(check bool) "campaign exercises SYN-ACK faults" true
    (List.exists
       (fun o ->
         match o.Campaign.fault with
         | Generator.Drop_after (m, _) | Generator.Drop_first (m, _) ->
           String.equal m "SYN-ACK"
         | _ -> false)
       outcomes);
  List.iter
    (fun o ->
      match o.Campaign.verdict with
      | Campaign.Violation reason ->
        Alcotest.(check bool)
          (Printf.sprintf "no script errors in verdicts (%s)" reason)
          false
          (let needle = "script error" in
           let n = String.length needle and nr = String.length reason in
           let rec scan i =
             i + n <= nr
             && (String.equal (String.sub reason i n) needle || scan (i + 1))
           in
           scan 0)
      | Campaign.Tolerated -> ())
    outcomes

let test_spec_lookup () =
  Alcotest.(check (list string)) "abp vocabulary" [ "MSG"; "ACK" ]
    (Spec.message_types Spec.abp);
  Alcotest.(check bool) "ACK stateless" true
    (match Spec.find_message Spec.abp "ACK" with
     | Some m -> m.Spec.stateless
     | None -> false)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                          *)
(* ------------------------------------------------------------------ *)

let campaign h = (Campaign.run (Campaign.plan h)).Campaign.s_outcomes

(* [Error reason] when even the fault-free control trial violates the
   oracle (a finding in itself when bugs are implanted) *)
let gmp_campaign ?bugs () =
  match campaign (Gmp_harness.harness ?bugs ()) with
  | outcomes -> Ok outcomes
  | exception Campaign.Control_failure reason -> Error reason

let test_campaign_correct_abp_tolerates_everything () =
  let outcomes = campaign (Abp_harness.harness ()) in
  let bad = Campaign.violations outcomes in
  List.iter
    (fun o ->
      Alcotest.failf "correct ABP violated under %S: %s"
        (Generator.describe o.Campaign.fault)
        (match o.Campaign.verdict with
         | Campaign.Violation r -> r
         | Campaign.Tolerated -> ""))
    bad;
  Alcotest.(check int) "all trials ran" (15 * 3) (List.length outcomes);
  (* the faults actually fired: most trials injected something *)
  let active =
    List.length (List.filter (fun o -> o.Campaign.injected_events > 0) outcomes)
  in
  Alcotest.(check bool) "faults were exercised" true (active > 20)

let test_gmp_campaign_correct () =
  match gmp_campaign () with
  | Ok outcomes ->
    Alcotest.(check int) "no violations" 0
      (List.length (Campaign.violations outcomes));
    Alcotest.(check bool) "substantial trial count" true
      (List.length outcomes > 100)
  | Error reason -> Alcotest.failf "control trial failed: %s" reason

let test_gmp_campaign_finds_implanted_bugs () =
  match gmp_campaign ~bugs:Pfi_gmp.Gmd.all_bugs () with
  | Ok outcomes ->
    Alcotest.(check bool) "violations found" true
      (List.length (Campaign.violations outcomes) >= 5)
  | Error _reason ->
    (* the proclaim loop can already break the fault-free control — that
       is a finding too *)
    ()

let test_campaign_finds_implanted_abp_bug () =
  let outcomes = campaign (Abp_harness.harness ~bug_ignore_ack_bit:true ()) in
  let bad = Campaign.violations outcomes in
  Alcotest.(check bool) "the ignore-ack-bit bug is found" true (List.length bad >= 1)

let suite =
  [
    Alcotest.test_case "abp delivery" `Quick test_abp_delivery;
    Alcotest.test_case "abp survives loss" `Quick test_abp_retransmits_through_loss;
    Alcotest.test_case "abp dedups on lost acks" `Quick test_abp_no_duplicates_on_lost_acks;
    Alcotest.test_case "abp rejects corruption" `Quick test_abp_corruption_rejected;
    Alcotest.test_case "abp stub" `Quick test_abp_stub;
    Alcotest.test_case "msc events" `Quick test_msc_events;
    Alcotest.test_case "msc drops marked" `Quick test_msc_drop_marked;
    Alcotest.test_case "msc two-node ladder" `Quick test_msc_render_two_nodes;
    Alcotest.test_case "generated scripts parse" `Quick test_generated_scripts_parse;
    Alcotest.test_case "abp scripts install on fresh pfi layer" `Quick
      test_abp_scripts_install;
    Alcotest.test_case "tcp scripts install on fresh pfi layer" `Quick
      test_tcp_scripts_install;
    Alcotest.test_case "gmp scripts install on fresh pfi layer" `Quick
      test_gmp_scripts_install;
    Alcotest.test_case "campaign shape" `Quick test_campaign_shape;
    Alcotest.test_case "campaign compiles each fault script once" `Quick
      test_campaign_parse_count;
    Alcotest.test_case "tcp campaign survives hyphenated message types" `Slow
      test_tcp_campaign_hyphenated_mtype;
    Alcotest.test_case "spec lookup" `Quick test_spec_lookup;
    Alcotest.test_case "campaign: correct ABP tolerates all" `Slow
      test_campaign_correct_abp_tolerates_everything;
    Alcotest.test_case "campaign: implanted bug found" `Slow
      test_campaign_finds_implanted_abp_bug;
    Alcotest.test_case "campaign: correct GMP tolerates all" `Slow
      test_gmp_campaign_correct;
    Alcotest.test_case "campaign: implanted GMP bugs found" `Slow
      test_gmp_campaign_finds_implanted_bugs;
  ]
