(* Tests for the PFI layer: script filters, manipulation primitives,
   injection, cross-interpreter state, and failure models. *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core

type endpoint = { driver : Driver.t; pfi : Pfi_layer.t }

let make_node ?stub ?blackboard net name =
  let sim = Network.sim net in
  let driver = Driver.create ~node:name () in
  let pfi = Pfi_layer.create ~sim ~node:name ?stub ?blackboard () in
  let device = Network.attach net ~node:name in
  Layer.stack [ Driver.layer driver; Pfi_layer.layer pfi; device ];
  { driver; pfi }

let setup ?stub () =
  let sim = Sim.create ~seed:7L () in
  let net = Network.create sim in
  let bb = Blackboard.create () in
  let a = make_node ?stub ~blackboard:bb net "a" in
  let b = make_node ?stub ~blackboard:bb net "b" in
  Pfi_layer.connect [ a.pfi; b.pfi ];
  (sim, net, a, b)

let send ep ~dst text =
  let msg = Message.of_string text in
  Message.set_attr msg Network.dst_attr dst;
  Driver.send ep.driver msg

let received_texts ep = List.map Message.to_string (Driver.received ep.driver)

(* a stub that reads the first byte as a type tag, for type-based filtering *)
let tagged_stub =
  { Stubs.protocol = "tagged";
    msg_type =
      (fun msg ->
        if Message.length msg = 0 then "?"
        else
          match Bytes.get (Message.payload msg) 0 with
          | 'A' -> "ACK"
          | 'D' -> "DATA"
          | _ -> "?");
    describe = (fun msg -> "tagged " ^ Message.to_string msg);
    get_field =
      (fun msg field ->
        if String.equal field "body" && Message.length msg > 1 then
          Some (String.sub (Message.to_string msg) 1 (Message.length msg - 1))
        else None);
    set_field = (fun _ _ _ -> false);
    generate =
      (fun args ->
        match List.assoc_opt "body" args with
        | Some body -> Some (Message.of_string body)
        | None -> None);
    fields = (fun msg -> [ ("len", string_of_int (Message.length msg)) ]) }

(* ------------------------------------------------------------------ *)
(* Pass-through and basic verdicts                                    *)
(* ------------------------------------------------------------------ *)

let test_default_pass () =
  let sim, _net, a, b = setup () in
  send a ~dst:"b" "hello";
  Sim.run sim;
  Alcotest.(check (list string)) "no filters => passes" [ "hello" ] (received_texts b);
  Alcotest.(check int) "send stat" 1 (Pfi_layer.send_stats a.pfi).Pfi_layer.passed

let test_script_drop () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "xDrop cur_msg";
  send a ~dst:"b" "doomed";
  Sim.run sim;
  Alcotest.(check (list string)) "dropped" [] (received_texts b);
  Alcotest.(check int) "drop stat" 1 (Pfi_layer.send_stats a.pfi).Pfi_layer.dropped

let test_receive_filter_drop () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_receive_filter b.pfi "xDrop cur_msg";
  send a ~dst:"b" "doomed";
  Sim.run sim;
  Alcotest.(check (list string)) "dropped on receive" [] (received_texts b);
  Alcotest.(check int) "recv drop stat" 1
    (Pfi_layer.receive_stats b.pfi).Pfi_layer.dropped

let test_script_delay () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "xDelay cur_msg 3.0";
  let arrival = ref Vtime.zero in
  Driver.set_on_receive b.driver (fun _ -> arrival := Sim.now sim);
  send a ~dst:"b" "slow";
  Sim.run sim;
  (* 3 s script delay + 1 ms default link latency *)
  Alcotest.(check bool) "delayed 3s" true
    (Vtime.equal !arrival (Vtime.add (Vtime.sec 3) (Vtime.ms 1)))

let test_script_duplicate () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "xDup cur_msg 2";
  send a ~dst:"b" "echo";
  Sim.run sim;
  Alcotest.(check (list string)) "original + 2 dups"
    [ "echo"; "echo"; "echo" ] (received_texts b)

let test_dup_delivers_original_first () =
  (* the original must be the first arrival; copies follow it.  A sink
     layer below the PFI records physical message identity, which the
     network would not preserve. *)
  let sim = Sim.create ~seed:1L () in
  let pfi = Pfi_layer.create ~sim ~node:"n" () in
  let seen = ref [] in
  let sink =
    Layer.create ~name:"sink" ~node:"n"
      { on_push = (fun _ msg -> seen := msg :: !seen); on_pop = (fun _ _ -> ()) }
  in
  Layer.link ~upper:(Pfi_layer.layer pfi) ~lower:sink;
  Pfi_layer.set_send_filter pfi "xDup cur_msg 2";
  let msg = Message.of_string "orig" in
  Layer.push (Pfi_layer.layer pfi) msg;
  Sim.run sim;
  match List.rev !seen with
  | [ first; c1; c2 ] ->
    Alcotest.(check bool) "original delivered first" true (first == msg);
    Alcotest.(check bool) "copies are fresh messages" true (c1 != msg && c2 != msg)
  | l -> Alcotest.fail (Printf.sprintf "expected 3 deliveries, got %d" (List.length l))

let test_dup_survives_dropped_original () =
  (* duplicating then dropping keeps the copies travelling but accounts
     for them as orphans, distinct from duplicates of a delivered
     original *)
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "xDup cur_msg 2\nxDrop cur_msg";
  send a ~dst:"b" "ghost";
  Sim.run sim;
  Alcotest.(check (list string)) "copies travel" [ "ghost"; "ghost" ] (received_texts b);
  let s = Pfi_layer.send_stats a.pfi in
  Alcotest.(check int) "dropped" 1 s.Pfi_layer.dropped;
  Alcotest.(check int) "duplicated" 2 s.Pfi_layer.duplicated;
  Alcotest.(check int) "orphans" 2 s.Pfi_layer.dup_orphans;
  Alcotest.(check int) "not passed" 0 s.Pfi_layer.passed

let test_script_corrupt () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "xCorrupt cur_msg 0";
  send a ~dst:"b" "x";
  Sim.run sim;
  (match received_texts b with
   | [ s ] ->
     Alcotest.(check int) "bit-flipped first byte"
       (lnot (Char.code 'x') land 0xff)
       (Char.code s.[0])
   | _ -> Alcotest.fail "expected one delivery");
  Alcotest.(check int) "modified stat" 1 (Pfi_layer.send_stats a.pfi).Pfi_layer.modified

(* ------------------------------------------------------------------ *)
(* Type-based filtering (the paper's canonical example)               *)
(* ------------------------------------------------------------------ *)

let test_drop_by_type () =
  let sim, _net, a, b = setup ~stub:tagged_stub () in
  Pfi_layer.set_send_filter a.pfi
    {|
set type [msg_type cur_msg]
if {$type == "ACK"} {
  xDrop cur_msg
}
|};
  send a ~dst:"b" "A:ack1";
  send a ~dst:"b" "D:data1";
  send a ~dst:"b" "A:ack2";
  send a ~dst:"b" "D:data2";
  Sim.run sim;
  Alcotest.(check (list string)) "only DATA passes"
    [ "D:data1"; "D:data2" ] (received_texts b)

let test_counting_state_persists () =
  (* the paper's "allow thirty packets through, then drop" pattern *)
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi
    {|
if {![info exists count]} { set count 0 }
incr count
if {$count > 3} { xDrop cur_msg }
|};
  for i = 1 to 6 do
    send a ~dst:"b" (Printf.sprintf "m%d" i)
  done;
  Sim.run sim;
  Alcotest.(check (list string)) "first three pass" [ "m1"; "m2"; "m3" ]
    (received_texts b)

(* ------------------------------------------------------------------ *)
(* Hold / release (reordering)                                        *)
(* ------------------------------------------------------------------ *)

let test_hold_release_reorders () =
  let sim, _net, a, b = setup () in
  (* hold the first two messages; the third passes; the fourth triggers
     the release and is itself dropped — so the wire order becomes
     3, 1, 2: a deterministic reordering *)
  Pfi_layer.set_send_filter a.pfi
    {|
if {![info exists n]} { set n 0 }
incr n
if {$n <= 2} {
  xHold cur_msg q
} elseif {$n == 4} {
  xRelease q
  xDrop cur_msg
}
|};
  send a ~dst:"b" "first";
  send a ~dst:"b" "second";
  send a ~dst:"b" "third";
  send a ~dst:"b" "trigger";
  Sim.run sim;
  Alcotest.(check (list string)) "third passed then released FIFO"
    [ "third"; "first"; "second" ] (received_texts b)

let test_release_reverse () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi
    {|
if {![info exists n]} { set n 0 }
incr n
if {$n <= 2} { xHold cur_msg q }
|};
  send a ~dst:"b" "first";
  send a ~dst:"b" "second";
  Sim.run sim;
  Alcotest.(check string) "both held" "2" (Pfi_layer.eval_in a.pfi `Send "xHeldCount q");
  ignore (Pfi_layer.eval_in a.pfi `Send "xRelease -reverse q");
  Sim.run sim;
  Alcotest.(check (list string)) "released LIFO" [ "second"; "first" ]
    (received_texts b)

(* ------------------------------------------------------------------ *)
(* Injection                                                          *)
(* ------------------------------------------------------------------ *)

let test_inject_from_script () =
  let sim, _net, a, b = setup ~stub:tagged_stub () in
  (* on every DATA message, inject a spontaneous probe downward *)
  Pfi_layer.set_send_filter a.pfi
    {|
if {[msg_type cur_msg] == "DATA"} {
  set probe [msg_gen body "P:probe"]
  msg_set_attr $probe net.dst b
  inject_down $probe
}
|};
  send a ~dst:"b" "D:data";
  Sim.run sim;
  (* injection happens while the script runs, so the probe hits the
     wire just before cur_msg continues *)
  Alcotest.(check (list string)) "data + injected probe"
    [ "P:probe"; "D:data" ] (received_texts b);
  Alcotest.(check int) "inject stat" 1 (Pfi_layer.send_stats a.pfi).Pfi_layer.injected

let test_inject_up_host () =
  let sim, _net, _a, b = setup () in
  ignore (Pfi_layer.eval_in b.pfi `Receive "inject_up [msg_gen data spoofed]");
  Sim.run sim;
  Alcotest.(check (list string)) "delivered to driver above" [ "spoofed" ]
    (received_texts b)

let test_inject_delayed () =
  let sim, _net, a, b = setup () in
  let arrival = ref Vtime.zero in
  Driver.set_on_receive b.driver (fun _ -> arrival := Sim.now sim);
  ignore
    (Pfi_layer.eval_in a.pfi `Send
       "set m [msg_gen data later]\nmsg_set_attr $m net.dst b\ninject_down $m 5");
  Sim.run sim;
  Alcotest.(check bool) "arrives after 5s"
    true (Vtime.equal !arrival (Vtime.add (Vtime.sec 5) (Vtime.ms 1)))

(* ------------------------------------------------------------------ *)
(* Cross-interpreter and cross-node state                             *)
(* ------------------------------------------------------------------ *)

let test_peer_set () =
  (* the send filter tells the receive filter to start dropping — the
     paper's cross-interpreter communication example *)
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "peer_set dropping 1";
  Pfi_layer.set_receive_filter a.pfi
    {|
if {![info exists dropping]} { set dropping 0 }
if {$dropping} { xDrop cur_msg }
|};
  (* before any send from a, b->a traffic passes *)
  send b ~dst:"a" "before";
  Sim.run sim;
  send a ~dst:"b" "trigger";
  Sim.run sim;
  send b ~dst:"a" "after";
  Sim.run sim;
  Alcotest.(check (list string)) "receive filter now drops" [ "before" ]
    (received_texts a)

let test_node_set () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi {|node_set b receive mode drop_all|};
  Pfi_layer.set_receive_filter b.pfi
    {|
if {![info exists mode]} { set mode pass }
if {$mode == "drop_all"} { xDrop cur_msg }
|};
  send a ~dst:"b" "this message arms b's filter but is itself filtered after";
  Sim.run sim;
  Alcotest.(check (list string)) "b dropped it (mode set before wire delivery)"
    [] (received_texts b)

let test_blackboard_shared () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "bb_incr sent_total";
  Pfi_layer.set_send_filter b.pfi "bb_incr sent_total";
  send a ~dst:"b" "x";
  send b ~dst:"a" "y";
  send a ~dst:"b" "z";
  Sim.run sim;
  Alcotest.(check (option string)) "blackboard counted across nodes"
    (Some "3")
    (Blackboard.get (Pfi_layer.blackboard a.pfi) "sent_total")

let test_eval_in () =
  let sim, _net, a, b = setup () in
  ignore (Pfi_layer.eval_in a.pfi `Send "set threshold 2");
  Pfi_layer.set_send_filter a.pfi
    {|
if {![info exists n]} { set n 0 }
incr n
if {$n > $threshold} { xDrop cur_msg }
|};
  for i = 1 to 4 do
    send a ~dst:"b" (string_of_int i)
  done;
  Sim.run sim;
  Alcotest.(check (list string)) "threshold honoured" [ "1"; "2" ] (received_texts b)

(* ------------------------------------------------------------------ *)
(* Timers and time                                                    *)
(* ------------------------------------------------------------------ *)

let test_script_timer () =
  let sim, _net, a, b = setup () in
  (* after 10 s of virtual time, start dropping *)
  ignore
    (Pfi_layer.eval_in a.pfi `Send
       {|timer_set phase 10.0 {set dropping 1}
set dropping 0|});
  Pfi_layer.set_send_filter a.pfi "if {$dropping} {xDrop cur_msg}";
  send a ~dst:"b" "early";
  ignore (Sim.schedule sim ~delay:(Vtime.sec 20) (fun () -> send a ~dst:"b" "late"));
  Sim.run sim;
  Alcotest.(check (list string)) "late message dropped" [ "early" ] (received_texts b)

let test_now_command () =
  let sim, _net, a, _b = setup () in
  ignore (Sim.schedule sim ~delay:(Vtime.ms 1500) (fun () ->
      let v = Pfi_layer.eval_in a.pfi `Send "now" in
      Alcotest.(check string) "now in seconds" "1.500000" v));
  Sim.run sim

(* ------------------------------------------------------------------ *)
(* msg_log traces                                                     *)
(* ------------------------------------------------------------------ *)

let test_msg_log_records () =
  let sim, _net, a, b = setup ~stub:tagged_stub () in
  Pfi_layer.set_receive_filter b.pfi "msg_log cur_msg tcp.packet\nxDrop cur_msg";
  send a ~dst:"b" "D:one";
  send a ~dst:"b" "D:two";
  Sim.run sim;
  let entries = Trace_lists.find ~node:"b" ~tag:"tcp.packet" (Sim.trace sim) in
  Alcotest.(check int) "two log entries" 2 (List.length entries);
  match entries with
  | e :: _ ->
    Alcotest.(check bool) "describes the packet" true
      (String.length (Trace.detail e) > 0)
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Failure models                                                     *)
(* ------------------------------------------------------------------ *)

let test_crash_model () =
  let sim, _net, a, b = setup () in
  Failure_models.apply a.pfi [ Failure_models.Process_crash { at = Vtime.sec 10 } ];
  send a ~dst:"b" "before crash";
  ignore (Sim.schedule sim ~delay:(Vtime.sec 20) (fun () -> send a ~dst:"b" "after"));
  ignore (Sim.schedule sim ~delay:(Vtime.sec 20) (fun () -> send b ~dst:"a" "to dead"));
  Sim.run sim;
  Alcotest.(check (list string)) "sends stop at crash" [ "before crash" ]
    (received_texts b);
  Alcotest.(check (list string)) "receives stop at crash" [] (received_texts a)

let test_send_omission_model () =
  let sim, _net, a, b = setup () in
  Failure_models.apply a.pfi [ Failure_models.Send_omission { p = 0.5 } ];
  for _ = 1 to 400 do
    send a ~dst:"b" "x"
  done;
  Sim.run sim;
  let got = List.length (received_texts b) in
  Alcotest.(check bool) "roughly half omitted" true (got > 140 && got < 260)

let test_timing_model () =
  let sim, _net, a, b = setup () in
  Failure_models.apply a.pfi [ Failure_models.Timing { mean = 2.0; std = 0.0 } ];
  let arrival = ref Vtime.zero in
  Driver.set_on_receive b.driver (fun _ -> arrival := Sim.now sim);
  send a ~dst:"b" "x";
  Sim.run sim;
  Alcotest.(check bool) "delayed ~2s" true
    Vtime.(!arrival >= Vtime.sec 2 && !arrival < Vtime.ms 2100)

let test_byzantine_duplicates () =
  let sim, _net, a, b = setup () in
  Failure_models.apply a.pfi
    [ Failure_models.Byzantine { corrupt_p = 0.0; reorder_p = 0.0; duplicate_p = 1.0 } ];
  send a ~dst:"b" "dup me";
  Sim.run sim;
  Alcotest.(check int) "duplicated" 2 (List.length (received_texts b))

(* A model is a filter script like any generated fault, so clearing the
   filters heals it: each model is fully active at 20 s unless cleared. *)
let test_models_heal_on_clear () =
  let open Failure_models in
  List.iter
    (fun model ->
      let sim, _net, a, b = setup () in
      Failure_models.apply a.pfi [ model ];
      Failure_models.apply b.pfi [ model ];
      ignore
        (Sim.schedule sim ~delay:(Vtime.sec 10) (fun () ->
             List.iter
               (fun pfi ->
                 Pfi_layer.clear_send_filter pfi;
                 Pfi_layer.clear_receive_filter pfi)
               [ a.pfi; b.pfi ]));
      let arrivals = ref [] in
      Driver.set_on_receive b.driver (fun msg ->
          arrivals := (Sim.now sim, Message.to_string msg) :: !arrivals);
      ignore (Sim.schedule sim ~delay:(Vtime.sec 20) (fun () -> send a ~dst:"b" "x"));
      Sim.run sim;
      Alcotest.(check (list (pair int64 string)))
        (describe model ^ ": one unmodified arrival 1 ms after the send")
        [ (Vtime.to_us (Vtime.add (Vtime.sec 20) (Vtime.ms 1)), "x") ]
        (List.rev_map (fun (at, text) -> (Vtime.to_us at, text)) !arrivals))
    [ Process_crash { at = Vtime.sec 5 };
      Link_crash { at = Vtime.sec 5 };
      Send_omission { p = 1.0 };
      Receive_omission { p = 1.0 };
      General_omission { p_send = 1.0; p_recv = 1.0 };
      Timing { mean = 2.0; std = 0.0 };
      Byzantine { corrupt_p = 1.0; reorder_p = 1.0; duplicate_p = 1.0 } ]

let test_severity_order () =
  let open Failure_models in
  let crash = Process_crash { at = Vtime.zero } in
  let omission = Send_omission { p = 0.1 } in
  let byz = Byzantine { corrupt_p = 0.1; reorder_p = 0.1; duplicate_p = 0.1 } in
  Alcotest.(check bool) "byzantine > omission" true (more_severe byz omission);
  Alcotest.(check bool) "omission > crash" true (more_severe omission crash);
  Alcotest.(check bool) "crash not > byzantine" false (more_severe crash byz)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Structured observability                                           *)
(* ------------------------------------------------------------------ *)

let test_verdict_tracing () =
  let sim, _net, a, b = setup ~stub:tagged_stub () in
  Pfi_layer.set_trace_verdicts a.pfi true;
  Pfi_layer.set_send_filter a.pfi
    {|
if {[msg_type cur_msg] == "ACK"} { xDrop cur_msg }
|};
  send a ~dst:"b" "A:ack";
  send a ~dst:"b" "D:data";
  Sim.run sim;
  ignore (received_texts b);
  match Trace_lists.find ~node:"a" ~tag:"pfi.verdict" (Sim.trace sim) with
  | [ dropped; passed ] ->
    let field e k = Option.value (List.assoc_opt k e.Trace.fields) ~default:"?" in
    Alcotest.(check string) "dir" "send" (field dropped "dir");
    Alcotest.(check string) "dropped verdict" "drop" (field dropped "verdict");
    Alcotest.(check string) "dropped type" "ACK" (field dropped "type");
    Alcotest.(check string) "passed verdict" "pass" (field passed "verdict");
    Alcotest.(check string) "passed type" "DATA" (field passed "type")
  | evs ->
    Alcotest.fail (Printf.sprintf "expected two verdict events, got %d" (List.length evs))

let test_stats_snapshot () =
  let sim, _net, a, b = setup () in
  Pfi_layer.set_send_filter a.pfi "xDup cur_msg 1";
  send a ~dst:"b" "x";
  Sim.run sim;
  ignore (received_texts b);
  Pfi_layer.record_stats_snapshot a.pfi;
  match Trace_lists.last ~node:"a" ~tag:"pfi.stats" (Sim.trace sim) with
  | None -> Alcotest.fail "expected a pfi.stats entry"
  | Some e ->
    let field k = Option.value (List.assoc_opt k e.Trace.fields) ~default:"?" in
    Alcotest.(check string) "send.passed" "1" (field "send.passed");
    Alcotest.(check string) "send.duplicated" "1" (field "send.duplicated");
    Alcotest.(check string) "send.dup_orphans" "0" (field "send.dup_orphans");
    Alcotest.(check string) "recv.passed" "0" (field "recv.passed")

let test_script_error_fails_loudly () =
  let sim, _net, a, _b = setup () in
  Pfi_layer.set_send_filter a.pfi "this_command_does_not_exist";
  (* the filter runs synchronously in the send path *)
  ignore sim;
  match send a ~dst:"b" "x" with
  | () -> Alcotest.fail "expected failure from bad filter script"
  | exception Failure m ->
    Alcotest.(check bool) "mentions the script" true
      (contains_substring m "filter script error")

(* A delay in seconds whose microsecond count an [int] cannot hold (or
   NaN) is a script error naming the command; [int_of_float] would turn
   it into 0 and fire the delayed action at once. *)
let test_delay_out_of_range () =
  let run_filter script =
    let sim, _net, a, b = setup () in
    Pfi_layer.set_send_filter a.pfi script;
    ignore (Sim.schedule sim ~delay:(Vtime.sec 5) (fun () -> send a ~dst:"b" "x"));
    Sim.run ~until:(Vtime.hours 1) sim;
    (a, b)
  in
  List.iter
    (fun (cmd, script) ->
      List.iter
        (fun secs ->
          match run_filter (script secs) with
          | _ -> Alcotest.failf "%s: expected a script error" (script secs)
          | exception Failure m ->
            Alcotest.(check bool) (script secs ^ ": names the command") true
              (contains_substring m (cmd ^ ": delay out of range")))
        [ "1e13"; "1e300"; "inf"; "nan" ])
    [ ("xDelay", fun s -> "xDelay cur_msg " ^ s);
      ("inject_down", fun s -> "inject_down cur_msg " ^ s);
      ("inject_up", fun s -> "inject_up cur_msg " ^ s);
      ("timer_set", fun s -> "timer_set t " ^ s ^ " {set x 1}") ];
  let a, b = run_filter "xDelay cur_msg 1e12" in
  Alcotest.(check (list string)) "1e12 s is still a delay" [] (received_texts b);
  Alcotest.(check int) "delay stat" 1 (Pfi_layer.send_stats a.pfi).Pfi_layer.delayed

let suite =
  [
    Alcotest.test_case "default pass" `Quick test_default_pass;
    Alcotest.test_case "script drop (send)" `Quick test_script_drop;
    Alcotest.test_case "script drop (receive)" `Quick test_receive_filter_drop;
    Alcotest.test_case "script delay" `Quick test_script_delay;
    Alcotest.test_case "script duplicate" `Quick test_script_duplicate;
    Alcotest.test_case "duplicate delivers original first" `Quick
      test_dup_delivers_original_first;
    Alcotest.test_case "duplicates survive dropped original" `Quick
      test_dup_survives_dropped_original;
    Alcotest.test_case "script corrupt" `Quick test_script_corrupt;
    Alcotest.test_case "drop by message type" `Quick test_drop_by_type;
    Alcotest.test_case "filter state persists" `Quick test_counting_state_persists;
    Alcotest.test_case "hold/release reorders" `Quick test_hold_release_reorders;
    Alcotest.test_case "release reverse" `Quick test_release_reverse;
    Alcotest.test_case "script injection" `Quick test_inject_from_script;
    Alcotest.test_case "host inject_up" `Quick test_inject_up_host;
    Alcotest.test_case "delayed injection" `Quick test_inject_delayed;
    Alcotest.test_case "peer_set cross-interpreter" `Quick test_peer_set;
    Alcotest.test_case "node_set cross-node" `Quick test_node_set;
    Alcotest.test_case "blackboard shared" `Quick test_blackboard_shared;
    Alcotest.test_case "eval_in setup" `Quick test_eval_in;
    Alcotest.test_case "script timer" `Quick test_script_timer;
    Alcotest.test_case "now command" `Quick test_now_command;
    Alcotest.test_case "msg_log records" `Quick test_msg_log_records;
    Alcotest.test_case "crash model" `Quick test_crash_model;
    Alcotest.test_case "send omission model" `Quick test_send_omission_model;
    Alcotest.test_case "timing model" `Quick test_timing_model;
    Alcotest.test_case "byzantine duplicates" `Quick test_byzantine_duplicates;
    Alcotest.test_case "failure models heal on clear" `Quick test_models_heal_on_clear;
    Alcotest.test_case "severity order" `Quick test_severity_order;
    Alcotest.test_case "verdict tracing" `Quick test_verdict_tracing;
    Alcotest.test_case "stats snapshot" `Quick test_stats_snapshot;
    Alcotest.test_case "script errors fail loudly" `Quick test_script_error_fails_loudly;
    Alcotest.test_case "out-of-range delays are script errors" `Quick test_delay_out_of_range;
  ]
