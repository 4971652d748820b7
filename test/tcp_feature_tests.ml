(* Tests for the Reno-era TCP feature (fast retransmit) and direct coverage of smaller pieces the bigger suites only exercise
   indirectly: the IP-lite layer, the stub registry, the blackboard, and
   vendor keep-alive probe formats. *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core
open Pfi_tcp

(* a client whose stack includes a PFI layer, so segments can be faulted *)
let setup_with_pfi ?(client_profile = Profile.xkernel) () =
  let sim = Sim.create ~seed:23L () in
  let net = Network.create sim in
  let client = Tcp.create ~sim ~node:"client" ~profile:client_profile () in
  let pfi = Pfi_layer.create ~sim ~node:"client" ~stub:Tcp_stub.stub () in
  let c_ip = Ip_lite.create ~node:"client" in
  let c_dev = Network.attach net ~node:"client" in
  Layer.stack [ Tcp.layer client; Pfi_layer.layer pfi; c_ip; c_dev ];
  let server = Tcp.create ~sim ~node:"server" ~profile:Profile.xkernel () in
  let s_ip = Ip_lite.create ~node:"server" in
  let s_dev = Network.attach net ~node:"server" in
  Layer.stack [ Tcp.layer server; s_ip; s_dev ];
  Tcp.listen server ~port:80;
  let sconn = ref None in
  Tcp.on_accept server (fun c -> sconn := Some c);
  let conn = Tcp.connect client ~dst:"server" ~dst_port:80 () in
  Sim.run ~until:(Vtime.sec 10) sim;
  (sim, net, pfi, conn, Option.get !sconn)

(* ------------------------------------------------------------------ *)
(* Fast retransmit                                                    *)
(* ------------------------------------------------------------------ *)

(* drop exactly the first outgoing DATA segment *)
let drop_first_data =
  {|
if {[msg_type cur_msg] == "DATA" && ![info exists dropped]} {
  set dropped 1
  xDrop cur_msg
}
|}

let test_fast_retransmit () =
  let sim, _net, pfi, conn, sconn = setup_with_pfi () in
  let got = Buffer.create 1024 in
  Tcp.on_data sconn (Buffer.add_string got);
  Pfi_layer.set_send_filter pfi drop_first_data;
  let t0 = Sim.now sim in
  for _ = 1 to 6 do
    Tcp.send conn (String.make 100 'x')
  done;
  Sim.run sim;
  Alcotest.(check int) "all data recovered" 600 (Buffer.length got);
  Alcotest.(check bool) "fast retransmit fired" true
    (Trace.count ~node:"client" ~tag:"tcp.fast-retransmit" (Sim.trace sim) >= 1);
  (* recovery via dup ACKs, far sooner than the >= 1 s timer would allow *)
  Alcotest.(check bool) "recovered before the retransmission timer" true
    Vtime.(Vtime.sub (Sim.now sim) t0 < Vtime.ms 500)

let test_fast_retransmit_disabled () =
  let profile = { Profile.xkernel with Profile.fast_retransmit = false } in
  let sim, _net, pfi, conn, sconn = setup_with_pfi ~client_profile:profile () in
  let got = Buffer.create 1024 in
  Tcp.on_data sconn (Buffer.add_string got);
  Pfi_layer.set_send_filter pfi drop_first_data;
  for _ = 1 to 6 do
    Tcp.send conn (String.make 100 'x')
  done;
  Sim.run sim;
  Alcotest.(check int) "one DATA segment dropped" 1
    (Pfi_layer.send_stats pfi).Pfi_layer.dropped;
  Alcotest.(check int) "recovered by the timer instead" 600 (Buffer.length got);
  Alcotest.(check int) "no fast retransmit" 0
    (Trace.count ~node:"client" ~tag:"tcp.fast-retransmit" (Sim.trace sim))

let test_zero_window_acks_dont_trigger_fr () =
  (* window-0 probe ACKs repeat snd_una but must not count as dup ACKs *)
  let sim, _net, _pfi, conn, sconn = setup_with_pfi () in
  Tcp.set_auto_consume sconn false;
  Tcp.send conn (String.make 4096 'x');
  Sim.run ~until:(Vtime.add (Sim.now sim) (Vtime.sec 5)) sim;
  Tcp.send conn "blocked";
  Sim.run ~until:(Vtime.add (Sim.now sim) (Vtime.minutes 10)) sim;
  Alcotest.(check int) "no fast retransmit from probe ACKs" 0
    (Trace.count ~node:"client" ~tag:"tcp.fast-retransmit" (Sim.trace sim))

(* ------------------------------------------------------------------ *)
(* IP-lite                                                            *)
(* ------------------------------------------------------------------ *)

let test_ip_header_roundtrip () =
  let msg = Message.of_string "payload" in
  Message.set_attr msg Network.dst_attr "bob";
  let received = ref None in
  let ip = Ip_lite.create ~node:"alice" in
  let sink =
    Layer.create ~name:"sink" ~node:"alice"
      { on_push = (fun _ m -> received := Some (Bytes.copy (Message.payload m)));
        on_pop = (fun _ _ -> ()) }
  in
  Layer.link ~upper:ip ~lower:sink;
  Layer.push ip msg;
  match !received with
  | None -> Alcotest.fail "nothing transmitted"
  | Some wire ->
    Alcotest.(check int) "header prepended"
      (Ip_lite.header_size + 7) (Bytes.length wire);
    (match Ip_lite.decode_header wire with
     | Ok (src, dst, ttl) ->
       Alcotest.(check string) "src" "alice" src;
       Alcotest.(check string) "dst" "bob" dst;
       Alcotest.(check bool) "ttl positive" true (ttl > 0)
     | Error e -> Alcotest.failf "decode: %s" e)

let test_ip_discards_foreign () =
  let delivered = ref 0 in
  let ip = Ip_lite.create ~node:"carol" in
  let top =
    Layer.create ~name:"top" ~node:"carol"
      { on_push = (fun t m -> Layer.send_down t m);
        on_pop = (fun _ _ -> incr delivered) }
  in
  Layer.link ~upper:top ~lower:ip;
  (* a packet addressed to someone else climbs carol's stack *)
  let stray = Message.of_string "payload" in
  Message.set_attr stray Network.dst_attr "dave";
  let ip_src =
    let sender = Ip_lite.create ~node:"mallory" in
    let captured = ref None in
    let sink =
      Layer.create ~name:"sink" ~node:"mallory"
        { on_push = (fun _ m -> captured := Some m); on_pop = (fun _ _ -> ()) }
    in
    Layer.link ~upper:sender ~lower:sink;
    Layer.push sender stray;
    Option.get !captured
  in
  Layer.pop ip ip_src;
  Alcotest.(check int) "not for us: dropped" 0 !delivered

(* ------------------------------------------------------------------ *)
(* Blackboard                                                         *)
(* ------------------------------------------------------------------ *)

let test_blackboard () =
  let bb = Blackboard.create () in
  Alcotest.(check (option string)) "empty" None (Blackboard.get bb "k");
  Blackboard.set bb "k" "v";
  Alcotest.(check (option string)) "set" (Some "v") (Blackboard.get bb "k");
  Alcotest.(check string) "default" "d" (Blackboard.get_default bb "x" ~default:"d");
  Alcotest.(check int) "incr from missing" 1 (Blackboard.incr bb "n");
  Alcotest.(check int) "incr again" 2 (Blackboard.incr bb "n");
  Blackboard.remove bb "k";
  Alcotest.(check (option string)) "removed" None (Blackboard.get bb "k");
  Alcotest.(check (list string)) "keys" [ "n" ] (Blackboard.keys bb);
  Blackboard.clear bb;
  Alcotest.(check (list string)) "cleared" [] (Blackboard.keys bb)

(* ------------------------------------------------------------------ *)
(* Keep-alive probe formats (SunOS garbage byte vs AIX/NeXT none)     *)
(* ------------------------------------------------------------------ *)

let probe_payload_len profile =
  let sim = Sim.create ~seed:31L () in
  let net = Network.create sim in
  let client = Tcp.create ~sim ~node:"client" ~profile () in
  let c_ip = Ip_lite.create ~node:"client" in
  let c_dev = Network.attach net ~node:"client" in
  Layer.stack [ Tcp.layer client; c_ip; c_dev ];
  let server = Tcp.create ~sim ~node:"server" ~profile:Profile.xkernel () in
  let s_ip = Ip_lite.create ~node:"server" in
  let s_dev = Network.attach net ~node:"server" in
  Layer.stack [ Tcp.layer server; s_ip; s_dev ];
  Tcp.listen server ~port:80;
  let conn = Tcp.connect client ~dst:"server" ~dst_port:80 () in
  Sim.run ~until:(Vtime.sec 10) sim;
  Tcp.set_keepalive conn true;
  Sim.run ~until:(Vtime.sec 7300) sim;
  (* find the probe in the client's outbound trace: seq = snd_nxt - 1 *)
  let entries = Trace_lists.find ~node:"client" ~tag:"tcp.keepalive-probe" (Sim.trace sim) in
  Alcotest.(check bool) "a probe was sent" true (entries <> []);
  (* read the probe length out of the tcp.out record that follows *)
  let outs = Trace_lists.find ~node:"client" ~tag:"tcp.out" (Sim.trace sim) in
  let probe_time = (List.hd entries).Trace.time in
  let probe_out =
    List.find (fun e -> Vtime.equal e.Trace.time probe_time) outs
  in
  (* detail ends with "len=N" *)
  let detail = Trace.detail probe_out in
  let len_str =
    let i = String.rindex detail '=' in
    String.sub detail (i + 1) (String.length detail - i - 1)
  in
  int_of_string len_str

let test_keepalive_formats () =
  Alcotest.(check int) "SunOS probe carries 1 garbage byte" 1
    (probe_payload_len Profile.sunos_413);
  Alcotest.(check int) "AIX probe carries no data" 0
    (probe_payload_len Profile.aix_323);
  Alcotest.(check int) "NeXT probe carries no data" 0
    (probe_payload_len Profile.next_mach)

let suite =
  [
    Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
    Alcotest.test_case "fast retransmit disabled" `Quick test_fast_retransmit_disabled;
    Alcotest.test_case "probe ACKs don't trigger FR" `Quick
      test_zero_window_acks_dont_trigger_fr;
    Alcotest.test_case "ip header roundtrip" `Quick test_ip_header_roundtrip;
    Alcotest.test_case "ip discards foreign packets" `Quick test_ip_discards_foreign;
    Alcotest.test_case "blackboard" `Quick test_blackboard;
    Alcotest.test_case "keep-alive probe formats" `Quick test_keepalive_formats;
  ]
