(* Tests for the TCP substrate: sequence arithmetic, segment codec, and
   the protocol engine behaviours the paper's experiments probe. *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_tcp

(* ------------------------------------------------------------------ *)
(* Seq32                                                              *)
(* ------------------------------------------------------------------ *)

let test_seq32_wraparound () =
  let near_top = Seq32.of_int (Seq32.modulus - 10) in
  let wrapped = Seq32.add near_top 20 in
  Alcotest.(check int) "wraps" 10 wrapped;
  Alcotest.(check bool) "wrapped > near_top" true (Seq32.gt wrapped near_top);
  Alcotest.(check int) "diff across wrap" 20 (Seq32.diff wrapped near_top);
  Alcotest.(check int) "negative diff" (-20) (Seq32.diff near_top wrapped)

let test_seq32_window () =
  Alcotest.(check bool) "in window" true (Seq32.in_window 105 ~base:100 ~size:10);
  Alcotest.(check bool) "below window" false (Seq32.in_window 99 ~base:100 ~size:10);
  Alcotest.(check bool) "at end" false (Seq32.in_window 110 ~base:100 ~size:10);
  Alcotest.(check bool) "wrap window" true
    (Seq32.in_window 3 ~base:(Seq32.modulus - 5) ~size:10)

let prop_seq32_diff_inverse =
  QCheck.Test.make ~name:"seq32 add/diff inverse" ~count:500
    QCheck.(pair (int_bound (Seq32.modulus - 1)) (int_range (-1000000) 1000000))
    (fun (base, delta) ->
      let b = Seq32.of_int base in
      Seq32.diff (Seq32.add b delta) b = delta)

(* ------------------------------------------------------------------ *)
(* Segment codec                                                      *)
(* ------------------------------------------------------------------ *)

let seg ?(payload = "") ?(flags = Segment.flag_ack) ?(seq = 100) ?(ack = 200) () =
  Segment.make ~payload:(Bytes.of_string payload) ~src_port:1234 ~dst_port:80
    ~seq:(Seq32.of_int seq) ~ack:(Seq32.of_int ack) ~flags ~window:4096 ()

let test_segment_roundtrip () =
  let original = seg ~payload:"hello tcp" () in
  match Segment.decode (Segment.encode original) with
  | Ok decoded ->
    Alcotest.(check int) "sport" 1234 decoded.Segment.src_port;
    Alcotest.(check int) "dport" 80 decoded.Segment.dst_port;
    Alcotest.(check int) "seq" 100 decoded.Segment.seq;
    Alcotest.(check int) "ack" 200 decoded.Segment.ack;
    Alcotest.(check int) "window" 4096 decoded.Segment.window;
    Alcotest.(check string) "payload" "hello tcp"
      (Bytes.to_string decoded.Segment.payload);
    Alcotest.(check bool) "ack flag" true decoded.Segment.flags.Segment.ack
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_segment_checksum_detects_corruption () =
  let data = Segment.encode (seg ~payload:"payload" ()) in
  Bytes.set data 25 'X';
  match Segment.decode data with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted segment decoded successfully"

let test_segment_kinds () =
  Alcotest.(check string) "syn" "SYN" (Segment.kind (seg ~flags:Segment.flag_syn ()));
  Alcotest.(check string) "syn-ack" "SYN-ACK"
    (Segment.kind (seg ~flags:Segment.flag_syn_ack ()));
  Alcotest.(check string) "rst" "RST" (Segment.kind (seg ~flags:Segment.flag_rst ()));
  Alcotest.(check string) "fin" "FIN" (Segment.kind (seg ~flags:Segment.flag_fin_ack ()));
  Alcotest.(check string) "data" "DATA" (Segment.kind (seg ~payload:"x" ()));
  Alcotest.(check string) "ack" "ACK" (Segment.kind (seg ()))

let prop_segment_roundtrip =
  let gen =
    QCheck.(quad (int_bound 65535) (int_bound 65535)
              (int_bound (Seq32.modulus - 1))
              (string_gen_of_size (Gen.int_bound 64) Gen.char))
  in
  QCheck.Test.make ~name:"segment encode/decode roundtrip" ~count:300 gen
    (fun (sport, dport, seqno, payload) ->
      let original =
        Segment.make ~payload:(Bytes.of_string payload) ~src_port:sport
          ~dst_port:dport ~seq:seqno ~ack:(Seq32.of_int 7) ~flags:Segment.flag_ack
          ~window:1024 ()
      in
      match Segment.decode (Segment.encode original) with
      | Ok d ->
        d.Segment.src_port = sport && d.Segment.dst_port = dport
        && d.Segment.seq = seqno
        && Bytes.to_string d.Segment.payload = payload
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Engine scenarios                                                   *)
(* ------------------------------------------------------------------ *)

type host = { tcp : Tcp.t }

let make_host ~sim ~net ~name ~profile =
  let tcp = Tcp.create ~sim ~node:name ~profile () in
  let ip = Ip_lite.create ~node:name in
  let device = Network.attach net ~node:name in
  Layer.stack [ Tcp.layer tcp; ip; device ];
  { tcp }

let setup ?(client_profile = Profile.xkernel) ?(server_profile = Profile.xkernel) () =
  let sim = Sim.create ~seed:11L () in
  let net = Network.create sim in
  let client = make_host ~sim ~net ~name:"client" ~profile:client_profile in
  let server = make_host ~sim ~net ~name:"server" ~profile:server_profile in
  Tcp.listen server.tcp ~port:80;
  (sim, net, client, server)

let establish ?client_profile ?server_profile () =
  let sim, net, client, server = setup ?client_profile ?server_profile () in
  let server_conn = ref None in
  Tcp.on_accept server.tcp (fun c -> server_conn := Some c);
  let conn = Tcp.connect client.tcp ~dst:"server" ~dst_port:80 () in
  Sim.run sim;
  let sconn = match !server_conn with Some c -> c | None -> Alcotest.fail "no accept" in
  (sim, net, client, server, conn, sconn)

let test_handshake () =
  let _sim, _net, _client, _server, conn, sconn = establish () in
  Alcotest.(check string) "client established" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state conn));
  Alcotest.(check string) "server established" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state sconn))

let test_data_transfer () =
  let sim, _net, _client, _server, conn, sconn = establish () in
  let got = Buffer.create 64 in
  Tcp.on_data sconn (Buffer.add_string got);
  Tcp.send conn "hello, world";
  Sim.run sim;
  Alcotest.(check string) "data delivered" "hello, world" (Buffer.contents got)

let test_large_transfer_segmented () =
  let sim, _net, _client, _server, conn, sconn = establish () in
  let got = Buffer.create 4096 in
  Tcp.on_data sconn (Buffer.add_string got);
  let data = String.init 3000 (fun i -> Char.chr (i mod 256)) in
  Tcp.send conn data;
  Sim.run sim;
  Alcotest.(check int) "all bytes" 3000 (Buffer.length got);
  Alcotest.(check string) "content preserved" data (Buffer.contents got)

let test_bidirectional () =
  let sim, _net, _client, _server, conn, sconn = establish () in
  let client_got = Buffer.create 64 and server_got = Buffer.create 64 in
  Tcp.on_data conn (Buffer.add_string client_got);
  Tcp.on_data sconn (Buffer.add_string server_got);
  Tcp.send conn "ping";
  Tcp.send sconn "pong";
  Sim.run sim;
  Alcotest.(check string) "server got" "ping" (Buffer.contents server_got);
  Alcotest.(check string) "client got" "pong" (Buffer.contents client_got)

let test_retransmission_recovers_loss () =
  let sim, net, _client, _server, conn, sconn = establish () in
  let got = Buffer.create 64 in
  Tcp.on_data sconn (Buffer.add_string got);
  (* drop exactly the next client->server transmission *)
  Network.block net ~src:"client" ~dst:"server";
  Tcp.send conn "persistent";
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 100) (fun () ->
         Network.unblock net ~src:"client" ~dst:"server"));
  Sim.run sim;
  Alcotest.(check string) "recovered by retransmission" "persistent"
    (Buffer.contents got);
  Alcotest.(check bool) "at least one retransmit" true
    (Tcp.total_retransmits conn >= 1)

let test_retransmission_backoff_and_reset () =
  (* Experiment 1's mechanism: server goes silent; a BSD profile
     retransmits max_data_retries times with exponential backoff capped
     at 64 s, then sends RST and closes *)
  let sim, net, _client, _server, conn, sconn = establish () in
  ignore sconn;
  Network.block net ~src:"server" ~dst:"client";
  Network.block net ~src:"client" ~dst:"server";
  Tcp.send conn "into the void";
  Sim.run ~until:(Vtime.hours 2) sim;
  Alcotest.(check string) "connection dropped" "CLOSED"
    (Tcp.state_to_string (Tcp.state conn));
  Alcotest.(check (option string)) "close reason" (Some "rexmt-exhausted")
    (Tcp.close_reason conn);
  Alcotest.(check int) "12 retransmissions (BSD)" 12 (Tcp.total_retransmits conn);
  (* retransmission intervals double and plateau *)
  let intervals = Trace_lists.intervals ~node:"client" ~tag:"tcp.retransmit" (Sim.trace sim) in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> Vtime.(a <= b) && nondecreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "backoff nondecreasing" true (nondecreasing intervals);
  (match List.rev intervals with
   | last :: _ ->
     Alcotest.(check bool) "plateau at 64 s" true (Vtime.equal last (Vtime.sec 64))
   | [] -> Alcotest.fail "no retransmissions traced");
  (* a RST was sent when giving up *)
  Alcotest.(check bool) "RST sent" true
    (Trace.count ~node:"client" ~tag:"tcp.rst-sent" (Sim.trace sim) >= 1)

let test_solaris_no_rst_fewer_retries () =
  let sim, net, _client, _server, conn, _sconn =
    establish ~client_profile:Profile.solaris_23 ()
  in
  Network.block net ~src:"server" ~dst:"client";
  Network.block net ~src:"client" ~dst:"server";
  Tcp.send conn "into the void";
  Sim.run ~until:(Vtime.hours 1) sim;
  Alcotest.(check string) "dropped" "CLOSED" (Tcp.state_to_string (Tcp.state conn));
  Alcotest.(check int) "9 retransmissions (Solaris)" 9 (Tcp.total_retransmits conn);
  Alcotest.(check int) "no RST (Solaris closes silently)" 0
    (Trace.count ~node:"client" ~tag:"tcp.rst-sent" (Sim.trace sim))

let test_rtt_adaptation () =
  (* BSD profile adapts its RTO to a slow link *)
  let sim, net, _client, _server, conn, sconn = establish () in
  Network.set_latency net ~src:"client" ~dst:"server" (Vtime.ms 1500);
  Network.set_latency net ~src:"server" ~dst:"client" (Vtime.ms 1500);
  ignore sconn;
  (* space the sends out so each segment is individually RTT-timed *)
  for i = 1 to 20 do
    ignore
      (Sim.schedule sim ~delay:(Vtime.sec (4 * i)) (fun () ->
           Tcp.send conn "0123456789"))
  done;
  Sim.run sim;
  (match Tcp.srtt conn with
   | Some srtt ->
     Alcotest.(check bool) "srtt near 3 s" true
       Vtime.(srtt > Vtime.ms 2500 && srtt < Vtime.ms 3500)
   | None -> Alcotest.fail "no RTT estimate");
  Alcotest.(check bool) "rto above rtt" true
    Vtime.(Tcp.current_rto conn >= Vtime.sec 3)

let test_solaris_ignores_rtt () =
  let sim, net, _client, _server, conn, _sconn =
    establish ~client_profile:Profile.solaris_23 ()
  in
  Network.set_latency net ~src:"client" ~dst:"server" (Vtime.ms 400);
  Network.set_latency net ~src:"server" ~dst:"client" (Vtime.ms 400);
  for _ = 1 to 10 do
    Tcp.send conn "0123456789"
  done;
  Sim.run ~until:(Vtime.sec 60) sim;
  Alcotest.(check bool) "rto stays at floor" true
    Vtime.(Tcp.current_rto conn <= Vtime.ms 340)

let test_out_of_order_queued () =
  (* Experiment 5: receivers queue out-of-order segments and ack both
     once the gap fills *)
  let sim, _net, _client, server, conn, sconn = establish () in
  let got = Buffer.create 64 in
  Tcp.on_data sconn (Buffer.add_string got);
  ignore server;
  (* forge out-of-order arrival by injecting segments directly *)
  let base = Tcp.rcv_nxt sconn in
  let seg2 =
    Segment.make ~payload:(Bytes.of_string "BBBB") ~src_port:(Tcp.local_port conn)
      ~dst_port:80 ~seq:(Seq32.add base 4) ~ack:(Tcp.rcv_nxt conn)
      ~flags:Segment.flag_ack ~window:4096 ()
  in
  let seg1 =
    Segment.make ~payload:(Bytes.of_string "AAAA") ~src_port:(Tcp.local_port conn)
      ~dst_port:80 ~seq:base ~ack:(Tcp.rcv_nxt conn) ~flags:Segment.flag_ack
      ~window:4096 ()
  in
  let deliver s =
    let msg = Segment.to_message s ~dst:"server" in
    Message.set_attr msg Network.src_attr "client";
    Layer.pop (Tcp.layer server.tcp) msg
  in
  deliver seg2;  (* arrives first although later in sequence space *)
  Alcotest.(check string) "gap: nothing delivered" "" (Buffer.contents got);
  deliver seg1;
  Sim.run sim;
  Alcotest.(check string) "both delivered in order" "AAAABBBB" (Buffer.contents got);
  Alcotest.(check int) "rcv_nxt covers both" 8 (Seq32.diff (Tcp.rcv_nxt sconn) base)

let test_zero_window_and_persist () =
  (* Experiment 4's mechanism: receiver stops consuming; sender probes
     the zero window with backoff capped at persist_max, indefinitely *)
  let sim, _net, _client, _server, conn, sconn = establish () in
  Tcp.set_auto_consume sconn false;
  (* fill the 4096-byte receive buffer *)
  Tcp.send conn (String.make 4096 'x');
  Sim.run sim;
  Alcotest.(check int) "window closed" 0 (Tcp.advertised_window sconn);
  Alcotest.(check int) "sender sees zero window" 0 (Tcp.peer_window conn);
  (* queue more data: must trigger persist probing *)
  Tcp.send conn "blocked";
  Sim.run ~until:(Vtime.minutes 30) sim;
  let probes = Trace.count ~node:"client" ~tag:"tcp.persist-probe" (Sim.trace sim) in
  Alcotest.(check bool) "probing continues indefinitely" true (probes >= 20);
  let intervals =
    Trace_lists.intervals ~node:"client" ~tag:"tcp.persist-probe" (Sim.trace sim)
  in
  (match List.rev intervals with
   | last :: _ ->
     Alcotest.(check bool) "interval capped at 60 s" true
       (Vtime.equal last (Vtime.sec 60))
   | [] -> Alcotest.fail "no probe intervals");
  Alcotest.(check string) "connection still open" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state conn));
  (* now the app reads: window reopens, blocked data flows *)
  let got = ref "" in
  Tcp.on_data sconn (fun s -> got := !got ^ s);
  ignore (Tcp.read sconn 4096);
  Tcp.set_auto_consume sconn true;
  Sim.run ~until:(Vtime.minutes 32) sim;
  Alcotest.(check string) "blocked data arrives after window opens" "blocked" !got

let test_keepalive_bsd () =
  (* idle connection with keep-alive on; peer unplugged: 8 probes at
     75 s intervals after the 7200 s idle threshold, then RST + close *)
  let sim, net, _client, _server, conn, _sconn = establish () in
  Tcp.set_keepalive conn true;
  Network.unplug net "server";
  Sim.run ~until:(Vtime.sec 9000) sim;
  let probes = Trace.count ~node:"client" ~tag:"tcp.keepalive-probe" (Sim.trace sim) in
  Alcotest.(check int) "9 probes total (first + 8 retries)" 9 probes;
  let stamps = Trace_lists.timestamps ~node:"client" ~tag:"tcp.keepalive-probe" (Sim.trace sim) in
  (match stamps with
   | first :: _ ->
     Alcotest.(check bool) "first probe at ~7200 s" true
       Vtime.(first >= Vtime.sec 7200 && first < Vtime.sec 7205)
   | [] -> Alcotest.fail "no probes");
  let intervals = Trace_lists.intervals ~node:"client" ~tag:"tcp.keepalive-probe" (Sim.trace sim) in
  List.iter
    (fun i -> Alcotest.(check bool) "75 s apart" true (Vtime.equal i (Vtime.sec 75)))
    intervals;
  Alcotest.(check (option string)) "closed by keepalive" (Some "keepalive-exhausted")
    (Tcp.close_reason conn);
  Alcotest.(check bool) "RST sent" true
    (Trace.count ~node:"client" ~tag:"tcp.rst-sent" (Sim.trace sim) >= 1)

let test_keepalive_acked_repeats () =
  (* probes answered: connection stays up, probes ~7200 s apart *)
  let sim, _net, _client, _server, conn, _sconn = establish () in
  Tcp.set_keepalive conn true;
  Sim.run ~until:(Vtime.hours 8) sim;
  let probes = Trace.count ~node:"client" ~tag:"tcp.keepalive-probe" (Sim.trace sim) in
  Alcotest.(check bool) "several probes over 8 h" true (probes >= 3);
  Alcotest.(check string) "still established" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state conn));
  let intervals = Trace_lists.intervals ~node:"client" ~tag:"tcp.keepalive-probe" (Sim.trace sim) in
  List.iter
    (fun i ->
      Alcotest.(check bool) "~7200 s apart" true
        Vtime.(i >= Vtime.sec 7199 && i <= Vtime.sec 7205))
    intervals

let test_keepalive_solaris () =
  let sim, net, _client, _server, conn, _sconn =
    establish ~client_profile:Profile.solaris_23 ()
  in
  Tcp.set_keepalive conn true;
  Network.unplug net "server";
  Sim.run ~until:(Vtime.sec 8000) sim;
  let stamps = Trace_lists.timestamps ~node:"client" ~tag:"tcp.keepalive-probe" (Sim.trace sim) in
  (match stamps with
   | first :: _ ->
     Alcotest.(check bool) "first probe at ~6752 s (spec violation)" true
       Vtime.(first >= Vtime.sec 6752 && first < Vtime.sec 6755)
   | [] -> Alcotest.fail "no probes");
  Alcotest.(check int) "8 probes (first + 7 backoff retries)" 8 (List.length stamps);
  Alcotest.(check (option string)) "closed silently" (Some "keepalive-exhausted")
    (Tcp.close_reason conn);
  Alcotest.(check int) "no RST" 0
    (Trace.count ~node:"client" ~tag:"tcp.rst-sent" (Sim.trace sim))

let test_orderly_close () =
  let sim, _net, _client, _server, conn, sconn = establish () in
  Tcp.send conn "bye";
  Tcp.close conn;
  Sim.run ~until:(Vtime.sec 10) sim;
  Alcotest.(check string) "passive side close_wait" "CLOSE_WAIT"
    (Tcp.state_to_string (Tcp.state sconn));
  Tcp.close sconn;
  Sim.run ~until:(Vtime.sec 200) sim;
  Alcotest.(check string) "active side closed" "CLOSED"
    (Tcp.state_to_string (Tcp.state conn));
  Alcotest.(check string) "passive side closed" "CLOSED"
    (Tcp.state_to_string (Tcp.state sconn))

let test_abort_sends_rst () =
  let sim, _net, _client, _server, conn, sconn = establish () in
  Tcp.abort conn;
  Sim.run sim;
  Alcotest.(check string) "aborted" "CLOSED" (Tcp.state_to_string (Tcp.state conn));
  Alcotest.(check string) "peer reset" "CLOSED" (Tcp.state_to_string (Tcp.state sconn));
  Alcotest.(check (option string)) "peer saw reset" (Some "reset-received")
    (Tcp.close_reason sconn)

let test_stray_segment_gets_rst () =
  let sim, _net, client, server, _conn, _sconn = establish () in
  ignore server;
  (* a segment to a port nobody listens on *)
  let stray =
    Segment.make ~src_port:5555 ~dst_port:4242 ~seq:1 ~ack:0
      ~flags:Segment.flag_ack ~window:0 ()
  in
  Layer.send_down (Tcp.layer client.tcp) (Segment.to_message stray ~dst:"server");
  Sim.run sim;
  Alcotest.(check bool) "server sent RST" true
    (Trace.count ~node:"server" ~tag:"tcp.rst-sent" (Sim.trace sim) >= 1)

let test_corrupted_segment_dropped () =
  let sim, _net, _client, server, conn, sconn = establish () in
  let got = Buffer.create 8 in
  Tcp.on_data sconn (Buffer.add_string got);
  (* deliver a corrupted data segment directly: checksum must reject *)
  let s =
    Segment.make ~payload:(Bytes.of_string "evil") ~src_port:(Tcp.local_port conn)
      ~dst_port:80 ~seq:(Tcp.rcv_nxt sconn) ~ack:(Tcp.rcv_nxt conn)
      ~flags:Segment.flag_ack ~window:4096 ()
  in
  let wire = Segment.encode s in
  Bytes.set wire 22 'X';
  let msg = Message.create wire in
  Message.set_attr msg Network.src_attr "client";
  Layer.pop (Tcp.layer server.tcp) msg;
  Sim.run sim;
  Alcotest.(check string) "payload rejected" "" (Buffer.contents got);
  Alcotest.(check bool) "bad segment traced" true
    (Trace.count ~node:"server" ~tag:"tcp.bad-segment" (Sim.trace sim) >= 1)

let test_global_error_counter_solaris () =
  (* the global counter accumulates across segments; an ambiguous ACK
     (of a retransmitted segment) does not reset it *)
  let sim, net, _client, _server, conn, _sconn =
    establish ~client_profile:Profile.solaris_23 ()
  in
  (* block the return path so ACKs vanish; let a few timeouts happen *)
  Network.block net ~src:"server" ~dst:"client";
  Tcp.send conn "m1";
  Sim.run ~until:(Vtime.sec 3) sim;
  let mid_counter = Tcp.error_counter conn in
  Alcotest.(check bool) "counter grew" true (mid_counter >= 2);
  (* unblock: the ACK that arrives is for a retransmitted segment *)
  Network.unblock net ~src:"server" ~dst:"client";
  Sim.run ~until:(Vtime.sec 6) sim;
  Alcotest.(check bool) "ambiguous ack left counter alone" true
    (Tcp.error_counter conn >= mid_counter);
  (* a fresh segment acked cleanly resets it *)
  Tcp.send conn "m2";
  Sim.run ~until:(Vtime.sec 10) sim;
  Alcotest.(check int) "unambiguous ack reset counter" 0 (Tcp.error_counter conn)

let test_bsd_counter_resets_on_any_ack () =
  let sim, net, _client, _server, conn, _sconn = establish () in
  Network.block net ~src:"server" ~dst:"client";
  Tcp.send conn "m1";
  Sim.run ~until:(Vtime.sec 40) sim;
  Alcotest.(check bool) "retransmissions happened" true (Tcp.total_retransmits conn >= 2);
  Network.unblock net ~src:"server" ~dst:"client";
  Tcp.send conn "m2";
  Sim.run ~until:(Vtime.sec 120) sim;
  (* per-segment counting: new segment starts from scratch, connection healthy *)
  Alcotest.(check string) "still established" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state conn));
  Alcotest.(check int) "segment retries back to 0" 0 (Tcp.segment_retries conn)

let test_syn_retransmitted () =
  let sim, net, client, _server = setup () in
  Network.block net ~src:"client" ~dst:"server";
  let conn = Tcp.connect client.tcp ~dst:"server" ~dst_port:80 () in
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 15) (fun () ->
         Network.unblock net ~src:"client" ~dst:"server"));
  Sim.run ~until:(Vtime.sec 120) sim;
  Alcotest.(check string) "eventually established" "ESTABLISHED"
    (Tcp.state_to_string (Tcp.state conn));
  Alcotest.(check bool) "SYN was retransmitted" true (Tcp.total_retransmits conn >= 1)

(* ------------------------------------------------------------------ *)
(* Congestion control                                                 *)
(* ------------------------------------------------------------------ *)

let test_slow_start_growth () =
  let sim, _net, _client, _server, conn, sconn = establish () in
  ignore sconn;
  Alcotest.(check int) "initial cwnd = 1 MSS" 512 (Tcp.congestion_window conn);
  (* a large burst: the first flight is limited by cwnd, then each ACK
     opens the window *)
  Tcp.send conn (String.make 3000 'x');
  Sim.run sim;
  Alcotest.(check bool) "cwnd grew with the acks" true
    (Tcp.congestion_window conn >= 2048)

let test_timeout_collapses_cwnd () =
  let sim, net, _client, _server, conn, sconn = establish () in
  ignore sconn;
  Tcp.send conn (String.make 2000 'x');
  Sim.run sim;
  let grown = Tcp.congestion_window conn in
  Alcotest.(check bool) "grown before fault" true (grown > 512);
  Network.block net ~src:"server" ~dst:"client";
  Tcp.send conn (String.make 1000 'y');
  Sim.run ~until:(Vtime.add (Sim.now sim) (Vtime.sec 30)) sim;
  Alcotest.(check int) "cwnd collapsed to 1 MSS" 512 (Tcp.congestion_window conn);
  Alcotest.(check bool) "ssthresh halved below old cwnd" true
    (Tcp.slow_start_threshold conn < grown)

let test_cwnd_limits_first_flight () =
  (* slow start: a big burst leaves in flight only cwnd bytes at t=0 *)
  let sim, _net, _client, _server, conn, sconn = establish () in
  ignore sconn;
  Tcp.send conn (String.make 4000 'x');
  (* before any ACK returns, at most one MSS is outstanding *)
  Alcotest.(check int) "one MSS in flight" 512
    (Seq32.diff (Tcp.snd_nxt conn) (Tcp.snd_una conn));
  Sim.run sim

(* ------------------------------------------------------------------ *)
(* TCP stub                                                           *)
(* ------------------------------------------------------------------ *)

let test_stub_recognition () =
  let s = Tcp_stub.stub in
  let msg = Segment.to_message (seg ~payload:"xyz" ~seq:42 ()) ~dst:"peer" in
  Alcotest.(check string) "type" "DATA" (s.Pfi_core.Stubs.msg_type msg);
  Alcotest.(check (option string)) "seq field" (Some "42")
    (s.Pfi_core.Stubs.get_field msg "seq");
  Alcotest.(check (option string)) "len field" (Some "3")
    (s.Pfi_core.Stubs.get_field msg "len");
  Alcotest.(check (option string)) "flags" (Some "A")
    (s.Pfi_core.Stubs.get_field msg "flags")

let test_stub_set_field_reencodes () =
  let s = Tcp_stub.stub in
  let msg = Segment.to_message (seg ~seq:42 ()) ~dst:"peer" in
  Alcotest.(check bool) "set ok" true (s.Pfi_core.Stubs.set_field msg "seq" "999");
  (* the re-encoded segment must still checksum-validate *)
  match Segment.of_message msg with
  | Ok decoded -> Alcotest.(check int) "new seq" 999 decoded.Segment.seq
  | Error e -> Alcotest.failf "re-encoded segment invalid: %s" e

let test_stub_generate_spurious_ack () =
  let s = Tcp_stub.stub in
  match
    s.Pfi_core.Stubs.generate
      [ ("type", "ACK"); ("sport", "1"); ("dport", "2"); ("seq", "10");
        ("ack", "20"); ("window", "512"); ("dst", "server") ]
  with
  | Some msg ->
    Alcotest.(check string) "kind" "ACK" (s.Pfi_core.Stubs.msg_type msg);
    Alcotest.(check (option string)) "addressed" (Some "server")
      (Pfi_stack.Message.get_attr msg Network.dst_attr)
  | None -> Alcotest.fail "generate failed"

let suite =
  [
    Alcotest.test_case "seq32 wraparound" `Quick test_seq32_wraparound;
    Alcotest.test_case "seq32 window" `Quick test_seq32_window;
    QCheck_alcotest.to_alcotest prop_seq32_diff_inverse;
    Alcotest.test_case "segment roundtrip" `Quick test_segment_roundtrip;
    Alcotest.test_case "segment checksum" `Quick test_segment_checksum_detects_corruption;
    Alcotest.test_case "segment kinds" `Quick test_segment_kinds;
    QCheck_alcotest.to_alcotest prop_segment_roundtrip;
    Alcotest.test_case "handshake" `Quick test_handshake;
    Alcotest.test_case "data transfer" `Quick test_data_transfer;
    Alcotest.test_case "large transfer segmented" `Quick test_large_transfer_segmented;
    Alcotest.test_case "bidirectional" `Quick test_bidirectional;
    Alcotest.test_case "retransmission recovers loss" `Quick test_retransmission_recovers_loss;
    Alcotest.test_case "backoff to 64s then RST (BSD)" `Quick test_retransmission_backoff_and_reset;
    Alcotest.test_case "9 retries, no RST (Solaris)" `Quick test_solaris_no_rst_fewer_retries;
    Alcotest.test_case "rtt adaptation (BSD)" `Quick test_rtt_adaptation;
    Alcotest.test_case "rtt ignored (Solaris)" `Quick test_solaris_ignores_rtt;
    Alcotest.test_case "out-of-order queued" `Quick test_out_of_order_queued;
    Alcotest.test_case "zero window persist probing" `Quick test_zero_window_and_persist;
    Alcotest.test_case "keepalive BSD" `Quick test_keepalive_bsd;
    Alcotest.test_case "keepalive acked repeats" `Quick test_keepalive_acked_repeats;
    Alcotest.test_case "keepalive Solaris" `Quick test_keepalive_solaris;
    Alcotest.test_case "orderly close" `Quick test_orderly_close;
    Alcotest.test_case "abort sends RST" `Quick test_abort_sends_rst;
    Alcotest.test_case "stray segment gets RST" `Quick test_stray_segment_gets_rst;
    Alcotest.test_case "corrupted segment dropped" `Quick test_corrupted_segment_dropped;
    Alcotest.test_case "global error counter (Solaris)" `Quick test_global_error_counter_solaris;
    Alcotest.test_case "per-segment counter (BSD)" `Quick test_bsd_counter_resets_on_any_ack;
    Alcotest.test_case "SYN retransmitted" `Quick test_syn_retransmitted;
    Alcotest.test_case "slow start growth" `Quick test_slow_start_growth;
    Alcotest.test_case "timeout collapses cwnd" `Quick test_timeout_collapses_cwnd;
    Alcotest.test_case "cwnd limits first flight" `Quick test_cwnd_limits_first_flight;
    Alcotest.test_case "stub recognition" `Quick test_stub_recognition;
    Alcotest.test_case "stub set_field re-encodes" `Quick test_stub_set_field_reencodes;
    Alcotest.test_case "stub generates spurious ACK" `Quick test_stub_generate_spurious_ack;
  ]
