open Pfi_engine
open Pfi_core
open Pfi_tcp
open Pfi_gmp

(* a check whose verdict is a predicate over the measurement rather than
   equality of the two cells *)
let claim label ~paper ~measured pass =
  { Conformance.ck_label = label; ck_paper = paper; ck_measured = measured;
    ck_pass = pass }

let yes_no b = if b then "yes" else "no"

let series vs =
  String.concat " "
    (List.map (fun v -> Printf.sprintf "%.1f" (Vtime.to_sec_f v)) vs)
  ^ " s"

let connection_state conn =
  match Tcp.close_reason conn with
  | Some reason -> "closed (" ^ reason ^ ")"
  | None -> Tcp.state_to_string (Tcp.state conn)

let vendor_row ~section ?(suffix = "") ?(subject = "") ~quirk (p : Profile.t)
    trial =
  Conformance.paper_row ~section ~slug:(Profile.slug p ^ suffix)
    ~subject:(p.Profile.name ^ subject) ~quirk (trial p)

(* ------------------------------------------------------------------ *)
(* Table 2 and Figure 4: RTO under delayed ACKs                       *)
(* ------------------------------------------------------------------ *)

let table2 =
  Conformance.paper_section ~key:"table2"
    ~title:"Retransmission timeouts with delayed ACKs (paper Table 2, Figure 4)"
    ~blurb:
      "The x-Kernel send filter delays the first 30 ACKs by 3 s or 8 s, then \
       tells its receive filter to drop every incoming packet; the vendor's \
       stuck segment is timed from its own first transmission.  Each row's \
       interval series is that vendor's Figure 4 curve; the no-delay curves \
       are the `rexmt` rows of EXPERIMENTS_tcp.md."

(* the send filter delays 30 outgoing ACKs, then tells the receive
   filter (cross-interpreter, as in the paper) to start dropping *)
let delay_acks_filter delay_sec =
  Printf.sprintf
    {|
if {[msg_type cur_msg] == "ACK"} {
  if {![info exists acks]} { set acks 0 }
  incr acks
  if {$acks <= 30} { xDelay cur_msg %.3f }
  if {$acks == 30} { peer_set dropping 1 }
}
|}
    delay_sec

let drop_when_told = {|
if {![info exists dropping]} { set dropping 0 }
if {$dropping == 1} {
  log exp.drop [msg_field cur_msg seq]
  xDrop cur_msg
}
|}

(* Did the vendor send a RST as part of giving up the connection?
   (RSTs sent later, in reply to stray segments arriving at the closed
   port, do not count.) *)
let rst_at_close rig =
  let times tag =
    List.map
      (fun e -> e.Trace.time)
      (Trace.find ~node:Tcp_rig.vendor_node ~tag (Sim.trace rig.Tcp_rig.sim))
  in
  let closes = times "tcp.closed" in
  List.exists (fun t -> List.exists (Vtime.equal t) closes) (times "tcp.rst-sent")

(* Fallback when the PFI drop log is empty (a connection that died
   before the drop phase began, as Solaris sometimes does): read the
   vendor's own retransmission trace. *)
let vendor_rexmt_log rig =
  List.filter_map
    (fun e ->
      (* detail looks like "port=P seq=N n=K rto=..." *)
      Conformance.kv (Trace.detail e) "seq"
      |> Fun.flip Option.bind int_of_string_opt
      |> Option.map (fun seq -> (seq, e.Trace.time)))
    (Trace.find ~node:Tcp_rig.vendor_node ~tag:"tcp.retransmit"
       (Sim.trace rig.Tcp_rig.sim))

type rexmt = {
  retransmissions : int;  (** of the stuck segment *)
  intervals : Vtime.t list;  (** original → each retransmission *)
  rst_sent : bool;
}

let delayed_acks ~delay_sec p seed =
  let rig = Tcp_rig.make ~profile:p ~seed () in
  let vconn, _xc = Tcp_rig.connect rig in
  Pfi_layer.set_send_filter rig.Tcp_rig.pfi (delay_acks_filter delay_sec);
  Pfi_layer.set_receive_filter rig.Tcp_rig.pfi drop_when_told;
  (* pace the workload slower than the ACK delay so each segment's ACK
     completes before the next send: the first segment dropped is then
     the one whose retransmission schedule we time, from its own initial
     transmission — the paper's measurement *)
  let every = Vtime.of_sec_f (delay_sec +. 1.0) in
  Tcp_rig.feed_vendor rig ~conn:vconn ~chunk:128 ~every ~count:40;
  Sim.run ~until:(Vtime.hours 2) rig.Tcp_rig.sim;
  let entries = Tcp_rig.drop_log rig ~tag:"exp.drop" in
  let from_pfi_log = entries <> [] in
  let entries = if from_pfi_log then entries else vendor_rexmt_log rig in
  let _seq, times = Tcp_rig.busiest_seq entries in
  { retransmissions =
      (if from_pfi_log then max 0 (List.length times - 1)
       else List.length times);
    intervals = Tcp_rig.intervals times;
    rst_sent = rst_at_close rig }

(* the paper's adapted first-retransmission cells at a 3 s ACK delay *)
let adapted_at_3s =
  [ (Profile.sunos_413, 6.5); (Profile.aix_323, 8.0); (Profile.next_mach, 5.0) ]

let table2_checks ~delay (p : Profile.t) m =
  let paper, adapted =
    match (List.assq_opt p adapted_at_3s, delay) with
    | Some first, 3 ->
      ( Printf.sprintf "%.1fs (+/- 0.3s)" first,
        fun iv -> Float.abs (Vtime.to_sec_f iv -. first) <= 0.3 )
    | Some _, _ ->
      (Printf.sprintf "more than %ds" delay, fun iv -> Vtime.(iv > sec delay))
    | None, _ -> ("under 2s (unadapted)", fun iv -> Vtime.(iv < sec 2))
  in
  let first_check =
    match m.intervals with
    | iv :: _ ->
      claim "first retransmission" ~paper ~measured:(Vtime.to_string iv)
        (adapted iv)
    | [] -> claim "first retransmission" ~paper ~measured:"none" false
  in
  let bsd = List.mem_assq p adapted_at_3s in
  let series_check =
    claim "interval series (Figure 4)"
      ~paper:(if bsd then "nondecreasing to a 64 s plateau" else "nondecreasing")
      ~measured:(series m.intervals)
      (Conformance.monotone_nondecreasing m.intervals
      &&
      match List.rev m.intervals with
      | last :: _ -> (not bsd) || Vtime.equal last (Vtime.sec 64)
      | [] -> false)
  in
  if bsd then [ first_check; series_check ]
  else
    [ first_check;
      claim "retransmissions" ~paper:"fewer than 9"
        ~measured:(string_of_int m.retransmissions)
        (m.retransmissions < 9);
      Conformance.check "failure action" ~paper:"no RST"
        ~measured:(if m.rst_sent then "RST" else "no RST");
      series_check ]

let table2_row delay p =
  vendor_row ~section:table2
    ~suffix:(Printf.sprintf "-%ds" delay)
    ~subject:(Printf.sprintf ", %d s ACK delay" delay)
    ~quirk:
      (if List.mem_assq p adapted_at_3s then
         "Jacobson's estimator adapts the RTO to the delayed ACKs"
       else "the RTO does not adapt; the connection dies early, silently")
    p
    (fun p seed ->
      table2_checks ~delay p
        (delayed_acks ~delay_sec:(float_of_int delay) p seed))

(* ------------------------------------------------------------------ *)
(* Retry accounting: the 35 s probe (Table 2) and Ablation B          *)
(* ------------------------------------------------------------------ *)

let retry =
  Conformance.paper_section ~key:"retry"
    ~title:
      "Retry accounting in the 35 s delayed-ACK probe (paper Table 2; \
       Ablation B)"
    ~blurb:
      "Thirty packets pass, the ACK of the next segment (m1) is delayed 35 s \
       and everything after it is dropped.  m1's timeouts before its ACK \
       arrives, and m2's before the connection dies, show how Solaris counts \
       them: one global error counter, so m2 inherits m1's six.  The second \
       row reruns the probe with the counter made per-segment."

(* the Solaris global-error-counter probe: 30 packets pass, the ACK of
   the next segment (m1) is delayed 35 s, everything after is dropped *)
let global_counter_recv = {|
if {![info exists count]} { set count 0 }
incr count
if {$count == 31} { peer_set delay_next_ack 1 }
if {$count > 31} {
  log exp.drop [msg_field cur_msg seq]
  xDrop cur_msg
}
|}

let global_counter_send = {|
if {![info exists delay_next_ack]} { set delay_next_ack 0 }
if {$delay_next_ack == 1 && [msg_type cur_msg] == "ACK"} {
  set delay_next_ack 0
  xDelay cur_msg 35.0
}
|}

(* (retransmissions of m1 before its ACK arrived, retransmissions of m2
   before the connection died) *)
let counter_probe p seed =
  let rig = Tcp_rig.make ~profile:p ~seed () in
  let vconn, _xc = Tcp_rig.connect rig in
  Pfi_layer.set_receive_filter rig.Tcp_rig.pfi global_counter_recv;
  Pfi_layer.set_send_filter rig.Tcp_rig.pfi global_counter_send;
  Tcp_rig.feed_vendor rig ~conn:vconn ~chunk:128 ~every:(Vtime.ms 400) ~count:32;
  Sim.run ~until:(Vtime.hours 1) rig.Tcp_rig.sim;
  let entries = Tcp_rig.drop_log rig ~tag:"exp.drop" in
  (* two sequence numbers appear: m1 (only its retransmissions are
     logged; the original passed through) and m2 (original + rexmits) *)
  let count seq = List.length (List.filter (fun (s, _) -> s = seq) entries) in
  match List.sort_uniq compare (List.map fst entries) with
  | m1 :: m2 :: _ -> (count m1, count m2 - 1)
  | _ -> (0, 0)

let retry_row ~slug ~subject ~quirk ~m2_paper p =
  Conformance.paper_row ~section:retry ~slug ~subject ~quirk (fun seed ->
      let m1, m2 = counter_probe p seed in
      [ Conformance.check_int "m1 retransmissions before its ACK" ~paper:6
          ~measured:m1;
        Conformance.check_int "m2 retransmissions before the connection died"
          ~paper:m2_paper ~measured:m2 ])

(* ------------------------------------------------------------------ *)
(* Table 3 with probes ACKed                                          *)
(* ------------------------------------------------------------------ *)

let keepalive_acked =
  Conformance.paper_section ~key:"keepalive-acked"
    ~title:"Keep-alive with probes ACKed (paper Table 3)"
    ~blurb:
      "The connection idles with keep-alive on for 120,000 s while the \
       x-Kernel answers every probe.  Probes repeat at the idle interval and \
       the connection stays up.  The probes-dropped column is the \
       `keepalive` section of EXPERIMENTS_tcp.md."

let log_only = {|
if {[msg_type cur_msg] != "RST"} {
  log exp.ka [msg_field cur_msg seq]
}
|}

let keepalive_acked_row p =
  vendor_row ~section:keepalive_acked
    ~quirk:
      (Printf.sprintf "answered probes repeat every %s; the connection stays up"
         (Vtime.to_string p.Profile.keepalive_idle))
    p
    (fun p seed ->
      let rig = Tcp_rig.make ~profile:p ~seed () in
      let vconn, _xc = Tcp_rig.connect rig in
      Pfi_layer.set_receive_filter rig.Tcp_rig.pfi log_only;
      Tcp.set_keepalive vconn true;
      Sim.run ~until:(Vtime.sec 120_000) rig.Tcp_rig.sim;
      let probes =
        List.map
          (fun e -> e.Trace.time)
          (Trace.find ~node:Tcp_rig.xk_node ~tag:"exp.ka" (Sim.trace rig.Tcp_rig.sim))
      in
      let intervals = Tcp_rig.intervals probes in
      let idle = p.Profile.keepalive_idle in
      let lo = List.fold_left Vtime.min Vtime.infinity intervals
      and hi = List.fold_left Vtime.max Vtime.zero intervals in
      [ Conformance.check_at_least "probes answered" ~floor:3
          ~measured:(List.length probes);
        claim "probe interval"
          ~paper:(Vtime.to_string idle ^ " (-1s/+5s)")
          ~measured:
            (if intervals = [] then "none"
             else if Vtime.equal lo hi then Vtime.to_string lo
             else Vtime.to_string lo ^ " to " ^ Vtime.to_string hi)
          (intervals <> []
          && Vtime.(lo >= sub idle (sec 1))
          && Vtime.(hi <= add idle (sec 5)));
        Conformance.check "connection" ~paper:"ESTABLISHED"
          ~measured:(connection_state vconn) ])

(* ------------------------------------------------------------------ *)
(* Table 4 with probes unanswered                                     *)
(* ------------------------------------------------------------------ *)

let zerowin_unanswered =
  Conformance.paper_section ~key:"zerowin-unanswered"
    ~title:"Zero-window probes unanswered (paper Table 4)"
    ~blurb:
      "The x-Kernel stops consuming, the window closes, and its receive \
       filter drops every persist probe for 95 minutes; a last row unplugs \
       the x-Kernel's Ethernet for two days instead.  Probing never stops \
       and the connection never resets.  The probes-ACKed column is the \
       `zerowin` section of EXPERIMENTS_tcp.md."

let log_probe = {|
if {[msg_field cur_msg len] == "1"} {
  log exp.zwp [msg_field cur_msg seq]
}
if {[bb_get zwp_drop 0] == 1} { xDrop cur_msg }
|}

(* fills the x-Kernel's window and keeps data queued so the vendor
   probes; [unplug] pulls the x-Kernel's cable for two days after 10
   minutes instead of dropping the probes.  Returns the connection, the
   probes logged, and (unplug only) the probes in the 10 minutes after
   the replug. *)
let zero_window ~unplug p seed =
  let rig = Tcp_rig.make ~profile:p ~seed () in
  let vconn, xc = Tcp_rig.connect rig in
  let sim = rig.Tcp_rig.sim in
  (* the driver layer does not reset the receive buffer space *)
  Tcp.set_auto_consume xc false;
  Pfi_layer.set_receive_filter rig.Tcp_rig.pfi log_probe;
  Tcp.send vconn (String.make 4096 'x');
  Sim.run ~until:(Vtime.add (Sim.now sim) (Vtime.sec 5)) sim;
  Tcp.send vconn "overflow";
  let probes () =
    Trace.count ~node:Tcp_rig.xk_node ~tag:"exp.zwp" (Sim.trace sim)
  in
  let after_replug = ref (-1) in
  if unplug then begin
    (* let probing reach steady state, then pull the Ethernet *)
    ignore
      (Sim.schedule sim ~delay:(Vtime.minutes 10) (fun () ->
           Pfi_netsim.Network.unplug rig.Tcp_rig.net Tcp_rig.xk_node));
    ignore
      (Sim.schedule sim ~delay:(Vtime.add (Vtime.minutes 10) (Vtime.hours 48))
         (fun () ->
           Pfi_netsim.Network.replug rig.Tcp_rig.net Tcp_rig.xk_node;
           let before = probes () in
           ignore
             (Sim.schedule sim ~delay:(Vtime.minutes 10) (fun () ->
                  after_replug := probes () - before))));
    Sim.run ~until:(Vtime.add (Vtime.hours 49) (Vtime.minutes 30)) sim
  end
  else begin
    Blackboard.set (Pfi_layer.blackboard rig.Tcp_rig.pfi) "zwp_drop" "1";
    Sim.run ~until:(Vtime.minutes 95) sim
  end;
  (vconn, probes (), !after_replug)

let zerowin_unanswered_row p =
  vendor_row ~section:zerowin_unanswered
    ~quirk:"unanswered persist probes go on indefinitely; no reset" p
    (fun p seed ->
      let vconn, probes, _ = zero_window ~unplug:false p seed in
      [ Conformance.check_at_least "probes in 95 min" ~floor:50 ~measured:probes;
        Conformance.check "connection" ~paper:"ESTABLISHED"
          ~measured:(connection_state vconn) ])

let unplug_row p =
  vendor_row ~section:zerowin_unanswered ~suffix:"-unplug"
    ~subject:", Ethernet unplugged two days"
    ~quirk:"probing resumes when the cable returns; the connection survives"
    p
    (fun p seed ->
      let vconn, _, after_replug = zero_window ~unplug:true p seed in
      [ Conformance.check_at_least "probes within 10 min of the replug" ~floor:5
          ~measured:after_replug;
        Conformance.check "connection" ~paper:"ESTABLISHED"
          ~measured:(connection_state vconn) ])

(* ------------------------------------------------------------------ *)
(* Experiment 5: reordering                                           *)
(* ------------------------------------------------------------------ *)

let exp5 =
  Conformance.paper_section ~key:"exp5"
    ~title:"Reordering (paper Experiment 5, no table)"
    ~blurb:
      "The x-Kernel sends AAAA then BBBB; its send filter delays the first \
       segment 3 s and drops retransmissions of the second, so BBBB arrives \
       first.  RFC 1122 says a TCP SHOULD queue the out-of-order segment; all \
       four vendors did."

(* the x-Kernel send filter swaps two outgoing data segments: the first
   is delayed 3 s, retransmissions of the second are dropped *)
let swap_filter = {|
if {[msg_type cur_msg] == "DATA"} {
  if {![info exists n]} { set n 0 }
  if {![info exists seq2]} { set seq2 -1 }
  incr n
  if {$n == 1} { xDelay cur_msg 3.0 }
  if {$n == 2} { set seq2 [msg_field cur_msg seq] }
  if {$n > 2 && [msg_field cur_msg seq] == $seq2} {
    log exp.rexmt-of-2 dropped
    xDrop cur_msg
  }
}
|}

let exp5_row p =
  vendor_row ~section:exp5
    ~quirk:"queues the early segment and delivers both in order" p
    (fun p seed ->
      let rig = Tcp_rig.make ~profile:p ~seed () in
      let vconn, xc = Tcp_rig.connect rig in
      let got = Buffer.create 16 in
      Tcp.on_data vconn (Buffer.add_string got);
      Pfi_layer.set_send_filter rig.Tcp_rig.pfi swap_filter;
      Tcp.send xc "AAAA";
      Tcp.send xc "BBBB";
      Sim.run
        ~until:(Vtime.add (Sim.now rig.Tcp_rig.sim) (Vtime.sec 30))
        rig.Tcp_rig.sim;
      [ Conformance.check "data delivered" ~paper:"AAAABBBB"
          ~measured:(Buffer.contents got) ])

(* ------------------------------------------------------------------ *)
(* GMP Tables 5-8                                                     *)
(* ------------------------------------------------------------------ *)

(* [bug] re-implanted in the buggy row, no bugs in the fixed one *)
let config ~buggy bug =
  { Gmd.default_config with Gmd.bugs = (if buggy then bug else Gmd.no_bugs) }

let node rig name = rig.Gmp_rig.node name
let history rig name = Gmd.view_history (node rig name).Gmp_rig.gmd
let ever_member id history =
  List.exists (fun v -> List.mem id v.Gmd.members) history
let gmp_count rig ~node ~tag = Trace.count ~node ~tag (Sim.trace rig.Gmp_rig.sim)

(* installs [script] as [name]'s send filter [at] seconds in *)
let send_filter_at rig ~at name script =
  ignore
    (Sim.schedule rig.Gmp_rig.sim ~delay:(Vtime.sec at) (fun () ->
         Pfi_layer.set_send_filter (node rig name).Gmp_rig.pfi script))

(* compsun1 and compsun2 boot, compsun3 joins 30 s later *)
let start_late_joiner rig =
  Gmp_rig.start rig ~names:[ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1) ();
  ignore
    (Sim.schedule rig.Gmp_rig.sim ~delay:(Vtime.sec 30) (fun () ->
         Gmd.start (node rig "compsun3").Gmp_rig.gmd))

(* how a node's presence in another daemon's committed views evolved *)
let presence_transitions history ~member =
  let presence = List.map (fun v -> List.mem member v.Gmd.members) history in
  let rec count kicked readmitted = function
    | a :: (b :: _ as rest) ->
      let kicked = kicked + if a && not b then 1 else 0 in
      let readmitted = readmitted + if (not a) && b then 1 else 0 in
      count kicked readmitted rest
    | [ _ ] | [] -> (kicked, readmitted)
  in
  count 0 0 presence

let group members =
  "{" ^ String.concat "," (List.map string_of_int members) ^ "}"

let table5 =
  Conformance.paper_section ~key:"table5"
    ~title:"GMP packet interruption (paper Table 5)"
    ~blurb:
      "Clusters of gmd daemons (compsun1..3) with a PFI layer at every \
       node's UDP boundary.  Each row drops one class of messages; the \
       self-death row runs once with the paper's bug re-implanted and once \
       fixed."

let drop_self_heartbeats = {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] == $pfi_node} {
  xDrop cur_msg
}
|}

let self_heartbeat_drop ~buggy seed =
  let config = config ~buggy { Gmd.no_bugs with Gmd.self_death = true } in
  let rig = Gmp_rig.make ~n:3 ~config ~seed () in
  Gmp_rig.start rig ~stagger:(Vtime.sec 1) ();
  send_filter_at rig ~at:40 "compsun3" drop_self_heartbeats;
  Sim.run ~until:(Vtime.sec 180) rig.Gmp_rig.sim;
  let victim = (node rig "compsun3").Gmp_rig.gmd in
  let stuck =
    Gmd.self_marked_down victim && List.length (Gmd.view victim).Gmd.members > 1
  in
  let stuck_check =
    Conformance.check "stayed in its old group, marked down"
      ~paper:(yes_no buggy) ~measured:(yes_no stuck)
  in
  if buggy then
    [ Conformance.check_at_least "self-death events" ~floor:1
        ~measured:(gmp_count rig ~node:"compsun3" ~tag:"gmp.self-dead");
      stuck_check;
      Conformance.check_at_least "proclaims lost in the forwarder" ~floor:1
        ~measured:(gmp_count rig ~node:"compsun3" ~tag:"gmp.fwd-dropped") ]
  else
    [ Conformance.check "formed a singleton after the fault" ~paper:"yes"
        ~measured:
          (yes_no
             (List.exists
                (fun e -> Vtime.(e.Trace.time > Vtime.sec 40))
                (Trace.find ~node:"compsun3" ~tag:"gmp.singleton"
                   (Sim.trace rig.Gmp_rig.sim))));
      stuck_check ]

(* oscillate: ~35 s dropping outgoing heartbeats to others, ~35 s not *)
let oscillating_drop = {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] != $pfi_node} {
  set phase [expr {int([now] / 35) % 2}]
  if {$phase == 1} { xDrop cur_msg }
}
|}

let kick_cycle seed =
  let rig = Gmp_rig.make ~n:3 ~seed () in
  Gmp_rig.start rig ~stagger:(Vtime.sec 1) ();
  send_filter_at rig ~at:20 "compsun3" oscillating_drop;
  Sim.run ~until:(Vtime.sec 400) rig.Gmp_rig.sim;
  let kicked, readmitted =
    presence_transitions (history rig "compsun1") ~member:3
  in
  [ Conformance.check_at_least "times compsun3 was kicked out" ~floor:2
      ~measured:kicked;
    Conformance.check_at_least "times it was re-admitted" ~floor:2
      ~measured:readmitted ]

let drop_acks_from_compsun3 = {|
if {[msg_type cur_msg] == "ACK" && [msg_attr cur_msg net.src] == "compsun3"} {
  xDrop cur_msg
}
|}

let mc_ack_drop seed =
  let rig = Gmp_rig.make ~n:3 ~seed () in
  (* the group leader's receive filter drops compsun3's ACKs *)
  Pfi_layer.set_receive_filter (node rig "compsun1").Gmp_rig.pfi
    drop_acks_from_compsun3;
  start_late_joiner rig;
  Sim.run ~until:(Vtime.sec 300) rig.Gmp_rig.sim;
  [ Conformance.check "ever admitted by the leader" ~paper:"no"
      ~measured:(yes_no (ever_member 3 (history rig "compsun1")));
    (* each failed attempt ends in a fresh singleton at compsun3 *)
    Conformance.check_at_least "join attempts" ~floor:2
      ~measured:(gmp_count rig ~node:"compsun3" ~tag:"gmp.mc-timeout") ]

let drop_commits = {|
if {[msg_type cur_msg] == "COMMIT"} { xDrop cur_msg }
|}

let commit_drop seed =
  let rig = Gmp_rig.make ~n:3 ~seed () in
  Pfi_layer.set_receive_filter (node rig "compsun3").Gmp_rig.pfi drop_commits;
  start_late_joiner rig;
  Sim.run ~until:(Vtime.sec 300) rig.Gmp_rig.sim;
  let leader_history = history rig "compsun1" in
  let kicked, readmitted = presence_transitions leader_history ~member:3 in
  [ Conformance.check "committed into the others' view" ~paper:"yes"
      ~measured:
        (yes_no (readmitted >= 1 || ever_member 3 leader_history));
    Conformance.check "kicked out after going silent" ~paper:"yes"
      ~measured:(yes_no (kicked >= 1));
    (* compsun3 never adopts a multi-member view, and keeps timing out
       of IN_TRANSITION back to a singleton *)
    Conformance.check "stuck in transition, then cycled by its timer"
      ~paper:"yes"
      ~measured:
        (yes_no
           (List.for_all (fun v -> v.Gmd.members = [ 3 ]) (history rig "compsun3")
           && gmp_count rig ~node:"compsun3" ~tag:"gmp.mc-timeout" >= 1)) ]

let table6 =
  Conformance.paper_section ~key:"table6"
    ~title:"GMP network partitions (paper Table 6)"
    ~blurb:
      "Five daemons.  Send filters drop by destination address: first to \
       split {1,2,3} from {4,5} from 60 s to 160 s and again from 260 s, \
       then to cut the leader off from the crown prince at 60 s."

(* the paper drops based on destination address in the send filter *)
let split_filter other_group = Printf.sprintf {|
if {[bb_get split 0] == 1} {
  set dst [msg_attr cur_msg net.dst]
  if {[lsearch {%s} $dst] >= 0} { xDrop cur_msg }
}
|} (String.concat " " other_group)

let partition_oscillation seed =
  let rig = Gmp_rig.make ~n:5 ~seed () in
  let group_a = [ "compsun1"; "compsun2"; "compsun3" ] in
  let group_b = [ "compsun4"; "compsun5" ] in
  let filter other name =
    Pfi_layer.set_send_filter (node rig name).Gmp_rig.pfi (split_filter other)
  in
  List.iter (filter group_b) group_a;
  List.iter (filter group_a) group_b;
  Gmp_rig.start rig ~stagger:(Vtime.sec 1) ();
  let sim = rig.Gmp_rig.sim in
  let set_split v () =
    Blackboard.set rig.Gmp_rig.blackboard "split" (if v then "1" else "0")
  in
  ignore (Sim.schedule sim ~delay:(Vtime.sec 60) (set_split true));
  ignore (Sim.schedule sim ~delay:(Vtime.sec 160) (set_split false));
  ignore (Sim.schedule sim ~delay:(Vtime.sec 260) (set_split true));
  let views_at at =
    let cell = ref "" in
    ignore
      (Sim.schedule sim ~delay:(Vtime.sec at) (fun () ->
           cell :=
             Printf.sprintf "compsun1 %s, compsun4 %s"
               (group (Gmp_rig.members rig "compsun1"))
               (group (Gmp_rig.members rig "compsun4"))));
    cell
  in
  let split = views_at 155 and healed = views_at 255 and again = views_at 355 in
  Sim.run ~until:(Vtime.sec 360) sim;
  let split_views = "compsun1 {1,2,3}, compsun4 {4,5}" in
  [ Conformance.check "views during the split (155 s)" ~paper:split_views
      ~measured:!split;
    Conformance.check "views after the heal (255 s)"
      ~paper:"compsun1 {1,2,3,4,5}, compsun4 {1,2,3,4,5}" ~measured:!healed;
    Conformance.check "views in the second split (355 s)" ~paper:split_views
      ~measured:!again ]

let block_dst dst = Printf.sprintf {|
if {[msg_attr cur_msg net.dst] == "%s"} { xDrop cur_msg }
|} dst

let leader_crown_prince_separation seed =
  let rig = Gmp_rig.make ~n:5 ~seed () in
  Gmp_rig.start rig ~stagger:(Vtime.sec 1) ();
  (* at t=60 s, the leader and the crown prince stop talking *)
  send_filter_at rig ~at:60 "compsun1" (block_dst "compsun2");
  send_filter_at rig ~at:60 "compsun2" (block_dst "compsun1");
  Sim.run ~until:(Vtime.sec 400) rig.Gmp_rig.sim;
  [ Conformance.check "leader's final group" ~paper:"{1,3,4,5}"
      ~measured:(group (Gmp_rig.members rig "compsun1"));
    Conformance.check "crown prince's final group" ~paper:"{2}"
      ~measured:(group (Gmp_rig.members rig "compsun2")) ]

let table7 =
  Conformance.paper_section ~key:"table7"
    ~title:"GMP proclaim forwarding (paper Table 7)"
    ~blurb:
      "compsun3 joins late and its send filter drops its PROCLAIMs to the \
       leader, so only compsun2's forwarded copies get through.  With the \
       paper's bug the leader answers the forwarder, and the two bounce the \
       proclaim between them; fixed, it answers the originator."

let drop_proclaims_to_leader = {|
if {[msg_type cur_msg] == "PROCLAIM" && [msg_attr cur_msg net.dst] == "compsun1"} {
  xDrop cur_msg
}
|}

let proclaim_forwarding ~buggy seed =
  let config =
    config ~buggy { Gmd.no_bugs with Gmd.proclaim_reply_to_sender = true }
  in
  let rig = Gmp_rig.make ~n:3 ~config ~seed () in
  Pfi_layer.set_send_filter (node rig "compsun3").Gmp_rig.pfi
    drop_proclaims_to_leader;
  start_late_joiner rig;
  (* a short horizon: the buggy loop floods messages *)
  Sim.run ~until:(Vtime.sec (if buggy then 45 else 120)) rig.Gmp_rig.sim;
  let forwards = gmp_count rig ~node:"compsun2" ~tag:"gmp.proclaim-fwd" in
  [ claim "proclaims forwarded by compsun2"
      ~paper:(if buggy then "more than 20 (a loop)" else "20 or fewer")
      ~measured:(string_of_int forwards)
      (buggy = (forwards > 20));
    Conformance.check "originator admitted" ~paper:(yes_no (not buggy))
      ~measured:(yes_no (List.mem 3 (Gmp_rig.members rig "compsun1"))) ]

let table8 =
  Conformance.paper_section ~key:"table8"
    ~title:"GMP timer test (paper Table 8)"
    ~blurb:
      "compsun2's receive filter drops COMMITs and heartbeats once it has \
       seen its second MEMBERSHIP_CHANGE, holding it IN_TRANSITION, where \
       only the membership-change timer should be armed.  With the paper's \
       inverted NULL test a heartbeat-expect timer stays armed and fires."

let second_mc_drop = {|
set t [msg_type cur_msg]
if {$t == "MEMBERSHIP_CHANGE"} {
  set n [expr {[bb_get mc_seen 0] + 1}]
  bb_set mc_seen $n
  if {$n >= 2} { bb_set dropping 1 }
}
if {[bb_get dropping 0] == 1 && ($t == "COMMIT" || $t == "HEARTBEAT")} {
  xDrop cur_msg
}
|}

let timer_test ~buggy seed =
  let config =
    config ~buggy { Gmd.no_bugs with Gmd.timer_unset_inverted = true }
  in
  let rig = Gmp_rig.make ~n:3 ~config ~seed () in
  let victim = (node rig "compsun2").Gmp_rig.gmd in
  Pfi_layer.set_receive_filter (node rig "compsun2").Gmp_rig.pfi second_mc_drop;
  start_late_joiner rig;
  (* sample which timers are armed while the victim is in transition *)
  let snapshot = ref [] in
  let rec sample () =
    if Gmd.phase victim = Gmd.In_transition && !snapshot = [] then
      snapshot := Gmd.armed_timers victim;
    ignore (Sim.schedule rig.Gmp_rig.sim ~delay:(Vtime.ms 200) sample)
  in
  ignore (Sim.schedule rig.Gmp_rig.sim ~delay:(Vtime.sec 31) (fun () -> sample ()));
  Sim.run ~until:(Vtime.sec 60) rig.Gmp_rig.sim;
  let spurious = gmp_count rig ~node:"compsun2" ~tag:"gmp.spurious-timeout" in
  let expect_armed =
    List.exists
      (fun name -> String.length name > 7 && String.sub name 0 7 = "expect_")
      !snapshot
  in
  [ (if buggy then
       Conformance.check_at_least "spurious timeouts" ~floor:1 ~measured:spurious
     else Conformance.check_int "spurious timeouts" ~paper:0 ~measured:spurious);
    claim "timers armed while IN_TRANSITION"
      ~paper:(if buggy then "an expect_* timer besides mc_wait" else "mc_wait")
      ~measured:(String.concat " " !snapshot)
      (if buggy then expect_armed else !snapshot = [ "mc_wait" ]) ]

(* ------------------------------------------------------------------ *)
(* Ablation A: Karn's sampling rule                                   *)
(* ------------------------------------------------------------------ *)

let karn =
  Conformance.paper_section ~key:"ablation-karn"
    ~title:"Ablation A: Karn's sampling rule on a lossy link"
    ~blurb:
      "Not in the paper.  60 spaced segments cross a 200 ms-RTT path whose \
       x-Kernel PFI layer drops 25% of arrivals; the vendor's final smoothed \
       RTT is read after 4 minutes.  One run is noisy, so the row runs 25 \
       seeds per variant, derived from the row seed, and compares medians.  \
       Without Karn's rule, samples from retransmitted segments include the \
       timeout wait and inflate the estimate."

(* a lossy 200 ms-RTT path; the estimator should settle near 200 ms *)
let karn_srtt ~karn_sampling seed =
  let profile =
    { Profile.xkernel with
      Profile.name = "ablation";
      Profile.karn_sampling;
      (* small floor so the estimate itself is visible, and no backoff
         retention so both variants retransmit alike *)
      Profile.rttvar_floor = Vtime.ms 10;
      Profile.rto_granule = Vtime.ms 10 }
  in
  let rig = Tcp_rig.make ~profile ~seed () in
  Pfi_netsim.Network.set_latency rig.Tcp_rig.net ~src:Tcp_rig.vendor_node
    ~dst:Tcp_rig.xk_node (Vtime.ms 100);
  Pfi_netsim.Network.set_latency rig.Tcp_rig.net ~src:Tcp_rig.xk_node
    ~dst:Tcp_rig.vendor_node (Vtime.ms 100);
  let vconn, _xc = Tcp_rig.connect rig in
  (* 25% loss on the data path, injected as a receive-omission failure
     model on the x-Kernel PFI layer *)
  Failure_models.apply rig.Tcp_rig.pfi (Failure_models.Receive_omission { p = 0.25 });
  (* spaced sends so each segment is individually timed *)
  for i = 1 to 60 do
    ignore
      (Sim.schedule rig.Tcp_rig.sim ~delay:(Vtime.mul (Vtime.sec 2) i) (fun () ->
           if Tcp.state vconn = Tcp.Established then Tcp.send vconn "0123456789"))
  done;
  Sim.run ~until:(Vtime.minutes 4) rig.Tcp_rig.sim;
  Option.value (Tcp.srtt vconn) ~default:Vtime.infinity

let karn_runs = 25

(* (first quartile, median, third quartile) by nearest rank *)
let quartiles samples =
  let a = Array.of_list (List.sort Vtime.compare samples) in
  let at q = a.(q * (Array.length a - 1) / 4) in
  (at 1, at 2, at 3)

let karn_row =
  Conformance.paper_row ~section:karn ~slug:"xkernel-lossy"
    ~subject:"x-Kernel TCP, 25% loss"
    ~quirk:"Karn's rule keeps srtt near the 200 ms RTT; without it srtt inflates"
    (fun seed ->
      let seeds =
        List.init karn_runs (fun i ->
            Campaign.trial_seed_of_key ~campaign_seed:seed
              ~side:Campaign.Send_filter (Int64.of_int i))
      in
      let on = quartiles (List.map (karn_srtt ~karn_sampling:true) seeds) in
      let off = quartiles (List.map (karn_srtt ~karn_sampling:false) seeds) in
      let cell (q1, median, q3) =
        Printf.sprintf "median %.0f ms, quartiles %.0f-%.0f ms"
          (Vtime.to_ms_f median) (Vtime.to_ms_f q1) (Vtime.to_ms_f q3)
      in
      let _, on_median, _ = on and _, off_median, _ = off in
      [ claim "srtt, Karn sampling on" ~paper:"median under 800 ms (4 x RTT)"
          ~measured:(cell on)
          Vtime.(on_median < Vtime.ms 800);
        claim "srtt, Karn sampling off"
          ~paper:"median at least 4 x the Karn-on median" ~measured:(cell off)
          Vtime.(off_median >= Vtime.mul on_median 4) ])

(* ------------------------------------------------------------------ *)
(* The catalog                                                        *)
(* ------------------------------------------------------------------ *)

let catalog () =
  let vendors = Profile.all_vendors in
  List.map (table2_row 3) vendors
  @ List.map (table2_row 8) vendors
  @ [ retry_row ~slug:"solaris-2.3-global" ~subject:"Solaris 2.3"
        ~quirk:"one global error counter: m2 inherits m1's six timeouts"
        ~m2_paper:3 Profile.solaris_23;
      retry_row ~slug:"solaris-2.3-per-segment"
        ~subject:"Solaris 2.3, per-segment counter"
        ~quirk:"counted per segment, m2 gets the full budget of nine"
        ~m2_paper:9
        { Profile.solaris_23 with Profile.global_error_counter = false } ]
  @ List.map keepalive_acked_row vendors
  @ List.map zerowin_unanswered_row vendors
  @ [ unplug_row Profile.sunos_413 ]
  @ List.map exp5_row vendors
  @ [ Conformance.paper_row ~section:table5 ~slug:"self-death-buggy"
        ~subject:"own heartbeats dropped, buggy"
        ~quirk:"dropping its own heartbeats, gmd declares itself dead but \
                stays in its group, and proclaim forwarding breaks"
        (self_heartbeat_drop ~buggy:true);
      Conformance.paper_row ~section:table5 ~slug:"self-death-fixed"
        ~subject:"own heartbeats dropped, fixed"
        ~quirk:"dropping its own heartbeats, gmd forms a singleton"
        (self_heartbeat_drop ~buggy:false);
      Conformance.paper_row ~section:table5 ~slug:"kick-cycle"
        ~subject:"heartbeats to others dropped"
        ~quirk:"a member that drops most outgoing heartbeats is kicked out \
                and re-admitted, over and over"
        kick_cycle;
      Conformance.paper_row ~section:table5 ~slug:"mc-ack-drop"
        ~subject:"MEMBERSHIP_CHANGE ACKs dropped"
        ~quirk:"a joiner whose ACKs are dropped is never admitted and keeps \
                trying"
        mc_ack_drop;
      Conformance.paper_row ~section:table5 ~slug:"commit-drop"
        ~subject:"COMMITs dropped"
        ~quirk:"a joiner that never sees COMMIT is committed by the others, \
                kicked for silence, and cycles in transition"
        commit_drop;
      Conformance.paper_row ~section:table6 ~slug:"partition"
        ~subject:"partition into two groups"
        ~quirk:"a partition forms two disjoint groups, which merge on heal \
                and split again"
        partition_oscillation;
      Conformance.paper_row ~section:table6 ~slug:"separation"
        ~subject:"leader/crown-prince separation"
        ~quirk:"cut off from the crown prince, the leader keeps the rest \
                and the crown prince ends alone"
        leader_crown_prince_separation;
      Conformance.paper_row ~section:table7 ~slug:"proclaim-buggy"
        ~subject:"proclaim forwarding, buggy"
        ~quirk:"the leader answers the forwarder: a proclaim loop, and the \
                originator is never admitted"
        (proclaim_forwarding ~buggy:true);
      Conformance.paper_row ~section:table7 ~slug:"proclaim-fixed"
        ~subject:"proclaim forwarding, fixed"
        ~quirk:"the leader answers the originator, which is admitted"
        (proclaim_forwarding ~buggy:false);
      Conformance.paper_row ~section:table8 ~slug:"timer-buggy"
        ~subject:"timer test, buggy"
        ~quirk:"entering IN_TRANSITION leaves a heartbeat-expect timer \
                armed, and it fires"
        (timer_test ~buggy:true);
      Conformance.paper_row ~section:table8 ~slug:"timer-fixed"
        ~subject:"timer test, fixed"
        ~quirk:"entering IN_TRANSITION leaves only the membership-change \
                timer armed"
        (timer_test ~buggy:false);
      karn_row ]
