open Pfi_engine
open Pfi_stack

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Closing -> "CLOSING"
  | Time_wait -> "TIME_WAIT"

(* an unacknowledged segment awaiting its ACK *)
type inflight = {
  if_seq : Seq32.t;
  if_payload : Bytes.t;
  if_syn : bool;
  if_fin : bool;
  mutable if_rexmits : int;
}

let if_span s =
  Bytes.length s.if_payload + (if s.if_syn then 1 else 0) + (if s.if_fin then 1 else 0)

let if_end s = Seq32.add s.if_seq (if_span s)

type conn = {
  tcp : t;
  local_port : int;
  remote_node : string;
  remote_port : int;
  mutable state : state;
  (* send side *)
  mutable iss : Seq32.t;
  mutable snd_una : Seq32.t;
  mutable snd_nxt : Seq32.t;
  mutable snd_wnd : int;
  mutable sendq : string;  (* queued, not yet segmentised *)
  mutable inflight : inflight list;  (* ascending seq *)
  mutable fin_pending : bool;
  mutable fin_seq : Seq32.t option;  (* seq our FIN occupies, once sent *)
  (* receive side *)
  mutable irs : Seq32.t;
  mutable rcv_nxt : Seq32.t;
  mutable recvq : string;  (* delivered in-order, unconsumed by the app *)
  mutable ooo : (Seq32.t * string) list;  (* out-of-order, ascending *)
  mutable auto_consume : bool;
  (* congestion control (bytes) *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dup_acks : int;
  (* delayed-ACK state *)
  mutable delack_pending : int;  (* in-order segments not yet acked *)
  (* RTT estimation (microseconds) *)
  mutable srtt : float;
  mutable rttvar : float;
  mutable have_rtt : bool;
  mutable backoff : int;
  mutable timing : (Seq32.t * Vtime.t) option;  (* end-seq, start time *)
  (* timers *)
  rexmt_timer : Timer.t;
  persist_timer : Timer.t;
  delack_timer : Timer.t;
  keepalive_timer : Timer.t;
  time_wait_timer : Timer.t;
  mutable persist_shift : int;
  (* failure accounting *)
  mutable error_counter : int;  (* global consecutive-timeout counter *)
  mutable total_retransmits : int;
  mutable keepalive_on : bool;
  mutable keepalive_probes : int;
  mutable keepalive_phase : bool;  (* true once probing has started *)
  mutable last_recv_time : Vtime.t;
  mutable close_reason : string option;
  (* app callbacks *)
  mutable on_data_cb : string -> unit;
  mutable on_state_cb : state -> unit;
}

and t = {
  sim : Sim.t;
  node_name : string;
  prof : Profile.t;
  mutable the_layer : Layer.t option;
  conns : (int * string * int, conn) Hashtbl.t;
  listeners : (int, unit) Hashtbl.t;
  mutable accept_cb : conn -> unit;
  mutable next_ephemeral : int;
  mutable next_iss : int;
}

let layer t = match t.the_layer with Some l -> l | None -> assert false

let record t tag detail = Sim.record t.sim ~node:t.node_name ~tag detail

(* ------------------------------------------------------------------ *)
(* Segment output                                                     *)
(* ------------------------------------------------------------------ *)

let rcv_window c =
  max 0 (c.tcp.prof.Profile.rcv_buffer - String.length c.recvq)

let emit c seg =
  let t = c.tcp in
  (* per-segment = the hot path: defer the describe cost until the
     entry is read, and only decorate for an attached MSC renderer *)
  Sim.record_with t.sim ~node:t.node_name ~tag:"tcp.out" Segment.describe seg;
  let msg = Segment.to_message seg ~dst:c.remote_node in
  if Sim.want_labels t.sim then
    Message.set_attr msg "msc.label" (Segment.describe seg);
  Layer.send_down (layer t) msg

let send_pure_ack c =
  c.delack_pending <- 0;
  Timer.disarm c.delack_timer;
  let seg =
    Segment.make ~src_port:c.local_port ~dst_port:c.remote_port ~seq:c.snd_nxt
      ~ack:c.rcv_nxt ~flags:Segment.flag_ack ~window:(rcv_window c) ()
  in
  emit c seg

let send_rst_for ~t ~dst (seg : Segment.t) =
  (* reset in reply to a stray segment (RFC 793 p.36 rules, simplified) *)
  let span = Segment.seq_span seg in
  let reply =
    if seg.Segment.flags.Segment.ack then
      Segment.make ~src_port:seg.Segment.dst_port ~dst_port:seg.Segment.src_port
        ~seq:seg.Segment.ack ~ack:0 ~flags:Segment.flag_rst ~window:0 ()
    else
      Segment.make ~src_port:seg.Segment.dst_port ~dst_port:seg.Segment.src_port
        ~seq:0 ~ack:(Seq32.add seg.Segment.seq span)
        ~flags:{ Segment.flag_rst with Segment.ack = true }
        ~window:0 ()
  in
  record t "tcp.rst-sent" (Segment.describe reply);
  Layer.send_down (layer t) (Segment.to_message reply ~dst)

let send_rst_conn c =
  let seg =
    Segment.make ~src_port:c.local_port ~dst_port:c.remote_port ~seq:c.snd_nxt
      ~ack:c.rcv_nxt ~flags:{ Segment.flag_rst with Segment.ack = true }
      ~window:0 ()
  in
  record c.tcp "tcp.rst-sent" (Segment.describe seg);
  emit c seg

(* ------------------------------------------------------------------ *)
(* RTO calculation                                                    *)
(* ------------------------------------------------------------------ *)

let base_rto c =
  let p = c.tcp.prof in
  if not c.have_rtt then p.Profile.rto_initial
  else begin
    let floor_us = Int64.to_float (Vtime.to_us p.Profile.rttvar_floor) in
    let var = Float.max c.rttvar floor_us in
    Vtime.us (int_of_float (c.srtt +. (4.0 *. var)))
  end

let effective_rto c =
  let p = c.tcp.prof in
  let base = base_rto c in
  let shift = min c.backoff 20 in
  let backed = Vtime.mul base (1 lsl shift) in
  let clamped = Vtime.clamp ~lo:p.Profile.rto_min ~hi:p.Profile.rto_max backed in
  Vtime.round_up_to ~granule:p.Profile.rto_granule clamped

let take_rtt_sample c sample_us =
  let p = c.tcp.prof in
  if p.Profile.use_jacobson then begin
    if not c.have_rtt then begin
      c.srtt <- sample_us;
      c.rttvar <- sample_us /. 2.0;
      c.have_rtt <- true
    end
    else begin
      let delta = sample_us -. c.srtt in
      c.srtt <- c.srtt +. (delta /. 8.0);
      c.rttvar <- c.rttvar +. ((Float.abs delta -. c.rttvar) /. 4.0)
    end
  end;
  (* a valid sample always clears Karn's retained backoff *)
  c.backoff <- 0

(* ------------------------------------------------------------------ *)
(* State transitions and teardown                                     *)
(* ------------------------------------------------------------------ *)

let set_state c s =
  if c.state <> s then begin
    record c.tcp "tcp.state"
      (Printf.sprintf "port=%d %s -> %s" c.local_port (state_to_string c.state)
         (state_to_string s));
    c.state <- s;
    c.on_state_cb s
  end

let stop_all_timers c =
  Timer.disarm c.rexmt_timer;
  Timer.disarm c.delack_timer;
  Timer.disarm c.persist_timer;
  Timer.disarm c.keepalive_timer;
  Timer.disarm c.time_wait_timer

let drop_connection c ~reason ~send_rst =
  if c.state <> Closed then begin
    c.close_reason <- Some reason;
    if send_rst then send_rst_conn c;
    stop_all_timers c;
    record c.tcp "tcp.closed" (Printf.sprintf "port=%d reason=%s" c.local_port reason);
    Hashtbl.remove c.tcp.conns (c.local_port, c.remote_node, c.remote_port);
    set_state c Closed
  end

(* ------------------------------------------------------------------ *)
(* Output engine                                                      *)
(* ------------------------------------------------------------------ *)

let arm_rexmt c =
  Timer.arm c.rexmt_timer ~delay:(effective_rto c)

let transmit_inflight c (s : inflight) ~retransmission =
  (* everything except the active-open SYN carries a valid ack *)
  let flags =
    { Segment.no_flags with
      Segment.syn = s.if_syn;
      Segment.fin = s.if_fin;
      Segment.ack = not (s.if_syn && c.state = Syn_sent) }
  in
  let seg =
    Segment.make ~payload:s.if_payload ~src_port:c.local_port
      ~dst_port:c.remote_port ~seq:s.if_seq ~ack:c.rcv_nxt ~flags
      ~window:(rcv_window c) ()
  in
  if retransmission then begin
    s.if_rexmits <- s.if_rexmits + 1;
    c.total_retransmits <- c.total_retransmits + 1;
    (* Karn: once anything is retransmitted, no segment in flight can
       be timed — a later segment is ACKed only after the hole fills, so
       its sample would include the retransmission wait.  4.4BSD clears
       [t_rtt] on every retransmission, by timeout or fast retransmit,
       and both come through here.  Without Karn sampling the
       (ambiguous) measurement is kept — the pre-Karn estimator
       corruption the ablation bench shows. *)
    if c.tcp.prof.Profile.karn_sampling then c.timing <- None;
    record c.tcp "tcp.retransmit"
      (Printf.sprintf "port=%d seq=%d n=%d rto=%s" c.local_port s.if_seq
         s.if_rexmits (Vtime.to_string (effective_rto c)))
  end;
  emit c seg

(* move queued bytes into segments while the peer's window allows *)
let rec try_output c =
  let p = c.tcp.prof in
  let in_flight_span = Seq32.diff c.snd_nxt c.snd_una in
  let send_window =
    if p.Profile.congestion_control then min c.snd_wnd c.cwnd else c.snd_wnd
  in
  let usable = send_window - in_flight_span in
  let queued = String.length c.sendq in
  if c.state = Established || c.state = Close_wait || c.state = Syn_rcvd
     || c.state = Fin_wait_1 || c.state = Last_ack || c.state = Closing
  then begin
    if queued > 0 && usable > 0 then begin
      let n = min (min p.Profile.mss usable) queued in
      let payload = Bytes.of_string (String.sub c.sendq 0 n) in
      c.sendq <- String.sub c.sendq n (queued - n);
      let s = { if_seq = c.snd_nxt; if_payload = payload; if_syn = false;
                if_fin = false; if_rexmits = 0 } in
      c.inflight <- c.inflight @ [ s ];
      c.snd_nxt <- Seq32.add c.snd_nxt n;
      if c.timing = None then c.timing <- Some (if_end s, Sim.now c.tcp.sim);
      transmit_inflight c s ~retransmission:false;
      if not (Timer.is_armed c.rexmt_timer) then arm_rexmt c;
      try_output c
    end
    else if queued = 0 && c.fin_pending && c.fin_seq = None then begin
      (* all data segmentised: send the FIN *)
      let s = { if_seq = c.snd_nxt; if_payload = Bytes.empty; if_syn = false;
                if_fin = true; if_rexmits = 0 } in
      c.inflight <- c.inflight @ [ s ];
      c.fin_seq <- Some c.snd_nxt;
      c.snd_nxt <- Seq32.add c.snd_nxt 1;
      transmit_inflight c s ~retransmission:false;
      if not (Timer.is_armed c.rexmt_timer) then arm_rexmt c
    end
    else if queued > 0 && c.snd_wnd = 0 && c.inflight = [] then begin
      (* zero window with data waiting: start persist probing *)
      if not (Timer.is_armed c.persist_timer) then begin
        c.persist_shift <- 0;
        Timer.arm c.persist_timer ~delay:(persist_interval c)
      end
    end
  end

and persist_interval c =
  let p = c.tcp.prof in
  let base = Vtime.max (base_rto c) p.Profile.rto_min in
  let shift = min c.persist_shift 20 in
  Vtime.clamp ~lo:p.Profile.rto_min ~hi:p.Profile.persist_max
    (Vtime.mul base (1 lsl shift))

(* ------------------------------------------------------------------ *)
(* Timer callbacks                                                    *)
(* ------------------------------------------------------------------ *)

let on_rexmt_timeout c =
  match c.inflight with
  | [] -> ()  (* everything got acked in the meantime *)
  | earliest :: _ ->
    let p = c.tcp.prof in
    c.error_counter <- c.error_counter + 1;
    let retries =
      if p.Profile.global_error_counter then c.error_counter
      else earliest.if_rexmits + 1
    in
    if retries > p.Profile.max_data_retries then
      drop_connection c ~reason:"rexmt-exhausted" ~send_rst:p.Profile.rst_on_timeout
    else begin
      c.backoff <- c.backoff + 1;
      if p.Profile.congestion_control then begin
        (* Van Jacobson: halve the pipe estimate, restart slow start *)
        let in_flight = Seq32.diff c.snd_nxt c.snd_una in
        c.ssthresh <- max (2 * p.Profile.mss) (in_flight / 2);
        c.cwnd <- p.Profile.mss
      end;
      transmit_inflight c earliest ~retransmission:true;
      arm_rexmt c
    end

let on_persist_timeout c =
  if c.snd_wnd = 0 && String.length c.sendq > 0 then begin
    (* probe with the first unsent byte; nothing advances until the
       window reopens, so probing continues indefinitely (the behaviour
       Table 4 flags as a possible problem) *)
    let probe_byte = Bytes.of_string (String.sub c.sendq 0 1) in
    let seg =
      Segment.make ~payload:probe_byte ~src_port:c.local_port
        ~dst_port:c.remote_port ~seq:c.snd_nxt ~ack:c.rcv_nxt
        ~flags:Segment.flag_ack ~window:(rcv_window c) ()
    in
    record c.tcp "tcp.persist-probe"
      (Printf.sprintf "port=%d n=%d interval=%s" c.local_port (c.persist_shift + 1)
         (Vtime.to_string (persist_interval c)));
    emit c seg;
    c.persist_shift <- c.persist_shift + 1;
    Timer.arm c.persist_timer ~delay:(persist_interval c)
  end

let on_delack_timeout c =
  if c.delack_pending > 0 then send_pure_ack c

let keepalive_probe_interval c =
  let p = c.tcp.prof in
  match p.Profile.keepalive_schedule with
  | Profile.Fixed_interval { interval; _ } -> interval
  | Profile.Exponential_backoff _ ->
    let shift = min c.keepalive_probes 20 in
    Vtime.clamp ~lo:p.Profile.rto_min ~hi:p.Profile.rto_max
      (Vtime.mul p.Profile.rto_min (1 lsl shift))

let keepalive_max_probes c =
  match c.tcp.prof.Profile.keepalive_schedule with
  | Profile.Fixed_interval { max_probes; _ } -> max_probes
  | Profile.Exponential_backoff { max_probes } -> max_probes

let send_keepalive_probe c =
  let p = c.tcp.prof in
  let payload =
    if p.Profile.keepalive_garbage_byte then Bytes.of_string "\000" else Bytes.empty
  in
  let seg =
    Segment.make ~payload ~src_port:c.local_port ~dst_port:c.remote_port
      ~seq:(Seq32.add c.snd_nxt (-1))
      ~ack:c.rcv_nxt ~flags:Segment.flag_ack ~window:(rcv_window c) ()
  in
  record c.tcp "tcp.keepalive-probe"
    (Printf.sprintf "port=%d n=%d" c.local_port (c.keepalive_probes + 1));
  emit c seg

let on_keepalive_timeout c =
  let p = c.tcp.prof in
  if c.keepalive_on && c.state = Established then begin
    let idle = Vtime.sub (Sim.now c.tcp.sim) c.last_recv_time in
    if not c.keepalive_phase then begin
      if Vtime.(idle >= p.Profile.keepalive_idle) then begin
        (* idle threshold crossed: first probe *)
        c.keepalive_phase <- true;
        c.keepalive_probes <- 0;
        send_keepalive_probe c;
        c.keepalive_probes <- 1;
        Timer.arm c.keepalive_timer ~delay:(keepalive_probe_interval c)
      end
      else
        Timer.arm c.keepalive_timer
          ~delay:(Vtime.sub p.Profile.keepalive_idle idle)
    end
    else if c.keepalive_probes > keepalive_max_probes c then
      drop_connection c ~reason:"keepalive-exhausted"
        ~send_rst:p.Profile.keepalive_rst_on_fail
    else begin
      send_keepalive_probe c;
      c.keepalive_probes <- c.keepalive_probes + 1;
      Timer.arm c.keepalive_timer ~delay:(keepalive_probe_interval c)
    end
  end

(* ------------------------------------------------------------------ *)
(* Connection construction                                            *)
(* ------------------------------------------------------------------ *)

let make_conn t ~local_port ~remote_node ~remote_port ~state =
  (* timers need the connection they drive; tie the knot through a ref *)
  let cell = ref None in
  let with_conn f () = match !cell with Some c -> f c | None -> () in
  let c =
    { tcp = t;
      local_port;
      remote_node;
      remote_port;
      state;
      iss = 0;
      snd_una = 0;
      snd_nxt = 0;
      snd_wnd = 0;
      sendq = "";
      inflight = [];
      cwnd = t.prof.Profile.mss;
      ssthresh = 65535;
      dup_acks = 0;
      delack_pending = 0;
      fin_pending = false;
      fin_seq = None;
      irs = 0;
      rcv_nxt = 0;
      recvq = "";
      ooo = [];
      auto_consume = true;
      srtt = 0.0;
      rttvar = 0.0;
      have_rtt = false;
      backoff = 0;
      timing = None;
      rexmt_timer = Timer.create t.sim ~callback:(with_conn on_rexmt_timeout);
      persist_timer = Timer.create t.sim ~callback:(with_conn on_persist_timeout);
      delack_timer = Timer.create t.sim ~callback:(with_conn on_delack_timeout);
      keepalive_timer = Timer.create t.sim ~callback:(with_conn on_keepalive_timeout);
      time_wait_timer =
        Timer.create t.sim
          ~callback:
            (with_conn (fun c ->
                 drop_connection c ~reason:"time-wait-done" ~send_rst:false));
      persist_shift = 0;
      error_counter = 0;
      total_retransmits = 0;
      keepalive_on = false;
      keepalive_probes = 0;
      keepalive_phase = false;
      last_recv_time = Sim.now t.sim;
      close_reason = None;
      on_data_cb = (fun _ -> ());
      on_state_cb = (fun _ -> ()) }
  in
  cell := Some c;
  Hashtbl.replace t.conns (local_port, remote_node, remote_port) c;
  c

let next_iss t =
  t.next_iss <- t.next_iss + 64000;
  Seq32.of_int t.next_iss

(* ------------------------------------------------------------------ *)
(* ACK processing                                                     *)
(* ------------------------------------------------------------------ *)

let process_ack c (seg : Segment.t) =
  let ack = seg.Segment.ack in
  if Seq32.gt ack c.snd_una && Seq32.le ack c.snd_nxt then begin
    (* new data acknowledged: retire covered inflight segments *)
    let acked, remaining =
      List.partition (fun s -> Seq32.le (if_end s) ack) c.inflight
    in
    (* an ACK is unambiguous when it covers at least one segment that
       was never retransmitted — a cumulative ACK in steady flow
       qualifies, a lone ACK of a retransmitted segment does not *)
    let has_clean = List.exists (fun s -> s.if_rexmits = 0) acked in
    c.inflight <- remaining;
    c.snd_una <- ack;
    c.dup_acks <- 0;
    (* congestion window: slow start below ssthresh, additive above *)
    if c.tcp.prof.Profile.congestion_control then begin
      let mss = c.tcp.prof.Profile.mss in
      if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + mss
      else c.cwnd <- c.cwnd + max 1 (mss * mss / c.cwnd);
      c.cwnd <- min c.cwnd 1_048_576
    end;
    (* RTT sample per Karn: only from a timed, never-retransmitted range *)
    (match c.timing with
     | Some (end_seq, started) when Seq32.ge ack end_seq ->
       c.timing <- None;
       take_rtt_sample c (Int64.to_float (Vtime.to_us (Vtime.sub (Sim.now c.tcp.sim) started)))
     | _ -> ());
    if has_clean then c.error_counter <- 0;
    if not c.tcp.prof.Profile.karn_backoff_retention then c.backoff <- 0;
    (* our FIN acknowledged? *)
    let fin_acked =
      match c.fin_seq with
      | Some fs -> Seq32.gt ack fs
      | None -> false
    in
    if c.inflight = [] then Timer.disarm c.rexmt_timer else arm_rexmt c;
    (match (c.state, fin_acked) with
     | Fin_wait_1, true -> set_state c Fin_wait_2
     | Closing, true ->
       set_state c Time_wait;
       Timer.arm c.time_wait_timer ~delay:(Vtime.sec 60)
     | Last_ack, true -> drop_connection c ~reason:"closed" ~send_rst:false
     | _ -> ())
  end;
  (* duplicate-ACK accounting for Reno fast retransmit: a pure ACK
     repeating snd_una while data is outstanding *)
  (if Seq32.of_int seg.Segment.ack = Seq32.of_int c.snd_una
      && c.inflight <> [] && Segment.len seg = 0
      && not seg.Segment.flags.Segment.syn && not seg.Segment.flags.Segment.fin
      && seg.Segment.window > 0
   then begin
     c.dup_acks <- c.dup_acks + 1;
     if c.dup_acks = 3 && c.tcp.prof.Profile.fast_retransmit then begin
       (match c.inflight with
        | earliest :: _ ->
          record c.tcp "tcp.fast-retransmit"
            (Printf.sprintf "port=%d seq=%d" c.local_port earliest.if_seq);
          if c.tcp.prof.Profile.congestion_control then begin
            let in_flight = Seq32.diff c.snd_nxt c.snd_una in
            c.ssthresh <- max (2 * c.tcp.prof.Profile.mss) (in_flight / 2);
            c.cwnd <- c.ssthresh
          end;
          transmit_inflight c earliest ~retransmission:true;
          arm_rexmt c
        | [] -> ())
     end
   end
   else if Seq32.gt seg.Segment.ack c.snd_una then c.dup_acks <- 0);
  (* window update happens even on duplicate ACKs *)
  c.snd_wnd <- seg.Segment.window;
  if c.snd_wnd > 0 && Timer.is_armed c.persist_timer then begin
    Timer.disarm c.persist_timer;
    c.persist_shift <- 0
  end;
  try_output c

(* ------------------------------------------------------------------ *)
(* Data reception                                                     *)
(* ------------------------------------------------------------------ *)

let deliver_in_order c data =
  c.recvq <- c.recvq ^ data;
  c.rcv_nxt <- Seq32.add c.rcv_nxt (String.length data);
  if c.auto_consume then begin
    let chunk = c.recvq in
    c.recvq <- "";
    if String.length chunk > 0 then c.on_data_cb chunk
  end
  else c.on_data_cb data

(* merge the out-of-order list after rcv_nxt advanced *)
let rec drain_ooo c =
  match c.ooo with
  | (seq, data) :: rest when Seq32.le seq c.rcv_nxt ->
    c.ooo <- rest;
    let skip = Seq32.diff c.rcv_nxt seq in
    if skip < String.length data then
      deliver_in_order c (String.sub data skip (String.length data - skip));
    drain_ooo c
  | _ -> ()

let insert_ooo c seq data =
  let rec insert = function
    | [] -> [ (seq, data) ]
    | (s, d) :: rest when Seq32.lt seq s -> (seq, data) :: (s, d) :: rest
    | (s, d) :: rest when Seq32.of_int s = Seq32.of_int seq ->
      (* duplicate out-of-order segment: keep the longer *)
      if String.length data > String.length d then (s, data) :: rest
      else (s, d) :: rest
    | entry :: rest -> entry :: insert rest
  in
  c.ooo <- insert c.ooo

let process_payload c (seg : Segment.t) =
  let data = Bytes.to_string seg.Segment.payload in
  let len = String.length data in
  if len = 0 then false
  else begin
    let seq = seg.Segment.seq in
    let wnd = rcv_window c in
    if Seq32.le (Seq32.add seq len) c.rcv_nxt then
      (* entirely old (keep-alive probes land here): just re-ack *)
      true
    else begin
      (* trim anything below rcv_nxt *)
      let skip = max 0 (Seq32.diff c.rcv_nxt seq) in
      let seq = Seq32.add seq skip in
      let data = String.sub data skip (len - skip) in
      (* trim anything beyond our window *)
      let usable = wnd - max 0 (Seq32.diff seq c.rcv_nxt) in
      if usable <= 0 then
        (* zero (or overrun) window: drop the payload, still ack *)
        true
      else begin
        let data =
          if String.length data > usable then String.sub data 0 usable else data
        in
        if Seq32.of_int seq = Seq32.of_int c.rcv_nxt then begin
          deliver_in_order c data;
          drain_ooo c
        end
        else
          (* out of order: all four vendor implementations queue *)
          insert_ooo c seq data;
        true
      end
    end
  end

let process_fin c (seg : Segment.t) =
  let fin_seq = Seq32.add seg.Segment.seq (Bytes.length seg.Segment.payload) in
  if seg.Segment.flags.Segment.fin && Seq32.of_int fin_seq = Seq32.of_int c.rcv_nxt
  then begin
    c.rcv_nxt <- Seq32.add c.rcv_nxt 1;
    (match c.state with
     | Established -> set_state c Close_wait
     | Fin_wait_1 -> set_state c Closing
     | Fin_wait_2 ->
       set_state c Time_wait;
       Timer.arm c.time_wait_timer ~delay:(Vtime.sec 60)
     | _ -> ());
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Per-state segment handling                                         *)
(* ------------------------------------------------------------------ *)

let handle_established c (seg : Segment.t) =
  if seg.Segment.flags.Segment.rst then
    drop_connection c ~reason:"reset-received" ~send_rst:false
  else begin
    if seg.Segment.flags.Segment.ack then process_ack c seg;
    let before_rcv_nxt = c.rcv_nxt in
    let had_payload = process_payload c seg in
    let had_fin = process_fin c seg in
    (* acknowledge anything that consumed sequence space or probed us;
       an out-of-sequence segment (e.g. a keep-alive probe at
       SND.NXT-1) elicits a duplicate ACK even when empty *)
    let out_of_sequence =
      not (Seq32.of_int seg.Segment.seq = Seq32.of_int before_rcv_nxt)
    in
    let in_order_data =
      had_payload && not out_of_sequence
      && Seq32.gt c.rcv_nxt before_rcv_nxt
    in
    if had_fin || seg.Segment.flags.Segment.syn || out_of_sequence
       || (had_payload && not in_order_data)
    then send_pure_ack c
    else if in_order_data then begin
      match c.tcp.prof.Profile.delayed_ack with
      | None -> send_pure_ack c
      | Some delay ->
        (* RFC 1122: ack at least every second segment, or after the
           delay, whichever comes first *)
        c.delack_pending <- c.delack_pending + 1;
        if c.delack_pending >= 2 then send_pure_ack c
        else if not (Timer.is_armed c.delack_timer) then
          Timer.arm c.delack_timer ~delay
    end
  end

let handle_syn_sent c (seg : Segment.t) =
  if seg.Segment.flags.Segment.rst then
    drop_connection c ~reason:"reset-received" ~send_rst:false
  else if seg.Segment.flags.Segment.syn && seg.Segment.flags.Segment.ack
          && Seq32.of_int seg.Segment.ack = Seq32.of_int c.snd_nxt
  then begin
    c.irs <- seg.Segment.seq;
    c.rcv_nxt <- Seq32.add seg.Segment.seq 1;
    c.snd_una <- seg.Segment.ack;
    c.inflight <- [];
    Timer.disarm c.rexmt_timer;
    (match c.timing with
     | Some (_, started) ->
       c.timing <- None;
       take_rtt_sample c
         (Int64.to_float (Vtime.to_us (Vtime.sub (Sim.now c.tcp.sim) started)))
     | None -> ());
    c.snd_wnd <- seg.Segment.window;
    set_state c Established;
    send_pure_ack c;
    try_output c
  end

let handle_syn_rcvd c (seg : Segment.t) =
  if seg.Segment.flags.Segment.rst then
    drop_connection c ~reason:"reset-received" ~send_rst:false
  else if seg.Segment.flags.Segment.ack
          && Seq32.of_int seg.Segment.ack = Seq32.of_int c.snd_nxt
  then begin
    c.snd_una <- seg.Segment.ack;
    c.inflight <- [];
    Timer.disarm c.rexmt_timer;
    c.snd_wnd <- seg.Segment.window;
    set_state c Established;
    c.tcp.accept_cb c;
    (* the handshake ACK may carry data *)
    if process_payload c seg then send_pure_ack c
  end

let handle_closing_states c (seg : Segment.t) =
  (* FIN_WAIT_*, CLOSE_WAIT, LAST_ACK, CLOSING, TIME_WAIT share the
     established machinery for ACK/data/FIN processing *)
  handle_established c seg

let conn_receive c seg =
  c.last_recv_time <- Sim.now c.tcp.sim;
  (* any activity resets keep-alive probing back to the idle phase *)
  if c.keepalive_phase then begin
    c.keepalive_phase <- false;
    c.keepalive_probes <- 0
  end;
  if c.keepalive_on && c.state = Established then
    Timer.arm c.keepalive_timer ~delay:c.tcp.prof.Profile.keepalive_idle;
  record c.tcp "tcp.in" (Segment.describe seg);
  match c.state with
  | Closed | Listen -> ()
  | Syn_sent -> handle_syn_sent c seg
  | Syn_rcvd -> handle_syn_rcvd c seg
  | Established -> handle_established c seg
  | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack | Closing | Time_wait ->
    handle_closing_states c seg

(* ------------------------------------------------------------------ *)
(* Host-level demultiplexing                                          *)
(* ------------------------------------------------------------------ *)

let handle_segment t ~src (seg : Segment.t) =
  let key = (seg.Segment.dst_port, src, seg.Segment.src_port) in
  match Hashtbl.find_opt t.conns key with
  | Some c -> conn_receive c seg
  | None ->
    if seg.Segment.flags.Segment.rst then ()  (* never answer a RST *)
    else if seg.Segment.flags.Segment.syn && not seg.Segment.flags.Segment.ack
            && Hashtbl.mem t.listeners seg.Segment.dst_port
    then begin
      (* passive open *)
      let c =
        make_conn t ~local_port:seg.Segment.dst_port ~remote_node:src
          ~remote_port:seg.Segment.src_port ~state:Syn_rcvd
      in
      record t "tcp.in" (Segment.describe seg);
      c.irs <- seg.Segment.seq;
      c.rcv_nxt <- Seq32.add seg.Segment.seq 1;
      c.iss <- next_iss t;
      c.snd_una <- c.iss;
      c.snd_nxt <- Seq32.add c.iss 1;
      c.snd_wnd <- seg.Segment.window;
      let syn_ack = { if_seq = c.iss; if_payload = Bytes.empty; if_syn = true;
                      if_fin = false; if_rexmits = 0 } in
      c.inflight <- [ syn_ack ];
      let reply =
        Segment.make ~src_port:c.local_port ~dst_port:c.remote_port ~seq:c.iss
          ~ack:c.rcv_nxt ~flags:Segment.flag_syn_ack ~window:(rcv_window c) ()
      in
      emit c reply;
      arm_rexmt c
    end
    else send_rst_for ~t ~dst:src seg

let create ~sim ~node ~profile () =
  let t =
    { sim;
      node_name = node;
      prof = profile;
      the_layer = None;
      conns = Hashtbl.create 16;
      listeners = Hashtbl.create 4;
      accept_cb = (fun _ -> ());
      next_ephemeral = 32768;
      next_iss = 0 }
  in
  let l =
    Layer.create ~name:"tcp" ~node
      { on_push = (fun _ _ -> failwith "tcp: nothing above to push from");
        on_pop =
          (fun _ msg ->
            match Segment.of_message msg with
            | Error reason ->
              record t "tcp.bad-segment" reason  (* corrupted: drop *)
            | Ok seg ->
              let src =
                match Message.get_attr msg Pfi_netsim.Network.src_attr with
                | Some s -> s
                | None -> "?"
              in
              handle_segment t ~src seg) }
  in
  t.the_layer <- Some l;
  t

(* ------------------------------------------------------------------ *)
(* Application interface                                              *)
(* ------------------------------------------------------------------ *)

let listen t ~port = Hashtbl.replace t.listeners port ()
let on_accept t cb = t.accept_cb <- cb

let connect t ~dst ~dst_port ?src_port () =
  let src_port =
    match src_port with
    | Some p -> p
    | None ->
      t.next_ephemeral <- t.next_ephemeral + 1;
      t.next_ephemeral
  in
  let c = make_conn t ~local_port:src_port ~remote_node:dst ~remote_port:dst_port
      ~state:Syn_sent in
  c.iss <- next_iss t;
  c.snd_una <- c.iss;
  c.snd_nxt <- Seq32.add c.iss 1;
  let syn = { if_seq = c.iss; if_payload = Bytes.empty; if_syn = true;
              if_fin = false; if_rexmits = 0 } in
  c.inflight <- [ syn ];
  c.timing <- Some (Seq32.add c.iss 1, Sim.now t.sim);
  let seg =
    Segment.make ~src_port ~dst_port ~seq:c.iss ~ack:0 ~flags:Segment.flag_syn
      ~window:(rcv_window c) ()
  in
  emit c seg;
  arm_rexmt c;
  c

let send c data =
  c.sendq <- c.sendq ^ data;
  try_output c

let read c n =
  let available = String.length c.recvq in
  let take = min n available in
  let chunk = String.sub c.recvq 0 take in
  let window_was_closed = rcv_window c = 0 in
  c.recvq <- String.sub c.recvq take (available - take);
  if window_was_closed && rcv_window c > 0 && c.state = Established then
    (* window update so the blocked sender can resume *)
    send_pure_ack c;
  chunk

let set_auto_consume c flag = c.auto_consume <- flag

let set_keepalive c flag =
  c.keepalive_on <- flag;
  if flag then begin
    c.keepalive_phase <- false;
    c.keepalive_probes <- 0;
    Timer.arm c.keepalive_timer ~delay:c.tcp.prof.Profile.keepalive_idle
  end
  else Timer.disarm c.keepalive_timer

let close c =
  match c.state with
  | Established ->
    c.fin_pending <- true;
    set_state c Fin_wait_1;
    try_output c
  | Close_wait ->
    c.fin_pending <- true;
    set_state c Last_ack;
    try_output c
  | Syn_sent | Syn_rcvd -> drop_connection c ~reason:"user-close" ~send_rst:false
  | _ -> ()

let abort c = drop_connection c ~reason:"user-abort" ~send_rst:true

let state c = c.state
let on_state_change c cb = c.on_state_cb <- cb
let on_data c cb = c.on_data_cb <- cb
let local_port c = c.local_port
let snd_una c = c.snd_una
let snd_nxt c = c.snd_nxt
let rcv_nxt c = c.rcv_nxt
let advertised_window c = rcv_window c
let peer_window c = c.snd_wnd
let congestion_window c = c.cwnd
let slow_start_threshold c = c.ssthresh
let current_rto c = effective_rto c
let srtt c = if c.have_rtt then Some (Vtime.us (int_of_float c.srtt)) else None
let error_counter c = c.error_counter
let total_retransmits c = c.total_retransmits
let close_reason c = c.close_reason

let segment_retries c =
  match c.inflight with
  | earliest :: _ -> earliest.if_rexmits
  | [] -> 0
