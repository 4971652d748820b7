open Pfi_engine
open Pfi_stack

type bugs = {
  self_death : bool;
  proclaim_reply_to_sender : bool;
  timer_unset_inverted : bool;
}

let no_bugs =
  { self_death = false; proclaim_reply_to_sender = false; timer_unset_inverted = false }

let all_bugs =
  { self_death = true; proclaim_reply_to_sender = true; timer_unset_inverted = true }

type config = {
  hb_interval : Vtime.t;
  hb_timeout : Vtime.t;
  proclaim_interval : Vtime.t;
  mc_collect : Vtime.t;
  mc_timeout : Vtime.t;
  bugs : bugs;
}

let default_config =
  { hb_interval = Vtime.sec 2;
    hb_timeout = Vtime.sec 7;
    proclaim_interval = Vtime.sec 8;
    mc_collect = Vtime.sec 3;
    mc_timeout = Vtime.sec 15;
    bugs = no_bugs }

type view = {
  group_id : int;
  members : int list;
  leader : int;
}

type phase = Normal | In_transition

type collect = {
  c_gid : int;
  c_proposed : int list;
  mutable c_acked : int list;
  mutable c_nacked : int list;
}

(* A one-entry cache of a rendered trace detail, keyed by the two ids
   it mentions. *)
type detail_memo = {
  mutable m_origin : int;
  mutable m_leader : int;
  mutable m_text : string;  (* "" until first use *)
}

(* What every message to one id carries, built once: its [gmp.send]
   detail renderer and its attribute lists, raw and reliable, as
   successive [Message.set_attr] calls would leave them (newest first:
   destination, [proto=gmp], then the reliability request). *)
type peer = {
  render_send : Gmp_msg.t -> string;
  raw_attrs : (string * string) list;
  rel_attrs : (string * string) list;
}

type t = {
  sim : Sim.t;
  node_name : string;
  self_id : int;
  peers : peer Int_table.t;
  universe : int list;  (* every potential member, sorted, includes self *)
  config : config;
  mutable the_layer : Layer.t option;
  mutable current : view;
  mutable ph : phase;
  mutable down : int list;  (* members locally believed dead *)
  mutable pending_gid : int;
  mutable pending_members : int list;
  mutable collecting : collect option;
  mutable running : bool;
  mutable suspended : bool;
  mutable missed : string list;  (* timers that fired while suspended *)
  mutable self_down : bool;  (* buggy self-death state *)
  mutable next_gid : int;
  mutable ever_members : int list;
      (* everyone who has shared a committed view with us: the peers a
         leader re-proclaims to after losing them (a leader does not
         court strangers — they proclaim to us) *)
  timers : Timer.t String_table.t;
  callbacks : (unit -> unit) String_table.t;
  expect_names : string Int_table.t;
      (* memoized "expect_<id>" timer names: one heartbeat receive per
         peer per interval would otherwise sprintf a fresh name each
         time *)
  mutable history : view list;  (* reversed *)
  fwd_memo : detail_memo;  (* gmp.proclaim-fwd details, plain and looping *)
  loop_memo : detail_memo;
}

let view t = t.current
let phase t = t.ph
let self_marked_down t = t.self_down
let view_history t = List.rev t.history
let layer t = match t.the_layer with Some l -> l | None -> assert false

let is_leader t =
  t.ph = Normal && t.current.leader = t.self_id && not t.self_down

let record t tag detail = Sim.record t.sim ~node:t.node_name ~tag detail

(* A proclaim-forwarding storm records one gmp.proclaim-fwd entry per
   forwarded message, nearly always for the same (origin, leader) pair,
   so each distinct detail is rendered once and its string shared by
   every entry that carries it. *)
let memo_detail m ~origin ~leader render =
  if String.length m.m_text = 0 || m.m_origin <> origin || m.m_leader <> leader
  then begin
    m.m_origin <- origin;
    m.m_leader <- leader;
    m.m_text <- render origin leader
  end;
  m.m_text

let fwd_detail origin leader = Printf.sprintf "origin=%d -> leader=%d" origin leader

let loop_detail origin leader =
  Printf.sprintf "origin=%d -> leader=%d (loop)" origin leader

(* ------------------------------------------------------------------ *)
(* Timers                                                             *)
(*                                                                    *)
(* All callbacks funnel through [fire] so that suspension freezes the  *)
(* daemon: a timer firing while suspended is remembered and replayed   *)
(* on resume — how the Ctrl-Z experiment manifests.                    *)
(* ------------------------------------------------------------------ *)

let fire t timer_name =
  if t.running then begin
    if t.suspended then begin
      if not (List.mem timer_name t.missed) then
        t.missed <- timer_name :: t.missed
    end
    else
      match String_table.find_opt t.callbacks timer_name with
      | Some callback -> callback ()
      | None -> ()
  end

let set_timer t timer_name ~delay callback =
  String_table.replace t.callbacks timer_name callback;
  let timer =
    match String_table.find_opt t.timers timer_name with
    | Some timer -> timer
    | None ->
      let timer = Timer.create t.sim ~callback:(fun () -> fire t timer_name) in
      String_table.replace t.timers timer_name timer;
      timer
  in
  Timer.arm timer ~delay

let disarm_timer t timer_name =
  match String_table.find_opt t.timers timer_name with
  | Some timer -> Timer.disarm timer
  | None -> ()

let disarm_all_timers t =
  String_table.iter (fun _ timer -> Timer.disarm timer) t.timers

let armed_timers t =
  String_table.fold
    (fun name timer acc -> if Timer.is_armed timer then name :: acc else acc)
    t.timers []
  |> List.sort compare

let expect_timer_name t peer_id =
  match Int_table.find_opt t.expect_names peer_id with
  | Some name -> name
  | None ->
    let name = Printf.sprintf "expect_%d" peer_id in
    Int_table.add t.expect_names peer_id name;
    name

(* The unset-all-timeouts routine with the Table 8 bug: the NULL test is
   inverted, so asking for "all" cancels only the first expect timer. *)
let unset_expect_timers t =
  let armed_expects =
    List.filter
      (fun name -> String.length name > 7 && String.sub name 0 7 = "expect_")
      (armed_timers t)
  in
  if t.config.bugs.timer_unset_inverted then begin
    match armed_expects with
    | first :: _rest -> disarm_timer t first  (* the bug: the rest stay armed *)
    | [] -> ()
  end
  else List.iter (disarm_timer t) armed_expects

(* ------------------------------------------------------------------ *)
(* Message sending                                                    *)
(* ------------------------------------------------------------------ *)

let proto_attr = ("proto", "gmp")
let reliable_attr = (Rel_udp.reliable_attr, "1")

let peer name =
  let raw_attrs = [ proto_attr; (Pfi_netsim.Network.dst_attr, name) ] in
  { render_send = (fun msg -> Printf.sprintf "to=%s %s" name (Gmp_msg.describe msg));
    raw_attrs;
    rel_attrs = reliable_attr :: raw_attrs }

let send t ?(reliable = true) ~dst_id (msg : Gmp_msg.t) =
  match Int_table.find t.peers dst_id with
  | exception Not_found ->
    (* a message referenced an id outside the known universe (possible
       under byzantine corruption): log and drop rather than crash *)
    record t "gmp.unknown-peer" (Printf.sprintf "id=%d" dst_id)
  | dst ->
    (* per-message = the campaign hot path: defer the describe/sprintf
       cost until something actually reads the entry, and only decorate
       the wire message when an MSC renderer is listening *)
    Sim.record_with t.sim ~node:t.node_name ~tag:"gmp.send" dst.render_send msg;
    let attrs =
      if Sim.want_labels t.sim then begin
        let attrs = ("msc.label", Gmp_msg.describe msg) :: dst.raw_attrs in
        if reliable then reliable_attr :: attrs else attrs
      end
      else if reliable then dst.rel_attrs
      else dst.raw_attrs
    in
    Layer.send_down (layer t) (Message.create ~attrs (Gmp_msg.encode msg))

let fresh_gid t =
  t.next_gid <- t.next_gid + 1;
  (t.self_id * 1_000_000) + t.next_gid

(* ------------------------------------------------------------------ *)
(* View adoption / singleton                                          *)
(* ------------------------------------------------------------------ *)

let members_string members = String.concat "," (List.map string_of_int members)

let rec adopt_view t ~group_id ~members =
  let members = List.sort_uniq compare members in
  let leader = match members with m :: _ -> m | [] -> t.self_id in
  t.current <- { group_id; members; leader };
  t.ever_members <- List.sort_uniq compare (members @ t.ever_members);
  t.ph <- Normal;
  t.down <- [];
  t.collecting <- None;
  t.pending_gid <- 0;
  t.pending_members <- [];
  t.history <- t.current :: t.history;
  disarm_timer t "mc_wait";
  disarm_timer t "mc_collect";
  record t "gmp.view"
    (Printf.sprintf "gid=%d leader=%d members=[%s]" group_id leader
       (members_string members));
  (* heartbeat machinery: send periodically, expect from every member;
     expect timers of departed members are disarmed so they cannot fire
     stale *)
  set_timer t "hb_send" ~delay:t.config.hb_interval (fun () -> heartbeat_tick t);
  String_table.iter
    (fun name timer ->
      if String.length name > 7 && String.sub name 0 7 = "expect_" then
        match int_of_string_opt (String.sub name 7 (String.length name - 7)) with
        | Some peer when not (List.mem peer members) -> Timer.disarm timer
        | _ -> ())
    t.timers;
  List.iter
    (fun m ->
      set_timer t (expect_timer_name t m) ~delay:t.config.hb_timeout (fun () ->
          expect_expired t m))
    members;
  (* keep proclaiming while there is someone to court (see
     [proclaim_targets]) *)
  if proclaim_targets t <> [] then
    set_timer t "proclaim" ~delay:t.config.proclaim_interval (fun () ->
        proclaim_tick t)
  else disarm_timer t "proclaim"

(* A singleton seeking a group proclaims to every potential member; the
   leader of an established group proclaims only to members it has lost
   (which is how partitions heal).  Non-leaders never proclaim — they
   defect or forward instead. *)
and proclaim_targets t =
  if not (t.ph = Normal && t.current.leader = t.self_id && not t.self_down) then []
  else if t.current.members = [ t.self_id ] then
    List.filter (fun peer -> peer <> t.self_id) t.universe
  else
    List.filter (fun peer -> not (List.mem peer t.current.members)) t.ever_members

and form_singleton t =
  record t "gmp.singleton" (Printf.sprintf "id=%d" t.self_id);
  t.self_down <- false;
  disarm_all_timers t;
  adopt_view t ~group_id:(fresh_gid t) ~members:[ t.self_id ]

(* ------------------------------------------------------------------ *)
(* Heartbeats and failure detection                                   *)
(* ------------------------------------------------------------------ *)

and heartbeat_tick t =
  (* a node that believes itself dead stops heartbeating (buggy state) *)
  if t.ph = Normal && not t.self_down then begin
    let heartbeat =
      Gmp_msg.make ~mtype:Gmp_msg.Heartbeat ~origin:t.self_id ~sender:t.self_id
        ~group_id:t.current.group_id ()
    in
    List.iter (fun m -> send t ~reliable:false ~dst_id:m heartbeat) t.current.members
  end;
  if t.ph = Normal then
    set_timer t "hb_send" ~delay:t.config.hb_interval (fun () -> heartbeat_tick t)

and expect_expired t peer_id =
  if t.ph = In_transition then begin
    (* only the MC timer should be armed here: reaching this point is the
       Table 8 bug in action *)
    record t "gmp.spurious-timeout"
      (Printf.sprintf "expect_%d fired while IN_TRANSITION" peer_id);
    if t.config.bugs.timer_unset_inverted then
      (* the buggy code treats it as a real death and reports it *)
      if t.current.leader <> t.self_id then
        send t ~dst_id:t.current.leader
          (Gmp_msg.make ~mtype:Gmp_msg.Dead ~origin:t.self_id ~sender:t.self_id
             ~subject:peer_id ())
  end
  else if not (List.mem peer_id t.current.members) then ()  (* stale timer *)
  else if t.self_down then begin
    (* the buggy "dead" daemon keeps reacting to its stale timers and
       sends bad information to the others instead of recovering *)
    if peer_id <> t.self_id then begin
      record t "gmp.dead" (Printf.sprintf "member=%d (reported while self-dead)" peer_id);
      if t.current.leader <> t.self_id then
        send t ~dst_id:t.current.leader
          (Gmp_msg.make ~mtype:Gmp_msg.Dead ~origin:t.self_id ~sender:t.self_id
             ~subject:peer_id ())
    end
  end
  else if peer_id = t.self_id then self_death t
  else begin
    record t "gmp.dead" (Printf.sprintf "member=%d" peer_id);
    if not (List.mem peer_id t.down) then t.down <- peer_id :: t.down;
    let alive = List.filter (fun m -> not (List.mem m t.down)) t.current.members in
    let leader_down = List.mem t.current.leader t.down in
    if is_leader t then initiate_mc t ~proposed:alive
    else if leader_down then begin
      (* leader is gone: the lowest surviving member takes over — this
         re-evaluates on every death so cascaded failures (partitions)
         still elect the right survivor *)
      match alive with
      | first :: _ when first = t.self_id ->
        record t "gmp.takeover" (Printf.sprintf "crown prince %d" t.self_id);
        initiate_mc t ~proposed:alive
      | _ -> ()  (* someone closer to the crown handles it *)
    end
    else
      send t ~dst_id:t.current.leader
        (Gmp_msg.make ~mtype:Gmp_msg.Dead ~origin:t.self_id ~sender:t.self_id
           ~subject:peer_id ())
  end

and self_death t =
  if t.config.bugs.self_death then begin
    (* the bug: announce our own death, mark ourselves down, but stay in
       the old group instead of forming a singleton *)
    record t "gmp.self-dead"
      "believes itself dead; staying in group with self marked down";
    t.self_down <- true;
    List.iter
      (fun m ->
        if m <> t.self_id then
          send t ~dst_id:m
            (Gmp_msg.make ~mtype:Gmp_msg.Dead ~origin:t.self_id ~sender:t.self_id
               ~subject:t.self_id ()))
      t.current.members
    (* expect timers keep running: the daemon will now "go haywire" and
       report other members dead from its stale state *)
  end
  else begin
    (* the fix: handle the local machine specially — rejoin cleanly *)
    record t "gmp.dead" "member=self (forming singleton)";
    form_singleton t
  end

(* ------------------------------------------------------------------ *)
(* Two-phase membership change                                        *)
(* ------------------------------------------------------------------ *)

and initiate_mc t ~proposed =
  let proposed = List.sort_uniq compare proposed in
  match proposed with
  | [] | [ _ ] -> form_singleton t
  | _ ->
    let gid = fresh_gid t in
    record t "gmp.transition"
      (Printf.sprintf "leader initiating gid=%d proposed=[%s]" gid
         (members_string proposed));
    t.ph <- In_transition;
    t.pending_gid <- gid;
    t.pending_members <- proposed;
    t.collecting <-
      Some { c_gid = gid; c_proposed = proposed; c_acked = [ t.self_id ]; c_nacked = [] };
    (* in transition, all timers except the collection timer are unset *)
    disarm_timer t "hb_send";
    disarm_timer t "proclaim";
    unset_expect_timers t;
    set_timer t "mc_collect" ~delay:t.config.mc_collect (fun () -> finish_collect t);
    List.iter
      (fun m ->
        if m <> t.self_id then
          send t ~dst_id:m
            (Gmp_msg.make ~mtype:Gmp_msg.Membership_change ~origin:t.self_id
               ~sender:t.self_id ~group_id:gid ~members:proposed ()))
      proposed

and finish_collect t =
  match t.collecting with
  | None -> ()
  | Some c ->
    let final = List.sort_uniq compare c.c_acked in
    record t "gmp.commit-sent"
      (Printf.sprintf "gid=%d members=[%s]" c.c_gid (members_string final));
    List.iter
      (fun m ->
        if m <> t.self_id then
          send t ~dst_id:m
            (Gmp_msg.make ~mtype:Gmp_msg.Commit ~origin:t.self_id ~sender:t.self_id
               ~group_id:c.c_gid ~members:final ()))
      final;
    adopt_view t ~group_id:c.c_gid ~members:final

(* ------------------------------------------------------------------ *)
(* Proclaim / join                                                    *)
(* ------------------------------------------------------------------ *)

and proclaim_tick t =
  match proclaim_targets t with
  | [] -> ()
  | targets ->
    List.iter
      (fun peer ->
        record t "gmp.proclaim-sent" (Printf.sprintf "to=%d" peer);
        send t ~reliable:false ~dst_id:peer
          (Gmp_msg.make ~mtype:Gmp_msg.Proclaim ~origin:t.self_id
             ~sender:t.self_id ~group_id:t.current.group_id ()))
      targets;
    set_timer t "proclaim" ~delay:t.config.proclaim_interval (fun () ->
        proclaim_tick t)

and handle_proclaim t (m : Gmp_msg.t) =
  let originator = m.Gmp_msg.origin in
  if t.self_down then
    (* the forwarding path is broken in the buggy self-dead state: a
       wrong-typed parameter means the packet is never actually sent *)
    record t "gmp.fwd-dropped"
      (Printf.sprintf "proclaim from %d lost in broken forwarding" originator)
  else if is_leader t then begin
    let buggy = t.config.bugs.proclaim_reply_to_sender in
    if (not buggy) && List.mem originator t.current.members then ()
    else if originator < t.self_id && originator <> t.self_id then
      (* the originator outranks us: offer to join them *)
      send t ~dst_id:originator
        (Gmp_msg.make ~mtype:Gmp_msg.Join ~origin:t.self_id ~sender:t.self_id
           ~members:t.current.members ())
    else begin
      (* we outrank them: respond with a proclaim of our own.  The fixed
         code replies to the originator; the buggy code replies to the
         sender, which may be a forwarder — the Table 7 loop. *)
      let reply_to = if buggy then m.Gmp_msg.sender else originator in
      if reply_to <> t.self_id then
        send t ~dst_id:reply_to
          (Gmp_msg.make ~mtype:Gmp_msg.Proclaim ~origin:t.self_id ~sender:t.self_id
             ~group_id:t.current.group_id ())
    end
  end
  else if t.ph = Normal then begin
    if originator < t.current.leader then
      (* a better leader is out there: defect by offering to join it *)
      send t ~dst_id:originator
        (Gmp_msg.make ~mtype:Gmp_msg.Join ~origin:t.self_id ~sender:t.self_id
           ~members:[ t.self_id ] ())
    else if originator <> t.current.leader then begin
      record t "gmp.proclaim-fwd"
        (memo_detail t.fwd_memo ~origin:originator ~leader:t.current.leader fwd_detail);
      send t ~dst_id:t.current.leader
        (Gmp_msg.make ~mtype:Gmp_msg.Proclaim ~origin:originator ~sender:t.self_id
           ~group_id:m.Gmp_msg.group_id ())
    end
    else begin
      (* a proclaim from our own leader: the buggy forwarder bounces it
         straight back (the vicious cycle); sane code ignores it *)
      if t.config.bugs.proclaim_reply_to_sender then begin
        record t "gmp.proclaim-fwd"
          (memo_detail t.loop_memo ~origin:originator ~leader:t.current.leader
             loop_detail);
        send t ~dst_id:t.current.leader
          (Gmp_msg.make ~mtype:Gmp_msg.Proclaim ~origin:originator ~sender:t.self_id
             ~group_id:m.Gmp_msg.group_id ())
      end
    end
  end

and handle_join t (m : Gmp_msg.t) =
  if is_leader t then begin
    let joiners = m.Gmp_msg.origin :: m.Gmp_msg.members in
    let alive = List.filter (fun x -> not (List.mem x t.down)) t.current.members in
    let proposed = List.sort_uniq compare (alive @ joiners) in
    if proposed <> t.current.members then initiate_mc t ~proposed
  end
  else if t.ph = Normal && t.current.leader <> t.self_id then
    (* forward to our leader, preserving the originator *)
    send t ~dst_id:t.current.leader
      (Gmp_msg.make ~mtype:Gmp_msg.Join ~origin:m.Gmp_msg.origin ~sender:t.self_id
         ~members:m.Gmp_msg.members ())

(* ------------------------------------------------------------------ *)
(* Receiving                                                          *)
(* ------------------------------------------------------------------ *)

and handle_message t (m : Gmp_msg.t) =
  match m.Gmp_msg.mtype with
  | Gmp_msg.Heartbeat ->
    if List.mem m.Gmp_msg.sender t.current.members && t.ph = Normal then begin
      let sender = m.Gmp_msg.sender in
      let name = expect_timer_name t sender in
      (* per-heartbeat hot path: the callback registered under an
         expect name is semantically constant (expect_expired on that
         peer), so once both tables hold the name a bare re-arm skips
         the closure allocation and the two table writes *)
      match String_table.find_opt t.timers name with
      | Some timer when String_table.mem t.callbacks name ->
        Timer.arm timer ~delay:t.config.hb_timeout
      | _ ->
        set_timer t name ~delay:t.config.hb_timeout
          (fun () -> expect_expired t sender)
    end
  | Gmp_msg.Proclaim -> handle_proclaim t m
  | Gmp_msg.Join -> handle_join t m
  | Gmp_msg.Membership_change ->
    let proposed = List.sort_uniq compare m.Gmp_msg.members in
    let valid_leader =
      match proposed with
      | first :: _ -> first = m.Gmp_msg.sender
      | [] -> false
    in
    if valid_leader && List.mem t.self_id proposed
       && m.Gmp_msg.sender <> t.self_id
    then begin
      (* leave the old group and transition toward the new one *)
      record t "gmp.transition"
        (Printf.sprintf "member entering gid=%d proposed=[%s]" m.Gmp_msg.group_id
           (members_string proposed));
      t.ph <- In_transition;
      t.self_down <- false;
      t.pending_gid <- m.Gmp_msg.group_id;
      t.pending_members <- proposed;
      t.collecting <- None;
      disarm_timer t "hb_send";
      disarm_timer t "proclaim";
      disarm_timer t "mc_collect";
      unset_expect_timers t;
      set_timer t "mc_wait" ~delay:t.config.mc_timeout (fun () ->
          record t "gmp.mc-timeout" "no COMMIT arrived; reverting to singleton";
          form_singleton t);
      send t ~dst_id:m.Gmp_msg.sender
        (Gmp_msg.make ~mtype:Gmp_msg.Mc_ack ~origin:t.self_id ~sender:t.self_id
           ~group_id:m.Gmp_msg.group_id ())
    end
  | Gmp_msg.Mc_ack ->
    (match t.collecting with
     | Some c when c.c_gid = m.Gmp_msg.group_id ->
       if not (List.mem m.Gmp_msg.sender c.c_acked) then
         c.c_acked <- m.Gmp_msg.sender :: c.c_acked;
       if List.for_all (fun p -> List.mem p c.c_acked) c.c_proposed then begin
         disarm_timer t "mc_collect";
         finish_collect t
       end
     | _ -> ())
  | Gmp_msg.Mc_nak ->
    (match t.collecting with
     | Some c when c.c_gid = m.Gmp_msg.group_id ->
       c.c_nacked <- m.Gmp_msg.sender :: c.c_nacked
     | _ -> ())
  | Gmp_msg.Commit ->
    if t.ph = In_transition && m.Gmp_msg.group_id = t.pending_gid
       && List.mem t.self_id m.Gmp_msg.members
    then adopt_view t ~group_id:m.Gmp_msg.group_id ~members:m.Gmp_msg.members
  | Gmp_msg.Dead ->
    if is_leader t && List.mem m.Gmp_msg.subject t.current.members
       && m.Gmp_msg.subject <> t.self_id
    then begin
      record t "gmp.dead-report"
        (Printf.sprintf "member=%d reported by %d" m.Gmp_msg.subject
           m.Gmp_msg.origin);
      if not (List.mem m.Gmp_msg.subject t.down) then
        t.down <- m.Gmp_msg.subject :: t.down;
      let alive = List.filter (fun x -> not (List.mem x t.down)) t.current.members in
      initiate_mc t ~proposed:alive
    end

(* ------------------------------------------------------------------ *)
(* Construction and lifecycle                                         *)
(* ------------------------------------------------------------------ *)

let create ~sim ~node ~id ~peers ?(config = default_config) () =
  let by_id = Int_table.create 8 in
  Int_table.replace by_id id (peer node);
  List.iter (fun (name, peer_id) -> Int_table.replace by_id peer_id (peer name)) peers;
  let universe = List.sort_uniq compare (id :: List.map snd peers) in
  let t =
    { sim;
      node_name = node;
      self_id = id;
      peers = by_id;
      universe;
      config;
      the_layer = None;
      current = { group_id = 0; members = [ id ]; leader = id };
      ph = Normal;
      down = [];
      pending_gid = 0;
      pending_members = [];
      collecting = None;
      running = false;
      suspended = false;
      missed = [];
      self_down = false;
      next_gid = 0;
      ever_members = [ id ];
      timers = String_table.create 16;
      callbacks = String_table.create 16;
      expect_names = Int_table.create 8;
      history = [];
      fwd_memo = { m_origin = 0; m_leader = 0; m_text = "" };
      loop_memo = { m_origin = 0; m_leader = 0; m_text = "" } }
  in
  let l =
    Layer.create ~name:"gmd" ~node
      { on_push = (fun _ _ -> failwith "gmd: nothing above to push from");
        on_pop =
          (fun _ msg ->
            if t.running && not t.suspended then
              match Gmp_msg.of_message msg with
              | Ok m -> handle_message t m
              | Error reason -> record t "gmp.bad-message" reason) }
  in
  t.the_layer <- Some l;
  t

let start t =
  t.running <- true;
  form_singleton t

let stop t =
  t.running <- false;
  disarm_all_timers t

let suspend t = t.suspended <- true

let resume t =
  t.suspended <- false;
  let missed = List.rev t.missed in
  t.missed <- [];
  List.iter
    (fun timer_name ->
      match String_table.find_opt t.callbacks timer_name with
      | Some callback -> callback ()
      | None -> ())
    missed
