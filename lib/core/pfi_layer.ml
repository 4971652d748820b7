open Pfi_engine
open Pfi_stack
open Pfi_script

type native_action =
  | Pass
  | Drop
  | Delay of Vtime.t

type stats = {
  mutable passed : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable held : int;
  mutable injected : int;
  mutable modified : int;
  mutable dup_orphans : int;
}

let fresh_stats () =
  { passed = 0; dropped = 0; delayed = 0; duplicated = 0; held = 0;
    injected = 0; modified = 0; dup_orphans = 0 }

type direction = Send | Receive

(* verdict accumulated while a filter script runs on the current message *)
type verdict =
  | V_pass
  | V_drop
  | V_delay of Vtime.t
  | V_hold of string

type eval_ctx = {
  dir : direction;
  cur : Message.t;
  mutable verdict : verdict;
  mutable dups : int;
}

type t = {
  sim : Sim.t;
  node_name : string;
  mutable the_layer : Layer.t option;  (* tied after creation *)
  stub : Stubs.t;
  bb : Blackboard.t;
  send_interp : Interp.t;
  recv_interp : Interp.t;
  mutable send_script : Ast.script option;
  mutable recv_script : Ast.script option;
  mutable native_send : (Message.t -> native_action) list;
  mutable native_recv : (Message.t -> native_action) list;
  handles : (string, Message.t) Hashtbl.t;
  mutable next_handle : int;
  holds : (string, (Message.t * direction) Queue.t) Hashtbl.t;
  timers : (string, Timer.t) Hashtbl.t;
  rng : Rng.t;
  send_stats : stats;
  recv_stats : stats;
  mutable ctx : eval_ctx option;  (* current message context, if any *)
  peers : (string, t) Hashtbl.t;
  mutable trace_verdicts : bool;
}

let layer t =
  match t.the_layer with
  | Some l -> l
  | None -> assert false

let sim t = t.sim
let blackboard t = t.bb
let send_stats t = t.send_stats
let receive_stats t = t.recv_stats
let set_trace_verdicts t on = t.trace_verdicts <- on

let total_filtered t =
  let sum s = s.passed + s.dropped + s.delayed + s.held in
  sum t.send_stats + sum t.recv_stats

let connect layers =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then Hashtbl.replace a.peers b.node_name b)
        layers)
    layers

(* ------------------------------------------------------------------ *)
(* Message continuation                                               *)
(* ------------------------------------------------------------------ *)

(* Continue a message past the layer in its direction of travel. *)
let continue t dir msg =
  match dir with
  | Send -> Layer.send_down (layer t) msg
  | Receive -> Layer.deliver_up (layer t) msg

let inject t dir ?(delay = Vtime.zero) msg =
  let stats = match dir with Send -> t.send_stats | Receive -> t.recv_stats in
  stats.injected <- stats.injected + 1;
  if Vtime.equal delay Vtime.zero then continue t dir msg
  else ignore (Sim.schedule t.sim ~delay (fun () -> continue t dir msg))

let inject_down t ?delay msg = inject t Send ?delay msg
let inject_up t ?delay msg = inject t Receive ?delay msg

let hold_queue t name =
  match Hashtbl.find_opt t.holds name with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.holds name q;
    q

let release t ?(reverse = false) name =
  let q = hold_queue t name in
  let held = List.of_seq (Queue.to_seq q) in
  Queue.clear q;
  let held = if reverse then List.rev held else held in
  List.iter (fun (msg, dir) -> continue t dir msg) held

let held_count t name = Queue.length (hold_queue t name)

(* ------------------------------------------------------------------ *)
(* Script command bindings                                            *)
(* ------------------------------------------------------------------ *)

let script_error fmt = Format.kasprintf Interp.error fmt

let resolve_msg t handle =
  if String.equal handle "cur_msg" then
    match t.ctx with
    | Some ctx -> ctx.cur
    | None -> script_error "cur_msg: no message is being filtered"
  else
    match Hashtbl.find_opt t.handles handle with
    | Some msg -> msg
    | None -> script_error "unknown message handle %S" handle

let require_ctx t what =
  match t.ctx with
  | Some ctx -> ctx
  | None -> script_error "%s: no message is being filtered" what

let new_handle t msg =
  t.next_handle <- t.next_handle + 1;
  let handle = Printf.sprintf "msg%d" t.next_handle in
  Hashtbl.replace t.handles handle msg;
  handle

let take_handle t handle =
  let msg = resolve_msg t handle in
  Hashtbl.remove t.handles handle;
  msg

let float_arg what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> script_error "%s: expected number but got %S" what s

(* [Vtime.of_sec_f] truncates through [int_of_float], which gives 0 for
   NaN and past [max_int]: a delay out of range would fire at once. *)
let delay_arg what s =
  let secs = float_arg what s in
  if not (secs *. 1e6 < float_of_int Vtime.infinity) then
    script_error "%s: delay out of range: %S" what s;
  Vtime.of_sec_f secs

let int_arg what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> script_error "%s: expected integer but got %S" what s

let dir_name = function Send -> "send" | Receive -> "receive"

let stats_for t dir = match dir with Send -> t.send_stats | Receive -> t.recv_stats

(* Registers the whole PFI command vocabulary into [interp], which is
   the [dir]-side interpreter of [t]. *)
let bind_commands t interp dir =
  let r name fn = Interp.register interp name fn in
  (* --- recognition / inspection ------------------------------------ *)
  r "msg_type" (fun _ args ->
      match args with
      | [ h ] -> t.stub.Stubs.msg_type (resolve_msg t h)
      | _ -> script_error "usage: msg_type msgHandle");
  r "msg_len" (fun _ args ->
      match args with
      | [ h ] -> string_of_int (Message.length (resolve_msg t h))
      | _ -> script_error "usage: msg_len msgHandle");
  r "msg_hex" (fun _ args ->
      match args with
      | [ h ] -> Message.hex (resolve_msg t h)
      | _ -> script_error "usage: msg_hex msgHandle");
  r "msg_data" (fun _ args ->
      match args with
      | [ h ] -> Message.to_string (resolve_msg t h)
      | _ -> script_error "usage: msg_data msgHandle");
  r "msg_field" (fun _ args ->
      match args with
      | [ h; field ] ->
        Option.value (t.stub.Stubs.get_field (resolve_msg t h) field) ~default:""
      | _ -> script_error "usage: msg_field msgHandle fieldName");
  r "msg_attr" (fun _ args ->
      match args with
      | [ h; key ] ->
        Option.value (Message.get_attr (resolve_msg t h) key) ~default:""
      | _ -> script_error "usage: msg_attr msgHandle key");
  r "msg_set_attr" (fun _ args ->
      match args with
      | [ h; key; value ] -> Message.set_attr (resolve_msg t h) key value; ""
      | _ -> script_error "usage: msg_set_attr msgHandle key value");
  r "msg_log" (fun _ args ->
      match args with
      | [ h ] | [ h; _ ] ->
        let msg = resolve_msg t h in
        let tag = match args with [ _; tag ] -> tag | _ -> "pfi.log" in
        Sim.record t.sim ~node:t.node_name ~tag
          ~fields:(("dir", dir_name dir) :: t.stub.Stubs.fields msg)
          (Printf.sprintf "%s %s" (dir_name dir) (t.stub.Stubs.describe msg));
        ""
      | _ -> script_error "usage: msg_log msgHandle ?tag?");
  (* --- modification ------------------------------------------------- *)
  r "msg_set_field" (fun _ args ->
      match args with
      | [ h; field; value ] ->
        let msg = resolve_msg t h in
        if t.stub.Stubs.set_field msg field value then begin
          (stats_for t dir).modified <- (stats_for t dir).modified + 1;
          "1"
        end
        else "0"
      | _ -> script_error "usage: msg_set_field msgHandle fieldName value");
  (* --- generation --------------------------------------------------- *)
  r "msg_gen" (fun _ args ->
      let rec pairs = function
        | [] -> []
        | k :: v :: rest -> (k, v) :: pairs rest
        | [ _ ] -> script_error "msg_gen: odd number of key/value arguments"
      in
      match t.stub.Stubs.generate (pairs args) with
      | Some msg -> new_handle t msg
      | None -> script_error "msg_gen: stub cannot generate from these arguments");
  r "msg_copy" (fun _ args ->
      match args with
      | [ h ] -> new_handle t (Message.copy (resolve_msg t h))
      | _ -> script_error "usage: msg_copy msgHandle");
  (* --- verdicts on the current message ------------------------------ *)
  let current_only what h k =
    if not (String.equal h "cur_msg") then
      script_error "%s applies only to cur_msg" what
    else k (require_ctx t what)
  in
  r "xDrop" (fun _ args ->
      match args with
      | [ h ] -> current_only "xDrop" h (fun ctx -> ctx.verdict <- V_drop); ""
      | _ -> script_error "usage: xDrop cur_msg");
  r "xDelay" (fun _ args ->
      match args with
      | [ h; seconds ] ->
        let delay = delay_arg "xDelay" seconds in
        current_only "xDelay" h (fun ctx -> ctx.verdict <- V_delay delay);
        ""
      | _ -> script_error "usage: xDelay cur_msg seconds");
  r "xHold" (fun _ args ->
      match args with
      | [ h; qname ] ->
        current_only "xHold" h (fun ctx -> ctx.verdict <- V_hold qname);
        ""
      | _ -> script_error "usage: xHold cur_msg queueName");
  r "xDup" (fun _ args ->
      match args with
      | [ h ] | [ h; _ ] ->
        let n = match args with [ _; n ] -> int_arg "xDup" n | _ -> 1 in
        current_only "xDup" h (fun ctx -> ctx.dups <- ctx.dups + max 0 n);
        ""
      | _ -> script_error "usage: xDup cur_msg ?count?");
  r "xCorrupt" (fun _ args ->
      match args with
      | [ h ] | [ h; _ ] ->
        let msg = resolve_msg t h in
        let offset =
          match args with
          | [ _; off ] -> int_arg "xCorrupt" off
          | _ -> if Message.length msg = 0 then 0 else Rng.int t.rng (Message.length msg)
        in
        ignore (Message.corrupt_byte msg ~offset);
        (stats_for t dir).modified <- (stats_for t dir).modified + 1;
        ""
      | _ -> script_error "usage: xCorrupt msgHandle ?offset?");
  r "xRelease" (fun _ args ->
      match args with
      | [ qname ] -> release t qname; ""
      | [ "-reverse"; qname ] -> release t ~reverse:true qname; ""
      | _ -> script_error "usage: xRelease ?-reverse? queueName");
  r "xHeldCount" (fun _ args ->
      match args with
      | [ qname ] -> string_of_int (held_count t qname)
      | _ -> script_error "usage: xHeldCount queueName");
  (* --- injection ---------------------------------------------------- *)
  let inject_cmd inj_dir name _ args =
    match args with
    | [ h ] | [ h; _ ] ->
      let delay =
        match args with
        | [ _; seconds ] -> delay_arg name seconds
        | _ -> Vtime.zero
      in
      let msg =
        if String.equal h "cur_msg" then Message.copy (resolve_msg t h)
        else take_handle t h
      in
      inject t inj_dir ~delay msg;
      ""
    | _ -> script_error "usage: %s msgHandle ?delaySeconds?" name
  in
  r "inject_down" (inject_cmd Send "inject_down");
  r "inject_up" (inject_cmd Receive "inject_up");
  (* --- time and timers ----------------------------------------------- *)
  r "now" (fun _ args ->
      match args with
      | [] -> Printf.sprintf "%.6f" (Vtime.to_sec_f (Sim.now t.sim))
      | _ -> script_error "usage: now");
  r "now_us" (fun _ args ->
      match args with
      | [] -> Int64.to_string (Vtime.to_us (Sim.now t.sim))
      | _ -> script_error "usage: now_us");
  r "timer_set" (fun _ args ->
      match args with
      | [ name; seconds; script ] ->
        let delay = delay_arg "timer_set" seconds in
        (match Hashtbl.find_opt t.timers name with
         | Some old -> Timer.disarm old
         | None -> ());
        let timer =
          Timer.create t.sim ~callback:(fun () -> ignore (Interp.eval interp script))
        in
        Hashtbl.replace t.timers name timer;
        Timer.arm timer ~delay;
        ""
      | _ -> script_error "usage: timer_set name seconds script");
  r "timer_cancel" (fun _ args ->
      match args with
      | [ name ] ->
        (match Hashtbl.find_opt t.timers name with
         | Some timer -> Timer.disarm timer
         | None -> ());
        ""
      | _ -> script_error "usage: timer_cancel name");
  (* --- cross-interpreter and cross-node state ------------------------ *)
  let other_interp () =
    match dir with Send -> t.recv_interp | Receive -> t.send_interp
  in
  r "peer_set" (fun _ args ->
      match args with
      | [ var; value ] -> Interp.set_global (other_interp ()) var value; ""
      | _ -> script_error "usage: peer_set varName value");
  r "peer_get" (fun _ args ->
      match args with
      | [ var ] ->
        Option.value (Interp.get_global (other_interp ()) var) ~default:""
      | _ -> script_error "usage: peer_get varName");
  r "node_set" (fun _ args ->
      match args with
      | [ peer; side; var; value ] ->
        (match Hashtbl.find_opt t.peers peer with
         | None -> script_error "node_set: not connected to node %S" peer
         | Some p ->
           let target =
             match side with
             | "send" -> p.send_interp
             | "receive" -> p.recv_interp
             | _ -> script_error "node_set: side must be send or receive"
           in
           Interp.set_global target var value;
           "")
      | _ -> script_error "usage: node_set node send|receive varName value");
  r "node_get" (fun _ args ->
      match args with
      | [ peer; side; var ] ->
        (match Hashtbl.find_opt t.peers peer with
         | None -> script_error "node_get: not connected to node %S" peer
         | Some p ->
           let target =
             match side with
             | "send" -> p.send_interp
             | "receive" -> p.recv_interp
             | _ -> script_error "node_get: side must be send or receive"
           in
           Option.value (Interp.get_global target var) ~default:"")
      | _ -> script_error "usage: node_get node send|receive varName");
  r "bb_set" (fun _ args ->
      match args with
      | [ key; value ] -> Blackboard.set t.bb key value; ""
      | _ -> script_error "usage: bb_set key value");
  r "bb_get" (fun _ args ->
      match args with
      | [ key ] -> Blackboard.get_default t.bb key ~default:""
      | [ key; default ] -> Blackboard.get_default t.bb key ~default
      | _ -> script_error "usage: bb_get key ?default?");
  r "bb_incr" (fun _ args ->
      match args with
      | [ key ] -> string_of_int (Blackboard.incr t.bb key)
      | _ -> script_error "usage: bb_incr key");
  (* --- probability distributions ------------------------------------- *)
  r "dst_normal" (fun _ args ->
      match args with
      | [ mean; std ] ->
        Printf.sprintf "%.6f"
          (Rng.normal t.rng ~mean:(float_arg "dst_normal" mean)
             ~std:(float_arg "dst_normal" std))
      | _ -> script_error "usage: dst_normal mean std");
  r "dst_uniform" (fun _ args ->
      match args with
      | [ lo; hi ] ->
        Printf.sprintf "%.6f"
          (Rng.uniform t.rng ~lo:(float_arg "dst_uniform" lo)
             ~hi:(float_arg "dst_uniform" hi))
      | _ -> script_error "usage: dst_uniform lo hi");
  r "dst_exponential" (fun _ args ->
      match args with
      | [ mean ] ->
        Printf.sprintf "%.6f" (Rng.exponential t.rng ~mean:(float_arg "dst_exponential" mean))
      | _ -> script_error "usage: dst_exponential mean");
  r "chance" (fun _ args ->
      match args with
      | [ p ] -> if Rng.bernoulli t.rng ~p:(float_arg "chance" p) then "1" else "0"
      | _ -> script_error "usage: chance probability");
  (* --- logging -------------------------------------------------------- *)
  r "log" (fun _ args ->
      match args with
      | tag :: rest ->
        Sim.record t.sim ~node:t.node_name ~tag (String.concat " " rest);
        ""
      | [] -> script_error "usage: log tag ?detail ...?")

(* ------------------------------------------------------------------ *)
(* Filter execution                                                   *)
(* ------------------------------------------------------------------ *)

let rec run_native filters msg =
  match filters with
  | [] -> Pass
  | filter :: rest ->
    (match filter msg with
     | Pass -> run_native rest msg
     | verdict -> verdict)

let run_script t dir msg =
  let interp, script =
    match dir with
    | Send -> (t.send_interp, t.send_script)
    | Receive -> (t.recv_interp, t.recv_script)
  in
  match script with
  | None -> V_pass, 0
  | Some compiled ->
    let ctx = { dir; cur = msg; verdict = V_pass; dups = 0 } in
    let saved = t.ctx in
    t.ctx <- Some ctx;
    let finish () = t.ctx <- saved in
    (match Interp.eval_compiled interp compiled with
     | _ -> finish ()
     | exception e ->
       finish ();
       (match e with
        | Interp.Script_error msg | Parser.Parse_error msg ->
          failwith
            (Printf.sprintf "PFI %s/%s filter script error: %s" t.node_name
               (dir_name dir) msg)
        | e -> raise e));
    (ctx.verdict, ctx.dups)

let verdict_name = function
  | V_pass -> "pass"
  | V_drop -> "drop"
  | V_delay _ -> "delay"
  | V_hold _ -> "hold"

(* Structured per-message verdict event (tag "pfi.verdict"), opt-in via
   [set_trace_verdicts].  Stub fields ride along, minus any key the
   verdict metadata already claimed. *)
let trace_verdict t dir msg verdict dups =
  if t.trace_verdicts then begin
    let base =
      [ ("dir", dir_name dir);
        ("verdict", verdict_name verdict);
        ("type", t.stub.Stubs.msg_type msg);
        ("len", string_of_int (Message.length msg)) ]
    in
    let base = if dups > 0 then base @ [ ("dups", string_of_int dups) ] else base in
    let extra =
      List.filter (fun (k, _) -> not (List.mem_assoc k base)) (t.stub.Stubs.fields msg)
    in
    Sim.record t.sim ~node:t.node_name ~tag:"pfi.verdict" ~fields:(base @ extra)
      (Printf.sprintf "%s %s %s" (dir_name dir) (verdict_name verdict)
         (t.stub.Stubs.describe msg))
  end

let filter t dir msg =
  let stats = stats_for t dir in
  let native = match dir with Send -> t.native_send | Receive -> t.native_recv in
  match run_native native msg with
  | Drop ->
    stats.dropped <- stats.dropped + 1;
    trace_verdict t dir msg V_drop 0
  | Delay d ->
    stats.delayed <- stats.delayed + 1;
    trace_verdict t dir msg (V_delay d) 0;
    ignore (Sim.schedule t.sim ~delay:d (fun () -> continue t dir msg))
  | Pass ->
    let verdict, dups = run_script t dir msg in
    (* Copies are snapshotted before the original continues (downstream
       layers may mutate it in place), but sent onward only after the
       verdict is applied, so the original is always the first arrival
       and a dropped original never travels disguised as its copy. *)
    let copies =
      if dups > 0 then begin
        stats.duplicated <- stats.duplicated + dups;
        List.init dups (fun _ -> Message.copy msg)
      end
      else []
    in
    trace_verdict t dir msg verdict dups;
    (match verdict with
     | V_pass ->
       stats.passed <- stats.passed + 1;
       continue t dir msg
     | V_drop ->
       stats.dropped <- stats.dropped + 1;
       if dups > 0 then stats.dup_orphans <- stats.dup_orphans + dups
     | V_delay d ->
       stats.delayed <- stats.delayed + 1;
       ignore (Sim.schedule t.sim ~delay:d (fun () -> continue t dir msg))
     | V_hold qname ->
       stats.held <- stats.held + 1;
       Queue.add (msg, dir) (hold_queue t qname));
    if dups > 0 then List.iter (continue t dir) copies

(* ------------------------------------------------------------------ *)
(* Stats snapshot                                                     *)
(* ------------------------------------------------------------------ *)

let stats_fields prefix (s : stats) =
  [ (prefix ^ ".passed", string_of_int s.passed);
    (prefix ^ ".dropped", string_of_int s.dropped);
    (prefix ^ ".delayed", string_of_int s.delayed);
    (prefix ^ ".duplicated", string_of_int s.duplicated);
    (prefix ^ ".held", string_of_int s.held);
    (prefix ^ ".injected", string_of_int s.injected);
    (prefix ^ ".modified", string_of_int s.modified);
    (prefix ^ ".dup_orphans", string_of_int s.dup_orphans) ]

let record_stats_snapshot t =
  let s = t.send_stats and r = t.recv_stats in
  Sim.record t.sim ~node:t.node_name ~tag:"pfi.stats"
    ~fields:(stats_fields "send" s @ stats_fields "recv" r)
    (Printf.sprintf
       "send passed=%d dropped=%d delayed=%d dup=%d | recv passed=%d dropped=%d delayed=%d dup=%d"
       s.passed s.dropped s.delayed s.duplicated r.passed r.dropped r.delayed
       r.duplicated)

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create ~sim ~node ?(stub = Stubs.raw) ?blackboard () =
  let bb = match blackboard with Some bb -> bb | None -> Blackboard.create () in
  let t =
    { sim;
      node_name = node;
      the_layer = None;
      stub;
      bb;
      send_interp = Script.create ();
      recv_interp = Script.create ();
      send_script = None;
      recv_script = None;
      native_send = [];
      native_recv = [];
      handles = Hashtbl.create 16;
      next_handle = 0;
      holds = Hashtbl.create 8;
      timers = Hashtbl.create 8;
      rng = Rng.split (Sim.rng sim);
      send_stats = fresh_stats ();
      recv_stats = fresh_stats ();
      ctx = None;
      peers = Hashtbl.create 8;
      trace_verdicts = false }
  in
  let the_layer =
    Layer.create ~name:"pfi" ~node
      { on_push = (fun _ msg -> filter t Send msg);
        on_pop = (fun _ msg -> filter t Receive msg) }
  in
  t.the_layer <- Some the_layer;
  bind_commands t t.send_interp Send;
  bind_commands t t.recv_interp Receive;
  Interp.set_global t.send_interp "direction" "send";
  Interp.set_global t.recv_interp "direction" "receive";
  Interp.set_global t.send_interp "pfi_node" node;
  Interp.set_global t.recv_interp "pfi_node" node;
  t

let set_send_filter_compiled t script = t.send_script <- Some script
let set_receive_filter_compiled t script = t.recv_script <- Some script

let set_send_filter t src = set_send_filter_compiled t (Interp.compile src)
let set_receive_filter t src = set_receive_filter_compiled t (Interp.compile src)

let clear_send_filter t = t.send_script <- None
let clear_receive_filter t = t.recv_script <- None

let eval_in t side src =
  let interp = match side with `Send -> t.send_interp | `Receive -> t.recv_interp in
  Interp.eval interp src

let add_native_send t filter = t.native_send <- t.native_send @ [ filter ]
let add_native_receive t filter = t.native_recv <- t.native_recv @ [ filter ]

let clear_native_filters t =
  t.native_send <- [];
  t.native_recv <- []
