open Pfi_engine
open Pfi_stack

let dst_attr = "net.dst"
let src_attr = "net.src"
let broadcast = "*"

type link_key = string * string

(* the latency of every link without its own *)
let default_latency = Vtime.ms 1

(* One record per directed link that has carried a copy: what a
   delivery needs, fixed for the record's lifetime, and the link's
   in-flight copies in a ring, oldest first.  Every copy waits the same
   [delay], so copies arrive in ring order, and two copies due at one
   instant fire in transmit order; the one [deliver] callback each copy
   schedules therefore pops the ring's head. *)
type link = {
  dst : string;
  device : Layer.t;
  delay : Vtime.t;
  src_binding : string * string;  (* (net.src, the link's source) *)
  mutable msgs : Message.t array;
  mutable sent_ats : Vtime.t array;
  mutable head : int;
  mutable size : int;
  mutable deliver : unit -> unit;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  devices : Layer.t String_table.t;
  links : link String_table.t String_table.t;
      (* by source, then destination; [set_latency] retires a record *)
  latencies : (link_key, Vtime.t) Hashtbl.t;
  losses : (link_key, float) Hashtbl.t;
  blocked : (link_key, unit) Hashtbl.t;
  mutable groups : string list list option;  (* current partition *)
  unplugged : (string, unit) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create sim =
  { sim;
    rng = Rng.split (Sim.rng sim);
    devices = String_table.create 16;
    links = String_table.create 16;
    latencies = Hashtbl.create 16;
    losses = Hashtbl.create 16;
    blocked = Hashtbl.create 16;
    groups = None;
    unplugged = Hashtbl.create 8;
    sent = 0;
    delivered = 0;
    dropped = 0 }

let sim t = t.sim

let nodes t =
  List.sort String.compare (String_table.fold (fun k _ acc -> k :: acc) t.devices [])

(* Copies already in flight drain from the retired record, at the
   latency they were sent with. *)
let set_latency t ~src ~dst l =
  Hashtbl.replace t.latencies (src, dst) l;
  match String_table.find t.links src with
  | links -> String_table.remove links dst
  | exception Not_found -> ()
let set_loss t ~src ~dst rate = Hashtbl.replace t.losses (src, dst) rate
let block t ~src ~dst = Hashtbl.replace t.blocked (src, dst) ()
let unblock t ~src ~dst = Hashtbl.remove t.blocked (src, dst)
let partition t groups = t.groups <- Some groups
let heal t = t.groups <- None
let unplug t node = Hashtbl.replace t.unplugged node ()
let replug t node = Hashtbl.remove t.unplugged node
let is_unplugged t node =
  Hashtbl.length t.unplugged > 0 && Hashtbl.mem t.unplugged node

let sent_count t = t.sent
let delivered_count t = t.delivered
let dropped_count t = t.dropped
(* protocol layers only format msc.label decorations when a renderer is
   listening (see Sim.set_want_labels); the same flag turns on
   [msc_record] *)
let set_msc_enabled t flag = Sim.set_want_labels t.sim flag

(* One entry per transmission, carrying everything the MSC renderer
   needs (see Msc.parse_entry for the format).  [time] is the send
   time: deliveries record their entry from inside the delivery
   callback (so an in-flight unplug is rendered as a drop, not an
   arrival), which is why the stamp is passed explicitly rather than
   read from the clock. *)
let msc_record t ~time ~src ~dst ~arrival msg =
  if Sim.want_labels t.sim then begin
    let label =
      match Message.get_attr msg "msc.label" with
      | Some l -> l
      | None -> Printf.sprintf "len=%d" (Message.length msg)
    in
    let arrival =
      match arrival with
      | Some time -> Int64.to_string (Vtime.to_us time)
      | None -> "-"
    in
    Trace.record (Sim.trace t.sim) ~time ~node:src ~tag:"msc"
      ~fields:[ ("dst", dst); ("arrival", arrival); ("label", label) ]
      (Printf.sprintf "dst=%s arrival=%s | %s" dst arrival label)
  end

let same_group t src dst =
  match t.groups with
  | None -> true
  | Some groups ->
    let find node =
      let rec go i = function
        | [] -> -1  (* unlisted nodes form the implicit group -1 *)
        | g :: rest -> if List.mem node g then i else go (i + 1) rest
      in
      go 0 groups
    in
    find src = find dst

(* The link tables are empty unless a test configures per-link
   behaviour, so the per-transmission lookups skip them — and their
   (src, dst) key tuples — entirely when they are. *)
let link_find tbl ~src ~dst =
  if Hashtbl.length tbl = 0 then None else Hashtbl.find_opt tbl (src, dst)

let latency t ~src ~dst =
  match link_find t.latencies ~src ~dst with
  | Some l -> l
  | None -> default_latency

(* [sent_at] defaults to now; delivery-time drops pass the original send
   time so the MSC entry lines up with the transmission it records. *)
let drop ?sent_at t ~src ~dst msg =
  t.dropped <- t.dropped + 1;
  let sent_at = match sent_at with Some time -> time | None -> Sim.now t.sim in
  msc_record t ~time:sent_at ~src ~dst ~arrival:None msg

(* a popped ring slot holds this, so it keeps no message alive *)
let vacant = Message.create Bytes.empty

let deliver t l =
  let i = l.head in
  let msg = l.msgs.(i) and sent_at = l.sent_ats.(i) in
  l.msgs.(i) <- vacant;
  l.head <- (if i + 1 = Array.length l.msgs then 0 else i + 1);
  l.size <- l.size - 1;
  let src = snd l.src_binding and dst = l.dst in
  (* the destination may have been unplugged in flight; the MSC entry
     is only recorded here, once the outcome is known, so dropped
     deliveries never render an arrow *)
  if is_unplugged t dst then drop t ~sent_at ~src ~dst msg
  else begin
    t.delivered <- t.delivered + 1;
    if Sim.want_labels t.sim then
      msc_record t ~time:sent_at ~src ~dst
        ~arrival:(Some (Vtime.add sent_at l.delay)) msg;
    Message.set_binding msg l.src_binding;
    Layer.deliver_up l.device msg
  end

let new_link t ~src ~dst device =
  let l =
    { dst;
      device;
      delay = latency t ~src ~dst;
      src_binding = (src_attr, src);
      msgs = [| vacant |];
      sent_ats = [| Vtime.zero |];
      head = 0;
      size = 0;
      deliver = ignore }
  in
  l.deliver <- (fun () -> deliver t l);
  l

(* Doubles a full ring, unrolling it to start at slot 0. *)
let grow l =
  let n = Array.length l.msgs in
  let msgs = Array.make (2 * n) vacant and sent_ats = Array.make (2 * n) Vtime.zero in
  let first = n - l.head in
  Array.blit l.msgs l.head msgs 0 first;
  Array.blit l.msgs 0 msgs first l.head;
  Array.blit l.sent_ats l.head sent_ats 0 first;
  Array.blit l.sent_ats 0 sent_ats first l.head;
  l.msgs <- msgs;
  l.sent_ats <- sent_ats;
  l.head <- 0

let send_on t l msg =
  if l.size = Array.length l.msgs then grow l;
  let n = Array.length l.msgs and i = l.head + l.size in
  let i = if i >= n then i - n else i in
  l.msgs.(i) <- msg;
  l.sent_ats.(i) <- Sim.now t.sim;
  l.size <- l.size + 1;
  ignore (Sim.schedule t.sim ~delay:l.delay l.deliver)

(* Transmit one copy of [msg] from [src] to the single node [dst];
   [links] is [src]'s link records, by destination. *)
let transmit t links ~src ~dst msg =
  t.sent <- t.sent + 1;
  if is_unplugged t src || is_unplugged t dst then drop t ~src ~dst msg
  else if Hashtbl.length t.blocked > 0 && Hashtbl.mem t.blocked (src, dst) then drop t ~src ~dst msg
  else if not (same_group t src dst) then drop t ~src ~dst msg
  else begin
    let lossy =
      match link_find t.losses ~src ~dst with
      | Some rate -> Rng.bernoulli t.rng ~p:rate
      | None -> false
    in
    if lossy then drop t ~src ~dst msg
    else
      match String_table.find links dst with
      | l -> send_on t l msg
      | exception Not_found ->
        match String_table.find t.devices dst with
        | exception Not_found -> drop t ~src ~dst msg
        | device ->
          let l = new_link t ~src ~dst device in
          String_table.replace links dst l;
          send_on t l msg
  end

let attach t ~node =
  if String_table.mem t.devices node then
    failwith (Printf.sprintf "network: node %s already attached" node);
  let links = String_table.create 8 in
  String_table.replace t.links node links;
  let device =
    Layer.create ~name:"device" ~node
      { on_push =
          (fun _ msg ->
            let dst =
              match Message.find_attr msg dst_attr with
              | d -> d
              | exception Not_found -> failwith "network: message has no net.dst attribute"
            in
            if String.equal dst broadcast then
              List.iter
                (fun peer ->
                  if not (String.equal peer node) then
                    transmit t links ~src:node ~dst:peer (Message.copy msg))
                (nodes t)
            else transmit t links ~src:node ~dst msg);
        on_pop = (fun _ _ -> failwith "network device layer: nothing below") }
  in
  String_table.replace t.devices node device;
  device
