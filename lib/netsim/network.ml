open Pfi_engine
open Pfi_stack

let dst_attr = "net.dst"
let src_attr = "net.src"
let broadcast = "*"

type link_key = string * string

(* the latency of every link without its own *)
let default_latency = Vtime.ms 1

type t = {
  sim : Sim.t;
  rng : Rng.t;
  devices : Layer.t String_table.t;
  latencies : (link_key, Vtime.t) Hashtbl.t;
  losses : (link_key, float) Hashtbl.t;
  blocked : (link_key, unit) Hashtbl.t;
  mutable groups : string list list option;  (* current partition *)
  unplugged : (string, unit) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable msc_enabled : bool;
}

let create sim =
  { sim;
    rng = Rng.split (Sim.rng sim);
    devices = String_table.create 16;
    latencies = Hashtbl.create 16;
    losses = Hashtbl.create 16;
    blocked = Hashtbl.create 16;
    groups = None;
    unplugged = Hashtbl.create 8;
    sent = 0;
    delivered = 0;
    dropped = 0;
    msc_enabled = false }

let sim t = t.sim

let nodes t =
  List.sort String.compare (String_table.fold (fun k _ acc -> k :: acc) t.devices [])

let set_latency t ~src ~dst l = Hashtbl.replace t.latencies (src, dst) l
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
let set_msc_enabled t flag =
  t.msc_enabled <- flag;
  (* protocol layers only format msc.label decorations when a renderer
     is listening (see Sim.set_want_labels) *)
  Sim.set_want_labels t.sim flag

(* One entry per transmission, carrying everything the MSC renderer
   needs (see Msc.parse_entry for the format).  [time] is the send
   time: deliveries record their entry from inside the delivery
   callback (so an in-flight unplug is rendered as a drop, not an
   arrival), which is why the stamp is passed explicitly rather than
   read from the clock. *)
let msc_record t ~time ~src ~dst ~arrival msg =
  if t.msc_enabled then begin
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

(* Transmit one copy of [msg] from [src] to the single node [dst]. *)
let transmit t ~src ~dst msg =
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
      match String_table.find t.devices dst with
      | exception Not_found -> drop t ~src ~dst msg
      | device ->
        let delay = latency t ~src ~dst in
        let sent_at = Sim.now t.sim in
        let arrival = Vtime.add sent_at delay in
        ignore
          (Sim.schedule t.sim ~delay (fun () ->
               (* the destination may have been unplugged in flight; the
                  MSC entry is only recorded here, once the outcome is
                  known, so dropped deliveries never render an arrow *)
               if is_unplugged t dst then drop t ~sent_at ~src ~dst msg
               else begin
                 t.delivered <- t.delivered + 1;
                 msc_record t ~time:sent_at ~src ~dst ~arrival:(Some arrival) msg;
                 Message.set_attr msg src_attr src;
                 Layer.deliver_up device msg
               end))
  end

let attach t ~node =
  if String_table.mem t.devices node then
    failwith (Printf.sprintf "network: node %s already attached" node);
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
                    transmit t ~src:node ~dst:peer (Message.copy msg))
                (nodes t)
            else transmit t ~src:node ~dst msg);
        on_pop = (fun _ _ -> failwith "network device layer: nothing below") }
  in
  String_table.replace t.devices node device;
  device
