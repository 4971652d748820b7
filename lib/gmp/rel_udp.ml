open Pfi_engine
open Pfi_stack

let header_size = 7
let reliable_attr = "rel"

let kind_raw = 0
let kind_data = 1
let kind_ack = 2

type pending = {
  seq : int;
  dst : string;
  wire : Bytes.t;  (* encoded rel-data packet, ready to resend *)
  wire_attrs : (string * string) list;
      (* the attributes every transmitted copy carries, built once *)
  timer : Timer.t;
  mutable tries : int;
}

type t = {
  sim : Sim.t;
  node : string;
  retry_interval : Vtime.t;
  max_retries : int;
  mutable the_layer : Layer.t option;
  mutable next_seq : int;
  pending : (int, pending) Hashtbl.t;  (* by seq *)
  src_ids : (string, int) Hashtbl.t;  (* peer name -> small id, for [seen] *)
  seen : (int, unit) Hashtbl.t;  (* dedup of (src, seq), keyed by [seen_key] *)
  mutable gave_up : int;
}

let layer t = match t.the_layer with Some l -> l | None -> assert false

(* 16-bit ones' complement over kind, seq and payload bytes
   [off, off + len) of [b]: the UDP checksum this layer's real-world
   counterpart would have.  Corrupted packets are dropped on receipt, so
   fault-injected bit flips surface as loss, not as garbage protocol
   input. *)
let checksum ~kind ~seq b off len =
  let sum = ref (kind + (seq land 0xffff) + ((seq lsr 16) land 0xffff)) in
  for i = off to off + len - 1 do
    sum := !sum + Char.code (Bytes.unsafe_get b i)
  done;
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let wrap ~kind ~seq payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_size + n) in
  Bytes.set_uint8 b 0 kind;
  Bytes.set_uint16_be b 1 ((seq lsr 16) land 0xffff);
  Bytes.set_uint16_be b 3 (seq land 0xffff);
  Bytes.set_uint16_be b 5 (checksum ~kind ~seq payload 0 n);
  Bytes.blit payload 0 b header_size n;
  b

let header_seq data = (Bytes.get_uint16_be data 1 lsl 16) lor Bytes.get_uint16_be data 3

(* Header validation in place: the kind byte of a packet that is long
   enough and passes its checksum, or -1.  Nothing is allocated; the
   sequence number is read with [header_seq] and the inner payload sits
   at offset [header_size]. *)
let inspect_header data =
  let n = Bytes.length data in
  if n < header_size then -1
  else begin
    let kind = Bytes.get_uint8 data 0 in
    let csum = Bytes.get_uint16_be data 5 in
    if checksum ~kind ~seq:(header_seq data) data header_size (n - header_size) <> csum
    then -1
    else kind
  end

let inner data = Bytes.sub data header_size (Bytes.length data - header_size)

let inspect data =
  let kind = inspect_header data in
  if kind = kind_raw then Some (`Raw, header_seq data, inner data)
  else if kind = kind_data then Some (`Data, header_seq data, inner data)
  else if kind = kind_ack then Some (`Ack, header_seq data, inner data)
  else None

let wrap_raw payload = wrap ~kind:kind_raw ~seq:0 payload

(* What [Message.set_attr] applied to each of [attrs] in turn, then to
   the destination, would leave on a fresh message. *)
let wire_attrs ~dst attrs =
  let set acc ((k, _) as kv) =
    kv :: (if List.mem_assoc k acc then List.remove_assoc k acc else acc)
  in
  set
    (List.fold_left set [] (List.remove_assoc Pfi_netsim.Network.dst_attr attrs))
    (Pfi_netsim.Network.dst_attr, dst)

let transmit t p =
  Layer.send_down (layer t) (Message.create ~attrs:p.wire_attrs (Bytes.copy p.wire))

let on_retry t seq =
  match Hashtbl.find t.pending seq with
  | exception Not_found -> ()
  | p ->
    if p.tries >= t.max_retries then begin
      (* best effort exhausted: silently give up, like the original *)
      Hashtbl.remove t.pending seq;
      t.gave_up <- t.gave_up + 1;
      Sim.record t.sim ~node:t.node ~tag:"rel.give-up"
        (Printf.sprintf "seq=%d dst=%s" p.seq p.dst)
    end
    else begin
      p.tries <- p.tries + 1;
      transmit t p;
      Timer.arm p.timer ~delay:t.retry_interval
    end

let is_reliable msg =
  match Message.find_attr msg reliable_attr with
  | v -> String.equal v "1"
  | exception Not_found -> false

let on_push t msg =
  let dst =
    match Message.find_attr msg Pfi_netsim.Network.dst_attr with
    | d -> d
    | exception Not_found -> failwith "rel_udp: message has no destination"
  in
  if not (is_reliable msg) then begin
    Message.set_payload msg (wrap ~kind:kind_raw ~seq:0 (Message.payload msg));
    Layer.send_down (layer t) msg
  end
  else begin
    t.next_seq <- t.next_seq + 1;
    let seq = t.next_seq in
    let p =
      { seq;
        dst;
        wire = wrap ~kind:kind_data ~seq (Message.payload msg);
        wire_attrs = wire_attrs ~dst (Message.attrs msg);
        timer = Timer.create t.sim ~name:"rel-retry" ~callback:(fun () -> on_retry t seq);
        tries = 0 }
    in
    Hashtbl.replace t.pending seq p;
    transmit t p;
    Timer.arm p.timer ~delay:t.retry_interval
  end

(* (src, seq) folded into one int: a per-layer id for the peer name
   above the 32-bit sequence number. *)
let seen_key t src seq =
  let id =
    match Hashtbl.find t.src_ids src with
    | id -> id
    | exception Not_found ->
      let id = Hashtbl.length t.src_ids in
      Hashtbl.add t.src_ids src id;
      id
  in
  (id lsl 32) lor seq

let on_pop t msg =
  let data = Message.payload msg in
  let kind = inspect_header data in
  if kind = kind_raw then begin
    Message.set_payload msg (inner data);
    Layer.deliver_up (layer t) msg
  end
  else if kind = kind_ack then begin
    let seq = header_seq data in
    match Hashtbl.find t.pending seq with
    | p ->
      Timer.disarm p.timer;
      Hashtbl.remove t.pending seq
    | exception Not_found -> ()
  end
  else if kind = kind_data then begin
    let seq = header_seq data in
    let src =
      match Message.find_attr msg Pfi_netsim.Network.src_attr with
      | s -> s
      | exception Not_found -> "?"
    in
    (* always (re-)acknowledge, deliver only the first copy *)
    Layer.send_down (layer t)
      (Message.create ~attrs:[ (Pfi_netsim.Network.dst_attr, src) ]
         (wrap ~kind:kind_ack ~seq Bytes.empty));
    let key = seen_key t src seq in
    if not (Hashtbl.mem t.seen key) then begin
      Hashtbl.replace t.seen key ();
      Message.set_payload msg (inner data);
      Layer.deliver_up (layer t) msg
    end
  end
  (* anything else is malformed or of an unknown kind: drop *)

let create ~sim ~node ?(retry_interval = Vtime.ms 500) ?(max_retries = 3) () =
  let t =
    { sim; node; retry_interval; max_retries; the_layer = None; next_seq = 0;
      pending = Hashtbl.create 32; src_ids = Hashtbl.create 8;
      seen = Hashtbl.create 256; gave_up = 0 }
  in
  let l =
    Layer.create ~name:"rel-udp" ~node
      { on_push = (fun _ msg -> on_push t msg);
        on_pop = (fun _ msg -> on_pop t msg) }
  in
  t.the_layer <- Some l;
  t

let pending_count t = Hashtbl.length t.pending
let give_up_count t = t.gave_up
