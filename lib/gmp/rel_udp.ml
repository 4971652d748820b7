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
  attrs : (string * string) list;  (* the sender's, on every copy *)
  mutable retry_handle : Sim.handle;
  mutable retry : unit -> unit;  (* set once, right after creation *)
  mutable tries : int;
}

(* A peer this layer has received data from: a small id for [seen],
   and the attribute list of every ACK sent back to it. *)
type peer = {
  id : int;
  ack_attrs : (string * string) list;
}

(* a reliable send is retransmitted every [retry_interval], at most
   [max_retries] times *)
let retry_interval = Vtime.ms 500
let max_retries = 3

type t = {
  sim : Sim.t;
  node : string;
  mutable the_layer : Layer.t option;
  mutable next_seq : int;
  pending : pending Int_table.t;  (* by seq *)
  peers : peer String_table.t;  (* by name *)
  seen : unit Int_table.t;  (* dedup of (src, seq), keyed by [seen_key] *)
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

let transmit t p =
  Layer.send_down (layer t) (Message.create ~attrs:p.attrs (Bytes.copy p.wire))

let arm_retry t p = p.retry_handle <- Sim.schedule t.sim ~delay:retry_interval p.retry

let on_retry t p =
  if p.tries >= max_retries then begin
    (* best effort exhausted: silently give up, like the original *)
    Int_table.remove t.pending p.seq;
    t.gave_up <- t.gave_up + 1;
    Sim.record t.sim ~node:t.node ~tag:"rel.give-up"
      (Printf.sprintf "seq=%d dst=%s" p.seq p.dst)
  end
  else begin
    p.tries <- p.tries + 1;
    transmit t p;
    arm_retry t p
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
        attrs = Message.attrs msg;
        retry_handle = Sim.null_handle;
        retry = ignore;
        tries = 0 }
    in
    p.retry <- (fun () -> on_retry t p);
    Int_table.replace t.pending seq p;
    transmit t p;
    arm_retry t p
  end

let peer t src =
  match String_table.find t.peers src with
  | peer -> peer
  | exception Not_found ->
    let peer =
      { id = String_table.length t.peers;
        ack_attrs = [ (Pfi_netsim.Network.dst_attr, src) ] }
    in
    String_table.add t.peers src peer;
    peer

(* (src, seq) folded into one int: the peer's id above the 32-bit
   sequence number. *)
let seen_key peer seq = (peer.id lsl 32) lor seq

let on_pop t msg =
  let data = Message.payload msg in
  let kind = inspect_header data in
  if kind = kind_raw then begin
    Message.set_payload msg (inner data);
    Layer.deliver_up (layer t) msg
  end
  else if kind = kind_ack then begin
    let seq = header_seq data in
    match Int_table.find t.pending seq with
    | p ->
      Sim.cancel t.sim p.retry_handle;
      Int_table.remove t.pending seq
    | exception Not_found -> ()
  end
  else if kind = kind_data then begin
    let seq = header_seq data in
    let src =
      match Message.find_attr msg Pfi_netsim.Network.src_attr with
      | s -> s
      | exception Not_found -> "?"
    in
    let peer = peer t src in
    (* always (re-)acknowledge, deliver only the first copy *)
    Layer.send_down (layer t)
      (Message.create ~attrs:peer.ack_attrs (wrap ~kind:kind_ack ~seq Bytes.empty));
    let key = seen_key peer seq in
    if not (Int_table.mem t.seen key) then begin
      Int_table.replace t.seen key ();
      Message.set_payload msg (inner data);
      Layer.deliver_up (layer t) msg
    end
  end
  (* anything else is malformed or of an unknown kind: drop *)

let create ~sim ~node () =
  let t =
    { sim; node; the_layer = None; next_seq = 0;
      pending = Int_table.create 32; peers = String_table.create 8;
      seen = Int_table.create 256; gave_up = 0 }
  in
  let l =
    Layer.create ~name:"rel-udp" ~node
      { on_push = (fun _ msg -> on_push t msg);
        on_pop = (fun _ msg -> on_pop t msg) }
  in
  t.the_layer <- Some l;
  t

let pending_count t = Int_table.length t.pending
let give_up_count t = t.gave_up
