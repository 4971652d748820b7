open Pfi_stack

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
}

let no_flags = { syn = false; ack = false; fin = false; rst = false; psh = false }
let flag_ack = { no_flags with ack = true }
let flag_syn = { no_flags with syn = true }
let flag_syn_ack = { no_flags with syn = true; ack = true }
let flag_rst = { no_flags with rst = true }
let flag_fin_ack = { no_flags with fin = true; ack = true }

type t = {
  src_port : int;
  dst_port : int;
  seq : Seq32.t;
  ack : Seq32.t;
  flags : flags;
  window : int;
  payload : Bytes.t;
}

let make ?(payload = Bytes.empty) ~src_port ~dst_port ~seq ~ack ~flags ~window () =
  { src_port; dst_port; seq; ack; flags; window; payload }

let len t = Bytes.length t.payload

let seq_span t =
  len t + (if t.flags.syn then 1 else 0) + (if t.flags.fin then 1 else 0)

let header_size = 20

let flags_to_bits f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)

let flags_of_bits bits =
  { fin = bits land 0x01 <> 0;
    syn = bits land 0x02 <> 0;
    rst = bits land 0x04 <> 0;
    psh = bits land 0x08 <> 0;
    ack = bits land 0x10 <> 0 }

(* 16-bit ones' complement sum over the buffer, checksum field zeroed. *)
let compute_checksum data =
  let n = Bytes.length data in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    if !i <> 16 then begin
      (* skip the checksum field itself (bytes 16-17) *)
      let word =
        (Char.code (Bytes.get data !i) lsl 8) lor Char.code (Bytes.get data (!i + 1))
      in
      sum := !sum + word
    end;
    i := !i + 2
  done;
  if !i < n then sum := !sum + (Char.code (Bytes.get data !i) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let encode t =
  let w = Bytes_codec.writer () in
  Bytes_codec.u16 w t.src_port;
  Bytes_codec.u16 w t.dst_port;
  Bytes_codec.u32_of_int w t.seq;
  Bytes_codec.u32_of_int w t.ack;
  (* data offset (5 words) in the high nibble, flags in the low byte *)
  Bytes_codec.u16 w ((5 lsl 12) lor flags_to_bits t.flags);
  Bytes_codec.u16 w t.window;
  Bytes_codec.u16 w 0 (* checksum placeholder *);
  Bytes_codec.u16 w 0 (* urgent pointer *);
  Bytes_codec.bytes w t.payload;
  let data = Bytes_codec.contents w in
  let csum = compute_checksum data in
  Bytes.set data 16 (Char.chr ((csum lsr 8) land 0xff));
  Bytes.set data 17 (Char.chr (csum land 0xff));
  data

let stored_checksum data =
  (Char.code (Bytes.get data 16) lsl 8) lor Char.code (Bytes.get data 17)

let checksum_valid data =
  Bytes.length data >= header_size && stored_checksum data = compute_checksum data

let decode data =
  if Bytes.length data < header_size then Error "segment too short"
  else if not (checksum_valid data) then Error "bad checksum"
  else begin
    let r = Bytes_codec.reader data in
    let src_port = Bytes_codec.read_u16 r in
    let dst_port = Bytes_codec.read_u16 r in
    let seq = Bytes_codec.read_u32_int r in
    let ack = Bytes_codec.read_u32_int r in
    let off_flags = Bytes_codec.read_u16 r in
    let window = Bytes_codec.read_u16 r in
    let _checksum = Bytes_codec.read_u16 r in
    let _urgent = Bytes_codec.read_u16 r in
    let payload = Bytes_codec.read_rest r in
    Ok
      { src_port; dst_port; seq; ack;
        flags = flags_of_bits (off_flags land 0x3f);
        window; payload }
  end

let proto_attr_value = "tcp"

let to_message t ~dst =
  let msg = Message.create (encode t) in
  Message.set_attr msg Pfi_netsim.Network.dst_attr dst;
  Message.set_attr msg "proto" proto_attr_value;
  msg

let of_message msg = decode (Message.payload msg)

let kind t =
  if t.flags.rst then "RST"
  else if t.flags.syn && t.flags.ack then "SYN-ACK"
  else if t.flags.syn then "SYN"
  else if t.flags.fin then "FIN"
  else if len t > 0 then "DATA"
  else if t.flags.ack then "ACK"
  else "OTHER"

let describe t =
  Printf.sprintf "%s %d>%d seq=%d ack=%d win=%d len=%d" (kind t) t.src_port
    t.dst_port t.seq t.ack t.window (len t)
