exception Truncated of string

type writer = Buffer.t

let writer () = Buffer.create 64

let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

let u16 w v =
  u8 w ((v lsr 8) land 0xff);
  u8 w (v land 0xff)

let u32 w v =
  let v = Int32.to_int v land 0xffffffff in
  u8 w ((v lsr 24) land 0xff);
  u8 w ((v lsr 16) land 0xff);
  u8 w ((v lsr 8) land 0xff);
  u8 w (v land 0xff)

let u32_of_int w v = u32 w (Int32.of_int (v land 0xffffffff))

let bytes w b = Buffer.add_bytes w b
let string w s = Buffer.add_string w s
let contents w = Buffer.to_bytes w

type reader = { data : Bytes.t; mutable pos : int }

let reader data = { data; pos = 0 }

let need r n what =
  if r.pos + n > Bytes.length r.data then raise (Truncated what)

let read_u8 r =
  need r 1 "u8";
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let read_u16 r =
  let hi = read_u8 r in
  let lo = read_u8 r in
  (hi lsl 8) lor lo

let read_u32 r =
  let a = read_u8 r in
  let b = read_u8 r in
  let c = read_u8 r in
  let d = read_u8 r in
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let read_u32_int r =
  let a = read_u8 r in
  let b = read_u8 r in
  let c = read_u8 r in
  let d = read_u8 r in
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let read_bytes r n =
  need r n "bytes";
  let b = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  b

let read_rest r =
  let n = Bytes.length r.data - r.pos in
  read_bytes r n

let remaining r = Bytes.length r.data - r.pos
