open Pfi_stack

type mtype =
  | Heartbeat
  | Proclaim
  | Join
  | Membership_change
  | Mc_ack
  | Mc_nak
  | Commit
  | Dead

type t = {
  mtype : mtype;
  origin : int;
  sender : int;
  group_id : int;
  subject : int;
  members : int list;
}

let make ~mtype ~origin ~sender ?(group_id = 0) ?(subject = 0) ?(members = []) () =
  { mtype; origin; sender; group_id; subject; members }

let mtype_to_string = function
  | Heartbeat -> "HEARTBEAT"
  | Proclaim -> "PROCLAIM"
  | Join -> "JOIN"
  | Membership_change -> "MEMBERSHIP_CHANGE"
  | Mc_ack -> "ACK"
  | Mc_nak -> "NAK"
  | Commit -> "COMMIT"
  | Dead -> "DEAD"

let mtype_of_string = function
  | "HEARTBEAT" -> Some Heartbeat
  | "PROCLAIM" -> Some Proclaim
  | "JOIN" -> Some Join
  | "MEMBERSHIP_CHANGE" -> Some Membership_change
  | "ACK" -> Some Mc_ack
  | "NAK" -> Some Mc_nak
  | "COMMIT" -> Some Commit
  | "DEAD" -> Some Dead
  | _ -> None

let mtype_code = function
  | Heartbeat -> 1
  | Proclaim -> 2
  | Join -> 3
  | Membership_change -> 4
  | Mc_ack -> 5
  | Mc_nak -> 6
  | Commit -> 7
  | Dead -> 8

let mtype_of_code = function
  | 1 -> Some Heartbeat
  | 2 -> Some Proclaim
  | 3 -> Some Join
  | 4 -> Some Membership_change
  | 5 -> Some Mc_ack
  | 6 -> Some Mc_nak
  | 7 -> Some Commit
  | 8 -> Some Dead
  | _ -> None

(* Wire layout (big-endian): u8 type code, u16 origin, u16 sender,
   u32 group id, u16 subject, u16 member count, count × u16 members —
   13 + 2·count bytes.  Encode and decode work on one exact-size
   [Bytes.t]; integer fields keep only their low 8/16/32 bits, exactly
   as the {!Bytes_codec} writer would. *)
let fixed_size = 13

let set_u32 b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 2) (v land 0xffff)

let rec write_members b off = function
  | [] -> ()
  | m :: rest ->
    Bytes.set_uint16_be b off (m land 0xffff);
    write_members b (off + 2) rest

let encode t =
  let count = List.length t.members in
  let b = Bytes.create (fixed_size + (2 * count)) in
  Bytes.set_uint8 b 0 (mtype_code t.mtype);
  Bytes.set_uint16_be b 1 (t.origin land 0xffff);
  Bytes.set_uint16_be b 3 (t.sender land 0xffff);
  set_u32 b 5 t.group_id;
  Bytes.set_uint16_be b 9 (t.subject land 0xffff);
  Bytes.set_uint16_be b 11 (count land 0xffff);
  write_members b fixed_size t.members;
  b

let rec read_members data i acc =
  if i < 0 then acc
  else read_members data (i - 1) (Bytes.get_uint16_be data (fixed_size + (2 * i)) :: acc)

(* A short buffer is reported as truncated before the type code is
   looked at, and bytes past the member list are ignored. *)
let decode data =
  let n = Bytes.length data in
  if n < fixed_size then Error "gmp: truncated message"
  else begin
    let count = Bytes.get_uint16_be data 11 in
    if n < fixed_size + (2 * count) then Error "gmp: truncated message"
    else
      let code = Bytes.get_uint8 data 0 in
      match mtype_of_code code with
      | None -> Error (Printf.sprintf "gmp: unknown message type %d" code)
      | Some mtype ->
        Ok
          { mtype;
            origin = Bytes.get_uint16_be data 1;
            sender = Bytes.get_uint16_be data 3;
            group_id = (Bytes.get_uint16_be data 5 lsl 16) lor Bytes.get_uint16_be data 7;
            subject = Bytes.get_uint16_be data 9;
            members = read_members data (count - 1) [] }
  end

let of_message msg = decode (Message.payload msg)

let describe t =
  let members =
    if t.members = [] then ""
    else
      Printf.sprintf " members=[%s]"
        (String.concat "," (List.map string_of_int t.members))
  in
  let subject = if t.subject = 0 then "" else Printf.sprintf " subject=%d" t.subject in
  Printf.sprintf "%s origin=%d sender=%d gid=%d%s%s" (mtype_to_string t.mtype)
    t.origin t.sender t.group_id subject members
