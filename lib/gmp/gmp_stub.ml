open Pfi_stack

let parse msg =
  match Rel_udp.inspect (Message.payload msg) with
  | None -> `Malformed
  | Some (`Ack, seq, _) -> `Rel_ack seq
  | Some ((`Raw | `Data), _, inner) ->
    (match Gmp_msg.decode inner with
     | Ok m -> `Gmp m
     | Error _ -> `Malformed)

(* Classification without decoding: [msg_type] runs on every message a
   fault filter inspects, so it validates the rel header in place and
   reads only the inner type code and member count instead of building
   the full {!Gmp_msg.t}.  Accept/reject is exactly [parse]'s: the
   checksum check is {!Rel_udp.inspect}'s, and the inner packet is
   typed only if {!Gmp_msg.decode} would succeed on it (fixed fields
   present, member list complete, known type code). *)
let msg_type msg =
  let data = Message.payload msg in
  let kind = Rel_udp.inspect_header data in
  if kind < 0 then "?"
  else if kind = Rel_udp.kind_ack then "RACK"
  else if kind <> Rel_udp.kind_raw && kind <> Rel_udp.kind_data then "?"
  else begin
    (* inner layout: u8 code, u16 origin, u16 sender, u32 gid,
       u16 subject, u16 count, count × u16 members = 13 + 2·count *)
    let base = Rel_udp.header_size in
    let inner_len = Bytes.length data - base in
    if inner_len < 13 then "?"
    else begin
      let count =
        (Char.code (Bytes.get data (base + 11)) lsl 8)
        lor Char.code (Bytes.get data (base + 12))
      in
      if inner_len < 13 + (2 * count) then "?"
      else
        match Gmp_msg.mtype_of_code (Char.code (Bytes.get data base)) with
        | Some mtype -> Gmp_msg.mtype_to_string mtype
        | None -> "?"
    end
  end

let describe msg =
  match parse msg with
  | `Rel_ack seq -> Printf.sprintf "RACK seq=%d" seq
  | `Gmp m -> Gmp_msg.describe m
  | `Malformed -> "undecodable GMP packet"

let get_field msg field =
  match parse msg with
  | `Rel_ack seq -> if field = "relseq" then Some (string_of_int seq) else None
  | `Malformed -> None
  | `Gmp m ->
    (match field with
     | "origin" -> Some (string_of_int m.Gmp_msg.origin)
     | "sender" -> Some (string_of_int m.Gmp_msg.sender)
     | "gid" -> Some (string_of_int m.Gmp_msg.group_id)
     | "subject" -> Some (string_of_int m.Gmp_msg.subject)
     | "members" ->
       Some (String.concat "," (List.map string_of_int m.Gmp_msg.members))
     | "relseq" ->
       (match Rel_udp.inspect (Message.payload msg) with
        | Some (_, seq, _) -> Some (string_of_int seq)
        | None -> None)
     | _ -> None)

(* Rewriting fields re-encodes the inner GMP message inside a raw rel
   wrapper (rewriting reliable-layer state would be incoherent). *)
let set_field msg field value =
  match (parse msg, int_of_string_opt value) with
  | `Gmp m, Some v ->
    let updated =
      match field with
      | "origin" -> Some { m with Gmp_msg.origin = v }
      | "sender" -> Some { m with Gmp_msg.sender = v }
      | "gid" -> Some { m with Gmp_msg.group_id = v }
      | "subject" -> Some { m with Gmp_msg.subject = v }
      | _ -> None
    in
    (match updated with
     | Some m ->
       Message.set_payload msg (Rel_udp.wrap_raw (Gmp_msg.encode m));
       true
     | None -> false)
  | _ -> false

let generate args =
  let int_arg key ~default =
    match List.assoc_opt key args with
    | Some v -> (match int_of_string_opt v with Some i -> i | None -> default)
    | None -> default
  in
  match Option.bind (List.assoc_opt "type" args) Gmp_msg.mtype_of_string with
  | None -> None
  | Some mtype ->
    let members =
      match List.assoc_opt "members" args with
      | Some s ->
        String.split_on_char ',' s
        |> List.filter_map int_of_string_opt
      | None -> []
    in
    let m =
      Gmp_msg.make ~mtype
        ~origin:(int_arg "origin" ~default:0)
        ~sender:(int_arg "sender" ~default:0)
        ~group_id:(int_arg "gid" ~default:0)
        ~subject:(int_arg "subject" ~default:0)
        ~members ()
    in
    let msg = Message.create (Rel_udp.wrap_raw (Gmp_msg.encode m)) in
    Message.set_attr msg "proto" "gmp";
    (match List.assoc_opt "dst" args with
     | Some dst -> Message.set_attr msg Pfi_netsim.Network.dst_attr dst
     | None -> ());
    Some msg

let fields msg =
  match parse msg with
  | `Malformed -> []
  | `Rel_ack seq -> [ ("type", "RACK"); ("relseq", string_of_int seq) ]
  | `Gmp m ->
    [ ("type", Gmp_msg.mtype_to_string m.Gmp_msg.mtype);
      ("origin", string_of_int m.Gmp_msg.origin);
      ("sender", string_of_int m.Gmp_msg.sender);
      ("gid", string_of_int m.Gmp_msg.group_id);
      ("subject", string_of_int m.Gmp_msg.subject);
      ("members", String.concat "," (List.map string_of_int m.Gmp_msg.members)) ]

let stub =
  { Pfi_core.Stubs.protocol = "gmp";
    msg_type;
    describe;
    get_field;
    set_field;
    generate;
    fields }
