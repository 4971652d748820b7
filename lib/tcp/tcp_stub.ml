open Pfi_stack

let with_segment msg f ~default =
  match Segment.of_message msg with
  | Ok seg -> f seg
  | Error _ -> default

let msg_type msg = with_segment msg Segment.kind ~default:"?"

let describe msg = with_segment msg Segment.describe ~default:"undecodable TCP segment"

let flags_string (f : Segment.flags) =
  String.concat ""
    [ (if f.Segment.syn then "S" else "");
      (if f.Segment.ack then "A" else "");
      (if f.Segment.fin then "F" else "");
      (if f.Segment.rst then "R" else "");
      (if f.Segment.psh then "P" else "") ]

let get_field msg field =
  with_segment msg ~default:None (fun seg ->
      match field with
      | "sport" -> Some (string_of_int seg.Segment.src_port)
      | "dport" -> Some (string_of_int seg.Segment.dst_port)
      | "seq" -> Some (string_of_int seg.Segment.seq)
      | "ack" -> Some (string_of_int seg.Segment.ack)
      | "window" -> Some (string_of_int seg.Segment.window)
      | "len" -> Some (string_of_int (Segment.len seg))
      | "flags" -> Some (flags_string seg.Segment.flags)
      | "kind" -> Some (Segment.kind seg)
      | _ -> None)

let reencode msg seg =
  Message.set_payload msg (Segment.encode seg);
  true

let set_field msg field value =
  with_segment msg ~default:false (fun seg ->
      match (field, int_of_string_opt value) with
      | "seq", Some v -> reencode msg { seg with Segment.seq = Seq32.of_int v }
      | "ack", Some v -> reencode msg { seg with Segment.ack = Seq32.of_int v }
      | "window", Some v -> reencode msg { seg with Segment.window = v land 0xffff }
      | "sport", Some v -> reencode msg { seg with Segment.src_port = v land 0xffff }
      | "dport", Some v -> reencode msg { seg with Segment.dst_port = v land 0xffff }
      | _ -> false)

let parse_flags_arg args =
  match List.assoc_opt "type" args with
  | Some "ACK" -> Some Segment.flag_ack
  | Some "SYN" -> Some Segment.flag_syn
  | Some "SYN-ACK" -> Some Segment.flag_syn_ack
  | Some "RST" -> Some Segment.flag_rst
  | Some "FIN" -> Some Segment.flag_fin_ack
  | Some "DATA" -> Some { Segment.flag_ack with Segment.psh = true }
  | _ -> None

let generate args =
  let int_arg key ~default =
    match List.assoc_opt key args with
    | Some v -> (match int_of_string_opt v with Some i -> i | None -> default)
    | None -> default
  in
  match parse_flags_arg args with
  | None -> None
  | Some flags ->
    let payload =
      match List.assoc_opt "data" args with
      | Some d -> Bytes.of_string d
      | None -> Bytes.empty
    in
    let seg =
      Segment.make ~payload
        ~src_port:(int_arg "sport" ~default:0)
        ~dst_port:(int_arg "dport" ~default:0)
        ~seq:(Seq32.of_int (int_arg "seq" ~default:0))
        ~ack:(Seq32.of_int (int_arg "ack" ~default:0))
        ~flags
        ~window:(int_arg "window" ~default:0)
        ()
    in
    let msg = Message.create (Segment.encode seg) in
    Message.set_attr msg "proto" Segment.proto_attr_value;
    (match List.assoc_opt "dst" args with
     | Some dst -> Message.set_attr msg Pfi_netsim.Network.dst_attr dst
     | None -> ());
    (match List.assoc_opt "src" args with
     | Some src -> Message.set_attr msg Pfi_netsim.Network.src_attr src
     | None -> ());
    Some msg

let fields msg =
  with_segment msg ~default:[] (fun seg ->
      [ ("kind", Segment.kind seg);
        ("flags", flags_string seg.Segment.flags);
        ("seq", string_of_int seg.Segment.seq);
        ("ack", string_of_int seg.Segment.ack);
        ("window", string_of_int seg.Segment.window);
        ("len", string_of_int (Segment.len seg)) ])

let stub =
  { Pfi_core.Stubs.protocol = "tcp";
    msg_type;
    describe;
    get_field;
    set_field;
    generate;
    fields }
