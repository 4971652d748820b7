open Pfi_engine
open Pfi_stack

let kind_msg = 0
let kind_ack = 1

(* 16-bit ones' complement over everything after the checksum field *)
let checksum_of body =
  let sum = ref 0 in
  Bytes.iter (fun ch -> sum := !sum + Char.code ch) body;
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let encode ~kind ~bit payload =
  let body = Bytes.create (2 + Bytes.length payload) in
  Bytes.set body 0 (Char.chr kind);
  Bytes.set body 1 (Char.chr bit);
  Bytes.blit payload 0 body 2 (Bytes.length payload);
  let csum = checksum_of body in
  let w = Bytes_codec.writer () in
  Bytes_codec.u16 w csum;
  Bytes_codec.bytes w body;
  Bytes_codec.contents w

let decode data =
  if Bytes.length data < 4 then None
  else begin
    let r = Bytes_codec.reader data in
    let csum = Bytes_codec.read_u16 r in
    let body = Bytes_codec.read_rest r in
    if checksum_of body <> csum then None
    else begin
      let kind = Char.code (Bytes.get body 0) in
      let bit = Char.code (Bytes.get body 1) land 1 in
      let payload = Bytes.sub body 2 (Bytes.length body - 2) in
      if kind = kind_msg || kind = kind_ack then Some (kind, bit, payload)
      else None
    end
  end

(* the sender's retransmission timer period *)
let retransmit_every = Vtime.ms 500

type t = {
  sim : Sim.t;
  node : string;
  peer : string;
  bug_ignore_ack_bit : bool;
  mutable the_layer : Layer.t option;
  mutable rexmt : Timer.t option;
  (* sender side *)
  mutable queue : string list;  (* unsent messages, oldest first *)
  mutable outstanding : string option;  (* frame awaiting its ACK *)
  mutable send_bit : int;
  (* receiver side *)
  mutable expect_bit : int;
  mutable rev_delivered : string list;
}

let layer t = match t.the_layer with Some l -> l | None -> assert false
let timer t = match t.rexmt with Some timer -> timer | None -> assert false

let transmit t ~kind ~bit payload =
  let msg = Message.create (encode ~kind ~bit payload) in
  Message.set_attr msg Pfi_netsim.Network.dst_attr t.peer;
  Message.set_attr msg "proto" "abp";
  if Sim.want_labels t.sim then
    Message.set_attr msg "msc.label"
      (if kind = kind_msg then
         Printf.sprintf "MSG(%d) %s" bit (Bytes.to_string payload)
       else Printf.sprintf "ACK(%d)" bit);
  Layer.send_down (layer t) msg

(* take the next queued message, if any, and put it on the wire *)
let start_next_frame t =
  match (t.outstanding, t.queue) with
  | None, next :: rest ->
    t.queue <- rest;
    t.outstanding <- Some next;
    Sim.record t.sim ~node:t.node ~tag:"abp.out"
      (Printf.sprintf "MSG bit=%d %s" t.send_bit next);
    transmit t ~kind:kind_msg ~bit:t.send_bit (Bytes.of_string next);
    Timer.arm (timer t) ~delay:retransmit_every
  | _ -> ()

let handle_frame t (kind, bit, payload) =
  if kind = kind_ack then begin
    match t.outstanding with
    | Some _ when bit = t.send_bit || t.bug_ignore_ack_bit ->
      t.outstanding <- None;
      Timer.disarm (timer t);
      t.send_bit <- 1 - t.send_bit;
      start_next_frame t
    | _ -> ()  (* stale ACK for the other bit: ignore *)
  end
  else begin
    (* data frame: always (re-)ack with the frame's bit *)
    transmit t ~kind:kind_ack ~bit Bytes.empty;
    if bit = t.expect_bit then begin
      t.expect_bit <- 1 - t.expect_bit;
      let text = Bytes.to_string payload in
      t.rev_delivered <- text :: t.rev_delivered;
      Sim.record t.sim ~node:t.node ~tag:"abp.deliver" text
    end
  end

let create ~sim ~node ~peer ?(bug_ignore_ack_bit = false) () =
  let t =
    { sim; node; peer; bug_ignore_ack_bit; the_layer = None;
      rexmt = None; queue = []; outstanding = None; send_bit = 0;
      expect_bit = 0; rev_delivered = [] }
  in
  t.rexmt <-
    Some
      (Timer.create_periodic sim ~interval:retransmit_every
         ~callback:(fun () ->
           match t.outstanding with
           | Some payload ->
             Sim.record t.sim ~node:t.node ~tag:"abp.retransmit"
               (Printf.sprintf "MSG bit=%d %s" t.send_bit payload);
             transmit t ~kind:kind_msg ~bit:t.send_bit (Bytes.of_string payload)
           | None -> ()));
  let l =
    Layer.create ~name:"abp" ~node
      { on_push = (fun _ _ -> failwith "abp: nothing above to push from");
        on_pop =
          (fun _ msg ->
            match decode (Message.payload msg) with
            | None -> Sim.record t.sim ~node:t.node ~tag:"abp.bad-frame" "checksum"
            | Some frame -> handle_frame t frame) }
  in
  t.the_layer <- Some l;
  t

let send t text =
  t.queue <- t.queue @ [ text ];
  start_next_frame t

let delivered t = List.rev t.rev_delivered

let unacked t =
  List.length t.queue + match t.outstanding with Some _ -> 1 | None -> 0

(* ------------------------------------------------------------------ *)
(* Stub                                                               *)
(* ------------------------------------------------------------------ *)

let stub =
  { Pfi_core.Stubs.protocol = "abp";
    msg_type =
      (fun msg ->
        match decode (Message.payload msg) with
        | Some (k, _, _) when k = kind_msg -> "MSG"
        | Some (k, _, _) when k = kind_ack -> "ACK"
        | _ -> "?");
    describe =
      (fun msg ->
        match decode (Message.payload msg) with
        | Some (k, bit, payload) when k = kind_msg ->
          Printf.sprintf "MSG bit=%d %s" bit (Bytes.to_string payload)
        | Some (_, bit, _) -> Printf.sprintf "ACK bit=%d" bit
        | None -> "bad ABP frame");
    get_field =
      (fun msg field ->
        match decode (Message.payload msg) with
        | None -> None
        | Some (k, bit, payload) ->
          (match field with
           | "bit" -> Some (string_of_int bit)
           | "kind" -> Some (if k = kind_msg then "MSG" else "ACK")
           | "len" -> Some (string_of_int (Bytes.length payload))
           | _ -> None));
    set_field =
      (fun msg field value ->
        match (decode (Message.payload msg), int_of_string_opt value) with
        | Some (k, _, payload), Some v when field = "bit" ->
          Message.set_payload msg (encode ~kind:k ~bit:(v land 1) payload);
          true
        | _ -> false);
    generate =
      (fun args ->
        let bit =
          match Option.bind (List.assoc_opt "bit" args) int_of_string_opt with
          | Some b -> b land 1
          | None -> 0
        in
        let make kind payload =
          let msg = Message.create (encode ~kind ~bit payload) in
          Message.set_attr msg "proto" "abp";
          (match List.assoc_opt "dst" args with
           | Some dst -> Message.set_attr msg Pfi_netsim.Network.dst_attr dst
           | None -> ());
          Some msg
        in
        match List.assoc_opt "type" args with
        | Some "ACK" -> make kind_ack Bytes.empty
        | Some "MSG" ->
          make kind_msg
            (Bytes.of_string (Option.value (List.assoc_opt "data" args) ~default:""))
        | _ -> None);
    fields =
      (fun msg ->
        match decode (Message.payload msg) with
        | None -> []
        | Some (k, bit, payload) ->
          [ ("kind", if k = kind_msg then "MSG" else "ACK");
            ("bit", string_of_int bit);
            ("len", string_of_int (Bytes.length payload)) ]) }
