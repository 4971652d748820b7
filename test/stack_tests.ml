(* Tests for messages, codecs and layer wiring. *)

open Pfi_stack

(* ------------------------------------------------------------------ *)
(* Bytes_codec                                                        *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let w = Bytes_codec.writer () in
  Bytes_codec.u8 w 0xAB;
  Bytes_codec.u16 w 0xBEEF;
  Bytes_codec.u32 w 0xDEADBEEFl;
  Bytes_codec.u32_of_int w 123456789;
  Bytes_codec.string w "tail";
  let data = Bytes_codec.contents w in
  let r = Bytes_codec.reader data in
  Alcotest.(check int) "u8" 0xAB (Bytes_codec.read_u8 r);
  Alcotest.(check int) "u16" 0xBEEF (Bytes_codec.read_u16 r);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Bytes_codec.read_u32 r);
  Alcotest.(check int) "u32_int" 123456789 (Bytes_codec.read_u32_int r);
  Alcotest.(check string) "rest" "tail" (Bytes.to_string (Bytes_codec.read_rest r));
  Alcotest.(check int) "nothing remains" 0 (Bytes_codec.remaining r)

let test_codec_truncated () =
  let r = Bytes_codec.reader (Bytes.of_string "x") in
  ignore (Bytes_codec.read_u8 r);
  (match Bytes_codec.read_u8 r with
   | _ -> Alcotest.fail "expected Truncated"
   | exception Bytes_codec.Truncated _ -> ())

let prop_codec_u32_roundtrip =
  QCheck.Test.make ~name:"u32 roundtrips any int32" ~count:500 QCheck.int32
    (fun v ->
      let w = Bytes_codec.writer () in
      Bytes_codec.u32 w v;
      Bytes_codec.read_u32 (Bytes_codec.reader (Bytes_codec.contents w)) = v)

let prop_codec_u16_roundtrip =
  QCheck.Test.make ~name:"u16 roundtrips 0..65535" ~count:500
    QCheck.(int_bound 65535)
    (fun v ->
      let w = Bytes_codec.writer () in
      Bytes_codec.u16 w v;
      Bytes_codec.read_u16 (Bytes_codec.reader (Bytes_codec.contents w)) = v)

(* ------------------------------------------------------------------ *)
(* Message                                                            *)
(* ------------------------------------------------------------------ *)

let test_message_headers () =
  let msg = Message.of_string "payload" in
  Message.push_header msg (Bytes.of_string "HDR:");
  Alcotest.(check string) "pushed" "HDR:payload" (Message.to_string msg);
  let hdr = Message.pop_header msg 4 in
  Alcotest.(check string) "popped header" "HDR:" (Bytes.to_string hdr);
  Alcotest.(check string) "payload restored" "payload" (Message.to_string msg)

let test_message_pop_too_much () =
  let msg = Message.of_string "ab" in
  match Message.pop_header msg 5 with
  | _ -> Alcotest.fail "expected Truncated"
  | exception Bytes_codec.Truncated _ -> ()

let test_message_attrs () =
  let msg = Message.of_string "x" in
  Alcotest.(check (option string)) "absent" None (Message.get_attr msg "k");
  Message.set_attr msg "k" "v1";
  Message.set_attr msg "k" "v2";
  Alcotest.(check (option string)) "overwritten" (Some "v2") (Message.get_attr msg "k");
  Message.remove_attr msg "k";
  Alcotest.(check (option string)) "removed" None (Message.get_attr msg "k")

let test_message_copy_independent () =
  let msg = Message.of_string "abc" in
  Message.set_attr msg "k" "v";
  let dup = Message.copy msg in
  Bytes.set (Message.payload dup) 0 'X';
  Alcotest.(check string) "original unaffected" "abc" (Message.to_string msg);
  Alcotest.(check (option string)) "attrs copied" (Some "v") (Message.get_attr dup "k")

let test_message_corrupt () =
  let msg = Message.of_string "\x00\xff" in
  ignore (Message.corrupt_byte msg ~offset:0);
  Alcotest.(check int) "bit-flipped" 0xff (Char.code (Bytes.get (Message.payload msg) 0));
  ignore (Message.corrupt_byte msg ~offset:99);
  Alcotest.(check int) "oob ignored" 2 (Message.length msg);
  ignore (Message.xor_byte msg ~offset:1 ~mask:0x0f);
  Alcotest.(check int) "xor applied" 0xf0 (Char.code (Bytes.get (Message.payload msg) 1))

(* ------------------------------------------------------------------ *)
(* Layer wiring                                                       *)
(* ------------------------------------------------------------------ *)

(* A layer that tags messages so we can observe traversal order. *)
let tagging_layer ~name ~node log =
  Layer.create ~name ~node
    { on_push =
        (fun t msg ->
          log := (name ^ ".push") :: !log;
          Layer.send_down t msg);
      on_pop =
        (fun t msg ->
          log := (name ^ ".pop") :: !log;
          Layer.deliver_up t msg) }

let consuming_bottom ~node log =
  Layer.create ~name:"bottom" ~node
    { on_push = (fun _ _ -> log := "bottom.consumed" :: !log);
      on_pop = (fun _ _ -> ()) }

let consuming_top ~node log =
  Layer.create ~name:"top" ~node
    { on_push = (fun t msg -> Layer.send_down t msg);
      on_pop = (fun _ _ -> log := "top.consumed" :: !log) }

let test_stack_traversal () =
  let log = ref [] in
  let top = consuming_top ~node:"n" log in
  let mid = tagging_layer ~name:"mid" ~node:"n" log in
  let bottom = consuming_bottom ~node:"n" log in
  Layer.stack [ top; mid; bottom ];
  Layer.push top (Message.of_string "down");
  Alcotest.(check (list string)) "downward path"
    [ "mid.push"; "bottom.consumed" ] (List.rev !log);
  log := [];
  Layer.deliver_up bottom (Message.of_string "up");
  Alcotest.(check (list string)) "upward path"
    [ "mid.pop"; "top.consumed" ] (List.rev !log)

let test_insert_below () =
  let log = ref [] in
  let top = consuming_top ~node:"n" log in
  let target = tagging_layer ~name:"target" ~node:"n" log in
  let bottom = consuming_bottom ~node:"n" log in
  Layer.stack [ top; target; bottom ];
  (* splice a PFI-style layer directly under the target *)
  let pfi = tagging_layer ~name:"pfi" ~node:"n" log in
  Layer.insert_below target pfi;
  Layer.push top (Message.of_string "x");
  Alcotest.(check (list string)) "pfi sees downward traffic"
    [ "target.push"; "pfi.push"; "bottom.consumed" ] (List.rev !log);
  log := [];
  Layer.deliver_up bottom (Message.of_string "y");
  Alcotest.(check (list string)) "pfi sees upward traffic"
    [ "pfi.pop"; "target.pop"; "top.consumed" ] (List.rev !log)

let test_remove_layer () =
  let log = ref [] in
  let top = consuming_top ~node:"n" log in
  let mid = tagging_layer ~name:"mid" ~node:"n" log in
  let bottom = consuming_bottom ~node:"n" log in
  Layer.stack [ top; mid; bottom ];
  Layer.remove mid;
  Layer.push top (Message.of_string "x");
  Alcotest.(check (list string)) "mid no longer traversed"
    [ "bottom.consumed" ] (List.rev !log)

let test_send_off_stack_fails () =
  let lonely = Layer.passthrough ~name:"lonely" ~node:"n" () in
  (match Layer.send_down lonely (Message.of_string "x") with
   | _ -> Alcotest.fail "expected Failure"
   | exception Failure _ -> ());
  match Layer.deliver_up lonely (Message.of_string "x") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let test_driver_records () =
  let log = ref [] in
  let driver = Driver.create ~node:"n" () in
  let bottom = consuming_bottom ~node:"n" log in
  Layer.stack [ Driver.layer driver; bottom ];
  Driver.send_string driver "hello";
  Alcotest.(check (list string)) "sent down" [ "bottom.consumed" ] !log;
  Layer.deliver_up bottom (Message.of_string "reply");
  Alcotest.(check int) "received" 1 (Driver.received_count driver);
  (match Driver.received driver with
   | [ m ] -> Alcotest.(check string) "content" "reply" (Message.to_string m)
   | _ -> Alcotest.fail "expected one message");
  Driver.clear_received driver;
  Alcotest.(check int) "cleared" 0 (Driver.received_count driver)

let test_driver_callback () =
  let seen = ref [] in
  let driver = Driver.create ~node:"n" () in
  Driver.set_on_receive driver (fun m -> seen := Message.to_string m :: !seen);
  let log = ref [] in
  let bottom = consuming_bottom ~node:"n" log in
  Layer.stack [ Driver.layer driver; bottom ];
  Layer.deliver_up bottom (Message.of_string "a");
  Layer.deliver_up bottom (Message.of_string "b");
  Alcotest.(check (list string)) "callback order" [ "a"; "b" ] (List.rev !seen)

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec truncation" `Quick test_codec_truncated;
    QCheck_alcotest.to_alcotest prop_codec_u32_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_u16_roundtrip;
    Alcotest.test_case "message headers" `Quick test_message_headers;
    Alcotest.test_case "message over-pop" `Quick test_message_pop_too_much;
    Alcotest.test_case "message attrs" `Quick test_message_attrs;
    Alcotest.test_case "message copy independence" `Quick test_message_copy_independent;
    Alcotest.test_case "message corruption" `Quick test_message_corrupt;
    Alcotest.test_case "stack traversal" `Quick test_stack_traversal;
    Alcotest.test_case "insert below (PFI splice)" `Quick test_insert_below;
    Alcotest.test_case "remove layer" `Quick test_remove_layer;
    Alcotest.test_case "send off stack fails" `Quick test_send_off_stack_fails;
    Alcotest.test_case "driver records deliveries" `Quick test_driver_records;
    Alcotest.test_case "driver callback" `Quick test_driver_callback;
  ]
