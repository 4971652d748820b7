open Pfi_engine

(* A minimal JSON tree, its two printers, its parser and a trace
   entry's JSONL line.  Deliberately small: objects keep field order
   (assoc list), numbers split into Int and Float so 64-bit-safe values
   can round-trip as decimal strings where needed, and no JSON library
   is involved. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

(* Length of the valid UTF-8 sequence starting at [i], or 0 if the byte
   does not begin one (continuation byte, overlong encoding, surrogate,
   or out-of-range lead).  Keeps the output valid UTF-8: trace details
   can carry raw packet bytes. *)
let utf8_seq_len s i =
  let n = String.length s in
  let b0 = Char.code s.[i] in
  let cont j = j < n && Char.code s.[j] land 0xC0 = 0x80 in
  if b0 < 0x80 then 1
  else if b0 < 0xC2 then 0
  else if b0 < 0xE0 then if cont (i + 1) then 2 else 0
  else if b0 < 0xF0 then
    if
      cont (i + 1) && cont (i + 2)
      && not (b0 = 0xE0 && Char.code s.[i + 1] < 0xA0)
      && not (b0 = 0xED && Char.code s.[i + 1] >= 0xA0)
    then 3
    else 0
  else if b0 < 0xF5 then
    if
      cont (i + 1) && cont (i + 2) && cont (i + 3)
      && not (b0 = 0xF0 && Char.code s.[i + 1] < 0x90)
      && not (b0 = 0xF4 && Char.code s.[i + 1] >= 0x90)
    then 4
    else 0
  else 0

(* Valid UTF-8 passes through untouched; a byte that is not part of a
   valid sequence is escaped as the lone low surrogate [\udcXX]
   carrying the byte value (Python's surrogateescape convention), which
   [parse] maps back to the single byte — so any byte string
   round-trips exactly while the emitted JSON stays valid UTF-8, and a
   standard JSON writer re-serializes it unchanged. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  (* [s.[start .. i - 1]] prints as itself: it is added as one run *)
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match String.unsafe_get s i with
      | '\032' .. '\127' as c when c <> '"' && c <> '\\' -> go start (i + 1)
      | '\128' .. '\255' when utf8_seq_len s i > 0 -> go start (i + utf8_seq_len s i)
      | c ->
        Buffer.add_substring buf s start (i - start);
        Buffer.add_string buf
          (match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | '\n' -> "\\n"
           | '\r' -> "\\r"
           | '\t' -> "\\t"
           | c when c < ' ' -> Printf.sprintf "\\u%04x" (Char.code c)
           | c -> Printf.sprintf "\\udc%02x" (Char.code c));
        go (i + 1) (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

let rec write buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* %.17g round-trips every finite double *)
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> add_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        write buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        add_string buf k;
        Buffer.add_string buf ": ";
        write buf (indent + 2) item)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 512 in
  write buf 0 v;
  Buffer.contents buf

(* compact single-line form, for JSONL streams *)
let to_line v =
  let buf = Buffer.create 256 in
  let rec go = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as scalar ->
      write buf 0 scalar
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          go item)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

(* the UTF-8 bytes of code point [c] (not a surrogate) *)
let add_utf8 buf c =
  let byte b = Buffer.add_char buf (Char.chr b) in
  if c < 0x80 then byte c
  else if c < 0x800 then begin
    byte (0xC0 lor (c lsr 6));
    byte (0x80 lor (c land 0x3F))
  end
  else if c < 0x10000 then begin
    byte (0xE0 lor (c lsr 12));
    byte (0x80 lor ((c lsr 6) land 0x3F));
    byte (0x80 lor (c land 0x3F))
  end
  else begin
    byte (0xF0 lor (c lsr 18));
    byte (0x80 lor ((c lsr 12) land 0x3F));
    byte (0x80 lor ((c lsr 6) land 0x3F));
    byte (0x80 lor (c land 0x3F))
  end

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let hex = String.sub s !pos 4 in
    pos := !pos + 4;
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if String.for_all is_hex hex then int_of_string ("0x" ^ hex)
    else fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let code = hex4 () in
           if code >= 0xD800 && code <= 0xDBFF then begin
             (* a high surrogate must pair with a low one *)
             if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
               fail "lone surrogate";
             pos := !pos + 2;
             let low = hex4 () in
             if low < 0xDC00 || low > 0xDFFF then fail "lone surrogate";
             add_utf8 buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
           end
           else if code >= 0xDC80 && code <= 0xDCFF then
             (* a byte the printer found outside valid UTF-8 *)
             Buffer.add_char buf (Char.chr (code land 0xFF))
           else if code >= 0xDC00 && code <= 0xDFFF then fail "lone surrogate"
           else add_utf8 buf code
         | _ -> fail "unknown escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
    then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); List [])
      else begin
        let items = ref [ parse_value () ] in
        let rec more () =
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items := parse_value () :: !items; more ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        more ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        let rec more () =
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields := field () :: !fields; more ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        more ();
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Trace export                                                       *)
(* ------------------------------------------------------------------ *)

let add_pair buf (k, v) =
  add_string buf k;
  Buffer.add_char buf ':';
  add_string buf v

(* one entry's line, printed straight into [buf]: [t_us], the [extra]
   pairs, [node], [tag], [detail], then [fields] when there are any *)
let add_entry ~extra buf (e : Trace.entry) =
  Buffer.add_string buf "{\"t_us\":";
  Buffer.add_string buf (Int64.to_string (Vtime.to_us e.time));
  List.iter (fun kv -> Buffer.add_char buf ','; add_pair buf kv) extra;
  Buffer.add_string buf ",\"node\":";
  add_string buf e.node;
  Buffer.add_string buf ",\"tag\":";
  add_string buf e.tag;
  Buffer.add_string buf ",\"detail\":";
  add_string buf (Trace.detail e);
  (match e.fields with
   | [] -> ()
   | fields ->
     Buffer.add_string buf ",\"fields\":{";
     List.iteri (fun i kv -> if i > 0 then Buffer.add_char buf ','; add_pair buf kv) fields;
     Buffer.add_char buf '}');
  Buffer.add_string buf "}\n"
