type t = {
  mutable payload : Bytes.t;
  mutable attrs : (string * string) list;
}

let create ?(attrs = []) payload = { payload; attrs }

let of_string s = create (Bytes.of_string s)

let payload t = t.payload
let set_payload t b = t.payload <- b
let length t = Bytes.length t.payload
let to_string t = Bytes.to_string t.payload

let push_header t header =
  let combined = Bytes.create (Bytes.length header + Bytes.length t.payload) in
  Bytes.blit header 0 combined 0 (Bytes.length header);
  Bytes.blit t.payload 0 combined (Bytes.length header) (Bytes.length t.payload);
  t.payload <- combined

let pop_header t n =
  if n > Bytes.length t.payload then raise (Bytes_codec.Truncated "pop_header");
  let header = Bytes.sub t.payload 0 n in
  t.payload <- Bytes.sub t.payload n (Bytes.length t.payload - n);
  header

let peek t n =
  let n = min n (Bytes.length t.payload) in
  Bytes.sub t.payload 0 n

(* Attribute keys compare with [String.equal]; the association-list
   functions of [List] would reach polymorphic compare on every
   lookup. *)
let rec assoc key = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if String.equal k key then v else assoc key rest

let rec mem key = function
  | [] -> false
  | (k, _) :: rest -> String.equal k key || mem key rest

let rec remove key = function
  | [] -> []
  | ((k, _) as kv) :: rest -> if String.equal k key then rest else kv :: remove key rest

let get_attr t key = match assoc key t.attrs with v -> Some v | exception Not_found -> None

let find_attr t key = assoc key t.attrs

(* [remove] copies the list even when the key is absent, which is the
   common case on the per-message path (a fresh wire message gaining its
   destination, a delivery gaining its source), so the copy is made only
   when there is something to remove. *)
let with_attr attrs ((key, _) as kv) =
  kv :: (if mem key attrs then remove key attrs else attrs)

let set_attr t key value = t.attrs <- with_attr t.attrs (key, value)

let remove_attr t key = t.attrs <- remove key t.attrs

let attrs t = t.attrs

let copy t = { payload = Bytes.copy t.payload; attrs = t.attrs }

let corrupt_byte t ~offset =
  if offset >= 0 && offset < Bytes.length t.payload then begin
    let b = Char.code (Bytes.get t.payload offset) in
    Bytes.set t.payload offset (Char.chr (lnot b land 0xff))
  end;
  t

let xor_byte t ~offset ~mask =
  if offset >= 0 && offset < Bytes.length t.payload then begin
    let b = Char.code (Bytes.get t.payload offset) in
    Bytes.set t.payload offset (Char.chr ((b lxor mask) land 0xff))
  end;
  t

let hex ?(max_bytes = 32) t =
  let n = min max_bytes (Bytes.length t.payload) in
  let buf = Buffer.create (n * 3) in
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf (Printf.sprintf "%02x" (Char.code (Bytes.get t.payload i)))
  done;
  if Bytes.length t.payload > n then Buffer.add_string buf " ...";
  Buffer.contents buf
