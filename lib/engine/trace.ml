(* Trace v2: a growable array of typed entries with per-(node, tag)
   offset indexes, so the analysis queries the experiment tables issue
   dozens of times per run are O(matches) instead of O(log length).  A
   counting trace keeps the same indexes as bare lengths and stores no
   entry, for trials whose verdicts are decided by attached feeds. *)

type entry = {
  time : Vtime.t;
  node : string;
  tag : string;
  detail : string Lazy.t;
  fields : (string * string) list;
}

let detail e = Lazy.force e.detail

(* growable vector of entry offsets — one per index bucket.  A counting
   trace only [bump]s, so its vectors keep a length and no array. *)
module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push v i =
    if v.len = Array.length v.a then begin
      let a = Array.make (if v.len = 0 then 8 else v.len * 2) 0 in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- i;
    v.len <- v.len + 1

  let bump v = v.len <- v.len + 1
  let get v i = v.a.(i)
  let length v = v.len
  let reset v = v.len <- 0
end

type feed = int -> entry -> unit

(* A few fixed memo slots, each holding the interned node and tag of a
   recently recorded (node, tag) pair, its three index buckets and the
   attached feeds that want its tag.  Protocol layers record in bursts
   that cycle through a handful of pairs (a message round trip
   alternates sender and receiver), so the common case skips all five
   hashtable lookups and the feed selection.  A miss fills the next free
   slot, then evicts round-robin. *)
let memo_slots = 4

type t = {
  stores : bool;  (* false: a counting trace *)
  mutable store : entry array;
  mutable len : int;
  intern : (string, string) Hashtbl.t;
  by_node : (string, Ivec.t) Hashtbl.t;
  by_tag : (string, Ivec.t) Hashtbl.t;
  by_node_tag : (string * string, Ivec.t) Hashtbl.t;
  mutable feeds : (string list option * feed) list;  (* attach order *)
  m_node : string array;
  m_tag : string array;
  m_by_node : Ivec.t array;
  m_by_tag : Ivec.t array;
  m_by_node_tag : Ivec.t array;
  m_feeds : feed array array;
  mutable m_used : int;  (* filled slots *)
  mutable m_next : int;  (* next slot to evict once all are filled *)
}

let no_feeds : feed array = [||]

let make ~stores =
  let no_bucket = Ivec.create () in
  { stores;
    store = [||];
    len = 0;
    intern = Hashtbl.create 64;
    by_node = Hashtbl.create 16;
    by_tag = Hashtbl.create 64;
    by_node_tag = Hashtbl.create 64;
    feeds = [];
    m_node = Array.make memo_slots "";
    m_tag = Array.make memo_slots "";
    m_by_node = Array.make memo_slots no_bucket;
    m_by_tag = Array.make memo_slots no_bucket;
    m_by_node_tag = Array.make memo_slots no_bucket;
    m_feeds = Array.make memo_slots no_feeds;
    m_used = 0;
    m_next = 0 }

let create () = make ~stores:true
let create_counting () = make ~stores:false

(* Filler for every store slot at or past [len]: a cleared or grown
   store must not keep an earlier trial's entries (their lazy details
   capture messages and closures) reachable. *)
let inert = { time = 0; node = ""; tag = ""; detail = Lazy.from_val ""; fields = [] }

(* Capacity-preserving: the entry store, the intern table and every
   index bucket survive a clear so a reused trace records without
   reallocating.  An empty bucket is indistinguishable from a missing
   one ([lookup] substitutes a fresh empty vector for absent keys), and
   the memo restarts empty with the same eviction order, so a cleared
   trace is observationally identical to a fresh one of its kind and
   records with the same allocation.  Attached feeds are dropped, with
   every memo reference to them, so they cannot keep an earlier trial's
   entries reachable either. *)
let clear t =
  if t.stores then Array.fill t.store 0 t.len inert;
  t.len <- 0;
  Hashtbl.iter (fun _ v -> Ivec.reset v) t.by_node;
  Hashtbl.iter (fun _ v -> Ivec.reset v) t.by_tag;
  Hashtbl.iter (fun _ v -> Ivec.reset v) t.by_node_tag;
  t.feeds <- [];
  Array.fill t.m_feeds 0 memo_slots no_feeds;
  t.m_used <- 0;
  t.m_next <- 0

let intern t s =
  match Hashtbl.find_opt t.intern s with
  | Some canonical -> canonical
  | None ->
    Hashtbl.add t.intern s s;
    s

let bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = Ivec.create () in
    Hashtbl.add tbl key v;
    v

let feeds_for t tag =
  match t.feeds with
  | [] -> no_feeds
  | feeds ->
    Array.of_list
      (List.filter_map
         (fun (tags, f) ->
           match tags with
           | None -> Some f
           | Some tags -> if List.exists (String.equal tag) tags then Some f else None)
         feeds)

let rec find_slot t node tag i =
  if i >= t.m_used then -1
  else if String.equal t.m_node.(i) node && String.equal t.m_tag.(i) tag then i
  else find_slot t node tag (i + 1)

let fill_slot t node tag =
  let i =
    if t.m_used < memo_slots then begin
      t.m_used <- t.m_used + 1;
      t.m_used - 1
    end
    else begin
      let i = t.m_next in
      t.m_next <- (i + 1) mod memo_slots;
      i
    end
  in
  let node = intern t node and tag = intern t tag in
  t.m_node.(i) <- node;
  t.m_tag.(i) <- tag;
  t.m_by_node.(i) <- bucket t.by_node node;
  t.m_by_tag.(i) <- bucket t.by_tag tag;
  t.m_by_node_tag.(i) <- bucket t.by_node_tag (node, tag);
  t.m_feeds.(i) <- feeds_for t tag;
  i

(* the memo caches each slot's feed selection, so a new feed empties it *)
let attach t ~tags feed =
  t.feeds <- t.feeds @ [ (tags, feed) ];
  t.m_used <- 0;
  t.m_next <- 0

let record_lazy ?(fields = []) t ~time ~node ~tag detail =
  let slot =
    match find_slot t node tag 0 with -1 -> fill_slot t node tag | slot -> slot
  in
  let i = t.len in
  t.len <- i + 1;
  let feeds = t.m_feeds.(slot) in
  if t.stores then begin
    let e = { time; node = t.m_node.(slot); tag = t.m_tag.(slot); detail; fields } in
    if i >= Array.length t.store then begin
      let store = Array.make (Stdlib.max 64 (Array.length t.store * 2)) inert in
      Array.blit t.store 0 store 0 i;
      t.store <- store
    end;
    t.store.(i) <- e;
    Ivec.push t.m_by_node.(slot) i;
    Ivec.push t.m_by_tag.(slot) i;
    Ivec.push t.m_by_node_tag.(slot) i;
    for k = 0 to Array.length feeds - 1 do
      feeds.(k) i e
    done
  end
  else begin
    Ivec.bump t.m_by_node.(slot);
    Ivec.bump t.m_by_tag.(slot);
    Ivec.bump t.m_by_node_tag.(slot);
    (* the entry exists only for the feeds that want its tag *)
    if Array.length feeds > 0 then begin
      let e = { time; node = t.m_node.(slot); tag = t.m_tag.(slot); detail; fields } in
      for k = 0 to Array.length feeds - 1 do
        feeds.(k) i e
      done
    end
  end

(* [Lazy.from_val] on a string returns the string itself (no wrapper
   block), so the strict path costs nothing over storing a plain
   [string] field. *)
let record ?fields t ~time ~node ~tag detail =
  record_lazy ?fields t ~time ~node ~tag (Lazy.from_val detail)

let length t = t.len

(* guards every query that reads entries back (the rest go through
   [iter]): a counting trace has none to give, and answering "no
   entries" would be a lie *)
let stored t what =
  if not t.stores then
    invalid_arg ("Trace." ^ what ^ ": a counting trace stores no entries")

let entries t =
  stored t "entries";
  Array.to_list (Array.sub t.store 0 t.len)

(* the index bucket answering a (node?, tag?) query, if one applies;
   None means "every entry" *)
let lookup ?node ?tag t =
  match (node, tag) with
  | None, None -> None
  | Some n, None -> Some (Option.value (Hashtbl.find_opt t.by_node n) ~default:(Ivec.create ()))
  | None, Some g -> Some (Option.value (Hashtbl.find_opt t.by_tag g) ~default:(Ivec.create ()))
  | Some n, Some g ->
    Some (Option.value (Hashtbl.find_opt t.by_node_tag (n, g)) ~default:(Ivec.create ()))

let iter ?node ?tag f t =
  stored t "iter";
  match lookup ?node ?tag t with
  | None ->
    for i = 0 to t.len - 1 do
      f t.store.(i)
    done
  | Some v ->
    for i = 0 to Ivec.length v - 1 do
      f t.store.(Ivec.get v i)
    done

let get t i =
  stored t "get";
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Trace.get: index %d out of bounds [0, %d)" i t.len);
  t.store.(i)

let iteri ?node ?tag f t =
  stored t "iteri";
  match lookup ?node ?tag t with
  | None ->
    for i = 0 to t.len - 1 do
      f i t.store.(i)
    done
  | Some v ->
    for i = 0 to Ivec.length v - 1 do
      let j = Ivec.get v i in
      f j t.store.(j)
    done

let find ?node ?tag t =
  let acc = ref [] in
  iter ?node ?tag (fun e -> acc := e :: !acc) t;
  List.rev !acc

let timestamps ?node ~tag t =
  List.map (fun e -> e.time) (find ?node ~tag t)

let intervals ?node ~tag t =
  let rec diffs = function
    | a :: (b :: _ as rest) -> Vtime.sub b a :: diffs rest
    | [ _ ] | [] -> []
  in
  diffs (timestamps ?node ~tag t)

let count ?node ~tag t =
  match lookup ?node ~tag t with
  | Some v -> Ivec.length v
  | None -> t.len

let last ?node ?tag t =
  stored t "last";
  match lookup ?node ?tag t with
  | None -> if t.len = 0 then None else Some t.store.(t.len - 1)
  | Some v ->
    let n = Ivec.length v in
    if n = 0 then None else Some t.store.(Ivec.get v (n - 1))

(* ------------------------------------------------------------------ *)
(* JSONL export                                                       *)
(* ------------------------------------------------------------------ *)

(* Length of the valid UTF-8 sequence starting at [i], or 0 if the byte
   does not begin one (continuation byte, overlong encoding, surrogate,
   or out-of-range lead).  Used to keep JSONL output valid UTF-8: trace
   details can carry raw packet bytes. *)
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
   valid sequence is escaped as [\u00XX] carrying the byte value, which
   the artifact reader ({!Pfi_testgen.Repro}) maps back to the single
   byte — so any byte string round-trips exactly while the emitted JSON
   stays valid UTF-8. *)
let add_json_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (match c with
     | '"' -> Buffer.add_string buf "\\\""; incr i
     | '\\' -> Buffer.add_string buf "\\\\"; incr i
     | '\n' -> Buffer.add_string buf "\\n"; incr i
     | '\r' -> Buffer.add_string buf "\\r"; incr i
     | '\t' -> Buffer.add_string buf "\\t"; incr i
     | c when Char.code c < 0x20 ->
       Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c));
       incr i
     | c when Char.code c < 0x80 -> Buffer.add_char buf c; incr i
     | c ->
       (match utf8_seq_len s !i with
        | 0 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c));
          incr i
        | len -> Buffer.add_substring buf s !i len; i := !i + len))
  done;
  Buffer.add_char buf '"'

let add_entry_json ?(extra = []) buf e =
  Buffer.add_string buf "{\"t_us\":";
  Buffer.add_string buf (Int64.to_string (Vtime.to_us e.time));
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_json_string buf v)
    extra;
  Buffer.add_string buf ",\"node\":";
  add_json_string buf e.node;
  Buffer.add_string buf ",\"tag\":";
  add_json_string buf e.tag;
  Buffer.add_string buf ",\"detail\":";
  add_json_string buf (Lazy.force e.detail);
  (match e.fields with
   | [] -> ()
   | fields ->
     Buffer.add_string buf ",\"fields\":{";
     List.iteri
       (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         add_json_string buf k;
         Buffer.add_char buf ':';
         add_json_string buf v)
       fields;
     Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let entry_to_json ?extra e =
  let buf = Buffer.create 128 in
  add_entry_json ?extra buf e;
  Buffer.contents buf

let to_jsonl ?extra ?node ?tag t =
  stored t "to_jsonl";
  let buf = Buffer.create (256 * (t.len + 1)) in
  iter ?node ?tag
    (fun e ->
      add_entry_json ?extra buf e;
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let output_jsonl ?extra ?node ?tag oc t =
  let buf = Buffer.create 256 in
  iter ?node ?tag
    (fun e ->
      Buffer.clear buf;
      add_entry_json ?extra buf e;
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)
    t

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                    *)
(* ------------------------------------------------------------------ *)

let pp_entry ppf e =
  Format.fprintf ppf "[%a] %-12s %-24s %s" Vtime.pp e.time e.node e.tag
    (Lazy.force e.detail);
  match e.fields with
  | [] -> ()
  | fields ->
    Format.fprintf ppf " {%s}"
      (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields))

let dump ppf t =
  iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) t
