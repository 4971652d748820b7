(* An append-only entry store, a count per (node, tag) pair, and the
   attached feeds.  Nothing is indexed: verdicts are decided by feeds
   while a run records, and the store is read back only whole, by
   export and the MSC renderer. *)

type entry = {
  time : Vtime.t;
  node : string;
  tag : string;
  detail : string Lazy.t;
  fields : (string * string) list;
}

let detail e = Lazy.force e.detail

type feed = int -> entry -> unit

(* One record per (node, tag) pair the trace has recorded: the strings
   its entries share, its count since the last clear, and the attached
   feeds its tag selects (current while the pair sits in the memo). *)
type pair = {
  p_node : string;
  p_tag : string;
  mutable p_count : int;
  mutable p_feeds : feed array;
}

(* A few fixed memo slots point at recently recorded pairs.  Protocol
   layers record in bursts that cycle through a handful of pairs (a
   message round trip alternates sender and receiver), so the common
   case skips the hashtable lookup and the feed selection.  A miss
   fills the next free slot, then evicts round-robin. *)
let memo_slots = 4

type t = {
  stores : bool;  (* false: a counting trace *)
  mutable store : entry array;
  mutable len : int;
  pairs : (string * string, pair) Hashtbl.t;
  mutable feeds : (string list option * feed) list;  (* attach order *)
  memo : pair array;
  mutable m_used : int;  (* filled slots *)
  mutable m_next : int;  (* next slot to fill *)
}

let no_feeds : feed array = [||]

let make ~stores =
  let no_pair = { p_node = ""; p_tag = ""; p_count = 0; p_feeds = no_feeds } in
  { stores;
    store = [||];
    len = 0;
    pairs = Hashtbl.create 64;
    feeds = [];
    memo = Array.make memo_slots no_pair;
    m_used = 0;
    m_next = 0 }

let create () = make ~stores:true
let create_counting () = make ~stores:false

(* Filler for every store slot at or past [len]: a cleared or grown
   store must not keep an earlier trial's entries (their lazy details
   capture messages and closures) reachable. *)
let inert = { time = 0; node = ""; tag = ""; detail = Lazy.from_val ""; fields = [] }

(* Capacity-preserving: the entry store and the pair records survive a
   clear, so a reused trace records without reallocating.  A pair with
   a zero count is indistinguishable from a missing one, and the memo
   restarts empty with the same eviction order, so a cleared trace is
   observationally identical to a fresh one of its kind, and records a
   given batch with the same allocation after every clear.  Attached
   feeds are dropped, with every pair's reference to them, so they
   cannot keep an earlier trial's entries reachable either. *)
let clear t =
  if t.stores then Array.fill t.store 0 t.len inert;
  t.len <- 0;
  Hashtbl.iter
    (fun _ p ->
      p.p_count <- 0;
      p.p_feeds <- no_feeds)
    t.pairs;
  t.feeds <- [];
  t.m_used <- 0;
  t.m_next <- 0

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

let fill_slot t node tag =
  let p =
    match Hashtbl.find_opt t.pairs (node, tag) with
    | Some p -> p
    | None ->
      let p = { p_node = node; p_tag = tag; p_count = 0; p_feeds = no_feeds } in
      Hashtbl.add t.pairs (node, tag) p;
      p
  in
  p.p_feeds <- feeds_for t tag;
  t.memo.(t.m_next) <- p;
  t.m_next <- (t.m_next + 1) mod memo_slots;
  if t.m_used < memo_slots then t.m_used <- t.m_used + 1;
  p

let rec pair t node tag k =
  if k >= t.m_used then fill_slot t node tag
  else
    let p = t.memo.(k) in
    if String.equal p.p_node node && String.equal p.p_tag tag then p
    else pair t node tag (k + 1)

(* the memo caches each slot's feed selection, so a new feed empties it *)
let attach t ~tags feed =
  t.feeds <- t.feeds @ [ (tags, feed) ];
  t.m_used <- 0;
  t.m_next <- 0

let record_lazy ?(fields = []) t ~time ~node ~tag detail =
  let p = pair t node tag 0 in
  let i = t.len in
  t.len <- i + 1;
  p.p_count <- p.p_count + 1;
  let feeds = p.p_feeds in
  (* a counting trace builds the entry only for the feeds that want it *)
  if t.stores || Array.length feeds > 0 then begin
    let e = { time; node = p.p_node; tag = p.p_tag; detail; fields } in
    if t.stores then begin
      if i >= Array.length t.store then begin
        let store = Array.make (Stdlib.max 64 (Array.length t.store * 2)) inert in
        Array.blit t.store 0 store 0 i;
        t.store <- store
      end;
      t.store.(i) <- e
    end;
    for k = 0 to Array.length feeds - 1 do
      feeds.(k) i e
    done
  end

(* [Lazy.from_val] on a string returns the string itself (no wrapper
   block), so the strict path costs nothing over storing a plain
   [string] field. *)
let record ?fields t ~time ~node ~tag detail =
  record_lazy ?fields t ~time ~node ~tag (Lazy.from_val detail)

let length t = t.len

let count ?node ~tag t =
  match node with
  | Some node ->
    (match Hashtbl.find_opt t.pairs (node, tag) with Some p -> p.p_count | None -> 0)
  | None ->
    Hashtbl.fold
      (fun _ p n -> if String.equal p.p_tag tag then n + p.p_count else n)
      t.pairs 0

(* a cleared trace keeps its pair records at count 0: those are pairs
   it has not recorded *)
let fold_pairs f t init =
  Hashtbl.fold
    (fun _ p acc ->
      if p.p_count = 0 then acc else f ~node:p.p_node ~tag:p.p_tag p.p_count acc)
    t.pairs init

(* guards the two readers of the store: a counting trace has no
   entries to give, and answering "no entries" would be a lie *)
let stored t what =
  if not t.stores then
    invalid_arg ("Trace." ^ what ^ ": a counting trace stores no entries")

let entries t =
  stored t "entries";
  Array.to_list (Array.sub t.store 0 t.len)

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

(* appends each entry with [tag] (every entry without one) to [buf] as
   one line, calling [flush buf] after each *)
let add_jsonl ?extra ?tag buf flush t =
  stored t "to_jsonl";
  for i = 0 to t.len - 1 do
    let e = t.store.(i) in
    if Option.fold tag ~none:true ~some:(String.equal e.tag) then begin
      add_entry_json ?extra buf e;
      Buffer.add_char buf '\n';
      flush buf
    end
  done

let to_jsonl ?extra t =
  let buf = Buffer.create (256 * (t.len + 1)) in
  add_jsonl ?extra buf ignore t;
  Buffer.contents buf

let output_jsonl ?extra ?tag oc t =
  add_jsonl ?extra ?tag (Buffer.create 256)
    (fun buf ->
      Buffer.output_buffer oc buf;
      Buffer.clear buf)
    t
