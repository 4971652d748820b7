(* An append-only entry store, a count per (node, tag) pair, and the
   attached feeds.  Nothing is indexed: verdicts are decided by feeds
   while a run records, and the store is read back only whole, through
   [entries]. *)

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

(* Counts one entry of [(node, tag)] and returns its pair record. *)
let count_entry t ~node ~tag =
  let p = pair t node tag 0 in
  t.len <- t.len + 1;
  p.p_count <- p.p_count + 1;
  p

(* A counting trace builds the entry only for the feeds that want it. *)
let wants_entry t p = t.stores || Array.length p.p_feeds > 0

(* Stores and feeds [e], the entry just counted. *)
let add_entry t p e =
  let i = t.len - 1 in
  if t.stores then begin
    if i >= Array.length t.store then begin
      let store = Array.make (Stdlib.max 64 (Array.length t.store * 2)) inert in
      Array.blit t.store 0 store 0 i;
      t.store <- store
    end;
    t.store.(i) <- e
  end;
  let feeds = p.p_feeds in
  for k = 0 to Array.length feeds - 1 do
    feeds.(k) i e
  done

(* [Lazy.from_val] on a string returns the string itself (no wrapper
   block), so a stored detail costs nothing over a plain [string]
   field. *)
let record ?(fields = []) t ~time ~node ~tag detail =
  let p = count_entry t ~node ~tag in
  if wants_entry t p then
    add_entry t p
      { time; node = p.p_node; tag = p.p_tag; detail = Lazy.from_val detail; fields }

(* The deferred detail is built with the entry, so an entry nothing
   builds allocates nothing for its detail. *)
let record_with ?(fields = []) t ~time ~node ~tag render x =
  let p = count_entry t ~node ~tag in
  if wants_entry t p then
    add_entry t p
      { time; node = p.p_node; tag = p.p_tag; detail = lazy (render x); fields }

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

(* a counting trace has no entries to give, and answering "no
   entries" would be a lie *)
let entries t =
  if not t.stores then
    invalid_arg "Trace.entries: a counting trace stores no entries";
  Array.to_list (Array.sub t.store 0 t.len)
