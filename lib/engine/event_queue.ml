(* An indexed binary heap over flat arrays.  Heap order lives in three
   [int] arrays: [times] and [seqs] hold the key of the entry at each
   heap position and [slots] the slot that holds its value.  A slot
   records the value, the entry's current heap position (so [cancel]
   can find it) and a generation that advances whenever the slot is
   freed.  A handle is the slot index tagged with the generation it was
   issued under: once the entry fires, is cancelled or is cleared, the
   generations differ and the handle is inert, even after the slot has
   been reused.  Sifting moves only integers, and the one pointer array
   is written twice per entry: when it is pushed and when its slot is
   freed. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable len : int;  (* pending entries: heap positions [0, len) *)
  mutable values : 'a array;
  mutable pos : int array;
  mutable gens : int array;
  mutable free : int array;  (* freed slots, a stack [nslots - len] deep *)
  mutable nslots : int;  (* slots handed out since the last clear *)
  mutable next_seq : int;
}

type handle = int

(* 2^30 slots is beyond any queue that fits in memory; the remaining 32
   bits of a non-negative int carry the generation. *)
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = max_int lsr slot_bits

let null_handle = -1

(* Filler for every value slot that holds no pending entry.  It is never
   read, so one immediate serves queues of every element type; what
   matters is that a freed slot keeps nothing of its callback (or the
   simulation it reaches) alive.  Being an immediate, it also keeps
   [Array.make] from ever building a flat float array. *)
let inert () : 'a = Obj.magic ()

let create () =
  { times = [||]; seqs = [||]; slots = [||]; len = 0; values = [||]; pos = [||];
    gens = [||]; free = [||]; nslots = 0; next_seq = 0 }

let is_empty t = t.len = 0
let size t = t.len

let grow t =
  let cap = Int.max 16 (2 * Array.length t.times) in
  if cap - 1 > slot_mask then invalid_arg "Event_queue.push: too many pending events";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.values <- extend t.values (inert ());
  t.pos <- extend t.pos 0;
  t.gens <- extend t.gens 0;
  t.free <- extend t.free 0

let place t i time seq slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.pos.(slot) <- i

(* Whether the key (time, seq) orders before the entry at position [j].
   Sequence numbers are unique, so keys never tie. *)
let before t time seq j =
  let tj = t.times.(j) in
  time < tj || (time = tj && seq < t.seqs.(j))

(* Both sifts carry the moving entry's key in registers and write it
   once, at its final position. *)
let rec sift_up t i time seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && before t time seq parent then begin
    place t i t.times.(parent) t.seqs.(parent) t.slots.(parent);
    sift_up t parent time seq slot
  end
  else place t i time seq slot

let rec sift_down t i time seq slot =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i time seq slot
  else begin
    let r = l + 1 in
    let c = if r < t.len && before t t.times.(r) t.seqs.(r) l then r else l in
    if before t time seq c then place t i time seq slot
    else begin
      place t i t.times.(c) t.seqs.(c) t.slots.(c);
      sift_down t c time seq slot
    end
  end

let push t ~time value =
  let slot =
    if t.nslots > t.len then t.free.(t.nslots - t.len - 1)
    else begin
      if t.nslots = Array.length t.times then grow t;
      let s = t.nslots in
      t.nslots <- s + 1;
      s
    end
  in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.values.(slot) <- value;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i time seq slot;
  (t.gens.(slot) lsl slot_bits) lor slot

(* Removes the entry at heap position [i]: the last entry fills the
   hole and moves whichever way its key requires. *)
let remove_at t i =
  let last = t.len - 1 in
  t.len <- last;
  if i < last then begin
    let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
    if i > 0 && before t time seq ((i - 1) / 2) then sift_up t i time seq slot
    else sift_down t i time seq slot
  end

(* Frees a slot whose entry has just left the heap. *)
let release t slot =
  t.values.(slot) <- inert ();
  t.gens.(slot) <- (t.gens.(slot) + 1) land gen_mask;
  t.free.(t.nslots - t.len - 1) <- slot

let cancel t h =
  let slot = h land slot_mask in
  if h >= 0 && slot < t.nslots && t.gens.(slot) = h lsr slot_bits then begin
    remove_at t t.pos.(slot);
    release t slot
  end

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let take_top t =
  let slot = t.slots.(0) in
  let value = t.values.(slot) in
  remove_at t 0;
  release t slot;
  value

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) in
    Some (time, take_top t)

let pop_until_k t ~until k =
  if t.len = 0 || t.times.(0) > until then false
  else begin
    let time = t.times.(0) in
    k time (take_top t);
    true
  end

(* Pending entries are forgotten by advancing their slots' generations
   (freed slots advanced theirs when they were freed), so every handle
   issued before the clear is inert; their values are overwritten with
   the filler.  Slots are then handed out again from 0 and [next_seq]
   restarts at 0, so a cleared queue orders same-time pushes exactly
   like a fresh one. *)
let clear t =
  for i = 0 to t.len - 1 do
    let slot = t.slots.(i) in
    t.values.(slot) <- inert ();
    t.gens.(slot) <- (t.gens.(slot) + 1) land gen_mask
  done;
  t.len <- 0;
  t.nslots <- 0;
  t.next_seq <- 0
