type state = Pending | Cancelled | Fired

type handle = { mutable state : state }

type 'a entry = {
  time : Vtime.t;
  seq : int;
  h : handle;
  value : 'a;
}

type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable high : int;  (* slots written since the last clear *)
  mutable next_seq : int;
  mutable live : int;
}

let create () = { heap = [||]; len = 0; high = 0; next_seq = 0; live = 0 }

let null_handle = { state = Fired }

(* Filler for every slot outside the live heap.  Its value is never
   read — only slots below [len] are — so one unit-valued entry serves
   queues of every element type; what matters is that a filler slot
   keeps nothing of a previous trial reachable. *)
let inert_entry = { time = 0; seq = 0; h = null_handle; value = () }
let inert () : 'a entry = Obj.magic inert_entry

let is_empty t = t.live = 0
let size t = t.live
let physical_size t = t.len

let entry_lt a b =
  let c = Vtime.compare a.time b.time in
  if c <> 0 then c < 0 else a.seq < b.seq

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = i in
  let smallest = if l < t.len && entry_lt t.heap.(l) t.heap.(smallest) then l else smallest in
  let smallest = if r < t.len && entry_lt t.heap.(r) t.heap.(smallest) then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* Grow the backing array once to hold [extra] more entries (doubling,
   so repeated batches stay amortised O(1) per entry). *)
let ensure_capacity t extra =
  let needed = t.len + extra in
  if Array.length t.heap < needed then begin
    let rec cap c = if c >= needed then c else cap (2 * c) in
    let heap = Array.make (cap (Stdlib.max 16 (Array.length t.heap))) (inert ()) in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  if needed > t.high then t.high <- needed

let push t ~time value =
  let h = { state = Pending } in
  let entry = { time; seq = t.next_seq; h; value } in
  t.next_seq <- t.next_seq + 1;
  ensure_capacity t 1;
  t.heap.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1);
  t.live <- t.live + 1;
  h

let push_batch t items =
  match items with
  | [] -> []
  | _ :: _ ->
    let n = List.length items in
    ensure_capacity t n;
    let handles =
      List.map
        (fun (time, value) ->
          let h = { state = Pending } in
          let entry = { time; seq = t.next_seq; h; value } in
          t.next_seq <- t.next_seq + 1;
          t.heap.(t.len) <- entry;
          t.len <- t.len + 1;
          h)
        items
    in
    t.live <- t.live + n;
    (* Appended entries sit past the old heap; sifting them up in append
       order is exactly equivalent to sequential pushes (sift_up only
       reads ancestors, and unsifted entries are never ancestors).  For
       bulk loads a bottom-up heapify is O(len) instead of O(n log len);
       either way pop order is fixed by the total (time, seq) order, so
       the choice never shows through the interface. *)
    if n < t.len / 4 then
      for i = t.len - n to t.len - 1 do
        sift_up t i
      done
    else
      for i = (t.len / 2) - 1 downto 0 do
        sift_down t i
      done;
    handles

(* Rebuild the heap with only the pending entries.  Lazy reclamation
   alone frees a cancelled entry only when it reaches the heap top, so
   long-dated cancelled timers (re-armed retransmit timers, say) would
   otherwise accumulate without bound. *)
let compact t =
  let dst = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.heap.(i) in
    if e.h.state = Pending then begin
      t.heap.(!dst) <- e;
      incr dst
    end
  done;
  t.len <- !dst;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done

let compact_threshold = 64

let cancel t h =
  match h.state with
  | Pending ->
    h.state <- Cancelled;
    t.live <- t.live - 1;
    if t.len >= compact_threshold && 2 * t.live < t.len then compact t
  | Cancelled | Fired -> ()

let pop_top t =
  let top = t.heap.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.heap.(0) <- t.heap.(t.len);
    sift_down t 0
  end;
  top

(* Discard cancelled entries sitting at the top of the heap. *)
let rec drain_dead t =
  if t.len > 0 && t.heap.(0).h.state = Cancelled then begin
    ignore (pop_top t);
    drain_dead t
  end

let peek_time t =
  drain_dead t;
  if t.len = 0 then None else Some t.heap.(0).time

let pop t =
  drain_dead t;
  if t.len = 0 then None
  else begin
    let top = pop_top t in
    top.h.state <- Fired;
    t.live <- t.live - 1;
    Some (top.time, top.value)
  end

(* Callback form of [pop_until]: passes the entry straight to [k]
   instead of boxing it in [Some (time, value)].  The driving loop in
   {!Sim.run} pops every scheduled event exactly once, so the saved
   tuple allocation is per-event. *)
let pop_until_k t ~until k =
  drain_dead t;
  if t.len = 0 then false
  else begin
    let top = t.heap.(0) in
    if Vtime.(top.time > until) then false
    else begin
      ignore (pop_top t);
      top.h.state <- Fired;
      t.live <- t.live - 1;
      k top.time top.value;
      true
    end
  end

(* Forget every entry while keeping the backing array, so a reused
   queue pushes without re-growing.  Surviving entries are marked
   Cancelled first: a handle retained across the clear must stay inert
   (a late [cancel] on it would otherwise corrupt the live count).
   Every slot written since the last clear — live entries and the
   popped or compacted-away ones left behind past [len] — is then
   overwritten with the inert filler, so the old callbacks (and the
   simulation they reach) can be collected.  [next_seq] restarts at 0 —
   a cleared queue must order same-time pushes exactly like a fresh
   one. *)
let clear t =
  for i = 0 to t.len - 1 do
    let e = t.heap.(i) in
    if e.h.state = Pending then e.h.state <- Cancelled
  done;
  Array.fill t.heap 0 t.high (inert ());
  t.len <- 0;
  t.high <- 0;
  t.live <- 0;
  t.next_seq <- 0

let pop_until t ~until =
  drain_dead t;
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    if Vtime.(top.time > until) then None
    else begin
      ignore (pop_top t);
      top.h.state <- Fired;
      t.live <- t.live - 1;
      Some (top.time, top.value)
    end
  end
