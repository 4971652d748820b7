(* Sentinel occupying result slots before a worker writes them: a valid
   [('b, exn) result] for any ['b], so the results array needs no
   option boxing and no unwrapping pass.  Every slot is overwritten
   before the joins return — the cursor hands out each index exactly
   once and workers only exit once the cursor passes [n] — so the
   sentinel can only be observed if that invariant breaks. *)
exception Uninitialized

type worker_stat = {
  ws_claims : int;
  ws_items : int;
  ws_busy_s : float;
}

type stats = {
  st_exec : string;
  st_maps : int;
  st_items : int;
  st_spawned : int;
  st_elapsed_s : float;
  st_workers : worker_stat list;
}

let zero_ws = { ws_claims = 0; ws_items = 0; ws_busy_s = 0.0 }

let zero_stats name =
  { st_exec = name;
    st_maps = 0;
    st_items = 0;
    st_spawned = 0;
    st_elapsed_s = 0.0;
    st_workers = [] }

type t = {
  exec_name : string;
  width : int;
  try_map : 'a 'b. (('a -> 'b) -> 'a list -> ('b, exn) result list);
  stats_cell : stats ref;
}

let name t = t.exec_name
let stats t = !(t.stats_cell)

let guarded f x = try Ok (f x) with e -> Error e

let now = Unix.gettimeofday

(* fold one map's per-worker measurements into the executor's lifetime
   stats; runs on the calling domain after every worker has joined, so
   no synchronization is needed *)
let note cell ~items ~spawned ~elapsed per_worker =
  let s = !cell in
  let rec merge acc old fresh =
    match (old, fresh) with
    | [], [] -> List.rev acc
    | o :: old', [] -> merge (o :: acc) old' []
    | [], f :: fresh' -> merge (f :: acc) [] fresh'
    | o :: old', f :: fresh' ->
      merge
        ({ ws_claims = o.ws_claims + f.ws_claims;
           ws_items = o.ws_items + f.ws_items;
           ws_busy_s = o.ws_busy_s +. f.ws_busy_s }
         :: acc)
        old' fresh'
  in
  cell :=
    { s with
      st_maps = s.st_maps + 1;
      st_items = s.st_items + items;
      st_spawned = s.st_spawned + spawned;
      st_elapsed_s = s.st_elapsed_s +. elapsed;
      st_workers = merge [] s.st_workers per_worker }

(* The shared work queue is just an atomic cursor over the input array:
   a worker claims a run of consecutive indexes per fetch-and-add and
   writes each result into its own slot, so the output order is the
   input order no matter which domain finishes when.  Slots are
   published to the caller by [Domain.join]'s happens-before edge. *)
let pooled_map ~jobs cell f items =
  let input = Array.of_list items in
  let n = Array.length input in
  if n = 0 then []  (* nothing to claim — spawn no domains at all *)
  else begin
    (* clamp the worker count (this domain + spawned) to the item
       count: [jobs] beyond it would only spawn idle domains.
       [exec_name]/[width] keep reporting the requested width — the
       clamp is per-map, the executor is not. *)
    let nworkers = min jobs n in
    let results = Array.make n (Error Uninitialized) in
    let wstats = Array.make nworkers zero_ws in
    let cursor = Atomic.make 0 in
    let worker w =
      let claims = ref 0 and items_run = ref 0 and busy = ref 0.0 in
      let continue = ref true in
      while !continue do
        (* guided self-scheduling: claim a fraction of the work still
           unclaimed, so early claims are large (amortizing the atomic)
           and tail claims shrink toward 1 (balancing stragglers).  The
           pre-read is advisory — a stale value only mis-sizes this
           claim; the [fetch_and_add] below is the real allocation, so
           no index is ever handed out twice or skipped. *)
        let take = max 1 ((n - Atomic.get cursor) / (2 * nworkers)) in
        let lo = Atomic.fetch_and_add cursor take in
        if lo >= n then continue := false
        else begin
          let hi = min (lo + take) n - 1 in
          incr claims;
          let t0 = now () in
          for i = lo to hi do
            Array.unsafe_set results i (guarded f (Array.unsafe_get input i))
          done;
          busy := !busy +. (now () -. t0);
          items_run := !items_run + (hi - lo + 1)
        end
      done;
      wstats.(w) <-
        { ws_claims = !claims; ws_items = !items_run; ws_busy_s = !busy }
    in
    let t0 = now () in
    let pool =
      List.init (nworkers - 1)
        (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    List.iter Domain.join pool;
    note cell ~items:n ~spawned:(nworkers - 1) ~elapsed:(now () -. t0)
      (Array.to_list wstats);
    Array.to_list results
  end

(* at width 1 the calling domain claims every index and none is
   spawned: the sequential executor is the pool at width 1 *)
let of_jobs jobs =
  let jobs = max 1 jobs in
  let exec_name = if jobs = 1 then "sequential" else Printf.sprintf "domains(%d)" jobs in
  let cell = ref (zero_stats exec_name) in
  { exec_name;
    width = jobs;
    try_map = (fun f items -> pooled_map ~jobs cell f items);
    stats_cell = cell }

let map t f items =
  List.map (function Ok v -> v | Error e -> raise e) (t.try_map f items)
