type handle = Event_queue.handle

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Vtime.t;
  root_rng : Rng.t;
  trace : Trace.t;
  mutable stopping : bool;
  mutable events : int;  (* callbacks fired over the sim's lifetime *)
  mutable want_labels : bool;  (* a renderer wants msc.label decorations *)
}

exception Stop

(* Reusable backing storage for a simulation: the event heap and the
   trace keep their grown capacity (and the trace its per-pair records)
   across trials, so a trial arena rebuilds a sim without re-growing
   either.  [clear_scratch] empties both, which restores the exact
   observable state of freshly-created ones — see Event_queue.clear and
   Trace.clear for the equivalence arguments.  [create] adopts a
   scratch as it is, so feeds attached to its trace beforehand see
   every entry the new sim records. *)
type scratch = {
  sc_queue : (unit -> unit) Event_queue.t;
  sc_trace : Trace.t;
}

let scratch ?(stores = false) () =
  { sc_queue = Event_queue.create ();
    sc_trace = (if stores then Trace.create () else Trace.create_counting ()) }

let scratch_trace sc = sc.sc_trace

let clear_scratch sc =
  Event_queue.clear sc.sc_queue;
  Trace.clear sc.sc_trace

let create ?(scratch = scratch ~stores:true ()) ?(seed = 1L) () =
  { queue = scratch.sc_queue;
    clock = Vtime.zero;
    root_rng = Rng.create ~seed;
    trace = scratch.sc_trace;
    stopping = false;
    events = 0;
    want_labels = false }

let now t = t.clock
let rng t = t.root_rng
let trace t = t.trace
let events t = t.events

let record ?fields t ~node ~tag detail =
  Trace.record ?fields t.trace ~time:t.clock ~node ~tag detail

let record_with ?fields t ~node ~tag render x =
  Trace.record_with ?fields t.trace ~time:t.clock ~node ~tag render x

let set_want_labels t flag = t.want_labels <- flag
let want_labels t = t.want_labels

let schedule_at t ~time callback =
  let time = Vtime.max time t.clock in
  Event_queue.push t.queue ~time callback

let schedule t ~delay callback =
  let delay = Vtime.max delay Vtime.zero in
  schedule_at t ~time:(Vtime.add t.clock delay) callback

let cancel t handle = Event_queue.cancel t.queue handle

let null_handle = Event_queue.null_handle

let stop t = t.stopping <- true

(* a runaway backstop: a run that fires this many callbacks fails *)
let max_events = 10_000_000

let run ?(until = Vtime.infinity) t =
  t.stopping <- false;
  (* one continuation for the whole run: the callback form of pop saves
     the [Some (time, callback)] box on every fired event *)
  let fire time callback =
    t.clock <- time;
    t.events <- t.events + 1;
    callback ()
  in
  let fired = ref 0 and running = ref true in
  while !running do
    if !fired >= max_events then
      failwith "Sim.run: max_events exceeded (runaway simulation?)"
    else if t.stopping then running := false
    else if Event_queue.pop_until_k t.queue ~until fire then incr fired
    else begin
      (* either drained, or future events remain beyond the horizon;
         in the latter case the clock parks at the horizon *)
      if not (Event_queue.is_empty t.queue) then t.clock <- until;
      running := false
    end
  done
