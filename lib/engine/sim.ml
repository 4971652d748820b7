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

(* Observability plumbing for front ends (e.g. `pfi_run --trace-out`):
   experiment generators build their simulations internally, so a CLI
   that wants every trace registers a hook here before running them.
   The cell is atomic so a concurrently running domain reads a
   well-defined value, but the hook itself runs on whichever domain
   calls [create] — installing a hook that mutates shared state is only
   sound while all sims are created on one domain (see the .mli).
   Parallel campaign execution (Pfi_testgen.Executor.domains) does not
   use this hook: trial traces are captured per-Sim instead. *)
let creation_hook : (t -> unit) option Atomic.t = Atomic.make None

let set_create_hook hook = Atomic.set creation_hook hook

(* Process-wide fallback seed for [create ?seed:None], settable by front
   ends so a CLI `--seed` reaches simulations that experiment generators
   build internally.  Same single-domain caveat as the creation hook. *)
let default_seed : int64 Atomic.t = Atomic.make 1L

let set_default_seed seed = Atomic.set default_seed seed

(* Reusable backing storage for a simulation: the event heap and the
   trace keep their grown capacity (and the trace its intern table)
   across trials, so a trial arena rebuilds a sim without re-growing
   either.  [create ?scratch] clears both, which restores the exact
   observable state of freshly-created ones — see Event_queue.clear and
   Trace.clear for the equivalence arguments.  The trace is a counting
   one: a trial recycles a scratch only when nothing reads its entries
   back after the run. *)
type scratch = {
  sc_queue : (unit -> unit) Event_queue.t;
  sc_trace : Trace.t;
}

let scratch () =
  { sc_queue = Event_queue.create (); sc_trace = Trace.create_counting () }

let create ?scratch ?seed () =
  let seed =
    match seed with Some s -> s | None -> Atomic.get default_seed
  in
  let queue, trace =
    match scratch with
    | None -> (Event_queue.create (), Trace.create ())
    | Some sc ->
      Event_queue.clear sc.sc_queue;
      Trace.clear sc.sc_trace;
      (sc.sc_queue, sc.sc_trace)
  in
  let t =
    { queue;
      clock = Vtime.zero;
      root_rng = Rng.create ~seed;
      trace;
      stopping = false;
      events = 0;
      want_labels = false }
  in
  (match Atomic.get creation_hook with Some f -> f t | None -> ());
  t

let now t = t.clock
let rng t = t.root_rng
let trace t = t.trace
let events t = t.events

let record ?fields t ~node ~tag detail =
  Trace.record ?fields t.trace ~time:t.clock ~node ~tag detail

let record_lazy ?fields t ~node ~tag detail =
  Trace.record_lazy ?fields t.trace ~time:t.clock ~node ~tag detail

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

let run ?(until = Vtime.infinity) ?(max_events = 10_000_000) t =
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
