(* Outside-in per-layer tracing.  Spans are recorded only here, around
   public library calls, kept in memory and written as JSONL at the end.

   Two sources feed them:
   - real-path spans: {!timing} wraps an executor's [try_map] and times
     every trial where it really runs (a pass -> executor.map -> trial
     tree).  A trial's [t_arm] hook may stash its sim and PFI layer in
     domain-local storage ({!stash_arm}); the wrapper reads the counts
     right after the trial returns, before that domain's next trial
     recycles the arena.
   - decomposed spans: {!decompose} rebuilds a trial from the HARNESS
     calls (build, install, workload, engine run, check) and times each
     step; its outcome must equal the real path's. *)

open Pfi_engine
open Pfi_testgen
module Pfi = Pfi_core.Pfi_layer

let now = Unix.gettimeofday
let origin = now ()

type counts = {
  events : int;
  entries : int;
  filter_calls : int;
  dropped : int;
  delayed : int;
  duplicated : int;
  injected : int;
}

let counts_of sim pfi =
  let s = Pfi.send_stats pfi and r = Pfi.receive_stats pfi in
  { events = Sim.events sim;
    entries = Trace.length (Sim.trace sim);
    filter_calls = Pfi.total_filtered pfi;
    dropped = s.dropped + r.dropped;
    delayed = s.delayed + r.delayed;
    duplicated = s.duplicated + r.duplicated;
    injected = s.injected + r.injected }

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 at the root *)
  pass : int;  (** the enclosing pass span *)
  trial : int;  (** trial index within its pass, -1 for non-trial spans *)
  domain : int;
  words : float;  (** minor words the span allocated on its domain *)
  counts : counts option;
}

let dur s = s.stop -. s.start

(* the span log and its cursor live on the calling domain only; worker
   domains hand their measurements back through per-index slots *)
let log = ref []
let ids = ref 0
let cur_parent = ref 0
let cur_pass = ref 0
let trial_no = ref 0

let reset () =
  log := [];
  cur_parent := 0;
  cur_pass := 0

let fresh () =
  incr ids;
  !ids

let record ?(parent = !cur_parent) ?(trial = -1) ?(domain = 0) ?(words = 0.) ?counts ~id name
    start stop =
  log :=
    { id; name; start; stop; parent; pass = !cur_pass; trial; domain; words; counts } :: !log

(* [f] as span [name]; spans recorded inside it become its children.  A
   [pass] scope also restarts trial numbering, so the same trial has the
   same index in a real-path pass and in its decomposition. *)
let scope ?(pass = false) ?trial name f =
  let id = fresh () and parent = !cur_parent and pass0 = !cur_pass in
  cur_parent := id;
  if pass then begin
    cur_pass := id;
    trial_no := 0
  end;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      record ~parent ?trial ~id name t0 (now ());
      cur_parent := parent;
      cur_pass := pass0)
    (fun () -> (id, f ()))

let spans_of_pass pass name =
  List.filter (fun s -> s.pass = pass && s.name = name) !log

(* ------------------------------------------------------------------ *)
(* Real path                                                          *)
(* ------------------------------------------------------------------ *)

let stash : (Sim.t * Pfi.t) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let stash_arm arm sim pfi =
  Domain.DLS.set stash (Some (sim, pfi));
  Option.iter (fun f -> f sim pfi) arm

let with_stash (p : Campaign.plan) =
  { p with
    p_trials = List.map (fun (t : Campaign.trial) -> { t with t_arm = Some (stash_arm t.t_arm) }) p.p_trials }

type slot = { s_start : float; s_stop : float; s_domain : int; s_words : float; s_counts : counts option }

(* [inner] with every item timed on the domain that runs it; [role]
   names the trial spans *)
let timing (inner : Executor.t) role =
  { inner with
    Executor.try_map =
      (fun f items ->
        let slots = Array.make (List.length items) None in
        let timed (i, x) =
          Domain.DLS.set stash None;
          let w0 = Gc.minor_words () and t0 = now () in
          Fun.protect
            ~finally:(fun () ->
              let t1 = now () and w1 = Gc.minor_words () in
              let counts =
                Option.map (fun (sim, pfi) -> counts_of sim pfi) (Domain.DLS.get stash)
              in
              Domain.DLS.set stash None;
              slots.(i) <-
                Some
                  { s_start = t0;
                    s_stop = t1;
                    s_domain = (Domain.self () :> int);
                    s_words = w1 -. w0;
                    s_counts = counts })
            (fun () -> f x)
        in
        let map_id = fresh () and t0 = now () in
        let results = inner.Executor.try_map timed (List.mapi (fun i x -> (i, x)) items) in
        let t1 = now () in
        Array.iter
          (Option.iter (fun s ->
               let trial = !trial_no in
               incr trial_no;
               record ~parent:map_id ~trial ~domain:s.s_domain ~words:s.s_words
                 ?counts:s.s_counts ~id:(fresh ()) role s.s_start s.s_stop))
          slots;
        record ~id:map_id "executor.map" t0 t1;
        results) }

(* ------------------------------------------------------------------ *)
(* Decomposition                                                      *)
(* ------------------------------------------------------------------ *)

let decomposed_steps = [ "harness.build"; "pfi.install"; "harness.workload"; "engine.run"; "harness.check" ]

let install pfi (side : Campaign.side) script =
  match side with
  | Send_filter -> Pfi.set_send_filter_compiled pfi script
  | Receive_filter -> Pfi.set_receive_filter_compiled pfi script
  | Both_filters ->
    Pfi.set_send_filter_compiled pfi script;
    Pfi.set_receive_filter_compiled pfi script

(* One trial rebuilt step by step from the HARNESS calls, mirroring
   [Campaign.run_trial]: the arena backs it unless its trace is kept
   ([capture]), and [inspect] sees the finished sim before the arena is
   reused. *)
let decompose ~capture ~horizon ~trial ?(inspect = fun _ -> ()) (module H : Harness_intf.HARNESS)
    (tr : Campaign.trial) =
  snd
    (scope ~trial "trial.decomposed" (fun () ->
         let step name f =
           let w0 = Gc.minor_words () and t0 = now () in
           let r = f () in
           record ~trial ~words:(Gc.minor_words () -. w0) ~id:(fresh ()) name t0 (now ());
           r
         in
         let scratch = if capture then None else Some (Arena.scratch ()) in
         let env = step "harness.build" (fun () -> H.build ?scratch ~seed:tr.t_seed ()) in
         let sim = H.sim env and pfi = H.pfi env in
         step "pfi.install" (fun () ->
             install pfi tr.t_side tr.t_script;
             Option.iter (fun arm -> arm sim pfi) tr.t_arm);
         step "harness.workload" (fun () -> H.workload env);
         step "engine.run" (fun () -> Sim.run ~until:horizon sim);
         let verdict, injected_events =
           step "harness.check" (fun () ->
               let trace = Sim.trace sim in
               let injected =
                 Trace.count ~tag:"testgen.fault" trace + Trace.count ~tag:"pfi.log" trace
               in
               match H.check env with
               | Error reason -> (Campaign.Violation reason, injected)
               | Ok () -> (
                 match Oracle.check [] trace with
                 | Ok () -> (Campaign.Tolerated, injected)
                 | Error reason -> (Campaign.Violation reason, injected)))
         in
         let counts = counts_of sim pfi in
         inspect sim;
         ((verdict, Sim.events sim, injected_events), counts)))

(* |median over trials of (decomposed step time / real-path trial
   time) - 1|: how far the decomposed spans are from covering the real
   trial.  A per-trial median, so host interference that slows a few
   trials on either side does not count as a gap. *)
let cover_gap ~real ~decomposed =
  let real_dur = Hashtbl.create 64 and steps = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace real_dur s.trial (dur s)) (spans_of_pass real "trial");
  List.iter
    (fun s ->
      if s.pass = decomposed && List.mem s.name decomposed_steps then
        Hashtbl.replace steps s.trial (dur s +. Option.value (Hashtbl.find_opt steps s.trial) ~default:0.))
    !log;
  let ratios =
    Hashtbl.fold
      (fun trial d acc ->
        match Hashtbl.find_opt real_dur trial with
        | Some r when r > 0. -> (d /. r) :: acc
        | _ -> acc)
      steps []
  in
  if ratios = [] then 0. else Float.abs (Stats.median ratios -. 1.)

let same_outcome (v, events, injected) (o : Campaign.outcome) =
  v = o.verdict && events = o.sim_events && injected = o.injected_events

(* the trial a fuzz input runs as: its faults' scripts concatenated on
   one side, a filter-clearing arm at the fault-window end, and the seed
   derived from the input's canonical key *)
let fuzz_trial ~seed (input : Fuzz.input) =
  let script =
    Pfi_script.Interp.compile
      (String.concat "\n" (List.map Generator.script_of_fault input.in_faults))
  in
  let arm =
    Option.map
      (fun at sim pfi ->
        ignore
          (Sim.schedule_at sim ~time:at (fun () ->
               Pfi.clear_send_filter pfi;
               Pfi.clear_receive_filter pfi)))
      input.in_clear
  in
  Campaign.trial ?arm ~script
    ~seed:(Campaign.trial_seed_of_key ~campaign_seed:seed ~side:input.in_side (Fuzz.input_key input))
    ~side:input.in_side (List.hd input.in_faults)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                   *)
(* ------------------------------------------------------------------ *)

(* The per-message script filter and the event-queue push+pop of
   bench/main.exe's Bechamel suite, measured the same way (OLS ns/run),
   so unit cost x traced count can be set against the measured span. *)
let bechamel_ns ~quota name fn =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let elt = List.hd (Test.elements (Test.make ~name (Staged.stage fn))) in
  let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
  match Analyze.OLS.estimates (Analyze.one ols Instance.monotonic_clock raw) with
  | Some [ ns ] -> ns
  | _ -> 0.

let filter_eval_ns ~quota =
  let interp = Pfi_script.Script.create () in
  Pfi_script.Interp.register interp "msg_type" (fun _ _ -> "ACK");
  Pfi_script.Interp.register interp "xDrop" (fun _ _ -> "");
  let compiled =
    Pfi_script.Interp.compile "set t [msg_type cur_msg]\nif {$t == \"ACK\"} { xDrop cur_msg }"
  in
  bechamel_ns ~quota "script filter eval" (fun () ->
      ignore (Pfi_script.Interp.eval_compiled interp compiled))

let queue_push_pop_ns ~quota =
  let q = Event_queue.create () in
  let i = ref 0 in
  bechamel_ns ~quota "event queue push+pop" (fun () ->
      incr i;
      ignore (Event_queue.push q ~time:(Vtime.us (!i land 0xffff)) ());
      ignore (Event_queue.pop q))

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let span_json s =
  let module J = Repro.Json in
  let us t = J.Float (Float.round ((t -. origin) *. 1e7) /. 10.) in
  J.Obj
    ([ ("id", J.Int s.id);
       ("name", J.Str s.name);
       ("start_us", us s.start);
       ("end_us", us s.stop);
       ("parent", J.Int s.parent);
       ("pass", J.Int s.pass);
       ("trial", J.Int s.trial);
       ("domain", J.Int s.domain);
       ("words", J.Float s.words) ]
    @
    match s.counts with
    | None -> []
    | Some c ->
      [ ("events", J.Int c.events);
        ("trace_entries", J.Int c.entries);
        ("filter_calls", J.Int c.filter_calls) ])

let write_jsonl file =
  let oc = open_out file in
  List.iter
    (fun s ->
      output_string oc (Repro.Json.to_line (span_json s));
      output_char oc '\n')
    (List.rev !log);
  close_out oc
