(* The repo benchmark driver.

   Usage:
     pfi_perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--root DIR]
     pfi_perf.exe --smoke [--root DIR]
     pfi_perf.exe --list

   One workload per process.  The untraced run (--trace 0) warms up,
   then takes jobs=1 samples of whole passes for about S seconds, timing
   a batch of the workload's set-up before each, and reports the
   end-to-end metrics as medians.  The traced run (--trace 1) records
   spans around the library calls, samples jobs=2 throughput, and
   reports the per-layer metrics.  Every pass's verdict digest and correctness checks are
   verified; the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}, and the exit code is 1
   when a check failed.  --smoke runs one short pass of every workload
   in both modes and checks every metric BENCHMARK.json names appears
   with its unit. *)

open Pfi_testgen
module J = Repro.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Passes and their bookkeeping                                       *)
(* ------------------------------------------------------------------ *)

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable passes : int;
  mutable widths : int list;  (** executor widths the passes ran at *)
  mutable digests : string list;  (** distinct, first seen first *)
  mutable checks : (string * bool) list;  (** a label fails if it failed once *)
}

let ledger () = { attempted = 0; failed = 0; passes = 0; widths = []; digests = []; checks = [] }

let add_check l (label, ok) =
  if List.mem_assoc label l.checks then
    l.checks <- List.map (fun (k, v) -> (k, if k = label then v && ok else v)) l.checks
  else l.checks <- l.checks @ [ (label, ok) ]

let correct l =
  l.failed = 0 && List.length l.digests = 1 && List.for_all snd l.checks

type options = { smoke : bool; seconds : float }

let j2 = 2

(* one pass at [jobs]; [wrap role ex] may decorate each map site's
   executor (the traced run times trials through it) *)
let pass ?(wrap = fun _ ex -> ex) l ~jobs inputs =
  let p = Workload.run_pass (fun role -> wrap role (Executor.of_jobs jobs)) inputs in
  l.attempted <- l.attempted + p.trials;
  l.failed <- l.failed + p.failed;
  l.passes <- l.passes + 1;
  if not (List.mem jobs l.widths) then l.widths <- l.widths @ [ jobs ];
  if not (List.mem p.digest l.digests) then l.digests <- l.digests @ [ p.digest ];
  List.iter (add_check l) p.checks;
  p

type sample = {
  rate : float;  (** trials/s *)
  trials : int;
  words : float list;  (** minor words per trial of each pass, calling domain *)
  gc : float * float * float;  (** minor and major collections, promoted words *)
}

(* Passes ([run ()]) until [min_s] elapsed.  A full major collection
   first, so every sample starts from the same heap state: the gmp
   campaign's heap grows past 200 MB, and a sample that inherits a
   collection owed by the last one runs up to 20% slower. *)
let sample ~min_s run =
  Gc.full_major ();
  let g0 = Gc.quick_stat () and t0 = now () in
  let rec go trials words =
    let w0 = Gc.minor_words () in
    let p : Workload.pass = run () in
    let words = ((Gc.minor_words () -. w0) /. float_of_int (max 1 p.trials)) :: words in
    let trials = trials + p.trials in
    let dt = now () -. t0 in
    if dt < min_s then go trials words
    else
      let g1 = Gc.quick_stat () in
      { rate = float_of_int trials /. dt;
        trials;
        words;
        gc =
          ( float_of_int (g1.minor_collections - g0.minor_collections),
            float_of_int (g1.major_collections - g0.major_collections),
            g1.promoted_words -. g0.promoted_words ) }
  in
  go 0 []

(* passes at [jobs] for at least one pass and up to 1 s; none in a
   smoke run *)
let warm_up l o ~jobs inputs =
  let t0 = now () in
  let rec go () =
    ignore (pass l ~jobs inputs);
    if now () -. t0 < Float.min 1. (o.seconds /. 20.) then go ()
  in
  if not o.smoke then go ()

(* a sample lasts at least 1 s, about 10 per width in a 20 s run; a
   smoke sample is one pass *)
let sample_s o = if o.smoke then 0. else Float.max 1. (o.seconds /. 20.)

(* [f] repeated until [seconds] elapsed and it ran [min_k] times;
   results in run order *)
let repeat ~min_k ~seconds f =
  let t0 = now () in
  let rec go k acc =
    if k >= min_k && now () -. t0 >= seconds then List.rev acc else go (k + 1) (f () :: acc)
  in
  go 0 []

(* [a] then [b], repeated *)
let alternate ~min_k ~seconds a b =
  List.split
    (repeat ~min_k ~seconds (fun () ->
         let x = a () in
         (x, b ())))

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

(* A timer for the workload's set-up [f]: each call runs one batch of
   set-ups, sized on the first call to last at least 40 ms, and returns
   the time per set-up.  The run takes one batch before each jobs=1
   sample rather than all at the start: batches run back to back all
   land in one state of the host, whose speed for allocation-heavy code
   shifts by up to 1.7x for seconds at a time. *)
let setup_timer o f =
  let min_batch = if o.smoke then 0.001 else 0.04 in
  let timed n =
    let t0 = now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    now () -. t0
  in
  let rec size n = if timed n >= min_batch then n else size (2 * n) in
  let n = lazy (size 1) in
  fun () ->
    let n = Lazy.force n in
    timed n /. float_of_int n

(* ------------------------------------------------------------------ *)
(* End to end                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* [f] repeated for [seconds] (at least [min_k] times) after a warm-up
   at [jobs]; one pass of each in a smoke run *)
let block l o ~jobs ~min_k ~seconds inputs f =
  warm_up l o ~jobs inputs;
  repeat ~min_k:(if o.smoke then 1 else min_k) ~seconds:(if o.smoke then 0. else seconds) f

(* jobs=1 only: the jobs=2 throughput is sampled by the traced run.  On
   the shared host this was built on its run-to-run spread reached 0.27,
   past any bound a gate can hold, and a jobs=2 sample also leaves the
   runtime slower for the jobs=1 sample after it (by up to 35% on
   conformance). *)
let end_to_end l o ~setup inputs =
  let min_s = sample_s o in
  let j1, setup =
    List.split
      (block l o ~jobs:1 ~min_k:5 ~seconds:o.seconds inputs (fun () ->
           let s = setup () in
           (sample ~min_s (fun () -> pass l ~jobs:1 inputs), s)))
  in
  let tps = List.map (fun s -> s.rate) j1 and words = List.concat_map (fun s -> s.words) j1 in
  let exact = List.for_all (fun w -> w = List.hd words) words in
  Printf.printf "trials_per_s           %s\n    samples: %s\n" (Stats.summary tps)
    (Stats.samples tps);
  Printf.printf "setup_s                %s\n" (Stats.summary setup);
  Printf.printf "alloc_words_per_trial  %s  (%s across warm jobs=1 passes)\n"
    (Stats.summary words)
    (if exact then "exact" else "NOT identical");
  [ m "trials_per_s" "trials/s" (Stats.median tps);
    m "setup_s" "s" (Stats.median setup);
    m "alloc_words_per_trial" "words" (Stats.median words);
    m "max_rss_mb" "MB" (Host.max_rss_mb ()) ]

(* ------------------------------------------------------------------ *)
(* Per layer                                                          *)
(* ------------------------------------------------------------------ *)

let trial_roles = [ "trial"; "conformance.row"; "scenario.run" ]

let with_stash = function
  | Workload.Campaigns plans -> Workload.Campaigns (List.map (fun (p, e) -> (Layers.with_stash p, e)) plans)
  | inputs -> inputs

let timed_us f =
  let t0 = now () in
  let r = f () in
  ((now () -. t0) *. 1e6, r)

(* every filter script the workload compiles *)
let scripts inputs (fuzz : Fuzz.result option) =
  match inputs with
  | Workload.Campaigns plans ->
    List.concat_map
      (fun ((p : Campaign.plan), _) ->
        List.sort_uniq compare
          (List.map (fun (t : Campaign.trial) -> Generator.script_of_fault t.t_fault) p.p_trials))
      plans
  | Workload.Fuzzing { harness; _ } ->
    let corpus = match fuzz with Some r -> r.Fuzz.r_corpus | None -> [] in
    List.map
      (fun (i : Fuzz.input) -> String.concat "\n" (List.map Generator.script_of_fault i.in_faults))
      (Fuzz.seed_corpus ~spec:(Harness_intf.spec harness) @ corpus)
  | Workload.Suite { scenarios; _ } ->
    List.concat_map
      (fun (e : Matrix.entry) ->
        List.map (fun (_, f) -> Generator.script_of_fault f) e.e_scenario.sc_faults)
      scenarios

type decomposition = {
  d_pass : int;  (** the decomposition's pass span *)
  d_real : int;  (** the real-path pass whose trials it rebuilt *)
  d_counts : Layers.counts list;
  d_features : int list;  (** coverage features per trace (fuzz only) *)
}

(* Rebuilds the trials of a real-path pass from the HARNESS calls and
   checks each outcome against the real one: the last traced campaign
   pass, or for fuzzing (whose trials are internal to the fuzzer) the
   final corpus, replayed once through Campaign.run and once
   decomposed. *)
let decomposition l inputs (p : Workload.pass) ~real_pass =
  let compare_all results outcomes =
    let same = List.map2 Layers.same_outcome results outcomes in
    add_check l ("decomposed trials reproduce Campaign.run outcomes", List.for_all Fun.id same)
  in
  Gc.full_major ();
  match (inputs, p.output) with
  | Workload.Campaigns plans, Workload.Outcomes outcomes ->
    let trials =
      List.concat_map
        (fun ((plan : Campaign.plan), _) -> List.map (fun tr -> (plan, tr)) plan.p_trials)
        plans
    in
    let id, decomposed =
      Layers.scope ~pass:true "decomposed" (fun () ->
          List.mapi
            (fun i ((plan : Campaign.plan), tr) ->
              Layers.decompose ~capture:false ~horizon:plan.p_horizon ~trial:i plan.p_harness tr)
            trials)
    in
    compare_all (List.map fst decomposed) outcomes;
    Some { d_pass = id; d_real = real_pass; d_counts = List.map snd decomposed; d_features = [] }
  | Workload.Fuzzing { harness; seed; _ }, Workload.Fuzz_result r ->
    let trials = List.map (Layers.fuzz_trial ~seed) r.Fuzz.r_corpus in
    let replay, summary =
      Layers.scope ~pass:true "fuzz.corpus_replay" (fun () ->
          Campaign.run
            ~executor:(Layers.timing (Executor.of_jobs 1) "trial")
            ~observe:(Campaign.observe ~traces:true ())
            (Layers.with_stash (Campaign.plan_of_trials ~seed ~trials harness)))
    in
    l.attempted <- l.attempted + List.length trials;
    let scratch = Coverage.scratch () and features = ref [] in
    let inspect sim =
      let trace = Pfi_engine.Sim.trace sim in
      let t0 = now () in
      let f =
        Coverage.features_of_trace ~scratch ~states:(Harness_intf.state_of_trace harness trace) trace
      in
      Layers.record ~id:(Layers.fresh ()) "coverage.extract" t0 (now ());
      features := Coverage.cardinality f :: !features
    in
    Gc.full_major ();
    let id, decomposed =
      Layers.scope ~pass:true "decomposed" (fun () ->
          List.mapi
            (fun i tr ->
              Layers.decompose ~capture:true ~horizon:(Harness_intf.default_horizon harness) ~trial:i
                ~inspect harness tr)
            trials)
    in
    compare_all (List.map fst decomposed) summary.Campaign.s_outcomes;
    Some
      { d_pass = id; d_real = replay; d_counts = List.map snd decomposed; d_features = List.rev !features }
  | _ -> None

let sumf f = List.fold_left (fun a x -> a +. f x) 0.

(* idle fraction, claims and domains spawned, over the executors a
   jobs=2 pass used *)
let scheduling (executors : Executor.t list) =
  let stats = List.map Executor.stats executors in
  let workers (s : Executor.stats) = s.st_workers in
  let busy = sumf (fun s -> sumf (fun (w : Executor.worker_stat) -> w.ws_busy_s) (workers s)) stats in
  let capacity =
    sumf (fun (s : Executor.stats) -> s.st_elapsed_s *. float_of_int (List.length s.st_workers)) stats
  in
  ( 1. -. Stats.ratio busy capacity,
    sumf (fun s -> sumf (fun (w : Executor.worker_stat) -> float_of_int w.ws_claims) (workers s)) stats,
    sumf (fun (s : Executor.stats) -> float_of_int s.st_spawned) stats )

(* the set-up layers, timed directly: campaign planning, matrix
   expansion, and compiling every filter script the workload runs *)
let setup_layers inputs fuzz =
  let plan_us =
    match inputs with
    | Workload.Campaigns plans ->
      fst
        (timed_us (fun () ->
             List.iter
               (fun ((p : Campaign.plan), _) -> ignore (Campaign.plan ~seed:p.p_seed p.p_harness))
               plans))
    | _ -> 0.
  in
  let expand_us =
    match inputs with
    | Workload.Suite { matrix; _ } -> fst (timed_us (fun () -> Matrix.expand matrix))
    | _ -> 0.
  in
  let sources = scripts inputs fuzz in
  let compile_us, () =
    timed_us (fun () -> List.iter (fun s -> ignore (Pfi_script.Interp.compile s)) sources)
  in
  (plan_us, expand_us, Stats.ratio compile_us (float_of_int (List.length sources)))

let per_layer l o inputs =
  Layers.reset ();
  (* micro-benchmarks first, on the small heap of a fresh process *)
  let quota = if o.smoke then 0.01 else 0.3 in
  let filter_ns = Layers.filter_eval_ns ~quota and queue_ns = Layers.queue_push_pop_ns ~quota in
  warm_up l o ~jobs:1 inputs;
  let traced_inputs = with_stash inputs in
  let min_s = sample_s o in
  let traced_passes = ref [] in
  let traced_pass () =
    let id, p =
      Layers.scope ~pass:true "pass" (fun () ->
          pass ~wrap:(fun role ex -> Layers.timing ex role) l ~jobs:1 traced_inputs)
    in
    traced_passes := (id, p) :: !traced_passes;
    p
  in
  (* untraced and traced jobs=1 samples alternate, so host drift hits
     both sides of the overhead ratio alike *)
  let untraced, traced =
    alternate ~min_k:(if o.smoke then 1 else 2) ~seconds:(if o.smoke then 0. else o.seconds /. 2.)
      (fun () -> (sample ~min_s (fun () -> pass l ~jobs:1 inputs)).rate)
      (fun () -> sample ~min_s traced_pass)
  in
  let real_pass, last = List.hd !traced_passes in
  let d = decomposition l inputs last ~real_pass in
  (* jobs=2 last, since it slows the jobs=1 work after it: untraced
     samples for the throughput, then one traced pass for the executor's
     scheduling counters *)
  let j2s =
    block l o ~jobs:j2 ~min_k:3 ~seconds:(o.seconds /. 4.) inputs (fun () ->
        (sample ~min_s (fun () -> pass l ~jobs:j2 inputs)).rate)
  in
  Printf.printf "trials_per_s_j2: %s%s\n    samples: %s\n" (Stats.summary j2s)
    (if Host.nproc () < j2 then "  OVERSUBSCRIBED (nproc < 2)" else "")
    (Stats.samples j2s);
  let executors = ref [] in
  ignore
    (Layers.scope ~pass:true "pass.j2" (fun () ->
         pass
           ~wrap:(fun role ex ->
             executors := ex :: !executors;
             Layers.timing ex role)
           l ~jobs:j2 traced_inputs));
  let fuzz = match last.output with Workload.Fuzz_result r -> Some r | _ -> None in
  let plan_us, expand_us, compile_us = setup_layers inputs fuzz in
  (* --- derive ----------------------------------------------------- *)
  let traced_ids = List.map fst !traced_passes in
  let trial_spans =
    List.filter
      (fun (s : Layers.span) -> List.mem s.pass traced_ids && List.mem s.name trial_roles)
      !Layers.log
  in
  let durs = List.map Layers.dur trial_spans in
  let role_us name =
    1e6 *. Stats.mean (List.map Layers.dur (List.filter (fun (s : Layers.span) -> s.name = name) trial_spans))
  in
  let per_traced f =
    sumf f traced /. float_of_int (max 1 (List.fold_left (fun n s -> n + s.trials) 0 traced))
  in
  let idle, claims, spawned = scheduling !executors in
  let counts = match d with Some d -> d.d_counts | None -> [] in
  let step name =
    match d with
    | Some d -> Layers.spans_of_pass d.d_pass name
    | None -> []
  in
  let step_us name = 1e6 *. Stats.mean (List.map Layers.dur (step name)) in
  let step_words name = Stats.mean (List.map (fun (s : Layers.span) -> s.words) (step name)) in
  let csum f = float_of_int (List.fold_left (fun a (c : Layers.counts) -> a + f c) 0 counts) in
  let cmean f = Stats.ratio (csum f) (float_of_int (List.length counts)) in
  let events = csum (fun c -> c.events) and filter_calls = csum (fun c -> c.filter_calls) in
  let run_s = sumf Layers.dur (step "engine.run") in
  let run_words = sumf (fun (s : Layers.span) -> s.words) (step "engine.run") in
  let filter_share = Stats.ratio (filter_ns *. 1e-9 *. filter_calls) run_s in
  let queue_share = Stats.ratio (queue_ns *. 1e-9 *. events) run_s in
  let cover = match d with Some d -> Layers.cover_gap ~real:d.d_real ~decomposed:d.d_pass | None -> 0. in
  (* the Bechamel micros x traced counts, set against the measured span *)
  if counts <> [] then begin
    let per_trial x = Stats.ratio x (float_of_int (List.length counts)) in
    let line what ns count =
      let est = ns *. count *. 1e-3 and run_us = per_trial run_s *. 1e6 in
      Printf.printf
        "reconcile: %-20s %8.1f ns x %10.1f/trial = %10.1f us vs engine.run %10.1f us (%5.1f%%)%s\n"
        what ns count est run_us (100. *. Stats.ratio est run_us)
        (if est > run_us then "  ESTIMATE EXCEEDS SPAN" else "")
    in
    line "script filter eval" filter_ns (per_trial filter_calls);
    line "event queue push+pop" queue_ns (per_trial events);
    Printf.printf "decomposed spans cover the real-path trial time to within %.1f%% (median per trial)%s\n"
      (100. *. cover)
      (if cover > 0.10 then "  OUTSIDE 10%" else "")
  end;
  let traced_rates = List.map (fun s -> s.rate) traced in
  let overhead = 1. -. Stats.ratio (Stats.median traced_rates) (Stats.median untraced) in
  Printf.printf "trace overhead: untraced %s | traced %s\n" (Stats.summary untraced)
    (Stats.summary traced_rates);
  let fuzz_execs, fuzz_shrink, fuzz_corpus =
    match fuzz with
    | Some r ->
      ( float_of_int r.Fuzz.r_execs,
        float_of_int r.Fuzz.r_shrink_execs,
        float_of_int (List.length r.Fuzz.r_corpus) )
    | None -> (0., 0., 0.)
  in
  let features = match d with Some d -> List.map float_of_int d.d_features | None -> [] in
  [ m "trials_per_s_j2" "trials/s" (Stats.median j2s);
    m "executor.idle_frac" "frac" idle;
    m "executor.claims" "count" claims;
    m "executor.spawned" "count" spawned;
    m "trial.p50_ms" "ms" (1e3 *. Stats.quantile 0.5 durs);
    m "trial.p95_ms" "ms" (1e3 *. Stats.quantile 0.95 durs);
    m "trial.samples" "count" (float_of_int (List.length durs));
    m "campaign.plan_us" "us" plan_us;
    m "harness.build_us" "us" (step_us "harness.build");
    m "harness.build_words" "words" (step_words "harness.build");
    m "harness.check_us" "us" (step_us "harness.check");
    m "engine.run_us" "us" (step_us "engine.run");
    m "engine.events" "count" (cmean (fun c -> c.events));
    m "engine.ns_per_event" "ns" (1e9 *. Stats.ratio run_s events);
    m "engine.words_per_event" "words" (Stats.ratio run_words events);
    m "trace.entries" "count" (cmean (fun c -> c.entries));
    m "trace.entries_per_event" "ratio" (Stats.ratio (csum (fun c -> c.entries)) events);
    m "pfi.filter_calls" "count" (cmean (fun c -> c.filter_calls));
    m "pfi.filter_calls_per_event" "ratio" (Stats.ratio filter_calls events);
    m "pfi.dropped" "count" (cmean (fun c -> c.dropped));
    m "pfi.delayed" "count" (cmean (fun c -> c.delayed));
    m "pfi.duplicated" "count" (cmean (fun c -> c.duplicated));
    m "pfi.injected" "count" (cmean (fun c -> c.injected));
    m "script.compile_us" "us" compile_us;
    m "script.filter_eval_ns" "ns" filter_ns;
    m "script.est_share" "frac" filter_share;
    m "queue.push_pop_ns" "ns" queue_ns;
    m "queue.est_share" "frac" queue_share;
    m "coverage.extract_us" "us" (step_us "coverage.extract");
    m "coverage.features" "count" (Stats.mean features);
    m "fuzz.useful_frac" "frac" (Stats.ratio fuzz_corpus fuzz_execs);
    m "fuzz.shrink_frac" "frac" (Stats.ratio fuzz_shrink (fuzz_execs +. fuzz_shrink));
    m "conformance.row_us" "us" (role_us "conformance.row");
    m "scenario.run_us" "us" (role_us "scenario.run");
    m "matrix.expand_us" "us" expand_us;
    m "gc.minor_collections" "count" (per_traced (fun { gc = n, _, _; _ } -> n));
    m "gc.major_collections" "count" (per_traced (fun { gc = _, n, _; _ } -> n));
    m "gc.promoted_words" "words" (per_traced (fun { gc = _, _, w; _ } -> w));
    m "trace.overhead_frac" "frac" overhead;
    m "trace.cover_gap" "frac" cover ]

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)
(* ------------------------------------------------------------------ *)

let result_json l metrics =
  J.Obj
    [ ("correct", J.Bool (correct l));
      ("attempted", J.Int l.attempted);
      ("failed", J.Int l.failed);
      ( "metrics",
        J.Obj
          (List.map (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit) ])) metrics) ) ]

(* one workload in one mode; prints the report and returns the result
   object that ends it *)
let run_workload o ~root ~seed ~trace ~trace_file (w : Workload.t) =
  Printf.printf "== %s: seed %s, %g s, %s ==\n" w.name
    (match seed with Some s -> Int64.to_string s | None -> "stock")
    o.seconds
    (if trace then "traced (per-layer)" else "untraced (end-to-end)");
  Printf.printf "host: %s\n%!"
    (String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ v) (Host.facts ())));
  let l = ledger () in
  let inputs = w.setup ~smoke:o.smoke ~root seed in
  let setup = setup_timer o (fun () -> w.setup ~smoke:o.smoke ~root seed) in
  let metrics =
    if trace then per_layer l o inputs else end_to_end l o ~setup inputs
  in
  List.iter (add_check l) (w.known_answers ~smoke:o.smoke seed);
  if trace then
    Option.iter
      (fun file ->
        Layers.write_jsonl file;
        Printf.printf "spans: %d written to %s\n" (List.length !Layers.log) file)
      trace_file;
  Printf.printf "digest: %s (%d passes at jobs %s, %s)\n" (String.concat " | " l.digests) l.passes
    (String.concat " and " (List.map string_of_int l.widths))
    (if List.length l.digests = 1 then "identical" else "DIVERGED");
  List.iter (fun (label, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok  " else "FAIL") label) l.checks;
  Printf.printf "trials attempted %d, failed %d\n" l.attempted l.failed;
  List.iter (fun x -> Printf.printf "  %-28s %.6g %s\n" x.name x.value x.unit) metrics;
  result_json l metrics

(* every metric BENCHMARK.json names must appear, with its unit, in the
   mode's result object of every workload *)
let smoke ~root =
  let o = { smoke = true; seconds = 0. } in
  let declared key =
    let text = In_channel.with_open_bin (Filename.concat root "BENCHMARK.json") In_channel.input_all in
    match J.parse text with
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
    | Ok j -> (
      match J.member key j with
      | Some (J.List ms) ->
        List.filter_map
          (fun x -> match (J.member "name" x, J.member "unit" x) with
            | Some (J.Str n), Some (J.Str u) -> Some (n, u)
            | _ -> None)
          ms
      | _ -> failwith ("BENCHMARK.json: no " ^ key))
  in
  let problems = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (trace, key) ->
          let res = run_workload o ~root ~seed:None ~trace ~trace_file:None w in
          print_endline (J.to_line res);
          if J.member "correct" res <> Some (J.Bool true) then
            problems := Printf.sprintf "%s: a correctness check failed" w.name :: !problems;
          let metrics = Option.value (J.member "metrics" res) ~default:(J.Obj []) in
          List.iter
            (fun (name, unit) ->
              match Option.bind (J.member name metrics) (J.member "unit") with
              | Some (J.Str u) when u = unit -> ()
              | _ -> problems := Printf.sprintf "%s: %s [%s] missing" w.name name unit :: !problems)
            (declared key))
        [ (false, "end_to_end"); (true, "per_layer") ])
    Workload.all;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

let () =
  let workload = ref "" and seed = ref None and seconds = ref 20. and trace = ref false in
  let root = ref "." and smoke_mode = ref false and list = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.String (fun s -> seed := Some (Int64.of_string s)), "N  campaign/matrix seed");
      ("--seconds", Arg.Set_float seconds, "S  sampling time (default 20)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"), "  per-layer traced run");
      ("--root", Arg.Set_string root, "DIR  repository checkout (default .)");
      ("--smoke", Arg.Set smoke_mode, " one short pass of every workload, both modes");
      ("--list", Arg.Set list, " print the workload names") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "pfi_perf.exe [options]";
  if !list then List.iter (fun (w : Workload.t) -> print_endline w.name) Workload.all
  else if !smoke_mode then smoke ~root:!root
  else
    match Workload.find !workload with
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
      exit 2
    | Some w ->
      let trace = !trace in
      let trace_file =
        if not trace then None
        else begin
          let dir = Filename.concat !root ".bench_out" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Some
            (Filename.concat dir
               (Printf.sprintf "trace-%s-%s.jsonl" w.name
                  (match !seed with Some s -> Int64.to_string s | None -> "stock")))
        end
      in
      let o = { smoke = false; seconds = !seconds } in
      let res = run_workload o ~root:!root ~seed:!seed ~trace ~trace_file w in
      print_endline (J.to_line res);
      if J.member "correct" res <> Some (J.Bool true) then exit 1
