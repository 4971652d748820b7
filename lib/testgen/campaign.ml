open Pfi_engine

type side = Send_filter | Receive_filter | Both_filters

type verdict =
  | Tolerated
  | Violation of string

type outcome = {
  fault : Generator.fault;
  side : side;
  seed : int64;
  verdict : verdict;
  injected_events : int;
  sim_events : int;
}

type trial = {
  t_fault : Generator.fault;
  t_side : side;
  t_seed : int64;
  t_script : Pfi_script.Ast.script;
  t_arm : (Sim.t -> Pfi_core.Pfi_layer.t -> unit) option;
}

exception Control_failure of string

let side_name = function
  | Send_filter -> "send"
  | Receive_filter -> "receive"
  | Both_filters -> "both"

let side_of_name = function
  | "send" -> Some Send_filter
  | "receive" -> Some Receive_filter
  | "both" -> Some Both_filters
  | _ -> None

let default_seed = 31L
let all_sides = [ Send_filter; Receive_filter; Both_filters ]

let side_code = function
  | Send_filter -> 0x51L
  | Receive_filter -> 0x52L
  | Both_filters -> 0x53L

(* splitmix64's finalizer folds campaign seed, fault identity and side
   into one well-distributed per-trial seed *)
let trial_seed_of_key ~campaign_seed ~side key =
  Rng.mix (Int64.add (Rng.mix (Int64.add campaign_seed key)) (side_code side))

let trial_seed ~campaign_seed ~side fault =
  trial_seed_of_key ~campaign_seed ~side (Generator.fault_key fault)

type observer = {
  obs_traces : bool;
  obs_trace_out : Trace_out.t option;
}

let observe ?(traces = false) ?trace_out () =
  { obs_traces = traces; obs_trace_out = trace_out }

type plan = {
  p_harness : Harness_intf.packed;
  p_trials : trial list;
  p_horizon : Vtime.t;
  p_seed : int64;
  p_control : bool;
}

let trial ?arm ?script ~seed ~side fault =
  let script =
    match script with
    | Some s -> s
    | None -> Pfi_script.Interp.compile (Generator.script_of_fault fault)
  in
  { t_fault = fault; t_side = side; t_seed = seed; t_script = script;
    t_arm = arm }

let plan ?seed (module H : Harness_intf.HARNESS) =
  let seed = Option.value seed ~default:H.default_seed in
  let faults = Generator.campaign ~target:H.target H.spec in
  (* compile each fault's filter once per campaign: the AST is immutable
     and shared by every (side, executor-domain) trial that runs it,
     instead of being re-parsed from source text once per trial *)
  let compiled =
    List.map
      (fun fault ->
        (fault, Pfi_script.Interp.compile (Generator.script_of_fault fault)))
      faults
  in
  let trials =
    List.concat_map
      (fun side ->
        List.map
          (fun (fault, script) ->
            trial ~script ~seed:(trial_seed ~campaign_seed:seed ~side fault)
              ~side fault)
          compiled)
      all_sides
  in
  { p_harness = (module H : Harness_intf.HARNESS);
    p_trials = trials;
    p_horizon = H.default_horizon;
    p_seed = seed;
    p_control = true }

let plan_of_trials ?seed ~trials (module H : Harness_intf.HARNESS) =
  { p_harness = (module H : Harness_intf.HARNESS);
    p_trials = trials;
    p_horizon = H.default_horizon;
    p_seed = Option.value seed ~default:H.default_seed;
    p_control = false }

let install pfi (side, script) =
  match side with
  | Send_filter -> Pfi_core.Pfi_layer.set_send_filter_compiled pfi script
  | Receive_filter -> Pfi_core.Pfi_layer.set_receive_filter_compiled pfi script
  | Both_filters ->
    Pfi_core.Pfi_layer.set_send_filter_compiled pfi script;
    Pfi_core.Pfi_layer.set_receive_filter_compiled pfi script

let exec ?(capture_trace = false) ?arm (module H : Harness_intf.HARNESS)
    ~horizon ~seed ~filters feed =
  (* a captured trace escapes the trial, so it must store its entries;
     any other trial records into this domain's arena, which the next
     trial here clears, so its reader runs before this returns *)
  let scratch =
    if capture_trace then Sim.scratch ~stores:true () else Arena.scratch ()
  in
  let read = feed (Sim.scratch_trace scratch) in
  let env = H.build ~scratch ~seed () in
  let sim = H.sim env and pfi = H.pfi env in
  List.iter (install pfi) filters;
  Option.iter (fun arm -> arm sim pfi) arm;
  H.workload env;
  Sim.run ~until:horizon sim;
  let verdict =
    match H.check env with Error reason -> Violation reason | Ok () -> Tolerated
  in
  read verdict sim

let trial_outcome ~capture_trace ?trace_out h ~horizon tr =
  exec ~capture_trace ?arm:tr.t_arm h ~horizon ~seed:tr.t_seed
    ~filters:[ (tr.t_side, tr.t_script) ]
    (fun trace ->
      Trace_out.attach trace_out trace;
      fun verdict sim ->
        { fault = tr.t_fault; side = tr.t_side; seed = tr.t_seed; verdict;
          injected_events =
            Trace.count ~tag:"testgen.fault" trace + Trace.count ~tag:"pfi.log" trace;
          sim_events = Sim.events sim })

let run_trial ?trace_out h ~horizon tr =
  trial_outcome ~capture_trace:false ?trace_out h ~horizon tr

type summary = {
  s_outcomes : outcome list;
  s_exec : Executor.stats;
}

let run ?(executor = Executor.of_jobs 1) ?observe:(observer = observe ()) plan =
  let capture_trace = observer.obs_traces and horizon = plan.p_horizon in
  let labelled = Trace_out.label [ ("campaign", Harness_intf.name plan.p_harness) ] in
  (* the control is sim 0 and the plan's trial i is sim i + 1 *)
  if plan.p_control then
    exec ~capture_trace plan.p_harness ~horizon ~seed:plan.p_seed ~filters:[] (fun trace ->
        let sim0 out = labelled (Trace_out.label [ ("sim", "0") ] out) in
        Trace_out.attach (Option.map sim0 observer.obs_trace_out) trace;
        fun verdict _ ->
          match verdict with Tolerated -> () | Violation reason -> raise (Control_failure reason));
  let outcomes =
    Trace_out.map ~sim:1 observer.obs_trace_out executor
      (fun out ->
        trial_outcome ~capture_trace ?trace_out:(Option.map labelled out) plan.p_harness
          ~horizon)
      plan.p_trials
  in
  { s_outcomes = outcomes; s_exec = Executor.stats executor }

let table outcomes =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %-8s %-9s %s\n" "fault" "side" "events" "verdict");
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "%-44s %-8s %-9d %s\n"
           (Generator.describe o.fault)
           (side_name o.side) o.injected_events
           (match o.verdict with
            | Tolerated -> "tolerated"
            | Violation reason -> "VIOLATION: " ^ reason)))
    outcomes;
  let bad = List.length (List.filter (fun o -> o.verdict <> Tolerated) outcomes) in
  Buffer.add_string buf
    (Printf.sprintf "-- %d trials, %d violations\n" (List.length outcomes) bad);
  Buffer.contents buf

let violations = List.filter (fun o -> o.verdict <> Tolerated)
