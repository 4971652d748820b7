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
  trace : Trace.t option;
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

type observer = { obs_traces : bool }

let observe ?(traces = false) () = { obs_traces = traces }

let silent = observe ()

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

let plan ?(sides = all_sides) ?seed ?horizon (module H : Harness_intf.HARNESS) =
  let seed = Option.value seed ~default:H.default_seed in
  let horizon = Option.value horizon ~default:H.default_horizon in
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
            { t_fault = fault;
              t_side = side;
              t_seed = trial_seed ~campaign_seed:seed ~side fault;
              t_script = script;
              t_arm = None })
          compiled)
      sides
  in
  { p_harness = (module H : Harness_intf.HARNESS);
    p_trials = trials;
    p_horizon = horizon;
    p_seed = seed;
    p_control = true }

let plan_of_trials ?seed ?horizon ~trials (module H : Harness_intf.HARNESS) =
  { p_harness = (module H : Harness_intf.HARNESS);
    p_trials = trials;
    p_horizon = Option.value horizon ~default:H.default_horizon;
    p_seed = Option.value seed ~default:H.default_seed;
    p_control = false }

let run_trial (module H : Harness_intf.HARNESS) ~side ~horizon ~seed
    ?(capture_trace = false) ?script ?compiled ?arm fault =
  (* the arena's trace/queue are recycled by the *next* trial on this
     domain, so they may back this trial only if its trace does not
     escape into the outcome; its trace only counts, and the harness's
     trace-derived checks run as monitors attached at build *)
  let scratch = if capture_trace then None else Some (Arena.scratch ()) in
  let env = H.build ?scratch ~seed () in
  let pfi = H.pfi env in
  (* precedence: explicit source bytes (replay installs the recorded
     script even if generator templates changed) > an already-compiled
     campaign script > compiling the generated source here *)
  let compiled =
    match (script, compiled) with
    | Some src, _ -> Pfi_script.Interp.compile src
    | None, Some c -> c
    | None, None -> Pfi_script.Interp.compile (Generator.script_of_fault fault)
  in
  (match side with
   | Send_filter -> Pfi_core.Pfi_layer.set_send_filter_compiled pfi compiled
   | Receive_filter -> Pfi_core.Pfi_layer.set_receive_filter_compiled pfi compiled
   | Both_filters ->
     Pfi_core.Pfi_layer.set_send_filter_compiled pfi compiled;
     Pfi_core.Pfi_layer.set_receive_filter_compiled pfi compiled);
  (match arm with Some f -> f (H.sim env) pfi | None -> ());
  H.workload env;
  let sim = H.sim env in
  Sim.run ~until:horizon sim;
  let trace = Sim.trace sim in
  let injected_events =
    Trace.count ~tag:"testgen.fault" trace + Trace.count ~tag:"pfi.log" trace
  in
  let verdict =
    match H.check env with Error reason -> Violation reason | Ok () -> Tolerated
  in
  { fault;
    side;
    seed;
    verdict;
    injected_events;
    sim_events = Sim.events sim;
    trace = (if capture_trace then Some trace else None) }

type summary = {
  s_outcomes : outcome list;
  s_control_trace : Trace.t option;
  s_exec : Executor.stats;
}

let control_trial (module H : Harness_intf.HARNESS) ~observer ~horizon ~seed () =
  let env = H.build ~seed () in
  H.workload env;
  Sim.run ~until:horizon (H.sim env);
  match H.check env with
  | Ok () -> if observer.obs_traces then Some (Sim.trace (H.sim env)) else None
  | Error reason -> raise (Control_failure reason)

let run ?(executor = Executor.sequential) ?(observe = silent) plan =
  let (module H : Harness_intf.HARNESS) = plan.p_harness in
  let control_trace =
    if plan.p_control then
      control_trial
        (module H : Harness_intf.HARNESS)
        ~observer:observe ~horizon:plan.p_horizon ~seed:plan.p_seed ()
    else None
  in
  let outcomes =
    Executor.map executor
      (fun tr ->
        run_trial
          (module H : Harness_intf.HARNESS)
          ~side:tr.t_side ~horizon:plan.p_horizon ~seed:tr.t_seed
          ~capture_trace:observe.obs_traces ~compiled:tr.t_script
          ?arm:tr.t_arm tr.t_fault)
      plan.p_trials
  in
  { s_outcomes = outcomes;
    s_control_trace = control_trace;
    s_exec = Executor.stats executor }

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
