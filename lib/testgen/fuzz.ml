open Pfi_engine

type input = {
  in_side : Campaign.side;
  in_faults : Generator.fault list;
  in_clear : Vtime.t option;
}

let max_faults = 3
let default_budget = 200

let canonical input =
  let clear =
    match input.in_clear with
    | None -> ""
    | Some t -> Printf.sprintf "|@%Ld" (Vtime.to_us t)
  in
  Campaign.side_name input.in_side ^ "|"
  ^ String.concat "+" (List.map Generator.canonical input.in_faults)
  ^ clear

let input_key input = Rng.fnv1a64 (canonical input)

let trial_seed ~fuzz_seed input =
  Campaign.trial_seed_of_key ~campaign_seed:fuzz_seed ~side:input.in_side
    (input_key input)

(* MurmurHash3's 64-bit finalizer (fmix64), for deriving per-candidate
   RNG streams: the repo's one mixer besides [Rng.mix] (splitmix64's
   finalizer) and [Rng.fnv1a64].  It stays because it seeds every
   pinned fuzz trajectory. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let candidate_rng ~fuzz_seed ~generation ~draw =
  Rng.create
    ~seed:
      (mix64
         (Int64.add fuzz_seed
            (Int64.of_int (((generation * 131071) + draw) lor 1))))

(* --- seed corpus ------------------------------------------------------ *)

let seed_corpus ~spec =
  List.map
    (fun t ->
      { in_side = Campaign.Send_filter;
        in_faults = [ Generator.Drop_fraction (t, 0.05) ];
        in_clear = None })
    (Spec.message_types spec)
  @ [ { in_side = Campaign.Send_filter;
        in_faults = [ Generator.Omission_all 0.05 ];
        in_clear = None } ]

(* --- mutation --------------------------------------------------------- *)

let clamp_f lo hi x = if x < lo then lo else if x > hi then hi else x

(* Probabilities stay below 0.45: a lossier channel stops being a
   tolerable fault and starts being a severed link, and total outages
   break the service guarantee of *correct* implementations too, so
   every finding they produce is noise. *)
let nudge_prob rng p = clamp_f 0.01 0.45 (if Rng.bool rng then p *. 2.0 else p /. 2.0)
let nudge_delay rng s = clamp_f 0.001 30.0 (if Rng.bool rng then s *. 2.0 else s /. 2.0)

let nudge_count rng ~lo ~hi n =
  let n' = if Rng.bool rng then n * 2 else n / 2 in
  Stdlib.min hi (Stdlib.max lo n')

let pick rng l = List.nth l (Rng.int rng (List.length l))

(* The kind lattice kind-replacement draws from.  Deliberately the same
   *tolerable* subset as {!Generator.campaign}: no [Drop_all] or
   [Drop_nth] — unbounded or periodic deterministic loss defeats even a
   correct retransmission scheme (periodic drops phase-lock with
   deterministic timers), so those faults only yield saturation
   artifacts, never implementation bugs. *)
let templates ~spec ~target =
  let per_type t =
    Generator.
      [ Drop_first (t, 3); Drop_fraction (t, 0.2);
        Delay_each (t, 1.0); Duplicate t; Corrupt (t, 0.2); Reorder t ]
  in
  List.concat_map per_type (Spec.message_types spec)
  @ List.filter_map
      (fun (m : Spec.message) ->
        if m.Spec.stateless then Some (Generator.Inject_spurious (m, target))
        else None)
      spec.Spec.messages
  @ Generator.[ Omission_all 0.2; Byzantine_mix 0.1 ]

let nudge_fault rng ~spec ~target fault =
  let types = Spec.message_types spec in
  let retype t = match types with [] -> t | _ -> pick rng types in
  let stateless =
    List.filter (fun (m : Spec.message) -> m.Spec.stateless) spec.Spec.messages
  in
  match fault with
  | Generator.Drop_all t -> Generator.Drop_all (retype t)
  | Generator.Drop_after (t, n) ->
      Generator.Drop_after (t, nudge_count rng ~lo:1 ~hi:64 n)
  | Generator.Drop_first (t, n) ->
      Generator.Drop_first (t, nudge_count rng ~lo:1 ~hi:16 n)
  | Generator.Drop_nth (t, n) ->
      Generator.Drop_nth (t, nudge_count rng ~lo:2 ~hi:1024 n)
  | Generator.Drop_fraction (t, p) -> Generator.Drop_fraction (t, nudge_prob rng p)
  | Generator.Omission_all p -> Generator.Omission_all (nudge_prob rng p)
  | Generator.Byzantine_mix p -> Generator.Byzantine_mix (nudge_prob rng p)
  | Generator.Delay_each (t, s) -> Generator.Delay_each (t, nudge_delay rng s)
  | Generator.Duplicate t -> Generator.Duplicate (retype t)
  | Generator.Corrupt (t, p) -> Generator.Corrupt (t, nudge_prob rng p)
  | Generator.Reorder t -> Generator.Reorder (retype t)
  | Generator.Inject_spurious (_, _) -> (
      match stateless with
      | [] -> Generator.Omission_all 0.05
      | ms -> Generator.Inject_spurious (pick rng ms, target))

let jitter_clear rng ~horizon clear =
  let clamp t = Vtime.clamp ~lo:(Vtime.sec 1) ~hi:horizon t in
  match clear with
  | None -> Some (Vtime.div horizon 2)
  | Some t -> (
      match Rng.int rng 3 with
      | 0 -> None
      | 1 -> Some (clamp (Vtime.div t 2))
      | _ -> Some (clamp (Vtime.mul t 2)))

let mutate rng ~spec ~target ~horizon ~corpus input =
  let faults = Array.of_list input.in_faults in
  let nfaults = Array.length faults in
  let with_faults fs = { input with in_faults = fs } in
  let nudged () =
    let i = Rng.int rng nfaults in
    faults.(i) <- nudge_fault rng ~spec ~target faults.(i);
    with_faults (Array.to_list faults)
  in
  match Rng.int rng 6 with
  | 0 -> nudged ()
  | 1 ->
      let next = function
        | Campaign.Send_filter -> Campaign.Receive_filter
        | Campaign.Receive_filter -> Campaign.Both_filters
        | Campaign.Both_filters -> Campaign.Send_filter
      in
      { input with in_side = next input.in_side }
  | 2 ->
      let i = Rng.int rng nfaults in
      faults.(i) <- pick rng (templates ~spec ~target);
      with_faults (Array.to_list faults)
  | 3 ->
      if nfaults >= max_faults then nudged ()
      else
        let extra =
          if Array.length corpus > 0 && Rng.bool rng then
            let donor = corpus.(Rng.int rng (Array.length corpus)) in
            pick rng donor.in_faults
          else pick rng (templates ~spec ~target)
        in
        with_faults (input.in_faults @ [ extra ])
  | 4 ->
      if nfaults < 2 then nudged ()
      else
        let i = Rng.int rng nfaults in
        with_faults (List.filteri (fun j _ -> j <> i) input.in_faults)
  | _ -> { input with in_clear = jitter_clear rng ~horizon input.in_clear }

(* --- failure signatures ----------------------------------------------- *)

let normalise_digits s =
  let b = Buffer.create (String.length s) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then begin
        if not !in_digits then Buffer.add_char b 'N';
        in_digits := true
      end
      else begin
        in_digits := false;
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

(* the fault's kind and message type, parameters stripped *)
let slug fault =
  let v = Generator.view fault in
  String.concat ":" (v.Generator.kind :: Option.to_list v.Generator.mtype)

let signature_of ~side ~faults ~reason =
  (* fault slugs are sorted: a fault *set* triggers the failure, and
     two mutation orders reaching the same set are the same finding *)
  Campaign.side_name side ^ "|"
  ^ String.concat "+" (List.sort compare (List.map slug faults))
  ^ "|" ^ normalise_digits reason

(* --- findings --------------------------------------------------------- *)

type finding = {
  fd_signature : string;
  fd_input : input;
  fd_exec : int;
  fd_fault : Generator.fault;
  fd_side : Campaign.side;
  fd_horizon : Vtime.t;
  fd_seed : int64;
  fd_reason : string;
  fd_minimized : bool;
  fd_shrink_trials : int;
  fd_injected_events : int;
}

let finding_json ~harness fd =
  let open Json in
  let input_json =
    Obj
      [ ("side", Str (Campaign.side_name fd.fd_input.in_side));
        ("faults", List (List.map Repro.fault_to_json fd.fd_input.in_faults));
        ( "clear_us",
          match fd.fd_input.in_clear with
          | None -> Null
          | Some t -> Str (Int64.to_string (Vtime.to_us t)) ) ]
  in
  Obj
    [ ("harness", Str harness);
      ("signature", Str fd.fd_signature);
      ("exec", Int fd.fd_exec);
      ("input", input_json);
      ("fault", Repro.fault_to_json fd.fd_fault);
      ("side", Str (Campaign.side_name fd.fd_side));
      ("horizon_us", Str (Int64.to_string (Vtime.to_us fd.fd_horizon)));
      ("seed", Str (Int64.to_string fd.fd_seed));
      ("reason", Str fd.fd_reason);
      ("minimized", Bool fd.fd_minimized);
      ("shrink_trials", Int fd.fd_shrink_trials);
      ("injected_events", Int fd.fd_injected_events) ]

let repro_of_finding ~harness ~protocol ~target ~campaign_seed fd =
  if not fd.fd_minimized then None
  else
    Some
      { Repro.version = Repro.current_version;
        harness;
        protocol;
        target;
        fault = fd.fd_fault;
        side = fd.fd_side;
        horizon = fd.fd_horizon;
        seed = fd.fd_seed;
        campaign_seed;
        script = Generator.script_of_fault fd.fd_fault;
        verdict = Campaign.Violation fd.fd_reason;
        injected_events = fd.fd_injected_events;
        shrink_trajectory = [] }

(* --- the loop --------------------------------------------------------- *)

type result = {
  r_harness : string;
  r_seed : int64;
  r_budget : int;
  r_execs : int;
  r_shrink_execs : int;
  r_features : int;
  r_corpus : input list;
  r_findings : finding list;
}

(* the trial an input runs as, with the given per-trial seed *)
let trial_of ~seed input =
  let source =
    String.concat "\n" (List.map Generator.script_of_fault input.in_faults)
  in
  let compiled = Pfi_script.Interp.compile source in
  let arm =
    Option.map
      (fun t sim pfi ->
        ignore
          (Sim.schedule_at sim ~time:t (fun () ->
               Pfi_core.Pfi_layer.clear_send_filter pfi;
               Pfi_core.Pfi_layer.clear_receive_filter pfi)))
      input.in_clear
  in
  Campaign.trial ?arm ~script:compiled ~seed ~side:input.in_side
    (List.hd input.in_faults)

let trial ~fuzz_seed input = trial_of ~seed:(trial_seed ~fuzz_seed input) input

(* every fuzz trial runs to the harness's default horizon *)
let execute h (tr : Campaign.trial) =
  Campaign.exec h ~horizon:(Harness_intf.default_horizon h) ~seed:tr.t_seed
    ~filters:[ (tr.t_side, tr.t_script) ] ?arm:tr.t_arm (fun trace ->
      let states = Harness_intf.attach_states h trace in
      fun verdict _ -> (verdict, Coverage.features_of_trace ~states:(states ()) trace))

let finding_trial fd =
  trial_of ~seed:fd.fd_seed
    (if fd.fd_minimized then
       { in_side = fd.fd_side; in_faults = [ fd.fd_fault ]; in_clear = None }
     else fd.fd_input)

(* candidates per generation: part of input identity derivation, not
   of scheduling, so the executor width never changes a result *)
let batch = 16

(* {!Shrink.minimize} re-runs per finding *)
let shrink_budget = 150

let run ?(executor = Executor.of_jobs 1) ?(seed = Campaign.default_seed)
    ?(budget = default_budget) (module H : Harness_intf.HARNESS) =
  let horizon = H.default_horizon in
  let spec = H.spec and target = H.target in
  let h = (module H : Harness_intf.HARNESS) in
  let bitmap = Coverage.create () in
  let seen = Hashtbl.create 256 in (* canonical text of every scheduled input *)
  let presigs = Hashtbl.create 16 in (* raw-input signatures already reduced *)
  let sigs = Hashtbl.create 16 in (* minimized signatures already reported *)
  let corpus = ref [] and corpus_n = ref 0 in
  let findings = ref [] in
  let execs = ref 0 and shrink_execs = ref 0 in
  let run_state (st : Shrink.state) =
    (* The horizon is frozen at the harness default: the oracles are
       calibrated to it, and under a halved horizon even a correct
       implementation misses its delivery target, so every
       shrunk-horizon candidate would "still violate" and the descent
       would wander into timeout artifacts. *)
    if Vtime.compare st.Shrink.horizon horizon <> 0 then
      { Campaign.fault = st.Shrink.fault;
        Campaign.side = st.Shrink.side;
        Campaign.seed = 0L;
        Campaign.verdict = Campaign.Tolerated;
        Campaign.injected_events = 0;
        Campaign.sim_events = 0;
        Campaign.trace = None }
    else begin
      incr shrink_execs;
      Campaign.run_trial h ~horizon:st.Shrink.horizon
        (Campaign.trial
           ~seed:
             (Campaign.trial_seed ~campaign_seed:seed ~side:st.Shrink.side
                st.Shrink.fault)
           ~side:st.Shrink.side st.Shrink.fault)
    end
  in
  (* re-run one (possibly multi-fault) input on the calling domain *)
  let run_input input =
    incr shrink_execs;
    Campaign.run_trial h ~horizon (trial ~fuzz_seed:seed input)
  in
  (* Reduction: strip the clear window, greedily drop faults from the
     set while the violation persists, then — if a single fault remains
     and violates on its own — descend the {!Shrink} lattice to the
     canonical minimal repro.  All sequential on the calling domain:
     reduction work is bounded per deduplicated finding and must not
     depend on executor width. *)
  let reduce input reason =
    let exec_at = !execs in
    let set_trials = ref 0 in
    let violates inp =
      incr set_trials;
      match (run_input inp).Campaign.verdict with
      | Campaign.Violation r -> Some r
      | Campaign.Tolerated -> None
    in
    let input, reason =
      match input.in_clear with
      | None -> (input, reason)
      | Some _ -> (
          let cand = { input with in_clear = None } in
          match violates cand with
          | Some r -> (cand, r)
          | None -> (input, reason))
    in
    let rec drop_one input reason =
      let n = List.length input.in_faults in
      if n <= 1 then (input, reason)
      else
        let rec try_at i =
          if i >= n then (input, reason)
          else
            let cand =
              { input with
                in_faults = List.filteri (fun j _ -> j <> i) input.in_faults }
            in
            match violates cand with
            | Some r -> drop_one cand r
            | None -> try_at (i + 1)
        in
        try_at 0
    in
    let input, reason = drop_one input reason in
    let set_finding () =
      let final = run_input input in
      let fd_reason =
        match final.Campaign.verdict with
        | Campaign.Violation r -> r
        | Campaign.Tolerated -> reason
      in
      { fd_signature =
          signature_of ~side:input.in_side ~faults:input.in_faults
            ~reason:fd_reason;
        fd_input = input;
        fd_exec = exec_at;
        fd_fault = List.hd input.in_faults;
        fd_side = input.in_side;
        fd_horizon = horizon;
        fd_seed = final.Campaign.seed;
        fd_reason;
        fd_minimized = false;
        fd_shrink_trials = !set_trials;
        fd_injected_events = final.Campaign.injected_events }
    in
    (* the Shrink descent replays through the stock single-fault trial
       machinery (Campaign.trial_seed), so re-probe the surviving fault
       there before committing to that path *)
    let single_violating =
      match input.in_faults with
      | [ f ] when input.in_clear = None -> (
          let st = { Shrink.fault = f; side = input.in_side; horizon } in
          match (run_state st).Campaign.verdict with
          | Campaign.Violation r -> Some (st, r)
          | Campaign.Tolerated -> None)
      | _ -> None
    in
    match single_violating with
    | None -> set_finding ()
    | Some (st0, r0) ->
        let st_min, r_min, trials =
          match
            Shrink.minimize ~max_trials:shrink_budget ~spec ~run:run_state st0
          with
          | Ok rep ->
              (rep.Shrink.minimized, rep.Shrink.final_reason, rep.Shrink.trials)
          | Error _ -> (st0, r0, 0)
        in
        let final = run_state st_min in
        let fd_reason =
          match final.Campaign.verdict with
          | Campaign.Violation r -> r
          | Campaign.Tolerated -> r_min
        in
        { fd_signature =
            signature_of ~side:st_min.Shrink.side
              ~faults:[ st_min.Shrink.fault ] ~reason:fd_reason;
          fd_input = input;
          fd_exec = exec_at;
          fd_fault = st_min.Shrink.fault;
          fd_side = st_min.Shrink.side;
          fd_horizon = st_min.Shrink.horizon;
          fd_seed = final.Campaign.seed;
          fd_reason;
          fd_minimized = true;
          fd_shrink_trials = !set_trials + trials;
          fd_injected_events = final.Campaign.injected_events }
  in
  let process input (verdict, feats) =
    incr execs;
    if Coverage.merge bitmap feats > 0 then begin
      corpus := input :: !corpus;
      incr corpus_n
    end;
    match verdict with
    | Campaign.Tolerated -> ()
    | Campaign.Violation reason ->
        let presig =
          signature_of ~side:input.in_side ~faults:input.in_faults ~reason
        in
        if not (Hashtbl.mem presigs presig) then begin
          Hashtbl.add presigs presig ();
          let fd = reduce input reason in
          if not (Hashtbl.mem sigs fd.fd_signature) then begin
            Hashtbl.add sigs fd.fd_signature ();
            findings := fd :: !findings
          end
        end
  in
  let eval_batch inputs =
    let trials = List.map (trial ~fuzz_seed:seed) inputs in
    List.iter2 process inputs (Executor.map executor (execute h) trials)
  in
  let schedule input =
    let key = canonical input in
    if Hashtbl.mem seen key then None
    else begin
      Hashtbl.add seen key ();
      Some input
    end
  in
  let remaining () = budget - !execs in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  (* generation 0: the seed corpus *)
  eval_batch
    (take (remaining ()) (List.filter_map schedule (seed_corpus ~spec)));
  let generation = ref 1 in
  let stalled = ref false in
  while remaining () > 0 && (not !stalled) && !corpus_n > 0 do
    let want = Stdlib.min batch (remaining ()) in
    (* candidates are drawn sequentially against a frozen corpus
       snapshot; the executor only ever sees a fully-built batch *)
    let snapshot = Array.of_list (List.rev !corpus) in
    let cands = ref [] and got = ref 0 and draw = ref 0 in
    while !got < want && !draw < want * 20 do
      incr draw;
      let rng = candidate_rng ~fuzz_seed:seed ~generation:!generation ~draw:!draw in
      let parent = snapshot.(Rng.int rng (Array.length snapshot)) in
      let cand = mutate rng ~spec ~target ~horizon ~corpus:snapshot parent in
      match schedule cand with
      | None -> ()
      | Some cand ->
          cands := cand :: !cands;
          incr got
    done;
    (match List.rev !cands with
    | [] -> stalled := true
    | batch -> eval_batch batch);
    incr generation
  done;
  { r_harness = H.name;
    r_seed = seed;
    r_budget = budget;
    r_execs = !execs;
    r_shrink_execs = !shrink_execs;
    r_features = Coverage.count bitmap;
    r_corpus = List.rev !corpus;
    r_findings = List.rev !findings }
