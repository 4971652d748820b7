type state = {
  fault : Generator.fault;
  side : Campaign.side;
}

let min_probability = 0.01
let min_delay = 0.001

(* ------------------------------------------------------------------ *)
(* The size metric.                                                   *)
(*                                                                    *)
(* size(state) = fault_cost + side_cost, where                        *)
(*   - probabilities and delays count in rounded permille,            *)
(*   - counters (drop-after/first thresholds) count linearly,         *)
(*   - Byzantine_mix pays a compound premium so decomposing it into a *)
(*     constituent single fault is always a strict shrink,            *)
(*   - side costs 2 for Both_filters, 1 otherwise.                    *)
(* Every candidate below reduces exactly one component and leaves the *)
(* other untouched, so each accepted shrink step strictly decreases   *)
(* the total and the minimizer terminates.                            *)
(* ------------------------------------------------------------------ *)

let permille x = int_of_float (Float.round (x *. 1000.))

let fault_cost = function
  | Generator.Drop_all _ | Generator.Duplicate _ | Generator.Reorder _
  | Generator.Inject_spurious _ -> 1
  | Generator.Drop_after (_, n) -> 1 + n
  | Generator.Drop_first (_, n) -> 1 + n
  (* a longer period drops fewer frames, so cost falls as n grows; the
     1000/n permille form keeps every doubling a strict decrease *)
  | Generator.Drop_nth (_, n) -> 1 + (1000 / max 1 n)
  | Generator.Drop_fraction (_, p) | Generator.Corrupt (_, p)
  | Generator.Omission_all p -> 1 + permille p
  | Generator.Delay_each (_, s) -> 1 + permille s
  | Generator.Byzantine_mix p -> 10 + (2 * permille p)

let side_cost = function
  | Campaign.Both_filters -> 2
  | Campaign.Send_filter | Campaign.Receive_filter -> 1

let size st = fault_cost st.fault + side_cost st.side

(* ------------------------------------------------------------------ *)
(* The candidate lattice                                              *)
(* ------------------------------------------------------------------ *)

(* round to the precision the script templates print, so the shrunk
   parameter and the script it generates agree exactly *)
let halve_probability p =
  let p' = Generator.round_probability (p /. 2.) in
  if p' >= min_probability && p' < p then [ p' ] else []

let fault_candidates ~(spec : Spec.t) fault =
  let dedup l = List.sort_uniq compare l in
  match fault with
  | Generator.Drop_all _ | Generator.Duplicate _ | Generator.Reorder _
  | Generator.Inject_spurious _ -> []
  | Generator.Drop_after (t, n) ->
    dedup
      (List.filter_map
         (fun n' -> if n' >= 0 && n' < n then Some (Generator.Drop_after (t, n')) else None)
         [ n / 2; n - 1 ])
  | Generator.Drop_first (t, n) ->
    (* Drop_first 0 drops nothing at all — stop at 1 *)
    dedup
      (List.filter_map
         (fun n' -> if n' >= 1 && n' < n then Some (Generator.Drop_first (t, n')) else None)
         [ n / 2; n - 1 ])
  | Generator.Drop_nth (t, n) ->
    (* weaken by doubling the period (half the drops); 1000/n bottoms
       out once n passes 1000, so stop there *)
    if n >= 1 && n <= 500 && 1000 / (2 * n) < 1000 / n then
      [ Generator.Drop_nth (t, 2 * n) ]
    else []
  | Generator.Drop_fraction (t, p) ->
    List.map (fun p' -> Generator.Drop_fraction (t, p')) (halve_probability p)
  | Generator.Corrupt (t, p) ->
    List.map (fun p' -> Generator.Corrupt (t, p')) (halve_probability p)
  | Generator.Omission_all p ->
    List.map (fun p' -> Generator.Omission_all p') (halve_probability p)
  | Generator.Delay_each (t, s) ->
    let s' = Generator.round_seconds (s /. 2.) in
    if s' >= min_delay && s' < s then [ Generator.Delay_each (t, s') ] else []
  | Generator.Byzantine_mix p ->
    (* decompose into the constituents first (always a big cost drop),
       then try weakening the mix itself *)
    Generator.Omission_all p
    :: List.map (fun t -> Generator.Duplicate t) (Spec.message_types spec)
    @ List.map (fun p' -> Generator.Byzantine_mix p') (halve_probability p)

let side_candidates = function
  | Campaign.Both_filters -> [ Campaign.Send_filter; Campaign.Receive_filter ]
  | Campaign.Send_filter | Campaign.Receive_filter -> []

let candidates ~spec st =
  let fault_side =
    List.map (fun fault -> { st with fault }) (fault_candidates ~spec st.fault)
    @ List.map (fun side -> { st with side }) (side_candidates st.side)
  in
  (* every candidate is strictly smaller by construction; try the
     smallest first so greedy acceptance takes the biggest step *)
  List.stable_sort (fun a b -> compare (size a) (size b)) fault_side

let trial ~campaign_seed st =
  Campaign.trial
    ~seed:(Campaign.trial_seed ~campaign_seed ~side:st.side st.fault)
    ~side:st.side st.fault

(* ------------------------------------------------------------------ *)
(* Greedy minimization                                                *)
(* ------------------------------------------------------------------ *)

type step = {
  state : state;
  step_size : int;
  reason : string;  (** the violation that kept this state *)
}

type report = {
  minimized : state;
  outcome : Campaign.outcome;
  initial_size : int;
  steps : step list;  (** accepted states, in order *)
  trials : int;  (** re-runs spent, accepted or not *)
}

let minimize ?(max_trials = 1000) ~spec ~run st0 =
  let outcome0 : Campaign.outcome = run st0 in
  match outcome0.Campaign.verdict with
  | Campaign.Tolerated ->
    Error "the starting state does not violate the oracle — nothing to shrink"
  | Campaign.Violation _ ->
    let trials = ref 1 in
    let steps = ref [] in
    (* One descent round: run the ordered candidates one at a time and
       accept the first that still violates, charging every run. *)
    let rec scan = function
      | cand :: rest when !trials < max_trials -> (
        let o : Campaign.outcome = run cand in
        incr trials;
        match o.Campaign.verdict with
        | Campaign.Violation r -> Some (cand, r, o)
        | Campaign.Tolerated -> scan rest)
      | _ -> None
    in
    let rec go st outcome =
      match scan (candidates ~spec st) with
      | None -> (st, outcome)
      | Some (st', reason, outcome') ->
        steps := { state = st'; step_size = size st'; reason } :: !steps;
        go st' outcome'
    in
    let minimized, outcome = go st0 outcome0 in
    Ok
      { minimized;
        outcome;
        initial_size = size st0;
        steps = List.rev !steps;
        trials = !trials }
