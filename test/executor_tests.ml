(* Tests for the pluggable campaign executor: order preservation under
   real parallelism, exception isolation (no lost trials), the CLI
   jobs mapping, and byte-identical campaign output for any worker
   count. *)

open Pfi_testgen

let items n = List.init n (fun i -> i)

(* ------------------------------------------------------------------ *)
(* Order preservation                                                 *)
(* ------------------------------------------------------------------ *)

let test_sequential_in_order () =
  Alcotest.(check (list int)) "identity map" (items 10)
    (Executor.map (Executor.of_jobs 1) (fun i -> i) (items 10));
  Alcotest.(check (list int)) "empty input" []
    (Executor.map (Executor.of_jobs 1) (fun i -> i) [])

let test_domains_in_order () =
  let n = 64 in
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun i -> i * i) (items n))
    (Executor.map (Executor.of_jobs 4) (fun i -> i * i) (items n))

(* a deliberately slow early trial: item 0 sleeps long enough that on a
   multicore host every other worker finishes first, so any
   completion-order dependence would reorder the results *)
let test_domains_slow_trial_no_reorder () =
  let slow i =
    if i = 0 then Unix.sleepf 0.25
    else if i < 4 then Unix.sleepf 0.01;
    i
  in
  Alcotest.(check (list int)) "slow first trial lands in slot 0" (items 16)
    (Executor.map (Executor.of_jobs 4) slow (items 16))

(* guided claims at every width, [of_jobs 1] included, against the
   stdlib's in-order map, over input sizes below, at and well above the
   worker count *)
let test_domains_match_sequential () =
  let f i = (i * 37) mod 11 in
  List.iter
    (fun n ->
      let expected = List.map f (items n) in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "of_jobs %d n=%d" jobs n)
            expected
            (Executor.map (Executor.of_jobs jobs) f (items n)))
        [ 1; 2; 4; 8 ])
    [ 0; 1; 7; 33; 100 ]

let test_more_jobs_than_items () =
  Alcotest.(check (list int)) "jobs > items" (items 3)
    (Executor.map (Executor.of_jobs 8) (fun i -> i) (items 3))

(* the oversubscription fix: a map over fewer items than workers must
   not spawn idle domains.  Three items through an 8-wide pool may
   touch at most three distinct domains, while [exec_name]/[width]
   keep reporting the requested figure (the next map may be larger). *)
let test_clamp_no_oversubscription () =
  let executor = Executor.of_jobs 8 in
  Alcotest.(check string) "name reports the requested width" "domains(8)"
    (Executor.name executor);
  Alcotest.(check int) "width reports the requested figure" 8
    executor.Executor.width;
  let seen = Atomic.make [] in
  let note d =
    let rec add () =
      let old = Atomic.get seen in
      if List.mem d old then ()
      else if not (Atomic.compare_and_set seen old (d :: old)) then add ()
    in
    add ()
  in
  let results =
    Executor.map executor
      (fun x ->
        note (Domain.self () :> int);
        x)
      (items 3)
  in
  Alcotest.(check (list int)) "results intact" (items 3) results;
  let distinct = List.length (Atomic.get seen) in
  Alcotest.(check bool)
    (Printf.sprintf "at most 3 domains used for 3 items (saw %d)" distinct)
    true (distinct <= 3);
  (* and the same executor still fans out a wide map afterwards *)
  Alcotest.(check (list int)) "wide map after clamped map" (items 64)
    (Executor.map executor (fun x -> x) (items 64))

(* an empty map must not pay for the pool at all: no domain spawns, no
   stats entry — and the executor keeps working afterwards *)
let test_empty_map_spawns_nothing () =
  let executor = Executor.of_jobs 4 in
  Alcotest.(check (list int)) "empty map is empty" []
    (Executor.map executor (fun i -> i) []);
  let st = Executor.stats executor in
  Alcotest.(check int) "no domains spawned" 0 st.Executor.st_spawned;
  Alcotest.(check int) "no map recorded" 0 st.Executor.st_maps;
  Alcotest.(check (list int)) "still maps afterwards" (items 8)
    (Executor.map executor (fun i -> i) (items 8))

(* scheduling stats: items are conserved across workers, worker 0 is
   the calling domain, and the spawn counter matches the clamp *)
let test_stats_accounting () =
  let executor = Executor.of_jobs 1 in
  ignore (Executor.map executor (fun i -> i) (items 10));
  ignore (Executor.map executor (fun i -> i) (items 5));
  let st = Executor.stats executor in
  Alcotest.(check int) "sequential maps" 2 st.Executor.st_maps;
  Alcotest.(check int) "sequential items" 15 st.Executor.st_items;
  Alcotest.(check int) "sequential never spawns" 0 st.Executor.st_spawned;
  let pool = Executor.of_jobs 4 in
  ignore (Executor.map pool (fun i -> i * i) (items 64));
  let st = Executor.stats pool in
  Alcotest.(check int) "pool items" 64 st.Executor.st_items;
  Alcotest.(check int) "pool spawned jobs-1 domains" 3 st.Executor.st_spawned;
  Alcotest.(check int) "per-worker items sum to the input" 64
    (List.fold_left
       (fun acc (w : Executor.worker_stat) -> acc + w.Executor.ws_items)
       0 st.Executor.st_workers);
  Alcotest.(check bool) "every claim processed at least one item" true
    (List.for_all
       (fun (w : Executor.worker_stat) -> w.Executor.ws_items >= w.Executor.ws_claims || w.Executor.ws_claims = 0)
       st.Executor.st_workers)

(* ------------------------------------------------------------------ *)
(* Exception isolation: no lost trials                                *)
(* ------------------------------------------------------------------ *)

exception Trial_failed of int

let test_no_lost_trials_on_exception () =
  List.iter
    (fun executor ->
      let ran = Atomic.make 0 in
      let runner i =
        Atomic.incr ran;
        if i mod 3 = 1 then raise (Trial_failed i) else i
      in
      let results = executor.Executor.try_map runner (items 12) in
      (* every trial executed, despite four sibling failures *)
      Alcotest.(check int)
        (Executor.name executor ^ ": every trial ran")
        12 (Atomic.get ran);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "value in its own slot" i v
          | Error (Trial_failed j) ->
            Alcotest.(check int) "error in its own slot" i j;
            Alcotest.(check bool) "only the raising trials fail" true
              (i mod 3 = 1)
          | Error e -> raise e)
        results)
    [ Executor.of_jobs 1; Executor.of_jobs 3 ]

let test_map_reraises_first_by_index () =
  (* item 2 fails; on a pool, item 7's failure may complete first, but
     map must surface the lowest-index error *)
  let runner i =
    if i = 2 || i = 7 then raise (Trial_failed i) else i
  in
  List.iter
    (fun executor ->
      match Executor.map executor runner (items 10) with
      | _ -> Alcotest.fail "map swallowed the trial exception"
      | exception Trial_failed i ->
        Alcotest.(check int)
          (Executor.name executor ^ ": first error by index")
          2 i)
    [ Executor.of_jobs 1; Executor.of_jobs 4 ]

(* ------------------------------------------------------------------ *)
(* CLI mapping and naming                                             *)
(* ------------------------------------------------------------------ *)

let test_of_jobs () =
  Alcotest.(check string) "jobs<=1 is sequential" "sequential"
    (Executor.name (Executor.of_jobs 1));
  Alcotest.(check string) "jobs=0 clamps to sequential" "sequential"
    (Executor.name (Executor.of_jobs 0));
  Alcotest.(check string) "jobs=4 is a domain pool" "domains(4)"
    (Executor.name (Executor.of_jobs 4));
  Alcotest.(check int) "width matches jobs" 4 (Executor.of_jobs 4).Executor.width;
  Alcotest.(check int) "sequential width" 1 (Executor.of_jobs 1).Executor.width

(* ------------------------------------------------------------------ *)
(* Campaigns: byte-identical output for any worker count              *)
(* ------------------------------------------------------------------ *)

let campaign_bytes (module H : Harness_intf.HARNESS) jobs =
  let outcomes =
    (Campaign.run ~executor:(Executor.of_jobs jobs)
       (Campaign.plan (module H : Harness_intf.HARNESS)))
      .Campaign.s_outcomes
  in
  let repros =
    List.filter_map
      (fun (o : Campaign.outcome) ->
        match o.verdict with
        | Campaign.Violation reason ->
          Some
            (Scenario.to_string
               (Scenario.repro ~name:"repro" ~harness:H.name ~seed:o.seed
                  ~horizon:H.default_horizon ~side:o.side ~reason [ o.fault ]))
        | Campaign.Tolerated -> None)
      outcomes
  in
  Campaign.table outcomes ^ String.concat "\n" repros

let check_jobs_invariant name =
  let entry =
    match Registry.find name with
    | Some e -> e
    | None -> Alcotest.failf "no registry entry %S" name
  in
  let baseline = campaign_bytes entry 1 in
  Alcotest.(check bool) "campaign produced output" true
    (String.length baseline > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s: jobs=%d byte-identical to jobs=1" name jobs)
        baseline (campaign_bytes entry jobs))
    [ 2; 8 ]

let test_campaign_jobs_invariant_abp () = check_jobs_invariant "abp-buggy"
let test_campaign_jobs_invariant_gmp () = check_jobs_invariant "gmp-buggy"

(* the trial arena (per-domain scratch reuse for every trial whose
   trace is not kept) must be observationally invisible: the same
   campaign keeping its traces, so building every trial fresh with a
   storing trace, produces the same bytes, and the arena actually
   served trials *)
let test_campaign_arena_invisible () =
  let entry =
    match Registry.find "gmp-buggy" with
    | Some e -> e
    | None -> Alcotest.fail "no registry entry gmp-buggy"
  in
  let table observe =
    Campaign.table (Campaign.run ~observe (Campaign.plan entry)).Campaign.s_outcomes
  in
  let served0 = Arena.trials_served () in
  let reused = table (Campaign.observe ()) in
  Alcotest.(check bool) "arena served this campaign's trials" true
    (Arena.trials_served () - served0 > 0);
  Alcotest.(check string) "fresh-build bytes == reused-arena bytes"
    (table (Campaign.observe ~traces:true ())) reused

(* parallel trace export: the streamed lines of every trial must also
   be independent of the worker count, window buffering included *)
let test_campaign_traces_jobs_invariant () =
  let plan = Campaign.plan (Abp_harness.harness ~bug_ignore_ack_bit:true ()) in
  let traces jobs =
    Trace_lists.streamed (fun sink ->
        ignore
          (Campaign.run ~executor:(Executor.of_jobs jobs)
             ~observe:(Campaign.observe ~trace_out:sink ()) plan))
  in
  let sequential = traces 1 in
  Alcotest.(check (list string)) "every trial exported"
    (List.init (List.length plan.Campaign.p_trials + 1) string_of_int)
    (Trace_lists.sims sequential);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "per-trial traces identical at jobs=%d" jobs)
        true (traces jobs = sequential))
    [ 2; 4 ]

(* the scan runs one candidate at a time, so the report charges
   exactly the runs it made, and stays within the budget also when it
   binds mid-descent *)
let test_shrink_charges_sequential_trials () =
  let st0 =
    { Shrink.fault = Generator.Byzantine_mix 0.25; Shrink.side = Campaign.Both_filters }
  in
  let runs = ref 0 in
  (* violates while the fault keeps a byzantine or omission component
     with p of at least 0.05, so accepts and rejects interleave *)
  let run (st : Shrink.state) =
    incr runs;
    { Campaign.fault = st.Shrink.fault;
      Campaign.side = st.Shrink.side;
      Campaign.seed = 0L;
      Campaign.verdict =
        (match st.Shrink.fault with
         | Generator.Byzantine_mix p | Generator.Omission_all p when p >= 0.05 ->
           Campaign.Violation "synthetic"
         | _ -> Campaign.Tolerated);
      Campaign.injected_events = 0;
      Campaign.sim_events = 0 }
  in
  let trials ~max_trials =
    runs := 0;
    match Shrink.minimize ~max_trials ~spec:Spec.abp ~run st0 with
    | Ok r ->
      Alcotest.(check int)
        (Printf.sprintf "budget %d: trials are the runs made" max_trials)
        !runs r.Shrink.trials;
      r.Shrink.trials
    | Error e -> Alcotest.failf "minimize failed: %s" e
  in
  let unbounded = trials ~max_trials:1000 in
  Alcotest.(check bool) "the descent rejects candidates" true (unbounded > 8);
  for max_trials = 1 to unbounded do
    Alcotest.(check bool)
      (Printf.sprintf "budget %d holds" max_trials)
      true
      (trials ~max_trials <= max_trials)
  done

(* the export's ordered map keeps [Executor.map]'s contract at every
   width: every item runs, the first error is re-raised after the last
   item, and every item's lines, a raising one's included, come in
   list order *)
let test_trace_out_map_contract () =
  List.iter
    (fun jobs ->
      let ran = Array.make 5 false in
      let run out i =
        let trace = Pfi_engine.Trace.create_counting () in
        Trace_out.attach out trace;
        Pfi_engine.Trace.record trace ~time:Pfi_engine.Vtime.zero ~node:"n" ~tag:"t" "entry";
        ran.(i) <- true;
        if i mod 2 = 1 then failwith (string_of_int i)
      in
      let text =
        Trace_lists.streamed (fun sink ->
            match Trace_out.map (Some sink) (Executor.of_jobs jobs) run (items 5) with
            | _ -> Alcotest.fail "items 1 and 3 raise"
            | exception Failure first -> Alcotest.(check string) "first error" "1" first)
      in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d: every item ran" jobs) true
        (Array.for_all Fun.id ran);
      Alcotest.(check (list string)) (Printf.sprintf "jobs=%d: lines in order" jobs)
        [ "0"; "1"; "2"; "3"; "4" ] (Trace_lists.sims text))
    [ 1; 2; 3 ]

let suite =
  [ Alcotest.test_case "sequential maps in order" `Quick test_sequential_in_order;
    Alcotest.test_case "domain pool preserves input order" `Quick
      test_domains_in_order;
    Alcotest.test_case "slow trial does not reorder results" `Quick
      test_domains_slow_trial_no_reorder;
    Alcotest.test_case "domain pool matches sequential" `Quick
      test_domains_match_sequential;
    Alcotest.test_case "more workers than trials" `Quick test_more_jobs_than_items;
    Alcotest.test_case "empty map spawns no domains" `Quick
      test_empty_map_spawns_nothing;
    Alcotest.test_case "scheduling stats conserve items" `Quick
      test_stats_accounting;
    Alcotest.test_case "clamp: no idle domains when items < jobs" `Quick
      test_clamp_no_oversubscription;
    Alcotest.test_case "worker exception loses no trials" `Quick
      test_no_lost_trials_on_exception;
    Alcotest.test_case "map re-raises the first error by index" `Quick
      test_map_reraises_first_by_index;
    Alcotest.test_case "of_jobs mapping and widths" `Quick test_of_jobs;
    Alcotest.test_case "abp-buggy campaign byte-identical at jobs 1/2/8" `Slow
      test_campaign_jobs_invariant_abp;
    Alcotest.test_case "gmp-buggy campaign byte-identical at jobs 1/2/8" `Slow
      test_campaign_jobs_invariant_gmp;
    Alcotest.test_case "trial arena is observationally invisible" `Slow
      test_campaign_arena_invisible;
    Alcotest.test_case "per-trial traces byte-identical at jobs 4" `Slow
      test_campaign_traces_jobs_invariant;
    Alcotest.test_case "shrink charges the same trials at every budget as it runs" `Quick
      test_shrink_charges_sequential_trials;
    Alcotest.test_case "the export's ordered map runs every item, in order" `Quick
      test_trace_out_map_contract ]
