(* Tests for the shrinking + repro subsystem: per-trial seed
   derivation, campaign determinism, the JSON codec, .pfis repro files,
   the delta-debugging minimizer, and the harness registry. *)

open Pfi_engine
open Pfi_testgen

let all_campaign_faults () =
  Generator.campaign Spec.abp
  @ Generator.campaign Spec.tcp
  @ Generator.campaign Spec.gmp

let all_sides =
  [ Campaign.Send_filter; Campaign.Receive_filter; Campaign.Both_filters ]

(* ------------------------------------------------------------------ *)
(* Fault identity and per-trial seeds                                 *)
(* ------------------------------------------------------------------ *)

let test_fault_key_stable_and_distinct () =
  let faults = all_campaign_faults () in
  List.iter
    (fun f ->
      Alcotest.(check int64) "key is a pure function" (Generator.fault_key f)
        (Generator.fault_key f))
    faults;
  (* pairwise distinct across every fault the three stock campaigns
     generate (duplicates of the same fault value are expected) *)
  let keys =
    List.sort_uniq compare
      (List.map Generator.fault_key (List.sort_uniq compare faults))
  in
  Alcotest.(check int) "no collisions"
    (List.length (List.sort_uniq compare faults))
    (List.length keys)

let test_fault_key_full_precision () =
  Alcotest.(check bool) "fourth decimal distinguishes" true
    (Generator.fault_key (Generator.Drop_fraction ("MSG", 0.4001))
     <> Generator.fault_key (Generator.Drop_fraction ("MSG", 0.4002)))

let test_trial_seed_pure_and_sensitive () =
  let fault = Generator.Duplicate "MSG" in
  let seed side = Campaign.trial_seed ~campaign_seed:31L ~side fault in
  Alcotest.(check int64) "pure" (seed Campaign.Send_filter)
    (seed Campaign.Send_filter);
  Alcotest.(check bool) "side changes the seed" true
    (seed Campaign.Send_filter <> seed Campaign.Receive_filter);
  Alcotest.(check bool) "fault changes the seed" true
    (Campaign.trial_seed ~campaign_seed:31L ~side:Campaign.Send_filter
       (Generator.Duplicate "ACK")
     <> seed Campaign.Send_filter);
  Alcotest.(check bool) "campaign seed changes the seed" true
    (Campaign.trial_seed ~campaign_seed:32L ~side:Campaign.Send_filter fault
     <> seed Campaign.Send_filter)

let test_outcome_records_seed () =
  let h = Abp_harness.harness () in
  let o =
    Campaign.run_trial h ~horizon:(Vtime.sec 30)
      (Campaign.trial ~seed:9876543210L ~side:Campaign.Send_filter
         (Generator.Duplicate "MSG"))
  in
  Alcotest.(check int64) "seed recorded" 9876543210L o.Campaign.seed

let test_run_trial_script_override () =
  let h = Abp_harness.harness () in
  let fault = Generator.Drop_all "MSG" in
  let seed = 11L in
  let with_fault =
    Campaign.run_trial h ~horizon:(Vtime.sec 60)
      (Campaign.trial ~seed ~side:Campaign.Send_filter fault)
  in
  Alcotest.(check bool) "dropping every MSG violates" true
    (with_fault.Campaign.verdict <> Campaign.Tolerated);
  (* same fault on record, but the installed script is a no-op: the
     override, not the fault, decides what runs *)
  let overridden =
    Campaign.run_trial h ~horizon:(Vtime.sec 60)
      (Campaign.trial
         ~script:(Pfi_script.Interp.compile "# recorded no-op")
         ~seed ~side:Campaign.Send_filter fault)
  in
  Alcotest.(check bool) "override script is what actually runs" true
    (overridden.Campaign.verdict = Campaign.Tolerated)

(* ------------------------------------------------------------------ *)
(* Determinism regressions (what a repro's replay depends on)         *)
(* ------------------------------------------------------------------ *)

let test_campaign_summary_deterministic () =
  let run () =
    Campaign.table
      (Campaign.run (Campaign.plan (Abp_harness.harness ~bug_ignore_ack_bit:true ())))
        .Campaign.s_outcomes
  in
  Alcotest.(check string) "byte-identical summaries" (run ()) (run ())

let test_campaign_traces_deterministic () =
  (* the streamed export ([Campaign.observe ~trace_out]), the
     parallel-safe replacement for the old process-wide create hook:
     the control trial first, then every trial in canonical plan order *)
  let plan = Campaign.plan (Abp_harness.harness ~bug_ignore_ack_bit:true ()) in
  let capture () =
    Trace_lists.streamed (fun sink ->
        ignore (Campaign.run ~observe:(Campaign.observe ~trace_out:sink ()) plan))
  in
  let first = capture () in
  let second = capture () in
  Alcotest.(check (list string)) "the control, then every trial, each exported"
    (List.init (List.length plan.Campaign.p_trials + 1) string_of_int)
    (Trace_lists.sims first);
  Alcotest.(check bool) "traces non-empty" true (String.length first > 0);
  Alcotest.(check bool) "byte-identical JSONL traces" true (first = second)

let test_side_permutation_leaves_verdicts () =
  let plan = Campaign.plan (Abp_harness.harness ~bug_ignore_ack_bit:true ()) in
  let run sides =
    let trials =
      List.concat_map
        (fun side ->
          List.filter (fun t -> t.Campaign.t_side = side) plan.Campaign.p_trials)
        sides
    in
    (Campaign.run { plan with Campaign.p_trials = trials }).Campaign.s_outcomes
  in
  let canon outcomes =
    List.sort compare
      (List.map
         (fun o ->
           (Generator.canonical o.Campaign.fault,
            Campaign.side_name o.Campaign.side, o.Campaign.seed,
            o.Campaign.verdict))
         outcomes)
  in
  let forward = run all_sides in
  let backward = run (List.rev all_sides) in
  Alcotest.(check int) "same trial count" (List.length forward)
    (List.length backward);
  Alcotest.(check bool) "permuting sides leaves every verdict unchanged" true
    (canon forward = canon backward)

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip_escapes () =
  let open Json in
  let tree =
    Obj
      [ ("text", Str "line\nbreak\ttab \"quoted\" back\\slash \001ctrl");
        ("empty", Str "");
        ("nested", List [ Int 1; Float 2.5; Bool true; Null; Obj [] ]);
        ("neg", Int (-42)) ]
  in
  match parse (to_string tree) with
  | Ok tree' -> Alcotest.(check bool) "roundtrips" true (tree = tree')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parser_rejects_garbage () =
  let open Json in
  List.iter
    (fun s ->
      match parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    [ "{"; "tru"; "1 2"; ""; "{\"a\":}"; "[1,]"; "\"unterminated" ]

let test_json_number_precision () =
  let open Json in
  match parse (to_string (Float 0.1)) with
  | Ok (Float f) -> Alcotest.(check (float 0.)) "exact" 0.1 f
  | _ -> Alcotest.fail "float did not roundtrip"

(* [\uXXXX] reads as its code point's UTF-8, a surrogate pair as one
   4-byte sequence, and the printer's [\udcXX] as byte XX, so text a
   standard JSON writer re-escaped reads back with the bytes it had *)
let test_json_unicode_escapes () =
  let reads text want =
    Alcotest.(check (result string string)) text (Ok want)
      (Result.map (fun v -> Option.value (Json.to_str v) ~default:"?") (Json.parse text))
  in
  reads {|"caf\u00e9"|} "caf\xc3\xa9";
  reads {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  reads {|"\udce9"|} "\xe9";
  reads {|"\u0007"|} "\x07";
  Alcotest.(check string) "a stray byte prints as \\udcXX" {|"caf\udce9"|}
    (Json.to_string (Json.Str "caf\xe9"));
  Alcotest.(check string) "a control character keeps \\u00XX" {|"\u0007"|}
    (Json.to_string (Json.Str "\x07"));
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error _ -> ())
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|}; {|"\ude00"|}; {|"\udc41"|} ]

(* ------------------------------------------------------------------ *)
(* Repro files                                                        *)
(* ------------------------------------------------------------------ *)

(* every fault, written as a repro's [fault] line, reads back as itself:
   [Scenario.to_string] raises unless its text parses back equal *)
let test_fault_pfis_roundtrip () =
  let roundtrip harness fault =
    let sc =
      Scenario.repro ~name:"r" ~harness ~seed:1L ~horizon:(Vtime.sec 1)
        ~side:Campaign.Send_filter ~reason:"r" [ fault ]
    in
    match Scenario.parse (Scenario.to_string sc) with
    | sc' ->
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Generator.describe fault))
        true (sc'.Scenario.sc_faults = sc.Scenario.sc_faults)
    | exception Invalid_argument e ->
      Alcotest.failf "fault %S does not roundtrip: %s" (Generator.describe fault) e
  in
  List.iter
    (fun (harness, spec) -> List.iter (roundtrip harness) (Generator.campaign spec))
    [ ("abp", Spec.abp); ("tcp", Spec.tcp); ("gmp", Spec.gmp) ];
  (* the stock campaigns never use drop_all, drop_after or drop_nth:
     every kind comes from the scenario round-trip's fault generator *)
  let faults =
    QCheck.Gen.generate ~rand:(Random.State.make [| 20 |]) ~n:300
      Matrix_tests.gen_fault
  in
  List.iter (roundtrip "abp") faults;
  Alcotest.(check int) "every kind round-tripped" 12
    (List.length
       (List.sort_uniq compare
          (List.map (fun f -> (Generator.view f).Generator.kind) faults)))

let sample_repro () =
  let fault = Generator.Byzantine_mix 0.25 in
  let side = Campaign.Both_filters in
  Scenario.repro
    ~name:(Scenario.repro_stem ~index:7 side fault)
    ~harness:"abp-buggy"
    ~seed:(Campaign.trial_seed ~campaign_seed:31L ~side fault)
    ~horizon:(Vtime.sec 120) ~side ~reason:"delivered 18/20 messages  #3" [ fault ]

let test_artifact_file_roundtrip () =
  let sc = sample_repro () in
  let path = Filename.temp_file "pfi-repro" ".pfis" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenario.save_repro path ~verb:"campaign" ~seed:31L ~injected_events:39
        ~notes:[ "a note" ] sc;
      let text = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check (list string)) "comment lines first"
        [ "# origin: campaign abp-buggy --seed 31"; "# injected events: 39"; "# a note" ]
        (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' text));
      Alcotest.(check bool) "file roundtrip" true (Scenario.equal sc (Scenario.load path)))

(* a repro is judged by the parser that reads every scenario: bad input
   is a [Parse_error] naming its line and word *)
let test_artifact_rejects_bad_input () =
  let rejects (src, (line, token)) =
    match Scenario.parse src with
    | _ -> Alcotest.failf "accepted %S" src
    | exception Scenario.Parse_error e ->
      Alcotest.(check (pair int string)) src (line, token)
        (e.Scenario.err_line, e.Scenario.err_token)
  in
  List.iter
    rejects
    [ ("not a scenario at all", (1, "not"));
      ("seed 1\nhorizon 2m\n", (3, "run"));
      ("run abp\nxfail =", (2, "="));
      ("run abp\nxfail = ", (2, "="));
      ("run abp\nheal", (2, "heal"));
      ("run abp\n@5s heal send", (2, "send"));
      ("run abp\n@5s heal\n@6s heal", (3, "heal"));
      ("run abp\nfilter\nend", (2, "filter"));
      ("run abp\nfilter up\nend", (2, "up"));
      ("run abp\nfilter both\nxDrop cur_msg\n", (2, "filter"));
      ("run abp\nfault both drop_nth MSG 0", (2, "0"));
      ("run abp\nfault both drop_after MSG -5", (2, "-5"));
      ("run abp\nfault both delay_each MSG 1e13", (2, "1e13"));
      ("run abp\nfault both drop_fraction MSG 7.5", (2, "7.5"));
      ("run abp\nfault both drop_all DATA", (2, "DATA")) ]

let test_artifact_filename () =
  let fault = Generator.Byzantine_mix 0.25 in
  Alcotest.(check string) "stable slug"
    "repro-007-both-byzantine-channel--drop-duplicate-p-0.25-each--all-types-"
    (Scenario.repro_stem ~index:7 Campaign.Both_filters fault);
  Alcotest.(check string) "the stem names the scenario"
    (Scenario.repro_stem ~index:7 Campaign.Both_filters fault)
    (sample_repro ()).Scenario.sc_name

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

let test_candidates_strictly_smaller () =
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun fault ->
          List.iter
            (fun side ->
              let st = { Shrink.fault; side } in
              List.iter
                (fun cand ->
                  if Shrink.size cand >= Shrink.size st then
                    Alcotest.failf
                      "candidate %s (size %d) not smaller than %s (size %d)"
                      (Generator.describe cand.Shrink.fault)
                      (Shrink.size cand)
                      (Generator.describe fault) (Shrink.size st))
                (Shrink.candidates ~spec st))
            all_sides)
        (Generator.campaign spec))
    [ Spec.abp; Spec.tcp; Spec.gmp ]

let test_byzantine_decomposes () =
  let st =
    { Shrink.fault = Generator.Byzantine_mix 0.25; side = Campaign.Both_filters }
  in
  let cands = Shrink.candidates ~spec:Spec.abp st in
  let has f = List.exists (fun c -> c.Shrink.fault = f) cands in
  Alcotest.(check bool) "omission constituent" true
    (has (Generator.Omission_all 0.25));
  Alcotest.(check bool) "duplicate MSG constituent" true
    (has (Generator.Duplicate "MSG"));
  Alcotest.(check bool) "duplicate ACK constituent" true
    (has (Generator.Duplicate "ACK"));
  Alcotest.(check bool) "weakened mix" true
    (has (Generator.Byzantine_mix 0.125))

let test_shrink_floors () =
  let mk fault = { Shrink.fault; side = Campaign.Send_filter } in
  (* at every floor, no candidate remains *)
  Alcotest.(check int) "probability floor" 0
    (List.length (Shrink.candidates ~spec:Spec.abp (mk (Generator.Drop_fraction ("MSG", 0.01)))));
  Alcotest.(check int) "delay floor" 0
    (List.length (Shrink.candidates ~spec:Spec.abp (mk (Generator.Delay_each ("MSG", 0.001)))));
  Alcotest.(check int) "drop-first floor" 0
    (List.length (Shrink.candidates ~spec:Spec.abp (mk (Generator.Drop_first ("MSG", 1)))));
  Alcotest.(check int) "atomic faults have no candidates" 0
    (List.length (Shrink.candidates ~spec:Spec.abp (mk (Generator.Reorder "MSG"))))

let synthetic_outcome verdict st =
  { Campaign.fault = st.Shrink.fault;
    Campaign.side = st.Shrink.side;
    Campaign.seed = 0L;
    Campaign.verdict;
    Campaign.injected_events = 0;
    Campaign.sim_events = 0 }

let test_minimize_always_violating () =
  let st0 =
    { Shrink.fault = Generator.Byzantine_mix 0.25; side = Campaign.Both_filters }
  in
  match
    Shrink.minimize ~spec:Spec.abp
      ~run:(synthetic_outcome (Campaign.Violation "always"))
      st0
  with
  | Error e -> Alcotest.failf "minimize failed: %s" e
  | Ok report ->
    (* everything violates, so greedy descent must reach the global
       minimum: an atomic fault (1) on one side (1) *)
    Alcotest.(check int) "global minimum reached" 2
      (Shrink.size report.Shrink.minimized);
    Alcotest.(check bool) "trajectory recorded" true
      (report.Shrink.steps <> []);
    let sizes = List.map (fun s -> s.Shrink.step_size) report.Shrink.steps in
    let rec strictly_decreasing = function
      | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
      | _ -> true
    in
    Alcotest.(check bool) "sizes strictly decrease" true
      (strictly_decreasing (report.Shrink.initial_size :: sizes))

let test_minimize_never_violating () =
  let st0 =
    { Shrink.fault = Generator.Drop_fraction ("MSG", 0.4);
      side = Campaign.Send_filter }
  in
  match
    Shrink.minimize ~spec:Spec.abp ~run:(synthetic_outcome Campaign.Tolerated) st0
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "minimized a non-violating state"

let test_minimize_respects_budget () =
  let st0 =
    { Shrink.fault = Generator.Byzantine_mix 0.25; side = Campaign.Both_filters }
  in
  match
    Shrink.minimize ~max_trials:3 ~spec:Spec.abp
      ~run:(synthetic_outcome (Campaign.Violation "always"))
      st0
  with
  | Error e -> Alcotest.failf "minimize failed: %s" e
  | Ok report ->
    Alcotest.(check bool) "budget respected" true (report.Shrink.trials <= 3)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_lookup () =
  Alcotest.(check (list string)) "stock entries"
    [ "abp"; "abp-buggy"; "gmp"; "gmp-buggy"; "tcp" ]
    Registry.names;
  List.iter
    (fun name ->
      match Registry.find name with
      | Some entry ->
        Alcotest.(check string) "name matches" name (Harness_intf.name entry)
      | None -> Alcotest.failf "registry lost %S" name)
    Registry.names;
  Alcotest.(check bool) "unknown name" true (Registry.find "tcp-buggy" = None)

(* ------------------------------------------------------------------ *)
(* End-to-end: shrink a real violation, replay it deterministically   *)
(* ------------------------------------------------------------------ *)

let registry_exn name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %S" name

(* a shrink state's trial as [pfi_run shrink] runs it: the stock
   single-fault trial at the campaign seed, to the harness horizon *)
let run_state h st =
  Campaign.run_trial h ~horizon:(Harness_intf.default_horizon h)
    (Shrink.trial ~campaign_seed:(Harness_intf.default_seed h) st)

(* A minimized repro counts only if it names a defect: it must still
   violate on the buggy harness and be tolerated by the [correct] one,
   at the same horizon. *)
let check_shrinks_and_replays ~name ~correct st0 =
  let h = registry_exn name in
  match Shrink.minimize ~spec:(Harness_intf.spec h) ~run:(run_state h) st0 with
  | Error e -> Alcotest.failf "shrink of the %s violation failed: %s" name e
  | Ok report ->
    Alcotest.(check bool) "strictly smaller" true
      (Shrink.size report.Shrink.minimized < Shrink.size st0);
    (* the minimized trial still violates, deterministically: re-run it
       twice from its derived seed and require identical outcomes *)
    let replay () = run_state h report.Shrink.minimized in
    let first = replay () in
    let second = replay () in
    (match first.Campaign.verdict with
     | Campaign.Violation _ -> ()
     | Campaign.Tolerated -> Alcotest.fail "minimized trial no longer violates");
    Alcotest.(check bool) "replay reproduces the accepting run" true
      (first = report.Shrink.outcome);
    Alcotest.(check bool) "replay is deterministic" true (first = second);
    match (run_state (registry_exn correct) report.Shrink.minimized).Campaign.verdict with
    | Campaign.Tolerated -> ()
    | Campaign.Violation r ->
      Alcotest.failf "%s fails the minimized %s too: %s" correct
        (Generator.describe report.Shrink.minimized.Shrink.fault) r

let test_shrink_abp_buggy_end_to_end () =
  (* a byzantine channel on both sides strong enough that a weaker one
     still loses messages: p=0.40 halves to 0.20.  (The campaign's own
     p=0.25 violation is already minimal: none of its six candidates
     violates.) *)
  check_shrinks_and_replays ~name:"abp-buggy" ~correct:"abp"
    { Shrink.fault = Generator.Byzantine_mix 0.4; side = Campaign.Both_filters }

let test_shrink_gmp_buggy_end_to_end () =
  (* a violation the gmp-buggy campaign reliably finds: probabilistic
     heartbeat loss through both filters *)
  check_shrinks_and_replays ~name:"gmp-buggy" ~correct:"gmp"
    { Shrink.fault = Generator.Drop_fraction ("HEARTBEAT", 0.4);
      side = Campaign.Both_filters }

(* the gmp-buggy campaign's send-side drop-the-first-5-HEARTBEAT repro:
   a shorter horizon would shrink it into a run that gmp fails with no
   fault at all (view [1] at 1.76 s) *)
let test_shrunk_repro_spares_correct_code () =
  check_shrinks_and_replays ~name:"gmp-buggy" ~correct:"gmp"
    { Shrink.fault = Generator.Drop_first ("HEARTBEAT", 5);
      side = Campaign.Send_filter }

(* ------------------------------------------------------------------ *)
(* Golden files (test/golden/)                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden ~path actual =
  (* the golden files are dune deps copied next to the test executable,
     which is also where they live in the source tree — resolve against
     the executable so `dune exec` from anywhere finds them too *)
  let path = Filename.concat (Filename.dirname Sys.executable_name) path in
  let expected = read_file path in
  if actual <> expected then
    Alcotest.failf
      "output differs from %s —\n--- expected ---\n%s\n--- actual ---\n%s" path
      expected actual

(* a tiny fixed ABP scenario: the stock abp-buggy harness under three
   hand-picked faults, seeds derived exactly as a campaign would derive
   them, so [pfi_run check] of its repro reproduces the violation *)
let tiny_abp_outcomes () =
  let h = Abp_harness.harness ~bug_ignore_ack_bit:true () in
  let horizon = Vtime.sec 60 in
  let campaign_seed = 7L in
  List.map
    (fun (side, fault) ->
      Campaign.run_trial h ~horizon
        (Campaign.trial
           ~seed:(Campaign.trial_seed ~campaign_seed ~side fault)
           ~side fault))
    [ (Campaign.Send_filter, Generator.Drop_first ("MSG", 2));
      (Campaign.Receive_filter, Generator.Duplicate "ACK");
      (* a guaranteed violation, so the golden pins that row format too *)
      (Campaign.Both_filters, Generator.Drop_all "MSG") ]

let test_golden_summary () =
  check_golden ~path:"golden/tiny_abp_summary.expected"
    (Campaign.table (tiny_abp_outcomes ()))

(* the JSONL escaping fix, end to end: a trace detail (and field value)
   carrying every byte 0x00-0xFF must emit parseable JSON — valid
   UTF-8 sequences pass through raw, stray bytes become \udcXX — and
   the artifact reader must map it back to the identical byte string. *)
let test_jsonl_full_byte_range_roundtrip () =
  let all = String.init 256 Char.chr in
  let tr = Trace.create () in
  Trace.record tr ~time:(Vtime.us 1) ~node:"n" ~tag:"t"
    ~fields:[ ("k", all) ] all;
  let line = String.trim (Trace_lists.jsonl tr) in
  (match Json.parse line with
   | Error e -> Alcotest.failf "emitted JSONL does not parse back: %s" e
   | Ok json ->
     Alcotest.(check (option string)) "detail round-trips all 256 bytes"
       (Some all)
       (Option.bind (Json.member "detail" json) Json.to_str);
     Alcotest.(check (option string)) "field value round-trips too" (Some all)
       (Option.bind
          (Option.bind (Json.member "fields" json)
             (Json.member "k"))
          Json.to_str));
  (* a real multi-byte sequence must pass through untouched, not be
     byte-escaped: the log stays human-readable for UTF-8 details *)
  let tr2 = Trace.create () in
  Trace.record tr2 ~time:(Vtime.us 2) ~node:"n" ~tag:"t" "caf\xc3\xa9";
  let line2 = Trace_lists.jsonl tr2 in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i =
      i + n <= h && (String.equal (String.sub hay i n) needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "UTF-8 sequence emitted raw" true
    (contains line2 "caf\xc3\xa9");
  (* ...while a lone continuation byte is escaped as its byte value *)
  Alcotest.(check bool) "stray byte escaped as \\udcXX" true
    (contains (String.trim (Trace_lists.jsonl tr)) "\\udc80")

let test_golden_repro_pfis () =
  match tiny_abp_outcomes () with
  | [ _; _; ({ Campaign.verdict = Campaign.Violation reason; _ } as o) ] ->
    let name = Scenario.repro_stem ~index:1 o.Campaign.side o.Campaign.fault in
    let path = Filename.temp_file "pfi-tiny-repro" ".pfis" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Scenario.save_repro path ~verb:"campaign" ~seed:7L
          ~injected_events:o.Campaign.injected_events
          (Scenario.repro ~name ~harness:"abp-buggy" ~seed:o.Campaign.seed
             ~horizon:(Vtime.sec 60) ~side:o.Campaign.side ~reason
             [ o.Campaign.fault ]);
        check_golden ~path:"golden/tiny_abp_repro.expected.pfis" (read_file path))
  | _ -> Alcotest.fail "tiny scenario shape changed"

let suite =
  [ Alcotest.test_case "fault_key stable and collision-free" `Quick
      test_fault_key_stable_and_distinct;
    Alcotest.test_case "fault_key keeps full float precision" `Quick
      test_fault_key_full_precision;
    Alcotest.test_case "trial_seed pure, side- and fault-sensitive" `Quick
      test_trial_seed_pure_and_sensitive;
    Alcotest.test_case "outcome records its seed" `Quick test_outcome_records_seed;
    Alcotest.test_case "run_trial honours the script override" `Quick
      test_run_trial_script_override;
    Alcotest.test_case "campaign summary byte-identical across runs" `Slow
      test_campaign_summary_deterministic;
    Alcotest.test_case "campaign JSONL traces byte-identical across runs" `Slow
      test_campaign_traces_deterministic;
    Alcotest.test_case "permuting sides leaves verdicts unchanged" `Slow
      test_side_permutation_leaves_verdicts;
    Alcotest.test_case "json roundtrips escapes and nesting" `Quick
      test_json_roundtrip_escapes;
    Alcotest.test_case "json parser rejects garbage" `Quick
      test_json_parser_rejects_garbage;
    Alcotest.test_case "json float precision" `Quick test_json_number_precision;
    Alcotest.test_case "every campaign fault roundtrips through a .pfis repro"
      `Quick test_fault_pfis_roundtrip;
    Alcotest.test_case "artifact roundtrips through a file" `Quick
      test_artifact_file_roundtrip;
    Alcotest.test_case "artifact rejects bad input" `Quick
      test_artifact_rejects_bad_input;
    Alcotest.test_case "artifact filename slug" `Quick test_artifact_filename;
    Alcotest.test_case "every shrink candidate is strictly smaller" `Quick
      test_candidates_strictly_smaller;
    Alcotest.test_case "byzantine mix decomposes into constituents" `Quick
      test_byzantine_decomposes;
    Alcotest.test_case "shrink floors respected" `Quick test_shrink_floors;
    Alcotest.test_case "minimize reaches the global minimum" `Quick
      test_minimize_always_violating;
    Alcotest.test_case "minimize refuses a tolerated start" `Quick
      test_minimize_never_violating;
    Alcotest.test_case "minimize respects the trial budget" `Quick
      test_minimize_respects_budget;
    Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
    Alcotest.test_case "shrink+replay: abp-buggy end to end" `Slow
      test_shrink_abp_buggy_end_to_end;
    Alcotest.test_case "shrink+replay: gmp-buggy end to end" `Slow
      test_shrink_gmp_buggy_end_to_end;
    Alcotest.test_case "golden: tiny abp campaign summary" `Quick
      test_golden_summary;
    Alcotest.test_case "jsonl round-trips every byte value" `Quick
      test_jsonl_full_byte_range_roundtrip;
    Alcotest.test_case "golden: repro artifact .pfis" `Quick
      test_golden_repro_pfis;
    Alcotest.test_case "a minimized repro is tolerated by the correct harness"
      `Slow test_shrunk_repro_spares_correct_code;
    Alcotest.test_case "json \\u escapes read as UTF-8, \\udcXX as a byte" `Quick
      test_json_unicode_escapes ]
