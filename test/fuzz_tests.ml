(* Tests for the coverage-guided fuzzer: the coverage extractor, the
   failure-signature normalizer, mutation determinism, executor-width
   invariance of the findings stream, and the headline property — the
   fuzzer re-discovers the implanted abp-buggy and gmp-buggy bugs from
   its bland seed corpus, with no hand-written scenarios. *)

open Pfi_testgen
module Trace = Pfi_engine.Trace
module Vtime = Pfi_engine.Vtime
module Rng = Pfi_engine.Rng

let harness name =
  match Registry.find name with
  | Some h -> h
  | None -> Alcotest.failf "no registry entry %S" name

(* ------------------------------------------------------------------ *)
(* Coverage                                                           *)
(* ------------------------------------------------------------------ *)

let test_hash64_fnv_vectors () =
  (* published FNV-1a 64-bit test vectors *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Rng.fnv1a64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Rng.fnv1a64 "a");
  Alcotest.(check int64) "abc" 0xe71fa2190541574bL (Rng.fnv1a64 "abc")

let trace_of entries =
  let t = Trace.create () in
  List.iter
    (fun (s, node, tag, detail) ->
      Trace.record t ~time:(Vtime.sec s) ~node ~tag detail)
    entries;
  t

let test_coverage_features_deterministic () =
  let entries =
    [ (1, "alice", "abp.send", "bit=0"); (2, "bob", "abp.deliver", "bit=0");
      (3, "alice", "abp.send", "bit=1") ]
  in
  let f1 = Coverage.features_of_trace (trace_of entries) in
  let f2 = Coverage.features_of_trace (trace_of entries) in
  Alcotest.(check (list int)) "same trace, same features"
    (Coverage.feature_list f1) (Coverage.feature_list f2);
  Alcotest.(check bool) "non-empty" true (Coverage.cardinality f1 > 0);
  let f3 =
    Coverage.features_of_trace
      (trace_of [ (1, "alice", "abp.send", "bit=0") ])
  in
  Alcotest.(check bool) "different trace, different features" true
    (Coverage.feature_list f1 <> Coverage.feature_list f3)

let test_coverage_state_features () =
  let t = trace_of [ (1, "alice", "abp.send", "bit=0") ] in
  let base = Coverage.features_of_trace t in
  let ab = Coverage.features_of_trace ~states:[ "A"; "B" ] t in
  let ac = Coverage.features_of_trace ~states:[ "A"; "C" ] t in
  Alcotest.(check bool) "states add features" true
    (Coverage.cardinality ab > Coverage.cardinality base);
  Alcotest.(check bool) "distinct trajectories, distinct features" true
    (Coverage.feature_list ab <> Coverage.feature_list ac)

let test_coverage_merge_counts () =
  let t = trace_of [ (1, "alice", "abp.send", "bit=0") ] in
  let feats = Coverage.features_of_trace t in
  let map = Coverage.create () in
  Alcotest.(check int) "first merge claims every feature"
    (Coverage.cardinality feats) (Coverage.merge map feats);
  Alcotest.(check int) "second merge claims nothing" 0
    (Coverage.merge map feats);
  Alcotest.(check int) "population matches" (Coverage.cardinality feats)
    (Coverage.count map)

(* hit-count buckets: repeating one event must eventually change the
   feature set (1 occurrence vs 8 fall in different log2 classes) *)
let test_coverage_hit_classes () =
  let repeat n =
    trace_of (List.init n (fun i -> (i + 1, "alice", "tcp.retransmit", "seg")))
  in
  let f1 = Coverage.features_of_trace (repeat 1) in
  let f8 = Coverage.features_of_trace (repeat 8) in
  Alcotest.(check bool) "1 vs 8 occurrences differ" true
    (Coverage.feature_list f1 <> Coverage.feature_list f8);
  let f9 = Coverage.features_of_trace (repeat 9) in
  Alcotest.(check (list int)) "8 vs 9 occurrences same log2 class"
    (Coverage.feature_list f8) (Coverage.feature_list f9)

(* a cleared (arena) trace keeps its pair records at count 0; those
   pairs are not recorded, so they add no feature *)
let test_coverage_cleared_pairs_add_nothing () =
  let record t (node, tag) = Trace.record t ~time:Vtime.zero ~node ~tag "" in
  let reused = Trace.create_counting () in
  List.iter (record reused) [ ("n1", "a"); ("n2", "b"); ("n2", "b"); ("n3", "c") ];
  Trace.clear reused;
  record reused ("n1", "a");
  let fresh = Trace.create_counting () in
  record fresh ("n1", "a");
  let pairs t =
    Trace.fold_pairs (fun ~node ~tag n acc -> (node, tag, n) :: acc) t []
  in
  Alcotest.(check (list (triple string string int))) "only the recorded pair"
    [ ("n1", "a", 1) ] (pairs reused);
  Alcotest.(check (list int)) "same features as a fresh trace"
    (Coverage.feature_list (Coverage.features_of_trace fresh))
    (Coverage.feature_list (Coverage.features_of_trace reused))

(* ------------------------------------------------------------------ *)
(* State trajectories                                                 *)
(* ------------------------------------------------------------------ *)

(* every harness's labels go through one collapse rule: here a
   node:tag labeler over two of three tags *)
let test_trajectory_collapses_repeats () =
  let (module A) = harness "abp" in
  let node_tag : Harness_intf.packed =
    (module struct
      include A

      let state_tags = [ "a"; "b" ]
      let state_label (e : Trace.entry) = Some (e.node ^ ":" ^ e.tag)
    end)
  in
  let t =
    trace_of
      [ (1, "n1", "a", ""); (2, "n1", "a", ""); (3, "n2", "b", "");
        (4, "n3", "c", ""); (5, "n2", "b", ""); (6, "n1", "a", "") ]
  in
  Alcotest.(check (list string)) "collapsed node:tag steps"
    [ "n1:a"; "n2:b"; "n1:a" ]
    (Harness_intf.state_of_trace node_tag t)

let test_abp_state_of_trace_alternations () =
  let h = harness "abp" in
  let t =
    trace_of
      [ (1, "alice", "abp.out", "bit=0"); (2, "alice", "abp.out", "bit=0");
        (3, "alice", "abp.out", "bit=1"); (4, "alice", "abp.out", "bit=0") ]
  in
  Alcotest.(check (list string)) "send-bit alternations"
    [ "send-bit=0"; "send-bit=1"; "send-bit=0" ]
    (Harness_intf.state_of_trace h t)

(* ------------------------------------------------------------------ *)
(* Signatures                                                         *)
(* ------------------------------------------------------------------ *)

let test_signature_normalises_digits () =
  let faults = [ Generator.Duplicate "MSG" ] in
  let sig_of reason =
    Fuzz.signature_of ~side:Campaign.Send_filter ~faults ~reason
  in
  Alcotest.(check string) "digit runs collapse"
    "send|duplicate:MSG|delivered N/N messages"
    (sig_of "delivered 3/20 messages");
  Alcotest.(check string) "neighbouring parameters dedupe"
    (sig_of "delivered 3/20 messages")
    (sig_of "delivered 17/20 messages")

let test_signature_strips_parameters () =
  let sig_with p =
    Fuzz.signature_of ~side:Campaign.Receive_filter
      ~faults:[ Generator.Drop_fraction ("ACK", p) ]
      ~reason:"lost"
  in
  Alcotest.(check string) "fault parameters stripped" (sig_with 0.1)
    (sig_with 0.4)

let test_signature_order_insensitive () =
  let f1 = Generator.Delay_each ("MSG", 1.0)
  and f2 = Generator.Corrupt ("MSG", 0.2) in
  Alcotest.(check string) "fault set, not fault sequence"
    (Fuzz.signature_of ~side:Campaign.Send_filter ~faults:[ f1; f2 ]
       ~reason:"r")
    (Fuzz.signature_of ~side:Campaign.Send_filter ~faults:[ f2; f1 ]
       ~reason:"r")

let test_signature_no_digits_property () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"signature never contains digits"
       QCheck.(string_of_size Gen.(0 -- 60))
       (fun reason ->
         let s =
           Fuzz.signature_of ~side:Campaign.Both_filters
             ~faults:[ Generator.Omission_all 0.3 ]
             ~reason
         in
         String.for_all (fun c -> not (c >= '0' && c <= '9')) s))

(* ------------------------------------------------------------------ *)
(* Mutation                                                           *)
(* ------------------------------------------------------------------ *)

let test_mutate_deterministic_and_bounded () =
  let spec = Spec.abp in
  let horizon = Vtime.sec 120 in
  let corpus = Array.of_list (Fuzz.seed_corpus ~spec) in
  let input = corpus.(0) in
  for seed = 1 to 50 do
    let step s =
      Fuzz.mutate
        (Rng.create ~seed:(Int64.of_int s))
        ~spec ~target:"bob" ~horizon ~corpus input
    in
    let a = step seed and b = step seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d reproduces" seed)
      (Fuzz.canonical a) (Fuzz.canonical b);
    let n = List.length a.Fuzz.in_faults in
    Alcotest.(check bool) "fault count within [1, max_faults]" true
      (n >= 1 && n <= Fuzz.max_faults)
  done

(* ------------------------------------------------------------------ *)
(* End-to-end: executor invariance and bug rediscovery                *)
(* ------------------------------------------------------------------ *)

let fuzz_budget = 120

let fuzz ?executor name =
  Fuzz.run ?executor ~seed:1L ~budget:fuzz_budget (harness name)

(* memoized: the rediscovery tests share these runs *)
let abp_result = lazy (fuzz "abp")
let abp_buggy_result = lazy (fuzz "abp-buggy")
let gmp_result = lazy (fuzz "gmp")
let gmp_buggy_result = lazy (fuzz "gmp-buggy")

let signatures r =
  List.map (fun f -> f.Fuzz.fd_signature) r.Fuzz.r_findings

let findings_jsonl harness_name (r : Fuzz.result) =
  String.concat "\n"
    (List.map
       (fun f -> Json.to_line (Fuzz.finding_json ~harness:harness_name f))
       r.Fuzz.r_findings)

let test_fuzz_jobs_invariant () =
  let seq = Lazy.force abp_buggy_result in
  let par = fuzz ~executor:(Executor.of_jobs 4) "abp-buggy" in
  Alcotest.(check int) "same executions" seq.Fuzz.r_execs par.Fuzz.r_execs;
  Alcotest.(check int) "same coverage" seq.Fuzz.r_features par.Fuzz.r_features;
  Alcotest.(check (list string)) "same corpus"
    (List.map Fuzz.canonical seq.Fuzz.r_corpus)
    (List.map Fuzz.canonical par.Fuzz.r_corpus);
  Alcotest.(check string) "byte-identical findings JSONL at jobs=4"
    (findings_jsonl "abp-buggy" seq)
    (findings_jsonl "abp-buggy" par);
  List.iter
    (fun f ->
      let line = Json.to_line (Fuzz.finding_json ~harness:"abp-buggy" f) in
      Alcotest.(check bool) "finding is one line" false
        (String.contains line '\n');
      match Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "finding JSONL line does not parse: %s" e)
    seq.Fuzz.r_findings

let test_fuzz_rediscovers_abp_bug () =
  (* the implanted ignore-ack-bit bug turns fault combinations a
     correct ABP tolerates into lost messages: the buggy harness must
     produce failure signatures the correct one never does *)
  let correct = signatures (Lazy.force abp_result) in
  let buggy = signatures (Lazy.force abp_buggy_result) in
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    n = 0 || go 0
  in
  let buggy_only = List.filter (fun s -> not (List.mem s correct)) buggy in
  Alcotest.(check bool) "buggy-only signatures exist" true (buggy_only <> []);
  Alcotest.(check bool)
    "a lost-message signature is among them (the implanted bug)" true
    (List.exists (contains ~affix:"delivered N/N messages") buggy_only)

let test_fuzz_rediscovers_gmp_bug () =
  let correct = Lazy.force gmp_result in
  let buggy = Lazy.force gmp_buggy_result in
  Alcotest.(check int) "correct gmp fuzzes clean" 0
    (List.length correct.Fuzz.r_findings);
  Alcotest.(check bool) "buggy gmp does not" true
    (buggy.Fuzz.r_findings <> []);
  (* the implanted heartbeat-loss bug, as a minimized single fault *)
  let heartbeat =
    List.find_opt
      (fun f ->
        f.Fuzz.fd_minimized
        &&
        match f.Fuzz.fd_fault with
        | Generator.Drop_first ("HEARTBEAT", _) -> true
        | _ -> false)
      buggy.Fuzz.r_findings
  in
  match heartbeat with
  | None ->
      Alcotest.fail "no minimized drop_first:HEARTBEAT finding in gmp-buggy"
  | Some f ->
      Alcotest.(check bool) "reason blames the membership view" true
        (f.Fuzz.fd_reason <> "")

(* the corpus files [pfi_run fuzz --corpus] writes: one .pfis per
   finding, combination findings included, each an expected failure
   with exactly its finding's reason *)
let test_every_finding_writes_a_repro () =
  let r = Lazy.force abp_buggy_result in
  let dir = Filename.temp_dir "pfi_fuzz_corpus" "" in
  let paths =
    List.mapi
      (fun i (fd : Fuzz.finding) ->
        let name = Scenario.repro_stem ~index:(i + 1) fd.Fuzz.fd_side fd.Fuzz.fd_fault in
        let path = Filename.concat dir (name ^ ".pfis") in
        Scenario.save_repro path ~verb:"fuzz" ~seed:r.Fuzz.r_seed
          ~injected_events:fd.Fuzz.fd_injected_events
          (Fuzz.finding_scenario ~harness:"abp-buggy" ~name fd);
        path)
      r.Fuzz.r_findings
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths; Sys.rmdir dir)
    (fun () ->
      Alcotest.(check int) "one file per finding" 3 (List.length paths);
      Alcotest.(check bool) "combination findings included" true
        (List.exists (fun f -> not f.Fuzz.fd_minimized) r.Fuzz.r_findings);
      List.iter2
        (fun path (fd : Fuzz.finding) ->
          let res = Scenario.run (Scenario.load path) in
          Alcotest.(check string) (path ^ " is an expected failure") "xfail"
            (Scenario.outcome_name res.Scenario.res_outcome);
          Alcotest.(check (list string)) (path ^ " fails with the finding's reason")
            [ fd.Fuzz.fd_reason ]
            (List.map (fun row -> row.Scenario.row_reason) res.Scenario.res_rows))
        paths r.Fuzz.r_findings)

let suite =
  [ Alcotest.test_case "hash64 matches FNV-1a test vectors" `Quick
      test_hash64_fnv_vectors;
    Alcotest.test_case "coverage features are deterministic" `Quick
      test_coverage_features_deterministic;
    Alcotest.test_case "state trajectories feed coverage" `Quick
      test_coverage_state_features;
    Alcotest.test_case "merge counts fresh features once" `Quick
      test_coverage_merge_counts;
    Alcotest.test_case "hit counts bucket by log2 class" `Quick
      test_coverage_hit_classes;
    Alcotest.test_case "cleared trace's zero-count pairs add no features" `Quick
      test_coverage_cleared_pairs_add_nothing;
    Alcotest.test_case "default trajectory collapses repeats" `Quick
      test_trajectory_collapses_repeats;
    Alcotest.test_case "abp trajectory is the send-bit alternation" `Quick
      test_abp_state_of_trace_alternations;
    Alcotest.test_case "signatures collapse digit runs" `Quick
      test_signature_normalises_digits;
    Alcotest.test_case "signatures strip fault parameters" `Quick
      test_signature_strips_parameters;
    Alcotest.test_case "signatures ignore fault order" `Quick
      test_signature_order_insensitive;
    Alcotest.test_case "signatures never contain digits" `Quick
      test_signature_no_digits_property;
    Alcotest.test_case "mutation is seed-deterministic and bounded" `Quick
      test_mutate_deterministic_and_bounded;
    Alcotest.test_case "findings JSONL byte-identical at jobs=4" `Slow
      test_fuzz_jobs_invariant;
    Alcotest.test_case "fuzzer rediscovers the implanted abp bug" `Slow
      test_fuzz_rediscovers_abp_bug;
    Alcotest.test_case "fuzzer rediscovers the implanted gmp bug" `Slow
      test_fuzz_rediscovers_gmp_bug;
    Alcotest.test_case "every finding writes a .pfis repro that checks as xfail"
      `Slow test_every_finding_writes_a_repro ]
