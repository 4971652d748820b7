(* Integration tests: every paper table/figure is regenerated and its
   headline findings are asserted — paper-vs-measured, mechanically. *)

open Pfi_engine
open Pfi_tcp
open Pfi_experiments

let sec_eq expected actual_opt =
  match actual_opt with
  | Some t -> Vtime.equal t expected
  | None -> false

let near ~tol expected = function
  | Some t -> Float.abs (Vtime.to_sec_f t -. expected) <= tol
  | None -> false

(* --- Table 1 ------------------------------------------------------- *)

let test_table1_bsd () =
  List.iter
    (fun p ->
      let m = Tcp_experiments.exp1_measure p in
      Alcotest.(check int) (p.Profile.name ^ " retransmissions") 12
        m.Tcp_experiments.retransmissions;
      Alcotest.(check bool) (p.Profile.name ^ " backoff monotone") true
        m.Tcp_experiments.monotonic_backoff;
      Alcotest.(check bool) (p.Profile.name ^ " plateau 64s") true
        (sec_eq (Vtime.sec 64) m.Tcp_experiments.plateau);
      Alcotest.(check bool) (p.Profile.name ^ " RST sent") true
        m.Tcp_experiments.rst_sent)
    [ Profile.sunos_413; Profile.aix_323; Profile.next_mach ]

let test_table1_solaris () =
  let m = Tcp_experiments.exp1_measure Profile.solaris_23 in
  Alcotest.(check int) "9 retransmissions" 9 m.Tcp_experiments.retransmissions;
  Alcotest.(check bool) "no RST" false m.Tcp_experiments.rst_sent;
  Alcotest.(check bool) "backoff monotone" true m.Tcp_experiments.monotonic_backoff;
  Alcotest.(check string) "closed" "rexmt-exhausted" m.Tcp_experiments.close_reason

(* --- Table 2 / Figure 4 ------------------------------------------- *)

let test_table2_adaptation () =
  (* the paper's exact adapted first-retransmission values *)
  let check name profile expected =
    let m = Tcp_experiments.exp2_measure ~delay_sec:3.0 profile in
    Alcotest.(check bool)
      (Printf.sprintf "%s first retransmission ~%.1fs" name expected)
      true
      (near ~tol:0.3 expected m.Tcp_experiments.first_interval)
  in
  check "SunOS" Profile.sunos_413 6.5;
  check "AIX" Profile.aix_323 8.0;
  check "NeXT" Profile.next_mach 5.0

let test_table2_eight_second () =
  (* with 8 s delays the BSD stacks adapt upward (> 8 s) *)
  List.iter
    (fun p ->
      let m = Tcp_experiments.exp2_measure ~delay_sec:8.0 p in
      match m.Tcp_experiments.first_interval with
      | Some iv ->
        Alcotest.(check bool) (p.Profile.name ^ " adapts past 8s") true
          Vtime.(iv > Vtime.sec 8)
      | None -> Alcotest.fail "no retransmissions measured")
    [ Profile.sunos_413; Profile.aix_323; Profile.next_mach ]

let test_table2_solaris_no_adaptation () =
  let m3 = Tcp_experiments.exp2_measure ~delay_sec:3.0 Profile.solaris_23 in
  let m8 = Tcp_experiments.exp2_measure ~delay_sec:8.0 Profile.solaris_23 in
  let small = function
    | Some iv -> Vtime.(iv < Vtime.sec 2)
    | None -> false
  in
  Alcotest.(check bool) "3s: unadapted RTO" true (small m3.Tcp_experiments.first_interval);
  Alcotest.(check bool) "8s: unadapted RTO" true (small m8.Tcp_experiments.first_interval);
  Alcotest.(check bool) "3s: no RST" false m3.Tcp_experiments.rst_sent;
  Alcotest.(check bool) "closed early" true
    (m3.Tcp_experiments.retransmissions < 9)

let test_global_counter_probe () =
  let m1, m2 = Tcp_experiments.exp2_global_counter () in
  Alcotest.(check int) "m1 retransmitted 6 times" 6 m1;
  Alcotest.(check int) "m2 retransmitted 3 times" 3 m2

let test_figure4_shape () =
  let fig = Tcp_experiments.figure4 () in
  Alcotest.(check int) "12 series (4 vendors x 3 delays)" 12
    (List.length fig.Report.series);
  List.iter
    (fun s ->
      let ys = List.map snd s.Report.points in
      Alcotest.(check bool) (s.Report.series_label ^ " nonempty") true (ys <> []);
      (* nondecreasing: exponential backoff up to a plateau *)
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 0.001 && mono rest
        | _ -> true
      in
      Alcotest.(check bool) (s.Report.series_label ^ " nondecreasing") true (mono ys))
    fig.Report.series

(* --- Table 3 ------------------------------------------------------- *)

let test_table3_bsd_keepalive () =
  let m = Tcp_experiments.exp3_measure ~drop_probes:true Profile.sunos_413 in
  Alcotest.(check bool) "first probe ~7200s" true
    (near ~tol:5.0 7200.0 m.Tcp_experiments.first_probe_at);
  Alcotest.(check int) "9 probes (first + 8 retries)" 9 m.Tcp_experiments.probe_count;
  List.iter
    (fun iv ->
      Alcotest.(check bool) "75 s apart" true (Vtime.equal iv (Vtime.sec 75)))
    m.Tcp_experiments.probe_intervals;
  Alcotest.(check bool) "RST on failure" true m.Tcp_experiments.ka_rst_sent

let test_table3_solaris_keepalive () =
  let m = Tcp_experiments.exp3_measure ~drop_probes:true Profile.solaris_23 in
  Alcotest.(check bool) "first probe at 6752s (spec violation)" true
    (near ~tol:5.0 6752.0 m.Tcp_experiments.first_probe_at);
  Alcotest.(check int) "8 probes (first + 7 backoff)" 8 m.Tcp_experiments.probe_count;
  Alcotest.(check bool) "no RST" false m.Tcp_experiments.ka_rst_sent;
  (* exponential backoff between probes *)
  let rec mono = function
    | a :: (b :: _ as rest) -> Vtime.(a <= b) && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "backoff" true (mono m.Tcp_experiments.probe_intervals)

let test_table3_acked_keepalive_repeats () =
  let m = Tcp_experiments.exp3_measure ~drop_probes:false Profile.sunos_413 in
  Alcotest.(check bool) "several probes" true (m.Tcp_experiments.probe_count >= 3);
  Alcotest.(check string) "connection survives" "(still open)"
    m.Tcp_experiments.ka_close_reason;
  List.iter
    (fun iv ->
      Alcotest.(check bool) "~7200s apart" true
        Vtime.(iv >= Vtime.sec 7199 && iv <= Vtime.sec 7205))
    m.Tcp_experiments.probe_intervals

(* --- Table 4 ------------------------------------------------------- *)

let test_table4_caps () =
  let sun = Tcp_experiments.exp4_measure ~variant:`Acked Profile.sunos_413 in
  let sol = Tcp_experiments.exp4_measure ~variant:`Acked Profile.solaris_23 in
  Alcotest.(check bool) "BSD 60s cap" true
    (sec_eq (Vtime.sec 60) sun.Tcp_experiments.probe_cap);
  Alcotest.(check bool) "Solaris 56s cap (56/60 = 6752/7200)" true
    (sec_eq (Vtime.sec 56) sol.Tcp_experiments.probe_cap)

let test_table4_indefinite () =
  let m = Tcp_experiments.exp4_measure ~variant:`Dropped Profile.sunos_413 in
  Alcotest.(check bool) "many probes despite no ACKs" true
    (m.Tcp_experiments.probe_count >= 50);
  Alcotest.(check bool) "connection never reset" true
    m.Tcp_experiments.still_established

let test_table4_unplug () =
  let m = Tcp_experiments.exp4_measure ~variant:`Unplug_two_days Profile.sunos_413 in
  Alcotest.(check bool) "probes resumed after 2-day unplug" true
    (m.Tcp_experiments.probes_after_replug >= 5);
  Alcotest.(check bool) "still open" true m.Tcp_experiments.still_established

(* --- Experiment 5 -------------------------------------------------- *)

let test_exp5_all_queue () =
  List.iter
    (fun p ->
      let m = Tcp_experiments.exp5_measure p in
      Alcotest.(check bool) (p.Profile.name ^ " queued + in order") true
        m.Tcp_experiments.delivered_in_order)
    Profile.all_vendors

(* --- Table 5 ------------------------------------------------------- *)

let test_table5_self_death () =
  let bug = Gmp_experiments.self_heartbeat_drop ~bugs:true in
  Alcotest.(check bool) "declared itself dead" true (bug.Gmp_experiments.self_dead_events >= 1);
  Alcotest.(check bool) "stuck in old group marked down" true
    bug.Gmp_experiments.marked_down_not_singleton;
  Alcotest.(check bool) "forwarding silently broken" true
    (bug.Gmp_experiments.forwarding_drops >= 1);
  let fixed = Gmp_experiments.self_heartbeat_drop ~bugs:false in
  Alcotest.(check bool) "fixed: singleton formed" true fixed.Gmp_experiments.formed_singleton;
  Alcotest.(check bool) "fixed: no broken state" false
    fixed.Gmp_experiments.marked_down_not_singleton

let test_table5_kick_cycle () =
  let m = Gmp_experiments.other_heartbeat_drop () in
  Alcotest.(check bool) "kicked repeatedly" true (m.Gmp_experiments.kicked >= 2);
  Alcotest.(check bool) "readmitted repeatedly" true (m.Gmp_experiments.readmitted >= 2)

let test_table5_ack_drop () =
  let m = Gmp_experiments.mc_ack_drop () in
  Alcotest.(check bool) "never admitted" false m.Gmp_experiments.ever_admitted;
  Alcotest.(check bool) "kept trying" true (m.Gmp_experiments.join_attempts >= 2)

let test_table5_commit_drop () =
  let m = Gmp_experiments.commit_drop () in
  Alcotest.(check bool) "others committed it" true
    m.Gmp_experiments.briefly_committed_by_others;
  Alcotest.(check bool) "kicked for silence" true m.Gmp_experiments.kicked_after_silence;
  Alcotest.(check bool) "victim cycles in transition" true
    m.Gmp_experiments.victim_stuck_then_cycled

(* --- Table 6 ------------------------------------------------------- *)

let test_table6_partition () =
  let m = Gmp_experiments.partition_oscillation () in
  Alcotest.(check bool) "disjoint groups during split" true m.Gmp_experiments.split_views_ok;
  Alcotest.(check bool) "merged after heal" true m.Gmp_experiments.merged_after_heal;
  Alcotest.(check bool) "cycle repeats" true m.Gmp_experiments.second_split_ok

let test_table6_separation () =
  let m = Gmp_experiments.leader_crown_prince_separation () in
  Alcotest.(check (list int)) "leader group excludes crown prince" [ 1; 3; 4; 5 ]
    m.Gmp_experiments.final_leader_group;
  Alcotest.(check bool) "crown prince isolated" true
    m.Gmp_experiments.crown_prince_isolated

(* --- Table 7 ------------------------------------------------------- *)

let test_table7 () =
  let bug = Gmp_experiments.proclaim_forwarding ~bugs:true in
  Alcotest.(check bool) "loop detected" true bug.Gmp_experiments.loop_detected;
  Alcotest.(check bool) "never admitted under the bug" false
    bug.Gmp_experiments.originator_admitted;
  let fixed = Gmp_experiments.proclaim_forwarding ~bugs:false in
  Alcotest.(check bool) "no loop after fix" false fixed.Gmp_experiments.loop_detected;
  Alcotest.(check bool) "admitted after fix" true
    fixed.Gmp_experiments.originator_admitted

(* --- Table 8 ------------------------------------------------------- *)

let test_table8 () =
  let bug = Gmp_experiments.timer_test ~bugs:true in
  Alcotest.(check bool) "spurious timeout under the bug" true
    (bug.Gmp_experiments.spurious_timeouts >= 1);
  Alcotest.(check bool) "extra timers armed in transition" true
    (List.exists
       (fun name -> String.length name > 7 && String.sub name 0 7 = "expect_")
       bug.Gmp_experiments.timers_seen_in_transition);
  let fixed = Gmp_experiments.timer_test ~bugs:false in
  Alcotest.(check int) "no spurious timeouts after fix" 0
    fixed.Gmp_experiments.spurious_timeouts;
  Alcotest.(check (list string)) "only the MC timer armed" [ "mc_wait" ]
    fixed.Gmp_experiments.timers_seen_in_transition

(* --- Ablations ----------------------------------------------------- *)

let test_ablation_karn () =
  let m = Ablations.karn_sampling () in
  match (m.Ablations.with_karn_srtt, m.Ablations.without_karn_srtt) with
  | Some with_karn, Some without_karn ->
    Alcotest.(check bool) "karn keeps the estimate near the true RTT" true
      Vtime.(with_karn < Vtime.ms 800);
    Alcotest.(check bool) "without karn the estimate is inflated" true
      Vtime.(without_karn > Vtime.mul with_karn 4)
  | _ -> Alcotest.fail "missing srtt estimates"

let test_ablation_counter () =
  let m = Ablations.counter_policy () in
  Alcotest.(check int) "global counter: m2 inherits m1's timeouts" 3
    m.Ablations.global_m2_retries;
  Alcotest.(check int) "per-segment: m2 gets the full budget" 9
    m.Ablations.per_segment_m2_retries

(* --- JSON rendering ------------------------------------------------ *)

let test_report_to_json () =
  let table =
    Report.make ~id:"Table 0" ~title:{|quote " and \ slash|}
      ~header:[ "a"; "b" ]
      ~notes:[ "note
with newline" ]
      [ [ "r1c1"; "r1c2" ]; [ "r2c1"; "r2c2" ] ]
  in
  Alcotest.(check string) "escaped, self-contained object"
    ({|{"id":"Table 0","title":"quote \" and \\ slash","header":["a","b"],|}
    ^ {|"rows":[["r1c1","r1c2"],["r2c1","r2c2"]],"notes":["note\nwith newline"]}|})
    (Report.to_json table);
  let fig =
    { Report.fig_id = "Figure 0"; fig_title = "t"; x_label = "x"; y_label = "y";
      series = [ { Report.series_label = "s"; points = [ (1.0, 2.5); (2.0, 64.0) ] } ] }
  in
  Alcotest.(check string) "figure json"
    {|{"id":"Figure 0","title":"t","x_label":"x","y_label":"y","series":[{"label":"s","points":[[1,2.5],[2,64]]}]}|}
    (Report.figure_to_json fig)

(* every artifact is a pure function of seeds and code: regenerating a
   TCP and a GMP table in one process must serialise identically *)
let test_reports_deterministic () =
  List.iter
    (fun (name, table) ->
      let a = Report.to_json (table ()) in
      Alcotest.(check string) (name ^ " regenerates identically") a
        (Report.to_json (table ())))
    [ ("Table 1", Tcp_experiments.table1); ("Table 7", Gmp_experiments.table7) ]

let suite =
  [
    Alcotest.test_case "report to_json" `Quick test_report_to_json;
    Alcotest.test_case "reports regenerate identically" `Slow
      test_reports_deterministic;
    Alcotest.test_case "table1: BSD vendors" `Slow test_table1_bsd;
    Alcotest.test_case "table1: Solaris" `Slow test_table1_solaris;
    Alcotest.test_case "table2: BSD adaptation (6.5/8/5 s)" `Slow test_table2_adaptation;
    Alcotest.test_case "table2: 8 s delays" `Slow test_table2_eight_second;
    Alcotest.test_case "table2: Solaris no adaptation" `Slow test_table2_solaris_no_adaptation;
    Alcotest.test_case "table2: global counter 6+3" `Slow test_global_counter_probe;
    Alcotest.test_case "figure4: backoff shape" `Slow test_figure4_shape;
    Alcotest.test_case "table3: BSD keepalive" `Slow test_table3_bsd_keepalive;
    Alcotest.test_case "table3: Solaris keepalive" `Slow test_table3_solaris_keepalive;
    Alcotest.test_case "table3: ACKed keepalive repeats" `Slow test_table3_acked_keepalive_repeats;
    Alcotest.test_case "table4: probe interval caps" `Slow test_table4_caps;
    Alcotest.test_case "table4: probing is indefinite" `Slow test_table4_indefinite;
    Alcotest.test_case "table4: two-day unplug" `Slow test_table4_unplug;
    Alcotest.test_case "exp5: all vendors queue" `Slow test_exp5_all_queue;
    Alcotest.test_case "table5: self-death bug" `Slow test_table5_self_death;
    Alcotest.test_case "table5: kick/rejoin cycle" `Slow test_table5_kick_cycle;
    Alcotest.test_case "table5: ACK drop" `Slow test_table5_ack_drop;
    Alcotest.test_case "table5: COMMIT drop" `Slow test_table5_commit_drop;
    Alcotest.test_case "table6: partition oscillation" `Slow test_table6_partition;
    Alcotest.test_case "table6: leader/crown-prince" `Slow test_table6_separation;
    Alcotest.test_case "table7: proclaim forwarding" `Slow test_table7;
    Alcotest.test_case "table8: timer test" `Slow test_table8;
    Alcotest.test_case "ablation: Karn sampling" `Slow test_ablation_karn;
    Alcotest.test_case "ablation: counter policy" `Slow test_ablation_counter;
  ]
