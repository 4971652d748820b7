(* The conformance catalogs.  The vendor matrix: golden reports over
   the two-row subset, jobs-width parity over the full catalog, the
   wrong-knob negative control, the committed EXPERIMENTS_tcp.md
   artifact, and a qcheck state-machine property that every tcp.state
   transition observed under random fault schedules stays inside the
   RFC 793 relation.  The paper catalog: its shape, the committed
   EXPERIMENTS_paper.md artifact, jobs-width and seed behaviour, and the
   GMP buggy/fixed negative control.  [experiments_suite] names each
   paper experiment's headline findings and asserts the row checks that
   measure them. *)

open Pfi_engine
open Pfi_tcp
open Pfi_testgen

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let local path = Filename.concat (Filename.dirname Sys.executable_name) path

let check_golden ~path actual =
  let expected = read_file (local path) in
  if actual <> expected then
    Alcotest.failf
      "output differs from %s —\n--- expected ---\n%s\n--- actual ---\n%s" path
      expected actual

(* ------------------------------------------------------------------ *)
(* Catalog shape                                                      *)
(* ------------------------------------------------------------------ *)

let test_catalog_shape () =
  let rows = Conformance.catalog () in
  Alcotest.(check int) "6 sections x 4 vendors" 24 (List.length rows);
  let ids = List.map Conformance.row_id rows in
  Alcotest.(check int)
    "row ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun section ->
      Alcotest.(check int)
        (section ^ " covers every vendor")
        (List.length Profile.all_vendors)
        (List.length
           (List.filter
              (fun r -> Conformance.row_section r = section)
              rows)))
    [ "rexmt"; "counter"; "keepalive"; "zerowin"; "handshake"; "teardown" ];
  List.iter
    (fun r ->
      Alcotest.(check string)
        "row id is SECTION/VENDOR-SLUG"
        (Conformance.row_section r ^ "/" ^ Conformance.row_vendor r)
        (Conformance.row_id r))
    rows

(* ------------------------------------------------------------------ *)
(* Golden reports (two-row subset)                                    *)
(* ------------------------------------------------------------------ *)

let test_golden_reports () =
  let rep = Conformance.run (Conformance.golden_catalog ()) in
  Alcotest.(check int) "both golden rows pass" 2 (Conformance.passed rep);
  check_golden ~path:"golden/conformance_golden.md"
    (Conformance.to_markdown rep);
  check_golden ~path:"golden/conformance_golden.json"
    (Json.to_string (Conformance.to_json rep) ^ "\n")

let test_jobs_parity () =
  let rows = Conformance.catalog () in
  let seq = Conformance.run ~executor:(Executor.of_jobs 1) rows in
  let par = Conformance.run ~executor:(Executor.of_jobs 4) rows in
  Alcotest.(check string)
    "markdown is byte-identical at jobs 1 and 4"
    (Conformance.to_markdown seq) (Conformance.to_markdown par);
  Alcotest.(check string)
    "json is byte-identical at jobs 1 and 4"
    (Json.to_string (Conformance.to_json seq))
    (Json.to_string (Conformance.to_json par))

(* both catalogs at the default seed, run once and shared *)
let tcp_report = lazy (Conformance.run (Conformance.catalog ()))
let paper_report = lazy (Conformance.run (Paper.catalog ()))

(* the committed artifact is exactly what `pfi_run matrix --report`
   regenerates at the default seed *)
let test_committed_artifact () =
  let rep = Lazy.force tcp_report in
  Alcotest.(check int)
    "every catalog row re-discovers its quirk" (Conformance.total rep)
    (Conformance.passed rep);
  check_golden ~path:(Filename.concat ".." "EXPERIMENTS_tcp.md")
    (Conformance.to_markdown rep)

(* ------------------------------------------------------------------ *)
(* Negative control                                                   *)
(* ------------------------------------------------------------------ *)

(* running the SunOS rexmt row against Solaris must fail exactly the
   vendor-discriminating checks — proof the oracles measure the stack,
   not the configuration *)
let test_negative_override () =
  let rep =
    Conformance.run ~profile_override:"solaris-2.3"
      (Conformance.golden_catalog ())
  in
  let find id =
    List.find
      (fun r -> r.Conformance.res_id = id)
      rep.Conformance.rep_results
  in
  let sunos = find "rexmt/sunos-4.1.3" in
  let solaris = find "rexmt/solaris-2.3" in
  Alcotest.(check bool)
    "SunOS row fails under the Solaris stack" false
    sunos.Conformance.res_pass;
  Alcotest.(check bool)
    "Solaris row still passes" true solaris.Conformance.res_pass;
  let failing =
    List.filter_map
      (fun c ->
        if c.Conformance.ck_pass then None else Some c.Conformance.ck_label)
      sunos.Conformance.res_checks
  in
  Alcotest.(check (list string))
    "exactly the vendor-discriminating checks fail"
    [ "retransmissions before giving up"; "backoff ceiling";
      "failure action" ]
    failing

let test_unknown_override () =
  Alcotest.check_raises "unknown profile is rejected"
    (Invalid_argument
       "Conformance.run: unknown vendor profile plan-9")
    (fun () ->
      ignore
        (Conformance.run ~profile_override:"plan-9"
           (Conformance.golden_catalog ())))

(* ------------------------------------------------------------------ *)
(* The paper catalog                                                  *)
(* ------------------------------------------------------------------ *)

let paper_sections =
  [ "table2"; "retry"; "keepalive-acked"; "zerowin-unanswered"; "exp5";
    "table5"; "table6"; "table7"; "table8"; "ablation-karn" ]

let test_paper_shape () =
  let rows = Paper.catalog () in
  let ids = List.map Conformance.row_id rows in
  Alcotest.(check int)
    "row ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  let sections =
    List.fold_left
      (fun acc r ->
        let s = Conformance.row_section r in
        if List.mem s acc then acc else acc @ [ s ])
      [] rows
  in
  Alcotest.(check (list string))
    "every section has rows, in report order" paper_sections sections

let test_paper_artifact () =
  let rep = Lazy.force paper_report in
  Alcotest.(check int)
    "every paper row passes" (Conformance.total rep) (Conformance.passed rep);
  check_golden ~path:(Filename.concat ".." "EXPERIMENTS_paper.md")
    (Conformance.to_markdown rep)

let find_result rep id =
  match
    List.find_opt (fun r -> r.Conformance.res_id = id) rep.Conformance.rep_results
  with
  | Some r -> r
  | None -> Alcotest.failf "no row %s" id

(* each buggy/fixed pair both passes and disagrees on some check's paper
   value: the rows assert the bug's presence and its absence *)
let test_gmp_negative_control () =
  let rep = Lazy.force paper_report in
  List.iter
    (fun (buggy, fixed) ->
      let b = find_result rep buggy and f = find_result rep fixed in
      Alcotest.(check bool) (buggy ^ " passes") true b.Conformance.res_pass;
      Alcotest.(check bool) (fixed ^ " passes") true f.Conformance.res_pass;
      let paper_of r label =
        List.find_map
          (fun c ->
            if c.Conformance.ck_label = label then Some c.Conformance.ck_paper
            else None)
          r.Conformance.res_checks
      in
      Alcotest.(check bool)
        (buggy ^ " and " ^ fixed ^ " expect different values")
        true
        (List.exists
           (fun c ->
             match paper_of f c.Conformance.ck_label with
             | Some v -> v <> c.Conformance.ck_paper
             | None -> false)
           b.Conformance.res_checks))
    [ ("table5/self-death-buggy", "table5/self-death-fixed");
      ("table7/proclaim-buggy", "table7/proclaim-fixed");
      ("table8/timer-buggy", "table8/timer-fixed") ]

let test_paper_override_rejected () =
  Alcotest.check_raises "a profile override needs vendor rows"
    (Invalid_argument
       "Conformance.run: a profile override applies to the tcp catalog only")
    (fun () ->
      ignore (Conformance.run ~profile_override:"solaris-2.3" (Paper.catalog ())))

(* --seed reaches every paper row: the derived row seeds change, the
   seed-sensitive Karn row measures different samples, and every row
   still passes *)
let test_paper_seed () =
  let base = Lazy.force paper_report in
  let other = Conformance.run ~seed:3L (Paper.catalog ()) in
  Alcotest.(check int)
    "every row passes at --seed 3" (Conformance.total other)
    (Conformance.passed other);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (a.Conformance.res_id ^ " seed differs") true
        (a.Conformance.res_seed <> b.Conformance.res_seed))
    base.Conformance.rep_results other.Conformance.rep_results;
  (* with Karn sampling on, every sub-trial's srtt settles on the 200 ms
     path delay whatever the seed; without it, the seed moves the
     RTO-inflated samples *)
  let cell rep label =
    (List.find
       (fun c -> c.Conformance.ck_label = label)
       (find_result rep "ablation-karn/xkernel-lossy").Conformance.res_checks)
      .Conformance.ck_measured
  in
  Alcotest.(check string) "the Karn-on cell is the same at both seeds"
    (cell base "srtt, Karn sampling on") (cell other "srtt, Karn sampling on");
  Alcotest.(check bool) "the Karn-off cell differs" true
    (cell base "srtt, Karn sampling off" <> cell other "srtt, Karn sampling off")

(* ------------------------------------------------------------------ *)
(* The paper experiments' headline findings                           *)
(* ------------------------------------------------------------------ *)

(* which row checks assert each finding: [(catalog, row id, labels)],
   where no labels means every check of the row *)
let findings =
  let bsd = [ "sunos-4.1.3"; "aix-3.2.3"; "next-mach" ] in
  let vendors = bsd @ [ "solaris-2.3" ] in
  let rows cat prefix suffix labels slugs =
    List.map (fun v -> (cat, prefix ^ v ^ suffix, labels)) slugs
  in
  [ ("table1: BSD vendors", rows `Tcp "rexmt/" "" [] bsd);
    ("table1: Solaris", rows `Tcp "rexmt/" "" [] [ "solaris-2.3" ]);
    ( "table2: BSD adaptation (6.5/8/5 s)",
      rows `Paper "table2/" "-3s" [ "first retransmission" ] bsd );
    ( "table2: 8 s delays",
      rows `Paper "table2/" "-8s" [ "first retransmission" ] bsd );
    ( "table2: Solaris no adaptation",
      rows `Paper "table2/solaris-2.3" "" [] [ "-3s"; "-8s" ] );
    ("table2: global counter 6+3", [ (`Paper, "retry/solaris-2.3-global", []) ]);
    ( "figure4: backoff shape",
      rows `Tcp "rexmt/" "" [ "backoff trend" ] vendors
      @ rows `Paper "table2/" "-3s" [ "interval series (Figure 4)" ] vendors
      @ rows `Paper "table2/" "-8s" [ "interval series (Figure 4)" ] vendors );
    ("table3: BSD keepalive", rows `Tcp "keepalive/" "" [] bsd);
    ("table3: Solaris keepalive", rows `Tcp "keepalive/" "" [] [ "solaris-2.3" ]);
    ( "table3: ACKed keepalive repeats",
      rows `Paper "keepalive-acked/" "" [] vendors );
    ( "table4: probe interval caps",
      rows `Tcp "zerowin/" "" [ "probe-interval ceiling" ] vendors );
    ( "table4: probing is indefinite",
      rows `Paper "zerowin-unanswered/" "" [] vendors );
    ( "table4: two-day unplug",
      [ (`Paper, "zerowin-unanswered/sunos-4.1.3-unplug", []) ] );
    ("exp5: all vendors queue", rows `Paper "exp5/" "" [] vendors);
    ( "table5: self-death bug",
      rows `Paper "table5/self-death-" "" [] [ "buggy"; "fixed" ] );
    ("table5: kick/rejoin cycle", [ (`Paper, "table5/kick-cycle", []) ]);
    ("table5: ACK drop", [ (`Paper, "table5/mc-ack-drop", []) ]);
    ("table5: COMMIT drop", [ (`Paper, "table5/commit-drop", []) ]);
    ("table6: partition oscillation", [ (`Paper, "table6/partition", []) ]);
    ("table6: leader/crown-prince", [ (`Paper, "table6/separation", []) ]);
    ( "table7: proclaim forwarding",
      rows `Paper "table7/proclaim-" "" [] [ "buggy"; "fixed" ] );
    ("table8: timer test", rows `Paper "table8/timer-" "" [] [ "buggy"; "fixed" ]);
    ("ablation: Karn sampling", [ (`Paper, "ablation-karn/xkernel-lossy", []) ]);
    ( "ablation: counter policy",
      rows `Paper "retry/solaris-2.3-" ""
        [ "m2 retransmissions before the connection died" ]
        [ "global"; "per-segment" ] ) ]

let assert_finding refs () =
  List.iter
    (fun (cat, id, labels) ->
      let rep =
        Lazy.force (match cat with `Tcp -> tcp_report | `Paper -> paper_report)
      in
      let r = find_result rep id in
      let checks =
        if labels = [] then r.Conformance.res_checks
        else
          List.filter
            (fun c -> List.mem c.Conformance.ck_label labels)
            r.Conformance.res_checks
      in
      Alcotest.(check int)
        (id ^ " has the named checks")
        (if labels = [] then List.length r.Conformance.res_checks
         else List.length labels)
        (List.length checks);
      List.iter
        (fun c ->
          if not c.Conformance.ck_pass then
            Alcotest.failf "%s: %s: paper %s, measured %s" id
              c.Conformance.ck_label c.Conformance.ck_paper
              c.Conformance.ck_measured)
        checks)
    refs

(* a report's JSON form is one self-contained object with every cell
   escaped *)
let test_report_to_json () =
  let section = Conformance.paper_section ~key:"s" ~title:"t" ~blurb:"b" in
  let row =
    Conformance.paper_row ~section ~slug:"x" ~subject:{|quote " and \ slash|}
      ~quirk:"note\nwith newline" (fun _ ->
        [ Conformance.check "c" ~paper:"1" ~measured:"2" ])
  in
  Alcotest.(check string) "escaped, self-contained object"
    ({|{"format":"pfi-conformance/1","campaign_seed":"7","profile_override":null,|}
    ^ {|"rows_total":1,"rows_passed":0,"checks_total":1,"checks_passed":0,|}
    ^ {|"rows":[{"id":"s/x","section":"s","vendor":"quote \" and \\ slash",|}
    ^ {|"quirk":"note\nwith newline","seed":"4758204728046338263","pass":false,|}
    ^ {|"checks":[{"check":"c","paper":"1","measured":"2","pass":false}]}]}|})
    (Json.to_line (Conformance.to_json (Conformance.run ~seed:7L [ row ])))

(* the paper catalog regenerates byte-identically, sequentially and on
   four domains *)
let test_paper_regenerates () =
  let seq = Lazy.force paper_report in
  let par = Conformance.run ~executor:(Executor.of_jobs 4) (Paper.catalog ()) in
  Alcotest.(check string)
    "markdown is byte-identical at jobs 1 and 4"
    (Conformance.to_markdown seq) (Conformance.to_markdown par);
  Alcotest.(check string)
    "json is byte-identical at jobs 1 and 4"
    (Json.to_string (Conformance.to_json seq))
    (Json.to_string (Conformance.to_json par))

let experiments_suite =
  Alcotest.test_case "report to_json" `Quick test_report_to_json
  :: Alcotest.test_case "reports regenerate identically" `Quick
       test_paper_regenerates
  :: List.map
       (fun (name, refs) -> Alcotest.test_case name `Quick (assert_finding refs))
       findings

(* ------------------------------------------------------------------ *)
(* RFC 793 state-machine property                                     *)
(* ------------------------------------------------------------------ *)

(* the legal transition relation (CLOSED is reachable from any state
   via reset/abort/teardown, which RFC 793 draws as "delete TCB") *)
let allowed_transition =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (a, bs) -> List.iter (fun b -> Hashtbl.replace t (a, b) ()) bs)
    [ ("LISTEN", [ "SYN_RCVD"; "SYN_SENT"; "CLOSED" ]);
      ("SYN_SENT", [ "ESTABLISHED"; "SYN_RCVD"; "CLOSED" ]);
      ("SYN_RCVD", [ "ESTABLISHED"; "FIN_WAIT_1"; "LISTEN"; "CLOSED" ]);
      ("ESTABLISHED", [ "FIN_WAIT_1"; "CLOSE_WAIT"; "CLOSED" ]);
      ("FIN_WAIT_1", [ "FIN_WAIT_2"; "CLOSING"; "TIME_WAIT"; "CLOSED" ]);
      ("FIN_WAIT_2", [ "TIME_WAIT"; "CLOSED" ]);
      ("CLOSING", [ "TIME_WAIT"; "CLOSED" ]);
      ("CLOSE_WAIT", [ "LAST_ACK"; "CLOSED" ]);
      ("LAST_ACK", [ "CLOSED" ]);
      ("TIME_WAIT", [ "CLOSED" ]) ];
  fun a b -> Hashtbl.mem t (a, b)

let fsm_faults =
  [| Generator.Drop_first ("SYN", 2);
     Generator.Drop_first ("DATA", 3);
     Generator.Drop_nth ("ACK", 3);
     Generator.Duplicate "FIN";
     Generator.Duplicate "DATA";
     Generator.Delay_each ("ACK", 0.5);
     Generator.Reorder "DATA";
     Generator.Drop_all "FIN";
     Generator.Omission_all 0.2;
     Generator.Byzantine_mix 0.1 |]

let fsm_phases = [| Tcp_harness.Handshake; Tcp_harness.Stream; Tcp_harness.Close |]

let fsm_sides =
  [| Campaign.Send_filter; Campaign.Receive_filter; Campaign.Both_filters |]

let prop_fsm_transitions =
  let gen =
    QCheck.Gen.(
      pair
        (quad
           (int_bound (List.length Profile.all_vendors - 1))
           (int_bound (Array.length fsm_phases - 1))
           (int_bound (Array.length fsm_faults - 1))
           (int_bound (Array.length fsm_sides - 1)))
        (int_bound 999))
  in
  let print ((v, p, f, s), seed) =
    Printf.sprintf "vendor=%d phase=%d fault=%d side=%d seed=%d" v p f s seed
  in
  QCheck.Test.make
    ~name:"every tcp.state transition under random faults is in RFC 793"
    ~count:60
    (QCheck.make ~print gen)
    (fun ((v, p, f, s), seed) ->
      let profile = List.nth Profile.all_vendors v in
      let harness =
        Tcp_harness.harness ~chunk_count:6 ~profile ~phase:fsm_phases.(p) ()
      in
      let _, trace =
        Trace_lists.stored_trial harness
          ~horizon:(Vtime.minutes 10)
          (Campaign.trial
             ~seed:(Int64.of_int (1000 + seed))
             ~side:fsm_sides.(s) fsm_faults.(f))
      in
      List.for_all
        (fun e ->
          (* detail is "port=N A -> B" *)
          match String.split_on_char ' ' (Trace.detail e) with
          | [ _port; a; "->"; b ] ->
            allowed_transition a b
            || QCheck.Test.fail_reportf
                 "illegal transition %s -> %s on %s (%s)" a b e.Trace.node
                 (Trace.detail e)
          | _ ->
            QCheck.Test.fail_reportf "unparseable tcp.state detail %S"
              (Trace.detail e))
        (Trace_lists.find ~tag:"tcp.state" trace))

let suite =
  [ Alcotest.test_case "catalog covers 6 sections x 4 vendors" `Quick
      test_catalog_shape;
    Alcotest.test_case "golden subset matches committed reports" `Quick
      test_golden_reports;
    Alcotest.test_case "reports are jobs-invariant" `Slow test_jobs_parity;
    Alcotest.test_case "committed EXPERIMENTS_tcp.md matches regeneration"
      `Quick test_committed_artifact;
    Alcotest.test_case "profile override fails the mismatched rows" `Quick
      test_negative_override;
    Alcotest.test_case "unknown profile override is rejected" `Quick
      test_unknown_override;
    Alcotest.test_case "paper catalog: unique ids, every section present"
      `Quick test_paper_shape;
    Alcotest.test_case "committed EXPERIMENTS_paper.md matches regeneration"
      `Quick test_paper_artifact;
    Alcotest.test_case "GMP buggy/fixed rows are a negative control" `Quick
      test_gmp_negative_control;
    Alcotest.test_case "profile override is rejected for paper rows" `Quick
      test_paper_override_rejected;
    Alcotest.test_case "--seed reaches every paper row" `Quick test_paper_seed;
    QCheck_alcotest.to_alcotest prop_fsm_transitions ]
