(* Oracle combinator semantics and the *.pfis scenario conformance
   suite: the checked-in corpus under test/scenarios/ runs inside
   `dune runtest`, exactly as `pfi_run check` would run it. *)

open Pfi_engine
open Pfi_testgen

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* A hand-built trace for oracle semantics                             *)
(* ------------------------------------------------------------------ *)

(*  #0 @1s alice abp.out  "MSG bit=0 msg-00"
    #1 @2s bob   abp.deliver "msg-00"  {bit=0}
    #2 @3s alice abp.retransmit "MSG bit=0 msg-00"
    #3 @4s bob   abp.deliver "msg-01"  {bit=1}
    #4 @9s bob   abp.bad-frame "garbage"                               *)
let sample_trace () =
  let t = Trace.create () in
  let rec1 ?(fields = []) time node tag detail =
    Trace.record ~fields t ~time:(Vtime.sec time) ~node ~tag detail
  in
  rec1 1 "alice" "abp.out" "MSG bit=0 msg-00";
  rec1 ~fields:[ ("bit", "0") ] 2 "bob" "abp.deliver" "msg-00";
  rec1 3 "alice" "abp.retransmit" "MSG bit=0 msg-00";
  rec1 ~fields:[ ("bit", "1") ] 4 "bob" "abp.deliver" "msg-01";
  rec1 9 "bob" "abp.bad-frame" "garbage";
  t

let eval o =
  let v = Oracle.eval o (sample_trace ()) in
  (v.Oracle.pass, v.Oracle.witness)

let deliver = Oracle.pattern ~tag:"abp.deliver" ()

let test_eventually () =
  Alcotest.(check (pair bool (option int)))
    "first match is the witness" (true, Some 1)
    (eval (Oracle.Eventually deliver));
  let v = Oracle.eval (Oracle.Eventually (Oracle.pattern ~tag:"nope" ())) (sample_trace ()) in
  Alcotest.(check bool) "no match fails" false v.Oracle.pass;
  Alcotest.(check (option int)) "no witness" None v.Oracle.witness

let test_never () =
  Alcotest.(check (pair bool (option int)))
    "clean pattern passes" (true, None)
    (eval (Oracle.Never (Oracle.pattern ~tag:"tcp.rst-sent" ())));
  Alcotest.(check (pair bool (option int)))
    "forbidden entry is cited" (false, Some 4)
    (eval (Oracle.Never (Oracle.pattern ~tag:"abp.bad-frame" ())))

let test_within () =
  Alcotest.(check (pair bool (option int)))
    "match inside the window" (true, Some 1)
    (eval (Oracle.Within (deliver, Vtime.zero, Vtime.sec 3)));
  let late = Oracle.Within (Oracle.pattern ~tag:"abp.bad-frame" (), Vtime.zero, Vtime.sec 5) in
  let v = Oracle.eval late (sample_trace ()) in
  Alcotest.(check bool) "match only outside fails" false v.Oracle.pass;
  Alcotest.(check (option int)) "cites the out-of-window entry" (Some 4) v.Oracle.witness;
  Alcotest.(check (pair bool (option int)))
    "window start is honoured" (true, Some 3)
    (eval (Oracle.Within (deliver, Vtime.sec 3, Vtime.sec 8)))

let test_ordered () =
  Alcotest.(check (pair bool (option int)))
    "chained matches in order" (true, Some 3)
    (eval
       (Oracle.Ordered
          [ Oracle.pattern ~detail:"msg-00" ();
            Oracle.pattern ~detail:"msg-01" () ]));
  let v =
    Oracle.eval
      (Oracle.Ordered
         [ Oracle.pattern ~detail:"msg-01" ();
           Oracle.pattern ~detail:"msg-00" ();
           Oracle.pattern ~detail:"msg-02" () ])
      (sample_trace ())
  in
  Alcotest.(check bool) "wrong order fails" false v.Oracle.pass;
  Alcotest.(check bool) "reason names the failing step" true
    (contains v.Oracle.reason "step 2/3")

let test_count () =
  List.iter
    (fun (cmp, n, expected) ->
      let v = Oracle.eval (Oracle.Count (deliver, cmp, n)) (sample_trace ()) in
      Alcotest.(check bool)
        (Printf.sprintf "count %s %d" (Oracle.comparison_name cmp) n)
        expected v.Oracle.pass)
    [ (Oracle.Eq, 2, true); (Oracle.Eq, 3, false); (Oracle.Ne, 3, true);
      (Oracle.Lt, 3, true); (Oracle.Le, 2, true); (Oracle.Gt, 1, true);
      (Oracle.Ge, 3, false) ]

let test_comparison_names () =
  List.iter
    (fun c ->
      match Oracle.comparison_of_name (Oracle.comparison_name c) with
      | Some c' -> Alcotest.(check bool) "roundtrip" true (c = c')
      | None -> Alcotest.fail "comparison name does not parse back")
    [ Oracle.Lt; Oracle.Le; Oracle.Eq; Oracle.Ne; Oracle.Ge; Oracle.Gt ]

let test_pattern_fields_and_node () =
  Alcotest.(check (pair bool (option int)))
    "field subset match" (true, Some 3)
    (eval (Oracle.Eventually (Oracle.pattern ~fields:[ ("bit", "1") ] ())));
  Alcotest.(check bool) "wrong field value" false
    (fst (eval (Oracle.Eventually (Oracle.pattern ~fields:[ ("bit", "7") ] ()))));
  Alcotest.(check (pair bool (option int)))
    "node + tag" (true, Some 2)
    (eval
       (Oracle.Eventually (Oracle.pattern ~node:"alice" ~tag:"abp.retransmit" ())))

let test_wildcard_patterns () =
  (* a '*' in any value turns it into a whole-value glob *)
  let v =
    Oracle.eval
      (Oracle.Count (Oracle.pattern ~tag:"abp.*" (), Oracle.Eq, 5))
      (sample_trace ())
  in
  Alcotest.(check bool) "tag=abp.* counts every abp event" true v.Oracle.pass;
  Alcotest.(check (pair bool (option int)))
    "node glob matches the whole node name" (true, Some 0)
    (eval (Oracle.Eventually (Oracle.pattern ~node:"a*e" ())));
  (* a wildcarded detail globs the FULL detail string, so an anchored
     shape no longer behaves like a substring probe *)
  Alcotest.(check (pair bool (option int)))
    "detail glob anchors at both ends" (true, Some 1)
    (eval (Oracle.Eventually (Oracle.pattern ~detail:"msg-*" ())));
  Alcotest.(check bool) "unmatched glob tail fails" false
    (fst (eval (Oracle.Eventually (Oracle.pattern ~detail:"msg-0*X" ()))));
  Alcotest.(check bool) "wrap in '*'s to keep substring behaviour" true
    (fst (eval (Oracle.Eventually (Oracle.pattern ~detail:"*arbag*" ()))));
  Alcotest.(check (pair bool (option int)))
    "field values glob too" (true, Some 1)
    (eval (Oracle.Eventually (Oracle.pattern ~fields:[ ("bit", "*") ] ())))

let test_within_edge_cases () =
  (* a zero-width window is a legal "at exactly T" assertion *)
  Alcotest.(check (pair bool (option int)))
    "zero-width window hit" (true, Some 1)
    (eval (Oracle.Within (deliver, Vtime.sec 2, Vtime.sec 2)));
  let v =
    Oracle.eval
      (Oracle.Within (deliver, Vtime.sec 3, Vtime.sec 3))
      (sample_trace ())
  in
  Alcotest.(check bool) "zero-width window miss" false v.Oracle.pass;
  Alcotest.(check (option int))
    "miss cites the nearest out-of-window match" (Some 1) v.Oracle.witness;
  Alcotest.(check bool) "reason counts the out-of-window matches" true
    (contains v.Oracle.reason "2 matches fall outside");
  (* the final trace entry can be the witness *)
  Alcotest.(check (pair bool (option int)))
    "final entry as zero-width witness" (true, Some 4)
    (eval
       (Oracle.Within
          (Oracle.pattern ~tag:"abp.bad-frame" (), Vtime.sec 9, Vtime.sec 9)));
  Alcotest.(check (pair bool (option int)))
    "final entry closes an ordered chain" (true, Some 4)
    (eval
       (Oracle.Ordered
          [ Oracle.pattern ~tag:"abp.out" ();
            Oracle.pattern ~tag:"abp.bad-frame" () ]))

let test_check_reports_first_failure () =
  match
    Oracle.check
      [ Oracle.Eventually deliver;
        Oracle.Never (Oracle.pattern ~tag:"abp.bad-frame" ()) ]
      (sample_trace ())
  with
  | Ok () -> Alcotest.fail "expected the never-oracle to fail"
  | Error reason ->
    Alcotest.(check bool) "diagnostic names the oracle" true
      (contains reason "abp.bad-frame")

let test_trace_get_iteri () =
  let t = sample_trace () in
  Alcotest.(check string) "get by recording index" "abp.retransmit"
    (Trace_lists.get t 2).Trace.tag;
  let seen = ref [] in
  Trace_lists.iteri
    (fun i (e : Trace.entry) -> if e.tag = "abp.deliver" then seen := i :: !seen)
    t;
  Alcotest.(check (list int)) "iteri yields global indexes" [ 1; 3 ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Scenario parsing                                                   *)
(* ------------------------------------------------------------------ *)

let example =
  {|# demo scenario
name ABP demo
run abp
seed 44
horizon 90s

fault send drop_first MSG 3
fault receive duplicate ACK
@5s inject receive ACK bit=1
@1500ms inject send ACK bit=0 to carol
@10s expect tag=abp.deliver detail~msg-00 within 30s
expect never tag=abp.bad-frame
expect count tag=abp.deliver >= 20   # trailing comment
expect ordered tag=abp.deliver detail~msg-00 ; tag=abp.deliver detail~msg-01
expect service
xfail not really
|}

let test_parse_example () =
  let sc = Scenario.parse example in
  Alcotest.(check string) "name" "ABP demo" sc.Scenario.sc_name;
  Alcotest.(check string) "harness" "abp" sc.Scenario.sc_harness;
  Alcotest.(check (option int64)) "seed" (Some 44L) sc.Scenario.sc_seed;
  Alcotest.(check bool) "horizon" true
    (sc.Scenario.sc_horizon = Some (Vtime.sec 90));
  Alcotest.(check int) "faults" 2 (List.length sc.Scenario.sc_faults);
  (match sc.Scenario.sc_faults with
   | [ (Campaign.Send_filter, Generator.Drop_first ("MSG", 3));
       (Campaign.Receive_filter, Generator.Duplicate "ACK") ] -> ()
   | _ -> Alcotest.fail "fault list did not parse as written");
  (match sc.Scenario.sc_injections with
   | [ up; down ] ->
     Alcotest.(check bool) "inject time" true (up.Scenario.inj_at = Vtime.sec 5);
     Alcotest.(check bool) "inject side" true (up.Scenario.inj_side = `Receive);
     Alcotest.(check (list (pair string string)))
       "gen args: spec defaults overridden by the directive"
       [ ("type", "ACK"); ("bit", "1") ]
       up.Scenario.inj_args;
     Alcotest.(check string) "default dst is the harness target" "bob"
       up.Scenario.inj_dst;
     Alcotest.(check bool) "ms time" true (down.Scenario.inj_at = Vtime.ms 1500);
     Alcotest.(check string) "explicit dst" "carol" down.Scenario.inj_dst
   | _ -> Alcotest.fail "injection list did not parse as written");
  Alcotest.(check int) "checks" 5 (List.length sc.Scenario.sc_checks);
  (match (List.hd sc.Scenario.sc_checks).Scenario.chk_expect with
   | Scenario.Trace_oracle (Oracle.Within (_, lo, hi)) ->
     Alcotest.(check bool) "@10s ... within 30s is [10s, 40s]" true
       (lo = Vtime.sec 10 && hi = Vtime.sec 40)
   | _ -> Alcotest.fail "@T expect ... within D did not become Within");
  Alcotest.(check bool) "xfail" true
    (sc.Scenario.sc_xfail = Some (Scenario.Contains "not really"))

let check_parse_error ~line ~token src =
  match Scenario.parse src with
  | _ -> Alcotest.failf "expected a parse error naming %S" token
  | exception Scenario.Parse_error e ->
    Alcotest.(check int) "error line" line e.Scenario.err_line;
    Alcotest.(check string) "error token" token e.Scenario.err_token

let test_parse_errors () =
  check_parse_error ~line:2 ~token:"exepct" "run abp\nexepct service";
  check_parse_error ~line:1 ~token:"nope" "run nope";
  check_parse_error ~line:1 ~token:"fault"
    "fault send drop_all MSG\nrun abp";
  check_parse_error ~line:2 ~token:"12parsecs" "run abp\nhorizon 12parsecs";
  (* µs product past max_int: must not wrap to a zero horizon *)
  check_parse_error ~line:2 ~token:"99999999999999999999h"
    "run abp\nhorizon 99999999999999999999h";
  (* a delay_each delay must be a Vtime, or the trial's xDelay raises
     mid-run; a negative one used to run as no delay at all *)
  List.iter
    (fun secs ->
      check_parse_error ~line:2 ~token:secs ("run abp\nfault send delay_each MSG " ^ secs))
    [ "1e13"; "nan"; "-5" ];
  (* probabilities must be in [0, 1], like every other fault parameter
     range checked where the fault is read *)
  List.iter
    (fun (spec, bad) ->
      check_parse_error ~line:2 ~token:bad ("run abp\nfault send " ^ spec ^ " " ^ bad))
    [ ("drop_fraction MSG", "nan");
      ("corrupt MSG", "7.5");
      ("byzantine_mix", "-3");
      ("omission_all", "1.01") ];
  (match (Scenario.parse "run abp\nfault send delay_each MSG 1.5").Scenario.sc_faults with
   | [ (_, Generator.Delay_each ("MSG", 1.5)) ] -> ()
   | _ -> Alcotest.fail "delay_each MSG 1.5 did not parse as a 1.5 s delay");
  check_parse_error ~line:2 ~token:"gravity" "run abp\nfault send gravity MSG";
  check_parse_error ~line:2 ~token:"NACK" "run abp\nfault send drop_all NACK";
  check_parse_error ~line:2 ~token:"MSG" "run abp\n@5s inject send MSG";
  check_parse_error ~line:2 ~token:"inject" "run abp\ninject send ACK";
  check_parse_error ~line:2 ~token:"count"
    "run abp\nexpect count tag=abp.deliver";
  check_parse_error ~line:2 ~token:"banana=7" "run abp\nexpect banana=7";
  check_parse_error ~line:3 ~token:"seed" "run abp\nseed 1\nseed 2";
  check_parse_error ~line:2 ~token:"run" "name no harness\nexpect service";
  Alcotest.(check string) "error message names file, line and token"
    "demo.pfis:2: unknown directive (expected name, run, profile, phase, \
     seed, horizon, fault, filter, heal, inject, expect or xfail) (at \
     \"exepct\")"
    (match Scenario.parse "run abp\nexepct service" with
     | _ -> "no error"
     | exception Scenario.Parse_error e ->
       Scenario.error_message ~file:"demo.pfis" e)

(* the matrix-era syntax: relative @+DUR blocks and multi-fault lines *)
let test_parse_relative_times () =
  let sc =
    Scenario.parse
      "run abp\n\
       @2s inject receive ACK bit=1\n\
       @+500ms inject receive ACK bit=0\n\
       @+0s expect tag=abp.deliver within 1s\n"
  in
  (match sc.Scenario.sc_injections with
   | [ a; b ] ->
     Alcotest.(check bool) "absolute @2s" true
       (Vtime.equal a.Scenario.inj_at (Vtime.sec 2));
     Alcotest.(check bool) "@+500ms is 500ms after the previous block" true
       (Vtime.equal b.Scenario.inj_at (Vtime.ms 2500))
   | _ -> Alcotest.fail "expected two injections");
  match sc.Scenario.sc_checks with
  | [ { Scenario.chk_expect = Scenario.Trace_oracle (Oracle.Within (_, lo, hi));
        _ } ] ->
    Alcotest.(check bool) "@+0s pins the previous block's time" true
      (Vtime.equal lo (Vtime.ms 2500) && Vtime.equal hi (Vtime.ms 3500))
  | _ -> Alcotest.fail "expected one Within check"

let test_parse_multi_fault () =
  let sc =
    Scenario.parse "run abp\nfault send drop_first MSG 2 + drop_nth ACK 3\n"
  in
  match sc.Scenario.sc_faults with
  | [ (Campaign.Send_filter, Generator.Drop_first ("MSG", 2));
      (Campaign.Send_filter, Generator.Drop_nth ("ACK", 3)) ] -> ()
  | _ -> Alcotest.fail "multi-fault sequence did not parse as two faults"

let test_parse_errors_extensions () =
  (* a duplicate expect is rejected, citing the line it shadows *)
  (match Scenario.parse "run abp\nexpect service\nexpect service\n" with
   | _ -> Alcotest.fail "expected the duplicate expect to be rejected"
   | exception Scenario.Parse_error e ->
     Alcotest.(check int) "error line" 3 e.Scenario.err_line;
     Alcotest.(check string) "error token" "expect" e.Scenario.err_token;
     Alcotest.(check bool) "reason cites the prior line" true
       (contains e.Scenario.err_reason "line 2"));
  check_parse_error ~line:2 ~token:"0" "run abp\nfault send drop_nth MSG 0";
  check_parse_error ~line:2 ~token:"+" "run abp\nfault send + drop_all MSG";
  check_parse_error ~line:2 ~token:"+" "run abp\nfault send drop_all MSG +";
  check_parse_error ~line:2 ~token:"wat"
    "run abp\n@+wat inject receive ACK bit=1"

(* every check the parser shares with the matrix expander, pinned by
   its full message as `pfi_run check` prints it *)
let test_shared_check_messages () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) src expected
        (match Scenario.parse src with
         | _ -> "no error"
         | exception Scenario.Parse_error e ->
           Scenario.error_message ~file:"s.pfis" e))
    [ ("run nope",
       "s.pfis:1: unknown harness (expected one of abp, abp-buggy, gmp, \
        gmp-buggy, tcp) (at \"nope\")");
      ("run abp\nrun gmp", "s.pfis:2: duplicate run directive (at \"gmp\")");
      ("run tcp\nprofile vax",
       "s.pfis:2: unknown vendor profile (expected one of x-kernel, \
        sunos-4.1.3, aix-3.2.3, next-mach, solaris-2.3) (at \"vax\")");
      ("run tcp\nprofile sunos-4.1.3\nprofile aix-3.2.3",
       "s.pfis:3: duplicate profile directive (at \"profile\")");
      ("run tcp\nphase teardown",
       "s.pfis:2: unknown phase (expected handshake, stream or close) (at \
        \"teardown\")");
      ("run tcp\nphase close\nphase stream",
       "s.pfis:3: duplicate phase directive (at \"phase\")");
      ("run abp\nseed 1x",
       "s.pfis:2: expected a 64-bit integer seed (at \"1x\")");
      ("run abp\nseed 1 2", "s.pfis:2: usage: seed N (at \"seed\")");
      ("run abp\nseed", "s.pfis:2: usage: seed N (at \"seed\")");
      ("run abp\nseed 1\nseed 2",
       "s.pfis:3: duplicate seed directive (at \"seed\")");
      ("run abp\nseed 1\nseed x",
       "s.pfis:3: expected a 64-bit integer seed (at \"x\")");
      ("run abp\nhorizon 1s\nhorizon 2s",
       "s.pfis:3: duplicate horizon directive (at \"horizon\")");
      ("run abp\nxfail a\nxfail b",
       "s.pfis:3: duplicate xfail directive (at \"xfail\")");
      ("run abp\nprofile sunos-4.1.3",
       "s.pfis:2: profile applies only to the tcp harness (at \
        \"sunos-4.1.3\")");
      ("run abp\nphase close",
       "s.pfis:2: phase applies only to the tcp harness (at \"close\")");
      ("profile sunos-4.1.3\nrun tcp",
       "s.pfis:1: run HARNESS must come before this directive (at \
        \"profile\")") ]

(* ------------------------------------------------------------------ *)
(* Printing: the text either reads back as the scenario, or raises    *)
(* ------------------------------------------------------------------ *)

let base = Scenario.parse ~name:"base" "run abp\n"

let expect o = { Scenario.chk_line = 0; chk_expect = Scenario.Trace_oracle o }

let ack_inject =
  List.hd (Scenario.parse "run abp\n@1s inject receive ACK bit=1\n").Scenario.sc_injections

let tag = Oracle.pattern ~tag:"abp.deliver" ()

(* (case, scenario, whether its text reads back) *)
let print_cases =
  let with_checks os = { base with Scenario.sc_checks = List.map expect os } in
  let with_faults fs =
    { base with Scenario.sc_faults = List.map (fun f -> (Campaign.Both_filters, f)) fs }
  in
  let with_inject f = { base with Scenario.sc_injections = [ f ack_inject ] } in
  [ ("the base scenario", base, true);
    ("a name word a#b", { base with Scenario.sc_name = "a#b c" }, true);
    ("an xfail text a + b", { base with Scenario.sc_xfail = Some (Scenario.Contains "a + b") }, true);
    ("an exact xfail with # words and double spaces",
     { base with
       Scenario.sc_xfail = Some (Scenario.Equals "last match #227796  @1s \"loop\"  ") },
     true);
    ("a heal", { base with Scenario.sc_heal = Some (Vtime.ms 1500) }, true);
    ("a filter block",
     { base with
       Scenario.sc_filters =
         [ (Campaign.Both_filters, "  if {[chance 0.5]} { xDrop cur_msg }\n# Tcl's\n\nxPass");
           (Campaign.Send_filter, "") ] },
     true);
    ("a filter block holding a line end",
     { base with Scenario.sc_filters = [ (Campaign.Send_filter, "set x 1\n end\nset y 2") ] },
     false);
    ("an empty exact xfail", { base with Scenario.sc_xfail = Some (Scenario.Equals "") }, false);
    ("an exact xfail on two lines",
     { base with Scenario.sc_xfail = Some (Scenario.Equals "a\nexpect service") }, false);
    ("a substring xfail that reads as an exact one",
     { base with Scenario.sc_xfail = Some (Scenario.Contains "= a") }, false);
    ("a detail a#b", with_checks [ Oracle.Eventually (Oracle.pattern ~detail:"a#b" ()) ], true);
    ("a tcp profile and phase",
     { base with
       Scenario.sc_harness = "tcp"; sc_profile = Some "solaris-2.3"; sc_phase = Some "close" },
     true);
    ("a detail a b", with_checks [ Oracle.Eventually (Oracle.pattern ~detail:"a b" ()) ], false);
    ("a repeated expect",
     { base with
       Scenario.sc_checks =
         [ { Scenario.chk_line = 0; chk_expect = Scenario.Service };
           { Scenario.chk_line = 0; chk_expect = Scenario.Service } ] },
     false);
    ("a name with two spaces", { base with Scenario.sc_name = "a  b" }, false);
    ("a name on two lines", { base with Scenario.sc_name = "a\nexpect service" }, false);
    ("an unknown harness", { base with Scenario.sc_harness = "nope" }, false);
    ("profile on abp", { base with Scenario.sc_profile = Some "sunos-4.1.3" }, false);
    ("a profile not in its canonical spelling",
     { base with Scenario.sc_harness = "tcp"; sc_profile = Some "SunOS-4.1.3" },
     false);
    ("an out-of-range fault", with_faults [ Generator.Drop_nth ("MSG", 0) ], false);
    ("an unknown fault message type", with_faults [ Generator.Drop_all "NACK" ], false);
    ("an unknown injection message type",
     with_inject (fun i -> { i with Scenario.inj_mtype = "NACK" }), false);
    ("an unconstrained pattern", with_checks [ Oracle.Never (Oracle.pattern ()) ], false);
    ("a negative count bound", with_checks [ Oracle.Count (tag, Oracle.Ge, -1) ], false);
    ("an empty ordered", with_checks [ Oracle.Ordered [] ], false);
    ("an ordered step with no atom",
     with_checks [ Oracle.Ordered [ tag; Oracle.pattern () ] ], false);
    ("a Within window that ends before it starts",
     with_checks [ Oracle.Within (tag, Vtime.sec 5, Vtime.sec 2) ], false);
    ("injection arguments out of spec order",
     with_inject (fun i -> { i with Scenario.inj_args = [ ("bit", "1"); ("type", "ACK") ] }),
     false);
    ("an empty injection argument key",
     with_inject (fun i -> { i with Scenario.inj_args = i.Scenario.inj_args @ [ ("", "x") ] }),
     false);
    ("an injection argument key holding =",
     with_inject (fun i -> { i with Scenario.inj_args = i.Scenario.inj_args @ [ ("a=b", "c") ] }),
     false);
    ("a destination holding a space",
     with_inject (fun i -> { i with Scenario.inj_dst = "bo b" }), false) ]

let test_print_reads_back_or_raises () =
  List.iter
    (fun (what, sc, reads_back) ->
      match Scenario.to_string sc with
      | exception Invalid_argument msg ->
        if reads_back then Alcotest.failf "%s: expected to print, raised %s" what msg
      | text ->
        (match Scenario.parse text with
         | sc2 ->
           if not (Scenario.equal sc sc2) then
             Alcotest.failf "%s: the text reads back as another scenario:\n%s" what text
         | exception Scenario.Parse_error e ->
           Alcotest.failf "%s: the text does not read back (%s):\n%s" what
             (Scenario.error_message e) text);
        if not reads_back then
          Alcotest.failf "%s: expected Invalid_argument, printed:\n%s" what text)
    print_cases;
  (* a rejected text is reported with the parser's own line and token *)
  Alcotest.(check string) "the parser's message"
    "Scenario.to_string: line 3: unrecognised pattern atom (expected node=, \
     tag=, detail~ or f.KEY=VALUE) (at \"b\")"
    (match
       Scenario.to_string
         { base with
           Scenario.sc_checks =
             [ expect (Oracle.Eventually (Oracle.pattern ~detail:"a b" ())) ] }
     with
     | text -> text
     | exception Invalid_argument msg -> msg)

(* the repro forms at run time: a filter block filters, [@T heal] clears
   both filters, and [xfail = REASON] takes the reason exactly.  The
   committed windowed fuzz finding replays as its expected failure. *)
let test_repro_forms_run () =
  let outcome sc = Scenario.outcome_name (Scenario.run sc).Scenario.res_outcome in
  let drop_all = "run abp\nfilter send\nxDrop cur_msg\nend\nexpect service\n" in
  let check what want extra =
    Alcotest.(check string) what want (outcome (Scenario.parse (drop_all ^ extra)))
  in
  check "a filter block runs" "fail" "";
  check "a heal clears it" "pass" "@10s heal\n";
  check "the exact reason" "xfail" "xfail = delivered 0/20 messages\n";
  check "a prefix of the reason" "fail" "xfail = delivered 0/20\n";
  check "a substring xfail" "xfail" "xfail delivered 0/20\n";
  let finding =
    Scenario.load
      (Filename.concat (Filename.dirname Sys.executable_name)
         "golden/gmp_buggy_windowed_finding.pfis")
  in
  Alcotest.(check bool) "the finding heals" true (finding.Scenario.sc_heal <> None);
  Alcotest.(check string) "the finding replays" "xfail" (outcome finding)

(* ------------------------------------------------------------------ *)
(* The checked-in corpus, exactly as `pfi_run check` runs it          *)
(* ------------------------------------------------------------------ *)

let corpus () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "scenarios" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pfis")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_corpus_green () =
  let files = corpus () in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length files >= 6);
  List.iter
    (fun file ->
      let r = Scenario.run (Scenario.load file) in
      if not (Scenario.passed r) then
        Alcotest.failf "%s: %s\n%s" (Filename.basename file)
          (Scenario.outcome_name r.Scenario.res_outcome)
          (String.concat "\n"
             (List.filter_map
                (fun (row : Scenario.row) ->
                  if row.Scenario.row_pass then None
                  else
                    Some
                      (Printf.sprintf "  L%d %s: %s" row.Scenario.row_line
                         row.Scenario.row_desc row.Scenario.row_reason))
                r.Scenario.res_rows)))
    files

let test_corpus_pins_buggy_harness () =
  (* at least one scenario must run a *-buggy harness and fail with the
     pointed diagnostic it declared (outcome xfail, failing row) *)
  let xfails =
    List.filter_map
      (fun file ->
        let sc = Scenario.load file in
        let r = Scenario.run sc in
        if r.Scenario.res_outcome = Scenario.Xfail then Some r else None)
      (corpus ())
  in
  Alcotest.(check bool) "an xfail scenario exists" true (xfails <> []);
  List.iter
    (fun (r : Scenario.result) ->
      (* an xfail either pins a seeded bug (a *-buggy harness) or a
         documented vendor quirk on the tcp harness (e.g. TIME_WAIT
         assassination by an injected RST) *)
      Alcotest.(check bool) "xfail runs a buggy harness or pins a tcp quirk"
        true
        (String.ends_with ~suffix:"-buggy" r.Scenario.res_harness
        || String.equal r.Scenario.res_harness "tcp");
      match List.filter (fun (x : Scenario.row) -> not x.Scenario.row_pass) r.Scenario.res_rows with
      | [] -> Alcotest.fail "xfail without a failing row"
      | rows ->
        List.iter
          (fun (row : Scenario.row) ->
            Alcotest.(check bool) "failing row carries a diagnostic" true
              (String.length row.Scenario.row_reason > 0))
          rows)
    xfails

(* the invariant generated corpora (Matrix) are built on: canonical
   printing is the inverse of parsing, for every checked-in scenario *)
let test_corpus_print_round_trip () =
  List.iter
    (fun file ->
      let sc = Scenario.load file in
      let text = Scenario.to_string sc in
      let sc2 = Scenario.parse text in
      if not (Scenario.equal sc sc2) then
        Alcotest.failf "%s does not survive print→parse"
          (Filename.basename file))
    (corpus ())

let test_scenario_run_deterministic () =
  let file =
    List.find
      (fun f -> Filename.basename f = "abp_loss_recovery.pfis")
      (corpus ())
  in
  let sc = Scenario.load file in
  let r1 = Scenario.run sc and r2 = Scenario.run sc in
  Alcotest.(check bool) "two runs, identical results" true (r1 = r2);
  (* an explicit seed overrides the scenario's own *)
  let r3 = Scenario.run ~seed:99L sc in
  Alcotest.(check int64) "seed override" 99L r3.Scenario.res_seed

(* tcp's stream-phase build opens the connection, so the client's SYN
   is recorded as entry #0 before [build] returns: an [expect] monitor
   judges it, and a [--trace-out] export writes it, only if attached
   before build.  Whether the trace is stored, only counted or exported
   must not change a row. *)
let test_stream_syn_is_entry_zero () =
  let sc =
    Scenario.parse ~name:"stream syn"
      "run tcp\nphase stream\nexpect node=client tag=tcp.out detail~SYN within 0s\n"
  in
  let counted = Scenario.run sc in
  let stored = Scenario.run ~observe:(Campaign.observe ~traces:true ()) sc in
  let exported = ref [] in
  let export =
    Trace_lists.streamed (fun sink ->
        let trace_out = Pfi_testgen.Trace_out.label [ ("scenario", "stream syn") ] sink in
        exported :=
          (Scenario.run ~observe:(Campaign.observe ~trace_out ()) sc).Scenario.res_rows)
  in
  (match counted.Scenario.res_rows with
   | [ row ] ->
     Alcotest.(check bool) "row passes" true row.Scenario.row_pass;
     Alcotest.(check (option int)) "witness is entry #0" (Some 0)
       row.Scenario.row_witness;
     Alcotest.(check string) "reason"
       "satisfied in [0us, 0us] by #0 @0us client tcp.out \"SYN 32769>80 \
        seq=64000 ack=0 win=4096 len=0\""
       row.Scenario.row_reason
   | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  Alcotest.(check bool) "same rows with the trace stored" true
    (counted.Scenario.res_rows = stored.Scenario.res_rows);
  Alcotest.(check bool) "same rows with the trace exported" true
    (counted.Scenario.res_rows = !exported);
  let first = List.hd (String.split_on_char '\n' export) in
  let field key =
    match Result.map (Pfi_testgen.Json.member key) (Pfi_testgen.Json.parse first) with
    | Ok (Some (Pfi_testgen.Json.Str v)) -> v
    | _ -> Alcotest.failf "exported line without %S: %s" key first
  in
  Alcotest.(check (list string)) "exported entry #0 is the client's SYN"
    [ "stream syn"; "client"; "tcp.out" ]
    (List.map field [ "scenario"; "node"; "tag" ])

let suite =
  [ Alcotest.test_case "oracle: eventually" `Quick test_eventually;
    Alcotest.test_case "oracle: never cites the forbidden entry" `Quick test_never;
    Alcotest.test_case "oracle: within honours the window" `Quick test_within;
    Alcotest.test_case "oracle: ordered chases the chain" `Quick test_ordered;
    Alcotest.test_case "oracle: count comparisons" `Quick test_count;
    Alcotest.test_case "oracle: comparison names roundtrip" `Quick
      test_comparison_names;
    Alcotest.test_case "oracle: wildcard values glob whole entries" `Quick
      test_wildcard_patterns;
    Alcotest.test_case "oracle: zero-width windows and final witnesses" `Quick
      test_within_edge_cases;
    Alcotest.test_case "oracle: field and node patterns" `Quick
      test_pattern_fields_and_node;
    Alcotest.test_case "oracle: check reports the first failure" `Quick
      test_check_reports_first_failure;
    Alcotest.test_case "trace: get/iteri recording indexes" `Quick
      test_trace_get_iteri;
    Alcotest.test_case "scenario: example file parses" `Quick test_parse_example;
    Alcotest.test_case "scenario: errors name line and token" `Quick
      test_parse_errors;
    Alcotest.test_case "scenario: @+DUR relative blocks" `Quick
      test_parse_relative_times;
    Alcotest.test_case "scenario: multi-fault '+' sequences" `Quick
      test_parse_multi_fault;
    Alcotest.test_case "scenario: stream-phase SYN is judged from entry #0"
      `Quick test_stream_syn_is_entry_zero;
    Alcotest.test_case "scenario: matrix-era syntax errors" `Quick
      test_parse_errors_extensions;
    Alcotest.test_case "scenario: shared token checks, full messages" `Quick
      test_shared_check_messages;
    Alcotest.test_case "scenario: filter, heal and exact xfail run as written"
      `Quick test_repro_forms_run;
    Alcotest.test_case "scenario: to_string reads back or raises" `Quick
      test_print_reads_back_or_raises;
    Alcotest.test_case "corpus scenarios survive print→parse" `Quick
      test_corpus_print_round_trip;
    Alcotest.test_case "corpus: every scenario passes" `Slow test_corpus_green;
    Alcotest.test_case "corpus: buggy harnesses fail as declared" `Slow
      test_corpus_pins_buggy_harness;
    Alcotest.test_case "scenario runs are deterministic" `Slow
      test_scenario_run_deterministic ]
