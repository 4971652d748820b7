(* Scenario-matrix expansion (.pfim): grammar, sweeps, determinism,
   manifests — plus the print→parse round-trip property the whole
   generator rests on: Scenario.parse (Scenario.to_string sc) must be
   Scenario.equal to sc for every expressible scenario. *)

open Pfi_engine
open Pfi_testgen

let test_path p = Filename.concat (Filename.dirname Sys.executable_name) p

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* The tiny checked-in spec                                           *)
(* ------------------------------------------------------------------ *)

let tiny () = Matrix.load (test_path "matrix/tiny.pfim")

let test_parse_tiny () =
  let m = tiny () in
  Alcotest.(check string) "matrix name" "tiny ABP matrix" m.Matrix.m_name;
  Alcotest.(check int64) "matrix seed" 7L m.Matrix.m_seed;
  Alcotest.(check (list string))
    "group names" [ "loss"; "forged-ack"; "buggy" ]
    (List.map (fun g -> g.Matrix.g_name) m.Matrix.m_groups);
  let loss = List.hd m.Matrix.m_groups in
  Alcotest.(check (list string)) "side axis" [ "send"; "receive" ]
    loss.Matrix.g_sides;
  Alcotest.(check int) "one fault axis line" 1
    (List.length loss.Matrix.g_faults);
  let forged = List.nth m.Matrix.m_groups 1 in
  Alcotest.(check (list string)) "side defaults to both" [ "both" ]
    forged.Matrix.g_sides;
  let buggy = List.nth m.Matrix.m_groups 2 in
  Alcotest.(check bool) "pinned group seed" true
    (buggy.Matrix.g_seed = Some 31L);
  Alcotest.(check (option string)) "xfail" (Some "messages")
    buggy.Matrix.g_xfail

let test_expand_tiny () =
  let entries = Matrix.expand (tiny ()) in
  Alcotest.(check int) "seven scenarios" 7 (List.length entries);
  Alcotest.(check (list int)) "indices are corpus order"
    [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.map (fun e -> e.Matrix.e_index) entries);
  Alcotest.(check (list string)) "names: group/harness/side/fault[@sweeps]"
    [ "loss/abp/send/drop_first-MSG-1";
      "loss/abp/send/drop_first-MSG-2";
      "loss/abp/receive/drop_first-MSG-1";
      "loss/abp/receive/drop_first-MSG-2";
      "forged-ack/abp/both/baseline@2s";
      "forged-ack/abp/both/baseline@4s";
      "buggy/abp-buggy/both/byzantine_mix-0.25" ]
    (List.map (fun e -> e.Matrix.e_name) entries);
  Alcotest.(check string) "file names carry the index prefix"
    "001-loss-abp-send-drop_first-MSG-1.pfis"
    (List.hd entries).Matrix.e_file;
  (* pinned group seed is written verbatim; derived seeds are distinct *)
  let seeds = List.map (fun e -> e.Matrix.e_seed) entries in
  Alcotest.(check int64) "buggy group pins seed 31" 31L
    (List.nth seeds 6);
  Alcotest.(check int) "derived seeds are pairwise distinct"
    (List.length entries)
    (List.length (List.sort_uniq Int64.compare seeds));
  List.iter
    (fun e ->
      Alcotest.(check bool) "every entry re-parses to an equal scenario" true
        (Scenario.equal e.Matrix.e_scenario (Scenario.parse e.Matrix.e_text)))
    entries;
  (* xfail bookkeeping *)
  Alcotest.(check (list string)) "expected verdicts"
    [ "pass"; "pass"; "pass"; "pass"; "pass"; "pass"; "xfail" ]
    (List.map (fun e -> e.Matrix.e_expected) entries)

(* the corpus as [gen] writes it: (file, text) pairs *)
let corpus_files = List.map (fun e -> (e.Matrix.e_file, e.Matrix.e_text))

let test_expand_deterministic () =
  let a = Matrix.expand (tiny ()) and b = Matrix.expand (tiny ()) in
  Alcotest.(check string) "corpus digest is stable"
    (Matrix.corpus_digest (corpus_files a))
    (Matrix.corpus_digest (corpus_files b));
  List.iter2
    (fun x y ->
      Alcotest.(check string) "text is byte-identical" x.Matrix.e_text
        y.Matrix.e_text)
    a b

let test_expand_limit () =
  let full = Matrix.expand (tiny ()) in
  let three = Matrix.expand ~limit:3 (tiny ()) in
  Alcotest.(check int) "limit keeps a prefix" 3 (List.length three);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "prefix entries are the full corpus's"
        a.Matrix.e_file b.Matrix.e_file)
    three
    (List.filteri (fun i _ -> i < 3) full)

let test_manifest_round_trip () =
  let m = tiny () in
  let entries = Matrix.expand m in
  let json =
    Matrix.manifest_json ~spec_file:"tiny.pfim" ~spec_digest:"d" m entries
  in
  let reparsed =
    match Json.parse (Json.to_string json) with
    | Ok j -> j
    | Error e -> Alcotest.failf "manifest JSON does not re-parse: %s" e
  in
  match Matrix.manifest_of_json reparsed with
  | Error e -> Alcotest.failf "manifest does not decode: %s" e
  | Ok mf ->
    Alcotest.(check string) "matrix name" m.Matrix.m_name mf.Matrix.mf_matrix;
    Alcotest.(check int) "count" (List.length entries) mf.Matrix.mf_count;
    Alcotest.(check int) "pass count" 6 mf.Matrix.mf_pass;
    Alcotest.(check int) "xfail count" 1 mf.Matrix.mf_xfail;
    Alcotest.(check string) "corpus digest"
      (Matrix.corpus_digest (corpus_files entries))
      mf.Matrix.mf_corpus_digest;
    List.iter2
      (fun e me ->
        Alcotest.(check string) "entry file" e.Matrix.e_file me.Matrix.me_file;
        Alcotest.(check string) "entry name" e.Matrix.e_name me.Matrix.me_name;
        Alcotest.(check int64) "entry seed" e.Matrix.e_seed me.Matrix.me_seed;
        Alcotest.(check string) "entry expected" e.Matrix.e_expected
          me.Matrix.me_expected)
      entries mf.Matrix.mf_entries

(* ------------------------------------------------------------------ *)
(* Grammar and expansion errors                                       *)
(* ------------------------------------------------------------------ *)

let check_matrix_error ~line ~token ?reason src =
  match Matrix.expand (Matrix.parse src) with
  | _ -> Alcotest.failf "expected a matrix error naming %S" token
  | exception Scenario.Parse_error e ->
    Alcotest.(check int) "error line" line e.Scenario.err_line;
    Alcotest.(check string) "error token" token e.Scenario.err_token;
    (match reason with
     | Some r ->
       Alcotest.(check bool)
         (Printf.sprintf "reason %S mentions %S" e.Scenario.err_reason r)
         true
         (contains e.Scenario.err_reason r)
     | None -> ())

let group_src body =
  Printf.sprintf "matrix m\ngroup g\nharness abp\n%s\nend\n" body

let test_parse_errors () =
  check_matrix_error ~line:1 ~token:"wat" "wat abp\n";
  check_matrix_error ~line:2 ~token:"matrix" ~reason:"missing matrix NAME"
    "seed 3\n";
  check_matrix_error ~line:2 ~token:"group" ~reason:"no groups" "matrix m\n";
  check_matrix_error ~line:2 ~token:"end" "matrix m\nend\n";
  check_matrix_error ~line:2 ~token:"group" ~reason:"single token"
    "matrix m\ngroup a b\n";
  check_matrix_error ~line:5 ~token:"g" ~reason:"duplicate group"
    "matrix m\ngroup g\nharness abp\nend\ngroup g\nharness abp\nend\n";
  check_matrix_error ~line:3 ~token:"nope" ~reason:"unknown harness"
    "matrix m\ngroup g\nharness nope\nend\n";
  check_matrix_error ~line:3 ~token:"end" ~reason:"declares no harness"
    "matrix m\ngroup g\nend\n";
  check_matrix_error ~line:4 ~token:"end" ~reason:"never closed"
    "matrix m\ngroup g\nharness abp\n";
  check_matrix_error ~line:4 ~token:"sideways"
    (group_src "side sideways");
  check_matrix_error ~line:4 ~token:"send" ~reason:"side axis"
    (group_src "fault send drop_all MSG");
  check_matrix_error ~line:4 ~token:"inject" ~reason:"@TIME"
    (group_src "inject receive ACK bit=1");
  check_matrix_error ~line:4 ~token:"gravity"
    (group_src "gravity well");
  check_matrix_error ~line:4 ~token:"99999999999999999999h"
    ~reason:"out of range"
    (group_src "horizon 99999999999999999999h")

(* a wrong group line must surface at its .pfim line, not at a line of
   the assembled intermediate scenario text *)
let test_expand_error_lines () =
  check_matrix_error ~line:4 ~token:"NACK"
    (group_src "fault drop_all NACK\nexpect service");
  check_matrix_error ~line:5 ~token:"banana=7"
    (group_src "fault drop_all MSG\nexpect banana=7")

let test_sweep_errors () =
  check_matrix_error ~line:4 ~token:"sweep" ~reason:"range token"
    (group_src "fault drop_first MSG sweep");
  check_matrix_error ~line:4 ~token:"5" ~reason:"LO..HI"
    (group_src "fault drop_first MSG sweep 5");
  check_matrix_error ~line:4 ~token:"5..1" ~reason:"empty"
    (group_src "fault drop_first MSG sweep 5..1");
  check_matrix_error ~line:4 ~token:"1..5/0" ~reason:"at least 1"
    (group_src "fault drop_first MSG sweep 1..5/0");
  check_matrix_error ~line:4 ~token:"0.1..0.4" ~reason:"/STEP"
    (group_src "fault drop_fraction MSG sweep 0.1..0.4");
  check_matrix_error ~line:4 ~token:"1s..5s" ~reason:"/STEP"
    (group_src "@sweep 1s..5s inject receive ACK bit=1");
  check_matrix_error ~line:4 ~token:"1..2000" ~reason:"limit 1000"
    (group_src "fault drop_first MSG sweep 1..2000");
  (* a swept value out of its parameter's range fails at the sweep's
     line, naming the value *)
  check_matrix_error ~line:4 ~token:"1.5" ~reason:"probability"
    (group_src "fault drop_fraction MSG sweep 0.5..1.5/0.5")

let test_sweep_semantics () =
  (* explicit integer step *)
  let entries =
    Matrix.expand
      (Matrix.parse
         (group_src "fault drop_first MSG sweep 1..5/2\nexpect service"))
  in
  Alcotest.(check (list string)) "int sweep with step 2"
    [ "g/abp/both/drop_first-MSG-1";
      "g/abp/both/drop_first-MSG-3";
      "g/abp/both/drop_first-MSG-5" ]
    (List.map (fun e -> e.Matrix.e_name) entries);
  (* float sweeps snap to a stable grid *)
  let entries =
    Matrix.expand
      (Matrix.parse
         (group_src
            "fault drop_fraction MSG sweep 0.1..0.3/0.1\nexpect service"))
  in
  Alcotest.(check (list string)) "float sweep values"
    [ "g/abp/both/drop_fraction-MSG-0.1";
      "g/abp/both/drop_fraction-MSG-0.2";
      "g/abp/both/drop_fraction-MSG-0.3" ]
    (List.map (fun e -> e.Matrix.e_name) entries);
  (* duration sweep on the @-time of a template line *)
  let entries =
    Matrix.expand
      (Matrix.parse
         (group_src
            "@sweep 500ms..1500ms/500ms inject receive ACK bit=1\n\
             expect service"))
  in
  Alcotest.(check (list string)) "@sweep values name the scenario"
    [ "g/abp/both/baseline@500ms";
      "g/abp/both/baseline@1s";
      "g/abp/both/baseline@1500ms" ]
    (List.map (fun e -> e.Matrix.e_name) entries);
  List.iter2
    (fun e at ->
      match e.Matrix.e_scenario.Scenario.sc_injections with
      | [ inj ] ->
        Alcotest.(check bool) "swept injection time" true
          (Vtime.equal inj.Scenario.inj_at at)
      | _ -> Alcotest.fail "expected exactly one injection")
    entries
    [ Vtime.ms 500; Vtime.sec 1; Vtime.ms 1500 ]

let test_duplicate_names_rejected () =
  check_matrix_error ~line:2 ~token:"g/abp/both/drop_all-MSG"
    ~reason:"duplicate generated scenario name"
    (group_src "fault drop_all MSG\nfault drop_all MSG\nexpect service")

let test_expansion_cap () =
  check_matrix_error ~line:2 ~token:"g" ~reason:"more than 10000"
    (group_src
       "fault drop_first MSG sweep 1..200\n\
        @sweep 1s..200s/1s inject receive ACK bit=1\n\
        expect service")

(* ------------------------------------------------------------------ *)
(* The standing demo corpus                                           *)
(* ------------------------------------------------------------------ *)

let test_demo_corpus () =
  let m = Matrix.load (test_path "matrix/registry_demo.pfim") in
  let entries = Matrix.expand m in
  Alcotest.(check bool)
    (Printf.sprintf "demo expands to >= 150 scenarios (got %d)"
       (List.length entries))
    true
    (List.length entries >= 150);
  (* every registry harness appears *)
  List.iter
    (fun h ->
      Alcotest.(check bool) (h ^ " is covered") true
        (List.exists (fun e -> e.Matrix.e_harness = h) entries))
    Registry.names;
  (* the corpus runs to exactly the verdicts the manifest promises *)
  List.iter
    (fun e ->
      let r = Scenario.run e.Matrix.e_scenario in
      Alcotest.(check string)
        (e.Matrix.e_name ^ " lands on its expected verdict")
        e.Matrix.e_expected
        (Scenario.outcome_name r.Scenario.res_outcome))
    entries

(* ------------------------------------------------------------------ *)
(* Print→parse round trip over random scenario ASTs                   *)
(* ------------------------------------------------------------------ *)

let abp_ack_message =
  lazy
    (let packed = Option.get (Registry.find "abp") in
     Option.get
       (Spec.find_message (Harness_intf.spec packed) "ACK"))

let tcp_rst_message =
  lazy
    (let packed = Option.get (Registry.find "tcp") in
     Option.get
       (Spec.find_message (Harness_intf.spec packed) "RST"))

(* every fault kind, on the abp harness's message types, parameters in
   range *)
let gen_fault =
  let open QCheck.Gen in
  let mtype = oneofl [ "MSG"; "ACK" ] in
  let prob = map (fun n -> float_of_int n /. 100.) (int_range 0 100) in
  let secs = map (fun n -> float_of_int n /. 10.) (int_range 0 50) in
  oneof
    [ map (fun t -> Generator.Drop_all t) mtype;
      map2 (fun t n -> Generator.Drop_after (t, n)) mtype (int_range 0 10);
      map2 (fun t n -> Generator.Drop_first (t, n)) mtype (int_range 0 10);
      map2 (fun t n -> Generator.Drop_nth (t, n)) mtype (int_range 1 10);
      map2 (fun t p -> Generator.Drop_fraction (t, p)) mtype prob;
      map (fun p -> Generator.Omission_all p) prob;
      map (fun p -> Generator.Byzantine_mix p) prob;
      map2 (fun t s -> Generator.Delay_each (t, s)) mtype secs;
      map (fun t -> Generator.Duplicate t) mtype;
      map2 (fun t p -> Generator.Corrupt (t, p)) mtype prob;
      map (fun t -> Generator.Reorder t) mtype;
      map
        (fun dst -> Generator.Inject_spurious (Lazy.force abp_ack_message, dst))
        (oneofl [ "bob"; "carol" ]) ]

let gen_scenario =
  let open QCheck.Gen in
  let word =
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '7'; '.'; '-' ])
      (int_range 1 6)
  in
  let value =
    (* pattern values: plain tokens, sometimes with glob stars *)
    string_size ~gen:(oneofl [ 'a'; 'm'; 's'; 'g'; '0'; '1'; '*'; '-' ])
      (int_range 1 6)
  in
  let vtime = map Vtime.us (int_range 0 600_000_000) in
  let side = oneofl [ Campaign.Send_filter; Campaign.Receive_filter;
                      Campaign.Both_filters ] in
  let pattern =
    (* at least one atom, so the pattern stays printable *)
    let atom =
      oneof
        [ map (fun v -> `Node v) value;
          map (fun v -> `Tag v) value;
          map (fun v -> `Detail v) value;
          map2 (fun k v -> `Field (k, v)) word value ]
    in
    map
      (fun atoms ->
        let node = List.find_map (function `Node v -> Some v | _ -> None) atoms in
        let tag = List.find_map (function `Tag v -> Some v | _ -> None) atoms in
        let detail =
          List.find_map (function `Detail v -> Some v | _ -> None) atoms
        in
        let fields =
          (* one atom per key: pattern_describe prints fields in order,
             and duplicate keys would not survive the round trip *)
          List.fold_left
            (fun acc -> function
              | `Field (k, v) when not (List.mem_assoc k acc) -> acc @ [ (k, v) ]
              | _ -> acc)
            [] atoms
        in
        Oracle.pattern ?node ?tag ?detail ~fields ())
      (list_size (int_range 1 3) atom)
  in
  let oracle =
    oneof
      [ map (fun p -> Oracle.Eventually p) pattern;
        map (fun p -> Oracle.Never p) pattern;
        map3
          (fun p a w ->
            let b =
              match w with
              | None -> Vtime.infinity
              | Some w -> Vtime.add a w
            in
            Oracle.Within (p, a, b))
          pattern vtime (opt vtime);
        map2 (fun ps () -> Oracle.Ordered ps)
          (list_size (int_range 1 3) pattern)
          unit;
        map3 (fun p c n -> Oracle.Count (p, c, n)) pattern
          (oneofl Oracle.[ Lt; Le; Eq; Ne; Ge; Gt ])
          (int_range 0 50) ]
  in
  let check =
    oneof
      [ map (fun o -> Scenario.Trace_oracle o) oracle;
        map (fun () -> Scenario.Service) unit ]
  in
  let injection =
    map3
      (fun at bit dst ->
        { Scenario.inj_line = 0;
          inj_at = at;
          inj_side = `Receive;
          inj_mtype = "ACK";
          inj_args = [ ("type", "ACK"); ("bit", bit) ];
          inj_dst = dst })
      vtime
      (oneofl [ "0"; "1" ])
      (oneofl [ "bob"; "carol" ])
  in
  let name = map (String.concat " ") (list_size (int_range 1 3) word) in
  (* tcp variant: keep the same structural skeleton but rebase it on the
     tcp spec so the profile/phase directives round-trip too *)
  let tcp_cfg =
    oneof
      [ return None;
        map
          (fun pp -> Some pp)
          (pair
             (opt
                (oneofl
                   [ "sunos-4.1.3"; "aix-3.2.3"; "next-mach"; "solaris-2.3";
                     "x-kernel" ]))
             (opt (oneofl [ "handshake"; "stream"; "close" ]))) ]
  in
  let rebase_tcp (prof, ph) sc =
    let mt = function "MSG" -> "DATA" | t -> t in
    let remap_fault = function
      | Generator.Drop_all t -> Generator.Drop_all (mt t)
      | Generator.Drop_after (t, n) -> Generator.Drop_after (mt t, n)
      | Generator.Drop_first (t, n) -> Generator.Drop_first (mt t, n)
      | Generator.Drop_nth (t, n) -> Generator.Drop_nth (mt t, n)
      | Generator.Drop_fraction (t, p) -> Generator.Drop_fraction (mt t, p)
      | Generator.Delay_each (t, s) -> Generator.Delay_each (mt t, s)
      | Generator.Duplicate t -> Generator.Duplicate (mt t)
      | Generator.Corrupt (t, p) -> Generator.Corrupt (mt t, p)
      | Generator.Reorder t -> Generator.Reorder (mt t)
      | Generator.Inject_spurious (_, dst) ->
        Generator.Inject_spurious (Lazy.force tcp_rst_message, dst)
      | (Generator.Omission_all _ | Generator.Byzantine_mix _) as f -> f
    in
    { sc with
      Scenario.sc_harness = "tcp";
      sc_profile = prof;
      sc_phase = ph;
      sc_faults = List.map (fun (s, f) -> (s, remap_fault f)) sc.Scenario.sc_faults;
      sc_injections =
        List.map
          (fun i -> { i with Scenario.inj_mtype = "RST"; inj_args = [ ("type", "RST") ] })
          sc.Scenario.sc_injections }
  in
  map
    (fun ((name, seed, horizon, faults, injections, checks, xfail), tcp_cfg) ->
      (* identical expect directives are a parse error by design, so the
         generator dedups the check list *)
      let checks =
        List.fold_left
          (fun acc c ->
            if List.exists (fun c' -> c'.Scenario.chk_expect = c) acc then acc
            else acc @ [ { Scenario.chk_line = 0; chk_expect = c } ])
          [] checks
      in
      let sc =
        { Scenario.sc_name = name;
          sc_harness = "abp";
          sc_profile = None;
          sc_phase = None;
          sc_seed = Option.map Int64.of_int seed;
          sc_horizon = horizon;
          sc_faults = faults;
          sc_injections = injections;
          sc_checks = checks;
          sc_xfail = xfail }
      in
      match tcp_cfg with
      | None -> sc
      | Some pp -> rebase_tcp pp sc)
    (pair
       (tup7 name
          (opt (int_range (-1000) 1000))
          (opt vtime)
          (list_size (int_range 0 3) (pair side gen_fault))
          (list_size (int_range 0 3) injection)
          (list_size (int_range 0 5) check)
          (opt name))
       tcp_cfg)

let prop_round_trip =
  QCheck.Test.make
    ~name:"Scenario.parse (Scenario.to_string sc) is equal to sc" ~count:500
    (QCheck.make gen_scenario)
    (fun sc ->
      let text = Scenario.to_string sc in
      match Scenario.parse text with
      | sc2 ->
        if Scenario.equal sc sc2 then true
        else
          QCheck.Test.fail_reportf
            "round trip changed the scenario —\n%s" text
      | exception Scenario.Parse_error e ->
        QCheck.Test.fail_reportf "canonical text does not re-parse: %s\n%s"
          (Scenario.error_message e) text)

let suite =
  [ Alcotest.test_case "tiny spec parses as written" `Quick test_parse_tiny;
    Alcotest.test_case "tiny spec expands to the pinned corpus" `Quick
      test_expand_tiny;
    Alcotest.test_case "expansion is deterministic" `Quick
      test_expand_deterministic;
    Alcotest.test_case "limit keeps a prefix of the corpus" `Quick
      test_expand_limit;
    Alcotest.test_case "manifest JSON round-trips" `Quick
      test_manifest_round_trip;
    Alcotest.test_case "matrix grammar errors name line and token" `Quick
      test_parse_errors;
    Alcotest.test_case "expansion errors map to .pfim lines" `Quick
      test_expand_error_lines;
    Alcotest.test_case "sweep range errors" `Quick test_sweep_errors;
    Alcotest.test_case "sweep semantics (int step, float grid, durations)"
      `Quick test_sweep_semantics;
    Alcotest.test_case "duplicate generated names are rejected" `Quick
      test_duplicate_names_rejected;
    Alcotest.test_case "expansion size is capped" `Quick test_expansion_cap;
    Alcotest.test_case "demo corpus: >= 150 scenarios, all on verdict" `Slow
      test_demo_corpus;
    QCheck_alcotest.to_alcotest prop_round_trip ]
