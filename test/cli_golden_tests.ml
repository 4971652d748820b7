(* Tests over the pfi_run binary itself: `pfi_run msc` output and the
   corpus `pfi_run gen` writes are pinned byte-for-byte, so accidental
   drift shows up as a diff, not as silent churn. *)

let exe () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "pfi_run.exe"))

let run_cli args =
  let cmd = Filename.quote_command (exe ()) args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 8192 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Buffer.contents buf
  | Unix.WEXITED n ->
    Alcotest.failf "pfi_run %s exited with %d" (String.concat " " args) n
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Alcotest.failf "pfi_run %s stopped by signal %d" (String.concat " " args) s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden ~path actual =
  let path = Filename.concat (Filename.dirname Sys.executable_name) path in
  let expected = read_file path in
  if actual <> expected then
    Alcotest.failf
      "output differs from %s —\n--- expected ---\n%s\n--- actual ---\n%s" path
      expected actual

let test_msc () = check_golden ~path:"golden/msc.expected" (run_cli [ "msc" ])

(* every verb renders its own man page.  The verbs are read off the
   COMMANDS section of `pfi_run --help=plain`, where each is a line
   indented 7 columns ("       campaign [OPTION]… TARGET") and its doc
   is indented deeper, so a new verb is covered without editing this
   list. *)
let test_every_verb_help () =
  let verb line =
    if String.length line > 7 && String.sub line 0 7 = "       " && line.[7] <> ' ' then
      Some (List.hd (String.split_on_char ' ' (String.trim line)))
    else None
  in
  let rec commands = function
    | "COMMANDS" :: rest -> section rest
    | _ :: rest -> commands rest
    | [] -> []
  (* the section ends at the next unindented heading *)
  and section = function
    | line :: rest when line = "" || line.[0] = ' ' -> Option.to_list (verb line) @ section rest
    | _ -> []
  in
  let verbs = commands (String.split_on_char '\n' (run_cli [ "--help=plain" ])) in
  Alcotest.(check bool) "COMMANDS lists matrix and shrink" true
    (List.mem "matrix" verbs && List.mem "shrink" verbs);
  List.iter (fun verb -> ignore (run_cli [ verb; "--help=plain" ])) verbs

(* ------------------------------------------------------------------ *)
(* `pfi_run gen` on the tiny fixed matrix: the generated file set and  *)
(* corpus digest are pinned, and generation is deterministic           *)
(* ------------------------------------------------------------------ *)

let test_dir path = Filename.concat (Filename.dirname Sys.executable_name) path

(* [f] on a fresh directory, removed with its files afterwards *)
let with_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pfi_gen_%s_%d" tag (Unix.getpid ()))
  in
  let clear () = Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir) in
  if Sys.file_exists dir then clear () else Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> clear (); Sys.rmdir dir) (fun () -> f dir)

(* [f dir out]: the tiny corpus gen wrote into [dir], and what it printed *)
let gen_tiny tag f =
  with_dir tag (fun dir -> f dir (run_cli [ "gen"; test_dir "matrix/tiny.pfim"; "-o"; dir ]))

let pfis_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pfis")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* gen writes the .pfis files and nothing else; their bytes are pinned
   by the digest gen prints *)
let test_gen_tiny_golden () =
  gen_tiny "a" (fun dir out ->
      let files = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
      check_golden ~path:"golden/tiny_corpus_files.expected"
        (String.concat "\n" files ^ "\n");
      Alcotest.(check bool) "corpus digest" true
        (String.ends_with ~suffix:"  corpus digest 15c9d0c4da6a9eb67613dfda2cd67c80\n" out))

let test_gen_tiny_deterministic () =
  gen_tiny "b" (fun a _ ->
      gen_tiny "c" (fun b _ ->
          List.iter
            (fun f ->
              Alcotest.(check string)
                (f ^ " is byte-identical across two gen runs")
                (read_file (Filename.concat a f))
                (read_file (Filename.concat b f)))
            (Sys.readdir a |> Array.to_list |> List.sort String.compare)))

(* the standing demo spec, pinned by its scenario count and its corpus
   digest *)
let test_gen_registry_demo_pinned () =
  with_dir "demo" (fun dir ->
      let out = run_cli [ "gen"; test_dir "matrix/registry_demo.pfim"; "-o"; dir ] in
      Alcotest.(check int) "files written" 168 (Array.length (Sys.readdir dir));
      Alcotest.(check int) "scenarios written" 168 (List.length (pfis_files dir));
      Alcotest.(check bool) "corpus digest" true
        (String.ends_with
           ~suffix:"  corpus digest 20cce11a95c2d76c0954639de67e142c\n" out))

(* a generated corpus is checked like any other .pfis directory: each
   file's own xfail states its expected failure *)
let test_check_corpus_jobs_parity () =
  gen_tiny "d" (fun dir _ ->
      let run jobs = run_cli (("check" :: pfis_files dir) @ [ "--jobs"; jobs; "--json" ]) in
      let j1 = run "1" in
      Alcotest.(check bool) "7 scenarios, 0 failed, 1 expected failure" true
        (String.ends_with ~suffix:"\"scenarios\": 7,\n  \"failed\": 0,\n  \"xfailed\": 1\n}\n" j1);
      Alcotest.(check string)
        "check DIR/*.pfis --json is byte-identical at --jobs 1 and 4" j1 (run "4"))

(* ------------------------------------------------------------------ *)
(* Artifacts whose fault is out of range fail where they are read      *)
(* ------------------------------------------------------------------ *)

(* exit code and combined output, for runs expected to fail *)
let run_cli_status args =
  let out = Filename.temp_file "pfi_cli" ".out" in
  let code =
    Sys.command (Filename.quote_command (exe ()) args ~stdout:out ~stderr:out)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let tiny_repro () = read_file (test_dir "golden/tiny_abp_repro.expected.pfis")

(* [text] as a scratch .pfis file for [f] *)
let with_pfis tag text f =
  let path = Filename.temp_file tag ".pfis" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

(* the tiny repro with its lines rewritten by [edit] *)
let edited_repro edit =
  String.concat "\n" (List.concat_map edit (String.split_on_char '\n' (tiny_repro ())))

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let line_of text prefix =
  let rec go i = function
    | [] -> Alcotest.failf "no line starting %S" prefix
    | l :: rest -> if String.starts_with ~prefix l then i else go (i + 1) rest
  in
  go 1 (String.split_on_char '\n' text)

(* shrink and check both read .pfis through the parser, so an
   out-of-range fault is its line-and-word error *)
let test_bad_fault_is_a_load_error () =
  List.iter
    (fun (fault, token, reason) ->
      let text =
        edited_repro (fun l ->
            if String.starts_with ~prefix:"fault " l then [ "fault both " ^ fault ] else [ l ])
      in
      with_pfis "pfi_bad_repro" text (fun path ->
          let where =
            Printf.sprintf "%s:%d: %s (at %S)" path (line_of text "fault ") reason token
          in
          let code, out = run_cli_status [ "shrink"; path ] in
          Alcotest.(check int) "shrink exits 1" 1 code;
          Alcotest.(check string) "shrink names the line and word"
            ("cannot shrink " ^ where ^ "\n") out;
          let code, out = run_cli_status [ "check"; path ] in
          Alcotest.(check int) "check exits 1" 1 code;
          Alcotest.(check bool)
            (Printf.sprintf "check names the line and word: %S" out)
            true
            (String.starts_with ~prefix:(path ^ ": PARSE ERROR\n  " ^ where ^ "\n") out)))
    [ ("drop_nth MSG 0", "0", "drop_nth period must be at least 1");
      ("delay_each MSG 1e13", "1e13", "delay out of range") ]

(* a filter block is parsed when its end is read: a syntax error is
   the file's read error, at the file line of the script's line, and
   the other files on the command line still run *)
let test_unparsable_filter_block () =
  let text =
    edited_repro (fun l ->
        if String.starts_with ~prefix:"fault " l then
          [ "filter both"; {|if {[msg_type cur_msg] == "MSG"|}; "end" ]
        else [ l ])
  in
  with_pfis "pfi_brace" text (fun path ->
      let where =
        Printf.sprintf "%s:%d: unterminated {...} word (at %S)" path (line_of text "if {")
          "{[msg_type c"
      in
      let error = path ^ ": PARSE ERROR\n  " ^ where ^ "\n" in
      let code, out = run_cli_status [ "check"; path ] in
      Alcotest.(check (pair int string)) "alone: exit 1 and the one error line"
        (1, error ^ "-- 1 scenarios: 0 passed, 1 failed (0 expected failures)\n")
        (code, out);
      let scenarios = pfis_files (test_dir "scenarios") in
      let code, out = run_cli_status (("check" :: scenarios) @ [ path ]) in
      Alcotest.(check int) "after the corpus: exit 1" 1 code;
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ "'s result is printed") true
            (contains out (f ^ ": pass  [") || contains out (f ^ ": xfail (failed as declared)  [")))
        scenarios;
      Alcotest.(check bool) "after the corpus: the error line and the summary" true
        (String.ends_with
           ~suffix:(error ^ "-- 12 scenarios: 11 passed, 1 failed (3 expected failures)\n") out);
      let code, out = run_cli_status [ "check"; "--json"; path ] in
      let open Pfi_testgen.Json in
      Alcotest.(check (pair int bool)) "--json: exit 1 and its {file, error} object" (1, true)
        (code, String.starts_with ~prefix:(to_string (Obj [ ("file", Str path); ("error", Str where) ])) out))

(* a count is a non-negative integer and --jobs a worker count from 1
   to 128: a value outside is a usage error that names it, as a
   non-number is, before the verb runs; so is a missing input *)
let test_negative_count () =
  List.iter
    (fun (args, says) ->
      let what = String.concat " " (List.map Filename.basename args) in
      let code, out = run_cli_status args in
      Alcotest.(check int) (what ^ ": exit code") 124 code;
      Alcotest.(check bool) (Printf.sprintf "%s: says %S" what says) true (contains out says))
    [ ([ "fuzz"; "abp"; "--budget=-3" ], "invalid value '-3', expected a non-negative");
      ([ "campaign"; "abp"; "--jobs=-3"; "--json" ], "invalid value '-3', expected a worker count");
      ([ "campaign"; "abp"; "--jobs"; "0" ], "invalid value '0', expected a worker count");
      ([ "campaign"; "abp"; "--jobs"; "129" ], "invalid value '129', expected a worker count");
      ([ "check" ], "required argument FILE is missing");
      ([ "gen"; test_dir "matrix/tiny.pfim" ], "required option --output is missing") ]

(* shrink exits 1 on the tiny repro rewritten by [edit], and its
   message holds [needle path text] *)
let check_shrink_refuses (what, edit, args, needle) =
  let text = edited_repro edit in
  with_pfis "pfi_refused_repro" text (fun path ->
      let code, out = run_cli_status ([ "shrink"; path ] @ args) in
      let needle = needle path text in
      Alcotest.(check int) (what ^ ": shrink exits 1") 1 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" what out needle)
        true (contains out needle))

let after_fault extra l = if String.starts_with ~prefix:"fault " l then l :: extra else [ l ]

(* the refusal names the line that starts with [prefix] *)
let at_line prefix path text = Printf.sprintf "%s:%d: " path (line_of text prefix)

(* shrink minimizes one generated fault, so it refuses a repro that
   carries a hand-written filter block, naming the block's line *)
let test_shrink_refuses_edited_script () =
  check_shrink_refuses
    ("a filter block", after_fault [ "filter both"; "error boom"; "end" ], [], at_line "filter")

(* what else shrink cannot carry: a second fault, a heal line, and a
   seed that --seed does not derive for the file's fault and side *)
let test_shrink_refusals () =
  List.iter check_shrink_refuses
    [ ("two faults", after_fault [ "fault send duplicate ACK" ], [], at_line "fault send");
      ("a heal line", after_fault [ "@30s heal" ], [], at_line "@30s heal");
      ( "a seed not derived from --seed",
        (fun l -> [ l ]),
        [ "--seed"; "8" ],
        fun _ _ -> "pass the campaign seed it was recorded with as --seed" ) ]

(* [xfail = REASON] pins the violation byte for byte: a repro whose
   recorded witness index is one off does not check as expected *)
let test_exact_reason_off_by_one () =
  let open Pfi_testgen in
  let h = Option.get (Registry.find "gmp-buggy") in
  let fault = Generator.Delay_each ("PROCLAIM", 1.5) and side = Campaign.Receive_filter in
  let o =
    Campaign.run_trial h ~horizon:(Harness_intf.default_horizon h)
      (Shrink.trial ~campaign_seed:(Harness_intf.default_seed h) { Shrink.fault; side })
  in
  let reason =
    match o.Campaign.verdict with
    | Campaign.Violation r -> r
    | Campaign.Tolerated -> Alcotest.fail "the PROCLAIM delay no longer violates"
  in
  let repro reason =
    Scenario.to_string
      (Scenario.repro ~name:"proclaim" ~harness:"gmp-buggy" ~seed:o.Campaign.seed
         ~horizon:(Harness_intf.default_horizon h) ~side ~reason [ fault ])
  in
  let outcome text =
    with_pfis "pfi_exact_reason" text (fun path ->
        let code, out = run_cli_status [ "check"; "--json"; path ] in
        match
          List.find_opt
            (fun o -> contains out (Printf.sprintf "\"outcome\": %S" o))
            [ "pass"; "fail"; "xfail"; "xpass" ]
        with
        | Some o -> (o, code)
        | None -> Alcotest.failf "check printed no outcome: %S" out)
  in
  let split = String.split_on_char '#' reason in
  Alcotest.(check bool) "the reason cites witness #227796" true
    (List.exists (String.starts_with ~prefix:"227796 ") split);
  Alcotest.(check (pair string int)) "the recorded reason checks as xfail" ("xfail", 0)
    (outcome (repro reason));
  let off_by_one =
    String.concat "#"
      (List.map
         (fun w ->
           if String.starts_with ~prefix:"227796 " w then
             "227797" ^ String.sub w 6 (String.length w - 6)
           else w)
         split)
  in
  Alcotest.(check (pair string int)) "witness #227797 checks as fail" ("fail", 1)
    (outcome (repro off_by_one))

(* ------------------------------------------------------------------ *)
(* `fuzz --trace-out` exports each finding's trial trace               *)
(* ------------------------------------------------------------------ *)

let check_pinned what ~bytes ~md5 text =
  Alcotest.(check int) (what ^ ": bytes") bytes (String.length text);
  Alcotest.(check string) (what ^ ": MD5") md5 (Digest.to_hex (Digest.string text))

(* the same for a file, which is not read into memory *)
let check_pinned_file what ~bytes ~md5 path =
  Alcotest.(check int) (what ^ ": bytes") bytes (Unix.stat path).Unix.st_size;
  Alcotest.(check string) (what ^ ": MD5") md5 (Digest.to_hex (Digest.file path))

(* pinned by length and MD5: three combination findings (abp-buggy),
   and one minimized single-fault finding (gmp-buggy) *)
let test_fuzz_trace_out_pinned () =
  List.iter
    (fun (args, bytes, md5) ->
      let path = Filename.temp_file "pfi_fuzz_trace" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          ignore (run_cli (("fuzz" :: args) @ [ "--trace-out"; path ]));
          check_pinned_file (String.concat " " args) ~bytes ~md5 path))
    [ ([ "abp-buggy"; "--seed"; "1"; "--budget"; "120" ], 50_552,
       "89a691586c28d1a85d4c2a29cacc4bee");
      ([ "gmp-buggy"; "--seed"; "4"; "--budget"; "16" ], 196_409,
       "d9466c4a12798fb68a41dcb3bcddcd42") ]

(* ------------------------------------------------------------------ *)
(* Every other JSONL trace export, pinned the same way                 *)
(* ------------------------------------------------------------------ *)

(* "HARNESS BYTES MD5" per line: each stock campaign's export, which
   CI also checks for gmp-buggy (134 MB) *)
let campaign_pins () =
  String.split_on_char '\n' (read_file (test_dir "golden/campaign_trace_out.expected"))
  |> List.filter_map (fun l -> Scanf.sscanf_opt l "%s %d %s%!" (fun h bytes md5 -> (h, (bytes, md5))))

(* [--trace-out] of the stock campaigns (control and every trial), a
   check of the committed repro fixture (an expected failure, so it
   exits 0), the committed scenario corpus and the ladder's one sim,
   and the [msc] entries [msc --json] prints.  The campaigns and the
   corpus stream the same bytes at --jobs 2 (and the corpus at 4),
   where the trials of a window past its first wait in buffers. *)
let test_trace_out_pinned () =
  let scenarios = pfis_files (test_dir "scenarios") in
  let pins = campaign_pins () in
  let campaign h jobs =
    let bytes, md5 = List.assoc h pins in
    ([ "campaign"; h; "--jobs"; jobs ], 0, bytes, md5)
  in
  List.iter
    (fun (args, code, bytes, md5) ->
      let path = Filename.temp_file "pfi_trace_out" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let what = String.concat " " (List.map Filename.basename args) in
          let status, _ = run_cli_status (args @ [ "--trace-out"; path ]) in
          Alcotest.(check int) (what ^ ": exit code") code status;
          check_pinned_file what ~bytes ~md5 path))
    (List.concat_map
       (fun jobs -> List.map (fun h -> campaign h jobs) [ "abp"; "abp-buggy"; "tcp"; "gmp" ])
       [ "1"; "2" ]
    @ List.map
        (fun jobs -> (("check" :: scenarios) @ jobs, 0, 787_995, "991af202b575a01b66525be5b9627e42"))
        [ []; [ "--jobs"; "2" ]; [ "--jobs"; "4" ] ]
    @ [ ( [ "check"; test_dir "golden/tiny_abp_repro.expected.pfis" ],
          0, 39_990, "d79ce26288de7de53d496dd4a3655acc" );
        ([ "msc" ], 0, 41_536, "219982ee0baa2ee15a0f99827c76c65e") ]);
  check_pinned "msc --json" ~bytes:19_720 ~md5:"9a7dea61ee86031e558ad1a7e38f6543"
    (run_cli [ "msc"; "--json" ])

(* ------------------------------------------------------------------ *)
(* A minimized artifact counts its own trial's injected events         *)
(* ------------------------------------------------------------------ *)

(* the [testgen.fault] and [pfi.log] entries of a JSONL trace: what a
   trial's [injected_events] counts *)
let injected_entries jsonl =
  let open Pfi_testgen.Json in
  String.split_on_char '\n' jsonl
  |> List.filter (fun line ->
         match Result.map (member "tag") (parse line) with
         | Ok (Some (Str ("testgen.fault" | "pfi.log"))) -> true
         | _ -> false)
  |> List.length

(* gmp-buggy's receive-side delay of every JOIN at campaign seed 57
   shrinks to a weaker delay whose trial logs a different number of
   faulted messages than the source's *)
let test_shrunk_artifact_counts_its_events () =
  let open Pfi_testgen in
  let h = Option.get (Registry.find "gmp-buggy") in
  let horizon = Harness_intf.default_horizon h in
  let campaign_seed = 57L in
  let st = { Shrink.fault = Generator.Delay_each ("JOIN", 1.5); side = Campaign.Receive_filter } in
  let o = Campaign.run_trial h ~horizon (Shrink.trial ~campaign_seed st) in
  let reason =
    match o.Campaign.verdict with
    | Campaign.Violation r -> r
    | Campaign.Tolerated -> Alcotest.fail "the JOIN delay no longer violates"
  in
  let src = Filename.temp_file "pfi_shrink_src" ".pfis" in
  let min = Filename.temp_file "pfi_shrink_min" ".pfis" in
  let trace = Filename.temp_file "pfi_shrink_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; min; trace ])
    (fun () ->
      Scenario.save_repro src ~verb:"campaign" ~seed:campaign_seed
        ~injected_events:o.Campaign.injected_events
        (Scenario.repro ~name:"join" ~harness:"gmp-buggy" ~seed:o.Campaign.seed ~horizon
           ~side:st.Shrink.side ~reason [ st.Shrink.fault ]);
      ignore (run_cli [ "shrink"; src; "-o"; min; "--seed"; "57" ]);
      ignore (run_cli [ "check"; min; "--trace-out"; trace ]);
      let text = read_file min in
      let recorded =
        List.find_map
          (fun l -> Scanf.sscanf_opt l "# injected events: %d%!" Fun.id)
          (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "the shrink moved the fault" true
        ((Scenario.parse text).Scenario.sc_faults <> [ (st.Shrink.side, st.Shrink.fault) ]);
      Alcotest.(check (option int)) "its injected events are its own trial's"
        (Some (injected_entries (read_file trace)))
        recorded)

(* ------------------------------------------------------------------ *)
(* An output path that cannot be written exits 1 with one line         *)
(* ------------------------------------------------------------------ *)

(* every option a verb writes to, pointed under a regular file: each
   exits 1 with one "cannot write PATH: REASON" line, and a directory
   option before its verb runs anything, so that line is all it
   prints.  A file option's verb has run by then (shrink prints its
   report first). *)
let test_unwritable_outputs () =
  let file = Filename.temp_file "pfi_not_a_dir" "" in
  let under name = Filename.concat file name in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun (args, path, directory) ->
          let what = String.concat " " (List.map Filename.basename args) in
          let code, out = run_cli_status args in
          let line = Printf.sprintf "cannot write %s: Not a directory" path in
          Alcotest.(check int) (what ^ ": exit code") 1 code;
          if directory then
            Alcotest.(check string) (what ^ ": the one line, before any run") (line ^ "\n") out
          else
            Alcotest.(check bool) (what ^ ": says which path") true
              (List.mem line (String.split_on_char '\n' out)))
        [ ([ "campaign"; "abp-buggy"; "--repro-dir"; under "sub" ], under "sub", true);
          ( [ "fuzz"; "abp-buggy"; "--seed"; "1"; "--budget"; "8"; "--corpus"; under "sub" ],
            under "sub", true );
          ([ "gen"; test_dir "matrix/tiny.pfim"; "-o"; under "sub" ], under "sub", true);
          ([ "campaign"; "abp-buggy"; "--trace-out"; under "t.jsonl" ], under "t.jsonl", true);
          ( [ "shrink"; test_dir "golden/tiny_abp_repro.expected.pfis"; "--seed"; "7"; "-o";
              under "m.pfis" ],
            under "m.pfis", false );
          ([ "matrix"; "--report"; under "r.md" ], under "r.md", false) ])

let suite =
  [ Alcotest.test_case "pfi_run msc matches the golden ladder" `Slow test_msc;
    Alcotest.test_case "every verb's --help=plain exits 0" `Quick test_every_verb_help;
    Alcotest.test_case "pfi_run gen tiny corpus matches the goldens" `Quick
      test_gen_tiny_golden;
    Alcotest.test_case "pfi_run gen is deterministic across runs" `Quick
      test_gen_tiny_deterministic;
    Alcotest.test_case "pfi_run gen registry_demo matches its pinned digests"
      `Quick test_gen_registry_demo_pinned;
    Alcotest.test_case "check of a generated corpus is jobs-invariant" `Slow
      test_check_corpus_jobs_parity;
    Alcotest.test_case "shrink/check reject an out-of-range fault on load"
      `Quick test_bad_fault_is_a_load_error;
    Alcotest.test_case "check reports an unparsable filter block and runs the rest"
      `Quick test_unparsable_filter_block;
    Alcotest.test_case "a negative count is a usage error" `Quick test_negative_count;
    Alcotest.test_case "shrink refuses an artifact whose script was edited"
      `Quick test_shrink_refuses_edited_script;
    Alcotest.test_case "shrink refuses a second fault, a heal and an underived seed"
      `Quick test_shrink_refusals;
    Alcotest.test_case "check fails a repro whose exact reason is one witness off"
      `Quick test_exact_reason_off_by_one;
    Alcotest.test_case "a minimized artifact counts its own injected events"
      `Quick test_shrunk_artifact_counts_its_events;
    Alcotest.test_case "--trace-out and msc --json export pinned JSONL" `Quick
      test_trace_out_pinned;
    Alcotest.test_case "fuzz --trace-out exports pinned finding traces" `Quick
      test_fuzz_trace_out_pinned;
    Alcotest.test_case "an output path under a regular file exits 1 with one line"
      `Quick test_unwritable_outputs ]
