(* Golden-file tests over the pfi_run binary itself: `pfi_run msc` and
   `pfi_run help CMD` output is pinned byte-for-byte, so accidental
   drift in the ladder diagram or the normalized option table shows up
   as a diff, not as silent churn. *)

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

let test_help_all () =
  check_golden ~path:"golden/help.expected" (run_cli [ "help" ])

let test_help_check () =
  check_golden ~path:"golden/help_check.expected" (run_cli [ "help"; "check" ])

let test_help_campaign () =
  check_golden ~path:"golden/help_campaign.expected"
    (run_cli [ "help"; "campaign" ])

let test_help_gen () =
  check_golden ~path:"golden/help_gen.expected" (run_cli [ "help"; "gen" ])

let test_help_fuzz () =
  check_golden ~path:"golden/help_fuzz.expected" (run_cli [ "help"; "fuzz" ])

let test_help_matrix () =
  check_golden ~path:"golden/help_matrix.expected"
    (run_cli [ "help"; "matrix" ])

(* ------------------------------------------------------------------ *)
(* `pfi_run gen` on the tiny fixed matrix: the generated file set and  *)
(* manifest are pinned byte-for-byte, and generation is deterministic  *)
(* ------------------------------------------------------------------ *)

(* every verb renders its own man page.  The verbs are read off
   `pfi_run help`, so a new one is covered without editing this list. *)
let test_every_verb_help () =
  let verbs =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | "pfi_run" :: verb :: _ -> Some verb
        | _ -> None)
      (String.split_on_char '\n' (run_cli [ "help" ]))
  in
  Alcotest.(check bool) "help lists matrix" true (List.mem "matrix" verbs);
  List.iter (fun verb -> ignore (run_cli [ verb; "--help=plain" ])) ("help" :: verbs)

let test_dir path = Filename.concat (Filename.dirname Sys.executable_name) path

let fresh_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pfi_gen_%s_%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  dir

let gen_tiny tag =
  let dir = fresh_dir tag in
  let _ = run_cli [ "gen"; test_dir "matrix/tiny.pfim"; "-o"; dir ] in
  dir

let test_gen_tiny_golden () =
  let dir = gen_tiny "a" in
  let files = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
  check_golden ~path:"golden/tiny_corpus_files.expected"
    (String.concat "\n" files ^ "\n");
  check_golden ~path:"golden/tiny_manifest.expected.json"
    (read_file (Filename.concat dir "manifest.json"))

let test_gen_tiny_deterministic () =
  let a = gen_tiny "b" and b = gen_tiny "c" in
  let manifest d = read_file (Filename.concat d "manifest.json") in
  Alcotest.(check string)
    "manifest is byte-identical across two gen runs" (manifest a) (manifest b);
  List.iter
    (fun f ->
      if Filename.check_suffix f ".pfis" then
        Alcotest.(check string)
          (f ^ " is byte-identical across two gen runs")
          (read_file (Filename.concat a f))
          (read_file (Filename.concat b f)))
    (Sys.readdir a |> Array.to_list |> List.sort String.compare)

let test_check_manifest_jobs_parity () =
  let dir = gen_tiny "d" in
  let manifest = Filename.concat dir "manifest.json" in
  let run jobs =
    run_cli [ "check"; "--manifest"; manifest; "--jobs"; jobs; "--json" ]
  in
  Alcotest.(check string)
    "check --manifest --json is byte-identical at --jobs 1 and 4" (run "1")
    (run "4")

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

let test_bad_artifact_is_a_load_error () =
  let golden =
    read_file (Filename.concat (test_dir "golden") "tiny_abp_repro.expected.json")
  in
  let open Pfi_testgen.Json in
  List.iter
    (fun fault ->
      let artifact =
        match parse golden with
        | Ok (Obj fields) ->
          Obj (List.map (fun (k, v) -> if k = "fault" then (k, Obj fault) else (k, v)) fields)
        | _ -> Alcotest.fail "the golden repro artifact does not parse"
      in
      let path = Filename.temp_file "pfi_bad_repro" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc (to_string artifact);
          close_out oc;
          List.iter
            (fun verb ->
              let code, text = run_cli_status [ verb; path ] in
              Alcotest.(check int) (verb ^ " exits 1") 1 code;
              let prefix = "cannot load repro artifact " ^ path in
              Alcotest.(check bool)
                (Printf.sprintf "%s names the load error: %S" verb text)
                true
                (String.starts_with ~prefix text))
            [ "shrink"; "replay" ]))
    [ [ ("kind", Str "drop_nth"); ("mtype", Str "MSG"); ("n", Int 0) ];
      [ ("kind", Str "delay_each"); ("mtype", Str "MSG"); ("seconds", Float 1e13) ] ]

(* [replay] runs an artifact's script but [shrink] regenerates it from the
   fault, so [shrink] refuses an artifact whose script was edited *)
let test_shrink_refuses_edited_script () =
  let golden =
    read_file (Filename.concat (test_dir "golden") "tiny_abp_repro.expected.json")
  in
  let open Pfi_testgen.Json in
  let artifact =
    match parse golden with
    | Ok (Obj fields) ->
      Obj (List.map (fun (k, v) -> if k = "script" then (k, Str "error boom") else (k, v)) fields)
    | _ -> Alcotest.fail "the golden repro artifact does not parse"
  in
  let path = Filename.temp_file "pfi_edited_repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (to_string artifact);
      close_out oc;
      let code, text = run_cli_status [ "shrink"; path ] in
      Alcotest.(check int) "shrink exits 1" 1 code;
      Alcotest.(check string) "shrink names the mismatch"
        (Printf.sprintf
           "cannot shrink %s: its script is not the generated filter of its fault\n" path)
        text)

(* ------------------------------------------------------------------ *)
(* `fuzz --trace-out` exports each finding's trial trace               *)
(* ------------------------------------------------------------------ *)

let check_pinned what ~bytes ~md5 text =
  Alcotest.(check int) (what ^ ": bytes") bytes (String.length text);
  Alcotest.(check string) (what ^ ": MD5") md5 (Digest.to_hex (Digest.string text))

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
          check_pinned (String.concat " " args) ~bytes ~md5 (read_file path)))
    [ ([ "abp-buggy"; "--seed"; "1"; "--budget"; "120" ], 50_552,
       "89a691586c28d1a85d4c2a29cacc4bee");
      ([ "gmp-buggy"; "--seed"; "4"; "--budget"; "16" ], 196_409,
       "d9466c4a12798fb68a41dcb3bcddcd42") ]

(* ------------------------------------------------------------------ *)
(* Every other JSONL trace export, pinned the same way                 *)
(* ------------------------------------------------------------------ *)

(* [--trace-out] of a campaign (control and every trial), a replay, the
   committed scenario corpus and the ladder's one sim, and the [msc]
   entries [msc --json] prints.  The committed repro fixture was
   recorded from a three-message workload and the harness sends twenty,
   so its replay exits 1 on the verdict mismatch, after writing the
   trace. *)
let test_trace_out_pinned () =
  let scenarios =
    Sys.readdir (test_dir "scenarios")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pfis")
    |> List.sort String.compare
    |> List.map (Filename.concat (test_dir "scenarios"))
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
          check_pinned what ~bytes ~md5 (read_file path)))
    [ ([ "campaign"; "abp-buggy" ], 0, 326_802, "34e778f4b79e4dfe44347b9870b830aa");
      ( [ "replay"; test_dir "golden/tiny_abp_repro.expected.json" ],
        1, 39_748, "ea8a4e74b20f20c53eb6a811a01c9d0a" );
      ("check" :: scenarios, 0, 787_995, "991af202b575a01b66525be5b9627e42");
      ([ "msc" ], 0, 41_536, "219982ee0baa2ee15a0f99827c76c65e") ];
  check_pinned "msc --json" ~bytes:19_720 ~md5:"9a7dea61ee86031e558ad1a7e38f6543"
    (run_cli [ "msc"; "--json" ])

let suite =
  [ Alcotest.test_case "pfi_run msc matches the golden ladder" `Slow test_msc;
    Alcotest.test_case "pfi_run help matches the golden table" `Quick
      test_help_all;
    Alcotest.test_case "pfi_run help check golden" `Quick test_help_check;
    Alcotest.test_case "pfi_run help campaign golden" `Quick test_help_campaign;
    Alcotest.test_case "pfi_run help gen golden" `Quick test_help_gen;
    Alcotest.test_case "pfi_run help fuzz golden" `Quick test_help_fuzz;
    Alcotest.test_case "pfi_run help matrix golden" `Quick test_help_matrix;
    Alcotest.test_case "every verb's --help=plain exits 0" `Quick test_every_verb_help;
    Alcotest.test_case "pfi_run gen tiny corpus matches the goldens" `Quick
      test_gen_tiny_golden;
    Alcotest.test_case "pfi_run gen is deterministic across runs" `Quick
      test_gen_tiny_deterministic;
    Alcotest.test_case "check --manifest output is jobs-invariant" `Slow
      test_check_manifest_jobs_parity;
    Alcotest.test_case "shrink/replay reject an out-of-range fault on load"
      `Quick test_bad_artifact_is_a_load_error;
    Alcotest.test_case "shrink refuses an artifact whose script was edited"
      `Quick test_shrink_refuses_edited_script;
    Alcotest.test_case "--trace-out and msc --json export pinned JSONL" `Quick
      test_trace_out_pinned;
    Alcotest.test_case "fuzz --trace-out exports pinned finding traces" `Quick
      test_fuzz_trace_out_pinned ]
