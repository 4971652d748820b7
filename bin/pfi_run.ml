(* pfi-run: command-line front end to the PFI reproduction.

   - `pfi-run list`                the conformance catalogs and harnesses
   - `pfi-run repl`                interactive script REPL (the filter
                                   language, with a sample TCP segment bound)
   - `pfi-run msc`                 the paper's Section 4.1 ladder diagram
   - `pfi-run campaign <target>`   generated fault campaigns
                                   (abp | abp-buggy | gmp | gmp-buggy);
                                   --repro-dir writes an artifact per violation,
                                   --jobs N runs trials on N domains
   - `pfi-run shrink <file>`       minimize a violating repro artifact
   - `pfi-run replay <file>`       deterministically re-execute an artifact
   - `pfi-run check <file>...`     run *.pfis scenario conformance scripts
                                   (--jobs N runs scenarios on N domains;
                                   output is byte-identical for any N);
                                   --manifest runs a generated corpus and
                                   diffs outcomes against its manifest
   - `pfi-run gen <spec> -o DIR`   expand a *.pfim scenario-matrix spec
                                   into a .pfis corpus + JSON manifest
   - `pfi-run fuzz <harness>`      coverage-guided fault fuzzing:
                                   mutate fault scripts/schedules, keep
                                   coverage-increasing inputs, shrink and
                                   dedupe violations into findings
   - `pfi-run matrix [tcp|paper]`  run a conformance catalog: every row
                                   checks one paper result (--report
                                   writes EXPERIMENTS_tcp.md or
                                   EXPERIMENTS_paper.md)
   - `pfi-run help [<cmd>]`        the normalized option table

   Every subcommand draws its flags from one option-spec table (Copts
   below), so `--seed`, `--trace-out`, `--json` and `--jobs` mean the
   same thing everywhere they appear. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* The common option-spec table                                       *)
(* ------------------------------------------------------------------ *)

module Copts = struct
  type spec = {
    flag : string;  (** canonical long name *)
    docv : string;  (** metavariable, or "" for booleans *)
    doc : string;  (** one uniform meaning, whatever the subcommand *)
  }

  let seed =
    { flag = "seed";
      docv = "SEED";
      doc =
        "Root RNG seed.  For $(b,campaign) and $(b,matrix) this is the \
         campaign seed per-trial and per-row seeds are derived from; for \
         $(b,replay) and $(b,shrink) it overrides the artifact's recorded \
         seed; for $(b,check) it overrides each scenario's seed; for \
         $(b,fuzz) it seeds the fuzzer; for $(b,repl) it seeds the \
         REPL's simulator." }

  let trace_out =
    { flag = "trace-out";
      docv = "FILE";
      doc =
        "Write the full simulation trace of every run as JSON Lines to \
         $(docv): one object per trace entry, tagged with its origin and a \
         deterministic sim index." }

  let json =
    { flag = "json";
      docv = "";
      doc = "Print machine-readable JSON objects instead of ASCII output." }

  let jobs =
    { flag = "jobs";
      docv = "N";
      doc =
        "Execute independent trials on $(docv) worker domains \
         (Executor.domains).  Output is byte-identical for any $(docv); \
         the default 1 is the sequential executor." }

  let repro_dir =
    { flag = "repro-dir";
      docv = "DIR";
      doc =
        "Write one JSON repro artifact per violating trial into $(docv) \
         (created if missing).  Each artifact is self-contained: `pfi_run \
         replay` re-executes it deterministically and `pfi_run shrink` \
         minimizes it." }

  let output =
    { flag = "output";
      docv = "OUT";
      doc =
        "Output path: the minimized artifact for $(b,shrink), the corpus \
         directory for $(b,gen)." }

  let max_trials =
    { flag = "max-trials";
      docv = "N";
      doc = "Re-run budget for the minimizer (default 1000)." }

  let limit =
    { flag = "limit";
      docv = "N";
      doc =
        "Keep only the first $(docv) scenarios of the expansion — a prefix \
         of the full corpus, so a limited run is a cheap smoke test of the \
         same matrix." }

  let manifest =
    { flag = "manifest";
      docv = "FILE";
      doc =
        "Run the generated corpus recorded in $(docv) (written by \
         $(b,gen)): verify the corpus digest, execute every scenario in \
         manifest order, and diff each outcome against its recorded \
         expected verdict.  Mutually exclusive with positional files; exit \
         1 on any mismatch." }

  let budget =
    { flag = "budget";
      docv = "N";
      doc =
        "Mutation budget: total fuzz-loop executions (mutated trial runs) \
         to spend (default 200).  Minimization re-runs per finding are \
         accounted separately." }

  let corpus =
    { flag = "corpus";
      docv = "DIR";
      doc =
        "Write the fuzzing outputs into $(docv) (created if missing): \
         findings.jsonl (the deduplicated findings stream), one replayable \
         repro artifact per minimized finding, and corpus.txt listing \
         every coverage-increasing input in discovery order." }

  let stats =
    { flag = "stats";
      docv = "";
      doc =
        "Print scheduling and allocation counters after the run: per-worker \
         executor utilization (claims, trials, busy fraction) plus GC words \
         allocated on the calling domain and arena-recycled trials.  Purely \
         observational — the numbers vary with $(b,--jobs) and machine \
         load, while the results stay byte-identical." }

  let report =
    { flag = "report";
      docv = "FILE";
      doc =
        "Write the markdown conformance report to $(docv) instead of \
         stdout.  The bytes are independent of $(b,--jobs); the one-line \
         summary still goes to stdout." }

  let profile =
    { flag = "profile";
      docv = "VENDOR";
      doc =
        "Build every trial with the $(docv) profile while keeping each \
         row's own vendor expectations — the wrong-knob negative control, \
         so mismatched rows are expected to FAIL.  Vendor-matrix \
         ($(b,tcp)) rows only: with $(b,paper) it exits 2." }

  (* which subcommand carries which options — the single source the
     Cmdliner terms and `pfi_run help <cmd>` are both generated from *)
  let commands =
    [ ("list", "", "List the conformance catalogs and campaign harnesses.",
       [ json ]);
      ("repl", "", "Interactive REPL over the filter scripting language.",
       [ seed ]);
      ("msc", "", "Print the paper's global-error-counter ladder diagram.",
       [ trace_out; json ]);
      ("campaign", "TARGET", "Run a generated fault-injection campaign.",
       [ seed; trace_out; json; jobs; repro_dir; stats ]);
      ("shrink", "FILE", "Minimize a violating repro artifact.",
       [ seed; trace_out; json; jobs; output; max_trials ]);
      ("replay", "FILE", "Deterministically re-execute a repro artifact.",
       [ seed; trace_out; json ]);
      ("check", "FILE...",
       "Run packetdrill-style scenario conformance scripts (*.pfis).",
       [ seed; trace_out; json; jobs; manifest ]);
      ("gen", "SPEC",
       "Expand a *.pfim scenario-matrix spec into a .pfis corpus with a \
        JSON manifest.",
       [ output; json; limit ]);
      ("fuzz", "HARNESS",
       "Coverage-guided fault fuzzing: mutate fault scripts and injection \
        schedules, keep inputs that reach new trace coverage, minimize and \
        deduplicate every violation into a findings stream.",
       [ seed; trace_out; json; jobs; budget; corpus; stats ]);
      ("matrix", "[CATALOG]",
       "Run a conformance catalog, $(b,tcp) (default: the vendor matrix \
        that re-discovers the paper's TCP quirk tables from traces) or \
        $(b,paper) (every other paper result).",
       [ seed; json; jobs; report; profile ]) ]

  (* Cmdliner terms, generated from the specs *)
  let flag_term spec = Arg.(value & flag & info [ spec.flag ] ~doc:spec.doc)

  let opt_term cv spec =
    Arg.(
      value
      & opt (some cv) None
      & info [ spec.flag ] ~docv:spec.docv ~doc:spec.doc)

  let seed_term = opt_term Arg.int64 seed
  let trace_out_term = opt_term Arg.string trace_out
  let json_term = flag_term json
  let repro_dir_term = opt_term Arg.string repro_dir
  let output_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; output.flag ] ~docv:output.docv ~doc:output.doc)
  let max_trials_term =
    Arg.(
      value
      & opt int 1000
      & info [ max_trials.flag ] ~docv:max_trials.docv ~doc:max_trials.doc)
  let jobs_term =
    Arg.(value & opt int 1 & info [ jobs.flag ] ~docv:jobs.docv ~doc:jobs.doc)
  let limit_term = opt_term Arg.int limit
  let manifest_term = opt_term Arg.string manifest
  let budget_term = opt_term Arg.int budget
  let corpus_term = opt_term Arg.string corpus
  let stats_term = flag_term stats
  let report_term = opt_term Arg.string report
  let profile_term = opt_term Arg.string profile
end

(* `pfi_run help [CMD]`: print the normalized option table *)
let help_table cmd =
  (* strip the Cmdliner markup used in the spec docs: $(b,X)/$(i,X)
     become X, $(docv) becomes the option's metavariable *)
  let plain ?(docv = "") doc =
    let buf = Buffer.create (String.length doc) in
    let n = String.length doc in
    let rec go i =
      if i < n then
        if i + 1 < n && doc.[i] = '$' && doc.[i + 1] = '(' then begin
          let stop =
            match String.index_from_opt doc (i + 2) ')' with
            | Some j -> j
            | None -> n
          in
          let body = String.sub doc (i + 2) (max 0 (stop - i - 2)) in
          let body =
            match String.index_opt body ',' with
            | Some k -> String.sub body (k + 1) (String.length body - k - 1)
            | None -> if body = "docv" then docv else body
          in
          Buffer.add_string buf body;
          go (stop + 1)
        end
        else begin
          Buffer.add_char buf doc.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents buf
  in
  let print_one (name, args, doc, opts) =
    let usage = if args = "" then name else name ^ " " ^ args in
    Printf.printf "pfi_run %s\n  %s\n" usage (plain doc);
    List.iter
      (fun (o : Copts.spec) ->
        let lhs =
          if o.docv = "" then Printf.sprintf "--%s" o.flag
          else Printf.sprintf "--%s %s" o.flag o.docv
        in
        Printf.printf "    %-22s %s\n" lhs (plain ~docv:o.docv o.doc))
      opts;
    print_newline ()
  in
  match cmd with
  | None -> List.iter print_one Copts.commands
  | Some name ->
    (match
       List.find_opt (fun (n, _, _, _) -> n = name) Copts.commands
     with
     | Some entry -> print_one entry
     | None ->
       Printf.eprintf "unknown command %S (try `pfi_run help`)\n" name;
       exit 1)

let help_cmd =
  let doc = "Print the normalized option table (all commands or one)." in
  let cmd = Arg.(value & pos 0 (some string) None & info [] ~docv:"CMD") in
  Cmd.v (Cmd.info "help" ~doc) Term.(const help_table $ cmd)

(* ------------------------------------------------------------------ *)
(* Conformance catalogs and the inventory                             *)
(* ------------------------------------------------------------------ *)

let catalogs =
  [ ("tcp",
     "TCP vendor quirk matrix, paper Tables 1-4 (EXPERIMENTS_tcp.md)",
     Pfi_testgen.Conformance.catalog);
    ("paper",
     "the other paper results: Tables 2-8, Figure 4, Experiment 5, \
      ablations (EXPERIMENTS_paper.md)",
     Pfi_testgen.Paper.catalog) ]

(* --trace-out FILE, for every verb that takes it: the file opens
   before anything runs (or the verb exits 1), and the returned
   exporter later hands [write] each trace to keep, in a deterministic
   order, with the origin key/values stamped on its JSONL lines *)
let trace_sink trace_out =
  let oc =
    Option.map
      (fun path ->
        try open_out path
        with Sys_error m ->
          Printf.eprintf "cannot open trace output: %s\n" m;
          exit 1)
      trace_out
  in
  fun export ->
    Option.iter
      (fun oc ->
        export (fun extra trace -> Pfi_testgen.Json.output_trace ~extra oc trace);
        close_out oc)
      oc

let json_str s = Pfi_testgen.Json.Str s
let json_print tree = print_endline (Pfi_testgen.Json.to_string tree)

let list_ json =
  if json then begin
    List.iter
      (fun (name, desc, _) ->
        json_print
          (Pfi_testgen.Json.Obj
             [ ("catalog", json_str name); ("description", json_str desc) ]))
      catalogs;
    List.iter
      (fun entry ->
        json_print
          (Pfi_testgen.Json.Obj
             [ ("harness", json_str (Pfi_testgen.Harness_intf.name entry));
               ("description",
                json_str (Pfi_testgen.Harness_intf.description entry)) ]))
      Pfi_testgen.Registry.entries
  end
  else begin
    print_endline "conformance catalogs (pfi_run matrix <name>):";
    List.iter
      (fun (name, desc, _) -> Printf.printf "  %-16s %s\n" name desc)
      catalogs;
    print_endline "campaign harnesses (pfi_run campaign <name>):";
    List.iter
      (fun entry ->
        Printf.printf "  %-16s %s\n"
          (Pfi_testgen.Harness_intf.name entry)
          (Pfi_testgen.Harness_intf.description entry))
      Pfi_testgen.Registry.entries
  end

let list_cmd =
  let doc = "List the conformance catalogs and campaign harnesses." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_ $ Copts.json_term)

(* A REPL over the filter scripting language, with a sample TCP segment
   bound as cur_msg so msg_* commands can be explored interactively. *)
let repl seed =
  let open Pfi_engine in
  let open Pfi_stack in
  let sim = Sim.create ?seed () in
  let pfi =
    Pfi_core.Pfi_layer.create ~sim ~node:"repl" ~stub:Pfi_tcp.Tcp_stub.stub ()
  in
  let sink =
    Layer.create ~name:"sink" ~node:"repl"
      { on_push =
          (fun _ msg ->
            Printf.printf "  (a message left the layer downward: %s)\n"
              (Message.hex ~max_bytes:20 msg));
        on_pop = (fun _ _ -> ()) }
  in
  Layer.link ~upper:(Pfi_core.Pfi_layer.layer pfi) ~lower:sink;
  let sample =
    Pfi_tcp.Segment.make
      ~payload:(Bytes.of_string "hello")
      ~src_port:1234 ~dst_port:80 ~seq:1000 ~ack:2000
      ~flags:Pfi_tcp.Segment.flag_ack ~window:4096 ()
  in
  print_endline "PFI filter-script REPL.  A sample TCP DATA segment is processed";
  print_endline "through the send filter each time you press Enter after a script.";
  print_endline "Commands: msg_type, msg_field, xDrop, xDelay, expr, set, puts, ...";
  print_endline "Type 'quit' to exit.";
  let rec loop () =
    print_string "pfi> ";
    match read_line () with
    | exception End_of_file -> ()
    | "quit" | "exit" -> ()
    | line ->
      (try
         Pfi_core.Pfi_layer.set_send_filter pfi line;
         let msg = Pfi_tcp.Segment.to_message sample ~dst:"peer" in
         Layer.push (Pfi_core.Pfi_layer.layer pfi) msg;
         Sim.run sim
       with
       | Failure msg -> Printf.printf "  error: %s\n" msg
       | Pfi_script.Parser.Parse_error msg -> Printf.printf "  parse error: %s\n" msg);
      let stats = Pfi_core.Pfi_layer.send_stats pfi in
      Printf.printf "  [passed=%d dropped=%d delayed=%d dup=%d modified=%d]\n"
        stats.Pfi_core.Pfi_layer.passed stats.Pfi_core.Pfi_layer.dropped
        stats.Pfi_core.Pfi_layer.delayed stats.Pfi_core.Pfi_layer.duplicated
        stats.Pfi_core.Pfi_layer.modified;
      loop ()
  in
  loop ()

let repl_cmd =
  let doc = "Interactive REPL over the PFI filter scripting language." in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const repl $ Copts.seed_term)

(* Re-runs the Solaris global-error-counter experiment with MSC
   recording on and prints the ladder diagram the paper draws in §4.1
   (m1 retransmitted six times, its delayed ACK, then m2 three times).
   [--trace-out] exports the run's one simulation. *)
let msc trace_out json =
  let open Pfi_engine in
  let open Pfi_core in
  let open Pfi_testgen in
  let export_traces = trace_sink trace_out in
  let rig = Tcp_rig.make ~profile:Pfi_tcp.Profile.solaris_23 () in
  Pfi_netsim.Network.set_msc_enabled rig.Tcp_rig.net true;
  let vconn, _xc = Tcp_rig.connect rig in
  Pfi_layer.set_receive_filter rig.Tcp_rig.pfi
    {|
if {![info exists count]} { set count 0 }
incr count
if {$count == 31} { peer_set delay_next_ack 1 }
if {$count > 31} { xDrop cur_msg }
|};
  Pfi_layer.set_send_filter rig.Tcp_rig.pfi
    {|
if {![info exists delay_next_ack]} { set delay_next_ack 0 }
if {$delay_next_ack == 1 && [msg_type cur_msg] == "ACK"} {
  set delay_next_ack 0
  xDelay cur_msg 35.0
}
|};
  let t_filter = Sim.now rig.Tcp_rig.sim in
  Tcp_rig.feed_vendor rig ~conn:vconn ~chunk:128 ~every:(Vtime.ms 400)
    ~count:32;
  Sim.run ~until:(Vtime.hours 1) rig.Tcp_rig.sim;
  let trace = Sim.trace rig.Tcp_rig.sim in
  (* show only the interesting tail: from shortly before the drop phase *)
  let events =
    List.filter
      (fun e ->
        Vtime.(e.Pfi_netsim.Msc.time >= Vtime.add t_filter (Vtime.sec 12)))
      (Pfi_netsim.Msc.events trace)
  in
  if json then
    Json.output_trace ~extra:[ ("artifact", "msc") ] ~tag:"msc" stdout trace
  else begin
    print_endline
      "Message sequence chart: the Solaris global-error-counter discovery";
    print_endline
      "(m1's ACK delayed 35 s; X marks messages the PFI layer or network \
       dropped)\n";
    Pfi_netsim.Msc.render ~nodes:[ Tcp_rig.vendor_node; Tcp_rig.xk_node ]
      Format.std_formatter events
  end;
  export_traces (fun write -> write [ ("artifact", "msc"); ("sim", "0") ] trace)

let msc_cmd =
  let doc =
    "Print the paper's global-error-counter ladder diagram (regenerated)."
  in
  Cmd.v (Cmd.info "msc" ~doc)
    Term.(const msc $ Copts.trace_out_term $ Copts.json_term)

(* ------------------------------------------------------------------ *)
(* Fault-injection campaigns, repro artifacts, shrinking and replay   *)
(* ------------------------------------------------------------------ *)

let registry_entry which : (module Pfi_testgen.Harness_intf.HARNESS) =
  match Pfi_testgen.Registry.find which with
  | Some entry -> entry
  | None ->
    Printf.eprintf "unknown harness %S (try one of: %s)\n" which
      (String.concat ", " Pfi_testgen.Registry.names);
    exit 1

let mkdir_p dir =
  let rec go dir =
    if not (Sys.file_exists dir) then begin
      go (Filename.dirname dir);
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
    end
  in
  go dir

let verdict_json = function
  | Pfi_testgen.Campaign.Tolerated -> json_str "tolerated"
  | Pfi_testgen.Campaign.Violation reason ->
    Pfi_testgen.Json.Obj [ ("violation", json_str reason) ]

let outcome_json (o : Pfi_testgen.Campaign.outcome) =
  let open Pfi_testgen in
  Json.Obj
    [ ("fault", Repro.fault_to_json o.Campaign.fault);
      ("desc", json_str (Generator.describe o.Campaign.fault));
      ("side", json_str (Campaign.side_name o.Campaign.side));
      ("seed", json_str (Int64.to_string o.Campaign.seed));
      ("injected_events", Json.Int o.Campaign.injected_events);
      ("verdict", verdict_json o.Campaign.verdict) ]

(* --stats: scheduling and allocation counters, printed after (and
   separately from) the deterministic outputs so enabling the flag never
   perturbs summaries, traces or artifacts. *)
let alloc_words_now () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let exec_stats_json (st : Pfi_testgen.Executor.stats) ~alloc_words ~trials
    ~arena_trials =
  let open Pfi_testgen in
  let workers =
    List.map
      (fun (w : Executor.worker_stat) ->
        Json.Obj
          [ ("claims", Json.Int w.Executor.ws_claims);
            ("items", Json.Int w.Executor.ws_items);
            ("busy_s", Json.Float w.Executor.ws_busy_s) ])
      st.Executor.st_workers
  in
  Json.Obj
    [ ("stats",
       Json.Obj
         [ ("executor", json_str st.Executor.st_exec);
           ("maps", Json.Int st.Executor.st_maps);
           ("items", Json.Int st.Executor.st_items);
           ("domains_spawned", Json.Int st.Executor.st_spawned);
           ("elapsed_s", Json.Float st.Executor.st_elapsed_s);
           ("workers", Json.List workers);
           ("alloc_words", Json.Float alloc_words);
           ("alloc_words_per_trial",
            Json.Float
              (if trials > 0 then alloc_words /. float_of_int trials
               else 0.));
           ("arena_recycled_trials", Json.Int arena_trials) ]) ]

let print_exec_stats (st : Pfi_testgen.Executor.stats) ~alloc_words ~trials
    ~arena_trials =
  let open Pfi_testgen in
  Printf.printf
    "stats: executor %s — %d maps, %d items, %d domains spawned, %.3fs\n"
    st.Executor.st_exec st.Executor.st_maps st.Executor.st_items
    st.Executor.st_spawned st.Executor.st_elapsed_s;
  List.iteri
    (fun i (w : Executor.worker_stat) ->
      let busy =
        if st.Executor.st_elapsed_s > 0. then
          100. *. w.Executor.ws_busy_s /. st.Executor.st_elapsed_s
        else 0.
      in
      Printf.printf "  worker %d: %d claims, %d items, %.1f%% busy\n" i
        w.Executor.ws_claims w.Executor.ws_items busy)
    st.Executor.st_workers;
  (* allocation and arena counters are per-domain: the figures below
     cover the calling domain, i.e. everything at --jobs 1 and the
     caller-as-worker share beyond that *)
  Printf.printf
    "  alloc: %.0f words on calling domain (%.0f/trial), arena recycled \
     %d trials\n"
    alloc_words
    (if trials > 0 then alloc_words /. float_of_int trials else 0.)
    arena_trials

(* fault-injection campaigns from generated scripts; every violation
   can be written out as a self-contained, replayable repro artifact.
   Trials run through Executor.of_jobs: outcomes (and hence the summary,
   the JSONL trace export, and the artifacts) come back in canonical
   plan order for any worker count. *)
let campaign which trace_out repro_dir seed jobs json stats =
  let open Pfi_testgen in
  let (module H : Harness_intf.HARNESS) = registry_entry which in
  let campaign_seed = Option.value seed ~default:H.default_seed in
  let executor = Executor.of_jobs jobs in
  let export_traces = trace_sink trace_out in
  let arena0 = Arena.trials_served () in
  let alloc0 = alloc_words_now () in
  match
    Campaign.run ~executor
      ~observe:(Campaign.observe ~traces:(trace_out <> None) ())
      (Campaign.plan ~seed:campaign_seed (module H : Harness_intf.HARNESS))
  with
  | exception Campaign.Control_failure reason ->
    (* only the dedicated control-trial exception: a Failure raised by
       some faulted trial (e.g. a script error) must propagate as the
       error it is, not masquerade as a control-trial diagnosis *)
    if json then
      json_print
        (Json.Obj [ ("control_failure", json_str reason) ])
    else
      Printf.printf "the fault-free control trial already fails: %s\n" reason
  | summary ->
    let alloc_words = alloc_words_now () -. alloc0 in
    let outcomes = summary.Campaign.s_outcomes in
    if json then begin
      List.iter (fun o -> json_print (outcome_json o)) outcomes;
      json_print
        (Json.Obj
           [ ("trials", Json.Int (List.length outcomes));
             ("violations",
              Json.Int (List.length (Campaign.violations outcomes)));
             ("executor", json_str (Executor.name executor)) ])
    end
    else print_string (Campaign.table outcomes);
    if stats then begin
      let trials = List.length outcomes + 1 (* + control *) in
      let arena_trials = Arena.trials_served () - arena0 in
      let st = summary.Campaign.s_exec in
      if json then
        json_print (exec_stats_json st ~alloc_words ~trials ~arena_trials)
      else print_exec_stats st ~alloc_words ~trials ~arena_trials
    end;
    (* the trace export walks control + trials in canonical order, so
       the JSONL bytes are independent of the worker count too *)
    export_traces (fun write ->
        let extra i = [ ("campaign", which); ("sim", string_of_int i) ] in
        Option.iter (write (extra 0)) summary.Campaign.s_control_trace;
        List.iteri
          (fun i (o : Campaign.outcome) ->
            Option.iter (write (extra (i + 1))) o.Campaign.trace)
          outcomes);
    (match repro_dir with
     | None -> ()
     | Some dir ->
       mkdir_p dir;
       let bad = Campaign.violations outcomes in
       List.iteri
         (fun i outcome ->
           let artifact =
             Repro.of_outcome ~harness:H.name ~protocol:H.spec.Spec.protocol
               ~target:H.target ~horizon:H.default_horizon ~campaign_seed
               outcome
           in
           let path =
             Filename.concat dir (Repro.filename ~index:(i + 1) artifact)
           in
           Repro.save path artifact;
           if json then
             json_print (Json.Obj [ ("repro", json_str path) ])
           else Printf.printf "repro artifact: %s\n" path)
         bad;
       if bad = [] && not json then
         Printf.printf "no violations — no repro artifacts written\n")

let campaign_cmd =
  let doc =
    "Run a generated fault-injection campaign (abp | abp-buggy | gmp | \
     gmp-buggy), optionally writing a replayable repro artifact per \
     violation.  With $(b,--jobs) N the independent trials execute on N \
     domains; summaries, traces and artifacts are byte-identical for any N."
  in
  let which = Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET") in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const campaign $ which $ Copts.trace_out_term $ Copts.repro_dir_term
      $ Copts.seed_term $ Copts.jobs_term $ Copts.json_term
      $ Copts.stats_term)

let load_artifact file =
  match Pfi_testgen.Repro.load file with
  | Ok artifact -> artifact
  | Error reason ->
    Printf.eprintf "cannot load repro artifact %s: %s\n" file reason;
    exit 1

let pp_verdict = function
  | Pfi_testgen.Campaign.Tolerated -> "tolerated"
  | Pfi_testgen.Campaign.Violation reason -> "VIOLATION: " ^ reason

(* deterministic re-execution of a recorded trial: rebuild the recorded
   harness with the recorded seed, install the recorded script bytes,
   run to the recorded horizon, and require the recorded verdict.
   --seed swaps in another per-trial seed (a quick seed-robustness
   probe); a changed verdict then still exits 1. *)
let replay file trace_out seed json =
  let open Pfi_testgen in
  let artifact = load_artifact file in
  let (module H : Harness_intf.HARNESS) =
    registry_entry artifact.Repro.harness
  in
  let seed = Option.value seed ~default:artifact.Repro.seed in
  let export_traces = trace_sink trace_out in
  let outcome =
    Campaign.run_trial ~capture_trace:(trace_out <> None)
      (module H : Harness_intf.HARNESS)
      ~horizon:artifact.Repro.horizon
      (Campaign.trial
         ~script:(Pfi_script.Interp.compile artifact.Repro.script)
         ~seed ~side:artifact.Repro.side artifact.Repro.fault)
  in
  export_traces (fun write ->
      Option.iter
        (write [ ("replay", Filename.basename file); ("sim", "0") ])
        outcome.Campaign.trace);
  let reproduced = outcome.Campaign.verdict = artifact.Repro.verdict in
  if json then
    json_print
      (Json.Obj
         [ ("file", json_str file);
           ("harness", json_str artifact.Repro.harness);
           ("fault", Repro.fault_to_json artifact.Repro.fault);
           ("side", json_str (Campaign.side_name artifact.Repro.side));
           ("seed", json_str (Int64.to_string seed));
           ("recorded", verdict_json artifact.Repro.verdict);
           ("observed", verdict_json outcome.Campaign.verdict);
           ("reproduced", Json.Bool reproduced) ])
  else begin
    Printf.printf "replay %s\n  harness:  %s\n  fault:    %s\n  side:     %s\n"
      file artifact.Repro.harness
      (Generator.describe artifact.Repro.fault)
      (Campaign.side_name artifact.Repro.side);
    Printf.printf "  recorded: %s\n  observed: %s\n"
      (pp_verdict artifact.Repro.verdict)
      (pp_verdict outcome.Campaign.verdict);
    if reproduced then print_endline "  verdict reproduced"
    else print_endline "  VERDICT MISMATCH — the trial did not reproduce"
  end;
  if not reproduced then exit 1

let replay_cmd =
  let doc =
    "Deterministically re-execute a repro artifact and check that the \
     recorded verdict reproduces (exit 1 on mismatch)."
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const replay $ file $ Copts.trace_out_term $ Copts.seed_term
      $ Copts.json_term)

(* delta-debug a recorded violation down its parameter lattice and
   write the minimized trial as a fresh artifact; --jobs evaluates the
   independent candidates of each descent round in parallel *)
let shrink file out max_trials seed jobs trace_out json =
  let open Pfi_testgen in
  let artifact = load_artifact file in
  (* shrinking minimizes [fault] and runs each candidate's generated
     filter, so an artifact whose script is anything else would shrink
     into trials that do not reproduce it *)
  if artifact.Repro.script <> Generator.script_of_fault artifact.Repro.fault then begin
    Printf.eprintf
      "cannot shrink %s: its script is not the generated filter of its fault\n" file;
    exit 1
  end;
  let (module H : Harness_intf.HARNESS) =
    registry_entry artifact.Repro.harness
  in
  let campaign_seed = Option.value seed ~default:artifact.Repro.campaign_seed in
  let executor = Executor.of_jobs jobs in
  let export_traces = trace_sink trace_out in
  let trial_seed (st : Shrink.state) =
    Campaign.trial_seed ~campaign_seed ~side:st.Shrink.side st.Shrink.fault
  in
  let run ?capture_trace (st : Shrink.state) =
    Campaign.run_trial ?capture_trace
      (module H : Harness_intf.HARNESS)
      ~horizon:st.Shrink.horizon
      (Campaign.trial ~seed:(trial_seed st) ~side:st.Shrink.side st.Shrink.fault)
  in
  let st0 =
    { Shrink.fault = artifact.Repro.fault;
      Shrink.side = artifact.Repro.side;
      Shrink.horizon = artifact.Repro.horizon }
  in
  match
    Shrink.minimize ~max_trials ~executor ~spec:H.spec ~run:(run ?capture_trace:None) st0
  with
  | Error reason ->
    Printf.eprintf "cannot shrink %s: %s\n" file reason;
    exit 1
  | Ok report ->
    let minimized = report.Shrink.minimized in
    let out_path =
      match out with
      | Some p -> p
      | None -> Filename.remove_extension file ^ ".min.json"
    in
    let step_json (step : Shrink.step) =
      Json.Obj
        [ ("fault", Repro.fault_to_json step.Shrink.state.Shrink.fault);
          ("desc", json_str (Generator.describe step.Shrink.state.Shrink.fault));
          ("side", json_str (Campaign.side_name step.Shrink.state.Shrink.side));
          ("size", Json.Int step.Shrink.step_size);
          ("reason", json_str step.Shrink.reason) ]
    in
    if json then
      json_print
        (Json.Obj
           [ ("file", json_str file);
             ("initial_size", Json.Int report.Shrink.initial_size);
             ("steps", Json.List (List.map step_json report.Shrink.steps));
             ("trials", Json.Int report.Shrink.trials);
             ("minimized", Repro.fault_to_json minimized.Shrink.fault);
             ("minimized_size", Json.Int (Shrink.size minimized));
             ("executor", json_str (Executor.name executor));
             ("out", json_str out_path) ])
    else begin
      Printf.printf "shrink %s\n  start:     %-44s %-8s size %d\n" file
        (Generator.describe artifact.Repro.fault)
        (Campaign.side_name artifact.Repro.side)
        report.Shrink.initial_size;
      List.iter
        (fun (step : Shrink.step) ->
          Printf.printf "  shrunk to: %-44s %-8s size %d  (%s)\n"
            (Generator.describe step.Shrink.state.Shrink.fault)
            (Campaign.side_name step.Shrink.state.Shrink.side)
            step.Shrink.step_size step.Shrink.reason)
        report.Shrink.steps;
      Printf.printf "  %d accepted steps, %d trials\n"
        (List.length report.Shrink.steps)
        report.Shrink.trials
    end;
    (* the minimized trial's own trace, re-executed once more *)
    export_traces (fun write ->
        Option.iter
          (write [ ("shrink", Filename.basename file); ("sim", "0") ])
          (run ~capture_trace:true minimized).Campaign.trace);
    let trajectory =
      List.map
        (fun (step : Shrink.step) ->
          { Repro.step_fault = step.Shrink.state.Shrink.fault;
            Repro.step_side = step.Shrink.state.Shrink.side;
            Repro.step_horizon = step.Shrink.state.Shrink.horizon;
            Repro.step_seed = trial_seed step.Shrink.state;
            Repro.step_size = step.Shrink.step_size;
            Repro.step_reason = step.Shrink.reason })
        report.Shrink.steps
    in
    let shrunk =
      { artifact with
        Repro.fault = minimized.Shrink.fault;
        Repro.side = minimized.Shrink.side;
        Repro.horizon = minimized.Shrink.horizon;
        Repro.seed = trial_seed minimized;
        Repro.campaign_seed;
        Repro.script = Generator.script_of_fault minimized.Shrink.fault;
        Repro.verdict = Campaign.Violation report.Shrink.final_reason;
        Repro.shrink_trajectory = trajectory }
    in
    Repro.save out_path shrunk;
    if not json then Printf.printf "  minimized artifact: %s\n" out_path

let shrink_cmd =
  let doc =
    "Minimize a violating repro artifact by delta-debugging its fault down \
     the parameter lattice; writes the smallest still-violating trial as a \
     new artifact (FILE with a .min.json suffix unless $(b,-o) is given)."
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "shrink" ~doc)
    Term.(
      const shrink $ file $ Copts.output_term $ Copts.max_trials_term
      $ Copts.seed_term $ Copts.jobs_term $ Copts.trace_out_term
      $ Copts.json_term)

(* ------------------------------------------------------------------ *)
(* Coverage-guided fault fuzzing                                      *)
(* ------------------------------------------------------------------ *)

(* mutate fault scripts and injection schedules over the generator's
   fault lattice, keep coverage-increasing inputs, minimize and dedupe
   violations.  Deterministic end-to-end: findings (and the findings
   JSONL) are byte-identical for any --jobs width. *)
let fuzz which seed budget corpus_dir trace_out jobs json stats =
  let open Pfi_testgen in
  let (module H : Harness_intf.HARNESS) = registry_entry which in
  let fuzz_seed = Option.value seed ~default:Campaign.default_seed in
  let budget = Option.value budget ~default:Fuzz.default_budget in
  let executor = Executor.of_jobs jobs in
  let export_traces = trace_sink trace_out in
  let arena0 = Arena.trials_served () in
  let alloc0 = alloc_words_now () in
  let res =
    Fuzz.run ~executor ~seed:fuzz_seed ~budget
      (module H : Harness_intf.HARNESS)
  in
  let alloc_words = alloc_words_now () -. alloc0 in
  let finding_lines =
    List.map
      (fun fd -> Json.to_line (Fuzz.finding_json ~harness:H.name fd))
      res.Fuzz.r_findings
  in
  if json then begin
    List.iter print_endline finding_lines;
    json_print
      (Json.Obj
         [ ("harness", json_str H.name);
           ("seed", json_str (Int64.to_string fuzz_seed));
           ("budget", Json.Int budget);
           ("execs", Json.Int res.Fuzz.r_execs);
           ("shrink_execs", Json.Int res.Fuzz.r_shrink_execs);
           ("features", Json.Int res.Fuzz.r_features);
           ("corpus", Json.Int (List.length res.Fuzz.r_corpus));
           ("findings", Json.Int (List.length res.Fuzz.r_findings));
           ("executor", json_str (Executor.name executor)) ])
  end
  else begin
    Printf.printf
      "fuzz %s: %d/%d executions (+%d shrink), %d coverage features, %d \
       corpus inputs, %d findings\n"
      H.name res.Fuzz.r_execs budget res.Fuzz.r_shrink_execs
      res.Fuzz.r_features
      (List.length res.Fuzz.r_corpus)
      (List.length res.Fuzz.r_findings);
    List.iter
      (fun (fd : Fuzz.finding) ->
        Printf.printf "  %s%s\n    fault: %-40s side: %-8s seed: %Ld\n    %s\n"
          fd.Fuzz.fd_signature
          (if fd.Fuzz.fd_minimized then "  (minimized)" else "")
          (Generator.describe fd.Fuzz.fd_fault)
          (Campaign.side_name fd.Fuzz.fd_side)
          fd.Fuzz.fd_seed fd.Fuzz.fd_reason)
      res.Fuzz.r_findings
  end;
  if stats then begin
    let trials = res.Fuzz.r_execs + res.Fuzz.r_shrink_execs in
    let arena_trials = Arena.trials_served () - arena0 in
    let st = Executor.stats executor in
    if json then
      json_print (exec_stats_json st ~alloc_words ~trials ~arena_trials)
    else print_exec_stats st ~alloc_words ~trials ~arena_trials
  end;
  (* findings keep no trace: each finding's trial runs once more *)
  export_traces (fun write ->
      List.iteri
        (fun i (fd : Fuzz.finding) ->
          Option.iter
            (write
               [ ("fuzz", H.name);
                 ("finding", fd.Fuzz.fd_signature);
                 ("sim", string_of_int i) ])
            (Campaign.run_trial ~capture_trace:true
               (module H : Harness_intf.HARNESS)
               ~horizon:fd.Fuzz.fd_horizon (Fuzz.finding_trial fd))
              .Campaign.trace)
        res.Fuzz.r_findings);
  match corpus_dir with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    let foc = open_out_bin (Filename.concat dir "findings.jsonl") in
    List.iter (fun l -> output_string foc (l ^ "\n")) finding_lines;
    close_out foc;
    List.iteri
      (fun i fd ->
        match
          Fuzz.repro_of_finding ~harness:H.name
            ~protocol:H.spec.Spec.protocol ~target:H.target
            ~campaign_seed:fuzz_seed fd
        with
        | None -> ()
        | Some artifact ->
          let path =
            Filename.concat dir (Repro.filename ~index:(i + 1) artifact)
          in
          Repro.save path artifact;
          if json then
            json_print (Json.Obj [ ("repro", json_str path) ])
          else Printf.printf "repro artifact: %s\n" path)
      res.Fuzz.r_findings;
    let coc = open_out_bin (Filename.concat dir "corpus.txt") in
    List.iter
      (fun input -> output_string coc (Fuzz.canonical input ^ "\n"))
      res.Fuzz.r_corpus;
    close_out coc

let fuzz_cmd =
  let doc =
    "Coverage-guided fault fuzzing against a registry harness: mutate \
     fault scripts and injection schedules over the generated fault \
     lattice, keep inputs that reach new trace coverage ((node, tag) \
     pairs and their hit counts, protocol-state transitions), and shrink \
     plus deduplicate every service violation into a findings stream.  \
     Deterministic for a fixed $(b,--seed) and $(b,--budget): findings \
     are byte-identical for any $(b,--jobs) width."
  in
  let which =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HARNESS")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ which $ Copts.seed_term $ Copts.budget_term
      $ Copts.corpus_term $ Copts.trace_out_term $ Copts.jobs_term
      $ Copts.json_term $ Copts.stats_term)

(* ------------------------------------------------------------------ *)
(* Scenario conformance scripts                                       *)
(* ------------------------------------------------------------------ *)

let scenario_row_json (r : Pfi_testgen.Scenario.row) =
  let open Pfi_testgen in
  Json.Obj
    [ ("line", Json.Int r.Scenario.row_line);
      ("check", json_str r.Scenario.row_desc);
      ("pass", Json.Bool r.Scenario.row_pass);
      ("reason", json_str r.Scenario.row_reason);
      ("witness",
       match r.Scenario.row_witness with
       | Some i -> Json.Int i
       | None -> Json.Null) ]

let scenario_result_json ?(extra = []) file (r : Pfi_testgen.Scenario.result) =
  let open Pfi_testgen in
  Json.Obj
    ([ ("file", json_str file);
       ("scenario", json_str r.Scenario.res_scenario);
       ("harness", json_str r.Scenario.res_harness);
       ("seed", json_str (Int64.to_string r.Scenario.res_seed));
       ("horizon_us",
        json_str (Int64.to_string (Pfi_engine.Vtime.to_us r.Scenario.res_horizon)));
       ("outcome", json_str (Scenario.outcome_name r.Scenario.res_outcome));
       ("xfail",
        (match r.Scenario.res_xfail with
         | Some s -> json_str s
         | None -> Json.Null));
       ("checks", Json.List (List.map scenario_row_json r.Scenario.res_rows)) ]
    @ extra)

let print_scenario_result file (r : Pfi_testgen.Scenario.result) =
  let open Pfi_testgen in
  let verdict =
    match r.Scenario.res_outcome with
    | Scenario.Pass -> "pass"
    | Scenario.Xfail -> "xfail (failed as declared)"
    | Scenario.Fail -> "FAIL"
    | Scenario.Xpass -> "XPASS (declared xfail, but every check held)"
  in
  Printf.printf "%s: %s  [%s, harness %s, seed %Ld]\n" file verdict
    r.Scenario.res_scenario r.Scenario.res_harness r.Scenario.res_seed;
  List.iter
    (fun (row : Scenario.row) ->
      if row.Scenario.row_pass then
        Printf.printf "  ok    L%-3d %s\n" row.Scenario.row_line
          row.Scenario.row_desc
      else
        Printf.printf "  FAIL  L%-3d %s\n        %s\n" row.Scenario.row_line
          row.Scenario.row_desc row.Scenario.row_reason)
    r.Scenario.res_rows

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* a per-file error line: {"file", "error"} in JSON, [text] otherwise *)
let file_error ~json file msg text =
  if json then
    json_print
      (Pfi_testgen.Json.Obj [ ("file", json_str file); ("error", json_str msg) ])
  else print_string text

(* Both check modes run every scenario file through Executor.of_jobs
   (results come back in input order, so the output is byte-identical
   at any width) and share this per-result loop.  [judge file r] is a
   mode's own verdict on a loaded result: extra JSON fields, whether it
   fails the run whatever its outcome, and what to print after it.
   Returns (failed, xfailed, load errors). *)
let report_scenarios ~json ~trace_out ~jobs ?seed ~judge files =
  let open Pfi_testgen in
  let observe = Campaign.observe ~traces:(trace_out <> None) () in
  let export_traces = trace_sink trace_out in
  let results =
    Executor.map (Executor.of_jobs jobs)
      (fun file ->
        match Scenario.load file with
        | sc -> Ok (Scenario.run ?seed ~observe sc)
        | exception Scenario.Parse_error e ->
          Error (Scenario.error_message ~file e)
        | exception Sys_error m -> Error m)
      files
  in
  let failed = ref 0 and xfailed = ref 0 and errors = ref 0 in
  List.iter2
    (fun file res ->
      match res with
      | Error msg ->
        incr failed;
        incr errors;
        file_error ~json file msg
          (Printf.sprintf "%s: PARSE ERROR\n  %s\n" file msg)
      | Ok r ->
        let extra, fails, after = judge file r in
        if fails || not (Scenario.passed r) then incr failed;
        if r.Scenario.res_outcome = Scenario.Xfail then incr xfailed;
        if json then json_print (scenario_result_json ~extra file r)
        else print_scenario_result file r;
        after ())
    files results;
  export_traces (fun write ->
      List.iteri
        (fun i res ->
          match res with
          | Ok ({ Scenario.res_trace = Some trace; _ } as r) ->
            write
              [ ("scenario", r.Scenario.res_scenario); ("sim", string_of_int i) ]
              trace
          | _ -> ())
        results);
  (!failed, !xfailed, !errors)

let check_files files trace_out seed jobs json =
  let open Pfi_testgen in
  (* a corpus must not shadow a scenario: two files carrying the same
     scenario name is an error even when both pass *)
  let names = Hashtbl.create 16 in
  let judge file (r : Scenario.result) =
    let name = r.Scenario.res_scenario in
    match Hashtbl.find_opt names name with
    | None ->
      Hashtbl.add names name file;
      ([], false, ignore)
    | Some prior ->
      ( [],
        true,
        fun () ->
          file_error ~json file
            (Printf.sprintf "duplicate scenario name %S (already used by %s)"
               name prior)
            (Printf.sprintf
               "%s: DUPLICATE scenario name %S (already used by %s)\n" file
               name prior) )
  in
  let failed, xfailed, _ =
    report_scenarios ~json ~trace_out ~jobs ?seed ~judge files
  in
  if json then
    json_print
      (Json.Obj
         [ ("scenarios", Json.Int (List.length files));
           ("failed", Json.Int failed);
           ("xfailed", Json.Int xfailed) ])
  else
    Printf.printf "-- %d scenarios: %d passed, %d failed (%d expected failures)\n"
      (List.length files)
      (List.length files - failed)
      failed xfailed;
  if failed > 0 then exit 1

(* run a generated corpus against its manifest: verify the corpus bytes
   first (the digest pins them), then require every scenario to land on
   its recorded expected verdict *)
let check_manifest mpath trace_out seed jobs json =
  let open Pfi_testgen in
  let mf =
    match Matrix.load_manifest mpath with
    | Ok mf -> mf
    | Error msg ->
      Printf.eprintf "cannot load manifest %s: %s\n" mpath msg;
      exit 1
  in
  let dir = Filename.dirname mpath in
  let digest =
    Matrix.corpus_digest
      (List.map
         (fun (me : Matrix.manifest_entry) ->
           match read_file (Filename.concat dir me.Matrix.me_file) with
           | text -> (me.Matrix.me_file, text)
           | exception Sys_error m ->
             Printf.eprintf "cannot read corpus file: %s\n" m;
             exit 1)
         mf.Matrix.mf_entries)
  in
  if digest <> mf.Matrix.mf_corpus_digest then begin
    if json then
      json_print
        (Json.Obj
           [ ("manifest", json_str mpath);
             ("error", json_str "corpus digest mismatch");
             ("recorded", json_str mf.Matrix.mf_corpus_digest);
             ("observed", json_str digest) ])
    else
      Printf.printf
        "%s: CORPUS DIGEST MISMATCH\n  recorded %s\n  observed %s\n  (the \
         .pfis files changed since `pfi_run gen` wrote them)\n"
        mpath mf.Matrix.mf_corpus_digest digest;
    exit 1
  end;
  let files =
    List.map
      (fun (me : Matrix.manifest_entry) -> Filename.concat dir me.Matrix.me_file)
      mf.Matrix.mf_entries
  in
  let entries = List.combine files mf.Matrix.mf_entries in
  let mismatched = ref 0 in
  let judge file (r : Scenario.result) =
    let want = (List.assoc file entries).Matrix.me_expected in
    let outcome = Scenario.outcome_name r.Scenario.res_outcome in
    let matched = outcome = want in
    if not matched then incr mismatched;
    ( [ ("expected", json_str want); ("matched", Json.Bool matched) ],
      false,
      fun () ->
        if not (json || matched) then
          Printf.printf "  MISMATCH: manifest expects %s, got %s\n" want
            outcome )
  in
  let failed, xfailed, errors =
    report_scenarios ~json ~trace_out ~jobs ?seed ~judge files
  in
  let mismatched = !mismatched + errors in
  if json then
    json_print
      (Json.Obj
         [ ("manifest", json_str mpath);
           ("matrix", json_str mf.Matrix.mf_matrix);
           ("scenarios", Json.Int (List.length files));
           ("failed", Json.Int failed);
           ("xfailed", Json.Int xfailed);
           ("mismatches", Json.Int mismatched);
           ("corpus_digest", json_str digest) ])
  else
    Printf.printf
      "-- corpus %s: %d scenarios: %d passed, %d failed (%d expected \
       failures), %d manifest mismatches\n"
      mf.Matrix.mf_matrix (List.length files)
      (List.length files - failed)
      failed xfailed mismatched;
  if failed > 0 || mismatched > 0 then exit 1

let check files trace_out seed jobs json manifest =
  match (manifest, files) with
  | Some _, _ :: _ ->
    Printf.eprintf
      "check: --manifest and positional scenario files are mutually \
       exclusive\n";
    exit 2
  | Some mpath, [] -> check_manifest mpath trace_out seed jobs json
  | None, [] ->
    Printf.eprintf "check: no scenario files (give FILE... or --manifest)\n";
    exit 2
  | None, files -> check_files files trace_out seed jobs json

let check_cmd =
  let doc =
    "Run packetdrill-style scenario conformance scripts (*.pfis): build the \
     named harness, install the scripted faults and injections, run to the \
     horizon and judge the trace against every $(b,expect) oracle.  Exit 1 \
     if any scenario fails.  With $(b,--jobs) N independent scenarios \
     execute on N domains with byte-identical output; with $(b,--manifest) \
     the corpus recorded by $(b,gen) is verified and every outcome diffed \
     against its expected verdict."
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE")
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ files $ Copts.trace_out_term $ Copts.seed_term
      $ Copts.jobs_term $ Copts.json_term $ Copts.manifest_term)

(* ------------------------------------------------------------------ *)
(* Scenario-matrix generation                                         *)
(* ------------------------------------------------------------------ *)

let gen spec_path out json limit =
  let open Pfi_testgen in
  let out =
    match out with
    | Some dir -> dir
    | None ->
      Printf.eprintf "gen: no output directory (give -o DIR)\n";
      exit 2
  in
  let src =
    try read_file spec_path
    with Sys_error m ->
      Printf.eprintf "cannot read matrix spec: %s\n" m;
      exit 1
  in
  let m, entries =
    try
      let m = Matrix.parse src in
      (m, Matrix.expand ?limit m)
    with Scenario.Parse_error e ->
      Printf.eprintf "%s\n" (Scenario.error_message ~file:spec_path e);
      exit 1
  in
  mkdir_p out;
  List.iter
    (fun (e : Matrix.entry) ->
      let oc = open_out_bin (Filename.concat out e.Matrix.e_file) in
      output_string oc e.Matrix.e_text;
      close_out oc)
    entries;
  let manifest =
    Matrix.manifest_json
      ~spec_file:(Filename.basename spec_path)
      ~spec_digest:(Digest.to_hex (Digest.string src))
      m entries
  in
  let moc = open_out_bin (Filename.concat out "manifest.json") in
  output_string moc (Json.to_string manifest ^ "\n");
  close_out moc;
  let count p =
    List.length
      (List.filter (fun (e : Matrix.entry) -> e.Matrix.e_expected = p) entries)
  in
  let digest =
    Matrix.corpus_digest
      (List.map (fun (e : Matrix.entry) -> (e.Matrix.e_file, e.Matrix.e_text)) entries)
  in
  if json then
    json_print
      (Json.Obj
         [ ("spec", json_str spec_path);
           ("matrix", json_str m.Matrix.m_name);
           ("out", json_str out);
           ("count", Json.Int (List.length entries));
           ("pass", Json.Int (count "pass"));
           ("xfail", Json.Int (count "xfail"));
           ("corpus_digest", json_str digest) ])
  else
    Printf.printf
      "generated %d scenarios (%d pass, %d xfail) from %s into %s\n\
      \  corpus digest %s\n"
      (List.length entries) (count "pass") (count "xfail") spec_path out digest

let gen_cmd =
  let doc =
    "Expand a *.pfim scenario-matrix spec (harness set × side × fault axis \
     × parameter sweeps) into a corpus of canonical *.pfis scenarios plus \
     a JSON manifest recording each scenario's seed and expected verdict.  \
     Generation is deterministic: the same spec yields byte-identical \
     files and manifest on every run."
  in
  let spec = Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC") in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(
      const gen $ spec $ Copts.output_term $ Copts.json_term
      $ Copts.limit_term)

(* ------------------------------------------------------------------ *)
(* Vendor conformance matrix                                          *)
(* ------------------------------------------------------------------ *)

let matrix catalog seed jobs json report profile =
  let open Pfi_testgen in
  let seed = Option.value seed ~default:Campaign.default_seed in
  let executor = Executor.of_jobs jobs in
  let _, _, rows = List.find (fun (name, _, _) -> String.equal name catalog) catalogs in
  let rep =
    try Conformance.run ~executor ~seed ?profile_override:profile (rows ())
    with Invalid_argument m ->
      Printf.eprintf "matrix: %s\n" m;
      exit 2
  in
  let md = Conformance.to_markdown rep in
  (match report with
   | None -> ()
   | Some path ->
     let oc =
       try open_out_bin path
       with Sys_error m ->
         Printf.eprintf "cannot open report output: %s\n" m;
         exit 1
     in
     output_string oc md;
     close_out oc);
  let rows_passed = Conformance.passed rep in
  let rows_total = Conformance.total rep in
  if json then json_print (Conformance.to_json rep)
  else begin
    (match report with
     | None -> print_string md
     | Some path -> Printf.printf "wrote %s\n" path);
    let cp, ct = Conformance.check_counts rep in
    Printf.printf "conformance: %d/%d rows pass (%d/%d checks)\n" rows_passed
      rows_total cp ct
  end;
  if rows_passed < rows_total then exit 1

let matrix_cmd =
  let doc =
    "Run a conformance catalog: every row runs one fault-injection trial \
     and checks what it measures against the paper's value.  The default \
     $(b,tcp) catalog is the vendor matrix that re-discovers the paper's \
     TCP quirk tables from traces (retransmission exhaustion, retry \
     accounting, keep-alive, zero-window probing, plus handshake/teardown \
     lifecycle rows, each crossed with all four vendor profiles); \
     $(b,paper) holds every other paper result (Tables 2-8, Figure 4, \
     Experiment 5 and the ablations).  Exit 1 if any row fails.  The \
     report is byte-identical for any $(b,--jobs) width."
  in
  let catalog =
    Arg.(
      value
      & pos 0 (enum (List.map (fun (name, _, _) -> (name, name)) catalogs)) "tcp"
      & info [] ~docv:"CATALOG"
          ~doc:"The catalog to run: $(b,tcp) (the default) or $(b,paper).")
  in
  Cmd.v (Cmd.info "matrix" ~doc)
    Term.(
      const matrix $ catalog $ Copts.seed_term $ Copts.jobs_term
      $ Copts.json_term $ Copts.report_term $ Copts.profile_term)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "pfi_run" ~version:"1.0.0"
      ~doc:"Script-driven probing and fault injection of protocol implementations"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ list_cmd; repl_cmd; msc_cmd; campaign_cmd; shrink_cmd;
            replay_cmd; check_cmd; gen_cmd; fuzz_cmd; matrix_cmd; help_cmd ]))
