(* pfi-run: command-line front end to the PFI reproduction.

   - `pfi-run list`                the conformance catalogs and harnesses
   - `pfi-run repl`                interactive script REPL (the filter
                                   language, with a sample TCP segment bound)
   - `pfi-run msc`                 the paper's Section 4.1 ladder diagram
   - `pfi-run campaign <target>`   generated fault campaigns against a
                                   registry harness (`pfi-run list` names
                                   them); --repro-dir writes a .pfis repro
                                   per violation, --jobs N runs trials on N
                                   domains
   - `pfi-run shrink <file>`       minimize a violating .pfis repro
   - `pfi-run check <file>...`     run *.pfis scenario conformance scripts,
                                   repros and generated corpora
                                   (--jobs N runs scenarios on N domains;
                                   output is byte-identical for any N)
   - `pfi-run gen <spec> -o DIR`   expand a *.pfim scenario-matrix spec
                                   into a corpus of .pfis scenarios
   - `pfi-run fuzz <harness>`      coverage-guided fault fuzzing:
                                   mutate fault scripts/schedules, keep
                                   coverage-increasing inputs, shrink and
                                   dedupe violations into findings
   - `pfi-run matrix [tcp|paper]`  run a conformance catalog: every row
                                   checks one paper result (--report
                                   writes EXPERIMENTS_tcp.md or
                                   EXPERIMENTS_paper.md)

   Every subcommand draws its options from one set of terms (Copts
   below), so `--seed`, `--trace-out`, `--json` and `--jobs` mean the
   same thing everywhere they appear; `pfi-run VERB --help` lists a
   verb's. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* The common options                                                 *)
(* ------------------------------------------------------------------ *)

module Copts = struct
  let opt_term ?(short = []) cv ~name ~docv doc =
    Arg.(value & opt (some cv) None & info (short @ [ name ]) ~docv ~doc)

  (* an integer from [lo] to [hi]: one outside is a usage error that
     names it, as a non-number is *)
  let int_in ~kind lo hi =
    Arg.conv ~docv:"N"
      ( Arg.parser_of_kind_of_string ~kind (fun s ->
            Option.bind (int_of_string_opt s) (fun n -> if n >= lo && n <= hi then Some n else None)),
        Format.pp_print_int )

  let count = int_in ~kind:"a non-negative integer" 0 max_int

  (* the calling domain plus up to 127 spawned ones: OCaml 5 runs at
     most 128 domains *)
  let workers = int_in ~kind:"a worker count from 1 to 128" 1 128

  let seed_term =
    opt_term Arg.int64 ~name:"seed" ~docv:"SEED"
      "Root RNG seed.  For $(b,campaign) and $(b,matrix) this is the \
       campaign seed per-trial and per-row seeds are derived from; for \
       $(b,shrink) it is the campaign seed every shrink trial's seed \
       derives from (default: the harness's, as for $(b,campaign)); for \
       $(b,check) it overrides each scenario's seed; for $(b,fuzz) it \
       seeds the fuzzer; for $(b,repl) it seeds the REPL's simulator."

  let trace_out_term =
    opt_term Arg.string ~name:"trace-out" ~docv:"FILE"
      "Write the full simulation trace of every run as JSON Lines to \
       $(docv): one object per trace entry, tagged with its origin and a \
       deterministic sim index."

  let json_term =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print machine-readable JSON objects instead of ASCII output.")

  let jobs_term =
    Arg.(
      value & opt workers 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Execute independent trials on $(docv) worker domains, 1 to 128 \
             (Executor.of_jobs).  Output is byte-identical for any $(docv); \
             the default 1 is the sequential executor.")

  let repro_dir_term =
    opt_term Arg.string ~name:"repro-dir" ~docv:"DIR"
      "Write one .pfis repro scenario per violating trial into $(docv) \
       (created if missing).  Each is self-contained: `pfi_run check` \
       replays it deterministically, as an expected failure with its \
       recorded reason, and `pfi_run shrink` minimizes it."

  let output_info =
    Arg.info [ "o"; "output" ] ~docv:"OUT"
      ~doc:
        "Output path: the minimized .pfis repro for $(b,shrink), the corpus \
         directory for $(b,gen)."

  let budget_term =
    opt_term count ~name:"budget" ~docv:"N"
      "Mutation budget: total fuzz-loop executions (mutated trial runs) \
       to spend (default 200).  Minimization re-runs per finding are \
       accounted separately."

  let corpus_term =
    opt_term Arg.string ~name:"corpus" ~docv:"DIR"
      "Write the fuzzing outputs into $(docv) (created if missing): \
       findings.jsonl (the deduplicated findings stream), one .pfis \
       repro scenario per finding that `pfi_run check` replays, and \
       corpus.txt listing every coverage-increasing input in discovery \
       order."

  let stats_term =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print scheduling and allocation counters after the run: per-worker \
             executor utilization (claims, trials, busy fraction) plus GC words \
             allocated on the calling domain and arena-recycled trials.  Purely \
             observational — the numbers vary with $(b,--jobs) and machine \
             load, while the results stay byte-identical.")

  let report_term =
    opt_term Arg.string ~name:"report" ~docv:"FILE"
      "Write the markdown conformance report to $(docv) instead of \
       stdout.  The bytes are independent of $(b,--jobs); the one-line \
       summary still goes to stdout."

  let profile_term =
    opt_term Arg.string ~name:"profile" ~docv:"VENDOR"
      "Build every trial with the $(docv) profile while keeping each \
       row's own vendor expectations — the wrong-knob negative control, \
       so mismatched rows are expected to FAIL.  Vendor-matrix \
       ($(b,tcp)) rows only: with $(b,paper) it exits 2."
end

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

(* Every path a verb writes goes through [Out]: a directory option is
   created before its verb runs anything, and a path that cannot be
   written exits 1 with one "cannot write PATH: REASON" line. *)
module Out = struct
  let write path f =
    try f ()
    with Sys_error msg ->
      (* the message names its path first *)
      let n = if String.starts_with ~prefix:(path ^ ": ") msg then String.length path + 2 else 0 in
      Printf.eprintf "cannot write %s: %s\n" path (String.sub msg n (String.length msg - n));
      exit 1

  let file path text =
    write path (fun () -> Out_channel.with_open_bin path (fun oc -> output_string oc text))

  let dir path =
    let rec make d =
      if not (Sys.file_exists d) then (make (Filename.dirname d); Sys.mkdir d 0o755)
    in
    write path (fun () ->
        make path;
        if not (Sys.is_directory path) then raise (Sys_error "Not a directory"));
    path

  (* --trace-out FILE: opened before the verb runs, closed (so flushed) however it exits *)
  let trace_out =
    Option.map (fun path ->
        let oc = write path (fun () -> open_out_bin path) in
        at_exit (fun () -> close_out oc);
        Pfi_testgen.Trace_out.create oc)
end

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
  let sim = Sim.create ~scratch:(Sim.scratch ()) ?seed () in
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
   (m1 retransmitted six times, its delayed ACK, then m2 three times)
   from a collector; [--trace-out] exports the run's one simulation and
   [--json] prints its [msc] entries, all three feeds attached first. *)
let msc trace_out json =
  let open Pfi_engine in
  let open Pfi_core in
  let open Pfi_testgen in
  let scratch = Sim.scratch () in
  let trace = Sim.scratch_trace scratch in
  let attach out = Trace_out.attach (Some (Trace_out.label [ ("artifact", "msc") ] out)) trace in
  Option.iter (fun out -> attach (Trace_out.label [ ("sim", "0") ] out)) (Out.trace_out trace_out);
  if json then attach (Trace_out.create ~tag:"msc" stdout);
  let events = Pfi_netsim.Msc.collect trace in
  let rig = Tcp_rig.make ~scratch ~profile:Pfi_tcp.Profile.solaris_23 () in
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
  if not json then begin
    print_endline
      "Message sequence chart: the Solaris global-error-counter discovery";
    print_endline
      "(m1's ACK delayed 35 s; X marks messages the PFI layer or network \
       dropped)\n";
    (* show only the interesting tail: from shortly before the drop phase *)
    let tail e = Vtime.(e.Pfi_netsim.Msc.time >= Vtime.add t_filter (Vtime.sec 12)) in
    Pfi_netsim.Msc.render ~nodes:[ Tcp_rig.vendor_node; Tcp_rig.xk_node ]
      Format.std_formatter (List.filter tail (events ()))
  end

let msc_cmd =
  let doc =
    "Print the paper's global-error-counter ladder diagram (regenerated)."
  in
  Cmd.v (Cmd.info "msc" ~doc)
    Term.(const msc $ Copts.trace_out_term $ Copts.json_term)

(* ------------------------------------------------------------------ *)
(* Fault-injection campaigns, repros and shrinking                    *)
(* ------------------------------------------------------------------ *)

let registry_entry which : (module Pfi_testgen.Harness_intf.HARNESS) =
  match Pfi_testgen.Registry.find which with
  | Some entry -> entry
  | None ->
    Printf.eprintf "unknown harness %S (try one of: %s)\n" which
      (String.concat ", " Pfi_testgen.Registry.names);
    exit 1

let verdict_json = function
  | Pfi_testgen.Campaign.Tolerated -> json_str "tolerated"
  | Pfi_testgen.Campaign.Violation reason ->
    Pfi_testgen.Json.Obj [ ("violation", json_str reason) ]

let outcome_json (o : Pfi_testgen.Campaign.outcome) =
  let open Pfi_testgen in
  Json.Obj
    [ ("fault", Generator.fault_to_json o.Campaign.fault);
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

(* a repro per violation: DIR/<stem>.pfis, its stem its scenario name,
   and the path printed; [dir] is made by [Out.dir] before the run *)
let save_repros ~json ~dir ~verb ~seed repros =
  List.iteri
    (fun i (side, fault, injected_events, scenario) ->
      let name = Pfi_testgen.Scenario.repro_stem ~index:(i + 1) side fault in
      let path = Filename.concat dir (name ^ ".pfis") in
      Out.write path (fun () ->
          Pfi_testgen.Scenario.save_repro path ~verb ~seed ~injected_events
            (scenario ~name));
      if json then json_print (Pfi_testgen.Json.Obj [ ("repro", json_str path) ])
      else Printf.printf "repro artifact: %s\n" path)
    repros

(* fault-injection campaigns from generated scripts; every violation
   can be written out as a self-contained .pfis repro that `check`
   replays.  Trials run through Executor.of_jobs: outcomes (and hence
   the summary, the streamed JSONL trace export, and the repros) come
   in canonical plan order for any worker count. *)
let campaign which trace_out repro_dir seed jobs json stats =
  let open Pfi_testgen in
  let (module H : Harness_intf.HARNESS) = registry_entry which in
  let campaign_seed = Option.value seed ~default:H.default_seed in
  let executor = Executor.of_jobs jobs in
  let trace_out = Out.trace_out trace_out in
  let repro_dir = Option.map Out.dir repro_dir in
  let arena0 = Arena.trials_served () in
  let alloc0 = alloc_words_now () in
  match
    Campaign.run ~executor ~observe:(Campaign.observe ?trace_out ())
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
    (match repro_dir with
     | None -> ()
     | Some dir ->
       let bad =
         List.filter_map
           (fun (o : Campaign.outcome) ->
             match o.verdict with
             | Campaign.Tolerated -> None
             | Campaign.Violation reason ->
               Some
                 ( o.side,
                   o.fault,
                   o.injected_events,
                   fun ~name ->
                     Scenario.repro ~name ~harness:H.name ~seed:o.seed
                       ~horizon:H.default_horizon ~side:o.side ~reason [ o.fault ] ))
           outcomes
       in
       save_repros ~json ~dir ~verb:"campaign" ~seed:campaign_seed bad;
       if bad = [] && not json then
         Printf.printf "no violations — no repro artifacts written\n")

let campaign_cmd =
  let doc =
    "Run a generated fault-injection campaign against TARGET, a registry \
     harness ($(b,pfi_run list) names them), optionally writing a .pfis \
     repro per violation.  With $(b,--jobs) N the independent trials \
     execute on N domains; summaries, traces and repros are \
     byte-identical for any N."
  in
  let which = Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET") in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const campaign $ which $ Copts.trace_out_term $ Copts.repro_dir_term
      $ Copts.seed_term $ Copts.jobs_term $ Copts.json_term
      $ Copts.stats_term)

(* delta-debug a recorded violation down its parameter lattice, one
   candidate at a time, and write the minimized trial as a fresh repro *)
let shrink file out seed trace_out json =
  let open Pfi_testgen in
  let refuse reason =
    Printf.eprintf "cannot shrink %s\n" reason;
    exit 1
  in
  let sc =
    try Scenario.load ~single_fault:true file with
    | Scenario.Parse_error e -> refuse (Scenario.error_message ~file e)
    | Sys_error m -> refuse m
  in
  let (module H : Harness_intf.HARNESS) = registry_entry sc.Scenario.sc_harness in
  let side, fault = List.hd sc.Scenario.sc_faults in
  let campaign_seed = Option.value seed ~default:H.default_seed in
  let horizon = Option.value sc.Scenario.sc_horizon ~default:H.default_horizon in
  (* every shrink trial is seeded from the campaign seed, so the file's
     own trial must be the one that seed derives *)
  let derived = Campaign.trial_seed ~campaign_seed ~side fault in
  if sc.Scenario.sc_seed <> Some derived then
    refuse
      (Printf.sprintf
         "%s: its seed is not %Ld, the trial seed --seed %Ld derives for its \
          fault and side; pass the campaign seed it was recorded with as --seed"
         file derived campaign_seed);
  let trace_out = Out.trace_out trace_out in
  (* every candidate runs as the stock single-fault trial, to the
     file's horizon *)
  let run ?trace_out st =
    Campaign.run_trial ?trace_out
      (module H : Harness_intf.HARNESS)
      ~horizon
      (Shrink.trial ~campaign_seed st)
  in
  let st0 = { Shrink.fault; side } in
  match Shrink.minimize ~spec:H.spec ~run:(run ?trace_out:None) st0 with
  | Error reason -> refuse (Printf.sprintf "%s: %s" file reason)
  | Ok report ->
    let minimized = report.Shrink.minimized in
    let stem path =
      Option.value (Filename.chop_suffix_opt ~suffix:".pfis" path) ~default:path
    in
    let out_path =
      match out with Some p -> p | None -> stem file ^ ".min.pfis"
    in
    let step_json (step : Shrink.step) =
      Json.Obj
        [ ("fault", Generator.fault_to_json step.Shrink.state.Shrink.fault);
          ("desc", json_str (Generator.describe step.Shrink.state.Shrink.fault));
          ("side", json_str (Campaign.side_name step.Shrink.state.Shrink.side));
          ("size", Json.Int step.Shrink.step_size);
          ("reason", json_str step.Shrink.reason) ]
    in
    let step_line (step : Shrink.step) =
      Printf.sprintf "%-44s %-8s size %d  (%s)"
        (Generator.describe step.Shrink.state.Shrink.fault)
        (Campaign.side_name step.Shrink.state.Shrink.side)
        step.Shrink.step_size step.Shrink.reason
    in
    if json then
      json_print
        (Json.Obj
           [ ("file", json_str file);
             ("initial_size", Json.Int report.Shrink.initial_size);
             ("steps", Json.List (List.map step_json report.Shrink.steps));
             ("trials", Json.Int report.Shrink.trials);
             ("minimized", Generator.fault_to_json minimized.Shrink.fault);
             ("minimized_size", Json.Int (Shrink.size minimized));
             ("out", json_str out_path) ])
    else begin
      Printf.printf "shrink %s\n  start:     %-44s %-8s size %d\n" file
        (Generator.describe fault) (Campaign.side_name side)
        report.Shrink.initial_size;
      List.iter
        (fun step -> Printf.printf "  shrunk to: %s\n" (step_line step))
        report.Shrink.steps;
      Printf.printf "  %d accepted steps, %d trials\n"
        (List.length report.Shrink.steps)
        report.Shrink.trials
    end;
    (* the minimized trial's own trace, re-executed once more *)
    let label = Trace_out.label [ ("shrink", Filename.basename file); ("sim", "0") ] in
    Option.iter (fun out -> ignore (run ~trace_out:(label out) minimized)) trace_out;
    (* the accepting run is the minimized trial: its seed, violation and
       injected events are the repro's *)
    let o = report.Shrink.outcome in
    let reason =
      match o.Campaign.verdict with
      | Campaign.Violation r -> r
      | Campaign.Tolerated -> refuse (file ^ ": the minimized trial is tolerated")
    in
    Out.write out_path (fun () ->
        Scenario.save_repro out_path ~verb:"shrink" ~seed:campaign_seed
          ~injected_events:o.Campaign.injected_events
          ~notes:(List.map (fun step -> "shrunk to: " ^ step_line step) report.Shrink.steps)
          (Scenario.repro ~name:(stem sc.Scenario.sc_name ^ ".min") ~harness:H.name
             ~seed:o.Campaign.seed ~horizon ~side:minimized.Shrink.side ~reason
             [ minimized.Shrink.fault ]));
    if not json then Printf.printf "  minimized repro: %s\n" out_path

let shrink_cmd =
  let doc =
    "Minimize a violating .pfis repro (one fault line, its trials seeded \
     from the campaign seed $(b,--seed)) by delta-debugging its fault down \
     the parameter lattice; writes the smallest still-violating trial as a \
     new repro (FILE.min.pfis unless $(b,-o) is given)."
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let out = Arg.(value & opt (some string) None & Copts.output_info) in
  Cmd.v (Cmd.info "shrink" ~doc)
    Term.(
      const shrink $ file $ out $ Copts.seed_term $ Copts.trace_out_term
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
  let trace_out = Out.trace_out trace_out in
  let corpus_dir = Option.map Out.dir corpus_dir in
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
  (* findings keep no trace: each finding's scenario runs once more,
     streaming to the export *)
  let scenario fd ~name = Fuzz.finding_scenario ~harness:H.name ~name fd in
  let rerun out (fd : Fuzz.finding) =
    let label = Trace_out.label [ ("fuzz", H.name); ("finding", fd.Fuzz.fd_signature) ] in
    let observe = Campaign.observe ?trace_out:(Option.map label out) () in
    ignore (Scenario.run ~observe (scenario fd ~name:fd.Fuzz.fd_signature))
  in
  if Option.is_some trace_out then
    ignore (Trace_out.map trace_out (Executor.of_jobs jobs) rerun res.Fuzz.r_findings);
  match corpus_dir with
  | None -> ()
  | Some dir ->
    let lines l = String.concat "" (List.map (fun l -> l ^ "\n") l) in
    Out.file (Filename.concat dir "findings.jsonl") (lines finding_lines);
    save_repros ~json ~dir ~verb:"fuzz" ~seed:fuzz_seed
      (List.map
         (fun (fd : Fuzz.finding) ->
           (fd.Fuzz.fd_side, fd.Fuzz.fd_fault, fd.Fuzz.fd_injected_events, scenario fd))
         res.Fuzz.r_findings);
    Out.file (Filename.concat dir "corpus.txt")
      (lines (List.map Fuzz.canonical res.Fuzz.r_corpus))

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

let scenario_result_json file (r : Pfi_testgen.Scenario.result) =
  let open Pfi_testgen in
  Json.Obj
    [ ("file", json_str file);
      ("scenario", json_str r.Scenario.res_scenario);
      ("harness", json_str r.Scenario.res_harness);
      ("seed", json_str (Int64.to_string r.Scenario.res_seed));
      ("horizon_us",
       json_str (Int64.to_string (Pfi_engine.Vtime.to_us r.Scenario.res_horizon)));
      ("outcome", json_str (Scenario.outcome_name r.Scenario.res_outcome));
      ("xfail",
       (match r.Scenario.res_xfail with
        | Some (Scenario.Contains text | Scenario.Equals text) -> json_str text
        | None -> Json.Null));
      ("checks", Json.List (List.map scenario_row_json r.Scenario.res_rows)) ]

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

(* a per-file error line: {"file", "error"} in JSON, [text] otherwise *)
let file_error ~json file msg text =
  if json then
    json_print
      (Pfi_testgen.Json.Obj [ ("file", json_str file); ("error", json_str msg) ])
  else print_string text

(* Every scenario file runs through Trace_out.map: results and export
   lines come in input order, so the output is byte-identical at any
   width.  A corpus must not shadow a scenario: two files carrying the
   same scenario name is an error even when both pass. *)
let check files trace_out seed jobs json =
  let open Pfi_testgen in
  let results =
    Trace_out.map (Out.trace_out trace_out) (Executor.of_jobs jobs)
      (fun out file ->
        match Scenario.load file with
        | sc ->
          let trace_out = Option.map (Trace_out.label [ ("scenario", sc.Scenario.sc_name) ]) out in
          Ok (Scenario.run ?seed ~observe:(Campaign.observe ?trace_out ()) sc)
        | exception Scenario.Parse_error e ->
          Error (Scenario.error_message ~file e)
        | exception Sys_error m -> Error m)
      files
  in
  let names = Hashtbl.create 16 in
  let failed = ref 0 and xfailed = ref 0 in
  List.iter2
    (fun file res ->
      match res with
      | Error msg ->
        incr failed;
        file_error ~json file msg
          (Printf.sprintf "%s: PARSE ERROR\n  %s\n" file msg)
      | Ok r ->
        let name = r.Scenario.res_scenario in
        let prior = Hashtbl.find_opt names name in
        if prior = None then Hashtbl.add names name file;
        if prior <> None || not (Scenario.passed r) then incr failed;
        if r.Scenario.res_outcome = Scenario.Xfail then incr xfailed;
        if json then json_print (scenario_result_json file r)
        else print_scenario_result file r;
        Option.iter
          (fun prior ->
            file_error ~json file
              (Printf.sprintf "duplicate scenario name %S (already used by %s)"
                 name prior)
              (Printf.sprintf
                 "%s: DUPLICATE scenario name %S (already used by %s)\n" file
                 name prior))
          prior)
    files results;
  let failed = !failed and xfailed = !xfailed in
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

let check_cmd =
  let doc =
    "Run packetdrill-style scenario conformance scripts (*.pfis): build the \
     named harness, install the scripted faults and injections, run to the \
     horizon and judge the trace against every $(b,expect) oracle.  Exit 1 \
     if any scenario fails.  With $(b,--jobs) N independent scenarios \
     execute on N domains with byte-identical output.  A corpus that \
     $(b,gen) wrote is checked the same way, as DIR/*.pfis: each file \
     declares its own expected failure."
  in
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ files $ Copts.trace_out_term $ Copts.seed_term
      $ Copts.jobs_term $ Copts.json_term)

(* ------------------------------------------------------------------ *)
(* Scenario-matrix generation                                         *)
(* ------------------------------------------------------------------ *)

let gen spec_path out json =
  let open Pfi_testgen in
  let out = Out.dir out in
  let m, entries =
    try
      let m = Matrix.load spec_path in
      (m, Matrix.expand m)
    with
    | Scenario.Parse_error e ->
      Printf.eprintf "%s\n" (Scenario.error_message ~file:spec_path e);
      exit 1
    | Sys_error m ->
      Printf.eprintf "cannot read matrix spec: %s\n" m;
      exit 1
  in
  List.iter
    (fun (e : Matrix.entry) ->
      Out.file (Filename.concat out e.Matrix.e_file) e.Matrix.e_text)
    entries;
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
     × parameter sweeps) into a corpus of canonical *.pfis scenarios in \
     OUT, each stating its own seed and expected failure, so \
     $(b,pfi_run check) OUT/*.pfis checks it.  Generation is \
     deterministic: the same spec yields byte-identical files on every \
     run, so a fresh $(b,gen) and $(b,diff -r) verify a corpus directory."
  in
  let spec = Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC") in
  let out = Arg.(required & opt (some string) None & Copts.output_info) in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const gen $ spec $ out $ Copts.json_term)

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
  Option.iter (fun path -> Out.file path md) report;
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
          [ list_cmd; repl_cmd; msc_cmd; campaign_cmd; shrink_cmd; check_cmd;
            gen_cmd; fuzz_cmd; matrix_cmd ]))
