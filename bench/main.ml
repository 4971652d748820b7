(* Bechamel micro-benchmarks of the tool's own machinery: filter
   evaluation, PFI traversal, the event queue, codecs, trace queries,
   shrinking and repro serialization.

   Usage:
     bench/main.exe [micro]

   The repo benchmark (end-to-end and per-layer metrics with noise
   bounds) is `sh perf/run.sh`; the paper's tables and figures come
   from `pfi_run run`. *)

open Bechamel
open Toolkit

(* per-message script filter evaluation — the cost the paper trades for
   not recompiling the tool between tests *)
let bench_script_filter () =
  let interp = Pfi_script.Script.create () in
  Pfi_script.Interp.register interp "msg_type" (fun _ _ -> "ACK");
  Pfi_script.Interp.register interp "xDrop" (fun _ _ -> "");
  let compiled =
    Pfi_script.Interp.compile
      {|
set t [msg_type cur_msg]
if {$t == "ACK"} { xDrop cur_msg }
|}
  in
  Staged.stage (fun () ->
      ignore (Pfi_script.Interp.eval_compiled interp compiled))

(* the same filter as a native OCaml closure (ablation: script vs native) *)
let bench_native_filter () =
  let msg = Pfi_stack.Message.of_string "A:payload" in
  let filter m =
    if Pfi_stack.Message.length m > 0 && Bytes.get (Pfi_stack.Message.payload m) 0 = 'A'
    then `Drop
    else `Pass
  in
  Staged.stage (fun () -> ignore (filter msg))

(* a full PFI layer traversal, with and without a script filter *)
let bench_pfi_traversal ~with_script () =
  let open Pfi_engine in
  let open Pfi_stack in
  let sim = Sim.create () in
  let pfi = Pfi_core.Pfi_layer.create ~sim ~node:"bench" () in
  if with_script then
    Pfi_core.Pfi_layer.set_send_filter pfi
      {|
if {![info exists n]} { set n 0 }
incr n
|};
  let sink =
    Layer.create ~name:"sink" ~node:"bench"
      { on_push = (fun _ _ -> ()); on_pop = (fun _ _ -> ()) }
  in
  Layer.link ~upper:(Pfi_core.Pfi_layer.layer pfi) ~lower:sink;
  let msg = Message.of_string "sixteen bytes..." in
  Staged.stage (fun () -> Layer.push (Pfi_core.Pfi_layer.layer pfi) msg)

let bench_event_queue () =
  let open Pfi_engine in
  let q = Event_queue.create () in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      ignore (Event_queue.push q ~time:(Vtime.us (!i land 0xffff)) ());
      ignore (Event_queue.pop q))

let bench_tcp_codec () =
  let open Pfi_tcp in
  let seg =
    Segment.make
      ~payload:
        (Bytes.of_string
           "benchmark payload, sixty-four bytes of data to push through...")
      ~src_port:1234 ~dst_port:80 ~seq:123456 ~ack:654321
      ~flags:Segment.flag_ack ~window:4096 ()
  in
  Staged.stage (fun () ->
      match Segment.decode (Segment.encode seg) with
      | Ok _ -> ()
      | Error e -> failwith e)

let bench_gmp_codec () =
  let open Pfi_gmp in
  let m =
    Gmp_msg.make ~mtype:Gmp_msg.Membership_change ~origin:1 ~sender:1
      ~group_id:1000001 ~members:[ 1; 2; 3; 4; 5 ] ()
  in
  Staged.stage (fun () ->
      match Gmp_msg.decode (Gmp_msg.encode m) with
      | Ok _ -> ()
      | Error e -> failwith e)

let bench_expr () =
  let interp = Pfi_script.Script.create () in
  ignore (Pfi_script.Script.eval interp "set x 41");
  Staged.stage (fun () ->
      ignore (Pfi_script.Interp.eval_expr interp "$x * 2 + 1 > 80 && $x != 0"))

let bench_sim_events () =
  let open Pfi_engine in
  let sim = Sim.create () in
  Staged.stage (fun () ->
      for _ = 1 to 10 do
        ignore (Sim.schedule sim ~delay:(Vtime.us 1) (fun () -> ()))
      done;
      Sim.run sim)

(* a trace shaped like a real campaign log: a few nodes, a few dozen
   tags, 50k entries — the size where the indexed queries start paying *)
let bench_trace () =
  let open Pfi_engine in
  let trace = Trace.create () in
  for i = 0 to 49_999 do
    Trace.record trace ~time:(Vtime.us i)
      ~node:(Printf.sprintf "node%d" (i mod 4))
      ~tag:(Printf.sprintf "tag%d" (i mod 24))
      "detail"
  done;
  trace

(* indexed count/find via the per-(node, tag) offset buckets *)
let bench_trace_indexed () =
  let trace = bench_trace () in
  Staged.stage (fun () ->
      ignore (Pfi_engine.Trace.count ~node:"node1" ~tag:"tag13" trace);
      ignore (Pfi_engine.Trace.find ~node:"node1" ~tag:"tag13" trace))

(* the pre-index implementation: materialise all entries and filter *)
let bench_trace_scan () =
  let trace = bench_trace () in
  Staged.stage (fun () ->
      let matches =
        List.filter
          (fun e ->
            String.equal e.Pfi_engine.Trace.node "node1"
            && String.equal e.Pfi_engine.Trace.tag "tag13")
          (Pfi_engine.Trace.entries trace)
      in
      ignore (List.length matches);
      ignore matches)

(* the shrink machinery itself (no simulations): candidate-lattice
   enumeration for a compound fault, and a full greedy descent against a
   synthetic always-violating oracle — the fixed overhead `pfi_run
   shrink` pays on top of its trial re-runs *)
let shrink_start =
  let open Pfi_testgen in
  { Shrink.fault = Generator.Byzantine_mix 0.25;
    Shrink.side = Campaign.Both_filters;
    Shrink.horizon = Pfi_engine.Vtime.sec 120 }

let bench_shrink_candidates () =
  Staged.stage (fun () ->
      ignore (Pfi_testgen.Shrink.candidates ~spec:Pfi_testgen.Spec.abp shrink_start))

let bench_shrink_descent () =
  let open Pfi_testgen in
  let run (st : Shrink.state) =
    { Campaign.fault = st.Shrink.fault;
      Campaign.side = st.Shrink.side;
      Campaign.seed = 0L;
      Campaign.verdict = Campaign.Violation "synthetic";
      Campaign.injected_events = 0;
      Campaign.sim_events = 0;
      Campaign.trace = None }
  in
  Staged.stage (fun () ->
      ignore (Shrink.minimize ~spec:Spec.abp ~run shrink_start))

(* repro artifact encode+decode, the per-violation serialization cost *)
let bench_repro_roundtrip () =
  let open Pfi_testgen in
  let fault = Generator.Byzantine_mix 0.25 in
  let artifact =
    { Repro.version = Repro.current_version;
      Repro.harness = "abp-buggy";
      Repro.protocol = "abp";
      Repro.target = "bob";
      Repro.fault;
      Repro.side = Campaign.Both_filters;
      Repro.horizon = Pfi_engine.Vtime.sec 120;
      Repro.seed = 123456789L;
      Repro.campaign_seed = 31L;
      Repro.script = Generator.script_of_fault fault;
      Repro.verdict = Campaign.Violation "delivered 18/20 messages";
      Repro.injected_events = 39;
      Repro.shrink_trajectory = [] }
  in
  Staged.stage (fun () ->
      match Pfi_testgen.Repro.of_string (Pfi_testgen.Repro.to_json artifact) with
      | Ok _ -> ()
      | Error e -> failwith e)

let micro_tests () =
  [ Test.make ~name:"script filter eval (per message)" (bench_script_filter ());
    Test.make ~name:"native filter (per message)" (bench_native_filter ());
    Test.make ~name:"pfi traversal, script filter" (bench_pfi_traversal ~with_script:true ());
    Test.make ~name:"pfi traversal, no filter" (bench_pfi_traversal ~with_script:false ());
    Test.make ~name:"event queue push+pop" (bench_event_queue ());
    Test.make ~name:"tcp segment encode+decode" (bench_tcp_codec ());
    Test.make ~name:"gmp message encode+decode" (bench_gmp_codec ());
    Test.make ~name:"expr evaluation" (bench_expr ());
    Test.make ~name:"simulator: 10 events scheduled+run" (bench_sim_events ());
    Test.make ~name:"trace query, indexed (50k entries)" (bench_trace_indexed ());
    Test.make ~name:"trace query, legacy scan (50k entries)" (bench_trace_scan ());
    Test.make ~name:"shrink: candidate enumeration" (bench_shrink_candidates ());
    Test.make ~name:"shrink: full descent, synthetic oracle" (bench_shrink_descent ());
    Test.make ~name:"repro artifact json encode+decode" (bench_repro_roundtrip ()) ]

let run_micro () =
  print_endline "== micro-benchmarks (Bechamel, ns/run via OLS) ==";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
            Printf.printf "  %-42s %12.1f ns/run\n%!" (Test.Elt.name elt) ns
          | _ -> Printf.printf "  %-42s (no estimate)\n%!" (Test.Elt.name elt))
        (Test.elements test))
    (micro_tests ())

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] | [ _; "micro" ] -> run_micro ()
  | _ ->
    prerr_endline "usage: bench/main.exe [micro]";
    exit 2
