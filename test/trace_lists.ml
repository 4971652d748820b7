(* List-level trace queries the tests read results through: each is a
   filter over a stored trace's entries, for the shapes [Trace] itself
   does not offer; the trace's JSONL export as a string; the storing run
   of a campaign trial; and what a run streams to a [--trace-out]
   sink. *)

open Pfi_engine

(* entries matching every given criterion, in recording order *)
let find ?node ?tag t =
  List.filter
    (fun (e : Trace.entry) ->
      (match node with Some n -> String.equal e.node n | None -> true)
      && match tag with Some g -> String.equal e.tag g | None -> true)
    (Trace.entries t)

(* every entry with its recording index: what oracle witnesses cite *)
let iteri f t = List.iteri f (Trace.entries t)

let timestamps ?node ~tag t =
  List.map (fun (e : Trace.entry) -> e.time) (find ?node ~tag t)

(* successive differences of [timestamps]: the gaps between events *)
let intervals ?node ~tag t =
  let rec diffs = function
    | a :: (b :: _ as rest) -> Vtime.sub b a :: diffs rest
    | [ _ ] | [] -> []
  in
  diffs (timestamps ?node ~tag t)

let last ?node ?tag t =
  match List.rev (find ?node ?tag t) with e :: _ -> Some e | [] -> None

(* the entry a recording index (an oracle witness) names *)
let get t i = List.nth (Trace.entries t) i

(* a stored trace's JSONL export: [Json.add_entry]'s line for every
   entry, the bytes a [Trace_out] feed streams for the same trial *)
let jsonl ?(extra = []) t =
  let buf = Buffer.create 4096 in
  List.iter (Pfi_testgen.Json.add_entry ~extra buf) (Trace.entries t);
  Buffer.contents buf

(* a campaign trial run as [Campaign.run_trial] runs it, but on a
   storing trace: its outcome, and the trace for the queries above *)
let stored_trial h ~horizon (tr : Pfi_testgen.Campaign.trial) =
  let open Pfi_testgen in
  Campaign.exec ~capture_trace:true ?arm:tr.t_arm h ~horizon ~seed:tr.t_seed
    ~filters:[ (tr.t_side, tr.t_script) ]
    (fun _ verdict sim ->
      let trace = Sim.trace sim in
      ( { Campaign.fault = tr.t_fault;
          side = tr.t_side;
          seed = tr.t_seed;
          verdict;
          injected_events =
            Trace.count ~tag:"testgen.fault" trace + Trace.count ~tag:"pfi.log" trace;
          sim_events = Sim.events sim },
        trace ))

(* what [f] streams to a [Trace_out] sink over a scratch file *)
let streamed f =
  let path = Filename.temp_file "pfi_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> f (Pfi_testgen.Trace_out.create oc));
      In_channel.with_open_bin path In_channel.input_all)

(* the [sim] label of each run an export holds, in order: a run's
   lines are contiguous, so each label appears once *)
let sims jsonl =
  List.fold_left
    (fun acc line ->
      match Result.map (Pfi_testgen.Json.member "sim") (Pfi_testgen.Json.parse line) with
      | Ok (Some (Pfi_testgen.Json.Str sim)) when not (List.mem sim acc) -> sim :: acc
      | _ -> acc)
    []
    (String.split_on_char '\n' jsonl)
  |> List.rev
