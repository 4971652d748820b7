(** The campaign-harness interface, as a first-class module type.

    A harness is everything a campaign needs to run trials against one
    system under test: identity (name, description), the protocol
    {!Spec.t} scripts are generated from, stock parameters (target
    node, horizon, campaign seed), and the trial life-cycle — build a
    fresh simulated system from a seed, point at its [Sim] and PFI
    layer, start the workload, evaluate the oracle.

    The environment type is existential, so harnesses travel as packed
    modules ({!packed}): {!Registry.find} hands one straight to
    {!Campaign.run} / {!Campaign.exec} with no per-call-site
    re-wrapping.  [build] must return a completely fresh system (new
    [Sim], network, stacks) sharing nothing with sibling trials —
    that isolation is what lets an {!Executor.of_jobs} pool run trials on
    concurrent domains. *)

open Pfi_engine

module type HARNESS = sig
  type env

  val name : string
  (** Registry/artifact name, e.g. ["abp-buggy"]. *)

  val description : string

  val spec : Spec.t
  (** The protocol specification campaigns generate faults from. *)

  val target : string
  (** Node spurious injections are addressed to. *)

  val default_horizon : Vtime.t
  val default_seed : int64
  (** Campaign seed when none is given. *)

  val build : ?scratch:Sim.scratch -> seed:int64 -> unit -> env
  (** Fresh system for one trial (new Sim, network, stacks), seeded
      with the given per-trial RNG seed.  Must not capture or mutate
      state shared with other trials.  [scratch] is the backing storage
      for the sim's event queue and trace ({!Campaign.exec} passes this
      domain's {!Arena} scratch); implementations forward it to
      [Sim.create ?scratch ~seed ()].  Its trace may be a counting one
      ({!Trace.create_counting}), so every trace-derived part of
      {!check} must be an {!Oracle.monitor} that [build] attaches to
      the new sim's trace — then {!check} answers the same over either
      kind of trace. *)

  val sim : env -> Sim.t
  val pfi : env -> Pfi_core.Pfi_layer.t
  (** Where generated scripts are installed. *)

  val workload : env -> unit
  (** Start the driver traffic. *)

  val check : env -> (unit, string) result
  (** Service-guarantee oracle, evaluated after the horizon.  It may
      read the trace's {!Trace.length} and {!Trace.count} and the
      verdicts of monitors [build] attached, never stored entries. *)

  val state_tags : string list
  (** The trace tags whose entries {!state_label} labels. *)

  val state_label : Trace.entry -> string option
  (** The protocol-state label an entry with one of {!state_tags}
      witnesses, if any: human-readable (e.g. a TCP
      ["client:SYN_SENT -> ESTABLISHED"], an ABP send bit, a GMP view
      composition).  The trial's state {e trajectory} is the sequence
      of these labels in recording order, consecutive repeats
      collapsed; fuzz coverage hashes its labels and consecutive pairs
      into features.  It is read two ways: live, by a feed
      ({!attach_states}) that the fuzzer attaches to the trial's trace
      before [build], or replayed over a storing trace
      ({!state_of_trace}). *)
end

type packed = (module HARNESS)

let rec mem_tag tag = function
  | t :: rest -> String.equal t tag || mem_tag tag rest
  | [] -> false

(* The one trajectory rule both readers share: [feed] labels each
   entry with a state tag, and a label equal to the previous one is the
   same state visit, so a burst of identical events counts once. *)
let trajectory (module H : HARNESS) =
  let labels = ref [] in
  let feed _ (e : Trace.entry) =
    if mem_tag e.tag H.state_tags then
      match (H.state_label e, !labels) with
      | Some label, prev :: _ when String.equal prev label -> ()
      | Some label, acc -> labels := label :: acc
      | None, _ -> ()
  in
  (feed, fun () -> List.rev !labels)

(** The state trajectory a storing trace recorded: {!HARNESS.state_label}
    replayed over its entries, for tests and [perf/]. *)
let state_of_trace h trace =
  let feed, states = trajectory h in
  List.iteri feed (Trace.entries trace);
  states ()

(** Attaches a live state feed to [trace], of either kind, and returns
    the reader of the trajectory it has seen so far.  Attached before
    the trace's first entry, it sees what {!state_of_trace} would. *)
let attach_states ((module H : HARNESS) as h) trace =
  let feed, states = trajectory h in
  Trace.attach trace ~tags:(Some H.state_tags) feed;
  states

let name (module H : HARNESS) = H.name
let description (module H : HARNESS) = H.description
let spec (module H : HARNESS) = H.spec
let target (module H : HARNESS) = H.target
let default_horizon (module H : HARNESS) = H.default_horizon
let default_seed (module H : HARNESS) = H.default_seed
