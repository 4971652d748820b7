(** The campaign-harness interface, as a first-class module type.

    A harness is everything a campaign needs to run trials against one
    system under test: identity (name, description), the protocol
    {!Spec.t} scripts are generated from, stock parameters (target
    node, horizon, campaign seed), and the trial life-cycle — build a
    fresh simulated system from a seed, point at its [Sim] and PFI
    layer, start the workload, evaluate the oracle.

    The environment type is existential, so harnesses travel as packed
    modules ({!packed}): {!Registry.find} hands one straight to
    {!Campaign.run} / {!Campaign.run_trial} with no per-call-site
    re-wrapping.  [build] must return a completely fresh system (new
    [Sim], network, stacks) sharing nothing with sibling trials —
    that isolation is what lets {!Executor.domains} run trials on
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
      state shared with other trials.  [scratch] is recycled backing
      storage for the sim's event queue and trace (an {!Arena} hands
      the campaign runner this domain's); implementations forward it
      to [Sim.create ?scratch ~seed ()].  Adopting it selects a
      counting trace ({!Trace.create_counting}), so every
      trace-derived part of {!check} must be an {!Oracle.monitor}
      attached here, before the first entry is recorded — then
      {!check} answers the same with or without [scratch]. *)

  val sim : env -> Sim.t
  val pfi : env -> Pfi_core.Pfi_layer.t
  (** Where generated scripts are installed. *)

  val workload : env -> unit
  (** Start the driver traffic. *)

  val check : env -> (unit, string) result
  (** Service-guarantee oracle, evaluated after the horizon.  It may
      read the trace's {!Trace.length} and {!Trace.count} and the
      verdicts of monitors [build] attached, never stored entries. *)

  val state_of_trace : Trace.t -> string list
  (** The protocol-state trajectory a recorded trial trace witnessed,
      as human-readable labels in occurrence order (e.g. TCP
      ["SYN_SENT -> ESTABLISHED"], ABP send-bit alternations, GMP view
      compositions).  Fuzz coverage hashes consecutive label pairs into
      features; future vendor-matrix oracles read the same hook.
      Harnesses without a natural protocol FSM can use
      {!default_state_of_trace}.  Reads a storing trace. *)
end

type packed = (module HARNESS)

let default_state_of_trace trace =
  (* generic fallback: the sequence of distinct "node:tag" steps, with
     consecutive repeats collapsed so a burst of identical events is
     one state visit rather than many *)
  let labels =
    List.fold_left
      (fun acc (e : Trace.entry) ->
        let label = e.node ^ ":" ^ e.tag in
        match acc with
        | prev :: _ when String.equal prev label -> acc
        | _ -> label :: acc)
      [] (Trace.entries trace)
  in
  List.rev labels

let name (module H : HARNESS) = H.name
let description (module H : HARNESS) = H.description
let spec (module H : HARNESS) = H.spec
let target (module H : HARNESS) = H.target
let default_horizon (module H : HARNESS) = H.default_horizon
let default_seed (module H : HARNESS) = H.default_seed
let state_of_trace (module H : HARNESS) trace = H.state_of_trace trace
