(** Reproduction artifacts for campaign trials.

    A repro artifact is the self-contained, JSON-serialized record of
    one campaign trial: which harness and protocol spec, which fault on
    which filter side, the horizon, the per-trial RNG seed, the exact
    generated script text, and the oracle's verdict.  Because every
    trial is a pure function of [(harness, fault, side, horizon, seed,
    script)], the artifact is enough to re-execute the trial
    byte-for-byte (`pfi_run replay`) or to minimize it (`pfi_run
    shrink`, which appends its trajectory to the artifact).

    [replay] runs [script]; [shrink] minimizes [fault], running each
    candidate's {!Generator.script_of_fault}.  So [shrink] refuses an
    artifact whose [script] is not the generated filter of its [fault];
    every artifact the tool writes has that script.

    The JSON format is versioned ([version] field, currently 1),
    printed and read back by {!Pfi_testgen.Json}, whose field decoders
    check every member's type.  64-bit values (seeds, the horizon in
    microseconds) are emitted as decimal strings because JSON numbers
    are doubles. *)

open Pfi_engine

module Json = Json
(** The codec that moved to {!Pfi_testgen.Json}, still reachable here
    for the callers that name it [Repro.Json]. *)

val fault_to_json : Generator.fault -> Json.t
(** [{"kind", "mtype", …parameters}]: a fold over {!Generator.view},
    each parameter under its {!Generator.param_key}.  An
    [inject_spurious] fault also writes its message's ["stateless"] and
    ["gen_args"] (before ["dst"]); the reader takes both from the spec. *)

val fault_of_json : spec:Spec.t -> Json.t -> (Generator.fault, string) result
(** Reads {!fault_to_json} through {!Generator.of_view}, so the message
    type must be one of [spec]'s and every parameter in range; the
    error names the field, e.g. ["fault.n: drop_nth period must be at
    least 1"]. *)

(** One accepted step of a shrink run: the smaller state and the
    violation that kept it. *)
type shrink_step = {
  step_fault : Generator.fault;
  step_side : Campaign.side;
  step_horizon : Vtime.t;
  step_seed : int64;
  step_size : int;  (** {!Shrink.size} of the accepted state *)
  step_reason : string;  (** the oracle message of the accepting run *)
}

type t = {
  version : int;
  harness : string;  (** {!Registry} name, e.g. ["abp-buggy"] *)
  protocol : string;  (** spec name, e.g. ["abp"] *)
  target : string;  (** node spurious injections are addressed to *)
  fault : Generator.fault;
  side : Campaign.side;
  horizon : Vtime.t;
  seed : int64;  (** the per-trial RNG seed the trial ran with *)
  campaign_seed : int64;  (** seed sibling trial seeds derive from *)
  script : string;  (** exact generated filter text *)
  verdict : Campaign.verdict;  (** the recorded oracle verdict *)
  injected_events : int;
  shrink_trajectory : shrink_step list;  (** empty until shrunk *)
}

val current_version : int

val of_outcome :
  harness:string -> protocol:string -> target:string ->
  horizon:Vtime.t -> campaign_seed:int64 -> Campaign.outcome -> t
(** Packages a trial outcome (typically a violation) as an artifact
    with an empty shrink trajectory. *)

val to_json : t -> string
(** Deterministic, newline-terminated. *)

val of_string : string -> (t, string) result
(** Checks field types and, through {!fault_of_json} against the
    recorded harness's spec, every fault (the artifact's and each
    shrink step's). *)

val save : string -> t -> unit
val load : string -> (t, string) result

val filename : index:int -> t -> string
(** ["repro-<index>-<side>-<fault slug>.json"] — stable, filesystem-safe. *)
