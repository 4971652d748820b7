(** Generation of filter scripts from a protocol specification.

    Each {!fault} describes one deviation to inject; {!script_of_fault}
    renders it as a filter script in the PFI scripting language, and
    {!campaign} enumerates a systematic fault set for a specification —
    every message type crossed with every applicable fault class, in
    the severity order of the §2.2 failure models.

    This module is also the one place that knows the fault vocabulary:
    each kind's parameters, their legal ranges and their encodings
    (see {!section-vocabulary}). *)

type fault =
  | Drop_all of string  (** drop every message of the type (link crash) *)
  | Drop_after of string * int  (** let [n] through, then drop *)
  | Drop_first of string * int  (** transient outage: lose the first [n] *)
  | Drop_nth of string * int
      (** periodic loss: every [n]th message of the type is dropped
          ([n = 1] drops them all).  Not part of the stock {!campaign}
          set — it exists for generated scenario matrices, so adding it
          never changed any stock campaign's verdicts or seeds. *)
  | Drop_fraction of string * float  (** probabilistic omission *)
  | Omission_all of float  (** general omission across all types *)
  | Byzantine_mix of float
      (** arbitrary channel: drop with probability [p], duplicate with
          probability [p], on every type *)
  | Delay_each of string * float  (** timing failure, seconds *)
  | Duplicate of string  (** byzantine duplication *)
  | Corrupt of string * float  (** probabilistic byzantine corruption *)
  | Reorder of string  (** hold one, release behind its successor *)
  | Inject_spurious of Spec.message * string
      (** fabricate a stateless message addressed to the given node on
          every passing message (probe) *)

(** {1:vocabulary The fault vocabulary}

    Every fault has one typed {!view}: its kind, its message type and
    its parameters in canonical order.  Each encoding of a fault is one
    fold over that view — the identity string {!canonical} (and with it
    {!fault_key} and every trial seed), the [.pfis]/[.pfim] words
    {!tokens}, the JSON object {!fault_to_json} and the fuzz signature
    slug — and the one reader, {!of_tokens}, builds its fault through
    the one validating constructor {!of_view}.  So [.pfis] and [.pfim]
    accept exactly the same faults, and reject an out-of-range one
    where they read it.  JSON is written, never read. *)

type param =
  | Count of int
      (** JSON key ["n"]: a message count (at least 0) or, for
          [drop_nth], a period (at least 1) *)
  | Probability of float  (** ["p"]: finite, in \[0, 1\] *)
  | Seconds of float
      (** ["seconds"]: a delay — finite, at least 0, and below
          {!Pfi_engine.Vtime.infinity} once converted to microseconds *)
  | Dst of string
      (** ["dst"]: the node a fabricated message is addressed to *)

type view = {
  kind : string;
      (** ["drop_all"] … ["inject_spurious"]: the [.pfis] keyword and
          the JSON ["kind"] *)
  mtype : string option;
      (** [None] for the all-types kinds [omission_all] and
          [byzantine_mix] *)
  params : param list;  (** canonical order *)
  fabricated : Spec.message option;
      (** [inject_spurious]'s message.  Written out, never read:
          {!of_view} takes the message from the harness spec. *)
}

val view : fault -> view

val fault_to_json : fault -> Json.t
(** [{"kind", "mtype", …parameters}]: a fold over {!view}, each
    parameter under its JSON key.  An [inject_spurious] fault also
    writes its message's ["stateless"] and ["gen_args"] (before
    ["dst"]).  Campaign [--json], [findings.jsonl] and [shrink --json]
    print it. *)

val of_view : spec:Spec.t -> view -> (fault, string * string) result
(** The one validating constructor.  It checks the message type against
    [spec] ([inject_spurious] must name a stateless type) and every
    parameter against its range (see {!param}).  [Error (field,
    reason)] names the offending field: ["kind"], ["mtype"] or a
    parameter key. *)

val tokens : fault -> string list
(** The [.pfis]/[.pfim] spelling: kind, message type, then the
    parameters ({!float_to_string} for floats), e.g.
    [["drop_fraction"; "MSG"; "0.4"]]. *)

val of_tokens : spec:Spec.t -> string list -> (fault, string * string) result
(** Reads {!tokens} through {!of_view}; [Error (token, reason)] names
    the offending word. *)

val find_stateless : Spec.t -> string -> (Spec.message, string) result
(** The spec's message of that type, which must be stateless: the rule
    for every message the PFI layer fabricates ([inject_spurious], a
    scenario's [inject]). *)

val float_to_string : float -> string
(** Shortest decimal that reads back to the exact float, falling back
    to the [%h] hex-float form (which [float_of_string] also accepts). *)

val round_probability : float -> float
(** A probability at the precision the generated scripts print it
    ([%.4f]). *)

val round_seconds : float -> float
(** A delay at the precision the generated scripts print it ([%.3f]). *)

(** {1 Rendering} *)

val describe : fault -> string

val canonical : fault -> string
(** Full-precision rendering used for fault identity (unlike
    {!describe}, floats are not rounded for display). *)

val fault_key : fault -> int64
(** A stable 64-bit hash of {!canonical}: the fault's identity,
    independent of its position in any campaign list.  {!Campaign}
    derives per-trial RNG seeds from it so that adding, removing or
    permuting faults never changes another trial's seed or verdict. *)

val script_of_fault : fault -> string
(** The generated filter script.  Scripts only assume the standard PFI
    command vocabulary plus the spec's stub. *)

val campaign : ?target:string -> Spec.t -> fault list
(** The systematic fault set for a specification; [target] is the node
    spurious injections are addressed to (defaults to ["peer"]).  Every
    fault in the set is one a correct implementation should tolerate
    (transient outages, probabilistic omission and corruption, timing,
    duplication, reordering, spurious stateless injections, one
    whole-vocabulary omission trial), so a violating trial indicates a
    defect. *)
