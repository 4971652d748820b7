(** Packetdrill-style scenario conformance scripts ([*.pfis]).

    A scenario file states a complete, replayable conformance test as
    data: which harness to build, which faults to install on its PFI
    layer, which packets to fabricate at which virtual times, and which
    {!Oracle} predicates the resulting trace must satisfy.  One text
    file therefore captures the whole shape of a paper experiment —
    inject, then judge the reaction against the spec.  It is also the
    one form in which the tool writes a trial down: every campaign
    repro, minimized repro and fuzz finding is a [.pfis] file
    ({!repro}) that [pfi_run check] replays.

    {2 Format}

    Line-oriented; [#] starts a comment; words are whitespace-separated.

    {v
    name ABP survives a transient MSG outage
    run abp
    seed 31
    horizon 120s

    fault send drop_first MSG 3
    @5s inject receive ACK bit=1
    @0s expect tag=abp.deliver detail~msg-00 within 30s
    expect never tag=abp.bad-frame
    expect count tag=abp.retransmit >= 1
    expect ordered tag=abp.deliver detail~msg-00 ; tag=abp.deliver detail~msg-01
    expect service
    v}

    Directives:
    - [run HARNESS] — a {!Registry} harness name; must precede every
      directive that needs the protocol spec.
    - [profile VENDOR] — (tcp only) run both endpoints on the named
      vendor profile ({!Pfi_tcp.Profile.find}: a case-insensitive name
      or slug such as [sunos-4.1.3], [solaris-2.3], [x-kernel]).
    - [phase handshake|stream|close] — (tcp only) where in the
      connection lifecycle the fault window sits: [handshake] performs
      the active open {e under} the installed filters, [stream]
      (default) faults a pre-opened bulk transfer, [close] adds an
      orderly client close whose teardown must complete via TIME_WAIT.
    - [seed N] / [horizon DURATION] — defaults for the run (the
      harness's own defaults otherwise).  Durations are [NUMBER] plus
      one of [us ms s m h], e.g. [500ms], [1.5s], [2m].
    - [fault [send|receive|both] SPEC [+ SPEC ...]] — generated faults
      installed on the harness PFI layer before the run (side defaults
      to [both]); [+]-separated specs install a multi-fault sequence on
      the same side, equivalent to one [fault] directive each.  [SPEC]
      is one of [drop_all T], [drop_after T N], [drop_first T N],
      [drop_nth T N], [drop_fraction T P], [omission_all P],
      [byzantine_mix P], [delay_each T SECONDS], [duplicate T],
      [corrupt T P], [reorder T], [inject_spurious T DST] — exactly
      {!Generator.fault}.  [T] must be a message type of the harness
      spec (a stateless one for [inject_spurious]); a count [N] is at
      least 0 (at least 1 for [drop_nth]); a probability [P] is in
      \[0, 1\]; [SECONDS] is at least 0 and below
      {!Pfi_engine.Vtime.infinity} once in microseconds.  [.pfis] and
      [.pfim] share this one validator ({!Generator.of_view}), so a
      fault out of range is an error naming its line and word.
    - [filter send|receive|both], then script lines, then a line that
      is just [end] — a hand-written filter script.  Its lines are kept
      verbatim (a [#] in them is Tcl's, not a comment here) and run
      after that side's [fault] scripts, in file order.  So a script
      can hold no line that is just [end].  The script is parsed
      ({!Pfi_script.Parser.parse}) when its [end] is read: a syntax
      error is a {!Parse_error} at the file line of the script's line,
      with the parser's reason and excerpt.
    - [@T heal] — clears both sides' filters at virtual time [T]: the
      fault window of a fuzz input.
    - [@T inject send|receive MTYPE [k=v ...] [to NODE]] — fabricate a
      stateless message through the harness stub at virtual time [T] and
      introduce it below ([send], addressed to [NODE], default the
      harness target) or above ([receive]) the PFI layer.
    - [[@T] expect ... [within D]] — a conformance oracle over the run's
      trace.  Patterns are atoms [node=X], [tag=X], [detail~SUBSTRING]
      and [f.KEY=VALUE]; a value containing ['*'] glob-matches the whole
      entry value ({!Oracle.pattern}).  Variants: bare / [eventually]
      (some entry matches; [@T]/[within] constrain the window),
      [never PATTERN], [count PATTERN OP N] with [OP] one of
      [< <= == != >= >], [ordered P1 ; P2 ; ...], and [service] (the
      harness's built-in service oracle).  Two textually different
      [expect] directives stating the identical expectation are a parse
      error — generated corpora cannot silently shadow a check.
    - Every [@T] prefix also accepts the relative form [@+DUR]: [DUR]
      after the time of the previous [@]-prefixed directive in the file
      (zero before any), resolved to an absolute time at parse time.
      [@+0s] pins "at the same time as the previous block".
    - [xfail SUBSTRING...] — declares the scenario is {e expected} to
      fail with a diagnostic containing the (space-joined) substring:
      conformance tests for the [*-buggy] harnesses stay green while
      still pinning the pointed failure they must produce.
    - [xfail = REASON] — expected to fail with exactly [REASON]: the
      rest of the line after ["= "], byte for byte, [#] and runs of
      spaces included.  A failing row's reason must equal it.  Repros
      pin their recorded violation this way.

    Syntax errors raise {!Parse_error} naming the line and token. *)

open Pfi_engine

(** {1 Errors} *)

type error = {
  err_line : int;  (** 1-based line number *)
  err_token : string;  (** the offending token, or directive name *)
  err_reason : string;
}

exception Parse_error of error

val error_message : ?file:string -> error -> string
(** ["scenario.pfis:3: unknown directive (at \"exepct\")"]. *)

(** {1 Scenarios} *)

type injection = {
  inj_line : int;
  inj_at : Vtime.t;
  inj_side : [ `Send | `Receive ];
  inj_mtype : string;
  inj_args : (string * string) list;
      (** stub generation arguments: the spec's defaults overridden by
          the directive's [k=v] pairs *)
  inj_dst : string;
}

type expectation =
  | Trace_oracle of Oracle.t
  | Service  (** the harness's own [check] *)

type check = {
  chk_line : int;
  chk_expect : expectation;
}

type xfail =
  | Contains of string  (** [xfail SUBSTRING] *)
  | Equals of string  (** [xfail = REASON] *)

type t = {
  sc_name : string;
  sc_harness : string;
  sc_profile : string option;
      (** [profile VENDOR] directive (tcp only): the vendor profile
          both endpoints run, stored as the canonical
          {!Pfi_tcp.Profile.slug} *)
  sc_phase : string option;
      (** [phase handshake|stream|close] directive (tcp only): which
          part of the connection lifecycle the fault window covers *)
  sc_seed : int64 option;
  sc_horizon : Vtime.t option;
  sc_faults : (Campaign.side * Generator.fault) list;
  sc_filters : (Campaign.side * string) list;
      (** [filter] blocks, in file order: each side and script text *)
  sc_heal : Vtime.t option;  (** [@T heal] *)
  sc_injections : injection list;
  sc_checks : check list;
  sc_xfail : xfail option;
}

val parse : ?single_fault:bool -> ?name:string -> string -> t
(** Parses scenario text; [name] defaults to ["scenario"] and is
    overridden by a [name] directive.  Raises {!Parse_error}.
    [single_fault] (default false) reads a file to shrink: it must hold
    one [fault] line with one fault, and a second fault or an
    [inject], [filter], [heal], [profile] or [phase] line is an error
    naming its line. *)

val load : ?single_fault:bool -> string -> t
(** Reads and parses a file; the scenario name defaults to the file's
    basename.  Raises {!Parse_error} or [Sys_error]. *)

(** {1 Printing} *)

val to_string : ?comments:string list -> t -> string
(** The scenario as canonical [.pfis] text, which {!parse} reads back
    {!equal} to it, after one [# ] line per [comments] entry.  Generated
    corpora ({!Matrix}) and repros ({!save_repro}) are emitted through
    it.  Raises [Invalid_argument] when its text does not read back as
    the scenario: {!parse} is the one judge of valid text, so the
    message is the parser's own, naming the line and token, or says that
    the text reads back as a different scenario. *)

val equal : t -> t -> bool
(** Structural equality ignoring the recorded source-line numbers
    ([inj_line], [chk_line]) — the equality [to_string]/[parse] round
    trips under. *)

val duration_to_string : Pfi_engine.Vtime.t -> string
(** Canonical duration token ([90s], [450ms], [2h]): the largest unit
    that divides the time exactly, guaranteed to re-parse to the same
    {!Pfi_engine.Vtime.t}.  Raises [Invalid_argument] on negative or
    infinite times. *)

(** {1 Repros} *)

val repro :
  ?heal:Vtime.t -> name:string -> harness:string -> seed:int64 ->
  horizon:Vtime.t -> side:Campaign.side -> reason:string ->
  Generator.fault list -> t
(** The scenario a violating trial replays as: its faults on [side],
    healed at [heal], run with its trial [seed] to [horizon], with
    [expect service] and [xfail = reason].  {!run} judges it an expected
    failure exactly when the trial still violates with [reason]. *)

val repro_stem : index:int -> Campaign.side -> Generator.fault -> string
(** ["repro-<index>-<side>-<fault slug>"]: stable and filesystem-safe.
    Campaign and fuzz repros are named [<stem>.pfis], with the stem as
    their scenario name, so [pfi_run check] takes a whole directory. *)

val save_repro :
  string -> verb:string -> seed:int64 -> injected_events:int ->
  ?notes:string list -> t -> unit
(** Writes {!to_string} of the repro to the path, after comment lines
    that no reader parses: ["origin: <verb> <harness> --seed <seed>"]
    (the campaign or fuzz seed), ["injected events: <n>"] (the
    [testgen.fault] plus [pfi.log] entries of its trial), then one line
    per [notes] entry. *)

(** {1 Lexical helpers and shared directive checks}

    Shared with the {!Matrix} expander so [.pfim] matrix specs follow
    exactly the scenario language's lexical rules, and check a harness,
    profile, phase or seed with the parser's own code and messages. *)

val tokens_of_line : string -> string list
(** Whitespace-split words; a word starting with [#] comments out the
    rest of the line. *)

val duration_of_token : line:int -> string -> Pfi_engine.Vtime.t
(** Parses a [NUMBER(us|ms|s|m|h)] token, raising {!Parse_error} at
    [line] on malformed input. *)

val parse_error : line:int -> token:string -> string -> 'a
(** Raises {!Parse_error} — for other parsers of this lexical family
    (the matrix expander) to report errors in the same format. *)

val harness_of_token : line:int -> string -> Harness_intf.packed
(** The {!Registry} harness of that name; otherwise raises
    {!Parse_error} ["unknown harness (expected one of ...)"]. *)

val profile_of_token : line:int -> string -> string
(** The canonical {!Pfi_tcp.Profile.slug} of a vendor profile name;
    otherwise raises ["unknown vendor profile (expected one of ...)"]. *)

val phase_of_token : line:int -> string -> string
(** The canonical phase name; otherwise raises ["unknown phase
    (expected handshake, stream or close)"]. *)

val seed_of_args : line:int -> string list -> int64
(** The seed of a [seed N] directive, given the words after [seed].
    Raises ["expected a 64-bit integer seed"] at [N], or ["usage: seed
    N"] at [seed] unless there is exactly one word. *)

(** {1 Execution} *)

type row = {
  row_line : int;  (** the [expect] directive's line *)
  row_desc : string;
  row_pass : bool;
  row_reason : string;
  row_witness : int option;  (** trace recording index, when one exists *)
}

type outcome =
  | Pass
  | Fail
  | Xfail  (** expected failure occurred — counts as a pass *)
  | Xpass  (** declared [xfail] but every oracle held — counts as a failure *)

val outcome_name : outcome -> string

type result = {
  res_scenario : string;
  res_harness : string;
  res_seed : int64;
  res_horizon : Vtime.t;
  res_rows : row list;  (** one per [expect], in file order *)
  res_xfail : xfail option;
  res_outcome : outcome;
}

val run : ?seed:int64 -> ?observe:Campaign.observer -> t -> result
(** Runs the scenario as one {!Campaign.exec} trial (seed priority:
    argument, then the scenario's [seed] directive, then the harness
    default): each side's fault scripts and filter blocks installed as
    one filter, the injections and the heal scheduled by its arming
    hook, the workload run to the horizon.  Every trace [expect] is an {!Oracle.monitor} attached
    before the harness is built, so it judges every entry the trial
    records; [expect service] reads the harness's [check].
    Deterministic: the result is a pure function of (scenario, seed).

    [observe] (default: no export) is the same observer record
    campaigns consume: its [obs_trace_out] sink is attached before the
    build, as the monitors are, and gets every entry with its own
    labels.  Every row is the same with or without an export. *)

val passed : result -> bool
(** True for {!Pass} and {!Xfail}. *)
