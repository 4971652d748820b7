(** Scenario-matrix specs ([*.pfim]): compact generators for [.pfis]
    conformance corpora.

    A matrix spec states a family of scenarios as a cartesian product —
    harness set × filter side × fault axis × parameter/timing sweeps —
    and {!expand} multiplies it out into concrete {!Scenario} records,
    each rendered through {!Scenario.to_string} so that generation is a
    print→parse round trip over the same AST.  A generated corpus is
    therefore exactly as checkable as a hand-written one: every file is
    canonical [.pfis] text that {!Scenario.load} accepts.

    {2 Format}

    Line-oriented, [#] comments, the {!Scenario} lexical rules
    ({!Scenario.tokens_of_line}).

    {v
    matrix ABP outage sweeps
    seed 31

    group msg-loss
      harness abp
      side send receive
      fault drop_first MSG sweep 1..3
      fault drop_nth MSG sweep 2..4
      @sweep 5s..15s/5s inject receive ACK bit=1
      expect tag=abp.deliver detail~msg-* within 60s
      expect service
    end
    v}

    Top level:
    - [matrix NAME...] — required once; names the corpus in the
      manifest.
    - [seed N] — base seed scenarios derive their per-scenario seeds
      from (default 31).
    - [group NAME ... end] — one scenario family; group names are
      single tokens, unique within the spec.

    Inside a group:
    - [harness H1 H2 ...] — {!Registry} names; one axis dimension.
      Repeatable; at least one harness is required.
    - [side send|receive|both ...] — filter-side axis (default
      [both]).
    - [profile VENDOR ...] — (tcp groups) vendor-profile axis: each
      scenario gets a [profile] directive; accepted tokens are
      {!Pfi_tcp.Profile.find} names/slugs.  Absent = no directive.
    - [phase handshake|stream|close ...] — (tcp groups) workload-phase
      axis, emitted as a [phase] directive per scenario.
    - [seed N] — pins every scenario of the group to this exact seed
      (otherwise each scenario gets a seed derived from the matrix seed
      and its name).
    - [horizon DUR] / [xfail WORDS...] — copied into every scenario.
    - [fault SPEC...] — one {e alternative} of the fault axis per
      directive (the side comes from the [side] axis, so the spec must
      not name one).  No [fault] line means a single baseline
      (fault-free) alternative.
    - [@T inject ...], [[@T] expect ...] — template lines copied into
      every scenario of the group, in order.

    Any template or fault line may use [sweep LO..HI] or
    [sweep LO..HI/STEP] in place of a value token; [@sweep RANGE] and
    [@+sweep RANGE] sweep the [@]-time of a template line.  Integer
    sweeps default to step 1; float and duration sweeps require an
    explicit [/STEP].  Each sweep multiplies the group's scenario
    count; a single sweep may produce at most 1000 values and a matrix
    at most 10000 scenarios.

    Scenario names are
    [GROUP/HARNESS/SIDE[/PROFILE][/PHASE]/FAULT-SLUG[@V1,V2,...]]
    (swept template values appended), and must be unique across the
    whole corpus — a collision is a {!Scenario.Parse_error}, as is
    every syntax or expansion error, naming the matrix line and
    token. *)

(** {1 Specs} *)

type group = {
  g_line : int;  (** the [group] directive's line *)
  g_name : string;
  g_harnesses : string list;
  g_sides : string list;  (** nonempty; defaulted to [["both"]] *)
  g_profiles : string list;
      (** vendor-profile axis (canonical {!Pfi_tcp.Profile.slug}s);
          empty when the group has no [profile] directive *)
  g_phases : string list;
      (** workload-phase axis ([handshake]/[stream]/[close]); empty
          when the group has no [phase] directive *)
  g_seed : int64 option;  (** pinned seed, overriding derivation *)
  g_horizon : string option;  (** raw duration token *)
  g_faults : (int * string list) list;
      (** fault-axis alternatives: line, tokens after [fault] *)
  g_templates : (int * string list) list;
      (** inject/expect template lines: line, full token list *)
  g_xfail : string option;
}

type t = {
  m_name : string;
  m_seed : int64;
  m_groups : group list;
}

val parse : string -> t
(** Parses matrix-spec text.  Raises {!Scenario.Parse_error}. *)

val load : string -> t
(** Reads and parses a [.pfim] file.  Raises {!Scenario.Parse_error}
    or [Sys_error]. *)

(** {1 Expansion} *)

type entry = {
  e_index : int;  (** 1-based corpus position *)
  e_file : string;  (** relative corpus file name, ["001-....pfis"] *)
  e_name : string;  (** the scenario's [name] directive *)
  e_group : string;
  e_harness : string;
  e_seed : int64;  (** the seed written into the scenario *)
  e_expected : string;  (** ["pass"] or ["xfail"] *)
  e_scenario : Scenario.t;
  e_text : string;  (** canonical [.pfis] text ({!Scenario.to_string}) *)
}

val expand : ?limit:int -> t -> entry list
(** Multiplies the matrix out, in spec order (group, then harness,
    side, fault alternative, sweep values — leftmost slowest).  Every
    entry's [e_text] has been parsed back and checked {!Scenario.equal}
    to its AST.  [limit] keeps only the first [limit] entries {e after}
    full expansion, so a limited corpus is a prefix of the full one.
    Raises {!Scenario.Parse_error} on expansion errors (sweep overflow,
    duplicate scenario names, template lines the scenario language
    rejects). *)

(** {1 Manifests} *)

val corpus_digest : (string * string) list -> string
(** MD5 hex over every [(file, text)] pair, file name then contents —
    two corpora agree on the digest iff they agree byte-for-byte.  [gen]
    digests the entries it writes ([e_file], [e_text]); [check
    --manifest] the files its manifest lists, as read back. *)

val manifest_json :
  spec_file:string -> spec_digest:string -> t -> entry list -> Json.t
(** The corpus manifest ([format "pfi-corpus/1"]): matrix name, spec
    file and digest, scenario/pass/xfail counts, {!corpus_digest}, and
    one record per scenario (file, name, group, harness, seed as a
    decimal string, expected verdict) in corpus order. *)

type manifest_entry = {
  me_file : string;
  me_name : string;
  me_group : string;
  me_harness : string;
  me_seed : int64;
  me_expected : string;
}

type manifest = {
  mf_matrix : string;
  mf_spec : string;
  mf_spec_digest : string;
  mf_count : int;
  mf_pass : int;
  mf_xfail : int;
  mf_corpus_digest : string;
  mf_entries : manifest_entry list;
}

val manifest_of_json : Json.t -> (manifest, string) result
(** Rejects unknown formats, missing fields, counts that disagree with
    the entry list, and duplicate file or scenario names.  Fields are
    read with the decoders repro artifacts use ({!Json.field}), so a
    missing one reads ["manifest: missing or ill-typed \"count\""], or
    ["manifest scenario: ..."] inside a scenario record. *)

val load_manifest : string -> (manifest, string) result
(** Reads and decodes a manifest file; [Error] covers I/O, JSON and
    validation failures. *)
