(** The conformance catalogs: re-measuring the paper's results from
    fault-injection trials, one row per result.

    The paper's central claim is that script-driven fault injection
    below an unmodified transport re-discovers each vendor's
    undocumented behaviour — SunOS/AIX/NeXT retransmit 12 times with
    exponential backoff capped at 64 s and then RST, Solaris retries 9
    times off a global error counter and closes silently, SunOS pads
    keep-alive probes with a garbage byte, the zero-window probe
    ceiling is 60 s on BSD stacks but 56 s on Solaris, and so on.
    This module states every such result as a {!row} of a declarative
    catalog, with {!check}s that pair the paper's value with the
    measured one.  There are two catalogs:

    - the {b tcp} vendor matrix ({!catalog}): one fault-injection trial
      configuration per row (vendor profile, workload phase, failure
      model, filter side) plus an oracle that measures the quirk from
      the client's trace entries alone — the verdict of the
      trial's service oracle is deliberately ignored, because most
      quirks only manifest while the service guarantee is being
      violated;
    - the {b paper} catalog ({!Paper.catalog}): the results the vendor
      matrix lacks (Table 2 and Figure 4, the Solaris retry probe,
      the remaining columns of Tables 3 and 4, Experiment 5, GMP Tables
      5–8 and the ablations), each row running the paper's own testbed
      ({!Tcp_rig}, {!Gmp_rig}) via {!paper_row}.

    Both catalogs' rows are one kind, run one way: a row is a function
    of the profile override and its derived seed.  It builds its trial
    on this domain's {!Arena} scratch — a vendor row through
    {!Campaign.exec}, a paper row by passing the scratch to its rig —
    and reads what it measures from {!collect}ors attached to the
    scratch's trace before the trial is built.  No row stores its
    trace, and a row is done reading its trial before it takes another
    scratch.

    {!run} executes rows of either catalog on any {!Executor.t};
    per-row seeds are pure functions of the campaign seed and the row
    id, and results come back in catalog order, so the rendered report
    ({!to_markdown}, {!to_json}) is byte-identical for any [--jobs]
    width.  [EXPERIMENTS_tcp.md] and [EXPERIMENTS_paper.md] are the
    committed renderings of the two catalogs; the CLI regenerates them
    with [pfi_run matrix [tcp|paper] --report FILE]. *)

(** {1 Checks and rows} *)

type check = {
  ck_label : string;  (** what the oracle measured, e.g. ["backoff ceiling"] *)
  ck_paper : string;  (** the value the paper's table records *)
  ck_measured : string;  (** the value re-discovered from the trace *)
  ck_pass : bool;
}
(** One cell pair of a quirk table: paper value vs measured value. *)

val check : string -> paper:string -> measured:string -> check
(** Passes when the two cells are equal. *)

val check_int : string -> paper:int -> measured:int -> check

val check_at_least : string -> floor:int -> measured:int -> check
(** Paper cell ["FLOOR or more"]; passes when [measured >= floor]. *)

type row
(** One catalog entry: a trial plus the oracle that measures its
    result.  Vendor-row oracles bake in the {e row} vendor's expected
    values, so running a row against a different profile ({!run}'s
    [profile_override]) makes its checks fail — the negative control
    that proves the matrix actually discriminates between vendors. *)

val row_id : row -> string
(** Stable identifier, ["SECTION/SLUG"] (e.g. ["rexmt/sunos-4.1.3"]).
    Unique within a catalog; the per-row trial seed is derived from
    it. *)

val row_section : row -> string
(** Section key: for the vendor matrix ["rexmt"], ["counter"],
    ["keepalive"], ["zerowin"], ["handshake"] or ["teardown"]. *)

val row_vendor : row -> string
(** The row's slug: for a vendor row, the vendor profile's
    {!Pfi_tcp.Profile.slug}. *)

val catalog : unit -> row list
(** The full matrix: every section crossed with all four paper
    vendors (paper Tables 1–4 plus the handshake/teardown lifecycle
    sections that exercise the rest of the 10-state FSM), in report
    order. *)

val golden_catalog : unit -> row list
(** A two-row subset (retransmission exhaustion for SunOS 4.1.3 and
    Solaris 2.3) small enough for golden tests yet still covering both
    vendor families. *)

(** {2 Paper rows} *)

type section
(** A titled section of a report. *)

val paper_section : key:string -> title:string -> blurb:string -> section
(** A section of the paper catalog; it renders under that catalog's
    header. *)

val paper_row :
  section:section -> slug:string -> subject:string -> quirk:string ->
  (int64 -> check list) -> row
(** A paper-catalog row with id ["KEY/SLUG"].  [subject] names what it
    runs against (a vendor, or a GMP test case) and [quirk] states the
    result in one line.  The function is the trial: given the derived
    row seed, it builds its testbed on {!Arena.scratch}, runs it and
    returns the checks. *)

(** {2 Trace measurement helpers} *)

val collect :
  Pfi_engine.Trace.t -> node:string -> tags:string list ->
  string -> Pfi_engine.Trace.entry list
(** [collect trace ~node ~tags] attaches a feed to [trace], of either
    kind, that keeps [node]'s entries with one of [tags]; the returned
    reader gives the entries with one tag, in recording order.
    Attached before the trial is built, it sees every entry.  The one
    collector of both catalogs; asking it for a tag not in [tags]
    raises [Not_found]. *)

val kv : string -> string -> string option
(** [kv detail key]: the value of [key] in a ["k=v k=v"] trace detail. *)

val monotone_nondecreasing : Pfi_engine.Vtime.t list -> bool

val rst_at_close : (string -> Pfi_engine.Trace.entry list) -> bool
(** Over a {!collect} reader of a connection's [tcp.closed] and
    [tcp.rst-sent] entries: whether it sent a RST as it gave the
    connection up, at the time of its first [tcp.closed].  A RST sent
    later, in reply to a stray segment at the closed port, does not
    count. *)

(** {1 Running} *)

type result = {
  res_id : string;
  res_section : string;
  res_vendor : string;
      (** display name, e.g. ["SunOS 4.1.3"] or ["timer test, buggy"] *)
  res_quirk : string;  (** one-line statement of the quirk under test *)
  res_seed : int64;  (** the derived per-row trial seed *)
  res_checks : check list;
  res_pass : bool;  (** all checks passed *)
}

type report = {
  rep_seed : int64;  (** campaign seed the row seeds derive from *)
  rep_profile_override : string option;
  rep_sections : section list;  (** in order of first appearance *)
  rep_results : result list;  (** catalog order *)
}

val run :
  ?executor:Executor.t -> ?seed:int64 -> ?profile_override:string ->
  row list -> report
(** Runs every row as an isolated trial on its worker's arena, mapping
    rows through the executor (default a fresh {!Executor.of_jobs}[ 1]).  [seed] defaults to
    {!Campaign.default_seed}.  [profile_override] builds every vendor
    harness with the named profile ({!Pfi_tcp.Profile.find} name or
    slug) {e while keeping each row's own expectations} — the wrong-knob
    negative control.  Raises [Invalid_argument] on an unknown override
    name, or on an override given with paper rows. *)

val passed : report -> int
(** Rows whose every check passed. *)

val total : report -> int

val check_counts : report -> int * int
(** [(passed, total)] over individual checks rather than rows. *)

(** {1 Reports} *)

val to_markdown : report -> string
(** The quirk-table report: the catalog's header, then one markdown
    table per section with paper-value / measured-value / verdict
    columns.  Deterministic — same report, same bytes — and independent
    of executor width. *)

val to_json : report -> Json.t
(** Machine-readable form (format ["pfi-conformance/1"]): campaign
    seed, optional profile override, and one record per row with its
    checks.  Deterministic like {!to_markdown}. *)
