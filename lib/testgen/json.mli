(** The repo's one JSON codec: a minimal tree, a deterministic
    pretty-printer and a compact single-line printer, a
    recursive-descent parser (the tests read the tool's output back with
    it, and [perf/] its benchmark declaration), and a trace entry's
    JSONL line.  Every JSON byte the tool writes — findings streams,
    [--json] output and [--trace-out] traces — is escaped and printed
    here; no JSON library is involved.

    Strings are byte strings.  Valid UTF-8 passes through and a control
    character is written as [\u00XX]; a byte that is not part of a
    valid sequence is written as the lone low surrogate [\udcXX]
    carrying the byte value (Python's surrogateescape convention),
    which {!parse} maps back to the single byte.  So any byte string
    round-trips while the output stays valid UTF-8.  {!parse} reads
    every other [\uXXXX] as its code point's UTF-8 bytes, a
    surrogate pair as one 4-byte sequence, so a file a standard JSON
    writer re-serialized reads back with the same bytes; any other
    lone surrogate is a parse error. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** printed with [%.17g], which round-trips every finite double;
          an integral value below 1e17 in magnitude prints with no
          point or exponent, so it reads back as [Int] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** field order preserved *)

val to_string : t -> string
(** Indented, deterministic: same tree, same bytes. *)

val to_line : t -> string
(** Compact single-line form of the same tree (no newlines or
    indentation), for JSONL streams.  Equally deterministic. *)

val parse : string -> (t, string) result

(** {1 Accessors} *)

val member : string -> t -> t option
val to_str : t -> string option

(** {1 Trace export} *)

val add_entry :
  extra:(string * string) list -> Buffer.t -> Pfi_engine.Trace.entry -> unit
(** Appends one entry's JSONL line, newline included:
    [{"t_us":<int>, <extra>, "node":"...", "tag":"...", "detail":"...",
      "fields":{"k":"v", ...}}].  The [extra] pairs (a {!Trace_out}
    sink's labels) come right after ["t_us"]; ["fields"] is omitted
    when the entry has none. *)
