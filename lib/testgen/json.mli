(** The repo's one JSON codec: a minimal tree, a deterministic
    pretty-printer and a compact single-line printer, a
    recursive-descent parser, the field decoders artifact and manifest
    readers share, and the JSONL writer of a trace.  Every JSON
    byte the tool writes — repro artifacts, corpus manifests, findings
    streams, [--json] output and [--trace-out] traces — is escaped and
    printed here; no JSON library is involved.

    Strings are byte strings.  Valid UTF-8 passes through; a byte that
    is not part of a valid sequence (or a control character) is written
    as [\u00XX] carrying the byte value, which {!parse} maps back to the
    single byte, so any byte string round-trips while the output stays
    valid UTF-8. *)

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
val to_int : t -> int option
val to_list : t -> t list option

val to_float : t -> float option
(** A [Float], or an [Int] read as one. *)

(** {1 Field decoders}

    [what] names the record being decoded; it prefixes every error. *)

val field : what:string -> (t -> 'a option) -> string -> t -> ('a, string) result
(** [field ~what conv key j] is [conv] of [j]'s member [key], or the
    error ["<what>: missing or ill-typed \"<key>\""]. *)

val int64_field : what:string -> string -> t -> (int64, string) result
(** A 64-bit member, carried as a decimal string (JSON numbers are
    doubles, and a derived seed does not fit in 53 bits) or as a small
    [Int]. *)

val decode_list : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Decodes every item in order; the first error is the result. *)

(** {1 Trace export} *)

val output_trace :
  ?extra:(string * string) list -> ?tag:string -> out_channel -> Pfi_engine.Trace.t -> unit
(** Writes every entry with [tag] (default: every entry), in recording
    order, as one JSONL line:
    [{"t_us":<int>, <extra>, "node":"...", "tag":"...", "detail":"...",
      "fields":{"k":"v", ...}}].  The [extra] pairs (e.g. a run id) come
    right after ["t_us"]; ["fields"] is omitted when the entry has none.
    Reads {!Pfi_engine.Trace.entries}, so a counting trace raises
    [Invalid_argument] before anything is written. *)
