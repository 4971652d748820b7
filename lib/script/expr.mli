(** Arithmetic/logic expression evaluator behind the [expr] command and
    the conditions of [if]/[while]/[for].

    Operates on a fully substituted expression string (variable and
    command substitution have already happened), or on a {!template}
    that parsed the text around the substitutions once.

    Supports the C-like operator set of Tcl's [expr]: arithmetic with
    integer/float promotion, hex literals, comparisons (numeric when both
    sides parse as numbers, lexicographic otherwise), the boolean
    connectives and the ternary conditional (which evaluate every
    operand, unlike Tcl's), bitwise ops, shifts, and the functions [abs],
    [int], [double], [round], [min], [max], [pow], [fmod], [sqrt]. *)

exception Error of string

type value =
  | Int of int
  | Float of float
  | Str of string

val eval : string -> value
(** Parses and evaluates in one pass: an operand's error comes before a
    syntax error further right. *)

val to_string : value -> string
val truthy : value -> bool

val parse_number : string -> value option
(** [Some (Int _ | Float _)] when the whole string is a numeric literal
    (decimal, hex with [0x], or float); [None] otherwise. *)

(** {1 Templates}

    An [expr] argument is substituted, then parsed: a value
    {!parse_number} accepts goes in raw, any other value brace-quoted.  A
    template parses the literal text around the substitutions once; it
    evaluates without re-parsing whenever each value reads as one operand
    in place, and re-parses the substituted text otherwise, so its value
    or error is always the re-parse's. *)

type template

val template : string list -> template
(** [template segments]: the literal text between substitutions, one
    more segment than there are substitutions. *)

val eval_template : template -> string array -> value
(** Evaluates with the substituted values, in order. *)
