(** Arithmetic/logic expression evaluator behind the [expr] command and
    the conditions of [if]/[while]/[for].

    Operates on a fully substituted expression string (variable and
    command substitution have already happened; see {!Interp.eval_expr}).
    Supports the C-like operator set of Tcl's [expr]: arithmetic with
    integer/float promotion, hex literals, comparisons (numeric when both
    sides parse as numbers, lexicographic otherwise), [eq]/[ne] string
    comparison, boolean connectives with short-circuit, bitwise ops,
    shifts, the ternary conditional, and the functions [abs], [int],
    [double], [round], [min], [max], [pow], [fmod], [sqrt]. *)

exception Error of string

type value =
  | Int of int
  | Float of float
  | Str of string

val eval : string -> value

val eval_to_string : string -> string
(** Evaluates and renders the result as Tcl would print it. *)

val to_string : value -> string
val truthy : value -> bool

val parse_number : string -> value option
(** [Some (Int _ | Float _)] when the whole string is a numeric literal
    (decimal, hex with [0x], or float); [None] otherwise. *)
