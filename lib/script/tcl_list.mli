(** Tcl list syntax.

    A Tcl list is a string whose elements are separated by whitespace;
    elements containing whitespace or special characters are wrapped in
    braces.  These helpers convert between that surface syntax and OCaml
    string lists, so host commands can accept and return structured data. *)

val to_list : string -> string list
(** Splits a list-syntax string into elements, honouring brace and quote
    grouping.  Raises {!Parser.Parse_error} on unbalanced input. *)

val of_list : string list -> string
(** Renders elements back to list syntax, brace-quoting where needed.
    [to_list (of_list l) = l] for all [l]. *)

val index : string -> int -> string option
val length : string -> int
val append : string -> string -> string
(** [append list elem] adds one element (quoting it). *)

val range : string -> int -> int -> string
(** [range list first last], inclusive, clamped; Tcl's [lrange]. *)
