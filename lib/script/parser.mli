(** Parser for the Tcl-subset scripting language.

    The grammar follows Tcl's dodekalogue closely enough to run the
    paper's filter scripts verbatim:

    - commands are separated by newlines or [;];
    - a [#] at command position starts a comment to end of line;
    - words are separated by spaces or tabs;
    - [{...}] words are verbatim (nesting braces, backslash-escaped braces);
    - ["..."] words substitute variables, command results and backslash
      escapes;
    - bare words substitute the same way and end at a separator;
    - [$name], [${name}] reference variables; [\[script\]] is command
      substitution;
    - a backslash-newline (plus following whitespace) acts as a space.

    Parsing never evaluates anything; see {!Interp}. *)

exception Parse_error of string
(** Raised on malformed input (unbalanced braces, brackets or quotes). *)

val parse : string -> Ast.script
(** Splits a whole script into commands.  Nested parts (bodies, [expr]
    arguments, [\[...\]] substitutions) stay text until evaluation
    compiles them; see {!Ast}. *)

val parse_count : unit -> int
(** Number of {!parse} calls so far in this process (all domains).
    Monotonic; meant for regression tests that pin how often a hot path
    re-parses source text — campaign trials must compile each fault
    script once per campaign, not once per trial, and a compiled script
    parses each nested body at most once. *)

val tokenize : string -> Ast.token list
(** Scans a whole string into a substitution token sequence without any
    word splitting — used to substitute inside [expr] strings and by the
    [subst] command. *)
