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
(** Raised on malformed input (unbalanced braces, brackets or quotes).
    From {!parse} the message is always [line N: REASON (at "EXCERPT")]:
    [N] counts from the script's first line, [REASON] holds no [(], and
    the excerpt, quoted as by [%S], is up to 12 bytes of the line from
    where the bad construct starts.  [Scenario.parse] reads it back to
    report a filter block's error at its file line. *)

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
