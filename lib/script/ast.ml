(** Parsed form of a script.

    Following Tcl, parsing only splits a script into commands and words and
    records where substitution must happen; all values remain strings until
    evaluation.  A word without substitution ([{...}], or a bare or quoted
    word with no [$] or [\[]) is a [Const], whose text is its value.

    Compiled code keeps its nested parts.  A [Const] word's text may serve
    as a script, an [expr] argument or a list, and a [\[...\]] substitution
    is a script: its [body] stores the text compiled for that role on first
    evaluation.  One compiled script runs in many interpreters on several
    domains, so a slot only ever changes to a compiled value of its own
    text; two domains filling it at once both store a correct one. *)

type script = command list

and command = word list

and word =
  | Const of body  (** no substitution: the text is the value *)
  | Tokens of token list  (** bare or quoted word: tokens concatenate *)

and token =
  | Lit of string  (** literal text *)
  | Var_ref of string  (** [$name] or [${name}] *)
  | Cmd_sub of body  (** [\[script\]], evaluated at substitution time *)

and body = { text : string; mutable code : code }

and code =
  | Source  (** not compiled yet *)
  | Script of script
  | Expr of expr
  | List of body list  (** the elements of a Tcl list *)

(** An [expr] argument: its substitutions ([holes], each a [Var_ref] or a
    [Cmd_sub]) and the literal text around them, parsed once. *)
and expr = { holes : token array; template : Expr.template }

let body text = { text; code = Source }
