(** The script interpreter.

    An interpreter is, as in Tcl, "an object which contains some state
    about variables and procedures which have been defined"; evaluating a
    script in it may read and update that state, which is how filter
    scripts keep counters and mode flags across messages.  Host code
    (the PFI layer, test drivers) extends the language by registering
    commands — the OCaml analogue of the paper's C-coded utility
    procedures linked into the tool. *)

type t

exception Script_error of string
(** A runtime script error (unknown command, unset variable, arity
    mismatch, [error] command).  Catchable from script code via
    [catch]. *)

val create : unit -> t
(** [puts] prints to [stdout] until {!set_output} swaps the sink.  The
    interpreter starts with {e no} commands registered; use
    {!Script.create} for one with the standard library installed. *)

val set_output : t -> (string -> unit) -> unit
val get_output : t -> string -> unit
(** The current sink, partially applied: [get_output t] is the function
    [puts] writes through. *)

(** {1 Evaluation} *)

val eval : t -> string -> string
(** Compiles and runs a script; the result is the result of its last
    command (the empty string for an empty script). *)

val compile : string -> Ast.script
(** {!Parser.parse}: nested parts compile on first evaluation, into the
    code itself, which any interpreter on any domain may run. *)

val eval_compiled : t -> Ast.script -> string

val subst_string : t -> string -> string
(** Performs [$var], [\[cmd\]] and backslash substitution on a string
    without word splitting (Tcl's [subst]). *)

(** {1 Compiled parts}

    How control-flow commands use their arguments: each accessor parses a
    body for its role on first use and stores the result in the body. *)

val body_script : Ast.body -> Ast.script
val body_list : Ast.body -> Ast.body list
val eval_body : t -> Ast.body -> string

val eval_expr : t -> Ast.body -> Expr.value
(** Substitutes every [$var] and [\[cmd\]], left to right, then
    evaluates (see {!Expr.template}). *)

val eval_cond : t -> Ast.body -> bool

(** {1 Variables} *)

val get_var : t -> string -> string option
val get_var_exn : t -> string -> string
val set_var : t -> string -> string -> unit
val unset_var : t -> string -> unit
val var_exists : t -> string -> bool

val set_global : t -> string -> string -> unit
(** Writes the global frame regardless of any proc frame in scope —
    how host code publishes state into the interpreter. *)

val get_global : t -> string -> string option

(** {1 Commands} *)

val register : t -> string -> (t -> string list -> string) -> unit
(** Registering over an existing name replaces it.  Names resolve on
    every call, and commands shadow procs. *)

val register_bodies : t -> string -> (t -> Ast.body list -> string) -> unit
(** A command that takes its arguments as bodies, for control flow: a
    constant word's own body, whose compiled forms outlive the call, or
    a fresh body around a substituted value. *)

val command_names : t -> string list

(** {1 Control-flow internals}

    Exposed for {!Builtins}; host commands may also raise these to
    participate in control flow. *)

exception Return_exn of string
exception Break_exn
exception Continue_exn

val error : string -> 'a
(** Raises {!Script_error}. *)

val errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Frames} *)

val mark_global : t -> string -> unit
(** Links a name in the current frame to the global frame ([global]). *)

(** {1 Procs} *)

type proc = { params : (string * string option) list; varargs : bool; body : Ast.script }

val define_proc : t -> string -> proc -> unit
val proc_names : t -> string list

val output : t -> string -> unit
(** Sends text to the interpreter's output sink. *)
