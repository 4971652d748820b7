(** Convenience entry point: an interpreter with the standard command
    library installed.

    {[
      let interp = Script.create () in
      ignore (Script.eval interp "set x 41; expr {$x + 1}")  (* "42" *)
    ]} *)

val create : unit -> Interp.t

val eval : Interp.t -> string -> string
(** Re-export of {!Interp.eval}. *)

val eval_capture : Interp.t -> string -> string * string
(** [eval_capture t src] evaluates [src] while capturing [puts] output;
    returns [(result, captured_output)].  The previous output sink is
    restored afterwards, even on error. *)
