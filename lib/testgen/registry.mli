(** The stock campaign harnesses, addressable by name.

    A scenario's [run HARNESS] line, repros included, names the harness
    a trial runs against; this registry maps that name back to a
    runnable packed {!Harness_intf.HARNESS} so `pfi_run check`,
    `pfi_run shrink` and `pfi_run campaign` can rebuild the exact
    system and hand the module straight to {!Campaign.run} /
    {!Campaign.run_trial} — no per-call-site wrapping. *)

val entries : Harness_intf.packed list
(** ["abp"], ["abp-buggy"], ["gmp"], ["gmp-buggy"], ["tcp"]. *)

val names : string list

val find : string -> Harness_intf.packed option

val find_configured :
  ?profile:string -> ?phase:string -> string -> Harness_intf.packed option
(** {!find}, but when the scenario carries [profile] / [phase]
    directives the ["tcp"] harness is built parameterised over the
    named vendor {!Pfi_tcp.Profile.t} and workload phase instead of
    the stock entry.  Returns [None] for an unknown harness, an
    unknown profile/phase token, or a directive applied to a harness
    that has no such knob (only ["tcp"] does). *)
