(** Standard command library for the interpreter.

    Installs the Tcl-subset commands the paper's scripts rely on:

    - variables: [set], [unset], [incr], [append], [global], [subst]
    - control flow: [if], [while], [for], [foreach], [break], [continue],
      [proc], [return], [error], [catch], [eval]
    - expressions: [expr]
    - lists: [list], [lindex], [llength], [lappend], [lrange], [lsearch],
      [lsort], [lreverse], [lrepeat], [concat], [join], [split]
    - strings: [string length|index|range|tolower|toupper|trim|compare|
      first|last|match|repeat], [format]
    - output & introspection: [puts], [info exists|commands|procs|vars] *)

val install : Interp.t -> unit

