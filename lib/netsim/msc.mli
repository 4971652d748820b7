(** Message-sequence-chart rendering from network traces.

    The paper presents its global-error-counter discovery as a ladder
    diagram (A and B exchanging m1, ACKs and retransmissions).  This
    module regenerates such diagrams: when {!Network.set_msc_enabled} is
    on, every transmission records an [msc] trace entry whose
    [dst]/[arrival]/[label] fields carry its destination, arrival time
    and a label (protocols may set the ["msc.label"] message attribute;
    otherwise the payload size is shown); {!render} lays the entries
    out as a two-column ladder, or as "src -> dst" event lines for
    wider topologies.  It reads a storing trace after the run: the
    ladder is an export of the whole log. *)

type event = {
  time : Pfi_engine.Vtime.t;  (** transmission time *)
  arrival : Pfi_engine.Vtime.t option;  (** None when dropped *)
  src : string;
  dst : string;
  label : string;
}

val events : Pfi_engine.Trace.t -> event list
(** The [msc] entries of a storing trace ({!Pfi_engine.Trace.entries}),
    in send order. *)

val render : nodes:string list -> Format.formatter -> event list -> unit
(** Two nodes: a ladder with arrows; more: one line per event.  Labels
    are cut to 34 characters. *)
