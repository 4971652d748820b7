(** A trace export ([--trace-out], [msc --json]): a sink of JSONL lines
    ({!Json.add_entry}), one per trace entry, written as the entry is
    recorded, so no trace is kept for export.  A sink is an output
    channel, the tag its lines keep (none: every tag) and the labels
    each line carries after its ["t_us"]. *)

type t

val create : ?tag:string -> out_channel -> t

val label : (string * string) list -> t -> t
(** The same sink, these labels before its own. *)

val attach : t option -> Pfi_engine.Trace.t -> unit
(** Makes the sink, if any, a feed of the trace: attached in
    {!Campaign.exec}'s hook, before the trial is built, it sees the
    trial's entry #0. *)

val map :
  ?sim:int -> t option -> Executor.t -> (t option -> 'a -> 'b) -> 'a list -> 'b list
(** [Executor.map executor (f None) items] without a sink.  With one,
    item [i] writes to a sink labelled [sim] = [sim + i] (default 0),
    and the lines come in list order: at width 1 in one map, each
    straight to the channel; at width [w > 1] in windows of [w] items,
    one map each, all but a window's first item writing into buffers
    that the calling domain writes in order after the map.  So no two
    domains write the channel at once, and at most [w - 1] items' lines
    wait.  Every item runs; the first exception is re-raised last. *)
