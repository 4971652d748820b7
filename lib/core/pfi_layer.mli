(** The probe/fault-injection layer.

    A PFI layer is spliced between two layers of a protocol stack
    ({!Pfi_stack.Layer.insert_below} the target).  Each message pushed
    down through it runs the {e send filter}; each message popped up
    through it runs the {e receive filter}.  Filters are scripts
    evaluated in persistent interpreters (state survives across
    messages), and may:

    - {b filter}: inspect type/fields via the packet stub;
    - {b manipulate}: drop, delay, reorder (hold/release), duplicate or
      modify the current message;
    - {b inject}: generate fresh (stateless) packets and introduce them
      in either direction.

    The send and receive interpreters can read and write each other's
    variables, layers on different nodes can be {!connect}ed for direct
    cross-node script communication, and all layers of an experiment
    share a {!Blackboard} for global synchronisation. *)

open Pfi_engine
open Pfi_stack

type t

val create :
  sim:Sim.t ->
  node:string ->
  ?stub:Stubs.t ->
  ?blackboard:Blackboard.t ->
  unit ->
  t
(** A fresh PFI layer, named ["pfi"], with empty filters (everything
    passes).  [stub] defaults to {!Stubs.raw}; a private blackboard is
    created unless one is shared in. *)

val layer : t -> Layer.t
val sim : t -> Sim.t
val blackboard : t -> Blackboard.t

val connect : t list -> unit
(** Makes the given layers visible to each other's scripts by node name
    ([node_set]/[node_get] commands). *)

(** {1 Filter scripts}

    Scripts are compiled once on installation.  Available commands
    (beyond the {!Pfi_script.Builtins} standard library):

    - inspection: [msg_type h], [msg_len h], [msg_hex h], [msg_data h],
      [msg_field h f], [msg_attr h k], [msg_log h ?tag?]
    - modification: [msg_set_field h f v], [msg_set_attr h k v],
      [xCorrupt h ?offset?]
    - verdicts on [cur_msg]: [xDrop], [xDelay h seconds], [xHold h q],
      [xDup h ?count?]; default is to pass
    - reordering: [xRelease ?-reverse? q], [xHeldCount q]
    - generation/injection: [msg_gen k v ...], [msg_copy h],
      [inject_down h ?delay?], [inject_up h ?delay?]
    - time: [now], [now_us], [timer_set name seconds script],
      [timer_cancel name]
    - state sharing: [peer_set]/[peer_get] (other interpreter, same
      node), [node_set]/[node_get] (connected peer nodes),
      [bb_set]/[bb_get]/[bb_incr] (experiment blackboard)
    - probability: [dst_normal mean std], [dst_uniform lo hi],
      [dst_exponential mean], [chance p]
    - logging: [log tag detail...]

    The globals [direction] ("send"/"receive") and [pfi_node] are
    pre-set in each interpreter. *)

val set_send_filter : t -> string -> unit
val set_receive_filter : t -> string -> unit

val set_send_filter_compiled : t -> Pfi_script.Ast.script -> unit
val set_receive_filter_compiled : t -> Pfi_script.Ast.script -> unit
(** Install an already-compiled filter, skipping the parse — campaign
    trials compile each fault script once ({!Pfi_script.Interp.compile})
    and share the code, with the nested parts it compiles as it runs,
    across every trial that uses the fault. *)

val clear_send_filter : t -> unit
val clear_receive_filter : t -> unit
(** Remove the direction's filter: from then on its messages pass.
    Interpreter state and hold queues survive. *)

val eval_in : t -> [ `Send | `Receive ] -> string -> string
(** Evaluates a script in one of the filter interpreters outside any
    message context — for test setup ("set dropping 1"), probing, and
    the host's own actions through the same commands a filter has:
    [inject_down]/[inject_up] a [msg_gen] handle, [xRelease] or
    [xHeldCount] a hold queue. *)

(** {1 Statistics} *)

type stats = {
  mutable passed : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable held : int;
  mutable injected : int;
  mutable modified : int;
  mutable dup_orphans : int;
      (** Copies requested by [xDup] whose original was then dropped by
          the same filter pass.  The copies still travel (that is the
          point of duplication under fault injection), but they are
          counted separately so experiments can tell "duplicate of a
          delivered message" from "copy that outlived its original". *)
}

val send_stats : t -> stats
val receive_stats : t -> stats
val total_filtered : t -> int

(** {1 Structured observability}

    Opt-in trace instrumentation on top of the per-direction counters.
    Both emitters attach typed key/value [fields] to the trace entries
    they record, so JSONL trace exports are machine-readable without
    re-parsing detail strings. *)

val set_trace_verdicts : t -> bool -> unit
(** When enabled, every filtered message records a trace entry with tag
    ["pfi.verdict"] and fields [dir], [verdict] (pass/drop/delay/hold),
    [type], [len], [dups] (when non-zero), plus the packet stub's own
    fields.  Off by default: per-message tracing is measurable overhead
    on large campaigns. *)

val record_stats_snapshot : t -> unit
(** Records a trace entry with tag ["pfi.stats"] carrying every counter
    of both directions as fields ([send.passed], [recv.dropped], ...).
    Call at checkpoints or at the end of a run to embed the layer's
    final accounting in the exported trace. *)
