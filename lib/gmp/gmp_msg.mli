(** GMP protocol messages and their wire codec.

    The strong group membership protocol exchanges seven message types
    (plus the death report used by failure detection).  [origin] is the
    node the message is {e about} or originally {e from} — it survives
    forwarding, which is exactly the distinction the proclaim-forwarding
    bug (Table 7) confuses with [sender]. *)

type mtype =
  | Heartbeat
  | Proclaim
  | Join
  | Membership_change
  | Mc_ack
  | Mc_nak
  | Commit
  | Dead

type t = {
  mtype : mtype;
  origin : int;  (** originator id (survives forwarding) *)
  sender : int;  (** transport-level sender id (rewritten when forwarding) *)
  group_id : int;  (** proposed or current group incarnation *)
  subject : int;  (** the dead member for {!Dead}; 0 otherwise *)
  members : int list;  (** proposed/committed member ids; joiner's set for {!Join} *)
}

val make :
  mtype:mtype -> origin:int -> sender:int -> ?group_id:int -> ?subject:int ->
  ?members:int list -> unit -> t

val mtype_to_string : mtype -> string
val mtype_of_string : string -> mtype option

val mtype_code : mtype -> int
val mtype_of_code : int -> mtype option
(** The wire type-code byte (the first byte of an encoded message) —
    for classifiers that inspect packets without a full {!decode}. *)

val encode : t -> Bytes.t
val decode : Bytes.t -> (t, string) result

val of_message : Pfi_stack.Message.t -> (t, string) result

val describe : t -> string
