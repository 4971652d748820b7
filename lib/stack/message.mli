(** Messages travelling through a protocol stack.

    A message carries its current wire form as raw bytes: each layer
    pushes its header on the way down and strips it on the way up, in the
    x-Kernel style.  Attributes are out-of-band metadata (message type
    tags, trace annotations) that recognition stubs and filter scripts
    read and write; they never appear on the wire.  A message carries
    no identifier: nothing global is touched to make or copy one. *)

type t

val create : ?attrs:(string * string) list -> Bytes.t -> t
val of_string : string -> t

val payload : t -> Bytes.t
val set_payload : t -> Bytes.t -> unit
val length : t -> int
val to_string : t -> string

(** {1 Header manipulation} *)

val push_header : t -> Bytes.t -> unit
(** Prepends [header] to the payload. *)

val pop_header : t -> int -> Bytes.t
(** Removes and returns the first [n] bytes.
    Raises {!Bytes_codec.Truncated} if the message is shorter. *)

val peek : t -> int -> Bytes.t
(** First [n] bytes without removing them. *)

(** {1 Attributes} *)

val get_attr : t -> string -> string option

val find_attr : t -> string -> string
(** {!get_attr} without the option box, for per-message lookups.
    Raises [Not_found] if the attribute is absent. *)

val set_attr : t -> string -> string -> unit
val remove_attr : t -> string -> unit
val attrs : t -> (string * string) list

val with_attr : (string * string) list -> string * string -> (string * string) list
(** [with_attr attrs (key, value)] is the attribute list {!set_attr}
    would leave on a message carrying [attrs]: the pair itself in front
    of [attrs] without its previous binding of [key].  Lets a layer
    build a list once and hand it to {!create} for every copy it
    sends. *)

(** {1 Fault-injection helpers} *)

val copy : t -> t
(** Deep copy of the payload, sharing the attribute list — message
    duplication. *)

val corrupt_byte : t -> offset:int -> t
(** Flips all bits of one payload byte in place (returns the same
    message).  Out-of-range offsets are ignored. *)

val xor_byte : t -> offset:int -> mask:int -> t

val hex : ?max_bytes:int -> t -> string
(** Hex dump of the payload for logs. *)
