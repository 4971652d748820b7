(** Protocol specifications for automatic test-script generation.

    The paper's future work includes "automatic generation of test
    scripts from a protocol specification".  A {!t} is the minimal
    specification that generation needs: the protocol's stub name, its
    message vocabulary, and which messages are {e stateless} (can be
    fabricated by the PFI layer — a spurious ACK — as opposed to
    stateful data that only the driver can create). *)

type message = {
  mtype : string;  (** symbolic type, as the packet stub reports it *)
  stateless : bool;  (** generable by the PFI layer *)
  gen_args : (string * string) list;
      (** [msg_gen] arguments that fabricate a plausible instance
          (ignored unless [stateless]) *)
}

type t = {
  protocol : string;  (** registered stub name *)
  messages : message list;
}

val message :
  ?stateless:bool -> ?gen_args:(string * string) list -> string -> message

val message_types : t -> string list

val find_message : t -> string -> message option

val abp : t
(** Specification of {!Pfi_abp.Abp}: MSG (stateful), ACK (stateless). *)

val tcp : t
(** Specification of the TCP stub: SYN, SYN-ACK, ACK (stateless), DATA,
    FIN, RST. *)

val gmp : t
(** Specification of the GMP stub's vocabulary. *)
