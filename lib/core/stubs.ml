open Pfi_stack

type t = {
  protocol : string;
  msg_type : Message.t -> string;
  describe : Message.t -> string;
  get_field : Message.t -> string -> string option;
  set_field : Message.t -> string -> string -> bool;
  generate : (string * string) list -> Message.t option;
  fields : Message.t -> (string * string) list;
}

let raw =
  { protocol = "raw";
    msg_type = (fun _ -> "RAW");
    describe = (fun msg -> Printf.sprintf "raw[%dB] %s" (Message.length msg) (Message.hex msg));
    get_field = (fun _ _ -> None);
    set_field = (fun _ _ _ -> false);
    generate =
      (fun args ->
        match List.assoc_opt "data" args with
        | Some data -> Some (Message.of_string data)
        | None -> None);
    fields = (fun msg -> [ ("len", string_of_int (Message.length msg)) ]) }
