type t = {
  layer : Layer.t;
  mutable rev_received : Message.t list;
  mutable count : int;
  mutable on_receive : Message.t -> unit;
}

let create ~node () =
  let t_ref = ref None in
  let layer =
    Layer.create ~name:"driver" ~node
      { on_push = (fun layer msg -> Layer.send_down layer msg);
        on_pop =
          (fun _ msg ->
            match !t_ref with
            | Some t ->
              t.rev_received <- msg :: t.rev_received;
              t.count <- t.count + 1;
              t.on_receive msg
            | None -> ()) }
  in
  let t = { layer; rev_received = []; count = 0; on_receive = ignore } in
  t_ref := Some t;
  t

let layer t = t.layer
let send t msg = Layer.send_down t.layer msg
let send_string t s = send t (Message.of_string s)
let set_on_receive t fn = t.on_receive <- fn
let received t = List.rev t.rev_received
let received_count t = t.count

let clear_received t =
  t.rev_received <- [];
  t.count <- 0
