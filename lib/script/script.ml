let create () =
  let t = Interp.create () in
  Builtins.install t;
  t

let eval = Interp.eval

let eval_capture t src =
  let buf = Buffer.create 64 in
  let saved = Interp.get_output t in
  Interp.set_output t (Buffer.add_string buf);
  let restore () = Interp.set_output t saved in
  match Interp.eval t src with
  | result -> restore (); (result, Buffer.contents buf)
  | exception e -> restore (); raise e
