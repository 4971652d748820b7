open Pfi_engine
open Pfi_stack

type t =
  | Process_crash of { at : Vtime.t }
  | Link_crash of { at : Vtime.t }
  | Send_omission of { p : float }
  | Receive_omission of { p : float }
  | General_omission of { p_send : float; p_recv : float }
  | Timing of { mean : float; std : float }
  | Byzantine of { corrupt_p : float; reorder_p : float; duplicate_p : float }

let severity = function
  | Process_crash _ -> 0
  | Link_crash _ -> 1
  | Send_omission _ -> 2
  | Receive_omission _ -> 3
  | General_omission _ -> 4
  | Timing _ -> 5
  | Byzantine _ -> 6

let more_severe a b = severity a > severity b

let describe = function
  | Process_crash { at } -> Printf.sprintf "process crash at %s" (Vtime.to_string at)
  | Link_crash { at } -> Printf.sprintf "link crash at %s" (Vtime.to_string at)
  | Send_omission { p } -> Printf.sprintf "send omission p=%.2f" p
  | Receive_omission { p } -> Printf.sprintf "receive omission p=%.2f" p
  | General_omission { p_send; p_recv } ->
    Printf.sprintf "general omission p_send=%.2f p_recv=%.2f" p_send p_recv
  | Timing { mean; std } ->
    Printf.sprintf "timing failure delay~N(%.2fs, %.2fs)" mean std
  | Byzantine { corrupt_p; reorder_p; duplicate_p } ->
    Printf.sprintf "byzantine corrupt=%.2f reorder=%.2f duplicate=%.2f" corrupt_p
      reorder_p duplicate_p

let apply pfi model =
  let sim = Pfi_layer.sim pfi in
  let rng = Rng.split (Sim.rng sim) in
  match model with
  | Process_crash { at } ->
    let crashed () = Vtime.(Sim.now sim >= at) in
    let filter _msg : Pfi_layer.native_action = if crashed () then Drop else Pass in
    Pfi_layer.add_native_send pfi filter;
    Pfi_layer.add_native_receive pfi filter
  | Link_crash { at } ->
    let filter _msg : Pfi_layer.native_action =
      if Vtime.(Sim.now sim >= at) then Drop else Pass
    in
    Pfi_layer.add_native_send pfi filter
  | Send_omission { p } ->
    Pfi_layer.add_native_send pfi (fun _ ->
        if Rng.bernoulli rng ~p then Pfi_layer.Drop else Pfi_layer.Pass)
  | Receive_omission { p } ->
    Pfi_layer.add_native_receive pfi (fun _ ->
        if Rng.bernoulli rng ~p then Pfi_layer.Drop else Pfi_layer.Pass)
  | General_omission { p_send; p_recv } ->
    Pfi_layer.add_native_send pfi (fun _ ->
        if Rng.bernoulli rng ~p:p_send then Pfi_layer.Drop else Pfi_layer.Pass);
    Pfi_layer.add_native_receive pfi (fun _ ->
        if Rng.bernoulli rng ~p:p_recv then Pfi_layer.Drop else Pfi_layer.Pass)
  | Timing { mean; std } ->
    let delayed () =
      let d = Rng.normal rng ~mean ~std in
      Vtime.of_sec_f (Float.max 0.0 d)
    in
    Pfi_layer.add_native_send pfi (fun _ -> Pfi_layer.Delay (delayed ()));
    Pfi_layer.add_native_receive pfi (fun _ -> Pfi_layer.Delay (delayed ()))
  | Byzantine { corrupt_p; reorder_p; duplicate_p } ->
    Pfi_layer.add_native_send pfi (fun msg ->
        if Rng.bernoulli rng ~p:corrupt_p && Message.length msg > 0 then
          ignore
            (Message.corrupt_byte msg ~offset:(Rng.int rng (Message.length msg)));
        if Rng.bernoulli rng ~p:duplicate_p then
          Pfi_layer.inject_down pfi (Message.copy msg);
        if Rng.bernoulli rng ~p:reorder_p then
          (* push the message behind its successors *)
          Pfi_layer.Delay (Vtime.of_sec_f (Rng.float rng 0.05))
        else Pfi_layer.Pass)
