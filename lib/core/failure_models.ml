open Pfi_engine

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

(* Numbers print with %.17g, which the filter commands read back as the
   same float. *)
let drop_from at =
  Printf.sprintf "if {[now_us] >= %Ld} { xDrop cur_msg }\n" (Vtime.to_us at)

let drop_on p = Printf.sprintf "if {[chance %.17g]} { xDrop cur_msg }\n" p

let delay_normal mean std =
  Printf.sprintf "xDelay cur_msg [expr {max(0, [dst_normal %.17g %.17g])}]\n" mean std

(* the model's send and receive filter text, "" where it adds none *)
let scripts = function
  | Process_crash { at } -> (drop_from at, drop_from at)
  | Link_crash { at } -> (drop_from at, "")
  | Send_omission { p } -> (drop_on p, "")
  | Receive_omission { p } -> ("", drop_on p)
  | General_omission { p_send; p_recv } -> (drop_on p_send, drop_on p_recv)
  | Timing { mean; std } -> (delay_normal mean std, delay_normal mean std)
  | Byzantine { corrupt_p; reorder_p; duplicate_p } ->
    ( Printf.sprintf
        "if {[chance %.17g]} { xCorrupt cur_msg }\n\
         if {[chance %.17g]} { xDup cur_msg }\n\
         if {[chance %.17g]} { xDelay cur_msg [dst_uniform 0 0.05] }\n"
        corrupt_p duplicate_p reorder_p,
      "" )

let apply pfi models =
  let sends, recvs = List.split (List.map scripts models) in
  let install set clear = function "" -> clear pfi | src -> set pfi src in
  install Pfi_layer.set_send_filter Pfi_layer.clear_send_filter (String.concat "" sends);
  install Pfi_layer.set_receive_filter Pfi_layer.clear_receive_filter
    (String.concat "" recvs)
