open Pfi_engine

type event = {
  time : Vtime.t;
  arrival : Vtime.t option;
  src : string;
  dst : string;
  label : string;
}

let parse_arrival = function
  | Some "-" | None -> None
  | Some us -> Option.map Vtime.us (int_of_string_opt us)

(* [Network.msc_record] stores a transmission's data as structured
   fields; its detail string is for human readers *)
let parse_entry (e : Trace.entry) =
  match List.assoc_opt "dst" e.Trace.fields with
  | Some dst when String.equal e.Trace.tag "msc" ->
    Some
      { time = e.Trace.time;
        arrival = parse_arrival (List.assoc_opt "arrival" e.Trace.fields);
        src = e.Trace.node;
        dst;
        label = Option.value (List.assoc_opt "label" e.Trace.fields) ~default:"" }
  | _ -> None

let events ?between trace =
  let all = List.filter_map parse_entry (Trace.entries trace) in
  (* delivered transmissions are recorded when they land, so the raw
     trace order is arrival order; the ladder reads in send order *)
  let all = List.stable_sort (fun a b -> Vtime.compare a.time b.time) all in
  match between with
  | None -> all
  | Some nodes ->
    List.filter (fun e -> List.mem e.src nodes && List.mem e.dst nodes) all

let truncate max s = if String.length s <= max then s else String.sub s 0 (max - 1) ^ "~"

let render ?(max_label = 34) ~nodes ppf evs =
  match nodes with
  | [ left; right ] ->
    let width = max_label + 8 in
    Format.fprintf ppf "%10s  %-*s@." "" width
      (Printf.sprintf "%s %s %s" left (String.make (width - String.length left - String.length right - 2) ' ') right);
    List.iter
      (fun e ->
        let label = truncate max_label e.label in
        let pad = width - String.length label - 6 in
        let lpad = max 0 (pad / 2) and rpad = max 0 (pad - (pad / 2)) in
        let dashes n = String.make (max 1 n) '-' in
        let line =
          if String.equal e.src left then
            match e.arrival with
            | Some _ ->
              Printf.sprintf "|%s %s %s>|" (dashes lpad) label (dashes rpad)
            | None -> Printf.sprintf "|%s %s %sX " (dashes lpad) label (dashes rpad)
          else
            match e.arrival with
            | Some _ ->
              Printf.sprintf "|<%s %s %s|" (dashes lpad) label (dashes rpad)
            | None -> Printf.sprintf " X%s %s %s|" (dashes lpad) label (dashes rpad)
        in
        Format.fprintf ppf "%10s  %s@." (Vtime.to_string e.time) line)
      evs
  | _ ->
    List.iter
      (fun e ->
        Format.fprintf ppf "%10s  %-10s %s %-10s  %s@." (Vtime.to_string e.time)
          e.src
          (match e.arrival with Some _ -> "->" | None -> "-X")
          e.dst (truncate max_label e.label))
      evs

let render_trace ?between trace ppf () =
  let evs = events ?between trace in
  let nodes =
    match between with
    | Some nodes -> nodes
    | None ->
      List.sort_uniq compare
        (List.concat_map (fun e -> [ e.src; e.dst ]) evs)
  in
  render ~nodes ppf evs
