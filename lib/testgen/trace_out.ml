open Pfi_engine

(* A waiting item's lines, in 64 KB chunks that are never copied again *)
type held = { mutable chunks : string list; last : Buffer.t }

type t = {
  oc : out_channel;
  tags : string list option;
  extra : (string * string) list;
  held : held option;  (** [None]: each line goes straight to [oc] *)
}

let create ?tag oc = { oc; tags = Option.map (fun tag -> [ tag ]) tag; extra = []; held = None }
let label extra t = { t with extra = extra @ t.extra }

let attach sink trace =
  match sink with
  | None -> ()
  | Some t ->
    let buf = match t.held with Some h -> h.last | None -> Buffer.create 256 in
    Trace.attach trace ~tags:t.tags (fun _ e ->
        Json.add_entry ~extra:t.extra buf e;
        match t.held with
        | None -> Buffer.output_buffer t.oc buf; Buffer.clear buf
        | Some h when Buffer.length buf >= 65_536 ->
          h.chunks <- Buffer.contents buf :: h.chunks;
          Buffer.clear buf
        | Some _ -> ())

let release oc h =
  List.iter (output_string oc) (List.rev h.chunks);
  Buffer.output_buffer oc h.last

let map ?(sim = 0) sink executor f items =
  match sink with
  | None -> Executor.map executor (f None) items
  | Some sink ->
    (* at width 1 one map runs every item in order, and none waits *)
    let width = executor.Executor.width in
    let n = if width <= 1 then max 1 (List.length items) else width in
    let slot i x =
      let held =
        if width > 1 && i mod n > 0 then Some { chunks = []; last = Buffer.create 256 } else None
      in
      (label [ ("sim", string_of_int (sim + i)) ] { sink with held }, x)
    in
    let slots = List.mapi slot items in
    List.init ((List.length items + n - 1) / n) (fun w ->
        List.filteri (fun i _ -> i / n = w) slots)
    |> List.concat_map (fun window ->
           let results = executor.Executor.try_map (fun (out, x) -> f (Some out) x) window in
           List.iter (fun (out, _) -> Option.iter (release sink.oc) out.held) window;
           results)
    |> List.map (function Ok v -> v | Error e -> raise e)
