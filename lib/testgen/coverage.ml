open Pfi_engine

let map_bits = 65536

let bucket_of_string s = Int64.to_int (Rng.fnv1a64 s) land (map_bits - 1)

(* AFL-style log2 classes: exact for 0..3, then powers of two, capped. *)
let hit_class n =
  if n <= 3 then n
  else if n < 8 then 4
  else if n < 16 then 5
  else if n < 32 then 6
  else if n < 64 then 7
  else if n < 128 then 8
  else 9

type features = int list (* sorted ascending, distinct *)

let cardinality = List.length
let feature_list fs = fs

type scratch = { cs_seen : (string, unit) Hashtbl.t }

let scratch () = { cs_seen = Hashtbl.create 16 }

let features_of_trace ?scratch:sc ?(states = []) trace =
  (* (node, tag) presence and hit-count classes, straight from the
     trace's per-pair counts: no entry is read *)
  let strings =
    Trace.fold_pairs
      (fun ~node ~tag n acc ->
        let key = node ^ "\x00" ^ tag in
        ("nt:" ^ key) :: Printf.sprintf "hc:%s:%d" key (hit_class n) :: acc)
      trace []
  in
  (* protocol-state labels and consecutive transitions.  [Hashtbl.clear]
     (not [reset]) keeps a scratch's grown bucket array. *)
  let seen_state =
    match sc with
    | Some s ->
        Hashtbl.clear s.cs_seen;
        s.cs_seen
    | None -> Hashtbl.create 16
  in
  let strings =
    List.fold_left
      (fun acc lbl ->
        if Hashtbl.mem seen_state lbl then acc
        else begin
          Hashtbl.add seen_state lbl ();
          ("st:" ^ lbl) :: acc
        end)
      strings states
  in
  let rec transitions acc = function
    | a :: (b :: _ as rest) -> transitions (("tr:" ^ a ^ "=>" ^ b) :: acc) rest
    | _ -> acc
  in
  List.sort_uniq compare (List.rev_map bucket_of_string (transitions strings states))

type t = Bytes.t

let create () = Bytes.make (map_bits / 8) '\000'

let merge t fs =
  List.fold_left
    (fun fresh idx ->
      let byte = idx lsr 3 and bit = 1 lsl (idx land 7) in
      let v = Char.code (Bytes.get t byte) in
      if v land bit = 0 then begin
        Bytes.set t byte (Char.chr (v lor bit));
        fresh + 1
      end
      else fresh)
    0 fs

let count t =
  let n = ref 0 in
  Bytes.iter
    (fun c ->
      let v = ref (Char.code c) in
      while !v <> 0 do
        n := !n + (!v land 1);
        v := !v lsr 1
      done)
    t;
  !n
