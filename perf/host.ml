(* Host and build facts recorded with every run, so numbers from two
   machines (or two build profiles) are never compared unknowingly. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec loop acc =
      match input_line ic with
      | line -> loop (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    loop []

(* "Key:   value" fields of /proc/self/status *)
let status_field key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on, from the affinity list ("0-1,4"),
   which is what [nproc] prints; falls back to the runtime's count *)
let nproc () =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a ] -> ignore (int_of_string a); 1
    | [ a; b ] -> int_of_string b - int_of_string a + 1
    | _ -> 0
  in
  match status_field "Cpus_allowed_list" with
  | Some l -> (
    try List.fold_left (fun n r -> n + count_range r) 0 (String.split_on_char ',' l)
    with Failure _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* peak resident set (VmHWM) in MB; the major heap's peak where /proc
   is unavailable *)
let max_rss_mb () =
  let from_proc =
    Option.bind (status_field "VmHWM") (fun v ->
        match String.split_on_char ' ' v with
        | kb :: _ -> Option.map (fun kb -> float_of_int kb /. 1024.) (int_of_string_opt kb)
        | [] -> None)
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1_048_576.

(* A fixed CPU loop (an LCG folded into an accumulator), timed.  It does
   the same work on every run, so its time tracks the host's own drift:
   compare it before blaming a commit for a slowdown. *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 50_000_000 do
    x := (!x * 1103515245) + 12345;
    acc := !acc lxor (!x lsr 16)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt

let facts () =
  [ ("ocaml", Sys.ocaml_version);
    ("profile", Build_info.profile);
    ("nproc", string_of_int (nproc ()));
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("calibration_s", Printf.sprintf "%.4f" (calibrate ())) ]
