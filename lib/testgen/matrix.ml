(* Scenario-matrix specs (.pfim) and their expansion into .pfis
   corpora.  The expander assembles each scenario as scenario-language
   source text, parses it with Scenario.parse (remapping error lines
   back to the matrix spec), then canonicalizes through
   Scenario.to_string and re-parses — generation is a print→parse
   round trip over the same AST, so a generated corpus is exactly as
   checkable as a hand-written one. *)

let err ~line ~token reason = Scenario.parse_error ~line ~token reason

(* ------------------------------------------------------------------ *)
(* Spec types                                                         *)
(* ------------------------------------------------------------------ *)

type group = {
  g_line : int;
  g_name : string;
  g_harnesses : string list;
  g_sides : string list;
  g_profiles : string list;  (* vendor-profile axis; [] = no directive *)
  g_phases : string list;  (* workload-phase axis; [] = no directive *)
  g_seed : int64 option;
  g_horizon : string option;
  g_faults : (int * string list) list;
  g_templates : (int * string list) list;
  g_xfail : string option;
}

type t = {
  m_name : string;
  m_seed : int64;
  m_groups : group list;
}

let default_seed = 31L
let max_sweep_values = 1000
let max_scenarios = 10_000
let sides = [ "send"; "receive"; "both" ]

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

(* mutable accumulator for the group being read *)
type builder = {
  b_line : int;
  b_name : string;
  mutable b_harnesses : string list;  (* reversed *)
  mutable b_sides : string list;  (* reversed *)
  mutable b_profiles : string list;  (* reversed *)
  mutable b_phases : string list;  (* reversed *)
  mutable b_seed : int64 option;
  mutable b_horizon : string option;
  mutable b_faults : (int * string list) list;  (* reversed *)
  mutable b_templates : (int * string list) list;  (* reversed *)
  mutable b_xfail : string option;
}

let parse src =
  let m_name = ref None in
  let m_seed = ref None in
  let groups = ref [] in  (* reversed *)
  let cur = ref None in
  let parse_seed ~line = function
    | [ s ] ->
      (match Int64.of_string_opt s with
       | Some v -> v
       | None -> err ~line ~token:s "expected a 64-bit integer seed")
    | _ -> err ~line ~token:"seed" "usage: seed N"
  in
  let handle_top line = function
    | [] -> ()
    | "matrix" :: rest ->
      if rest = [] then err ~line ~token:"matrix" "missing matrix name";
      if !m_name <> None then
        err ~line ~token:"matrix" "duplicate matrix directive";
      m_name := Some (String.concat " " rest)
    | "seed" :: rest ->
      if !m_seed <> None then
        err ~line ~token:"seed" "duplicate matrix seed directive";
      m_seed := Some (parse_seed ~line rest)
    | "group" :: rest ->
      let name =
        match rest with
        | [ n ] -> n
        | _ -> err ~line ~token:"group" "usage: group NAME (a single token)"
      in
      if List.exists (fun g -> g.g_name = name) !groups then
        err ~line ~token:name "duplicate group name";
      cur :=
        Some
          { b_line = line;
            b_name = name;
            b_harnesses = [];
            b_sides = [];
            b_profiles = [];
            b_phases = [];
            b_seed = None;
            b_horizon = None;
            b_faults = [];
            b_templates = [];
            b_xfail = None }
    | "end" :: _ -> err ~line ~token:"end" "end outside a group"
    | tok :: _ ->
      err ~line ~token:tok
        "unknown matrix directive (expected matrix, seed or group)"
  in
  let handle_group line b = function
    | [] -> ()
    | "harness" :: hs ->
      if hs = [] then err ~line ~token:"harness" "usage: harness NAME...";
      List.iter
        (fun h ->
          if Registry.find h = None then
            err ~line ~token:h
              (Printf.sprintf "unknown harness (expected one of %s)"
                 (String.concat ", " Registry.names));
          if List.mem h b.b_harnesses then
            err ~line ~token:h "duplicate harness in the group";
          b.b_harnesses <- h :: b.b_harnesses)
        hs
    | "side" :: ss ->
      if ss = [] then err ~line ~token:"side" "usage: side send|receive|both...";
      List.iter
        (fun s ->
          if not (List.mem s sides) then
            err ~line ~token:s "side must be send, receive or both";
          if List.mem s b.b_sides then
            err ~line ~token:s "duplicate side in the group";
          b.b_sides <- s :: b.b_sides)
        ss
    | "profile" :: ps ->
      if ps = [] then err ~line ~token:"profile" "usage: profile VENDOR...";
      List.iter
        (fun p ->
          match Pfi_tcp.Profile.find p with
          | None ->
            err ~line ~token:p
              (Printf.sprintf "unknown vendor profile (expected one of %s)"
                 (String.concat ", "
                    (List.map Pfi_tcp.Profile.slug
                       (Pfi_tcp.Profile.xkernel :: Pfi_tcp.Profile.all_vendors))))
          | Some prof ->
            let slug = Pfi_tcp.Profile.slug prof in
            if List.mem slug b.b_profiles then
              err ~line ~token:p "duplicate profile in the group";
            b.b_profiles <- slug :: b.b_profiles)
        ps
    | "phase" :: ps ->
      if ps = [] then
        err ~line ~token:"phase" "usage: phase handshake|stream|close...";
      List.iter
        (fun p ->
          match Tcp_harness.phase_of_string p with
          | None ->
            err ~line ~token:p
              "unknown phase (expected handshake, stream or close)"
          | Some ph ->
            let name = Tcp_harness.phase_name ph in
            if List.mem name b.b_phases then
              err ~line ~token:p "duplicate phase in the group";
            b.b_phases <- name :: b.b_phases)
        ps
    | "seed" :: rest ->
      if b.b_seed <> None then
        err ~line ~token:"seed" "duplicate group seed directive";
      b.b_seed <- Some (parse_seed ~line rest)
    | "horizon" :: rest ->
      (match rest with
       | [ d ] ->
         if b.b_horizon <> None then
           err ~line ~token:"horizon" "duplicate horizon directive";
         ignore (Scenario.duration_of_token ~line d);
         b.b_horizon <- Some d
       | _ -> err ~line ~token:"horizon" "usage: horizon DURATION")
    | "xfail" :: rest ->
      if rest = [] then
        err ~line ~token:"xfail"
          "usage: xfail SUBSTRING (of the expected diagnostic)";
      if b.b_xfail <> None then
        err ~line ~token:"xfail" "duplicate xfail directive";
      b.b_xfail <- Some (String.concat " " rest)
    | "fault" :: rest ->
      if rest = [] then err ~line ~token:"fault" "missing fault specification";
      (match rest with
       | s :: _ when List.mem s sides ->
         err ~line ~token:s
           "fault alternatives must not name a side — the group's side \
            directive is the side axis"
       | _ -> ());
      b.b_faults <- (line, rest) :: b.b_faults
    | "group" :: _ -> err ~line ~token:"group" "groups cannot nest"
    | "end" :: _ ->
      if b.b_harnesses = [] then
        err ~line ~token:"end"
          (Printf.sprintf "group %s declares no harness" b.b_name);
      groups :=
        { g_line = b.b_line;
          g_name = b.b_name;
          g_harnesses = List.rev b.b_harnesses;
          g_sides =
            (match List.rev b.b_sides with [] -> [ "both" ] | ss -> ss);
          g_profiles = List.rev b.b_profiles;
          g_phases = List.rev b.b_phases;
          g_seed = b.b_seed;
          g_horizon = b.b_horizon;
          g_faults = List.rev b.b_faults;
          g_templates = List.rev b.b_templates;
          g_xfail = b.b_xfail }
        :: !groups;
      cur := None
    | ("expect" :: _ | "inject" :: _) as toks ->
      (match toks with
       | "inject" :: _ ->
         err ~line ~token:"inject"
           "inject templates need an @TIME (or @sweep RANGE) prefix"
       | _ -> ());
      b.b_templates <- (line, toks) :: b.b_templates
    | (tok :: _) as toks when tok.[0] = '@' ->
      b.b_templates <- (line, toks) :: b.b_templates
    | tok :: _ ->
      err ~line ~token:tok
        "unknown group directive (expected harness, side, profile, phase, \
         seed, horizon, fault, xfail, an @T/expect template, or end)"
  in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i l ->
      let line = i + 1 in
      let toks = Scenario.tokens_of_line l in
      match !cur with
      | None -> handle_top line toks
      | Some b -> handle_group line b toks)
    lines;
  let last = List.length lines in
  (match !cur with
   | Some b ->
     err ~line:last ~token:"end"
       (Printf.sprintf "group %s is never closed (missing end)" b.b_name)
   | None -> ());
  let m_name =
    match !m_name with
    | Some n -> n
    | None -> err ~line:last ~token:"matrix" "missing matrix NAME directive"
  in
  if !groups = [] then
    err ~line:last ~token:"group" "matrix declares no groups";
  { m_name;
    m_seed = Option.value !m_seed ~default:default_seed;
    m_groups = List.rev !groups }

let load path = parse (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Sweeps                                                             *)
(* ------------------------------------------------------------------ *)

(* "LO..HI" or "LO..HI/STEP" over ints (default step 1), durations or
   floats (both require an explicit /STEP) *)
let sweep_values ~line tok =
  let bad reason = err ~line ~token:tok reason in
  let dots =
    let n = String.length tok in
    let rec find i =
      if i + 1 >= n then None
      else if tok.[i] = '.' && tok.[i + 1] = '.' then Some i
      else find (i + 1)
    in
    find 0
  in
  let lo_s, rest =
    match dots with
    | Some i ->
      (String.sub tok 0 i, String.sub tok (i + 2) (String.length tok - i - 2))
    | None -> bad "expected a LO..HI or LO..HI/STEP sweep range"
  in
  let hi_s, step_s =
    match String.index_opt rest '/' with
    | Some j ->
      ( String.sub rest 0 j,
        Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
    | None -> (rest, None)
  in
  if lo_s = "" || hi_s = "" then bad "empty sweep bound";
  let guard_count count =
    if count > max_sweep_values then
      bad
        (Printf.sprintf "sweep expands to %d values (limit %d)" count
           max_sweep_values)
  in
  let is_int s = int_of_string_opt s <> None in
  let is_float s = float_of_string_opt s <> None in
  if is_int lo_s && is_int hi_s
     && (match step_s with None -> true | Some s -> is_int s)
  then begin
    let lo = int_of_string lo_s and hi = int_of_string hi_s in
    let step =
      match step_s with Some s -> int_of_string s | None -> 1
    in
    if step < 1 then bad "sweep step must be at least 1";
    if lo > hi then bad "sweep range is empty (LO > HI)";
    guard_count (((hi - lo) / step) + 1);
    let rec go v acc = if v > hi then List.rev acc
      else go (v + step) (string_of_int v :: acc)
    in
    go lo []
  end
  else if is_float lo_s && is_float hi_s
          && (match step_s with None -> true | Some s -> is_float s)
  then begin
    let lo = float_of_string lo_s and hi = float_of_string hi_s in
    let step =
      match step_s with
      | Some s -> float_of_string s
      | None -> bad "a float sweep needs an explicit /STEP"
    in
    if step <= 0.0 then bad "sweep step must be positive";
    if lo > hi then bad "sweep range is empty (LO > HI)";
    (* values are snapped to nanobit grid so repeated addition cannot
       drift across platforms *)
    let snap v = Float.round (v *. 1e9) /. 1e9 in
    let rec go k acc =
      let v = snap (lo +. (float_of_int k *. step)) in
      if v > hi +. (step *. 1e-9) then List.rev acc
      else begin
        guard_count (k + 1);
        go (k + 1) (Generator.float_to_string v :: acc)
      end
    in
    go 0 []
  end
  else begin
    let dur s = Scenario.duration_of_token ~line s in
    let lo = dur lo_s and hi = dur hi_s in
    let step =
      match step_s with
      | Some s -> dur s
      | None -> bad "a duration sweep needs an explicit /STEP"
    in
    let open Pfi_engine in
    if Vtime.(step <= Vtime.zero) then bad "sweep step must be positive";
    if Vtime.(lo > hi) then bad "sweep range is empty (LO > HI)";
    let rec go v k acc =
      if Vtime.(v > hi) then List.rev acc
      else begin
        guard_count (k + 1);
        go (Vtime.add v step) (k + 1) (Scenario.duration_to_string v :: acc)
      end
    in
    go lo 0 []
  end

(* expands every [sweep]/[@sweep]/[@+sweep] in a token list; returns
   (concrete tokens, swept values chosen) per alternative, leftmost
   sweep slowest *)
let expand_sweeps ~line toks =
  let rec go = function
    | [] -> [ ([], []) ]
    | kw :: rest when kw = "sweep" || kw = "@sweep" || kw = "@+sweep" ->
      (match rest with
       | [] -> err ~line ~token:kw "sweep needs a LO..HI[/STEP] range token"
       | range :: rest ->
         let prefix =
           if kw = "@sweep" then "@" else if kw = "@+sweep" then "@+" else ""
         in
         let vals = sweep_values ~line range in
         let tails = go rest in
         List.concat_map
           (fun v ->
             List.map (fun (ts, vs) -> ((prefix ^ v) :: ts, v :: vs)) tails)
           vals)
    | tok :: rest ->
      List.map (fun (ts, vs) -> (tok :: ts, vs)) (go rest)
  in
  go toks

(* ------------------------------------------------------------------ *)
(* Seeds and names                                                    *)
(* ------------------------------------------------------------------ *)

(* positive 63-bit seed derived from the matrix seed and the scenario
   name — stable across runs, distinct across the corpus: the first
   draw of a generator seeded with both *)
let derive_seed base name =
  let open Pfi_engine in
  Int64.shift_right_logical
    (Rng.bits64 (Rng.create ~seed:(Int64.logxor base (Rng.fnv1a64 name))))
    1

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    s

let file_of_name index name =
  let slug = sanitize (String.map (fun c -> if c = '/' then '-' else c) name) in
  let slug =
    if String.length slug > 60 then String.sub slug 0 60 else slug
  in
  Printf.sprintf "%03d-%s.pfis" index slug

(* ------------------------------------------------------------------ *)
(* Expansion                                                          *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_index : int;
  e_file : string;
  e_name : string;
  e_group : string;
  e_harness : string;
  e_seed : int64;
  e_expected : string;
  e_scenario : Scenario.t;
  e_text : string;
}

(* parse assembled scenario text, remapping error lines back to the
   matrix spec through [origins] (one matrix line per source line) *)
let parse_mapped ~origins src =
  try Scenario.parse src
  with Scenario.Parse_error e ->
    let mline =
      if e.Scenario.err_line >= 1 && e.Scenario.err_line <= Array.length origins
      then origins.(e.Scenario.err_line - 1)
      else 0
    in
    raise (Scenario.Parse_error { e with Scenario.err_line = mline })

(* cartesian product over per-line alternatives; caller guards the
   product size before this materializes it *)
let rec line_combos = function
  | [] -> [ [] ]
  | (line, alts) :: rest ->
    let tails = line_combos rest in
    List.concat_map
      (fun (ts, vs) -> List.map (fun t -> (line, ts, vs) :: t) tails)
      alts

let expand ?limit m =
  let seen = Hashtbl.create 64 in
  let entries = ref [] in
  let index = ref 0 in
  List.iter
    (fun g ->
      let fault_alts =
        match g.g_faults with
        | [] -> [ None ]
        | fs ->
          List.concat_map
            (fun (line, toks) ->
              List.map
                (fun (ts, _) -> Some (line, ts))
                (expand_sweeps ~line toks))
            fs
      in
      let template_alts =
        List.map
          (fun (line, toks) -> (line, expand_sweeps ~line toks))
          g.g_templates
      in
      let combo_count =
        List.fold_left
          (fun acc (_, alts) ->
            let n = acc * List.length alts in
            if n > max_scenarios then
              err ~line:g.g_line ~token:g.g_name
                (Printf.sprintf
                   "group expands to more than %d scenarios" max_scenarios);
            n)
          1 template_alts
      in
      let profile_alts =
        match g.g_profiles with [] -> [ None ] | ps -> List.map Option.some ps
      in
      let phase_alts =
        match g.g_phases with [] -> [ None ] | ps -> List.map Option.some ps
      in
      let group_count =
        List.length g.g_harnesses * List.length g.g_sides
        * List.length profile_alts * List.length phase_alts
        * List.length fault_alts * combo_count
      in
      if !index + group_count > max_scenarios then
        err ~line:g.g_line ~token:g.g_name
          (Printf.sprintf "matrix expands to more than %d scenarios"
             max_scenarios);
      let combos = line_combos template_alts in
      List.iter
        (fun h ->
          List.iter
            (fun side ->
             List.iter
              (fun palt ->
               List.iter
                (fun phalt ->
                  List.iter
                    (fun falt ->
                  List.iter
                    (fun combo ->
                      incr index;
                      let fault_slug =
                        match falt with
                        | None -> "baseline"
                        | Some (_, ts) -> sanitize (String.concat "-" ts)
                      in
                      let tvals =
                        List.concat_map (fun (_, _, vs) -> vs) combo
                      in
                      let name =
                        String.concat "/"
                          ([ g.g_name; h; side ]
                          @ (match palt with None -> [] | Some p -> [ p ])
                          @ (match phalt with None -> [] | Some p -> [ p ])
                          @ [ fault_slug ])
                        ^ (match tvals with
                           | [] -> ""
                           | vs -> "@" ^ String.concat "," vs)
                      in
                      (match Hashtbl.find_opt seen name with
                       | Some _ ->
                         err ~line:g.g_line ~token:name
                           "duplicate generated scenario name (adjust the \
                            fault axes or sweeps)"
                       | None -> Hashtbl.add seen name ());
                      let seed =
                        match g.g_seed with
                        | Some s -> s
                        | None -> derive_seed m.m_seed name
                      in
                      let src_lines =
                        [ ("name " ^ name, g.g_line);
                          ("run " ^ h, g.g_line) ]
                        @ (match palt with
                           | Some p -> [ ("profile " ^ p, g.g_line) ]
                           | None -> [])
                        @ (match phalt with
                           | Some p -> [ ("phase " ^ p, g.g_line) ]
                           | None -> [])
                        @ [ (Printf.sprintf "seed %Ld" seed, g.g_line) ]
                        @ (match g.g_horizon with
                           | Some d -> [ ("horizon " ^ d, g.g_line) ]
                           | None -> [])
                        @ (match falt with
                           | None -> []
                           | Some (line, ts) ->
                             [ ( "fault " ^ side ^ " "
                                 ^ String.concat " " ts,
                                 line ) ])
                        @ List.map
                            (fun (line, ts, _) ->
                              (String.concat " " ts, line))
                            combo
                        @ (match g.g_xfail with
                           | Some x -> [ ("xfail " ^ x, g.g_line) ]
                           | None -> [])
                      in
                      let origins =
                        Array.of_list (List.map snd src_lines)
                      in
                      let src =
                        String.concat "\n"
                          (List.map fst src_lines)
                      in
                      let sc = parse_mapped ~origins src in
                      let text =
                        try Scenario.to_string sc
                        with Invalid_argument msg ->
                          err ~line:g.g_line ~token:name
                            ("generated scenario cannot be rendered: " ^ msg)
                      in
                      let sc2 =
                        try Scenario.parse text
                        with Scenario.Parse_error e ->
                          failwith
                            ("Matrix.expand: canonical text does not \
                              re-parse: "
                            ^ Scenario.error_message e)
                      in
                      if not (Scenario.equal sc sc2) then
                        failwith
                          (Printf.sprintf
                             "Matrix.expand: scenario %s does not round-trip"
                             name);
                      entries :=
                        { e_index = !index;
                          e_file = file_of_name !index name;
                          e_name = name;
                          e_group = g.g_name;
                          e_harness = h;
                          e_seed = seed;
                          e_expected =
                            (if g.g_xfail = None then "pass" else "xfail");
                          e_scenario = sc;
                          e_text = text }
                        :: !entries)
                    combos)
                    fault_alts)
                phase_alts)
              profile_alts)
            g.g_sides)
        g.g_harnesses)
    m.m_groups;
  let all = List.rev !entries in
  match limit with
  | Some n when n >= 0 -> List.filteri (fun i _ -> i < n) all
  | _ -> all

(* ------------------------------------------------------------------ *)
(* Manifests                                                          *)
(* ------------------------------------------------------------------ *)

let corpus_digest files =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (file, text) ->
      Buffer.add_string buf file;
      Buffer.add_char buf '\n';
      Buffer.add_string buf text)
    files;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let manifest_json ~spec_file ~spec_digest m entries =
  let count p = List.length (List.filter (fun e -> e.e_expected = p) entries) in
  Json.Obj
    [ ("format", Json.Str "pfi-corpus/1");
      ("matrix", Json.Str m.m_name);
      ("spec", Json.Str spec_file);
      ("spec_digest", Json.Str spec_digest);
      ("count", Json.Int (List.length entries));
      ("pass", Json.Int (count "pass"));
      ("xfail", Json.Int (count "xfail"));
      ( "corpus_digest",
        Json.Str (corpus_digest (List.map (fun e -> (e.e_file, e.e_text)) entries)) );
      ( "scenarios",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [ ("file", Json.Str e.e_file);
                   ("name", Json.Str e.e_name);
                   ("group", Json.Str e.e_group);
                   ("harness", Json.Str e.e_harness);
                   ("seed", Json.Str (Int64.to_string e.e_seed));
                   ("expected", Json.Str e.e_expected) ])
             entries) ) ]

type manifest_entry = {
  me_file : string;
  me_name : string;
  me_group : string;
  me_harness : string;
  me_seed : int64;
  me_expected : string;
}

type manifest = {
  mf_matrix : string;
  mf_spec : string;
  mf_spec_digest : string;
  mf_count : int;
  mf_pass : int;
  mf_xfail : int;
  mf_corpus_digest : string;
  mf_entries : manifest_entry list;
}

let manifest_of_json json =
  let ( let* ) = Result.bind in
  let* format = Json.field ~what:"manifest" Json.to_str "format" json in
  let* () =
    if format = "pfi-corpus/1" then Ok ()
    else Error (Printf.sprintf "manifest: unsupported format %S" format)
  in
  let* mf_matrix = Json.field ~what:"manifest" Json.to_str "matrix" json in
  let* mf_spec = Json.field ~what:"manifest" Json.to_str "spec" json in
  let* mf_spec_digest = Json.field ~what:"manifest" Json.to_str "spec_digest" json in
  let* mf_count = Json.field ~what:"manifest" Json.to_int "count" json in
  let* mf_pass = Json.field ~what:"manifest" Json.to_int "pass" json in
  let* mf_xfail = Json.field ~what:"manifest" Json.to_int "xfail" json in
  let* mf_corpus_digest = Json.field ~what:"manifest" Json.to_str "corpus_digest" json in
  let* scenarios = Json.field ~what:"manifest" Json.to_list "scenarios" json in
  let entry_of j =
    let what = "manifest scenario" in
    let* me_file = Json.field ~what Json.to_str "file" j in
    let* me_name = Json.field ~what Json.to_str "name" j in
    let* me_group = Json.field ~what Json.to_str "group" j in
    let* me_harness = Json.field ~what Json.to_str "harness" j in
    let* me_seed = Json.int64_field ~what "seed" j in
    let* me_expected = Json.field ~what Json.to_str "expected" j in
    let* () =
      if me_expected = "pass" || me_expected = "xfail" then Ok ()
      else Error (Printf.sprintf "manifest: bad expected verdict %S" me_expected)
    in
    Ok { me_file; me_name; me_group; me_harness; me_seed; me_expected }
  in
  let* mf_entries = Json.decode_list entry_of scenarios in
  let* () =
    if List.length mf_entries = mf_count then Ok ()
    else
      Error
        (Printf.sprintf "manifest: count %d disagrees with %d scenarios"
           mf_count (List.length mf_entries))
  in
  let* () =
    let dup proj what =
      let tbl = Hashtbl.create 64 in
      List.fold_left
        (fun acc e ->
          let* () = acc in
          let k = proj e in
          if Hashtbl.mem tbl k then
            Error (Printf.sprintf "manifest: duplicate %s %S" what k)
          else begin
            Hashtbl.add tbl k ();
            Ok ()
          end)
        (Ok ()) mf_entries
    in
    let* () = dup (fun e -> e.me_file) "file" in
    dup (fun e -> e.me_name) "scenario name"
  in
  Ok
    { mf_matrix;
      mf_spec;
      mf_spec_digest;
      mf_count;
      mf_pass;
      mf_xfail;
      mf_corpus_digest;
      mf_entries }

let load_manifest path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src ->
    (match Json.parse src with
     | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
     | Ok json -> manifest_of_json json)
