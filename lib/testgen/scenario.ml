open Pfi_engine

(* ------------------------------------------------------------------ *)
(* Errors                                                             *)
(* ------------------------------------------------------------------ *)

type error = {
  err_line : int;
  err_token : string;
  err_reason : string;
}

exception Parse_error of error

let err line token reason =
  raise (Parse_error { err_line = line; err_token = token; err_reason = reason })

let error_message ?file e =
  let where =
    match file with
    | Some f -> Printf.sprintf "%s:%d" f e.err_line
    | None -> Printf.sprintf "line %d" e.err_line
  in
  Printf.sprintf "%s: %s (at %S)" where e.err_reason e.err_token

(* ------------------------------------------------------------------ *)
(* Scenario representation                                            *)
(* ------------------------------------------------------------------ *)

type injection = {
  inj_line : int;
  inj_at : Vtime.t;
  inj_side : [ `Send | `Receive ];
  inj_mtype : string;
  inj_args : (string * string) list;
  inj_dst : string;
}

type expectation =
  | Trace_oracle of Oracle.t
  | Service

type check = {
  chk_line : int;
  chk_expect : expectation;
}

type t = {
  sc_name : string;
  sc_harness : string;
  sc_profile : string option;
  sc_phase : string option;
  sc_seed : int64 option;
  sc_horizon : Vtime.t option;
  sc_faults : (Campaign.side * Generator.fault) list;
  sc_injections : injection list;
  sc_checks : check list;
  sc_xfail : string option;
}

(* ------------------------------------------------------------------ *)
(* Lexical helpers                                                    *)
(* ------------------------------------------------------------------ *)

(* whitespace-split words; a word starting with '#' comments out the
   rest of the line *)
let tokens_of line =
  let words =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  let rec until_comment = function
    | [] -> []
    | w :: _ when String.length w > 0 && w.[0] = '#' -> []
    | w :: rest -> w :: until_comment rest
  in
  until_comment words

let parse_duration ~line tok =
  let n = String.length tok in
  let i = ref 0 in
  while !i < n && (match tok.[!i] with '0' .. '9' | '.' -> true | _ -> false) do
    incr i
  done;
  let num = String.sub tok 0 !i and unit_s = String.sub tok !i (n - !i) in
  let v =
    match float_of_string_opt num with
    | Some v when v >= 0.0 -> v
    | _ ->
      err line tok "malformed duration (expected NUMBER followed by us|ms|s|m|h)"
  in
  let mult_us =
    match unit_s with
    | "us" -> 1.0
    | "ms" -> 1_000.0
    | "s" -> 1_000_000.0
    | "m" | "min" -> 60_000_000.0
    | "h" -> 3_600_000_000.0
    | _ -> err line tok "unknown duration unit (use us|ms|s|m|h)"
  in
  let us = v *. mult_us in
  (* [int_of_float] is unspecified past [max_int] (on x86-64 it yields
     0), which would silently turn a huge duration into a zero one *)
  if not (us < float_of_int Vtime.infinity) then
    err line tok "duration out of range";
  Vtime.us (int_of_float us)

let parse_int ~line tok =
  match int_of_string_opt tok with
  | Some n when n >= 0 -> n
  | _ -> err line tok "expected a non-negative integer"

(* ------------------------------------------------------------------ *)
(* Patterns                                                           *)
(* ------------------------------------------------------------------ *)

let after_prefix prefix tok =
  String.sub tok (String.length prefix) (String.length tok - String.length prefix)

let parse_pattern ~line ~directive atoms =
  if atoms = [] then
    err line directive
      "pattern must have at least one atom (node=, tag=, detail~ or f.KEY=VALUE)";
  let node = ref None and tag = ref None and detail = ref None in
  let fields = ref [] in
  let set r what v =
    match !r with
    | Some _ -> err line (what ^ v) ("duplicate " ^ what ^ " atom in pattern")
    | None -> r := Some v
  in
  List.iter
    (fun tok ->
      if String.starts_with ~prefix:"node=" tok then
        set node "node=" (after_prefix "node=" tok)
      else if String.starts_with ~prefix:"tag=" tok then
        set tag "tag=" (after_prefix "tag=" tok)
      else if String.starts_with ~prefix:"detail~" tok then
        set detail "detail~" (after_prefix "detail~" tok)
      else if String.starts_with ~prefix:"f." tok then begin
        let body = after_prefix "f." tok in
        match String.index_opt body '=' with
        | Some i when i > 0 ->
          fields :=
            (String.sub body 0 i,
             String.sub body (i + 1) (String.length body - i - 1))
            :: !fields
        | _ -> err line tok "field atom must be f.KEY=VALUE"
      end
      else
        err line tok
          "unrecognised pattern atom (expected node=, tag=, detail~ or \
           f.KEY=VALUE)")
    atoms;
  Oracle.pattern ?node:!node ?tag:!tag ?detail:!detail
    ~fields:(List.rev !fields) ()

(* ------------------------------------------------------------------ *)
(* Fault specifications                                               *)
(* ------------------------------------------------------------------ *)

(* [fault S A + B + C] is sugar for three fault directives on side [S]:
   split the token list on standalone "+" tokens *)
let split_on_plus ~line toks =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | "+" :: rest ->
      if current = [] then
        err line "+" "empty fault before '+' in a multi-fault sequence";
      go [] (List.rev current :: acc) rest
    | tok :: rest -> go (tok :: current) acc rest
  in
  match go [] [] toks with
  | groups when List.exists (( = ) []) groups ->
    err line "+" "empty fault in a multi-fault sequence"
  | groups -> groups

(* ------------------------------------------------------------------ *)
(* Expectations                                                       *)
(* ------------------------------------------------------------------ *)

let split_on_semicolon toks =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | ";" :: rest -> go [] (List.rev current :: acc) rest
    | tok :: rest -> go (tok :: current) acc rest
  in
  go [] [] toks

let parse_expect ~line ~at toks =
  let no_time kind =
    if at <> None then err line kind (kind ^ " takes no @TIME prefix")
  in
  match toks with
  | [] -> err line "expect" "missing expectation"
  | [ "service" ] -> no_time "service"; Service
  | "service" :: extra :: _ -> err line extra "service takes no arguments"
  | "never" :: atoms ->
    no_time "never";
    Trace_oracle (Oracle.Never (parse_pattern ~line ~directive:"never" atoms))
  | "count" :: rest ->
    no_time "count";
    (match List.rev rest with
     | bound :: op :: ratoms when Oracle.comparison_of_name op <> None ->
       let cmp = Option.get (Oracle.comparison_of_name op) in
       let atoms = List.rev ratoms in
       Trace_oracle
         (Oracle.Count
            (parse_pattern ~line ~directive:"count" atoms, cmp,
             parse_int ~line bound))
     | _ ->
       err line "count"
         "usage: expect count PATTERN OP N  (OP one of < <= == != >= >)")
  | "ordered" :: rest ->
    no_time "ordered";
    let groups = split_on_semicolon rest in
    Trace_oracle
      (Oracle.Ordered
         (List.map (parse_pattern ~line ~directive:"ordered") groups))
  | toks ->
    let toks = match toks with "eventually" :: r -> r | r -> r in
    let atoms, within =
      match List.rev toks with
      | d :: "within" :: ratoms -> (List.rev ratoms, Some (parse_duration ~line d))
      | _ ->
        if List.mem "within" toks then
          err line "within"
            "within must be penultimate: expect PATTERN within DURATION";
        (toks, None)
    in
    let pat = parse_pattern ~line ~directive:"expect" atoms in
    (match (at, within) with
     | None, None -> Trace_oracle (Oracle.Eventually pat)
     | Some a, None -> Trace_oracle (Oracle.Within (pat, a, Vtime.infinity))
     | None, Some d -> Trace_oracle (Oracle.Within (pat, Vtime.zero, d))
     | Some a, Some d -> Trace_oracle (Oracle.Within (pat, a, Vtime.add a d)))

(* ------------------------------------------------------------------ *)
(* The parser                                                         *)
(* ------------------------------------------------------------------ *)

let parse ?(name = "scenario") src =
  let sc_name = ref name in
  let harness = ref None (* (name, packed) *) in
  let seed = ref None and horizon = ref None and xfail = ref None in
  let profile = ref None and phase = ref None in
  let faults = ref [] and injections = ref [] and checks = ref [] in
  (* the relative-time clock: [@+DUR] means DUR after the previous
     [@]-prefixed directive's time (zero before any) *)
  let clock = ref Vtime.zero in
  let need_harness line tok =
    match !harness with
    | Some (hname, packed) -> (hname, packed)
    | None -> err line tok "run HARNESS must come before this directive"
  in
  let once line tok r v =
    match !r with
    | Some _ -> err line tok ("duplicate " ^ tok ^ " directive")
    | None -> r := Some v
  in
  let handle line toks =
    match toks with
    | [] -> ()
    | first :: rest ->
      let at, keyword, rest =
        if String.length first > 0 && first.[0] = '@' then begin
          let body = String.sub first 1 (String.length first - 1) in
          let t =
            if String.length body > 0 && body.[0] = '+' then
              Vtime.add !clock
                (parse_duration ~line
                   (String.sub body 1 (String.length body - 1)))
            else parse_duration ~line body
          in
          clock := t;
          match rest with
          | kw :: rest' -> (Some t, kw, rest')
          | [] -> err line first "directive expected after @TIME"
        end
        else (None, first, rest)
      in
      let no_time () =
        if at <> None then err line keyword (keyword ^ " takes no @TIME prefix")
      in
      (match keyword with
       | "name" ->
         no_time ();
         if rest = [] then err line "name" "missing scenario name";
         sc_name := String.concat " " rest
       | "run" ->
         no_time ();
         (match rest with
          | [ h ] ->
            if !harness <> None then err line h "duplicate run directive";
            (match Registry.find h with
             | Some packed -> harness := Some (h, packed)
             | None ->
               err line h
                 (Printf.sprintf "unknown harness (expected one of %s)"
                    (String.concat ", " Registry.names)))
          | _ -> err line "run" "usage: run HARNESS")
       | "seed" ->
         no_time ();
         (match rest with
          | [ s ] ->
            (match Int64.of_string_opt s with
             | Some v -> once line "seed" seed v
             | None -> err line s "expected a 64-bit integer seed")
          | _ -> err line "seed" "usage: seed N")
       | "horizon" ->
         no_time ();
         (match rest with
          | [ d ] -> once line "horizon" horizon (parse_duration ~line d)
          | _ -> err line "horizon" "usage: horizon DURATION")
       | "profile" ->
         no_time ();
         (match rest with
          | [ p ] ->
            let hname, _ = need_harness line "profile" in
            if hname <> "tcp" then
              err line p "profile applies only to the tcp harness";
            (match Pfi_tcp.Profile.find p with
             | Some prof ->
               once line "profile" profile (Pfi_tcp.Profile.slug prof)
             | None ->
               err line p
                 (Printf.sprintf "unknown vendor profile (expected one of %s)"
                    (String.concat ", "
                       (List.map Pfi_tcp.Profile.slug
                          (Pfi_tcp.Profile.xkernel
                          :: Pfi_tcp.Profile.all_vendors)))))
          | _ -> err line "profile" "usage: profile VENDOR")
       | "phase" ->
         no_time ();
         (match rest with
          | [ p ] ->
            let hname, _ = need_harness line "phase" in
            if hname <> "tcp" then
              err line p "phase applies only to the tcp harness";
            (match Tcp_harness.phase_of_string p with
             | Some ph -> once line "phase" phase (Tcp_harness.phase_name ph)
             | None ->
               err line p "unknown phase (expected handshake, stream or close)")
          | _ -> err line "phase" "usage: phase handshake|stream|close")
       | "xfail" ->
         no_time ();
         if rest = [] then
           err line "xfail" "usage: xfail SUBSTRING (of the expected diagnostic)";
         once line "xfail" xfail (String.concat " " rest)
       | "fault" ->
         no_time ();
         let _, packed = need_harness line "fault" in
         let spec = Harness_intf.spec packed in
         let side, ftoks =
           match rest with
           | "send" :: r -> (Campaign.Send_filter, r)
           | "receive" :: r -> (Campaign.Receive_filter, r)
           | "both" :: r -> (Campaign.Both_filters, r)
           | r -> (Campaign.Both_filters, r)
         in
         let groups =
           if List.mem "+" ftoks then split_on_plus ~line ftoks else [ ftoks ]
         in
         List.iter
           (fun g ->
             match Generator.of_tokens ~spec g with
             | Ok fault -> faults := (side, fault) :: !faults
             | Error (tok, reason) -> err line tok reason)
           groups
       | "inject" ->
         let at =
           match at with
           | Some t -> t
           | None -> err line "inject" "inject requires an @TIME prefix"
         in
         let _, packed = need_harness line "inject" in
         let spec = Harness_intf.spec packed in
         (match rest with
          | side_tok :: mtype :: args ->
            let side =
              match side_tok with
              | "send" -> `Send
              | "receive" -> `Receive
              | _ -> err line side_tok "inject side must be send or receive"
            in
            let msg =
              match Generator.find_stateless spec mtype with
              | Ok m -> m
              | Error reason -> err line mtype reason
            in
            let dst, kv_toks =
              match List.rev args with
              | dst :: "to" :: rargs -> (Some dst, List.rev rargs)
              | _ ->
                if List.mem "to" args then
                  err line "to" "to NODE must come last in an inject directive";
                (None, args)
            in
            let overrides =
              List.map
                (fun tok ->
                  match String.index_opt tok '=' with
                  | Some i when i > 0 ->
                    (String.sub tok 0 i,
                     String.sub tok (i + 1) (String.length tok - i - 1))
                  | _ -> err line tok "expected KEY=VALUE generation argument")
                kv_toks
            in
            let inj_args =
              List.map
                (fun (k, v) ->
                  (k, Option.value (List.assoc_opt k overrides) ~default:v))
                msg.Spec.gen_args
              @ List.filter
                  (fun (k, _) -> not (List.mem_assoc k msg.Spec.gen_args))
                  overrides
            in
            injections :=
              { inj_line = line;
                inj_at = at;
                inj_side = side;
                inj_mtype = mtype;
                inj_args;
                inj_dst = Option.value dst ~default:(Harness_intf.target packed) }
              :: !injections
          | _ -> err line "inject" "usage: @TIME inject send|receive TYPE [k=v ...] [to NODE]")
       | "expect" ->
         let expect = parse_expect ~line ~at rest in
         (match
            List.find_opt (fun c -> c.chk_expect = expect) !checks
          with
          | Some prior ->
            err line "expect"
              (Printf.sprintf
                 "duplicate expect directive (identical expectation at line \
                  %d)"
                 prior.chk_line)
          | None -> ());
         checks := { chk_line = line; chk_expect = expect } :: !checks
       | _ ->
         err line keyword
           "unknown directive (expected name, run, profile, phase, seed, \
            horizon, fault, inject, expect or xfail)")
  in
  let lines = String.split_on_char '\n' src in
  List.iteri (fun i line -> handle (i + 1) (tokens_of line)) lines;
  match !harness with
  | None ->
    err (List.length lines) "run" "scenario never names a harness (missing run directive)"
  | Some (hname, _) ->
    { sc_name = !sc_name;
      sc_harness = hname;
      sc_profile = !profile;
      sc_phase = !phase;
      sc_seed = !seed;
      sc_horizon = !horizon;
      sc_faults = List.rev !faults;
      sc_injections = List.rev !injections;
      sc_checks = List.rev !checks;
      sc_xfail = !xfail }

let load path =
  parse ~name:(Filename.basename path) (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Printing: the inverse of [parse]                                   *)
(* ------------------------------------------------------------------ *)

(* Canonical duration rendering: the largest unit that divides the
   microsecond count exactly, so the token re-parses to the same time. *)
let duration_to_string t =
  if Vtime.equal t Vtime.infinity then
    invalid_arg "Scenario.duration_to_string: infinite duration";
  if Vtime.(t < Vtime.zero) then
    invalid_arg "Scenario.duration_to_string: negative duration";
  let us = Int64.to_int (Vtime.to_us t) in
  if us = 0 then "0s"
  else if us mod 3_600_000_000 = 0 then string_of_int (us / 3_600_000_000) ^ "h"
  else if us mod 60_000_000 = 0 then string_of_int (us / 60_000_000) ^ "m"
  else if us mod 1_000_000 = 0 then string_of_int (us / 1_000_000) ^ "s"
  else if us mod 1_000 = 0 then string_of_int (us / 1_000) ^ "ms"
  else string_of_int us ^ "us"

(* a token the tokenizer will hand back unchanged *)
let plain_token tok =
  tok <> "" && tok <> ";" && tok <> "+"
  && tok.[0] <> '@'
  && String.for_all
       (fun c ->
         match c with ' ' | '\t' | '\n' | '\r' | '#' -> false | _ -> true)
       tok

let require_plain what tok =
  if not (plain_token tok) then
    invalid_arg
      (Printf.sprintf "Scenario.to_string: %s %S is not a printable token"
         what tok)

(* words that survive the join-split round trip of [name]/[xfail] *)
let require_plain_words what s =
  let words = String.split_on_char ' ' s in
  if words = [] || List.exists (fun w -> not (plain_token w)) words then
    invalid_arg
      (Printf.sprintf
         "Scenario.to_string: %s %S does not tokenize back to itself" what s)

let pattern_atoms ~what p =
  match Oracle.pattern_describe p with
  | "*" ->
    invalid_arg
      (Printf.sprintf
         "Scenario.to_string: %s: an unconstrained pattern has no scenario \
          syntax"
         what)
  | s ->
    let atoms = String.split_on_char ' ' s in
    List.iter (require_plain (what ^ " pattern atom")) atoms;
    s

let check_to_line chk =
  match chk.chk_expect with
  | Service -> "expect service"
  | Trace_oracle o ->
    (match o with
     | Oracle.Eventually p -> "expect " ^ pattern_atoms ~what:"expect" p
     | Oracle.Never p -> "expect never " ^ pattern_atoms ~what:"never" p
     | Oracle.Within (p, a, b) ->
       let pat = pattern_atoms ~what:"expect" p in
       if Vtime.equal b Vtime.infinity then
         Printf.sprintf "@%s expect %s" (duration_to_string a) pat
       else if Vtime.(b < a) then
         invalid_arg "Scenario.to_string: Within window ends before it starts"
       else if Vtime.equal a Vtime.zero then
         Printf.sprintf "expect %s within %s" pat (duration_to_string b)
       else
         Printf.sprintf "@%s expect %s within %s" (duration_to_string a) pat
           (duration_to_string (Vtime.sub b a))
     | Oracle.Count (p, cmp, n) ->
       if n < 0 then
         invalid_arg "Scenario.to_string: negative count bound";
       Printf.sprintf "expect count %s %s %d"
         (pattern_atoms ~what:"count" p)
         (Oracle.comparison_name cmp) n
     | Oracle.Ordered ps ->
       if ps = [] then
         invalid_arg
           "Scenario.to_string: an empty ordered() has no scenario syntax";
       "expect ordered "
       ^ String.concat " ; "
           (List.map (pattern_atoms ~what:"ordered") ps)
     | Oracle.All _ | Oracle.Any _ ->
       invalid_arg "Scenario.to_string: all()/any() have no scenario syntax")

let injection_to_line inj =
  List.iter
    (fun (k, v) ->
      if k = "" then
        invalid_arg "Scenario.to_string: empty injection argument key";
      require_plain "injection argument" (k ^ "=" ^ v);
      if String.contains k '=' then
        invalid_arg
          (Printf.sprintf
             "Scenario.to_string: injection argument key %S contains '='" k))
    inj.inj_args;
  require_plain "injection mtype" inj.inj_mtype;
  require_plain "injection destination" inj.inj_dst;
  Printf.sprintf "@%s inject %s %s%s to %s"
    (duration_to_string inj.inj_at)
    (match inj.inj_side with `Send -> "send" | `Receive -> "receive")
    inj.inj_mtype
    (String.concat ""
       (List.map (fun (k, v) -> " " ^ k ^ "=" ^ v) inj.inj_args))
    inj.inj_dst

let to_string sc =
  let packed =
    match
      Registry.find_configured ?profile:sc.sc_profile ?phase:sc.sc_phase
        sc.sc_harness
    with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf
           "Scenario.to_string: unknown harness/profile/phase %S%s%s"
           sc.sc_harness
           (match sc.sc_profile with
            | Some p -> Printf.sprintf " profile %S" p
            | None -> "")
           (match sc.sc_phase with
            | Some p -> Printf.sprintf " phase %S" p
            | None -> ""))
  in
  let spec = Harness_intf.spec packed in
  Option.iter (require_plain "profile") sc.sc_profile;
  Option.iter (require_plain "phase") sc.sc_phase;
  require_plain_words "scenario name" sc.sc_name;
  Option.iter (require_plain_words "xfail substring") sc.sc_xfail;
  (* a fault prints only if it re-reads as itself: in range, and named
     by this harness's spec *)
  List.iter
    (fun (_, fault) ->
      (match Generator.of_view ~spec (Generator.view fault) with
       | Ok f when f = fault -> ()
       | Ok _ ->
         invalid_arg
           (Printf.sprintf
              "Scenario.to_string: fault %S does not match the harness spec"
              (Generator.describe fault))
       | Error (field, reason) ->
         invalid_arg
           (Printf.sprintf "Scenario.to_string: fault %S: %s: %s"
              (Generator.describe fault) field reason));
      List.iter (require_plain "fault token") (Generator.tokens fault))
    sc.sc_faults;
  (* an injection only re-parses to the same record if its argument list
     starts with the spec's generation arguments, in spec order — which
     is exactly what [parse] produces *)
  List.iter
    (fun inj ->
      match Spec.find_message spec inj.inj_mtype with
      | None ->
        invalid_arg
          (Printf.sprintf "Scenario.to_string: unknown message type %S"
             inj.inj_mtype)
      | Some m ->
        let keys = List.map fst m.Spec.gen_args in
        let rec prefix ks args =
          match (ks, args) with
          | [], _ -> true
          | k :: ks', (k', _) :: args' -> k = k' && prefix ks' args'
          | _ :: _, [] -> false
        in
        if not (prefix keys inj.inj_args) then
          invalid_arg
            (Printf.sprintf
               "Scenario.to_string: injection arguments for %S must begin \
                with the spec's generation arguments (%s)"
               inj.inj_mtype (String.concat ", " keys)))
    sc.sc_injections;
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "name %s" sc.sc_name;
  line "run %s" sc.sc_harness;
  Option.iter (fun p -> line "profile %s" p) sc.sc_profile;
  Option.iter (fun p -> line "phase %s" p) sc.sc_phase;
  Option.iter (fun s -> line "seed %Ld" s) sc.sc_seed;
  Option.iter (fun h -> line "horizon %s" (duration_to_string h)) sc.sc_horizon;
  List.iter
    (fun (side, fault) ->
      line "fault %s %s" (Campaign.side_name side)
        (String.concat " " (Generator.tokens fault)))
    sc.sc_faults;
  List.iter (fun inj -> line "%s" (injection_to_line inj)) sc.sc_injections;
  List.iter (fun chk -> line "%s" (check_to_line chk)) sc.sc_checks;
  Option.iter (fun s -> line "xfail %s" s) sc.sc_xfail;
  Buffer.contents buf

let strip_lines sc =
  { sc with
    sc_injections = List.map (fun i -> { i with inj_line = 0 }) sc.sc_injections;
    sc_checks = List.map (fun c -> { c with chk_line = 0 }) sc.sc_checks }

let equal a b = strip_lines a = strip_lines b

(* lexical helpers shared with the matrix expander *)
let tokens_of_line = tokens_of
let duration_of_token ~line tok = parse_duration ~line tok
let parse_error ~line ~token reason = err line token reason

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

type row = {
  row_line : int;
  row_desc : string;
  row_pass : bool;
  row_reason : string;
  row_witness : int option;
}

type outcome = Pass | Fail | Xfail | Xpass

let outcome_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Xfail -> "xfail"
  | Xpass -> "xpass"

type result = {
  res_scenario : string;
  res_harness : string;
  res_seed : int64;
  res_horizon : Vtime.t;
  res_rows : row list;
  res_xfail : string option;
  res_outcome : outcome;
  res_trace : Trace.t option;
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  end

(* the fabricate-and-introduce script for one inject directive, built
   from the same [msg_gen]/[inject_*] vocabulary generated campaign
   scripts use *)
let injection_script inj =
  let args =
    String.concat " " (List.concat_map (fun (k, v) -> [ k; v ]) inj.inj_args)
  in
  match inj.inj_side with
  | `Send ->
    Printf.sprintf
      "set probe [msg_gen %s]\n\
       msg_set_attr $probe net.dst %s\n\
       log scenario.inject \"%s down toward %s\"\n\
       inject_down $probe"
      args inj.inj_dst inj.inj_mtype inj.inj_dst
  | `Receive ->
    Printf.sprintf
      "set probe [msg_gen %s]\n\
       log scenario.inject \"%s up\"\n\
       inject_up $probe"
      args inj.inj_mtype

let run ?seed ?(observe = Campaign.silent) sc =
  let packed =
    match
      Registry.find_configured ?profile:sc.sc_profile ?phase:sc.sc_phase
        sc.sc_harness
    with
    | Some h -> h
    | None -> failwith ("scenario harness vanished from the registry: " ^ sc.sc_harness)
  in
  let (module H : Harness_intf.HARNESS) = packed in
  let seed =
    match seed with
    | Some s -> s
    | None -> Option.value sc.sc_seed ~default:H.default_seed
  in
  let horizon = Option.value sc.sc_horizon ~default:H.default_horizon in
  let filters =
    List.filter_map
      (fun side ->
        sc.sc_faults
        |> List.filter (fun (s, _) -> s = side || s = Campaign.Both_filters)
        |> List.map (fun (_, f) -> Generator.script_of_fault f)
        |> function
        | [] -> None
        | scripts ->
          Some (side, Pfi_script.Interp.compile (String.concat "\n" scripts)))
      [ Campaign.Send_filter; Campaign.Receive_filter ]
  in
  let arm sim pfi =
    List.iter
      (fun inj ->
        ignore
          (Sim.schedule_at sim ~time:inj.inj_at (fun () ->
               ignore
                 (Pfi_core.Pfi_layer.eval_in pfi inj.inj_side
                    (injection_script inj)))))
      sc.sc_injections
  in
  let row chk desc pass reason witness =
    { row_line = chk.chk_line; row_desc = desc; row_pass = pass;
      row_reason = reason; row_witness = witness }
  in
  (* each [expect] oracle is a monitor attached before build, so it
     judges every entry the trial records, #0 included; the rows are
     read before the arena serves another trial *)
  let rows, res_trace =
    Campaign.exec ~capture_trace:observe.Campaign.obs_traces ~arm packed
      ~horizon ~seed ~filters (fun trace ->
        let judges =
          List.map
            (fun chk ->
              match chk.chk_expect with
              | Trace_oracle o ->
                let m = Oracle.monitor o in
                Oracle.attach m trace;
                fun _ ->
                  let v = Oracle.verdict m trace in
                  row chk v.oracle v.pass v.reason v.witness
              | Service -> (
                function
                | Campaign.Tolerated ->
                  row chk "service" true "service guarantee holds" None
                | Campaign.Violation reason -> row chk "service" false reason None))
            sc.sc_checks
        in
        fun service sim ->
          ( List.map (fun judge -> judge service) judges,
            if observe.Campaign.obs_traces then Some (Sim.trace sim) else None ))
  in
  let failures = List.filter (fun r -> not r.row_pass) rows in
  let res_outcome =
    match (sc.sc_xfail, failures) with
    | None, [] -> Pass
    | None, _ -> Fail
    | Some _, [] -> Xpass
    | Some sub, fs ->
      if
        List.exists
          (fun r -> contains_sub r.row_reason sub || contains_sub r.row_desc sub)
          fs
      then Xfail
      else Fail
  in
  { res_scenario = sc.sc_name;
    res_harness = H.name;
    res_seed = seed;
    res_horizon = horizon;
    res_rows = rows;
    res_xfail = sc.sc_xfail;
    res_outcome;
    res_trace }

let passed r = match r.res_outcome with Pass | Xfail -> true | Fail | Xpass -> false
