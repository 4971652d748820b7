open Pfi_engine

(* ------------------------------------------------------------------ *)
(* Patterns                                                           *)
(* ------------------------------------------------------------------ *)

type pattern = {
  p_node : string option;
  p_tag : string option;
  p_detail : string option;
  p_fields : (string * string) list;
}

let pattern ?node ?tag ?detail ?(fields = []) () =
  { p_node = node; p_tag = tag; p_detail = detail; p_fields = fields }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  end

(* A '*' anywhere in a pattern value turns that value into a glob over
   the whole entry value (each '*' matches any, possibly empty, run of
   characters).  Values without one keep their original semantics:
   exact equality for node/tag/fields, substring for detail. *)
let has_wildcard s = String.contains s '*'

let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pat.[i] with
      | '*' ->
        let rec from k = k <= ns && (go (i + 1) k || from (k + 1)) in
        from j
      | c -> j < ns && Char.equal s.[j] c && go (i + 1) (j + 1)
  in
  go 0 0

(* A pattern value's kind — exact, substring or glob — is decided once,
   when the pattern is compiled, not per entry. *)
let value_test ~exact pat =
  if has_wildcard pat then glob_match pat
  else if exact then String.equal pat
  else fun v -> contains_sub v pat

(* the entry test of a pattern; its detail is forced only when the
   pattern constrains it and the node and tag already match *)
let compile_pattern p =
  let node = Option.map (value_test ~exact:true) p.p_node
  and tag = Option.map (value_test ~exact:true) p.p_tag
  and detail = Option.map (value_test ~exact:false) p.p_detail
  and fields = List.map (fun (k, v) -> (k, value_test ~exact:true v)) p.p_fields in
  fun (e : Trace.entry) ->
    (match node with Some f -> f e.Trace.node | None -> true)
    && (match tag with Some f -> f e.Trace.tag | None -> true)
    && (match detail with Some f -> f (Trace.detail e) | None -> true)
    && List.for_all
         (fun (k, f) ->
           match List.assoc_opt k e.Trace.fields with
           | Some actual -> f actual
           | None -> false)
         fields

let pattern_describe p =
  let atoms =
    (match p.p_node with Some n -> [ "node=" ^ n ] | None -> [])
    @ (match p.p_tag with Some g -> [ "tag=" ^ g ] | None -> [])
    @ (match p.p_detail with Some d -> [ "detail~" ^ d ] | None -> [])
    @ List.map (fun (k, v) -> Printf.sprintf "f.%s=%s" k v) p.p_fields
  in
  match atoms with [] -> "*" | atoms -> String.concat " " atoms

(* ------------------------------------------------------------------ *)
(* Oracles                                                            *)
(* ------------------------------------------------------------------ *)

type comparison = Lt | Le | Eq | Ne | Ge | Gt

let comparison_name = function
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "=="
  | Ne -> "!="
  | Ge -> ">="
  | Gt -> ">"

let comparison_of_name = function
  | "<" -> Some Lt
  | "<=" -> Some Le
  | "==" | "=" -> Some Eq
  | "!=" -> Some Ne
  | ">=" -> Some Ge
  | ">" -> Some Gt
  | _ -> None

let compare_holds cmp a b =
  match cmp with
  | Lt -> a < b
  | Le -> a <= b
  | Eq -> a = b
  | Ne -> a <> b
  | Ge -> a >= b
  | Gt -> a > b

type t =
  | Eventually of pattern
  | Never of pattern
  | Within of pattern * Vtime.t * Vtime.t
  | Ordered of pattern list
  | Count of pattern * comparison * int
  | All of t list
  | Any of t list

let rec describe = function
  | Eventually p -> Printf.sprintf "eventually(%s)" (pattern_describe p)
  | Never p -> Printf.sprintf "never(%s)" (pattern_describe p)
  | Within (p, a, b) ->
    Printf.sprintf "within[%s, %s](%s)" (Vtime.to_string a)
      (if Vtime.equal b Vtime.infinity then "inf" else Vtime.to_string b)
      (pattern_describe p)
  | Ordered ps ->
    Printf.sprintf "ordered(%s)"
      (String.concat " ; " (List.map pattern_describe ps))
  | Count (p, cmp, n) ->
    Printf.sprintf "count(%s) %s %d" (pattern_describe p)
      (comparison_name cmp) n
  | All ts -> Printf.sprintf "all(%s)" (String.concat " ; " (List.map describe ts))
  | Any ts -> Printf.sprintf "any(%s)" (String.concat " ; " (List.map describe ts))

type verdict = {
  oracle : string;
  pass : bool;
  reason : string;
  witness : int option;
}

(* one-line citation of a trace entry: "#index @time node tag "detail"" *)
let entry_cite i (e : Trace.entry) =
  Printf.sprintf "#%d @%s %s %s %S" i
    (Vtime.to_string e.Trace.time)
    e.Trace.node e.Trace.tag (Trace.detail e)

let window_name a b =
  Printf.sprintf "[%s, %s]" (Vtime.to_string a)
    (if Vtime.equal b Vtime.infinity then "inf" else Vtime.to_string b)

(* ------------------------------------------------------------------ *)
(* Monitors                                                           *)
(* ------------------------------------------------------------------ *)

(* A monitor is an oracle compiled to a closure fed one entry at a time,
   in recording order, plus a finisher.  Each leaf keeps O(1) state:
   the matches it must cite ([hit]s) and a count, never a list.  Entries
   a leaf's pattern cannot match may be skipped ([tags]), since they
   change no state. *)

(* a cited match: its recording index ([-1] before the first one) and
   its entry *)
type hit = { mutable at : int; mutable entry : Trace.entry }

let no_entry =
  { Trace.time = Vtime.zero; node = ""; tag = ""; detail = Lazy.from_val ""; fields = [] }

let hit () = { at = -1; entry = no_entry }

let set h i e =
  h.at <- i;
  h.entry <- e

let found h = h.at >= 0
let cite h = entry_cite h.at h.entry
let witness h = if found h then Some h.at else None

type monitor = {
  tags : string list option;
      (* the tags every leaf pattern pins exactly; [None]: any tag *)
  feed : int -> Trace.entry -> unit;
  passes : unit -> bool;
  verdict : int -> verdict;  (* given the trace length *)
}

let pattern_tags p =
  match p.p_tag with
  | Some g when not (has_wildcard g) -> Some [ g ]
  | _ -> None

let union_tags tagss =
  if List.exists Option.is_none tagss then None
  else Some (List.sort_uniq String.compare (List.concat_map Option.get tagss))

let rec monitor oracle =
  let verdict pass reason witness =
    { oracle = describe oracle; pass; reason; witness }
  in
  match oracle with
  | Eventually p ->
    let test = compile_pattern p and first = hit () in
    { tags = pattern_tags p;
      feed = (fun i e -> if (not (found first)) && test e then set first i e);
      passes = (fun () -> found first);
      verdict =
        (fun length ->
          if found first then verdict true ("satisfied by " ^ cite first) (witness first)
          else
            verdict false
              (Printf.sprintf "no entry matches %s (%d entries searched)"
                 (pattern_describe p) length)
              None) }
  | Never p ->
    let test = compile_pattern p and first = hit () and n = ref 0 in
    { tags = pattern_tags p;
      feed =
        (fun i e ->
          if test e then begin
            if not (found first) then set first i e;
            incr n
          end);
      passes = (fun () -> not (found first));
      verdict =
        (fun _ ->
          if not (found first) then
            verdict true "no entry matches the forbidden pattern" None
          else
            verdict false
              (Printf.sprintf "forbidden %s matched by %s%s" (pattern_describe p)
                 (cite first)
                 (if !n > 1 then Printf.sprintf " (and %d more)" (!n - 1) else ""))
              (witness first)) }
  | Within (p, a, b) ->
    let test = compile_pattern p and inside = hit () and first = hit ()
    and n = ref 0 in
    { tags = pattern_tags p;
      feed =
        (fun i e ->
          if test e then begin
            incr n;
            if not (found first) then set first i e;
            if
              (not (found inside))
              && Vtime.(e.Trace.time >= a && e.Trace.time <= b)
            then set inside i e
          end);
      passes = (fun () -> found inside);
      verdict =
        (fun _ ->
          if found inside then
            verdict true
              (Printf.sprintf "satisfied in %s by %s" (window_name a b) (cite inside))
              (witness inside)
          else if not (found first) then
            verdict false
              (Printf.sprintf "no entry matches %s at all (wanted one in %s)"
                 (pattern_describe p) (window_name a b))
              None
          else
            verdict false
              (Printf.sprintf
                 "no %s in %s; %d matches fall outside the window, first at %s"
                 (pattern_describe p) (window_name a b) !n (cite first))
              (witness first)) }
  | Ordered ps ->
    (* step [k] matches the first entry after step [k-1]'s witness *)
    let steps = Array.of_list (List.map compile_pattern ps) in
    let step = ref 0 and last = hit () in
    { tags = union_tags (List.map pattern_tags ps);
      feed =
        (fun i e ->
          if !step < Array.length steps && steps.(!step) e then begin
            set last i e;
            incr step
          end);
      passes = (fun () -> !step = Array.length steps);
      verdict =
        (fun _ ->
          if ps = [] then verdict true "vacuously ordered (no steps)" None
          else if !step = Array.length steps then
            verdict true
              (Printf.sprintf "all %d steps matched in order" (Array.length steps))
              (witness last)
          else
            verdict false
              (Printf.sprintf "step %d/%d (%s) never matched %s" (!step + 1)
                 (Array.length steps)
                 (pattern_describe (List.nth ps !step))
                 (if found last then "after " ^ cite last else "anywhere"))
              (witness last)) }
  | Count (p, cmp, bound) ->
    let test = compile_pattern p and n = ref 0 and last = hit () in
    { tags = pattern_tags p;
      feed =
        (fun i e ->
          if test e then begin
            incr n;
            set last i e
          end);
      passes = (fun () -> compare_holds cmp !n bound);
      verdict =
        (fun _ ->
          if compare_holds cmp !n bound then
            verdict true
              (Printf.sprintf "count(%s) = %d, %s %d holds" (pattern_describe p) !n
                 (comparison_name cmp) bound)
              (witness last)
          else
            verdict false
              (Printf.sprintf "count(%s) = %d, expected %s %d%s" (pattern_describe p)
                 !n (comparison_name cmp) bound
                 (if found last then "; last match " ^ cite last else ""))
              (witness last)) }
  | All ts ->
    let ms = List.map monitor ts in
    { tags = union_tags (List.map (fun m -> m.tags) ms);
      feed = (fun i e -> List.iter (fun m -> m.feed i e) ms);
      passes = (fun () -> List.for_all (fun m -> m.passes ()) ms);
      verdict =
        (fun length ->
          match List.find_opt (fun m -> not (m.passes ())) ms with
          | Some bad ->
            let bad = bad.verdict length in
            verdict false
              (Printf.sprintf "sub-oracle %s failed: %s" bad.oracle bad.reason)
              bad.witness
          | None ->
            verdict true
              (Printf.sprintf "all %d sub-oracles hold" (List.length ms))
              None) }
  | Any ts ->
    let ms = List.map monitor ts in
    { tags = union_tags (List.map (fun m -> m.tags) ms);
      feed = (fun i e -> List.iter (fun m -> m.feed i e) ms);
      passes = (fun () -> List.exists (fun m -> m.passes ()) ms);
      verdict =
        (fun length ->
          match List.find_opt (fun m -> m.passes ()) ms with
          | Some good ->
            let good = good.verdict length in
            verdict true
              (Printf.sprintf "sub-oracle %s holds: %s" good.oracle good.reason)
              good.witness
          | None ->
            verdict false
              (Printf.sprintf "none of the %d sub-oracles hold (first: %s)"
                 (List.length ms)
                 (match ms with
                  | m :: _ -> (m.verdict length).reason
                  | [] -> "empty any()"))
              None) }

let attach m trace = Trace.attach trace ~tags:m.tags m.feed
let verdict m trace = m.verdict (Trace.length trace)

let check_monitors monitors trace =
  match List.find_opt (fun m -> not (m.passes ())) monitors with
  | None -> Ok ()
  | Some m ->
    let v = verdict m trace in
    Error (Printf.sprintf "oracle %s: %s" v.oracle v.reason)

(* a stored trace's entries fed to a fresh monitor in one pass, each
   only if the monitor declares its tag *)
let replay oracle trace =
  let m = monitor oracle in
  (match m.tags with
   | Some [] -> ()
   | Some tags ->
     Trace.iteri (fun i e -> if List.mem e.Trace.tag tags then m.feed i e) trace
   | None -> Trace.iteri m.feed trace);
  m

let eval oracle trace = verdict (replay oracle trace) trace
let check oracles trace = check_monitors (List.map (fun o -> replay o trace) oracles) trace
