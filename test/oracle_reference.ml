(* The tree-walking oracle evaluator that [Oracle]'s monitors replaced,
   kept as the reference they are checked against.  It scans a stored
   trace once per pattern, materialises every match list, and decides
   each pattern value's kind (exact, substring, glob) on every call —
   the opposite trade-offs from the monitors, so agreement is evidence.

   Patterns are mirrored as plain records ([pat]) because
   [Oracle.pattern] is abstract; [to_oracle] builds the library oracle
   the reference's verdict must equal. *)

open Pfi_engine
open Pfi_testgen

type pat = {
  node : string option;
  tag : string option;
  detail : string option;
  fields : (string * string) list;
}

type t =
  | Eventually of pat
  | Never of pat
  | Within of pat * Vtime.t * Vtime.t
  | Ordered of pat list
  | Count of pat * Oracle.comparison * int
  | All of t list
  | Any of t list

let to_pattern p =
  Oracle.pattern ?node:p.node ?tag:p.tag ?detail:p.detail ~fields:p.fields ()

let rec to_oracle = function
  | Eventually p -> Oracle.Eventually (to_pattern p)
  | Never p -> Oracle.Never (to_pattern p)
  | Within (p, a, b) -> Oracle.Within (to_pattern p, a, b)
  | Ordered ps -> Oracle.Ordered (List.map to_pattern ps)
  | Count (p, c, n) -> Oracle.Count (to_pattern p, c, n)
  | All ts -> Oracle.All (List.map to_oracle ts)
  | Any ts -> Oracle.Any (List.map to_oracle ts)

let pattern_describe p = Oracle.pattern_describe (to_pattern p)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  end

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

let value_matches ~exact pat v =
  if has_wildcard pat then glob_match pat v
  else if exact then String.equal pat v
  else contains_sub v pat

let pattern_matches p (e : Trace.entry) =
  (match p.node with Some n -> value_matches ~exact:true n e.Trace.node | None -> true)
  && (match p.tag with Some g -> value_matches ~exact:true g e.Trace.tag | None -> true)
  && (match p.detail with
      | Some d -> value_matches ~exact:false d (Trace.detail e)
      | None -> true)
  && List.for_all
       (fun (k, v) ->
         match List.assoc_opt k e.Trace.fields with
         | Some actual -> value_matches ~exact:true v actual
         | None -> false)
       p.fields

let entry_cite i (e : Trace.entry) =
  Printf.sprintf "#%d @%s %s %s %S" i
    (Vtime.to_string e.Trace.time)
    e.Trace.node e.Trace.tag (Trace.detail e)

let matches_of p trace =
  let acc = ref [] in
  Trace.iteri (fun i e -> if pattern_matches p e then acc := (i, e) :: !acc) trace;
  List.rev !acc

let compare_holds (cmp : Oracle.comparison) a b =
  match cmp with
  | Lt -> a < b
  | Le -> a <= b
  | Eq -> a = b
  | Ne -> a <> b
  | Ge -> a >= b
  | Gt -> a > b

let rec eval oracle trace : Oracle.verdict =
  let oracle_str = Oracle.describe (to_oracle oracle) in
  let verdict pass reason witness = { Oracle.oracle = oracle_str; pass; reason; witness } in
  match oracle with
  | Eventually p ->
    (match matches_of p trace with
     | (i, e) :: _ -> verdict true ("satisfied by " ^ entry_cite i e) (Some i)
     | [] ->
       verdict false
         (Printf.sprintf "no entry matches %s (%d entries searched)"
            (pattern_describe p) (Trace.length trace))
         None)
  | Never p ->
    (match matches_of p trace with
     | [] -> verdict true "no entry matches the forbidden pattern" None
     | (i, e) :: rest ->
       verdict false
         (Printf.sprintf "forbidden %s matched by %s%s" (pattern_describe p)
            (entry_cite i e)
            (match rest with
             | [] -> ""
             | _ -> Printf.sprintf " (and %d more)" (List.length rest)))
         (Some i))
  | Within (p, a, b) ->
    let all = matches_of p trace in
    let inside =
      List.filter (fun (_, e) -> Vtime.(e.Trace.time >= a && e.Trace.time <= b)) all
    in
    let window =
      Printf.sprintf "[%s, %s]" (Vtime.to_string a)
        (if Vtime.equal b Vtime.infinity then "inf" else Vtime.to_string b)
    in
    (match (inside, all) with
     | (i, e) :: _, _ ->
       verdict true
         (Printf.sprintf "satisfied in %s by %s" window (entry_cite i e))
         (Some i)
     | [], [] ->
       verdict false
         (Printf.sprintf "no entry matches %s at all (wanted one in %s)"
            (pattern_describe p) window)
         None
     | [], (i, e) :: _ ->
       verdict false
         (Printf.sprintf
            "no %s in %s; %d matches fall outside the window, first at %s"
            (pattern_describe p) window (List.length all) (entry_cite i e))
         (Some i))
  | Ordered ps ->
    let rec chase step last_idx = function
      | [] ->
        verdict true
          (Printf.sprintf "all %d steps matched in order" (List.length ps))
          (if last_idx < 0 then None else Some last_idx)
      | p :: rest ->
        let next = List.find_opt (fun (i, _) -> i > last_idx) (matches_of p trace) in
        (match next with
         | Some (i, _) -> chase (step + 1) i rest
         | None ->
           verdict false
             (Printf.sprintf "step %d/%d (%s) never matched %s" step (List.length ps)
                (pattern_describe p)
                (if last_idx < 0 then "anywhere"
                 else
                   Printf.sprintf "after %s"
                     (entry_cite last_idx (Trace_lists.get trace last_idx))))
             (if last_idx < 0 then None else Some last_idx))
    in
    if ps = [] then verdict true "vacuously ordered (no steps)" None
    else chase 1 (-1) ps
  | Count (p, cmp, bound) ->
    let all = matches_of p trace in
    let c = List.length all in
    let witness = match List.rev all with (i, _) :: _ -> Some i | [] -> None in
    if compare_holds cmp c bound then
      verdict true
        (Printf.sprintf "count(%s) = %d, %s %d holds" (pattern_describe p) c
           (Oracle.comparison_name cmp) bound)
        witness
    else
      verdict false
        (Printf.sprintf "count(%s) = %d, expected %s %d%s" (pattern_describe p) c
           (Oracle.comparison_name cmp) bound
           (match List.rev all with
            | (i, e) :: _ -> "; last match " ^ entry_cite i e
            | [] -> ""))
        witness
  | All ts ->
    let sub = List.map (fun t -> eval t trace) ts in
    (match List.find_opt (fun (v : Oracle.verdict) -> not v.pass) sub with
     | Some bad ->
       verdict false
         (Printf.sprintf "sub-oracle %s failed: %s" bad.oracle bad.reason)
         bad.witness
     | None ->
       verdict true (Printf.sprintf "all %d sub-oracles hold" (List.length sub)) None)
  | Any ts ->
    let sub = List.map (fun t -> eval t trace) ts in
    (match List.find_opt (fun (v : Oracle.verdict) -> v.pass) sub with
     | Some good ->
       verdict true
         (Printf.sprintf "sub-oracle %s holds: %s" good.oracle good.reason)
         good.witness
     | None ->
       verdict false
         (Printf.sprintf "none of the %d sub-oracles hold (first: %s)" (List.length sub)
            (match sub with v :: _ -> v.reason | [] -> "empty any()"))
         None)
