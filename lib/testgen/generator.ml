type fault =
  | Drop_all of string
  | Drop_after of string * int
  | Drop_first of string * int
  | Drop_nth of string * int
  | Drop_fraction of string * float
  | Omission_all of float
  | Byzantine_mix of float
  | Delay_each of string * float
  | Duplicate of string
  | Corrupt of string * float
  | Reorder of string
  | Inject_spurious of Spec.message * string

(* ------------------------------------------------------------------ *)
(* The fault vocabulary: one typed view per fault, one validating     *)
(* constructor, and every encoding a fold over the view               *)
(* ------------------------------------------------------------------ *)

type param =
  | Count of int
  | Probability of float
  | Seconds of float
  | Dst of string

let param_key = function
  | Count _ -> "n"
  | Probability _ -> "p"
  | Seconds _ -> "seconds"
  | Dst _ -> "dst"

type view = {
  kind : string;
  mtype : string option;
  params : param list;
  fabricated : Spec.message option;
}

let view fault =
  let v kind mtype params = { kind; mtype; params; fabricated = None } in
  match fault with
  | Drop_all t -> v "drop_all" (Some t) []
  | Drop_after (t, n) -> v "drop_after" (Some t) [ Count n ]
  | Drop_first (t, n) -> v "drop_first" (Some t) [ Count n ]
  | Drop_nth (t, n) -> v "drop_nth" (Some t) [ Count n ]
  | Drop_fraction (t, p) -> v "drop_fraction" (Some t) [ Probability p ]
  | Omission_all p -> v "omission_all" None [ Probability p ]
  | Byzantine_mix p -> v "byzantine_mix" None [ Probability p ]
  | Delay_each (t, s) -> v "delay_each" (Some t) [ Seconds s ]
  | Duplicate t -> v "duplicate" (Some t) []
  | Corrupt (t, p) -> v "corrupt" (Some t) [ Probability p ]
  | Reorder t -> v "reorder" (Some t) []
  | Inject_spurious (m, dst) ->
    { (v "inject_spurious" (Some m.Spec.mtype) [ Dst dst ]) with
      fabricated = Some m }

let fault_to_json fault =
  let v = view fault in
  let param = function
    | Count n -> Json.Int n
    | Probability x | Seconds x -> Json.Float x
    | Dst d -> Json.Str d
  in
  Json.Obj
    ((("kind", Json.Str v.kind)
     :: List.map (fun t -> ("mtype", Json.Str t)) (Option.to_list v.mtype))
    @ (match v.fabricated with
       | None -> []
       | Some m ->
         [ ("stateless", Json.Bool m.Spec.stateless);
           ( "gen_args",
             Json.Obj (List.map (fun (k, a) -> (k, Json.Str a)) m.Spec.gen_args) ) ])
    @ List.map (fun p -> (param_key p, param p)) v.params)

(* each kind's syntax, in the order error messages list them *)
let shapes =
  [ ("drop_all", (true, []));
    ("drop_after", (true, [ "n" ]));
    ("drop_first", (true, [ "n" ]));
    ("drop_nth", (true, [ "n" ]));
    ("drop_fraction", (true, [ "p" ]));
    ("omission_all", (false, [ "p" ]));
    ("byzantine_mix", (false, [ "p" ]));
    ("delay_each", (true, [ "seconds" ]));
    ("duplicate", (true, []));
    ("corrupt", (true, [ "p" ]));
    ("reorder", (true, []));
    ("inject_spurious", (true, [ "dst" ])) ]

let shape kind = List.assoc_opt kind shapes

let unknown_kind () =
  Printf.sprintf "unknown fault kind (expected %s)"
    (String.concat ", " (List.map fst shapes))

let unknown_mtype spec =
  Printf.sprintf "unknown message type for protocol %s (expected one of %s)"
    spec.Spec.protocol
    (String.concat ", " (Spec.message_types spec))

let find_stateless spec t =
  match Spec.find_message spec t with
  | Some m when m.Spec.stateless -> Ok m
  | Some _ ->
    Error "message type is stateful — only stateless messages can be fabricated"
  | None -> Error (unknown_mtype spec)

(* a delay in seconds must become a [Vtime]: the filter's [xDelay]
   rejects one that does not, and at run time that error would end the
   whole run instead of naming the input that asked for it *)
let check_param kind = function
  | Count n when n < 0 -> Error ("n", "expected a non-negative integer")
  | Count n when n < 1 && kind = "drop_nth" ->
    Error ("n", "drop_nth period must be at least 1")
  | Probability p when not (p >= 0. && p <= 1.) ->
    Error ("p", "expected a probability in [0, 1]")
  | Seconds s when Float.is_nan s || s < 0. ->
    Error ("seconds", "expected a non-negative number of seconds")
  | Seconds s when not (s *. 1e6 < float_of_int Pfi_engine.Vtime.infinity) ->
    Error ("seconds", "delay out of range")
  | _ -> Ok ()

let of_view ~spec { kind; mtype; params; fabricated = _ } =
  let ( let* ) = Result.bind in
  let* () =
    match (shape kind, mtype) with
    | None, _ -> Error ("kind", unknown_kind ())
    | Some (true, _), None -> Error ("mtype", "missing message type")
    | Some (true, _), Some t when Spec.find_message spec t = None ->
      Error ("mtype", unknown_mtype spec)
    | Some _, _ -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc p -> Result.bind acc (fun () -> check_param kind p))
      (Ok ()) params
  in
  let t = Option.value mtype ~default:"" in
  match (kind, params) with
  | "drop_all", [] -> Ok (Drop_all t)
  | "drop_after", [ Count n ] -> Ok (Drop_after (t, n))
  | "drop_first", [ Count n ] -> Ok (Drop_first (t, n))
  | "drop_nth", [ Count n ] -> Ok (Drop_nth (t, n))
  | "drop_fraction", [ Probability p ] -> Ok (Drop_fraction (t, p))
  | "omission_all", [ Probability p ] -> Ok (Omission_all p)
  | "byzantine_mix", [ Probability p ] -> Ok (Byzantine_mix p)
  | "delay_each", [ Seconds s ] -> Ok (Delay_each (t, s))
  | "duplicate", [] -> Ok (Duplicate t)
  | "corrupt", [ Probability p ] -> Ok (Corrupt (t, p))
  | "reorder", [] -> Ok (Reorder t)
  | "inject_spurious", [ Dst dst ] ->
    (match find_stateless spec t with
     | Ok m -> Ok (Inject_spurious (m, dst))
     | Error reason -> Error ("mtype", reason))
  | _ -> Error ("kind", kind ^ " given the wrong parameters")

(* Shortest decimal that reads back to the exact float, falling back to
   the hex-float form (%h) [float_of_string] also accepts. *)
let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string_opt s = Some f then s else Printf.sprintf "%h" f

let tokens fault =
  let v = view fault in
  let word = function
    | Count n -> string_of_int n
    | Probability x | Seconds x -> float_to_string x
    | Dst d -> d
  in
  (v.kind :: Option.to_list v.mtype) @ List.map word v.params

let of_tokens ~spec = function
  | [] -> Error ("fault", "missing fault specification")
  | kind :: words ->
    (match shape kind with
     | None -> Error (kind, unknown_kind ())
     | Some (named, keys) ->
       let fields = (if named then [ "mtype" ] else []) @ keys in
       if List.compare_lengths fields words <> 0 then
         let upper = function "mtype" -> "TYPE" | k -> String.uppercase_ascii k in
         Error (kind, "usage: " ^ String.concat " " (kind :: List.map upper fields))
       else
         let at = List.combine fields words in
         let param key =
           let tok = List.assoc key at in
           let number conv wrap what =
             Option.to_result ~none:(tok, what) (Option.map wrap (conv tok))
           in
           match key with
           | "n" -> number int_of_string_opt (fun n -> Count n) "expected an integer"
           | "p" -> number float_of_string_opt (fun p -> Probability p) "expected a number"
           | "seconds" -> number float_of_string_opt (fun s -> Seconds s) "expected a number"
           | _ -> Ok (Dst tok)
         in
         let ( let* ) = Result.bind in
         let* params =
           List.fold_right
             (fun key acc ->
               let* p = param key in
               Result.map (fun ps -> p :: ps) acc)
             keys (Ok [])
         in
         Result.map_error
           (fun (field, reason) ->
             (Option.value (List.assoc_opt field at) ~default:kind, reason))
           (of_view ~spec
              { kind; mtype = List.assoc_opt "mtype" at; params; fabricated = None }))

(* the precision the script templates below print parameters with
   ([chance %.4f], [xDelay %.3f]) *)
let round_probability p = Float.round (p *. 10000.) /. 10000.
let round_seconds s = Float.round (s *. 1000.) /. 1000.

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let describe = function
  | Drop_all t -> Printf.sprintf "drop all %s" t
  | Drop_after (t, n) -> Printf.sprintf "drop %s after %d" t n
  | Drop_first (t, n) -> Printf.sprintf "drop the first %d %s" n t
  | Drop_nth (t, n) -> Printf.sprintf "drop every %dth %s" n t
  | Drop_fraction (t, p) -> Printf.sprintf "drop %s with p=%.2f" t p
  | Omission_all p -> Printf.sprintf "general omission p=%.2f (all types)" p
  | Byzantine_mix p ->
    Printf.sprintf "byzantine channel: drop/duplicate p=%.2f each (all types)" p
  | Delay_each (t, s) -> Printf.sprintf "delay each %s by %.1fs" t s
  | Duplicate t -> Printf.sprintf "duplicate every %s" t
  | Corrupt (t, p) -> Printf.sprintf "corrupt %s with p=%.2f" t p
  | Reorder t -> Printf.sprintf "reorder consecutive %s" t
  | Inject_spurious (m, dst) ->
    Printf.sprintf "inject spurious %s toward %s" m.Spec.mtype dst

(* A canonical rendering of the fault used only for identity: unlike
   [describe] it keeps full float precision, so two faults that differ
   in the fourth decimal (as shrinking produces) never collide. *)
let canonical fault =
  let v = view fault in
  let word = function
    | Count n -> string_of_int n
    | Probability x | Seconds x -> Printf.sprintf "%h" x
    | Dst d -> d
  in
  let gen_args =
    match v.fabricated with
    | None -> []
    | Some m ->
      [ String.concat ";" (List.map (fun (k, a) -> k ^ "=" ^ a) m.Spec.gen_args) ]
  in
  String.concat "/"
    ((v.kind :: Option.to_list v.mtype) @ List.map word v.params @ gen_args)

(* FNV-1a over the canonical rendering: the fault's *identity*, not its
   position in the campaign list.  Deriving per-trial RNG seeds from
   this key means adding, removing or reordering faults in a campaign
   can never change the seed — and hence the verdict — of any other
   trial. *)
let fault_key fault = Pfi_engine.Rng.fnv1a64 (canonical fault)

(* Message types leak into generated Tcl {e variable} names (n_DATA,
   d_DATA, q_DATA).  A [$name] reference only scans alphanumerics and
   underscores, so a type like TCP's "SYN-ACK" would produce
   [$d_SYN-ACK] — read as [$d_SYN] followed by the literal "-ACK" — and
   the trial would die on an unset variable.  Characters outside the
   variable-name alphabet are mapped to '_'; alphanumeric types (every
   ABP and GMP type) pass through unchanged, keeping their generated
   scripts byte-identical. *)
let tcl_name mtype =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    mtype

(* All generated scripts share the type test; everything else hangs off
   it.  The scripts are deliberately plain — they are meant to be
   readable in test reports. *)
let script_of_fault fault =
  match fault with
  | Drop_all mtype ->
    Printf.sprintf {|
# generated: drop all %s
if {[msg_type cur_msg] == "%s"} {
  msg_log cur_msg testgen.fault
  xDrop cur_msg
}
|} mtype mtype
  | Drop_after (mtype, n) ->
    let v = tcl_name mtype in
    Printf.sprintf {|
# generated: let %d %s through, then drop
if {[msg_type cur_msg] == "%s"} {
  if {![info exists n_%s]} { set n_%s 0 }
  incr n_%s
  if {$n_%s > %d} {
    msg_log cur_msg testgen.fault
    xDrop cur_msg
  }
}
|} n mtype mtype v v v v n
  | Drop_fraction (mtype, p) ->
    Printf.sprintf {|
# generated: omission failure on %s
if {[msg_type cur_msg] == "%s" && [chance %.4f] == 1} {
  msg_log cur_msg testgen.fault
  xDrop cur_msg
}
|} mtype mtype p
  | Delay_each (mtype, seconds) ->
    Printf.sprintf {|
# generated: timing failure on %s
if {[msg_type cur_msg] == "%s"} {
  msg_log cur_msg testgen.fault
  xDelay cur_msg %.3f
}
|} mtype mtype seconds
  | Duplicate mtype ->
    Printf.sprintf {|
# generated: byzantine duplication of %s
if {[msg_type cur_msg] == "%s"} {
  msg_log cur_msg testgen.fault
  xDup cur_msg 1
}
|} mtype mtype
  | Corrupt (mtype, p) ->
    Printf.sprintf {|
# generated: byzantine corruption of %s
if {[msg_type cur_msg] == "%s" && [chance %.4f] == 1} {
  msg_log cur_msg testgen.fault
  xCorrupt cur_msg
}
|} mtype mtype p
  | Drop_first (mtype, n) ->
    let v = tcl_name mtype in
    Printf.sprintf {|
# generated: transient outage, the first %d %s frames are lost
if {[msg_type cur_msg] == "%s"} {
  if {![info exists d_%s]} { set d_%s 0 }
  if {$d_%s < %d} {
    incr d_%s
    msg_log cur_msg testgen.fault
    xDrop cur_msg
  }
}
|} n mtype mtype v v v n v
  | Drop_nth (mtype, n) ->
    let v = tcl_name mtype in
    Printf.sprintf {|
# generated: periodic loss, every %dth %s frame is dropped
if {[msg_type cur_msg] == "%s"} {
  if {![info exists k_%s]} { set k_%s 0 }
  incr k_%s
  if {$k_%s %% %d == 0} {
    msg_log cur_msg testgen.fault
    xDrop cur_msg
  }
}
|} n mtype mtype v v v v n
  | Omission_all p ->
    Printf.sprintf {|
# generated: general omission across all message types
if {[chance %.4f] == 1} {
  msg_log cur_msg testgen.fault
  xDrop cur_msg
}
|} p
  | Byzantine_mix p ->
    Printf.sprintf {|
# generated: arbitrary (byzantine) channel behaviour on all types
set r [dst_uniform 0.0 1.0]
if {$r < %.4f} {
  msg_log cur_msg testgen.fault
  xDrop cur_msg
} elseif {$r < %.4f} {
  msg_log cur_msg testgen.fault
  xDup cur_msg 1
}
|} p (2.0 *. p)
  | Reorder mtype ->
    let v = tcl_name mtype in
    Printf.sprintf {|
# generated: reorder consecutive %s (hold one, release after the next)
if {[msg_type cur_msg] == "%s"} {
  if {[xHeldCount q_%s] == 0} {
    xHold cur_msg q_%s
  } else {
    msg_log cur_msg testgen.fault
  }
} else {
  xRelease q_%s
}
|} mtype mtype v v v
  | Inject_spurious (m, dst) ->
    let args =
      String.concat " "
        (List.map (fun (k, v) -> Printf.sprintf "%s %s" k v) m.Spec.gen_args)
    in
    Printf.sprintf {|
# generated: spurious %s probe
if {![info exists injected]} { set injected 0 }
if {$injected < 5} {
  incr injected
  set probe [msg_gen %s]
  msg_set_attr $probe net.dst %s
  log testgen.fault "spurious %s"
  inject_down $probe
}
|} m.Spec.mtype args dst m.Spec.mtype

(* The systematic set uses faults a correct implementation is expected
   to tolerate, so any violation points at a defect: transient outages,
   probabilistic omission/corruption, timing, duplication, reordering,
   spurious stateless injections, and one whole-vocabulary omission
   trial. *)
let campaign ?(target = "peer") spec =
  let per_type =
    List.concat_map
      (fun (m : Spec.message) ->
        let t = m.Spec.mtype in
        let base =
          [ Drop_first (t, 5);
            Drop_fraction (t, 0.4);
            Delay_each (t, 1.5);
            Duplicate t;
            Corrupt (t, 0.4);
            Reorder t ]
        in
        if m.Spec.stateless then base @ [ Inject_spurious (m, target) ] else base)
      spec.Spec.messages
  in
  per_type @ [ Omission_all 0.3; Byzantine_mix 0.25 ]
