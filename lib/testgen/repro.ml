open Pfi_engine

(* for the callers that still name the codec [Repro.Json] *)
module Json = Json

(* ------------------------------------------------------------------ *)
(* Fault <-> JSON                                                     *)
(* ------------------------------------------------------------------ *)

(* one fold over the fault's view each way; which faults are legal is
   [Generator.of_view]'s call *)
let fault_to_json fault =
  let v = Generator.view fault in
  let param = function
    | Generator.Count n -> Json.Int n
    | Generator.Probability x | Generator.Seconds x -> Json.Float x
    | Generator.Dst d -> Json.Str d
  in
  Json.Obj
    ((("kind", Json.Str v.Generator.kind)
     :: List.map (fun t -> ("mtype", Json.Str t)) (Option.to_list v.Generator.mtype))
    @ (match v.Generator.fabricated with
       | None -> []
       | Some m ->
         [ ("stateless", Json.Bool m.Spec.stateless);
           ( "gen_args",
             Json.Obj (List.map (fun (k, a) -> (k, Json.Str a)) m.Spec.gen_args) ) ])
    @ List.map (fun p -> (Generator.param_key p, param p)) v.Generator.params)

let fault_of_json ~spec j =
  let ( let* ) = Result.bind in
  let param key =
    Json.field ~what:"fault"
      (fun v ->
        match key with
        | "n" -> Option.map (fun n -> Generator.Count n) (Json.to_int v)
        | "p" -> Option.map (fun p -> Generator.Probability p) (Json.to_float v)
        | "seconds" -> Option.map (fun s -> Generator.Seconds s) (Json.to_float v)
        | _ -> Option.map (fun d -> Generator.Dst d) (Json.to_str v))
      key j
  in
  let* kind = Json.field ~what:"fault" Json.to_str "kind" j in
  let named, keys = Option.value (Generator.shape kind) ~default:(false, []) in
  let* mtype =
    if named then Result.map Option.some (Json.field ~what:"fault" Json.to_str "mtype" j)
    else Ok None
  in
  let* params = Json.decode_list param keys in
  Result.map_error
    (fun (field, reason) -> Printf.sprintf "fault.%s: %s" field reason)
    (Generator.of_view ~spec
       { Generator.kind; mtype; params; fabricated = None })

(* ------------------------------------------------------------------ *)
(* The artifact                                                       *)
(* ------------------------------------------------------------------ *)

type shrink_step = {
  step_fault : Generator.fault;
  step_side : Campaign.side;
  step_seed : int64;
  step_size : int;
  step_reason : string;
}

type t = {
  version : int;
  harness : string;
  protocol : string;
  target : string;
  fault : Generator.fault;
  side : Campaign.side;
  horizon : Vtime.t;
  seed : int64;
  campaign_seed : int64;
  script : string;
  verdict : Campaign.verdict;
  injected_events : int;
  shrink_trajectory : shrink_step list;
}

let current_version = 1

let of_outcome ~harness ~protocol ~target ~horizon ~campaign_seed
    (o : Campaign.outcome) =
  { version = current_version;
    harness;
    protocol;
    target;
    fault = o.Campaign.fault;
    side = o.Campaign.side;
    horizon;
    seed = o.Campaign.seed;
    campaign_seed;
    script = Generator.script_of_fault o.Campaign.fault;
    verdict = o.Campaign.verdict;
    injected_events = o.Campaign.injected_events;
    shrink_trajectory = [] }

let verdict_to_json = function
  | Campaign.Tolerated -> Json.Obj [ ("status", Json.Str "tolerated") ]
  | Campaign.Violation reason ->
    Json.Obj [ ("status", Json.Str "violation"); ("reason", Json.Str reason) ]

let verdict_of_json j =
  match Option.bind (Json.member "status" j) Json.to_str with
  | Some "tolerated" -> Ok Campaign.Tolerated
  | Some "violation" ->
    (match Option.bind (Json.member "reason" j) Json.to_str with
     | Some reason -> Ok (Campaign.Violation reason)
     | None -> Error "verdict: violation without a reason")
  | Some other -> Error (Printf.sprintf "verdict: unknown status %S" other)
  | None -> Error "verdict: missing status"

(* int64 values (seeds, horizon in µs) are emitted as decimal strings:
   JSON numbers are doubles, and a splitmix64-derived seed does not fit
   in 53 bits. *)
let int64_str v = Json.Str (Int64.to_string v)

let step_to_json s =
  Json.Obj
    [ ("fault", fault_to_json s.step_fault);
      ("side", Json.Str (Campaign.side_name s.step_side));
      ("seed", int64_str s.step_seed);
      ("size", Json.Int s.step_size);
      ("reason", Json.Str s.step_reason) ]

let to_json (a : t) : string =
  Json.to_string
    (Json.Obj
       [ ("version", Json.Int a.version);
         ("harness", Json.Str a.harness);
         ("protocol", Json.Str a.protocol);
         ("target", Json.Str a.target);
         ("fault", fault_to_json a.fault);
         ("side", Json.Str (Campaign.side_name a.side));
         ("horizon_us", int64_str (Vtime.to_us a.horizon));
         ("seed", int64_str a.seed);
         ("campaign_seed", int64_str a.campaign_seed);
         ("script", Json.Str a.script);
         ("verdict", verdict_to_json a.verdict);
         ("injected_events", Json.Int a.injected_events);
         ("shrink_trajectory", Json.List (List.map step_to_json a.shrink_trajectory)) ])
  ^ "\n"

let ( let* ) = Result.bind

let side_of_member j key =
  let* name = Json.field ~what:"artifact" Json.to_str key j in
  match Campaign.side_of_name name with
  | Some side -> Ok side
  | None -> Error (Printf.sprintf "artifact: unknown side %S" name)

(* every step runs at the artifact's horizon: a step's [horizon_us],
   which older artifacts carry, is ignored *)
let step_of_json ~spec j =
  let* fault = Result.bind (Json.field ~what:"artifact" Option.some "fault" j) (fault_of_json ~spec) in
  let* side = side_of_member j "side" in
  let* seed = Json.int64_field ~what:"artifact" "seed" j in
  let* size = Json.field ~what:"artifact" Json.to_int "size" j in
  let* reason = Json.field ~what:"artifact" Json.to_str "reason" j in
  Ok
    { step_fault = fault;
      step_side = side;
      step_seed = seed;
      step_size = size;
      step_reason = reason }

let of_string (s : string) : (t, string) result =
  let* j = Json.parse s in
  let* version = Json.field ~what:"artifact" Json.to_int "version" j in
  if version > current_version then
    Error (Printf.sprintf "artifact: version %d is newer than supported %d"
             version current_version)
  else
    let* harness = Json.field ~what:"artifact" Json.to_str "harness" j in
    let* spec =
      match Registry.find harness with
      | Some packed -> Ok (Harness_intf.spec packed)
      | None ->
        Error
          (Printf.sprintf "artifact: unknown harness %S (expected one of %s)"
             harness (String.concat ", " Registry.names))
    in
    let* protocol = Json.field ~what:"artifact" Json.to_str "protocol" j in
    let* target = Json.field ~what:"artifact" Json.to_str "target" j in
    let* fault = Result.bind (Json.field ~what:"artifact" Option.some "fault" j) (fault_of_json ~spec) in
    let* side = side_of_member j "side" in
    let* horizon_us = Json.int64_field ~what:"artifact" "horizon_us" j in
    let* seed = Json.int64_field ~what:"artifact" "seed" j in
    let* campaign_seed = Json.int64_field ~what:"artifact" "campaign_seed" j in
    let* script = Json.field ~what:"artifact" Json.to_str "script" j in
    let* verdict =
      Result.bind (Json.field ~what:"artifact" Option.some "verdict" j) verdict_of_json
    in
    let* injected_events = Json.field ~what:"artifact" Json.to_int "injected_events" j in
    let* shrink_trajectory =
      match Json.member "shrink_trajectory" j with
      | None -> Ok []
      | Some (Json.List steps) -> Json.decode_list (step_of_json ~spec) steps
      | Some _ -> Error "artifact: shrink_trajectory not a list"
    in
    Ok
      { version;
        harness;
        protocol;
        target;
        fault;
        side;
        horizon = Vtime.us (Int64.to_int horizon_us);
        seed;
        campaign_seed;
        script;
        verdict;
        injected_events;
        shrink_trajectory }

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

let save path (a : t) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_json a))

let load path : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '-')
    (String.lowercase_ascii s)

let filename ~index (a : t) =
  Printf.sprintf "repro-%03d-%s-%s.json" index
    (Campaign.side_name a.side)
    (slug (Generator.describe a.fault))
