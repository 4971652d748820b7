open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_gmp

type env = {
  sim : Sim.t;
  pfi : Pfi_core.Pfi_layer.t;  (* on n1: the faulty participant *)
  gmds : Gmd.t list;
  n : int;
  monitors : Oracle.monitor list;  (* [trace_oracles], attached at build *)
}

(* the trace-level guarantees, stated as oracles rather than ad-hoc
   Trace.count arithmetic: no spurious IN_TRANSITION timer may ever
   fire, and proclaim forwarding must stay below storm level *)
let trace_oracles =
  [ Oracle.Never (Oracle.pattern ~tag:"gmp.spurious-timeout" ());
    Oracle.Count (Oracle.pattern ~tag:"gmp.proclaim-fwd" (), Oracle.Le, 100) ]

(* "gid=417 leader=1 ..." -> "gid=* leader=1 ...": the group id is a
   fresh counter, so two otherwise-identical state trajectories must not
   hash differently *)
let normalise_gid d =
  match String.index_opt d '=' with
  | Some i when i >= 3 && String.sub d (i - 3) 3 = "gid" ->
    let j = ref (i + 1) in
    while
      !j < String.length d
      && (match d.[!j] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr j
    done;
    String.sub d 0 (i + 1) ^ "*" ^ String.sub d !j (String.length d - !j)
  | _ -> d

let default_horizon = Vtime.sec 450
let fault_clear_at = Vtime.sec 300
let default_seed = 57L

let harness ?(bugs = Gmd.no_bugs) () : Harness_intf.packed =
  (module struct
    type nonrec env = env

    let name = if bugs = Gmd.no_bugs then "gmp" else "gmp-buggy"

    let description =
      if bugs = Gmd.no_bugs then "group membership protocol, correct"
      else "GMP with the paper's three bugs re-implanted"

    let spec = Spec.gmp
    let target = "n2"
    let default_horizon = default_horizon
    let default_seed = default_seed

    let n = 3

    let build ?scratch ~seed () =
      let sim = Sim.create ?scratch ~seed () in
      (* decided while the trial records, so a counting trace serves *)
      let monitors = List.map Oracle.monitor trace_oracles in
      List.iter (fun m -> Oracle.attach m (Sim.trace sim)) monitors;
      let net = Network.create sim in
      let names = List.init n (fun i -> (Printf.sprintf "n%d" (i + 1), i + 1)) in
      let pfi_ref = ref None in
      let gmds =
        List.map
          (fun (name, node_id) ->
            let peers = List.filter (fun (m, _) -> m <> name) names in
            let gmd = Gmd.create ~sim ~node:name ~id:node_id ~peers ~bugs () in
            let rel = Rel_udp.create ~sim ~node:name () in
            let device = Network.attach net ~node:name in
            if node_id = 1 then begin
              let pfi =
                Pfi_core.Pfi_layer.create ~sim ~node:name ~stub:Gmp_stub.stub ()
              in
              pfi_ref := Some pfi;
              Layer.stack
                [ Gmd.layer gmd; Rel_udp.layer rel;
                  Pfi_core.Pfi_layer.layer pfi; device ]
            end
            else Layer.stack [ Gmd.layer gmd; Rel_udp.layer rel; device ];
            gmd)
          names
      in
      { sim; pfi = Option.get !pfi_ref; gmds; n; monitors }

    let sim env = env.sim
    let pfi env = env.pfi

    let workload env =
      List.iteri
        (fun i gmd ->
          ignore
            (Sim.schedule env.sim ~delay:(Vtime.sec i) (fun () -> Gmd.start gmd)))
        env.gmds;
      (* the fault window is transient: heal and let the group re-form *)
      ignore
        (Sim.schedule env.sim ~delay:fault_clear_at (fun () ->
             Pfi_core.Pfi_layer.clear_send_filter env.pfi;
             Pfi_core.Pfi_layer.clear_receive_filter env.pfi))

    let check env =
      let views = List.map Gmd.view env.gmds in
      let full = List.init env.n (fun i -> i + 1) in
      match views with
      | first :: rest ->
        if first.Gmd.members <> full then
          Error
            (Printf.sprintf "final view is [%s], not the full membership"
               (String.concat "," (List.map string_of_int first.Gmd.members)))
        else if
          not
            (List.for_all
               (fun v ->
                 v.Gmd.group_id = first.Gmd.group_id
                 && v.Gmd.members = first.Gmd.members)
               rest)
        then Error "daemons disagree on the final view"
        else Oracle.check_monitors env.monitors (Sim.trace env.sim)
      | [] -> Error "no daemons"

    (* The GMP trajectory is the sequence of membership phases each
       daemon passed through: committed views (leader + membership,
       with the run-specific gid normalised away) interleaved with
       IN_TRANSITION entries.  Fuzz coverage distinguishes e.g. a run
       that re-formed the full group from one that fragmented into
       singletons. *)
    let state_tags = [ "gmp.view"; "gmp.transition"; "gmp.singleton" ]

    let state_label (e : Trace.entry) =
      Some (e.node ^ ":" ^ e.tag ^ " " ^ normalise_gid (Trace.detail e))
  end)
