(* GMP under faults: a five-daemon cluster survives a partition, heals,
   and re-merges — printing the membership timeline as it evolves.

   Run with:  dune exec examples/gmp_chaos.exe *)

open Pfi_engine
open Pfi_gmp
open Pfi_testgen

let show rig label =
  Printf.printf "%-28s" label;
  List.iter
    (fun name ->
      let v = Gmd.view (rig.Gmp_rig.node name).Gmp_rig.gmd in
      Printf.printf " %s:{%s}" name
        (String.concat "," (List.map string_of_int v.Gmd.members)))
    rig.Gmp_rig.names;
  print_newline ()

let () =
  let rig = Gmp_rig.make ~n:5 () in
  let sim = rig.Gmp_rig.sim in
  Gmp_rig.start rig ~stagger:(Vtime.sec 1) ();

  let at t label f =
    ignore
      (Sim.schedule sim ~delay:(Vtime.sec t) (fun () ->
           f ();
           show rig (Printf.sprintf "[t=%3ds] %s" t label)))
  in
  at 40 "formed" (fun () -> ());
  at 60 "partition {1,2,3}|{4,5}" (fun () ->
      Pfi_netsim.Network.partition rig.Gmp_rig.net
        [ [ "compsun1"; "compsun2"; "compsun3" ]; [ "compsun4"; "compsun5" ] ]);
  at 140 "after partition settles" (fun () -> ());
  at 160 "heal" (fun () -> Pfi_netsim.Network.heal rig.Gmp_rig.net);
  at 240 "after re-merge" (fun () -> ());
  at 260 "crash the leader" (fun () ->
      Gmd.stop (rig.Gmp_rig.node "compsun1").Gmp_rig.gmd);
  at 340 "crown prince took over" (fun () -> ());

  Sim.run ~until:(Vtime.sec 350) sim;

  print_newline ();
  print_endline "view history of compsun4 (every committed view, in order):";
  List.iter
    (fun v ->
      Printf.printf "  gid=%-9d leader=%d members={%s}\n" v.Gmd.group_id
        v.Gmd.leader
        (String.concat "," (List.map string_of_int v.Gmd.members)))
    (Gmd.view_history (rig.Gmp_rig.node "compsun4").Gmp_rig.gmd)
