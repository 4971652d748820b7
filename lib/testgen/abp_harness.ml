open Pfi_engine
open Pfi_stack
open Pfi_netsim

type env = {
  sim : Sim.t;
  pfi : Pfi_core.Pfi_layer.t;
  sender : Pfi_abp.Abp.t;
  receiver : Pfi_abp.Abp.t;
  expected : string list;
}

let default_horizon = Vtime.sec 120

let harness ?(bug_ignore_ack_bit = false) () :
    Harness_intf.packed =
  (module struct
    type nonrec env = env

    let name = if bug_ignore_ack_bit then "abp-buggy" else "abp"

    let description =
      if bug_ignore_ack_bit then
        "ABP with the implanted ignore-ack-bit bug"
      else "alternating-bit protocol, correct"

    let spec = Spec.abp
    let target = "bob"
    let default_horizon = default_horizon
    let default_seed = Campaign.default_seed

    let build ?scratch ~seed () =
      let sim = Sim.create ?scratch ~seed () in
      let net = Network.create sim in
      let sender =
        Pfi_abp.Abp.create ~sim ~node:"alice" ~peer:"bob" ~bug_ignore_ack_bit ()
      in
      let pfi =
        Pfi_core.Pfi_layer.create ~sim ~node:"alice" ~stub:Pfi_abp.Abp.stub ()
      in
      let dev_a = Network.attach net ~node:"alice" in
      Layer.stack
        [ Pfi_abp.Abp.layer sender; Pfi_core.Pfi_layer.layer pfi; dev_a ];
      let receiver =
        Pfi_abp.Abp.create ~sim ~node:"bob" ~peer:"alice" ~bug_ignore_ack_bit ()
      in
      let dev_b = Network.attach net ~node:"bob" in
      Layer.stack [ Pfi_abp.Abp.layer receiver; dev_b ];
      let expected = List.init 20 (Printf.sprintf "msg-%02d") in
      { sim; pfi; sender; receiver; expected }

    let sim env = env.sim
    let pfi env = env.pfi

    let workload env =
      List.iteri
        (fun i text ->
          ignore
            (Sim.schedule env.sim ~delay:(Vtime.sec i) (fun () ->
                 Pfi_abp.Abp.send env.sender text)))
        env.expected

    let check env =
      let got = Pfi_abp.Abp.delivered env.receiver in
      if got <> env.expected then
        Error
          (Printf.sprintf "delivered %d/%d messages%s" (List.length got)
             (List.length env.expected)
             (if List.length got = List.length env.expected then
                " (wrong order/content)"
              else ""))
      else if Pfi_abp.Abp.unacked env.sender > 0 then
        Error
          (Printf.sprintf "%d messages never acknowledged"
             (Pfi_abp.Abp.unacked env.sender))
      else Ok ()

    (* The ABP FSM is the sender's alternating bit: the trajectory is
       the sequence of send-bit values, collapsed to its alternations.
       A healthy run reads 0,1,0,1,...; a stuck bit (the implanted
       ignore-ack-bit bug under duplication) shows up as a short
       trajectory that stops alternating. *)
    let state_tags = [ "abp.out" ]

    let state_label e =
      let d = Trace.detail e in
      match String.index_opt d '=' with
      | Some i when i + 1 < String.length d ->
        Some (Printf.sprintf "send-bit=%c" d.[i + 1])
      | _ -> None
  end)
