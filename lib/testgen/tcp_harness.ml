open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_tcp

type phase = Handshake | Stream | Close

let phase_name = function
  | Handshake -> "handshake"
  | Stream -> "stream"
  | Close -> "close"

let phase_of_string = function
  | "handshake" -> Some Handshake
  | "stream" -> Some Stream
  | "close" -> Some Close
  | _ -> None

type env = {
  sim : Sim.t;
  pfi : Pfi_core.Pfi_layer.t;  (* on the client, between TCP and IP *)
  client : Tcp.t;
  mutable conn : Tcp.conn option;
  sent : Buffer.t;
  got : Buffer.t;
  chunks : string list;
}

let default_horizon = Vtime.minutes 10
let fault_clear_at = Vtime.minutes 3
let close_at = Vtime.minutes 1
let default_seed = Campaign.default_seed

(* deterministic payload: chunk i is a lowercase run whose length and
   phase depend only on i, so the byte stream is a pure function of the
   chunk count *)
let chunk i =
  String.init (1 + (i * 37) mod 180) (fun j -> Char.chr (97 + ((i + j) mod 26)))

(* "port=N rest" -> "rest": state labels must not depend on the
   ephemeral port *)
let strip_port d =
  match String.index_opt d ' ' with
  | Some i -> String.sub d (i + 1) (String.length d - i - 1)
  | None -> d

let conn_exn env =
  match env.conn with
  | Some c -> c
  | None -> invalid_arg "tcp harness: workload has not opened the connection"

let harness ?(chunk_count = 12) ?(profile = Profile.xkernel)
    ?(phase = Stream) ?(keepalive = false) ?(server_reads = true)
    ?(heal = true) () : Harness_intf.packed =
  (module struct
    type nonrec env = env

    let name = "tcp"
    let description = "TCP bulk transfer, client faulted below the transport"
    let spec = Spec.tcp
    let target = "server"
    let default_horizon = default_horizon
    let default_seed = default_seed

    let build ?scratch ~seed () =
      let sim = Sim.create ?scratch ~seed () in
      let net = Network.create sim in
      let client = Tcp.create ~sim ~node:"client" ~profile () in
      let pfi =
        Pfi_core.Pfi_layer.create ~sim ~node:"client" ~stub:Tcp_stub.stub ()
      in
      let c_ip = Ip_lite.create ~node:"client" in
      let c_dev = Network.attach net ~node:"client" in
      Layer.stack
        [ Tcp.layer client; Pfi_core.Pfi_layer.layer pfi; c_ip; c_dev ];
      let server = Tcp.create ~sim ~node:"server" ~profile () in
      let s_ip = Ip_lite.create ~node:"server" in
      let s_dev = Network.attach net ~node:"server" in
      Layer.stack [ Tcp.layer server; s_ip; s_dev ];
      Tcp.listen server ~port:80;
      let got = Buffer.create 4096 in
      Tcp.on_accept server (fun c ->
          if server_reads then Tcp.on_data c (Buffer.add_string got)
          else Tcp.set_auto_consume c false;
          (* orderly release from the passive side: answer the client's
             FIN with our own, driving the client through FIN_WAIT_2
             into TIME_WAIT *)
          if phase = Close then
            Tcp.on_state_change c (fun st ->
                if st = Tcp.Close_wait then Tcp.close c));
      let env =
        { sim;
          pfi;
          client;
          conn = None;
          sent = Buffer.create 4096;
          got;
          chunks = List.init chunk_count chunk }
      in
      (match phase with
       | Handshake -> ()  (* opened by the workload, under the filters *)
       | Stream | Close ->
         env.conn <- Some (Tcp.connect client ~dst:"server" ~dst_port:80 ()));
      env

    let sim env = env.sim
    let pfi env = env.pfi

    let workload env =
      (if phase = Handshake then
         env.conn <- Some (Tcp.connect env.client ~dst:"server" ~dst_port:80 ()));
      let conn = conn_exn env in
      if keepalive then Tcp.set_keepalive conn true;
      List.iteri
        (fun i data ->
          Buffer.add_string env.sent data;
          ignore
            (Sim.schedule env.sim ~delay:(Vtime.sec (2 * i)) (fun () ->
                 Tcp.send conn data)))
        env.chunks;
      (match phase with
       | Close ->
         ignore
           (Sim.schedule env.sim ~delay:close_at (fun () -> Tcp.close conn))
       | Handshake | Stream -> ());
      (* the fault window is transient: heal the channel and leave the
         rest of the horizon for retransmission to finish recovery *)
      if heal then
        ignore
          (Sim.schedule env.sim ~delay:fault_clear_at (fun () ->
               Pfi_core.Pfi_layer.clear_send_filter env.pfi;
               Pfi_core.Pfi_layer.clear_receive_filter env.pfi))

    let check env =
      let sent = Buffer.contents env.sent and got = Buffer.contents env.got in
      let conn = conn_exn env in
      let payload_ok () =
        if not (String.equal sent got) then
          Error
            (Printf.sprintf "server got %d bytes of %d sent%s"
               (String.length got) (String.length sent)
               (if String.length got = String.length sent then
                  " (content differs)"
                else ""))
        else Ok ()
      in
      match phase with
      | Handshake | Stream ->
        if Tcp.state conn <> Tcp.Established then
          Error
            (Printf.sprintf "connection ended %s, not ESTABLISHED"
               (Tcp.state_to_string (Tcp.state conn)))
        else payload_ok ()
      | Close ->
        (* orderly release must complete: the active closer's TIME_WAIT
           expired and nothing aborted the teardown *)
        (match (Tcp.state conn, Tcp.close_reason conn) with
         | Tcp.Closed, Some "time-wait-done" -> payload_ok ()
         | st, reason ->
           Error
             (Printf.sprintf "teardown ended %s (reason %s), not TIME_WAIT-expired"
                (Tcp.state_to_string st)
                (match reason with Some r -> r | None -> "-")))

    (* The TCP trajectory is the textbook FSM walk each endpoint took:
       [tcp.state] details read "port=N STATE -> STATE"; the ephemeral
       port is stripped so the labels depend only on the transition.
       Terminal [tcp.closed] reasons ride along so teardown outcomes
       (time-wait-done vs reset-received vs rexmt-exhausted) are
       distinct coverage states. *)
    let state_tags = [ "tcp.state"; "tcp.closed" ]

    let state_label (e : Trace.entry) =
      if String.equal e.tag "tcp.state" then
        Some (e.node ^ ":" ^ strip_port (Trace.detail e))
      else
        (* "port=N reason=R" -> "node:closed reason=R" *)
        Some (e.node ^ ":closed " ^ strip_port (Trace.detail e))
  end)
