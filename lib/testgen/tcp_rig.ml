open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core
open Pfi_tcp

type t = {
  sim : Sim.t;
  net : Network.t;
  vendor_tcp : Tcp.t;
  xk_tcp : Tcp.t;
  pfi : Pfi_layer.t;
}

let vendor_node = "vendor"
let xk_node = "xkernel"
let service_port = 7777

let make ~profile ?scratch ?(seed = 101L) () =
  let sim = Sim.create ?scratch ~seed () in
  let net = Network.create sim in
  (* vendor machine: TCP / IP / device *)
  let vendor_tcp = Tcp.create ~sim ~node:vendor_node ~profile () in
  let vendor_ip = Ip_lite.create ~node:vendor_node in
  let vendor_dev = Network.attach net ~node:vendor_node in
  Layer.stack [ Tcp.layer vendor_tcp; vendor_ip; vendor_dev ];
  (* x-Kernel machine: TCP / PFI / IP / device (Figure 3) *)
  let xk_tcp = Tcp.create ~sim ~node:xk_node ~profile:Profile.xkernel () in
  let pfi = Pfi_layer.create ~sim ~node:xk_node ~stub:Tcp_stub.stub () in
  let xk_ip = Ip_lite.create ~node:xk_node in
  let xk_dev = Network.attach net ~node:xk_node in
  Layer.stack [ Tcp.layer xk_tcp; Pfi_layer.layer pfi; xk_ip; xk_dev ];
  Tcp.listen xk_tcp ~port:service_port;
  { sim; net; vendor_tcp; xk_tcp; pfi }

let connect t =
  let xk_conn = ref None in
  Tcp.on_accept t.xk_tcp (fun c -> xk_conn := Some c);
  let vendor_conn =
    Tcp.connect t.vendor_tcp ~dst:xk_node ~dst_port:service_port ()
  in
  Sim.run ~until:(Vtime.add (Sim.now t.sim) (Vtime.sec 30)) t.sim;
  match (!xk_conn, Tcp.state vendor_conn) with
  | Some xc, Tcp.Established -> (vendor_conn, xc)
  | _ -> failwith "tcp_rig: handshake did not complete"

let feed_vendor t ~conn ~chunk ~every ~count =
  let payload = String.make chunk 'd' in
  for i = 0 to count - 1 do
    ignore
      (Sim.schedule t.sim ~delay:(Vtime.mul every i) (fun () ->
           if Tcp.state conn = Tcp.Established then Tcp.send conn payload))
  done

let busiest_seq entries =
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (seq, time) ->
      let existing = Option.value (Hashtbl.find_opt counts seq) ~default:[] in
      Hashtbl.replace counts seq (time :: existing))
    entries;
  let best = ref (0, []) in
  Hashtbl.iter
    (fun seq times ->
      if List.length times > List.length (snd !best) then best := (seq, times))
    counts;
  let seq, times = !best in
  (seq, List.rev times)

let intervals times =
  let rec diffs = function
    | a :: (b :: _ as rest) -> Vtime.sub b a :: diffs rest
    | [ _ ] | [] -> []
  in
  diffs times
