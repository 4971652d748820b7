(* TCP probing: two of the paper's techniques against a live vendor TCP.

   1. The Table 1 experiment for one vendor: let 30 packets through,
      then drop everything and watch the retransmission schedule.
   2. A probe the passive-monitoring approaches cannot do: inject a
      spurious ACK from the PFI layer and watch the vendor's reaction.

   Run with:  dune exec examples/tcp_probing.exe *)

open Pfi_engine
open Pfi_core
open Pfi_tcp
open Pfi_testgen

let () =
  let profile = Profile.sunos_413 in
  Printf.printf "=== probing %s ===\n\n" profile.Profile.name;

  (* --- 1. retransmission schedule under total silence ------------- *)
  let rig = Tcp_rig.make ~profile () in
  let vconn, _xc = Tcp_rig.connect rig in
  Pfi_layer.set_receive_filter rig.Tcp_rig.pfi
    {|
if {![info exists count]} { set count 0 }
incr count
if {$count > 30} {
  log exp.drop [msg_field cur_msg seq]
  xDrop cur_msg
}
|};
  Tcp_rig.feed_vendor rig ~conn:vconn ~chunk:128 ~every:(Vtime.ms 400) ~count:60;
  Sim.run ~until:(Vtime.hours 1) rig.Tcp_rig.sim;
  let entries = Tcp_rig.drop_log rig ~tag:"exp.drop" in
  let seq, times = Tcp_rig.busiest_seq entries in
  Printf.printf "dropped segment seq=%d was (re)transmitted %d times:\n" seq
    (List.length times);
  List.iteri
    (fun i interval ->
      Printf.printf "  retransmission %2d after %6.1f s\n" (i + 1)
        (Vtime.to_sec_f interval))
    (Tcp_rig.intervals times);
  Printf.printf "vendor closed the connection: %s, RST count: %d\n\n"
    (match Tcp.close_reason vconn with Some r -> r | None -> "still open")
    (Trace.count ~node:Tcp_rig.vendor_node ~tag:"tcp.rst-sent"
       (Sim.trace rig.Tcp_rig.sim));

  (* --- 2. spurious-ACK injection ----------------------------------- *)
  let rig2 = Tcp_rig.make ~profile () in
  let vconn2, xc2 = Tcp_rig.connect rig2 in
  ignore xc2;
  (* generate an ACK claiming data the x-Kernel never received; the
     PFI layer can do this because an ACK carries no protocol state *)
  Pfi_layer.set_receive_filter rig2.Tcp_rig.pfi
    {|
if {[msg_type cur_msg] == "DATA" && ![info exists probed]} {
  set probed 1
  set fake_ack [expr {[msg_field cur_msg seq] + 9999}]
  set probe [msg_gen type ACK sport [msg_field cur_msg dport] \
                 dport [msg_field cur_msg sport] \
                 seq [msg_field cur_msg ack] ack $fake_ack window 4096 \
                 dst vendor]
  log probe.injected "spurious ack=$fake_ack"
  inject_down $probe
}
|};
  Tcp.send vconn2 "some data the vendor sends";
  Sim.run ~until:(Vtime.add (Sim.now rig2.Tcp_rig.sim) (Vtime.sec 30)) rig2.Tcp_rig.sim;
  print_endline "spurious-ACK probe (acknowledging data never sent):";
  List.iter
    (fun e -> Printf.printf "  injected: %s\n" (Trace.detail e))
    (Trace.find ~tag:"probe.injected" (Sim.trace rig2.Tcp_rig.sim));
  Printf.printf
    "  vendor ignored the out-of-range ACK and stayed %s (snd_una=%d)\n"
    (Tcp.state_to_string (Tcp.state vconn2))
    (Tcp.snd_una vconn2)
