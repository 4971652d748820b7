open Pfi_engine

type keepalive_probe_schedule =
  | Fixed_interval of { interval : Vtime.t; max_probes : int }
  | Exponential_backoff of { max_probes : int }

type t = {
  name : string;
  rto_min : Vtime.t;
  rto_max : Vtime.t;
  rto_initial : Vtime.t;
  rto_granule : Vtime.t;
  rttvar_floor : Vtime.t;
  use_jacobson : bool;
  karn_sampling : bool;
  karn_backoff_retention : bool;
  fast_retransmit : bool;
  max_data_retries : int;
  rst_on_timeout : bool;
  global_error_counter : bool;
  keepalive_idle : Vtime.t;
  keepalive_schedule : keepalive_probe_schedule;
  keepalive_rst_on_fail : bool;
  keepalive_garbage_byte : bool;
  persist_max : Vtime.t;
}

(* Common BSD-derived base; the three BSD vendors differ in timer
   granularity / deviation floor (visible as different adapted RTOs) and
   in the keep-alive probe format. *)
let bsd_base =
  { name = "bsd";
    rto_min = Vtime.sec 1;
    rto_max = Vtime.sec 64;
    rto_initial = Vtime.sec 6;
    rto_granule = Vtime.ms 500;
    rttvar_floor = Vtime.ms 875;
    use_jacobson = true;
    karn_sampling = true;
    karn_backoff_retention = true;
    fast_retransmit = true;
    max_data_retries = 12;
    rst_on_timeout = true;
    global_error_counter = false;
    keepalive_idle = Vtime.sec 7200;
    keepalive_schedule =
      Fixed_interval { interval = Vtime.sec 75; max_probes = 8 };
    keepalive_rst_on_fail = true;
    keepalive_garbage_byte = false;
    persist_max = Vtime.sec 60 }

let sunos_413 =
  { bsd_base with
    name = "SunOS 4.1.3";
    rttvar_floor = Vtime.ms 875;  (* adapted RTO 3 s delay -> ~6.5 s *)
    keepalive_garbage_byte = true }

let aix_323 =
  { bsd_base with
    name = "AIX 3.2.3";
    rto_granule = Vtime.ms 1000;
    rttvar_floor = Vtime.ms 1250  (* adapted RTO 3 s delay -> ~8 s *) }

let next_mach =
  { bsd_base with
    name = "NeXT Mach";
    rto_granule = Vtime.ms 250;
    rttvar_floor = Vtime.ms 500  (* adapted RTO 3 s delay -> ~5 s *) }

let solaris_23 =
  { name = "Solaris 2.3";
    rto_min = Vtime.ms 330;
    rto_max = Vtime.sec 60;
    rto_initial = Vtime.ms 330;
    rto_granule = Vtime.ms 10;
    rttvar_floor = Vtime.ms 10;
    (* observed: RTO unaffected by 3 s / 8 s ACK delays *)
    use_jacobson = false;
    karn_sampling = true;
    karn_backoff_retention = false;
    fast_retransmit = false;
    max_data_retries = 9;
    rst_on_timeout = false;
    global_error_counter = true;
    (* 6752/7200 = 56/60: the scaled-clock anomaly *)
    keepalive_idle = Vtime.sec 6752;
    keepalive_schedule = Exponential_backoff { max_probes = 7 };
    keepalive_rst_on_fail = false;
    keepalive_garbage_byte = false;
    persist_max = Vtime.sec 56 }

let all_vendors = [ sunos_413; aix_323; next_mach; solaris_23 ]

let xkernel = { bsd_base with name = "x-Kernel" }

let slug p =
  String.map (fun c -> if c = ' ' then '-' else Char.lowercase_ascii c) p.name

let find name =
  let target = String.lowercase_ascii name in
  let known = xkernel :: all_vendors in
  match
    List.find_opt (fun p -> String.lowercase_ascii p.name = target) known
  with
  | Some p -> Some p
  | None -> List.find_opt (fun p -> slug p = target) known
