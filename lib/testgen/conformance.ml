open Pfi_engine
open Pfi_tcp

type check = {
  ck_label : string;
  ck_paper : string;
  ck_measured : string;
  ck_pass : bool;
}

(* A report section.  Vendor sections render under the tcp catalog's
   header, paper sections under the paper catalog's. *)
type section = {
  sec_key : string;
  sec_title : string;
  sec_blurb : string;
  sec_paper : bool;
}

(* One catalog entry of either catalog.  Its trial runs on this
   domain's arena from the profile override and the derived row seed,
   reads what it measures from collectors attached before its testbed
   is built, and returns its checks.  A vendor row's oracle closes over
   the row's own profile, so [run ~profile_override] keeps the
   expectations while swapping the system under test; a paper row
   ignores the override ([run] refuses one). *)
type row = {
  row_id : string;
  row_section : section;
  row_slug : string;
  row_subject : string;  (** display name: the vendor, or a paper row's case *)
  row_quirk : string;
  row_side : Campaign.side;  (** keys the row seed: its filter's side *)
  row_trial : Profile.t option -> int64 -> check list;
}

let row_id r = r.row_id
let row_section r = r.row_section.sec_key
let row_vendor r = r.row_slug

(* ------------------------------------------------------------------ *)
(* Trace measurement helpers                                          *)
(* ------------------------------------------------------------------ *)

(* trace details are "key=value" token lists ("port=32769 n=3 rto=64.000s") *)
let kv detail key =
  String.split_on_char ' ' detail
  |> List.find_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i when String.sub tok 0 i = key ->
           Some (String.sub tok (i + 1) (String.length tok - i - 1))
         | _ -> None)

let kv_exn e key =
  match kv (Trace.detail e) key with
  | Some v -> v
  | None -> "?"

let kv_int e key =
  match kv (Trace.detail e) key with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
  | None -> 0

(* [node]'s entries with one of [tags], by tag in recording order,
   kept by a feed.  Asking for another tag is a bug: [List.assoc]
   raises. *)
let collect trace ~node ~tags =
  let cells = List.map (fun tag -> (tag, ref [])) tags in
  Trace.attach trace ~tags:(Some tags) (fun _ (e : Trace.entry) ->
      if String.equal e.node node then
        let cell = List.assoc e.tag cells in
        cell := e :: !cell);
  fun tag -> List.rev !(List.assoc tag cells)

(* the client entries the quirk oracles read *)
let client_tags =
  [ "tcp.retransmit"; "tcp.closed"; "tcp.rst-sent"; "tcp.keepalive-probe";
    "tcp.in"; "tcp.out"; "tcp.persist-probe"; "tcp.state" ]

let gaps entries =
  let rec go = function
    | a :: (b :: _ as rest) ->
      Vtime.sub b.Trace.time a.Trace.time :: go rest
    | _ -> []
  in
  go entries

let monotone_nondecreasing vs =
  let rec go = function
    | a :: (b :: _ as rest) -> Vtime.(b >= a) && go rest
    | _ -> true
  in
  go vs

let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))

(* "did the give-up send a RST?" — the engine records tcp.rst-sent at
   the same timestamp as the terminal tcp.closed *)
let failure_action client =
  match client "tcp.closed" with
  | [] -> "still open"
  | closed :: _ ->
    if
      List.exists
        (fun e -> Vtime.equal e.Trace.time closed.Trace.time)
        (client "tcp.rst-sent")
    then "RST"
    else "silent close"

let close_reason client =
  match client "tcp.closed" with
  | [] -> "none"
  | e :: _ -> kv_exn e "reason"

let rst_name b = if b then "RST" else "silent close"

let service_measured = function
  | Campaign.Tolerated -> "intact"
  | Campaign.Violation d -> "violated: " ^ d

(* ------------------------------------------------------------------ *)
(* Check constructors                                                 *)
(* ------------------------------------------------------------------ *)

let check label ~paper ~measured =
  { ck_label = label; ck_paper = paper; ck_measured = measured;
    ck_pass = String.equal paper measured }

let check_int label ~paper ~measured =
  { ck_label = label;
    ck_paper = string_of_int paper;
    ck_measured = string_of_int measured;
    ck_pass = paper = measured }

let check_at_least label ~floor ~measured =
  { ck_label = label;
    ck_paper = Printf.sprintf "%d or more" floor;
    ck_measured = string_of_int measured;
    ck_pass = measured >= floor }

(* ------------------------------------------------------------------ *)
(* Section oracles                                                    *)
(* ------------------------------------------------------------------ *)

(* paper Table 1: exhaust the retransmission machinery on one stalled
   segment and read off the retry budget, the backoff shape and the
   give-up behaviour *)
let rexmt_oracle (p : Profile.t) _verdict client =
  let rx = client "tcp.retransmit" in
  let retries = List.fold_left (fun acc e -> max acc (kv_int e "n")) 0 rx in
  let rx_gaps = gaps rx in
  [ check_int "retransmissions before giving up"
      ~paper:p.Profile.max_data_retries ~measured:retries;
    check "backoff trend" ~paper:"monotone non-decreasing"
      ~measured:
        (if monotone_nondecreasing rx_gaps then "monotone non-decreasing"
         else "erratic");
    check "backoff ceiling" ~paper:(Vtime.to_string p.Profile.rto_max)
      ~measured:
        (match last rx_gaps with
         | Some g -> Vtime.to_string g
         | None -> "no retransmissions");
    check "failure action" ~paper:(rst_name p.Profile.rst_on_timeout)
      ~measured:(failure_action client);
    check "close reason" ~paper:"rexmt-exhausted"
      ~measured:(close_reason client) ]

(* paper Table 2 / §4.1: three ACKs pass, the fourth is delayed 35 s,
   the rest vanish — two messages stall in sequence, and the second
   one's retry budget reveals whether timeouts are counted per message
   or in one global error counter *)
let counter_script =
  {|
if {[msg_type cur_msg] == "ACK"} {
  if {![info exists acks]} { set acks 0 }
  incr acks
  if {$acks == 4} { xDelay cur_msg 35.0 }
  if {$acks > 4} { xDrop cur_msg }
}
|}

let counter_oracle (p : Profile.t) _verdict client =
  (* per-stalled-message retry counts, in first-stall order *)
  let groups : (string * int ref) list ref = ref [] in
  List.iter
    (fun e ->
      let seq = kv_exn e "seq" and n = kv_int e "n" in
      match List.assoc_opt seq !groups with
      | Some cell -> cell := max !cell n
      | None -> groups := !groups @ [ (seq, ref n) ])
    (client "tcp.retransmit");
  let accounting =
    match !groups with
    | [ (_, m1); (_, m2) ] ->
      if !m2 = p.Profile.max_data_retries then
        "per-message (an ACK resets the count)"
      else if !m1 + !m2 = p.Profile.max_data_retries then
        "global (second message inherits the count)"
      else Printf.sprintf "unrecognized (%d then %d retries)" !m1 !m2
    | gs -> Printf.sprintf "unrecognized (%d stalled messages)" (List.length gs)
  in
  [ check_int "stalled messages observed" ~paper:2
      ~measured:(List.length !groups);
    check "retry accounting"
      ~paper:
        (if p.Profile.global_error_counter then
           "global (second message inherits the count)"
         else "per-message (an ACK resets the count)")
      ~measured:accounting;
    check "failure action" ~paper:(rst_name p.Profile.rst_on_timeout)
      ~measured:(failure_action client);
    check "close reason" ~paper:"rexmt-exhausted"
      ~measured:(close_reason client) ]

(* paper Table 3: idle threshold, probe schedule, probe payload (the
   SunOS garbage byte) and the give-up behaviour, measured while every
   probe is swallowed by a send-side filter *)
let keepalive_oracle (p : Profile.t) _verdict client =
  let probes = client "tcp.keepalive-probe" in
  let idle =
    match probes with
    | [] -> "no probes"
    | first :: _ ->
      (* idle = first probe time minus the last segment the client
         received before it (the engine re-arms off last_recv_time) *)
      let before =
        List.filter
          (fun e -> Vtime.(e.Trace.time < first.Trace.time))
          (client "tcp.in")
      in
      (match last before with
       | Some e -> Vtime.to_string (Vtime.sub first.Trace.time e.Trace.time)
       | None -> "no traffic")
  in
  let schedule =
    let probe_gaps = gaps probes in
    if probe_gaps = [] then "single probe"
    else if
      List.for_all (fun g -> Vtime.equal g (List.hd probe_gaps)) probe_gaps
    then "fixed " ^ Vtime.to_string (List.hd probe_gaps)
    else if monotone_nondecreasing probe_gaps then "exponential backoff"
    else "erratic"
  in
  let payload =
    match probes with
    | [] -> "no probes"
    | first :: _ -> (
      match
        List.find_opt
          (fun e -> Vtime.equal e.Trace.time first.Trace.time)
          (client "tcp.out")
      with
      | None -> "probe not emitted"
      | Some e ->
        if kv (Trace.detail e) "len" = Some "1" then "1 garbage byte"
        else "bare ACK")
  in
  let max_probes =
    match p.Profile.keepalive_schedule with
    | Profile.Fixed_interval { max_probes; _ } -> max_probes
    | Profile.Exponential_backoff { max_probes } -> max_probes
  in
  [ check "idle before first probe"
      ~paper:(Vtime.to_string p.Profile.keepalive_idle) ~measured:idle;
    check_int "probes before giving up" ~paper:(max_probes + 1)
      ~measured:(List.length probes);
    check "probe schedule"
      ~paper:
        (match p.Profile.keepalive_schedule with
         | Profile.Fixed_interval { interval; _ } ->
           "fixed " ^ Vtime.to_string interval
         | Profile.Exponential_backoff _ -> "exponential backoff")
      ~measured:schedule;
    check "probe payload"
      ~paper:
        (if p.Profile.keepalive_garbage_byte then "1 garbage byte"
         else "bare ACK")
      ~measured:payload;
    check "failure action" ~paper:(rst_name p.Profile.keepalive_rst_on_fail)
      ~measured:(failure_action client);
    check "close reason" ~paper:"keepalive-exhausted"
      ~measured:(close_reason client) ]

(* paper Table 4: the server stops consuming, the window shuts, and
   the persist timer's probe interval backs off to a vendor ceiling —
   and never gives up *)
let zerowin_oracle (p : Profile.t) _verdict client =
  let probes = client "tcp.persist-probe" in
  [ check "probe-interval ceiling"
      ~paper:(Vtime.to_string p.Profile.persist_max)
      ~measured:
        (match last probes with
         | Some e -> kv_exn e "interval"
         | None -> "no probes");
    check "probe-interval trend" ~paper:"monotone non-decreasing"
      ~measured:
        (if monotone_nondecreasing (gaps probes) then
           "monotone non-decreasing"
         else "erratic");
    check_at_least "persist probes observed" ~floor:20
      ~measured:(List.length probes);
    check "gives up?" ~paper:"probes forever"
      ~measured:
        (match client "tcp.closed" with
         | [] -> "probes forever"
         | e :: _ -> "closes (" ^ kv_exn e "reason" ^ ")") ]

(* beyond the paper's tables: the 10-state FSM's opening leg — both
   initial SYNs are dropped, the handshake must complete off the
   retransmission timer *)
let handshake_oracle (_ : Profile.t) verdict client =
  let retries =
    List.fold_left
      (fun acc e -> max acc (kv_int e "n"))
      0
      (client "tcp.retransmit")
  in
  [ check_int "SYN retransmissions" ~paper:2 ~measured:retries;
    check "connection established" ~paper:"yes"
      ~measured:
        (if
           (* detail is "port=N SYN_SENT -> ESTABLISHED" *)
           List.exists
             (fun e ->
               let d = Trace.detail e in
               String.length d >= 11
               && String.sub d (String.length d - 11) 11 = "ESTABLISHED")
             (client "tcp.state")
         then "yes"
         else "no");
    check "stream delivered" ~paper:"intact"
      ~measured:(service_measured verdict) ]

(* beyond the paper's tables: orderly release — the FSM walk through
   FIN_WAIT_1/FIN_WAIT_2/TIME_WAIT must survive a duplicated FIN, and
   the 2MSL wait must expire on its own *)
let teardown_oracle (_ : Profile.t) verdict client =
  let transitions =
    List.map
      (fun e ->
        (* "port=N A -> B" *)
        let d = Trace.detail e in
        match String.index_opt d ' ' with
        | Some i -> String.sub d (i + 1) (String.length d - i - 1)
        | None -> d)
      (client "tcp.state")
  in
  let walk =
    match transitions with
    | [] -> "no transitions"
    | first :: _ ->
      let start =
        match String.index_opt first ' ' with
        | Some i -> String.sub first 0 i
        | None -> first
      in
      List.fold_left
        (fun acc t ->
          match String.rindex_opt t ' ' with
          | Some i -> acc ^ " -> " ^ String.sub t (i + 1) (String.length t - i - 1)
          | None -> acc)
        start transitions
  in
  let state_time suffix =
    List.find_opt
      (fun e ->
        let d = Trace.detail e in
        String.length d >= String.length suffix
        && String.sub d (String.length d - String.length suffix)
             (String.length suffix)
           = suffix)
      (client "tcp.state")
  in
  let msl2 =
    match (state_time "-> TIME_WAIT", state_time "TIME_WAIT -> CLOSED") with
    | Some enter, Some leave ->
      Vtime.to_string (Vtime.sub leave.Trace.time enter.Trace.time)
    | _ -> "TIME_WAIT not traversed"
  in
  [ check "client FSM walk"
      ~paper:
        "SYN_SENT -> ESTABLISHED -> FIN_WAIT_1 -> FIN_WAIT_2 -> TIME_WAIT \
         -> CLOSED"
      ~measured:walk;
    check "2MSL wait" ~paper:(Vtime.to_string (Vtime.minutes 1)) ~measured:msl2;
    check "close reason" ~paper:"time-wait-done" ~measured:(close_reason client);
    check "stream delivered" ~paper:"intact"
      ~measured:(service_measured verdict) ]

(* ------------------------------------------------------------------ *)
(* The catalog                                                        *)
(* ------------------------------------------------------------------ *)

let vendor_sections =
  [ { sec_key = "rexmt";
      sec_title = "Retransmission exhaustion (paper Table 1)";
      sec_blurb =
        "A single DATA segment is stalled forever — every outgoing DATA is \
         dropped below the client's transport with no heal — and the \
         retransmission machinery runs to exhaustion.";
      sec_paper = false };
    { sec_key = "counter";
      sec_title = "Retry accounting across messages (paper Table 2, \xc2\xa74.1)";
      sec_blurb =
        "ACKs returning to the client are filtered: three pass, the fourth \
         is delayed 35 s, the rest vanish — the paper's \
         global-error-counter rig.  Two messages stall in sequence; the \
         second one's retry budget reveals whether timeouts are counted \
         per message or in one global error counter.";
      sec_paper = false };
    { sec_key = "keepalive";
      sec_title = "Keep-alive probing (paper Table 3)";
      sec_blurb =
        "The connection idles with keep-alive enabled; after the transfer \
         (and the harness's fault-heal point) a send-side filter swallows \
         every probe, so the probe schedule runs to exhaustion.";
      sec_paper = false };
    { sec_key = "zerowin";
      sec_title = "Zero-window probing (paper Table 4)";
      sec_blurb =
        "The server stops consuming, its advertised window closes, and \
         the client's persist timer probes the closed window — backing \
         off to a vendor-specific ceiling, forever.";
      sec_paper = false };
    { sec_key = "handshake";
      sec_title = "Connection establishment under SYN loss";
      sec_blurb =
        "Beyond the paper's tables: the first two SYNs of an active open \
         are dropped, exercising the SYN_SENT retransmission leg of the \
         10-state FSM.";
      sec_paper = false };
    { sec_key = "teardown";
      sec_title = "Orderly release under FIN duplication";
      sec_blurb =
        "Beyond the paper's tables: the client's FIN is duplicated during \
         an orderly close; the duplicate must not derail the FIN_WAIT_1 \
         \xe2\x86\x92 FIN_WAIT_2 \xe2\x86\x92 TIME_WAIT walk, and the 2MSL \
         wait must expire on its own.";
      sec_paper = false } ]

let plural n = if n = 1 then "" else "s"

(* A vendor row: one {!Campaign.exec} trial of a tcp harness built with
   the override (or [p]), whose oracle reads the client's collected
   entries.  [script] overrides the fault's filter; [arm] installs a
   send filter at a virtual time — the delayed fault window keep-alive
   rows need (the harness heals filters at 3 min, so a probe-drop must
   arrive later). *)
let mk ~section ~(p : Profile.t) ~quirk ?(phase = Tcp_harness.Stream)
    ?(chunks = 12) ?(keepalive = false) ?(server_reads = true) ?(heal = true)
    ?(side = Campaign.Send_filter) ?script ?arm ~horizon ~oracle fault =
  let trial override seed =
    let profile = Option.value override ~default:p in
    let harness =
      Tcp_harness.harness ~chunk_count:chunks ~profile ~phase ~keepalive
        ~server_reads ~heal ()
    in
    let arm =
      Option.map
        (fun (at, src) sim pfi ->
          ignore
            (Sim.schedule sim ~delay:at (fun () ->
                 Pfi_core.Pfi_layer.set_send_filter pfi src)))
        arm
    in
    let script =
      Pfi_script.Interp.compile
        (Option.value script ~default:(Generator.script_of_fault fault))
    in
    Campaign.exec ?arm harness ~horizon ~seed ~filters:[ (side, script) ]
      (fun trace ->
        let client = collect trace ~node:"client" ~tags:client_tags in
        fun verdict _ -> oracle p verdict client)
  in
  { row_id = section ^ "/" ^ Profile.slug p;
    row_section = List.find (fun s -> s.sec_key = section) vendor_sections;
    row_slug = Profile.slug p;
    row_subject = p.Profile.name;
    row_quirk = quirk;
    row_side = side;
    row_trial = trial }

let rexmt_row (p : Profile.t) =
  mk ~section:"rexmt" ~p
    ~quirk:
      (Printf.sprintf "%d retransmission%s, backoff capped at %s, then %s"
         p.Profile.max_data_retries
         (plural p.Profile.max_data_retries)
         (Vtime.to_string p.Profile.rto_max)
         (if p.Profile.rst_on_timeout then "RST" else "silent close"))
    ~chunks:1 ~heal:false ~horizon:(Vtime.minutes 30) ~oracle:rexmt_oracle
    (Generator.Drop_all "DATA")

let counter_row (p : Profile.t) =
  mk ~section:"counter" ~p
    ~quirk:
      (if p.Profile.global_error_counter then
         "one global error counter; a second stalled message inherits the \
          first one's failures"
       else "per-message retry accounting; every ACK resets the count")
    ~heal:false ~side:Campaign.Receive_filter ~script:counter_script
    ~horizon:(Vtime.minutes 30) ~oracle:counter_oracle
    (Generator.Drop_all "DATA")

let keepalive_row (p : Profile.t) =
  mk ~section:"keepalive" ~p
    ~quirk:
      (Printf.sprintf "first probe after %s idle%s, %s on failure"
         (Vtime.to_string p.Profile.keepalive_idle)
         (if p.Profile.keepalive_garbage_byte then
            ", probes padded with a garbage byte"
          else "")
         (if p.Profile.keepalive_rst_on_fail then "RST" else "silent close"))
    ~chunks:2 ~keepalive:true ~script:""
    ~arm:(Vtime.minutes 5, "xDrop cur_msg")
    ~horizon:(Vtime.hours 3) ~oracle:keepalive_oracle
    (Generator.Drop_all "DATA")

let zerowin_row (p : Profile.t) =
  mk ~section:"zerowin" ~p
    ~quirk:
      (Printf.sprintf "persist probes back off to a %s ceiling and never \
                       give up"
         (Vtime.to_string p.Profile.persist_max))
    ~chunks:60 ~server_reads:false ~script:"" ~horizon:(Vtime.minutes 30)
    ~oracle:zerowin_oracle (Generator.Drop_all "DATA")

let handshake_row (p : Profile.t) =
  mk ~section:"handshake" ~p
    ~quirk:"SYN loss is recovered by the retransmission timer; the \
            handshake still completes"
    ~phase:Tcp_harness.Handshake ~chunks:4 ~horizon:(Vtime.minutes 10)
    ~oracle:handshake_oracle
    (Generator.Drop_first ("SYN", 2))

let teardown_row (p : Profile.t) =
  mk ~section:"teardown" ~p
    ~quirk:"a duplicated FIN does not derail orderly release; TIME_WAIT \
            expires after 2MSL"
    ~phase:Tcp_harness.Close ~horizon:(Vtime.minutes 10)
    ~oracle:teardown_oracle (Generator.Duplicate "FIN")

let catalog () =
  List.concat_map
    (fun builder -> List.map builder Profile.all_vendors)
    [ rexmt_row; counter_row; keepalive_row; zerowin_row; handshake_row;
      teardown_row ]

let golden_catalog () =
  [ rexmt_row Profile.sunos_413; rexmt_row Profile.solaris_23 ]

let paper_section ~key ~title ~blurb =
  { sec_key = key; sec_title = title; sec_blurb = blurb; sec_paper = true }

let paper_row ~section ~slug ~subject ~quirk measure =
  { row_id = section.sec_key ^ "/" ^ slug;
    row_section = section;
    row_slug = slug;
    row_subject = subject;
    row_quirk = quirk;
    row_side = Campaign.Send_filter;
    row_trial = (fun _ seed -> measure seed) }

(* ------------------------------------------------------------------ *)
(* Running                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  res_id : string;
  res_section : string;
  res_vendor : string;
  res_quirk : string;
  res_seed : int64;
  res_checks : check list;
  res_pass : bool;
}

type report = {
  rep_seed : int64;
  rep_profile_override : string option;
  rep_sections : section list;
  rep_results : result list;
}

(* the fault identity alone does not identify a row (several rows
   share Drop_all DATA), so the per-row seed is keyed on the id *)
let run_row ~seed ~override row =
  let res_seed =
    Campaign.trial_seed_of_key ~campaign_seed:seed ~side:row.row_side
      (Rng.fnv1a64 row.row_id)
  in
  let checks = row.row_trial override res_seed in
  { res_id = row.row_id;
    res_section = row.row_section.sec_key;
    res_vendor = row.row_subject;
    res_quirk = row.row_quirk;
    res_seed;
    res_checks = checks;
    res_pass = List.for_all (fun c -> c.ck_pass) checks }

let run ?(executor = Executor.of_jobs 1) ?(seed = Campaign.default_seed)
    ?profile_override rows =
  let override =
    Option.map
      (fun name ->
        if List.exists (fun r -> r.row_section.sec_paper) rows then
          invalid_arg
            "Conformance.run: a profile override applies to the tcp catalog \
             only";
        match Profile.find name with
        | Some p -> p
        | None ->
          invalid_arg ("Conformance.run: unknown vendor profile " ^ name))
      profile_override
  in
  let results = Executor.map executor (run_row ~seed ~override) rows in
  let sections =
    List.fold_left
      (fun acc r ->
        if List.exists (fun s -> s.sec_key = r.row_section.sec_key) acc then acc
        else r.row_section :: acc)
      [] rows
  in
  { rep_seed = seed;
    rep_profile_override = profile_override;
    rep_sections = List.rev sections;
    rep_results = results }

let passed rep =
  List.length (List.filter (fun r -> r.res_pass) rep.rep_results)

let total rep = List.length rep.rep_results

let check_counts rep =
  List.fold_left
    (fun (p, t) r ->
      List.fold_left
        (fun (p, t) c -> ((if c.ck_pass then p + 1 else p), t + 1))
        (p, t) r.res_checks)
    (0, 0) rep.rep_results

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let to_markdown rep =
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let header paper =
    if paper then begin
      add
        "# Paper artifacts: Tables 2\xe2\x80\x938, Figure 4, Experiment 5 and \
         the ablations\n\n";
      add
        "Re-measures every paper result the TCP vendor matrix \
         (EXPERIMENTS_tcp.md) does not:\neach row below builds the paper's \
         own testbed (Figure 3 for TCP, Figure 5 for GMP),\ninstalls its \
         filter scripts, and checks what it measures against the paper's \
         value.\n\n";
      add
        "Regenerate with `pfi_run matrix paper --report <file>`.  Campaign \
         seed %Ld; the\nreport is byte-identical for any `--jobs` width.\n\n"
        rep.rep_seed
    end
    else begin
      add "# TCP vendor conformance matrix\n\n";
      add
        "Re-discovers the paper's vendor quirk tables from traces: each row \
         below runs one\nfault-injection trial against one vendor profile and \
         measures the quirk from the\nrecorded trace alone (the service \
         verdict is ignored — most quirks only manifest\nwhile the service \
         guarantee is failing).\n\n";
      add
        "Regenerate with `pfi_run matrix --report <file>`.  Campaign seed %Ld; \
         the report\nis byte-identical for any `--jobs` width.\n\n"
        rep.rep_seed;
      match rep.rep_profile_override with
      | None -> ()
      | Some p ->
        add
          "> **Profile override:** every trial ran against `%s` while keeping \
           each row's\n> own vendor expectations — a negative control, so \
           failures below are expected.\n\n"
          p
    end
  in
  let section sec =
    let results =
      List.filter (fun r -> r.res_section = sec.sec_key) rep.rep_results
    in
    add "## %s\n\n%s\n\n" sec.sec_title sec.sec_blurb;
    List.iter
      (fun r -> add "- **%s** — %s\n" r.res_vendor r.res_quirk)
      results;
    add "\n| %s | Check | Paper | Measured | Verdict |\n"
      (if sec.sec_paper then "Subject" else "Vendor");
    add "|---|---|---|---|---|\n";
    List.iter
      (fun r ->
        List.iter
          (fun c ->
            add "| %s | %s | %s | %s | %s |\n" r.res_vendor c.ck_label
              c.ck_paper c.ck_measured
              (if c.ck_pass then "pass" else "**FAIL**"))
          r.res_checks)
      results;
    add "\n"
  in
  List.iter
    (fun paper ->
      match List.filter (fun s -> s.sec_paper = paper) rep.rep_sections with
      | [] -> ()
      | secs ->
        header paper;
        List.iter section secs)
    [ false; true ];
  let cp, ct = check_counts rep in
  add "**%d/%d rows pass (%d/%d checks).**\n" (passed rep) (total rep) cp ct;
  Buffer.contents b

let to_json rep =
  let open Json in
  let check_json c =
    Obj
      [ ("check", Str c.ck_label);
        ("paper", Str c.ck_paper);
        ("measured", Str c.ck_measured);
        ("pass", Bool c.ck_pass) ]
  in
  let row_json r =
    Obj
      [ ("id", Str r.res_id);
        ("section", Str r.res_section);
        ("vendor", Str r.res_vendor);
        ("quirk", Str r.res_quirk);
        ("seed", Str (Int64.to_string r.res_seed));
        ("pass", Bool r.res_pass);
        ("checks", List (List.map check_json r.res_checks)) ]
  in
  let cp, ct = check_counts rep in
  Obj
    [ ("format", Str "pfi-conformance/1");
      ("campaign_seed", Str (Int64.to_string rep.rep_seed));
      ("profile_override",
       match rep.rep_profile_override with None -> Null | Some p -> Str p);
      ("rows_total", Int (total rep));
      ("rows_passed", Int (passed rep));
      ("checks_total", Int ct);
      ("checks_passed", Int cp);
      ("rows", List (List.map row_json rep.rep_results)) ]
