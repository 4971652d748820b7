(* Cross-cutting property tests: end-to-end protocol guarantees under
   randomized fault schedules, and robustness of the script front end. *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core
open Pfi_tcp

(* ------------------------------------------------------------------ *)
(* Script parser robustness                                           *)
(* ------------------------------------------------------------------ *)

let prop_parser_total =
  (* the parser either succeeds or raises Parse_error — nothing else *)
  QCheck.Test.make ~name:"parser is total (Parse_error or success)" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_bound 60) Gen.printable)
    (fun src ->
      match Pfi_script.Parser.parse src with
      | _ -> true
      | exception Pfi_script.Parser.Parse_error _ -> true
      | exception _ -> false)

let prop_tokenize_total =
  QCheck.Test.make ~name:"tokenizer is total" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_bound 60) Gen.printable)
    (fun src ->
      match Pfi_script.Parser.tokenize src with
      | _ -> true
      | exception Pfi_script.Parser.Parse_error _ -> true
      | exception _ -> false)

let prop_expr_no_crash =
  (* random operator soup: Expr.eval either evaluates or raises Error *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (oneofl [ "1"; "2.5"; "x"; "+"; "-"; "*"; "/"; "("; ")"; "&&"; "!"; "<" ])
      >|= String.concat " ")
  in
  QCheck.Test.make ~name:"expr evaluator is total" ~count:1000 (QCheck.make gen)
    (fun src ->
      match Pfi_script.Expr.eval src with
      | _ -> true
      | exception Pfi_script.Expr.Error _ -> true
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Input readers on mutated bytes                                     *)
(* ------------------------------------------------------------------ *)

(* Each reader of an input format, the committed inputs it is fed, and
   its documented failure: [Scenario.Parse_error] for the scenario
   formats, [Parser.Parse_error] for filter scripts and Tcl lists,
   [Error _] for the others.  Any other exception escapes the property
   and fails it. *)
let input_readers =
  lazy
    (let path p = Filename.concat (Filename.dirname Sys.executable_name) p in
     let read p = In_channel.with_open_bin (path p) In_channel.input_all in
     let files dir ext =
       Sys.readdir (path dir) |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ext)
       |> List.sort String.compare
       |> List.map (fun f -> read (Filename.concat dir f))
     in
     let parses parse s =
       match parse s with _ -> () | exception Pfi_testgen.Scenario.Parse_error _ -> ()
     in
     (* the scripts of the tclsh-recorded corpus *)
     let tcl_scripts =
       String.split_on_char '\n' (read "tcl/corpus.jsonl")
       |> List.filter (fun l -> l <> "")
       |> List.map (fun l ->
              let case = Result.get_ok (Pfi_testgen.Json.parse l) in
              Option.get
                (Option.bind (Pfi_testgen.Json.member "script" case)
                   Pfi_testgen.Json.to_str))
     in
     let tcl parse s = match parse s with _ -> () | exception Pfi_script.Parser.Parse_error _ -> () in
     let segment =
       Segment.encode
         (Segment.make ~payload:(Bytes.of_string "mutate me") ~src_port:1234 ~dst_port:80
            ~seq:(Seq32.of_int 100) ~ack:(Seq32.of_int 200) ~flags:Segment.flag_ack
            ~window:4096 ())
     in
     [| ("Scenario.parse", files "scenarios" ".pfis", parses (fun s -> Pfi_testgen.Scenario.parse s));
        ("Matrix.parse", files "matrix" ".pfim", parses Pfi_testgen.Matrix.parse);
        ( "Repro.of_string",
          [ read "golden/tiny_abp_repro.expected.json" ],
          fun s -> ignore (Pfi_testgen.Repro.of_string s : (_, string) result) );
        ( "Segment.decode",
          [ Bytes.to_string segment ],
          fun s -> ignore (Segment.decode (Bytes.of_string s) : (_, string) result) );
        ( "Parser.parse, Tcl_list.to_list",
          tcl_scripts,
          fun s ->
            tcl (fun s -> ignore (Pfi_script.Parser.parse s)) s;
            tcl (fun s -> ignore (Pfi_script.Tcl_list.to_list s)) s ) |])

(* one to four byte flips, inserts, deletes and block moves *)
let mutate_gen src =
  let open QCheck.Gen in
  let splice s i cut ins =
    String.sub s 0 i ^ ins ^ String.sub s (i + cut) (String.length s - i - cut)
  in
  let once s =
    let n = String.length s in
    if n = 0 then map (String.make 1) char
    else
      int_bound (n - 1) >>= fun i ->
      oneof
        [ map (fun c -> splice s i 1 (String.make 1 c)) char;
          map (splice s i 0) (string_size ~gen:char (int_range 1 8));
          map (fun len -> splice s i (min len (n - i)) "") (int_range 1 16);
          ( int_range 1 (n - i) >>= fun len ->
            let rest = splice s i len "" in
            map
              (fun j -> splice rest j 0 (String.sub s i len))
              (int_bound (String.length rest)) ) ]
  in
  int_range 1 4 >>= fun k ->
  let rec go k s = if k = 0 then return s else once s >>= go (k - 1) in
  go k src

let prop_readers_total_on_mutations =
  let gen st =
    let readers = Lazy.force input_readers in
    let r = QCheck.Gen.int_bound (Array.length readers - 1) st in
    let _, inputs, _ = readers.(r) in
    let src = QCheck.Gen.oneofl inputs st in
    (r, mutate_gen src st)
  in
  QCheck.Test.make ~name:"input readers are total on mutated committed inputs"
    ~count:10_000
    (QCheck.make
       ~print:(fun (r, s) ->
         let name, _, _ = (Lazy.force input_readers).(r) in
         Printf.sprintf "%s %S" name s)
       gen)
    (fun (r, s) ->
      let _, _, read = (Lazy.force input_readers).(r) in
      read s;
      true)

(* ------------------------------------------------------------------ *)
(* The JSON codec                                                     *)
(* ------------------------------------------------------------------ *)

module J = Pfi_testgen.Json

(* trees of every kind: byte strings over all 256 values (keys too;
   continuation bytes weighted up, so multi-byte sequences, valid and
   not, are common), ints over the whole range, finite floats
   (integral ones included), nested lists and objects *)
let json_gen =
  let open QCheck.Gen in
  let byte = frequency [ (3, char); (1, char_range '\x80' '\xbf') ] in
  let bytes = string_size ~gen:byte (int_bound 12) in
  let finite =
    oneof
      [ map (fun f -> if Float.is_finite f then f else 0.5) float;
        map Float.of_int small_signed_int;
        map Float.of_int int ]
  in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (oneof [ small_signed_int; int ]);
        map (fun f -> J.Float f) finite;
        map (fun s -> J.Str s) bytes ]
  in
  sized_size (int_bound 40)
    (fix (fun self n ->
         if n <= 1 then scalar
         else
           let items = list_size (int_bound 4) (self (n / 4)) in
           frequency
             [ (2, scalar);
               (1, map (fun l -> J.List l) items);
               (1, map (fun l -> J.Obj l) (list_size (int_bound 4) (pair bytes (self (n / 4))))) ]))

(* [%.17g] prints an integral float below 1e17 in magnitude with no
   point or exponent, so it reads back as that [Int] *)
let rec json_read_back = function
  | J.Float f when Float.is_integer f && Float.abs f < 1e17 -> J.Int (Float.to_int f)
  | J.List l -> J.List (List.map json_read_back l)
  | J.Obj fields -> J.Obj (List.map (fun (k, v) -> (k, json_read_back v)) fields)
  | v -> v

let prop_json_round_trip =
  QCheck.Test.make ~name:"every JSON tree reads back from both printers" ~count:1000
    (QCheck.make ~print:J.to_line json_gen)
    (fun v ->
      let want = Ok (json_read_back v) in
      List.for_all
        (fun text -> String.is_valid_utf_8 text && J.parse text = want)
        [ J.to_string v; J.to_line v ])

(* ------------------------------------------------------------------ *)
(* TCP end-to-end integrity under a byzantine channel                 *)
(* ------------------------------------------------------------------ *)

let tcp_integrity_run ~seed =
  let sim = Sim.create ~seed () in
  let net = Network.create sim in
  let client = Tcp.create ~sim ~node:"client" ~profile:Profile.xkernel () in
  let c_pfi = Pfi_layer.create ~sim ~node:"client" ~stub:Tcp_stub.stub () in
  let c_ip = Ip_lite.create ~node:"client" in
  let c_dev = Network.attach net ~node:"client" in
  Layer.stack [ Tcp.layer client; Pfi_layer.layer c_pfi; c_ip; c_dev ];
  let server = Tcp.create ~sim ~node:"server" ~profile:Profile.xkernel () in
  let s_ip = Ip_lite.create ~node:"server" in
  let s_dev = Network.attach net ~node:"server" in
  Layer.stack [ Tcp.layer server; s_ip; s_dev ];
  Tcp.listen server ~port:80;
  let got = Buffer.create 4096 in
  let sconn = ref None in
  Tcp.on_accept server (fun c ->
      sconn := Some c;
      Tcp.on_data c (Buffer.add_string got));
  let conn = Tcp.connect client ~dst:"server" ~dst_port:80 () in
  Sim.run ~until:(Vtime.sec 30) sim;
  (* byzantine channel on the client's PFI layer: corruption, loss and
     duplication of outgoing segments *)
  Failure_models.apply c_pfi
    [ Failure_models.Byzantine { corrupt_p = 0.15; reorder_p = 0.1; duplicate_p = 0.15 };
      Failure_models.Send_omission { p = 0.15 } ];
  let sent = Buffer.create 4096 in
  let rng = Rng.create ~seed:(Int64.add seed 1L) in
  for i = 0 to 19 do
    let chunk =
      String.init (1 + Rng.int rng 200) (fun j -> Char.chr (65 + ((i + j) mod 26)))
    in
    Buffer.add_string sent chunk;
    ignore
      (Sim.schedule sim ~delay:(Vtime.sec (2 * i)) (fun () -> Tcp.send conn chunk))
  done;
  (* clear the faults near the end so recovery can finish *)
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () ->
         Pfi_layer.clear_send_filter c_pfi));
  Sim.run ~until:(Vtime.minutes 20) sim;
  (Buffer.contents sent, Buffer.contents got, Tcp.state conn)

let prop_tcp_integrity =
  QCheck.Test.make ~name:"tcp delivers exactly what was sent under byzantine faults"
    ~count:12
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let sent, got, state = tcp_integrity_run ~seed:(Int64.of_int seed) in
      String.equal sent got && state = Tcp.Established)

(* ------------------------------------------------------------------ *)
(* GMP agreement under a transient random fault schedule              *)
(* ------------------------------------------------------------------ *)

let gmp_agreement_run ~seed =
  let open Pfi_gmp in
  let sim = Sim.create ~seed () in
  let net = Network.create sim in
  let n = 4 in
  let names = List.init n (fun i -> (Printf.sprintf "n%d" (i + 1), i + 1)) in
  let nodes =
    List.map
      (fun (name, node_id) ->
        let peers = List.filter (fun (m, _) -> m <> name) names in
        let gmd = Gmd.create ~sim ~node:name ~id:node_id ~peers () in
        let pfi = Pfi_layer.create ~sim ~node:name ~stub:Gmp_stub.stub () in
        let rel = Rel_udp.create ~sim ~node:name () in
        let device = Network.attach net ~node:name in
        Layer.stack [ Gmd.layer gmd; Rel_udp.layer rel; Pfi_layer.layer pfi; device ];
        (name, (gmd, pfi)))
      names
  in
  List.iteri
    (fun i (_, (gmd, _)) ->
      ignore (Sim.schedule sim ~delay:(Vtime.sec i) (fun () -> Gmd.start gmd)))
    nodes;
  (* a transient random omission fault on one node, active 40 s..100 s *)
  let rng = Rng.create ~seed:(Int64.add seed 7L) in
  let victim_name, (_, victim_pfi) = List.nth nodes (Rng.int rng n) in
  let p = 0.1 +. Rng.float rng 0.25 in
  ignore victim_name;
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 40) (fun () ->
         Failure_models.apply victim_pfi [ Failure_models.Send_omission { p } ]));
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 100) (fun () ->
         Pfi_layer.clear_send_filter victim_pfi));
  (* long quiescence after healing *)
  Sim.run ~until:(Vtime.sec 400) sim;
  List.map (fun (_, (gmd, _)) -> Gmd.view gmd) nodes

let prop_gmp_agreement =
  QCheck.Test.make
    ~name:"gmp re-converges to one agreed full view after transient faults"
    ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let views = gmp_agreement_run ~seed:(Int64.of_int seed) in
      match views with
      | first :: rest ->
        let open Pfi_gmp in
        first.Gmd.members = [ 1; 2; 3; 4 ]
        && List.for_all
             (fun v ->
               v.Gmd.group_id = first.Gmd.group_id
               && v.Gmd.members = first.Gmd.members)
             rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* ABP integrity under random loss                                    *)
(* ------------------------------------------------------------------ *)

let prop_abp_integrity =
  QCheck.Test.make ~name:"abp delivers in order under random loss" ~count:15
    QCheck.(pair (int_range 1 10_000) (int_range 0 60))
    (fun (seed, loss_pct) ->
      let open Pfi_abp in
      let sim = Sim.create ~seed:(Int64.of_int seed) () in
      let net = Network.create sim in
      let a = Abp.create ~sim ~node:"a" ~peer:"b" () in
      let dev_a = Network.attach net ~node:"a" in
      Layer.stack [ Abp.layer a; dev_a ];
      let b = Abp.create ~sim ~node:"b" ~peer:"a" () in
      let dev_b = Network.attach net ~node:"b" in
      Layer.stack [ Abp.layer b; dev_b ];
      let loss = float_of_int loss_pct /. 100.0 in
      Network.set_loss net ~src:"a" ~dst:"b" loss;
      Network.set_loss net ~src:"b" ~dst:"a" loss;
      let expected = List.init 12 (Printf.sprintf "m%02d") in
      List.iter (Abp.send a) expected;
      Sim.run ~until:(Vtime.minutes 10) sim;
      Abp.delivered b = expected)

(* ------------------------------------------------------------------ *)
(* Event queue vs a sorted-list model                                  *)
(* ------------------------------------------------------------------ *)

(* Random push/cancel/pop/clear sequences, interpreted both by the
   binary heap and by a sorted association list.  Checks FIFO order at
   equal times, cancellation semantics (including double-cancel,
   cancel-after-pop and cancel-after-clear no-ops, whose slots may have
   been reused) and that a cleared queue orders pushes like a fresh
   one. *)
let prop_event_queue_model =
  let interpret codes =
    let q = Event_queue.create () in
    let handles = ref [||] in
    let model = ref [] in (* (time, id), sorted by (time, id): id = push order *)
    let next_id = ref 0 in
    let ok = ref true in
    let expect b = if not b then ok := false in
    let check_invariants () =
      expect (Event_queue.size q = List.length !model);
      expect (Event_queue.is_empty q = (!model = []));
      match (Event_queue.peek_time q, !model) with
      | None, [] -> ()
      | Some t, (mt, _) :: _ -> expect (Vtime.equal t mt)
      | _ -> expect false
    in
    let merge_into time id =
      model :=
        List.merge
          (fun (t1, i1) (t2, i2) ->
            let c = Vtime.compare t1 t2 in
            if c <> 0 then c else compare i1 i2)
          [ (time, id) ] !model
    in
    List.iter
      (fun code ->
        (match code mod 20 with
         | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 ->
           (* push; many collisions at the same time to exercise FIFO *)
           let time = Vtime.sec (code mod 7) in
           let id = !next_id in
           incr next_id;
           let h = Event_queue.push q ~time id in
           handles := Array.append !handles [| (h, time, id) |];
           merge_into time id
         | 9 ->
           (* clear: every earlier handle goes inert, and later pushes
              order by push order alone, as in a fresh queue *)
           Event_queue.clear q;
           model := []
         | 10 | 11 | 12 | 13 ->
           (* cancel an arbitrary past handle (live, popped, cleared) *)
           if Array.length !handles > 0 then begin
             let h, _, id = !handles.(code mod Array.length !handles) in
             Event_queue.cancel q h;
             Event_queue.cancel q h (* double cancel is a no-op *);
             model := List.filter (fun (_, i) -> i <> id) !model
           end
         | 14 | 15 | 16 ->
           (match (Event_queue.pop q, !model) with
            | None, [] -> ()
            | Some (t, v), (mt, mid) :: rest ->
              expect (Vtime.equal t mt);
              expect (v = mid);
              model := rest
            | _ -> expect false)
         | _ ->
           (* pop_until_k: pops the head iff it lies within the horizon,
              removing nothing otherwise — the simulator's loop *)
           let until = Vtime.sec (code mod 7) in
           let popped = ref None in
           let fired =
             Event_queue.pop_until_k q ~until (fun t v -> popped := Some (t, v))
           in
           (match (fired, !popped, !model) with
            | false, None, [] -> ()
            | false, None, (mt, _) :: _ -> expect (Vtime.compare mt until > 0)
            | true, Some (t, v), (mt, mid) :: rest ->
              expect (Vtime.compare mt until <= 0);
              expect (Vtime.equal t mt);
              expect (v = mid);
              model := rest
            | _ -> expect false));
        check_invariants ())
      codes;
    (* drain: everything left must come out in model order *)
    List.iter
      (fun (mt, mid) ->
        match Event_queue.pop q with
        | Some (t, v) -> expect (Vtime.equal t mt && v = mid)
        | None -> expect false)
      !model;
    expect (Event_queue.pop q = None);
    !ok
  in
  QCheck.Test.make
    ~name:"event queue (incl. pop_until_k/clear) agrees with a sorted-list model"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 150) (int_range 0 1000))
    interpret

(* ------------------------------------------------------------------ *)
(* Network deliveries vs a model                                      *)
(* ------------------------------------------------------------------ *)

type net_op =
  | Send of int * int  (* src, dst *)
  | Latency of int * int * Vtime.t
  | Unplug of int
  | Replug of int

(* Each op with its instant.  Sends happen at even milliseconds and
   every latency is even (links start at 2 ms), so arrivals land on
   even milliseconds too, while latency changes, unplugs and replugs
   happen at odd ones: no arrival shares an instant with them. *)
let net_ops_gen =
  QCheck.Gen.(
    list_size (int_bound 40)
      (map2
         (fun k op ->
           match op with
           | Send _ -> (Vtime.ms (2 * k), op)
           | _ -> (Vtime.ms ((2 * k) + 1), op))
         (int_bound 20)
         (frequency
            [ (6, map2 (fun s d -> Send (s, d)) (int_bound 2) (int_bound 2));
              ( 2,
                map3 (fun s d l -> Latency (s, d, Vtime.ms (2 * l)))
                  (int_bound 2) (int_bound 2) (int_bound 10) );
              (1, map (fun n -> Unplug n) (int_bound 2));
              (1, map (fun n -> Replug n) (int_bound 2)) ])))

let net_nodes = [| "a"; "b"; "c" |]

let print_net_op (time, op) =
  let at = Vtime.to_string time in
  match op with
  | Send (s, d) -> Printf.sprintf "%s send %d->%d" at s d
  | Latency (s, d, l) -> Printf.sprintf "%s latency %d->%d %s" at s d (Vtime.to_string l)
  | Unplug n -> Printf.sprintf "%s unplug %d" at n
  | Replug n -> Printf.sprintf "%s replug %d" at n

(* The network: the ops, scheduled in list order, over three nodes;
   each copy's payload is its op's index. *)
let net_run ops =
  let sim = Sim.create () in
  let net = Network.create sim in
  let got = ref [] in
  let drivers =
    Array.map
      (fun dst ->
        let driver = Driver.create ~node:dst () in
        Layer.stack [ Driver.layer driver; Network.attach net ~node:dst ];
        Driver.set_on_receive driver (fun m ->
            let src = Option.get (Message.get_attr m Network.src_attr) in
            got := (Sim.now sim, src, dst, Message.to_string m) :: !got);
        driver)
      net_nodes
  in
  Array.iter
    (fun src ->
      Array.iter (fun dst -> Network.set_latency net ~src ~dst (Vtime.ms 2)) net_nodes)
    net_nodes;
  List.iteri
    (fun i (time, op) ->
      ignore
        (Sim.schedule_at sim ~time (fun () ->
             match op with
             | Send (s, d) ->
               let msg = Message.of_string (string_of_int i) in
               Message.set_attr msg Network.dst_attr net_nodes.(d);
               Driver.send drivers.(s) msg
             | Latency (s, d, l) ->
               Network.set_latency net ~src:net_nodes.(s) ~dst:net_nodes.(d) l
             | Unplug n -> Network.unplug net net_nodes.(n)
             | Replug n -> Network.replug net net_nodes.(n))))
    ops;
  Sim.run sim;
  (List.rev !got, Network.dropped_count net)

(* The model: a copy arrives at its send time plus the latency in force
   when it was sent, copies due at one instant arrive in transmit
   order, and a copy is dropped when its source or destination is
   unplugged at its send, or its destination at its arrival. *)
let net_model ops =
  (* the sim fires ops due at one instant in scheduling (list) order *)
  let ops =
    List.stable_sort
      (fun (t1, _) (t2, _) -> Vtime.compare t1 t2)
      (List.mapi (fun i (time, op) -> (time, (i, op))) ops)
  in
  let unplugged_at n time =
    List.fold_left
      (fun down (t, (_, op)) ->
        if Vtime.compare t time >= 0 then down
        else match op with
          | Unplug m when m = n -> true
          | Replug m when m = n -> false
          | _ -> down)
      false ops
  in
  let latency = Hashtbl.create 9 and dropped = ref 0 and sent = ref [] in
  List.iter
    (fun (time, (i, op)) ->
      match op with
      | Send (s, d) ->
        if unplugged_at s time || unplugged_at d time then incr dropped
        else begin
          let l = Option.value (Hashtbl.find_opt latency (s, d)) ~default:(Vtime.ms 2) in
          sent := (Vtime.add time l, s, d, i) :: !sent
        end
      | Latency (s, d, l) -> Hashtbl.replace latency (s, d) l
      | Unplug _ | Replug _ -> ())
    ops;
  (* [!sent] is in transmit order once reversed; the sort is stable *)
  let arriving =
    List.stable_sort (fun (t1, _, _, _) (t2, _, _, _) -> Vtime.compare t1 t2) (List.rev !sent)
  in
  let delivered =
    List.filter_map
      (fun (time, s, d, i) ->
        if unplugged_at d time then (incr dropped; None)
        else Some (time, net_nodes.(s), net_nodes.(d), string_of_int i))
      arriving
  in
  (delivered, !dropped)

let prop_network_model =
  QCheck.Test.make ~name:"network deliveries and drops match a latency model"
    ~count:500 ~long_factor:20
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map print_net_op ops))
       net_ops_gen)
    (fun ops -> net_run ops = net_model ops)

(* ------------------------------------------------------------------ *)
(* Rng.int uniformity                                                  *)
(* ------------------------------------------------------------------ *)

(* Rejection sampling promises no modulo bias: over n draws each bucket
   of [0, k) has expectation n/k; a 5-sigma band on the binomial keeps
   the test deterministic-in-practice for any seed QCheck picks. *)
let prop_rng_int_uniform =
  QCheck.Test.make ~name:"Rng.int is uniform within binomial bounds" ~count:25
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 64))
    (fun (seed, k) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let n = 20_000 in
      let counts = Array.make k 0 in
      for _ = 1 to n do
        let v = Rng.int rng k in
        if v < 0 || v >= k then QCheck.Test.fail_report "draw out of range";
        counts.(v) <- counts.(v) + 1
      done;
      let p = 1.0 /. float_of_int k in
      let mean = float_of_int n *. p in
      let sigma = sqrt (float_of_int n *. p *. (1.0 -. p)) in
      Array.for_all
        (fun c -> Float.abs (float_of_int c -. mean) <= 5.0 *. sigma)
        counts)

(* ------------------------------------------------------------------ *)
(* Trace arena reuse: clear + re-record ≡ fresh                       *)
(* ------------------------------------------------------------------ *)

(* the byte-identity contract the trial arena rests on: a trace that
   already recorded one batch and was [clear]ed must be observationally
   indistinguishable from a freshly created one — same JSONL bytes,
   same index query results — for any subsequent batch *)

let trace_nodes = [| "n0"; "n1"; "relay" |]
let trace_tags = [| "net.send"; "net.recv"; "timer.fire"; "gmp.commit" |]

let trace_batch_gen =
  QCheck.Gen.(
    pair
      (list_size (int_bound 30)
         (quad (int_bound 1_000_000) (int_bound 7) (int_bound 7)
            (string_size ~gen:printable (int_bound 8))))
      (list_size (int_bound 30)
         (quad (int_bound 1_000_000) (int_bound 7) (int_bound 7)
            (string_size ~gen:printable (int_bound 8)))))

let trace_record_batch tr batch =
  List.iter
    (fun (t, ni, ti, detail) ->
      (* fresh string copies, as a caller building names at run time
         passes them *)
      let copy s = String.sub s 0 (String.length s) in
      let node = copy trace_nodes.(ni mod Array.length trace_nodes) in
      let tag = copy trace_tags.(ti mod Array.length trace_tags) in
      let fields = if ti mod 2 = 0 then [ ("k", detail) ] else [] in
      Trace.record ~fields tr ~time:(Vtime.us t) ~node ~tag detail)
    batch

(* The per-pair counts, and the memo slots [record] resolves pairs
   through, against a naive filter over [entries]: every (node?, tag)
   combination, including names that were never recorded. *)
let trace_matches_naive tr =
  let all = Trace.entries tr in
  let keep node tag (e : Trace.entry) =
    (match node with Some n -> String.equal e.Trace.node n | None -> true)
    && String.equal e.Trace.tag tag
  in
  List.for_all
    (fun node ->
      List.for_all
        (fun tag ->
          Trace.count ?node ~tag tr = List.length (List.filter (keep node tag) all))
        ("absent" :: Array.to_list trace_tags))
    (None :: Some "absent" :: Array.to_list (Array.map Option.some trace_nodes))

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let prop_trace_clear_reuse =
  QCheck.Test.make ~name:"cleared trace is byte-identical to a fresh one"
    ~count:200
    (QCheck.make trace_batch_gen)
    (fun (first, second) ->
      let reused = Trace.create () in
      trace_record_batch reused first;
      Trace.clear reused;
      let fresh = Trace.create () in
      trace_record_batch reused second;
      trace_record_batch fresh second;
      let same_queries =
        Array.for_all
          (fun node ->
            List.length (Trace_lists.find ~node reused)
            = List.length (Trace_lists.find ~node fresh)
            && Array.for_all
                 (fun tag ->
                   Trace.count ~node ~tag reused
                   = Trace.count ~node ~tag fresh
                   && Trace_lists.timestamps ~node ~tag reused
                      = Trace_lists.timestamps ~node ~tag fresh)
                 trace_tags)
          trace_nodes
      in
      let same_last =
        match (Trace_lists.last reused, Trace_lists.last fresh) with
        | None, None -> true
        | Some a, Some b ->
          a.Trace.time = b.Trace.time && Trace.detail a = Trace.detail b
        | _ -> false
      in
      (* the memo restarts empty on every clear, so re-recording the
         same batch costs the same words each time — what keeps a
         warm campaign pass's allocation exact *)
      let rerecord () =
        minor_words_of (fun () ->
            Trace.clear reused;
            trace_record_batch reused second)
      in
      let w1 = rerecord () in
      let w2 = rerecord () in
      Trace_lists.jsonl reused = Trace_lists.jsonl fresh
      && Trace.length reused = Trace.length fresh
      && same_queries && same_last
      && trace_matches_naive reused && trace_matches_naive fresh
      && w1 = w2)

(* ------------------------------------------------------------------ *)
(* Wire codecs against a Bytes_codec reference                        *)
(* ------------------------------------------------------------------ *)

(* The GMP and rel-layer codecs as first written on the Buffer-backed
   {!Bytes_codec} writer and bounds-checked reader.  The exact-size
   codecs must produce and accept exactly what these do. *)
module Ref_codec = struct
  open Pfi_gmp

  let encode (m : Gmp_msg.t) =
    let w = Bytes_codec.writer () in
    Bytes_codec.u8 w (Gmp_msg.mtype_code m.Gmp_msg.mtype);
    Bytes_codec.u16 w m.Gmp_msg.origin;
    Bytes_codec.u16 w m.Gmp_msg.sender;
    Bytes_codec.u32_of_int w m.Gmp_msg.group_id;
    Bytes_codec.u16 w m.Gmp_msg.subject;
    Bytes_codec.u16 w (List.length m.Gmp_msg.members);
    List.iter (fun v -> Bytes_codec.u16 w v) m.Gmp_msg.members;
    Bytes_codec.contents w

  let decode data =
    match
      let r = Bytes_codec.reader data in
      let code = Bytes_codec.read_u8 r in
      let origin = Bytes_codec.read_u16 r in
      let sender = Bytes_codec.read_u16 r in
      let group_id = Bytes_codec.read_u32_int r in
      let subject = Bytes_codec.read_u16 r in
      let count = Bytes_codec.read_u16 r in
      let members = List.init count (fun _ -> Bytes_codec.read_u16 r) in
      (code, origin, sender, group_id, subject, members)
    with
    | exception Bytes_codec.Truncated _ -> Error "gmp: truncated message"
    | code, origin, sender, group_id, subject, members ->
      (match Gmp_msg.mtype_of_code code with
       | None -> Error (Printf.sprintf "gmp: unknown message type %d" code)
       | Some mtype ->
         Ok { Gmp_msg.mtype; origin; sender; group_id; subject; members })

  let checksum ~kind ~seq payload =
    let sum = ref (kind + (seq land 0xffff) + ((seq lsr 16) land 0xffff)) in
    Bytes.iter (fun ch -> sum := !sum + Char.code ch) payload;
    while !sum lsr 16 <> 0 do
      sum := (!sum land 0xffff) + (!sum lsr 16)
    done;
    lnot !sum land 0xffff

  let wrap ~kind ~seq payload =
    let w = Bytes_codec.writer () in
    Bytes_codec.u8 w kind;
    Bytes_codec.u32_of_int w seq;
    Bytes_codec.u16 w (checksum ~kind ~seq payload);
    Bytes_codec.bytes w payload;
    Bytes_codec.contents w

  let unwrap data =
    if Bytes.length data < Rel_udp.header_size then None
    else begin
      let r = Bytes_codec.reader data in
      let kind = Bytes_codec.read_u8 r in
      let seq = Bytes_codec.read_u32_int r in
      let csum = Bytes_codec.read_u16 r in
      let payload = Bytes_codec.read_rest r in
      if checksum ~kind ~seq payload <> csum then None else Some (kind, seq, payload)
    end

  let inspect data =
    match unwrap data with
    | None -> None
    | Some (kind, seq, inner) ->
      if kind = 0 then Some (`Raw, seq, inner)
      else if kind = 1 then Some (`Data, seq, inner)
      else if kind = 2 then Some (`Ack, seq, inner)
      else None
end

(* field values well outside the u16/u32 wire ranges, negative ones
   included, next to in-range ones *)
let wire_int_gen =
  QCheck.Gen.(
    oneof
      [ int_bound 0xffff; int; int_range (-0x20000) 0x20000;
        map (fun v -> v lor 0x1_0000_0000) (int_bound 0xffff_ffff) ])

let gmp_msg_gen =
  QCheck.Gen.(
    oneofl
      Pfi_gmp.Gmp_msg.
        [ Heartbeat; Proclaim; Join; Membership_change; Mc_ack; Mc_nak; Commit; Dead ]
    >>= fun mtype ->
    quad wire_int_gen wire_int_gen wire_int_gen wire_int_gen
    >>= fun (origin, sender, group_id, subject) ->
    list_size (int_bound 6) wire_int_gen >>= fun members ->
    return { Pfi_gmp.Gmp_msg.mtype; origin; sender; group_id; subject; members })

let gmp_msg_print (m : Pfi_gmp.Gmp_msg.t) =
  Printf.sprintf "%s origin=%d sender=%d gid=%d subject=%d members=[%s]"
    (Pfi_gmp.Gmp_msg.mtype_to_string m.Pfi_gmp.Gmp_msg.mtype)
    m.Pfi_gmp.Gmp_msg.origin m.Pfi_gmp.Gmp_msg.sender m.Pfi_gmp.Gmp_msg.group_id
    m.Pfi_gmp.Gmp_msg.subject
    (String.concat ";" (List.map string_of_int m.Pfi_gmp.Gmp_msg.members))

let prop_encoders_match_reference =
  QCheck.Test.make ~name:"gmp and rel encoders match the Bytes_codec reference"
    ~count:500
    (QCheck.make ~print:(fun (m, p) -> gmp_msg_print m ^ " payload=" ^ String.escaped p)
       QCheck.Gen.(pair gmp_msg_gen (string_size ~gen:char (int_bound 24))))
    (fun (m, payload) ->
      let enc = Pfi_gmp.Gmp_msg.encode m in
      let payload = Bytes.of_string payload in
      Bytes.equal enc (Ref_codec.encode m)
      && Bytes.equal (Pfi_gmp.Rel_udp.wrap_raw enc) (Ref_codec.wrap ~kind:0 ~seq:0 enc)
      && Bytes.equal (Pfi_gmp.Rel_udp.wrap_raw payload)
           (Ref_codec.wrap ~kind:0 ~seq:0 payload))

(* Inputs for the decoders: arbitrary bytes, and encoded GMP messages,
   bare or inside a rel packet of any kind byte and sequence number,
   then truncated and/or with one bit flipped. *)
let damaged_input_gen =
  QCheck.Gen.(
    let encoded =
      gmp_msg_gen >>= fun m ->
      let bare = Ref_codec.encode m in
      oneof
        [ return bare;
          map2 (fun kind seq -> Ref_codec.wrap ~kind ~seq bare) (int_bound 3)
            (int_bound 0xffff_ffff) ]
    in
    let damage b =
      let n = Bytes.length b in
      int_bound (max 0 (n - 1)) >>= fun cut ->
      int_bound (max 0 ((8 * n) - 1)) >>= fun bit ->
      oneofl [ `Keep; `Truncate; `Flip; `Both ] >>= fun how ->
      let flip b =
        let b = Bytes.copy b in
        if Bytes.length b > 0 then begin
          let i = bit / 8 mod Bytes.length b in
          Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (bit mod 8)))
        end;
        b
      in
      let truncate b = Bytes.sub b 0 (min cut (Bytes.length b)) in
      return
        (match how with
         | `Keep -> b
         | `Truncate -> truncate b
         | `Flip -> flip b
         | `Both -> truncate (flip b))
    in
    oneof
      [ map Bytes.of_string (string_size ~gen:char (int_bound 40));
        encoded >>= damage ])

let prop_decoders_match_reference =
  QCheck.Test.make ~name:"gmp and rel decoders match the reference on damaged input"
    ~count:2000
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) damaged_input_gen)
    (fun data ->
      let total f = match f data with v -> Ok v | exception e -> Error e in
      let header_ok =
        match (total Pfi_gmp.Rel_udp.inspect_header, Ref_codec.unwrap data) with
        | Ok kind, None -> kind = -1
        | Ok kind, Some (k, seq, _) -> kind = k && Pfi_gmp.Rel_udp.header_seq data = seq
        | Error _, _ -> false
      in
      total Pfi_gmp.Gmp_msg.decode = Ok (Ref_codec.decode data)
      && total Pfi_gmp.Rel_udp.inspect = Ok (Ref_codec.inspect data)
      && header_ok)

(* ------------------------------------------------------------------ *)
(* Compiled filters agree with the reference evaluator                *)
(* ------------------------------------------------------------------ *)

(* message-type literals a filter tests for *)
let type_lit_gen =
  QCheck.Gen.(
    let head = "ABCDHKMPSTXY_" and tail = "ABCDHKMPSTXY_-0123456789" in
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (map (String.get head) (int_bound (String.length head - 1)))
      (string_size ~gen:(map (String.get tail) (int_bound (String.length tail - 1)))
         (int_bound 5)))

(* message types relative to the literal: equal, near misses, numeric
   lookalikes, and values carrying brace or backslash bytes *)
let type_gen lit =
  QCheck.Gen.(
    let n = String.length lit in
    frequency
      [ (3, return lit);
        ( 4,
          oneof
            [ map (fun s -> lit ^ s) (oneofl [ "X"; "_"; " "; "0" ]);
              map (fun s -> s ^ lit) (oneofl [ "X"; " "; "-" ]);
              return (if n > 1 then String.sub lit 0 (n - 1) else lit ^ lit);
              return (String.lowercase_ascii lit);
              map
                (fun i -> String.mapi (fun j c -> if j = i then 'Z' else c) lit)
                (int_bound (n - 1)) ] );
        (2, oneofl [ "0"; "1"; "1.0"; "-2"; "0x1F"; "1e3"; " 7"; "inf"; "nan" ]);
        ( 2,
          oneof
            [ return (lit ^ "{"); return ("}" ^ lit); return ("{" ^ lit ^ "}");
              return ("\\" ^ lit); return "a\\b" ] ) ])

(* Random filters in the shape of the generated fault scripts and the
   paper's: type tests, [elseif]/[else] arms, [&&]/[||] with [chance],
   [info exists]/[incr] counters, bounded loops, [catch] around [error],
   and a proc.  Variables: [t] (the type), [n] (a counter), [iD]/[jD]/[vD]
   (loop variables, one set per nesting depth D, so no inner loop resets
   an outer one), [total] (the proc's), [seen], [err]. *)
let filter_gen lit =
  QCheck.Gen.(
    let num = oneofl [ "0"; "1"; "2"; "3"; "1.0"; "-2"; "0x1F"; "1e3" ] in
    let cond =
      oneof
        [ return (Printf.sprintf "[msg_type cur_msg] == \"%s\"" lit);
          return (Printf.sprintf "[msg_type cur_msg] != \"%s\"" lit);
          return (Printf.sprintf "$t == \"%s\"" lit);
          map (Printf.sprintf "[msg_type cur_msg] == %s") num;
          map (Printf.sprintf "$t < %s") num;
          map
            (fun p -> Printf.sprintf "[msg_type cur_msg] == \"%s\" && [chance %s] == 1" lit p)
            (oneofl [ "0.3"; "0.5"; "0.9" ]);
          map
            (fun p -> Printf.sprintf "[chance %s] == 1 || $t == \"%s\"" p lit)
            (oneofl [ "0.2"; "0.6" ]);
          map (Printf.sprintf "$n > %s") num;
          map (Printf.sprintf "$n %% %s == 0") (oneofl [ "2"; "3" ]);
          map (Printf.sprintf "$n+1 > %s") num;
          map (Printf.sprintf "-$n < %s") num;
          return "![info exists seen]";
          (* substitutions glued to their neighbours re-parse the text *)
          return (Printf.sprintf "\"$t\" == \"%s\"" lit);
          return "${n}0 > 20";
          return "$n.5 > 2";
          return "$n$n > 11";
          return "$t + 1 > 0";
          return "$n > 1 ? [chance 0.5] : 0" ]
    in
    let verdict =
      oneofl
        [ "xDrop cur_msg"; "xDelay cur_msg 0.5"; "xDup cur_msg"; ""; "note $t";
          "note [expr {$n * 2}]"; "bump 2"; "set seen 1" ]
    in
    let rec stmt depth =
      if depth = 0 then verdict
      else
        let sub = stmts (depth - 1) in
        frequency
          [ (3, verdict);
            (3, map2 (Printf.sprintf "if {%s} {\n%s\n}") cond sub);
            ( 2,
              map3
                (fun (c1, b1) (c2, b2) b3 ->
                  Printf.sprintf "if {%s} {\n%s\n} elseif {%s} {\n%s\n} else {\n%s\n}"
                    c1 b1 c2 b2 b3)
                (pair cond sub) (pair cond sub) sub );
            ( 1,
              map2
                (fun k body ->
                  Printf.sprintf
                    "set i%d 0\nwhile {$i%d < %d} {\nincr i%d\nif {$i%d == 2} continue\n%s\n}"
                    depth depth k depth depth body)
                (int_bound 3) sub );
            ( 1,
              map2
                (fun k body ->
                  Printf.sprintf
                    "for {set j%d 0} {$j%d < %d} {incr j%d} {\n%s\nif {$j%d > 1} break\n}"
                    depth depth k depth body depth)
                (int_bound 4) sub );
            ( 1,
              map2
                (fun list body -> Printf.sprintf "foreach v%d {%s} {\n%s\n}" depth list body)
                (oneofl [ ""; "a"; "a {b c} d" ]) sub );
            (1, map (Printf.sprintf "catch {\n%s\nerror boom\n} err") sub);
            (1, return "error \"filter failed\"") ]
    and stmts depth =
      map (String.concat "\n") (list_size (int_range 1 3) (stmt depth))
    in
    map
      (Printf.sprintf
         "proc bump {k} { global total; incr total $k }\n\
          set t [msg_type cur_msg]\n\
          if {![info exists n]} { set n 0 }\n\
          incr n\n\
          %s")
      (stmts 2))

let differential_case_gen =
  QCheck.Gen.(
    type_lit_gen >>= fun lit ->
    filter_gen lit >>= fun filter ->
    list_size (int_range 1 8) (type_gen lit) >>= fun types ->
    return (filter, types))

(* Runs [filter] once per message type in a fresh interpreter whose host
   commands stand in for the PFI layer: [msg_type] answers the type,
   verdicts and [note]s are logged per message, and [chance] draws from
   a generator seeded alike for both runs.  The first error ends the run,
   as it ends a trial. *)
let differential_run run types =
  let open Pfi_script in
  let t = Script.create () in
  let log = ref [] and draws = ref [] and cur = ref "" in
  let rng = Random.State.make [| 7 |] in
  let record what _ args = log := (!cur, what, args) :: !log; "" in
  Interp.register t "msg_type" (fun _ _ -> !cur);
  List.iter
    (fun v -> Interp.register t v (record v))
    [ "xDrop"; "xDelay"; "xDup"; "note" ];
  Interp.register t "chance" (fun _ args ->
      let p = float_of_string (List.hd args) in
      let hit = Random.State.float rng 1.0 < p in
      draws := hit :: !draws;
      if hit then "1" else "0");
  let error =
    match List.iter (fun ty -> cur := ty; ignore (run t)) types with
    | () -> None
    | exception Interp.Script_error msg -> Some msg
  in
  let globals =
    List.map (fun v -> (v, Interp.get_global t v))
      [ "t"; "n"; "i1"; "i2"; "j1"; "j2"; "v1"; "v2"; "total"; "seen"; "err" ]
  in
  (List.rev !log, List.rev !draws, error, globals)

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled filters match the reference evaluator"
    ~count:500 ~long_factor:20
    (QCheck.make
       ~print:(fun (filter, types) ->
         Printf.sprintf "filter=\n%s\ntypes=[%s]" filter
           (String.concat "; " (List.map String.escaped types)))
       differential_case_gen)
    (fun (filter, types) ->
      let compiled = Pfi_script.Interp.compile filter in
      differential_run (fun t -> Pfi_script.Interp.eval_compiled t compiled) types
      = differential_run (fun t -> Interp_reference.eval t filter) types)

(* ------------------------------------------------------------------ *)
(* Oracle monitors: online, stored and reference evaluation agree      *)
(* ------------------------------------------------------------------ *)

(* Random oracles over all five constructors, with exact and wildcard
   node/tag values, substring and glob details and field atoms, judged
   over random traces (the empty one included) three ways: by a monitor
   attached to a counting trace while the entries are recorded, by a
   monitor attached to a storing trace, by [Oracle.eval] on the stored
   trace — all against the tree-walking reference evaluator.  Recording
   into the counting trace must force no detail unless the oracle has a
   detail pattern.  The counting trace is recycled across cases, so
   [Trace.clear] must also detach the previous case's monitor. *)

module Oracle = Pfi_testgen.Oracle

let mon_nodes = [| "alice"; "bob"; "n1" |]
let mon_tags = [| "abp.out"; "abp.deliver"; "gmp.view"; "x" |]
let mon_details = [| "msg-00"; "msg-01 bit=1"; "garbage"; "" |]

let oracle_gen =
  let open QCheck.Gen in
  let value exact wild = oneof [ oneofa exact; oneofa wild ] in
  let pat =
    map
      (fun (node, tag, detail, fields) -> { Oracle_reference.node; tag; detail; fields })
      (quad
         (opt (value mon_nodes [| "*"; "a*"; "*b"; "n*1" |]))
         (opt (value mon_tags [| "*"; "abp.*"; "*deliver"; "gmp*w" |]))
         (opt (oneofa [| "msg"; "bit=1"; "-0"; ""; "msg-*"; "*1"; "*arb*" |]))
         (oneof
            [ return [];
              map2 (fun k v -> [ (k, v) ]) (oneofa [| "bit"; "k" |])
                (oneofa [| "0"; "1"; "*"; "ab" |]) ]))
  in
  let vtime = map Vtime.sec (int_bound 12) in
  oneof
    [ map (fun p -> Oracle_reference.Eventually p) pat;
      map (fun p -> Oracle_reference.Never p) pat;
      map3
        (fun p a w ->
          Oracle_reference.Within
            (p, a, match w with None -> Vtime.infinity | Some w -> Vtime.add a w))
        pat vtime (opt vtime);
      map (fun ps -> Oracle_reference.Ordered ps) (list_size (int_bound 3) pat);
      map3
        (fun p c n -> Oracle_reference.Count (p, c, n))
        pat (oneofl Oracle.[ Lt; Le; Eq; Ne; Ge; Gt ]) (int_bound 5) ]

let mon_trace_gen =
  QCheck.Gen.(
    list_size (int_bound 25)
      (quad (int_bound 3) (int_bound 3) (int_bound 3) (pair (int_bound 3) (opt (int_bound 1)))))

(* details forced so far, by anyone *)
let mon_forced = ref 0

let mon_record tr entries =
  ignore
    (List.fold_left
       (fun time (dt, ni, ti, (di, bit)) ->
         let time = Vtime.add time (Vtime.sec dt) in
         let detail = mon_details.(di) in
         let fields = match bit with Some b -> [ ("bit", string_of_int b) ] | None -> [] in
         Trace.record_with ~fields tr ~time ~node:mon_nodes.(ni mod 3) ~tag:mon_tags.(ti)
           (fun detail -> incr mon_forced; detail) detail;
         time)
       Vtime.zero entries)

let reads_details = function
  | Oracle_reference.Eventually p | Never p | Within (p, _, _) | Count (p, _, _) ->
    p.Oracle_reference.detail <> None
  | Ordered ps -> List.exists (fun p -> p.Oracle_reference.detail <> None) ps

let recycled_counting = Trace.create_counting ()

let prop_monitors_match_reference =
  QCheck.Test.make ~name:"online monitors agree with the reference evaluator" ~count:1000
    (QCheck.make
       ~print:(fun (o, es) ->
         Printf.sprintf "%s over %d entries"
           (Oracle.describe (Oracle_reference.to_oracle o))
           (List.length es))
       (QCheck.Gen.pair oracle_gen mon_trace_gen))
    (fun (ref_oracle, entries) ->
      let oracle = Oracle_reference.to_oracle ref_oracle in
      let counting = recycled_counting in
      Trace.clear counting;
      let online = Oracle.monitor oracle in
      Oracle.attach online counting;
      let forced0 = !mon_forced in
      mon_record counting entries;
      (* recording forces a detail only for a detail pattern *)
      let lazy_enough = reads_details ref_oracle || !mon_forced = forced0 in
      let stored = Trace.create () in
      let attached = Oracle.monitor oracle in
      Oracle.attach attached stored;
      mon_record stored entries;
      let expected = Oracle_reference.eval ref_oracle stored in
      let agree (v : Oracle.verdict) = v = expected in
      lazy_enough
      && agree (Oracle.verdict online counting)
      && agree (Oracle.verdict attached stored)
      && agree (Oracle.eval oracle stored)
      && Oracle.check_monitors [ online ] counting = Oracle.check [ oracle ] stored)

(* ------------------------------------------------------------------ *)
(* Fuzz coverage: live features equal the stored trace's              *)
(* ------------------------------------------------------------------ *)

(* A fuzz execution reads its features live: pair counts of its arena's
   counting trace, and a state feed attached after build.  They must
   equal the features of the same trial captured, read back from its
   stored entries — which holds only while no harness records a
   state-tag entry during build, before the feed is attached. *)
let prop_live_features_match_stored =
  let open Pfi_testgen in
  let harnesses = Array.of_list Registry.entries in
  (* a registry harness and an input [steps] mutations away from one of
     its seed-corpus inputs *)
  let input_of (hi, seed, steps) =
    let h = harnesses.(hi) in
    let spec = Harness_intf.spec h and target = Harness_intf.target h in
    let horizon = Harness_intf.default_horizon h in
    let corpus = Array.of_list (Fuzz.seed_corpus ~spec) in
    let rng = Rng.create ~seed:(Int64.of_int seed) in
    let rec walk input k =
      if k = 0 then input
      else walk (Fuzz.mutate rng ~spec ~target ~horizon ~corpus input) (k - 1)
    in
    (h, walk corpus.(Rng.int rng (Array.length corpus)) steps)
  in
  let print case =
    let h, input = input_of case in
    Harness_intf.name h ^ " " ^ Fuzz.canonical input
  in
  QCheck.Test.make ~name:"live fuzz features equal the stored trace's" ~count:50
    (QCheck.make ~print
       QCheck.Gen.(
         triple
           (int_bound (Array.length harnesses - 1))
           (int_bound 1_000_000) (int_bound 6)))
    (fun case ->
      let h, input = input_of case in
      let tr = Fuzz.trial ~fuzz_seed:31L input in
      let live_verdict, live = Fuzz.execute h tr in
      let captured =
        Campaign.run_trial ~capture_trace:true h
          ~horizon:(Harness_intf.default_horizon h) tr
      in
      let t = Option.get captured.Campaign.trace in
      let stored =
        Coverage.features_of_trace ~states:(Harness_intf.state_of_trace h t) t
      in
      live_verdict = captured.Campaign.verdict
      && Coverage.feature_list live = Coverage.feature_list stored)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_tokenize_total;
    QCheck_alcotest.to_alcotest prop_expr_no_crash;
    QCheck_alcotest.to_alcotest prop_tcp_integrity;
    QCheck_alcotest.to_alcotest prop_gmp_agreement;
    QCheck_alcotest.to_alcotest prop_abp_integrity;
    QCheck_alcotest.to_alcotest prop_event_queue_model;
    QCheck_alcotest.to_alcotest prop_network_model;
    QCheck_alcotest.to_alcotest prop_rng_int_uniform;
    QCheck_alcotest.to_alcotest prop_trace_clear_reuse;
    QCheck_alcotest.to_alcotest prop_encoders_match_reference;
    QCheck_alcotest.to_alcotest prop_decoders_match_reference;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
    QCheck_alcotest.to_alcotest prop_monitors_match_reference;
    QCheck_alcotest.to_alcotest prop_readers_total_on_mutations;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    QCheck_alcotest.to_alcotest prop_live_features_match_stored;
  ]
