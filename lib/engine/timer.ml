type t = {
  sim : Sim.t;
  name : string;
  callback : unit -> unit;
  interval : Vtime.t option;  (* Some i for periodic timers *)
  mutable handle : Sim.handle;  (* Sim.null_handle while disarmed *)
  mutable deadline : Vtime.t;  (* meaningful only while armed *)
  mutable fired : int;
  (* the closure handed to Sim.schedule, built once at creation so
     every re-arm schedules the same physical closure instead of
     allocating a fresh one (retransmit-style timers re-arm per
     message) *)
  mutable self_fire : unit -> unit;
}

(* Armed-ness lives in the handle itself rather than in options; the
   handle is an immediate, so a re-arm allocates nothing. *)
let is_armed t = t.handle != Sim.null_handle

let disarm t =
  if is_armed t then begin
    Sim.cancel t.sim t.handle;
    t.handle <- Sim.null_handle
  end

let rec fire t =
  t.handle <- Sim.null_handle;
  t.fired <- t.fired + 1;
  (* Re-arm periodic timers before the callback so the callback may
     disarm or re-arm with a different phase. *)
  (match t.interval with
   | Some interval -> arm t ~delay:interval
   | None -> ());
  t.callback ()

and arm t ~delay =
  disarm t;
  t.deadline <- Vtime.add (Sim.now t.sim) (Vtime.max delay Vtime.zero);
  t.handle <- Sim.schedule t.sim ~delay t.self_fire

let make sim ~name ~interval ~callback =
  let t =
    { sim; name; callback; interval; handle = Sim.null_handle; deadline = Vtime.zero;
      fired = 0; self_fire = ignore }
  in
  t.self_fire <- (fun () -> fire t);
  t

let create sim ~name ~callback = make sim ~name ~interval:None ~callback

let create_periodic sim ~name ~interval ~callback =
  make sim ~name ~interval:(Some interval) ~callback


let deadline t = if is_armed t then Some t.deadline else None

let remaining t =
  if is_armed t then Some (Vtime.sub t.deadline (Sim.now t.sim)) else None

let fired_count t = t.fired
