open Pfi_engine

type t = {
  arena_scratch : Sim.scratch;
  mutable arena_trials : int;
}

(* One process-global key, never one per campaign: DLS slots are never
   reclaimed, so a per-campaign key would leak a scratch per campaign
   per domain.  The per-domain arena is created lazily on the domain's
   first trial and lives as long as the domain does — executor workers
   are short-lived, so in practice an arena serves exactly the trials
   one [try_map] claim set runs on that domain. *)
let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { arena_scratch = Sim.scratch (); arena_trials = 0 })

let get () = Domain.DLS.get key

let scratch () =
  let a = get () in
  a.arena_trials <- a.arena_trials + 1;
  Sim.clear_scratch a.arena_scratch;
  a.arena_scratch

let trials_served () = (get ()).arena_trials
