(* List-level trace queries the tests read results through: each is a
   filter over a stored trace's entries, for the shapes [Trace] itself
   does not offer. *)

open Pfi_engine

(* entries matching every given criterion, in recording order *)
let find ?node ?tag t =
  List.filter
    (fun (e : Trace.entry) ->
      (match node with Some n -> String.equal e.node n | None -> true)
      && match tag with Some g -> String.equal e.tag g | None -> true)
    (Trace.entries t)

(* every entry with its recording index: what oracle witnesses cite *)
let iteri f t = List.iteri f (Trace.entries t)

let timestamps ?node ~tag t =
  List.map (fun (e : Trace.entry) -> e.time) (find ?node ~tag t)

(* successive differences of [timestamps]: the gaps between events *)
let intervals ?node ~tag t =
  let rec diffs = function
    | a :: (b :: _ as rest) -> Vtime.sub b a :: diffs rest
    | [ _ ] | [] -> []
  in
  diffs (timestamps ?node ~tag t)

let last ?node ?tag t =
  match List.rev (find ?node ?tag t) with e :: _ -> Some e | [] -> None

(* the entry a recording index (an oracle witness) names *)
let get t i = List.nth (Trace.entries t) i
