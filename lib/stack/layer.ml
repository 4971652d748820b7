type t = {
  layer_name : string;
  node_name : string;
  handlers : handlers;
  mutable above : t option;
  mutable below : t option;
}

and handlers = {
  on_push : t -> Message.t -> unit;
  on_pop : t -> Message.t -> unit;
}

let create ~name ~node handlers =
  { layer_name = name; node_name = node; handlers; above = None; below = None }

let name t = t.layer_name
let node t = t.node_name
let above t = t.above
let below t = t.below

let push t msg = t.handlers.on_push t msg
let pop t msg = t.handlers.on_pop t msg

let send_down t msg =
  match t.below with
  | Some lower -> push lower msg
  | None ->
    failwith
      (Printf.sprintf "layer %s/%s: send_down off the bottom of the stack"
         t.node_name t.layer_name)

let deliver_up t msg =
  match t.above with
  | Some upper -> pop upper msg
  | None ->
    failwith
      (Printf.sprintf "layer %s/%s: deliver_up off the top of the stack"
         t.node_name t.layer_name)

let passthrough ~name ~node () =
  create ~name ~node
    { on_push = (fun t msg -> send_down t msg);
      on_pop = (fun t msg -> deliver_up t msg) }

let link ~upper ~lower =
  upper.below <- Some lower;
  lower.above <- Some upper

let rec stack = function
  | upper :: (lower :: _ as rest) ->
    link ~upper ~lower;
    stack rest
  | [ _ ] | [] -> ()

let insert_below target layer =
  let old_lower = target.below in
  link ~upper:target ~lower:layer;
  match old_lower with
  | Some lower -> link ~upper:layer ~lower
  | None -> layer.below <- None

let remove t =
  (match (t.above, t.below) with
   | Some upper, Some lower -> link ~upper ~lower
   | Some upper, None -> upper.below <- None
   | None, Some lower -> lower.above <- None
   | None, None -> ());
  t.above <- None;
  t.below <- None
