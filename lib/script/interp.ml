exception Script_error of string
exception Return_exn of string
exception Break_exn
exception Continue_exn

let error msg = raise (Script_error msg)
let errorf fmt = Format.kasprintf error fmt

type proc = {
  params : (string * string option) list;
  varargs : bool;
  body : Ast.script;
}

type frame = {
  locals : (string, string) Hashtbl.t;
  mutable global_links : string list;
}

type t = {
  globals : (string, string) Hashtbl.t;
  mutable frames : frame list;  (* innermost first *)
  commands : (string, command) Hashtbl.t;
  procs : (string, proc) Hashtbl.t;
  mutable out : string -> unit;
  mutable depth : int;
}

and command =
  | Values of (t -> string list -> string)
  | Bodies of (t -> Ast.body list -> string)

let max_depth = 500

(* ------------------------------------------------------------------ *)
(* Variables                                                          *)
(* ------------------------------------------------------------------ *)

let var_table t name =
  match t.frames with
  | [] -> t.globals
  | frame :: _ ->
    if List.mem name frame.global_links then t.globals else frame.locals

let get_var t name = Hashtbl.find_opt (var_table t name) name

let get_var_exn t name =
  match Hashtbl.find (var_table t name) name with
  | v -> v
  | exception Not_found -> errorf "can't read %S: no such variable" name

let set_var t name value = Hashtbl.replace (var_table t name) name value

let unset_var t name = Hashtbl.remove (var_table t name) name

let var_exists t name = Hashtbl.mem (var_table t name) name

let set_global t name value = Hashtbl.replace t.globals name value
let get_global t name = Hashtbl.find_opt t.globals name

let pop_frame t =
  match t.frames with
  | [] -> ()
  | _ :: rest -> t.frames <- rest

let mark_global t name =
  match t.frames with
  | [] -> ()  (* already global scope *)
  | frame :: _ ->
    if not (List.mem name frame.global_links) then
      frame.global_links <- name :: frame.global_links

(* ------------------------------------------------------------------ *)
(* Commands and procs                                                 *)
(* ------------------------------------------------------------------ *)

let register t name fn = Hashtbl.replace t.commands name (Values fn)
let register_bodies t name fn = Hashtbl.replace t.commands name (Bodies fn)

let command_names t =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.commands [] in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.procs names in
  List.sort_uniq compare names

let define_proc t name proc = Hashtbl.replace t.procs name proc
let proc_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.procs [])

let output t s = t.out s
let set_output t fn = t.out <- fn
let get_output t = t.out

(* ------------------------------------------------------------------ *)
(* Compiled parts                                                     *)
(* ------------------------------------------------------------------ *)

let compile = Parser.parse

(* Each accessor returns the body's compiled form for its role, parsing
   and storing it on first use (see {!Ast} on sharing across domains). *)
let body_script (b : Ast.body) =
  match b.code with
  | Script s -> s
  | _ ->
    let s = Parser.parse b.text in
    b.code <- Script s;
    s

let body_list (b : Ast.body) =
  match b.code with
  | List l -> l
  | _ ->
    let l = List.map Ast.body (Tcl_list.to_list b.text) in
    b.code <- List l;
    l

let compile_expr src =
  let rec split seg segs holes = function
    | [] -> (List.rev (seg :: segs), holes)
    | Ast.Lit s :: rest -> split (seg ^ s) segs holes rest
    | hole :: rest -> split "" (seg :: segs) (hole :: holes) rest
  in
  let segs, holes = split "" [] [] (Parser.tokenize src) in
  { Ast.holes = Array.of_list (List.rev holes); template = Expr.template segs }

let body_expr (b : Ast.body) =
  match b.code with
  | Expr e -> e
  | _ ->
    let e = compile_expr b.text in
    b.code <- Expr e;
    e

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let rec subst t = function
  | Ast.Lit s -> s
  | Ast.Var_ref name -> get_var_exn t name
  | Ast.Cmd_sub b -> eval_body t b

and expand_word t = function
  | Ast.Const b -> b.text
  | Ast.Tokens [ token ] -> subst t token
  | Ast.Tokens tokens ->
    let buf = Buffer.create 32 in
    List.iter (fun token -> Buffer.add_string buf (subst t token)) tokens;
    Buffer.contents buf

(* Arguments expand left to right: to values for a host command, to
   bodies for a [Bodies] command — a constant word's own, whose compiled
   forms outlive the call, or a fresh one around a substituted value. *)
and values t = function
  | [] -> []
  | word :: rest -> let v = expand_word t word in v :: values t rest

and bodies t = function
  | [] -> []
  | Ast.Const b :: rest -> b :: bodies t rest
  | word :: rest -> let b = Ast.body (expand_word t word) in b :: bodies t rest

(* Names resolve through the table on every call, commands before
   procs; a host [register] over a [Bodies] builtin replaces it. *)
and eval_command t = function
  | [] -> ""
  | name :: args ->
    let name = expand_word t name in
    (match Hashtbl.find t.commands name with
     | Values fn -> fn t (values t args)
     | Bodies fn -> fn t (bodies t args)
     | exception Not_found ->
       let args = values t args in
       (match Hashtbl.find t.procs name with
        | proc -> call_proc t name proc args
        | exception Not_found -> errorf "invalid command name %S" name))

and call_proc t name proc args =
  if t.depth >= max_depth then errorf "too many nested proc calls (%s)" name;
  let frame = { locals = Hashtbl.create 8; global_links = [] } in
  (* bind parameters *)
  let rec bind params args =
    match (params, args) with
    | [], [] -> ()
    | [], _ :: _ ->
      if not proc.varargs then
        errorf "wrong # args: proc %S called with too many arguments" name
    | (p, default) :: prest, [] ->
      (match default with
       | Some d -> Hashtbl.replace frame.locals p d; bind prest []
       | None ->
         errorf "wrong # args: proc %S missing argument %S" name p)
    | (p, _) :: prest, a :: arest ->
      Hashtbl.replace frame.locals p a;
      bind prest arest
  in
  let fixed = List.length proc.params in
  let fixed_args, rest_args =
    let rec split i = function
      | rest when i = fixed -> ([], rest)
      | [] -> ([], [])
      | a :: tl ->
        let taken, rest = split (i + 1) tl in
        (a :: taken, rest)
    in
    split 0 args
  in
  bind proc.params fixed_args;
  if proc.varargs then
    Hashtbl.replace frame.locals "args" (Tcl_list.of_list rest_args)
  else if rest_args <> [] then
    errorf "wrong # args: proc %S called with too many arguments" name;
  t.frames <- frame :: t.frames;
  t.depth <- t.depth + 1;
  let finish () =
    t.depth <- t.depth - 1;
    pop_frame t
  in
  match eval_script t proc.body with
  | result -> finish (); result
  | exception Return_exn v -> finish (); v
  | exception e -> finish (); raise e

and eval_script t = function
  | [] -> ""
  | [ command ] -> eval_command t command
  | command :: rest -> ignore (eval_command t command); eval_script t rest

and eval_body t b = eval_script t (body_script b)

let eval_compiled = eval_script

let eval t src = eval_script t (Parser.parse src)

let subst_string t src =
  expand_word t (Ast.Tokens (Parser.tokenize src))

(* Substitutes every hole, left to right, before evaluating: no operand
   of [&&], [||] or [?:] skips its substitutions. *)
let eval_expr t b =
  let e = body_expr b in
  match Expr.eval_template e.template (Array.map (subst t) e.holes) with
  | v -> v
  | exception Expr.Error msg -> error msg

let eval_cond t b =
  match Expr.truthy (eval_expr t b) with
  | truth -> truth
  | exception Expr.Error msg -> error msg

(* ------------------------------------------------------------------ *)
(* Creation                                                           *)
(* ------------------------------------------------------------------ *)

let create () =
  { globals = Hashtbl.create 64;
    frames = [];
    commands = Hashtbl.create 64;
    procs = Hashtbl.create 16;
    out = print_string;
    depth = 0 }
