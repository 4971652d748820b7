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
  commands : (string, t -> string list -> string) Hashtbl.t;
  procs : (string, proc) Hashtbl.t;
  mutable out : string -> unit;
  mutable depth : int;
  (* Interpreter-local compilation caches.  Filter scripts evaluate the
     same handful of source strings (if/while bodies, expr conditions)
     once per message, so parsing is memoized per interpreter: the keys
     are the immutable source strings themselves and the parsed ASTs are
     never mutated.  Per-interpreter (not global) so parallel campaign
     domains never contend on a shared table. *)
  script_cache : (string, Ast.script) Hashtbl.t;
  token_cache : (string, Ast.token list) Hashtbl.t;
  (* [Expr.eval] is a pure function of the substituted expression
     string, so its result is cacheable too: type-dispatch conditions
     like [{ACK} == "MSG"] take only a few distinct substituted forms
     per trial.  Random-valued substitutions would grow the table
     without bound, hence the flush. *)
  expr_cache : (string, Expr.value) Hashtbl.t;
}

let max_depth = 500

(* Flushing at a size cap keeps the caches O(1) for the pathological
   case (a script synthesizing unbounded distinct source strings) while
   costing nothing in the common case of a fixed script set. *)
let max_cache_entries = 1024

let cached tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute key in
    if Hashtbl.length tbl >= max_cache_entries then Hashtbl.reset tbl;
    Hashtbl.add tbl key v;
    v

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
  match get_var t name with
  | Some v -> v
  | None -> errorf "can't read %S: no such variable" name

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

let register t name fn = Hashtbl.replace t.commands name fn
let unregister t name = Hashtbl.remove t.commands name
let has_command t name = Hashtbl.mem t.commands name || Hashtbl.mem t.procs name

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
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let compile = Parser.parse

let rec expand_tokens t tokens =
  match tokens with
  (* singleton fast paths: almost every word is one token (the command
     name, a plain argument, a lone [$var] or [cmd] substitution), and
     none of those need a Buffer *)
  | [] -> ""
  | [ Ast.Lit s ] -> s
  | [ Ast.Var_ref name ] -> get_var_exn t name
  | [ Ast.Cmd_sub script ] -> eval t script
  | tokens ->
    let buf = Buffer.create 32 in
    List.iter
      (fun token ->
        match token with
        | Ast.Lit s -> Buffer.add_string buf s
        | Ast.Var_ref name -> Buffer.add_string buf (get_var_exn t name)
        | Ast.Cmd_sub script -> Buffer.add_string buf (eval t script))
      tokens;
    Buffer.contents buf

and expand_word t = function
  | Ast.Braced s -> s
  | Ast.Tokens tokens -> expand_tokens t tokens

and eval_command t words =
  match List.map (expand_word t) words with
  | [] -> ""
  | name :: args -> call t name args

and call t name args =
  match Hashtbl.find_opt t.commands name with
  | Some fn -> fn t args
  | None ->
    (match Hashtbl.find_opt t.procs name with
     | Some proc -> call_proc t name proc args
     | None -> errorf "invalid command name %S" name)

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

and eval_script t script =
  List.fold_left (fun _ command -> eval_command t command) "" script

(* [eval] is the per-message workhorse: control-flow commands ([if],
   [while], ...) receive their bodies as unparsed braced strings and
   evaluate them through here every time they run, so the parse is
   memoized on the source string. *)
and eval t src = eval_script t (cached t.script_cache src Parser.parse)

let eval_compiled = eval_script

(* ------------------------------------------------------------------ *)
(* Substitution helpers                                               *)
(* ------------------------------------------------------------------ *)

let tokenized t src = cached t.token_cache src Parser.tokenize

let subst_string t src = expand_tokens t (tokenized t src)

(* For expr: substituted values that are not numeric literals are
   brace-quoted so the expression lexer reads them as string literals
   (mirrors Tcl, where expr re-parses $vars itself). *)
let quote_value v =
  match Expr.parse_number v with
  | Some _ -> v
  | None -> "{" ^ v ^ "}"

let subst_expr t src =
  match tokenized t src with
  (* shape fast paths: filter conditions are one or two tokens
     ([msg_type cur_msg] == "TYPE", $var == 1, a bare literal), which
     need a single concatenation instead of a Buffer *)
  | [] -> ""
  | [ Ast.Lit s ] -> s
  | [ Ast.Var_ref name ] -> quote_value (get_var_exn t name)
  | [ Ast.Cmd_sub script ] -> quote_value (eval t script)
  | [ Ast.Cmd_sub script; Ast.Lit s ] -> quote_value (eval t script) ^ s
  | [ Ast.Lit s; Ast.Cmd_sub script ] -> s ^ quote_value (eval t script)
  | [ Ast.Var_ref name; Ast.Lit s ] -> quote_value (get_var_exn t name) ^ s
  | [ Ast.Lit s; Ast.Var_ref name ] -> s ^ quote_value (get_var_exn t name)
  | tokens ->
    let buf = Buffer.create 32 in
    List.iter
      (fun token ->
        match token with
        | Ast.Lit s -> Buffer.add_string buf s
        | Ast.Var_ref name ->
          Buffer.add_string buf (quote_value (get_var_exn t name))
        | Ast.Cmd_sub script ->
          Buffer.add_string buf (quote_value (eval t script)))
      tokens;
    Buffer.contents buf

let eval_expr t src =
  match cached t.expr_cache (subst_expr t src) Expr.eval with
  | v -> v
  | exception Expr.Error msg -> error msg

let eval_expr_bool t src =
  match Expr.truthy (eval_expr t src) with
  | b -> b
  | exception Expr.Error msg -> error msg

(* ------------------------------------------------------------------ *)
(* Creation                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(output = print_string) () =
  { globals = Hashtbl.create 64;
    frames = [];
    commands = Hashtbl.create 64;
    procs = Hashtbl.create 16;
    out = output;
    depth = 0;
    script_cache = Hashtbl.create 32;
    token_cache = Hashtbl.create 32;
    expr_cache = Hashtbl.create 64 }
