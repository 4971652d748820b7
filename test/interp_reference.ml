(* The string-walking evaluator that compiled scripts replaced, kept as
   the reference they are checked against.  It parses a script from its
   text every time it runs one, substitutes an [expr] argument into text
   and parses that text, and runs every control-flow body by re-parsing
   its string argument on each call — no memo anywhere, the opposite
   trade-off from [Interp], so agreement is evidence.

   Word expansion, [expr] and the control-flow commands live here; every
   other command (host commands, [set], [proc] and the procs it defines,
   ...) is called through the interpreter's table, its substituted
   arguments passed as constant words. *)

open Pfi_script

let arity name spec = Interp.errorf "wrong # args: should be \"%s %s\"" name spec

(* a value [Expr.parse_number] accepts goes into the text raw, any other
   value brace-quoted *)
let quote_value v =
  match Expr.parse_number v with Some _ -> v | None -> "{" ^ v ^ "}"

let max_loop_iterations = 1_000_000

let guarded_loop name body =
  let iterations = ref 0 in
  let step () =
    incr iterations;
    if !iterations > max_loop_iterations then
      Interp.errorf "%s: exceeded %d iterations (runaway loop?)" name
        max_loop_iterations
  in
  try body step with Interp.Break_exn -> ()

(* a command through the interpreter's table *)
let call t name args =
  Interp.eval_compiled t [ List.map (fun s -> Ast.Const (Ast.body s)) (name :: args) ]

let rec eval t src =
  List.fold_left (fun _ command -> eval_command t command) "" (Parser.parse src)

and substitute t ~quote tokens =
  let buf = Buffer.create 32 in
  List.iter
    (fun token ->
      match token with
      | Ast.Lit s -> Buffer.add_string buf s
      | Ast.Var_ref name -> Buffer.add_string buf (quote (Interp.get_var_exn t name))
      | Ast.Cmd_sub b -> Buffer.add_string buf (quote (eval t b.Ast.text)))
    tokens;
  Buffer.contents buf

and expand_word t = function
  | Ast.Const b -> b.Ast.text
  | Ast.Tokens tokens -> substitute t ~quote:Fun.id tokens

(* every word, left to right, then the command *)
and eval_command t words =
  match List.map (expand_word t) words with
  | [] -> ""
  | name :: args ->
    (match control name with
     | Some cmd -> cmd t args
     | None -> call t name args)

and eval_expr t src =
  match Expr.eval (substitute t ~quote:quote_value (Parser.tokenize src)) with
  | v -> v
  | exception Expr.Error msg -> Interp.error msg

and eval_cond t src =
  match Expr.truthy (eval_expr t src) with
  | b -> b
  | exception Expr.Error msg -> Interp.error msg

and control = function
  | "expr" -> Some cmd_expr
  | "if" -> Some cmd_if
  | "while" -> Some cmd_while
  | "for" -> Some cmd_for
  | "foreach" -> Some cmd_foreach
  | "catch" -> Some cmd_catch
  | "eval" -> Some cmd_eval
  | "switch" -> Some cmd_switch
  | _ -> None

and cmd_expr t = function
  | [] -> arity "expr" "arg ?arg ...?"
  | args -> Expr.to_string (eval_expr t (String.concat " " args))

and cmd_if t args =
  let rec go = function
    | cond :: rest -> begin
      let rest = match rest with "then" :: r -> r | r -> r in
      match rest with
      | body :: rest ->
        if eval_cond t cond then eval t body
        else begin
          match rest with
          | [] -> ""
          | "elseif" :: rest -> go rest
          | "else" :: [ body ] -> eval t body
          | [ body ] -> eval t body
          | _ -> arity "if" "cond ?then? body ?elseif cond body ...? ?else body?"
        end
      | [] -> arity "if" "cond ?then? body"
    end
    | [] -> arity "if" "cond ?then? body"
  in
  go args

and cmd_while t = function
  | [ cond; body ] ->
    guarded_loop "while" (fun step ->
        while eval_cond t cond do
          step ();
          match eval t body with
          | _ -> ()
          | exception Interp.Continue_exn -> ()
        done);
    ""
  | _ -> arity "while" "test command"

and cmd_for t = function
  | [ init; cond; next; body ] ->
    ignore (eval t init);
    guarded_loop "for" (fun step ->
        while eval_cond t cond do
          step ();
          (match eval t body with
           | _ -> ()
           | exception Interp.Continue_exn -> ());
          ignore (eval t next)
        done);
    ""
  | _ -> arity "for" "start test next command"

and cmd_foreach t = function
  | [ var; list; body ] ->
    (try
       List.iter
         (fun element ->
           Interp.set_var t var element;
           match eval t body with
           | _ -> ()
           | exception Interp.Continue_exn -> ())
         (Tcl_list.to_list list)
     with Interp.Break_exn -> ());
    ""
  | _ -> arity "foreach" "varName list command"

and cmd_catch t = function
  | [ script ] | [ script; _ ] as args ->
    let store result =
      match args with
      | [ _; var ] -> Interp.set_var t var result
      | _ -> ()
    in
    (match eval t script with
     | result -> store result; "0"
     | exception Interp.Script_error msg -> store msg; "1"
     | exception Interp.Return_exn v -> store v; "2"
     | exception Interp.Break_exn -> store ""; "3"
     | exception Interp.Continue_exn -> store ""; "4")
  | _ -> arity "catch" "script ?varName?"

and cmd_eval t = function
  | [] -> arity "eval" "arg ?arg ...?"
  | args -> eval t (String.concat " " args)

and cmd_switch t args =
  let glob, args =
    match args with
    | "-glob" :: rest -> (true, rest)
    | "--" :: rest -> (false, rest)
    | rest -> (false, rest)
  in
  let value, clauses =
    match args with
    | [ value; block ] -> (value, Tcl_list.to_list block)
    | value :: rest when List.length rest >= 2 -> (value, rest)
    | _ -> arity "switch" "?-glob? string {pattern body ?pattern body ...?}"
  in
  let rec pairs = function
    | [] -> []
    | pattern :: body :: rest -> (pattern, body) :: pairs rest
    | [ _ ] -> Interp.errorf "switch: extra pattern with no body"
  in
  let matches pattern =
    String.equal pattern "default"
    || (if glob then call t "string" [ "match"; pattern; value ] = "1"
        else String.equal pattern value)
  in
  let rec go = function
    | [] -> ""
    | (pattern, body) :: rest -> if matches pattern then eval t body else go rest
  in
  go (pairs clauses)
