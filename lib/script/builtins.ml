open Interp

let arity name spec = errorf "wrong # args: should be \"%s %s\"" name spec

(* ------------------------------------------------------------------ *)
(* Variables                                                          *)
(* ------------------------------------------------------------------ *)

let cmd_set t = function
  | [ name ] -> get_var_exn t name
  | [ name; value ] -> set_var t name value; value
  | _ -> arity "set" "varName ?newValue?"

let cmd_unset t args =
  match args with
  | [] -> arity "unset" "varName ?varName ...?"
  | names -> List.iter (unset_var t) names; ""

let cmd_incr t = function
  | [ name ] | [ name; _ ] as args ->
    let amount =
      match args with
      | [ _; by ] ->
        (match int_of_string_opt by with
         | Some i -> i
         | None -> errorf "expected integer but got %S" by)
      | _ -> 1
    in
    let current =
      match get_var t name with
      | None -> 0
      | Some v ->
        (match int_of_string_opt v with
         | Some i -> i
         | None -> errorf "expected integer but got %S" v)
    in
    let updated = string_of_int (current + amount) in
    set_var t name updated;
    updated
  | _ -> arity "incr" "varName ?increment?"

let cmd_append t = function
  | name :: parts when parts <> [] ->
    let base = Option.value (get_var t name) ~default:"" in
    let v = base ^ String.concat "" parts in
    set_var t name v;
    v
  | _ -> arity "append" "varName value ?value ...?"

let cmd_global t args =
  List.iter (mark_global t) args;
  ""

let cmd_subst t = function
  | [ s ] -> subst_string t s
  | _ -> arity "subst" "string"

(* ------------------------------------------------------------------ *)
(* Expressions and control flow                                       *)
(* ------------------------------------------------------------------ *)

(* These take their arguments as bodies (see {!Interp.register_bodies}):
   [b.text] is an argument's value, and [eval_body], [eval_cond] and
   [body_list] reach its compiled forms. *)

let texts args = List.map (fun (b : Ast.body) -> b.text) args

let cmd_expr t args =
  match args with
  | [] -> arity "expr" "arg ?arg ...?"
  | [ b ] -> Expr.to_string (eval_expr t b)
  | args -> Expr.to_string (eval_expr t (Ast.body (String.concat " " (texts args))))

(* if cond ?then? body ?elseif cond ?then? body?* ?else? ?body? *)
let rec cmd_if t = function
  | cond :: rest -> begin
    let rest = match rest with { Ast.text = "then"; _ } :: r -> r | r -> r in
    match rest with
    | body :: rest ->
      if eval_cond t cond then eval_body t body
      else begin
        match rest with
        | [] -> ""
        | { Ast.text = "elseif"; _ } :: rest -> cmd_if t rest
        | [ { Ast.text = "else"; _ }; body ] | [ body ] -> eval_body t body
        | _ -> arity "if" "cond ?then? body ?elseif cond body ...? ?else body?"
      end
    | [] -> arity "if" "cond ?then? body"
  end
  | [] -> arity "if" "cond ?then? body"

(* filter scripts run inside a simulator event: a runaway loop would
   hang the whole experiment, so loops are capped *)
let max_loop_iterations = 1_000_000

let guarded_loop name body =
  let iterations = ref 0 in
  let step () =
    incr iterations;
    if !iterations > max_loop_iterations then
      errorf "%s: exceeded %d iterations (runaway loop?)" name max_loop_iterations
  in
  try body step with Break_exn -> ()

let cmd_while t = function
  | [ cond; body ] ->
    guarded_loop "while" (fun step ->
        while eval_cond t cond do
          step ();
          match eval_body t body with
          | _ -> ()
          | exception Continue_exn -> ()
        done);
    ""
  | _ -> arity "while" "test command"

let cmd_for t = function
  | [ init; cond; next; body ] ->
    ignore (eval_body t init);
    guarded_loop "for" (fun step ->
        while eval_cond t cond do
          step ();
          (match eval_body t body with
           | _ -> ()
           | exception Continue_exn -> ());
          ignore (eval_body t next)
        done);
    ""
  | _ -> arity "for" "start test next command"

let cmd_foreach t = function
  | [ var; list; body ] ->
    (try
       List.iter
         (fun (element : Ast.body) ->
           set_var t var.Ast.text element.text;
           match eval_body t body with
           | _ -> ()
           | exception Continue_exn -> ())
         (body_list list)
     with Break_exn -> ());
    ""
  | _ -> arity "foreach" "varName list command"

let cmd_break _ = function
  | [] -> raise Break_exn
  | _ -> arity "break" ""

let cmd_continue _ = function
  | [] -> raise Continue_exn
  | _ -> arity "continue" ""

let cmd_return _ = function
  | [] -> raise (Return_exn "")
  | [ v ] -> raise (Return_exn v)
  | _ -> arity "return" "?value?"

let cmd_error _ = function
  | [ msg ] -> error msg
  | msg :: _ -> error msg
  | [] -> arity "error" "message"

let cmd_catch t = function
  | [ script ] | [ script; _ ] as args ->
    let store result =
      match args with
      | [ _; var ] -> set_var t var.Ast.text result
      | _ -> ()
    in
    (match eval_body t script with
     | result -> store result; "0"
     | exception Script_error msg -> store msg; "1"
     | exception Return_exn v -> store v; "2"
     | exception Break_exn -> store ""; "3"
     | exception Continue_exn -> store ""; "4")
  | _ -> arity "catch" "script ?varName?"

let cmd_eval t = function
  | [] -> arity "eval" "arg ?arg ...?"
  | [ b ] -> eval_body t b
  | args -> eval t (String.concat " " (texts args))

let cmd_proc t = function
  | [ name; params; body ] ->
    let name = name.Ast.text and params = params.Ast.text in
    let param_list = Tcl_list.to_list params in
    let rec build acc = function
      | [] -> (List.rev acc, false)
      | [ "args" ] -> (List.rev acc, true)
      | p :: rest ->
        (match Tcl_list.to_list p with
         | [ pname; default ] -> build ((pname, Some default) :: acc) rest
         | [ pname ] -> build ((pname, None) :: acc) rest
         | _ -> errorf "bad parameter specification %S in proc %S" p name)
    in
    let params, varargs = build [] param_list in
    define_proc t name { params; varargs; body = body_script body };
    ""
  | _ -> arity "proc" "name args body"

(* glob matching for [string match]: *, ? and literal characters *)
let rec glob_match pattern p s_str s =
  let plen = String.length pattern and slen = String.length s_str in
  if p >= plen then s >= slen
  else
    match pattern.[p] with
    | '*' ->
      glob_match pattern (p + 1) s_str s
      || (s < slen && glob_match pattern p s_str (s + 1))
    | '?' -> s < slen && glob_match pattern (p + 1) s_str (s + 1)
    | '\\' when p + 1 < plen ->
      s < slen && pattern.[p + 1] = s_str.[s]
      && glob_match pattern (p + 2) s_str (s + 1)
    | ch -> s < slen && ch = s_str.[s] && glob_match pattern (p + 1) s_str (s + 1)

let cmd_switch t args =
  let glob, args =
    match args with
    | { Ast.text = "-glob"; _ } :: rest -> (true, rest)
    | { Ast.text = "--"; _ } :: rest -> (false, rest)
    | rest -> (false, rest)
  in
  let value, clauses =
    match args with
    | [ value; block ] -> (value.Ast.text, body_list block)
    | value :: rest when List.length rest >= 2 -> (value.Ast.text, rest)
    | _ -> arity "switch" "?-glob? string {pattern body ?pattern body ...?}"
  in
  let rec pairs = function
    | [] -> []
    | (pattern : Ast.body) :: body :: rest -> (pattern.text, body) :: pairs rest
    | [ _ ] -> errorf "switch: extra pattern with no body"
  in
  let matches pattern =
    String.equal pattern "default"
    || (if glob then glob_match pattern 0 value 0 else String.equal pattern value)
  in
  let rec go = function
    | [] -> ""
    | (pattern, body) :: rest -> if matches pattern then eval_body t body else go rest
  in
  go (pairs clauses)

(* ------------------------------------------------------------------ *)
(* Lists                                                              *)
(* ------------------------------------------------------------------ *)

let int_arg name s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> errorf "%s: expected integer but got %S" name s

let cmd_list _ args = Tcl_list.of_list args

let cmd_lindex _ = function
  | [ list; i ] ->
    Option.value (Tcl_list.index list (int_arg "lindex" i)) ~default:""
  | _ -> arity "lindex" "list index"

let cmd_llength _ = function
  | [ list ] -> string_of_int (Tcl_list.length list)
  | _ -> arity "llength" "list"

let cmd_lappend t = function
  | name :: elements when elements <> [] ->
    let base = Option.value (get_var t name) ~default:"" in
    let v = List.fold_left Tcl_list.append base elements in
    set_var t name v;
    v
  | _ -> arity "lappend" "varName value ?value ...?"

let cmd_lrange _ = function
  | [ list; first; last ] ->
    let parse_end s = if s = "end" then max_int else int_arg "lrange" s in
    Tcl_list.range list (int_arg "lrange" first) (parse_end last)
  | _ -> arity "lrange" "list first last"

let cmd_lsort _ = function
  | [ list ] -> Tcl_list.of_list (List.sort compare (Tcl_list.to_list list))
  | [ "-integer"; list ] ->
    let by_int a b =
      compare
        (Option.value (int_of_string_opt a) ~default:0)
        (Option.value (int_of_string_opt b) ~default:0)
    in
    Tcl_list.of_list (List.sort by_int (Tcl_list.to_list list))
  | _ -> arity "lsort" "?-integer? list"

let cmd_lreverse _ = function
  | [ list ] -> Tcl_list.of_list (List.rev (Tcl_list.to_list list))
  | _ -> arity "lreverse" "list"

let cmd_lrepeat _ = function
  | count :: (_ :: _ as elements) ->
    let n = int_arg "lrepeat" count in
    Tcl_list.of_list (List.concat (List.init (max 0 n) (fun _ -> elements)))
  | _ -> arity "lrepeat" "count element ?element ...?"

let cmd_lsearch _ = function
  | [ list; pattern ] ->
    let elements = Tcl_list.to_list list in
    let rec find i = function
      | [] -> -1
      | e :: rest -> if String.equal e pattern then i else find (i + 1) rest
    in
    string_of_int (find 0 elements)
  | _ -> arity "lsearch" "list pattern"

let cmd_concat _ args =
  String.concat " " (List.filter (fun s -> String.trim s <> "") (List.map String.trim args))

let cmd_join _ = function
  | [ list ] -> String.concat " " (Tcl_list.to_list list)
  | [ list; sep ] -> String.concat sep (Tcl_list.to_list list)
  | _ -> arity "join" "list ?joinString?"

let cmd_split _ = function
  | [ s ] ->
    Tcl_list.of_list
      (String.split_on_char ' ' s
       |> List.concat_map (String.split_on_char '\t')
       |> List.concat_map (String.split_on_char '\n')
       |> List.filter (fun p -> p <> ""))
  | [ s; chars ] ->
    if chars = "" then
      Tcl_list.of_list (List.init (String.length s) (fun i -> String.make 1 s.[i]))
    else begin
      let parts = ref [] in
      let buf = Buffer.create 16 in
      String.iter
        (fun ch ->
          if String.contains chars ch then begin
            parts := Buffer.contents buf :: !parts;
            Buffer.clear buf
          end
          else Buffer.add_char buf ch)
        s;
      parts := Buffer.contents buf :: !parts;
      Tcl_list.of_list (List.rev !parts)
    end
  | _ -> arity "split" "string ?splitChars?"

(* ------------------------------------------------------------------ *)
(* Strings                                                            *)
(* ------------------------------------------------------------------ *)

let cmd_string _ args =
  match args with
  | "length" :: [ s ] -> string_of_int (String.length s)
  | "index" :: [ s; i ] ->
    let i = int_arg "string index" i in
    if i >= 0 && i < String.length s then String.make 1 s.[i] else ""
  | "range" :: [ s; first; last ] ->
    let n = String.length s in
    let first = max 0 (int_arg "string range" first) in
    let last = if last = "end" then n - 1 else min (n - 1) (int_arg "string range" last) in
    if first > last then "" else String.sub s first (last - first + 1)
  | "tolower" :: [ s ] -> String.lowercase_ascii s
  | "toupper" :: [ s ] -> String.uppercase_ascii s
  | "trim" :: [ s ] -> String.trim s
  | "compare" :: [ a; b ] -> string_of_int (compare a b)
  | "equal" :: [ a; b ] -> if String.equal a b then "1" else "0"
  | "first" :: [ needle; haystack ] ->
    let nl = String.length needle and hl = String.length haystack in
    let rec find i =
      if i + nl > hl then -1
      else if String.sub haystack i nl = needle then i
      else find (i + 1)
    in
    string_of_int (if nl = 0 then -1 else find 0)
  | "last" :: [ needle; haystack ] ->
    let nl = String.length needle and hl = String.length haystack in
    let rec find i =
      if i < 0 then -1
      else if String.sub haystack i nl = needle then i
      else find (i - 1)
    in
    string_of_int (if nl = 0 then -1 else find (hl - nl))
  | "match" :: [ pattern; s ] -> if glob_match pattern 0 s 0 then "1" else "0"
  | "repeat" :: [ s; count ] ->
    let n = int_arg "string repeat" count in
    let buf = Buffer.create (String.length s * max n 0) in
    for _ = 1 to n do Buffer.add_string buf s done;
    Buffer.contents buf
  | sub :: _ -> errorf "bad option %S to string" sub
  | [] -> arity "string" "option arg ?arg ...?"

(* printf-subset for [format]: flags - 0, width, precision; d i u x X o c s f e g % *)
let cmd_format _ = function
  | [] -> arity "format" "formatString ?arg ...?"
  | fmt :: args ->
    let buf = Buffer.create (String.length fmt + 16) in
    let args = ref args in
    let next_arg () =
      match !args with
      | a :: rest -> args := rest; a
      | [] -> error "format: not enough arguments"
    in
    let n = String.length fmt in
    let i = ref 0 in
    while !i < n do
      let ch = fmt.[!i] in
      if ch <> '%' then begin Buffer.add_char buf ch; incr i end
      else begin
        incr i;
        if !i < n && fmt.[!i] = '%' then begin Buffer.add_char buf '%'; incr i end
        else begin
          let start = !i in
          while
            !i < n
            && (let c = fmt.[!i] in
                c = '-' || c = '0' || c = '+' || c = ' ' || c = '.'
                || (c >= '1' && c <= '9'))
          do
            incr i
          done;
          if !i >= n then error "format: truncated specifier";
          let spec = String.sub fmt start (!i - start) in
          let conv = fmt.[!i] in
          incr i;
          let arg = next_arg () in
          let rendered =
            match conv with
            | 'd' | 'i' ->
              Printf.sprintf (Scanf.format_from_string ("%" ^ spec ^ "d") "%d")
                (int_arg "format" arg)
            | 'u' ->
              Printf.sprintf (Scanf.format_from_string ("%" ^ spec ^ "u") "%u")
                (int_arg "format" arg)
            | 'x' ->
              Printf.sprintf (Scanf.format_from_string ("%" ^ spec ^ "x") "%x")
                (int_arg "format" arg)
            | 'X' ->
              Printf.sprintf (Scanf.format_from_string ("%" ^ spec ^ "X") "%X")
                (int_arg "format" arg)
            | 'o' ->
              Printf.sprintf (Scanf.format_from_string ("%" ^ spec ^ "o") "%o")
                (int_arg "format" arg)
            | 'c' ->
              let code = int_arg "format" arg in
              String.make 1 (Char.chr (code land 0xff))
            | 's' ->
              Printf.sprintf (Scanf.format_from_string ("%" ^ spec ^ "s") "%s") arg
            | 'f' | 'e' | 'g' ->
              let f =
                match float_of_string_opt arg with
                | Some f -> f
                | None -> errorf "format: expected float but got %S" arg
              in
              let spec_str = "%" ^ spec ^ String.make 1 conv in
              (match conv with
               | 'f' -> Printf.sprintf (Scanf.format_from_string spec_str "%f") f
               | 'e' -> Printf.sprintf (Scanf.format_from_string spec_str "%e") f
               | _ -> Printf.sprintf (Scanf.format_from_string spec_str "%g") f)
            | c -> errorf "format: unsupported conversion %%%c" c
          in
          Buffer.add_string buf rendered
        end
      end
    done;
    Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Output and introspection                                           *)
(* ------------------------------------------------------------------ *)

let cmd_puts t = function
  | [ s ] -> output t (s ^ "\n"); ""
  | [ "-nonewline"; s ] -> output t s; ""
  | _ -> arity "puts" "?-nonewline? string"

let cmd_info t = function
  | [ "exists"; name ] -> if var_exists t name then "1" else "0"
  | "commands" :: _ -> Tcl_list.of_list (command_names t)
  | "procs" :: _ -> Tcl_list.of_list (proc_names t)
  | sub :: _ -> errorf "bad option %S to info" sub
  | [] -> arity "info" "option ?arg ...?"

let install t =
  let r name fn = register t name fn in
  let rb name fn = register_bodies t name fn in
  r "set" cmd_set;
  r "unset" cmd_unset;
  r "incr" cmd_incr;
  r "append" cmd_append;
  r "global" cmd_global;
  r "subst" cmd_subst;
  rb "expr" cmd_expr;
  rb "if" cmd_if;
  rb "while" cmd_while;
  rb "for" cmd_for;
  rb "foreach" cmd_foreach;
  r "break" cmd_break;
  r "continue" cmd_continue;
  r "return" cmd_return;
  r "error" cmd_error;
  rb "catch" cmd_catch;
  rb "eval" cmd_eval;
  rb "switch" cmd_switch;
  rb "proc" cmd_proc;
  r "list" cmd_list;
  r "lindex" cmd_lindex;
  r "llength" cmd_llength;
  r "lappend" cmd_lappend;
  r "lrange" cmd_lrange;
  r "lsearch" cmd_lsearch;
  r "lsort" cmd_lsort;
  r "lreverse" cmd_lreverse;
  r "lrepeat" cmd_lrepeat;
  r "concat" cmd_concat;
  r "join" cmd_join;
  r "split" cmd_split;
  r "string" cmd_string;
  r "format" cmd_format;
  r "puts" cmd_puts;
  r "info" cmd_info
