exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type value =
  | Int of int
  | Float of float
  | Str of string

(* ------------------------------------------------------------------ *)
(* Numeric literals and coercions                                     *)
(* ------------------------------------------------------------------ *)

(* Characters that can begin an OCaml int or float literal ('n'/'i'
   for nan/inf).  Pre-checking the first byte means the common
   non-numeric case ("HEARTBEAT", message-type names) skips both
   try-based parses entirely. *)
let number_start = function
  | '0' .. '9' | '+' | '-' | '.' | 'n' | 'N' | 'i' | 'I' -> true
  | _ -> false

(* Bytes only OCaml's number syntax accepts: '_' digit separators, the
   0o/0u prefixes and hex-float exponents.  The lexer below would split
   such a string into several tokens, so it is not a number here. *)
let ocaml_only = function
  | '_' | 'o' | 'O' | 'u' | 'U' | 'p' | 'P' -> true
  | _ -> false

(* a plain loop: [String.exists] would allocate a closure per call on
   the filter hot path *)
let rec has_ocaml_only s i =
  i < String.length s
  && (ocaml_only (String.unsafe_get s i) || has_ocaml_only s (i + 1))

let parse_number s =
  let s = String.trim s in
  if s = "" || not (number_start s.[0]) || has_ocaml_only s 0 then None
  else
    match int_of_string_opt s with
    | Some i -> Some (Int i)
    | None ->
      (match float_of_string_opt s with
       | Some f -> Some (Float f)
       | None -> None)

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* Tcl prints whole doubles with a trailing ".0" *)
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let to_string = function
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> s

let as_number = function
  | (Int _ | Float _) as v -> Some v
  | Str s -> parse_number s

let rec truthy = function
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | Str s ->
    (match String.lowercase_ascii (String.trim s) with
     | "true" | "yes" | "on" -> true
     | "false" | "no" | "off" -> false
     | _ ->
       (match parse_number s with
        | Some v -> truthy_num v
        | None -> fail "expected boolean value but got %S" s))

and truthy_num = function
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | Str _ -> assert false

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Num of value
  | Ident of string   (* function name or bare string *)
  | Quoted of string  (* "..." string literal *)
  | Op of string
  | Lparen
  | Rparen
  | Comma
  | Slot of int  (* where substituted value [i] goes, in a template *)
  | End

type lexer = { src : string; mutable pos : int }

let is_digit ch = ch >= '0' && ch <= '9'
let is_ident_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || is_digit ch || ch = '_'
  || ch = '.' || ch = ':'

let scan_token lx =
  let n = String.length lx.src in
  while lx.pos < n && (lx.src.[lx.pos] = ' ' || lx.src.[lx.pos] = '\t'
                       || lx.src.[lx.pos] = '\n' || lx.src.[lx.pos] = '\r') do
    lx.pos <- lx.pos + 1
  done;
  if lx.pos >= n then End
  else begin
    let ch = lx.src.[lx.pos] in
    let two =
      if lx.pos + 1 < n then String.sub lx.src lx.pos 2 else ""
    in
    match ch with
    | '(' -> lx.pos <- lx.pos + 1; Lparen
    | ')' -> lx.pos <- lx.pos + 1; Rparen
    | ',' -> lx.pos <- lx.pos + 1; Comma
    | '"' ->
      let start = lx.pos + 1 in
      let stop = ref start in
      while !stop < n && lx.src.[!stop] <> '"' do incr stop done;
      if !stop >= n then fail "unterminated string in expression";
      lx.pos <- !stop + 1;
      Quoted (String.sub lx.src start (!stop - start))
    | '{' ->
      let start = lx.pos + 1 in
      let stop = ref start in
      let depth = ref 0 in
      let continue = ref true in
      while !continue do
        if !stop >= n then fail "unterminated braces in expression";
        (match lx.src.[!stop] with
         | '{' -> incr depth
         | '}' -> if !depth = 0 then continue := false else decr depth
         | _ -> ());
        if !continue then incr stop
      done;
      lx.pos <- !stop + 1;
      Quoted (String.sub lx.src start (!stop - start))
    | _ when two = "**" || two = "<<" || two = ">>" || two = "<=" || two = ">="
             || two = "==" || two = "!=" || two = "&&" || two = "||" ->
      lx.pos <- lx.pos + 2;
      Op two
    | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '~' | '&' | '|' | '^'
    | '?' | ':' ->
      lx.pos <- lx.pos + 1;
      Op (String.make 1 ch)
    | _ when is_digit ch
          || (ch = '.' && lx.pos + 1 < n && is_digit lx.src.[lx.pos + 1]) ->
      let start = lx.pos in
      let stop = ref lx.pos in
      (* accept a generous numeric charset, then validate *)
      while
        !stop < n
        && (is_digit lx.src.[!stop] || lx.src.[!stop] = '.'
            || lx.src.[!stop] = 'x' || lx.src.[!stop] = 'X'
            || (lx.src.[!stop] >= 'a' && lx.src.[!stop] <= 'f')
            || (lx.src.[!stop] >= 'A' && lx.src.[!stop] <= 'F')
            || ((lx.src.[!stop] = '+' || lx.src.[!stop] = '-')
                && !stop > start
                && (lx.src.[!stop - 1] = 'e' || lx.src.[!stop - 1] = 'E')))
      do
        incr stop
      done;
      let text = String.sub lx.src start (!stop - start) in
      (match parse_number text with
       | Some v -> lx.pos <- !stop; Num v
       | None -> fail "malformed number %S in expression" text)
    | _ when is_ident_char ch ->
      let start = lx.pos in
      let stop = ref lx.pos in
      while !stop < n && is_ident_char lx.src.[!stop] do incr stop done;
      lx.pos <- !stop;
      Ident (String.sub lx.src start (!stop - start))
    | ch -> fail "unexpected character %C in expression" ch
  end

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                         *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                         *)
(* ------------------------------------------------------------------ *)

let num_binop name fi ff a b =
  match (a, b) with
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) ->
    let fx = match a with Int x -> float_of_int x | Float x -> x | Str _ -> 0.0 in
    let fy = match b with Int y -> float_of_int y | Float y -> y | Str _ -> 0.0 in
    Float (ff fx fy)
  | _ -> fail "non-numeric operand to %s" name

let coerce_num name v =
  match as_number v with
  | Some n -> n
  | None -> fail "non-numeric operand to %s: %S" name (to_string v)

let int_only name f a b =
  match (coerce_num name a, coerce_num name b) with
  | Int x, Int y -> Int (f x y)
  | _ -> fail "%s requires integer operands" name

let compare_values a b =
  match (as_number a, as_number b) with
  | Some x, Some y ->
    (match (x, y) with
     | Int i, Int j -> compare i j
     | _ ->
       let fx = match x with Int i -> float_of_int i | Float f -> f | Str _ -> 0.0 in
       let fy = match y with Int j -> float_of_int j | Float f -> f | Str _ -> 0.0 in
       compare fx fy)
  | _ -> compare (to_string a) (to_string b)

let bool_val b = Int (if b then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Parser: precedence climbing                                        *)
(* ------------------------------------------------------------------ *)

(* Higher binds tighter.  ( **: 13, unary: 12 handled separately ) *)
let binop_prec = function
  | "**" -> Some 13
  | "*" | "/" | "%" -> Some 11
  | "+" | "-" -> Some 10
  | "<<" | ">>" -> Some 9
  | "<" | ">" | "<=" | ">=" -> Some 8
  | "==" | "!=" -> Some 7
  | "&" -> Some 6
  | "^" -> Some 5
  | "|" -> Some 4
  | "&&" -> Some 3
  | "||" -> Some 2
  | _ -> None

let apply_binop op a b =
  match op with
  | "+" -> num_binop "+" ( + ) ( +. ) (coerce_num "+" a) (coerce_num "+" b)
  | "-" -> num_binop "-" ( - ) ( -. ) (coerce_num "-" a) (coerce_num "-" b)
  | "*" -> num_binop "*" ( * ) ( *. ) (coerce_num "*" a) (coerce_num "*" b)
  | "/" ->
    (match (coerce_num "/" a, coerce_num "/" b) with
     | _, Int 0 -> fail "division by zero"
     | Int x, Int y ->
       (* Tcl floors integer division toward negative infinity *)
       let q = x / y and r = x mod y in
       Int (if r <> 0 && (r < 0) <> (y < 0) then q - 1 else q)
     | x, y -> num_binop "/" ( / ) ( /. ) x y)
  | "%" ->
    (match (coerce_num "%" a, coerce_num "%" b) with
     | _, Int 0 -> fail "modulo by zero"
     | Int x, Int y ->
       let r = x mod y in
       Int (if r <> 0 && (r < 0) <> (y < 0) then r + y else r)
     | _ -> fail "%% requires integer operands")
  | "**" ->
    (match (coerce_num "**" a, coerce_num "**" b) with
     | Int x, Int y when y >= 0 ->
       let rec pow acc b e = if e = 0 then acc else pow (acc * b) b (e - 1) in
       Int (pow 1 x y)
     | x, y -> num_binop "**" (fun _ _ -> 0) ( ** ) x y)
  | "<<" -> int_only "<<" (fun x y -> x lsl y) a b
  | ">>" -> int_only ">>" (fun x y -> x asr y) a b
  | "&" -> int_only "&" (fun x y -> x land y) a b
  | "|" -> int_only "|" (fun x y -> x lor y) a b
  | "^" -> int_only "^" (fun x y -> x lxor y) a b
  | "<" -> bool_val (compare_values a b < 0)
  | ">" -> bool_val (compare_values a b > 0)
  | "<=" -> bool_val (compare_values a b <= 0)
  | ">=" -> bool_val (compare_values a b >= 0)
  | "==" -> bool_val (compare_values a b = 0)
  | "!=" -> bool_val (compare_values a b <> 0)
  | op -> fail "unknown operator %s" op

let call_function name args =
  let one () = match args with [ a ] -> a | _ -> fail "%s expects 1 argument" name in
  let two () =
    match args with [ a; b ] -> (a, b) | _ -> fail "%s expects 2 arguments" name
  in
  let num v = coerce_num name v in
  let as_float v =
    match num v with Int i -> float_of_int i | Float f -> f | Str _ -> 0.0
  in
  match name with
  | "abs" ->
    (match num (one ()) with
     | Int i -> Int (abs i)
     | Float f -> Float (Float.abs f)
     | Str _ -> assert false)
  | "int" ->
    (match num (one ()) with
     | Int i -> Int i
     | Float f -> Int (int_of_float f)
     | Str _ -> assert false)
  | "double" -> Float (as_float (one ()))
  | "round" ->
    (match num (one ()) with
     | Int i -> Int i
     | Float f -> Int (int_of_float (Float.round f))
     | Str _ -> assert false)
  | "sqrt" -> Float (sqrt (as_float (one ())))
  | "pow" ->
    let a, b = two () in
    Float (as_float a ** as_float b)
  | "fmod" ->
    let a, b = two () in
    Float (Float.rem (as_float a) (as_float b))
  | "min" ->
    (match args with
     | [] -> fail "min expects at least 1 argument"
     | first :: rest ->
       List.fold_left (fun acc v -> if compare_values v acc < 0 then v else acc)
         first rest)
  | "max" ->
    (match args with
     | [] -> fail "max expects at least 1 argument"
     | first :: rest ->
       List.fold_left (fun acc v -> if compare_values v acc > 0 then v else acc)
         first rest)
  | _ -> fail "unknown function %s" name

let unary op v =
  match op with
  | "-" ->
    (match coerce_num "unary -" v with
     | Int i -> Int (-i)
     | Float f -> Float (-.f)
     | Str _ -> assert false)
  | "+" -> coerce_num "unary +" v
  | "!" -> bool_val (not (truthy v))
  | _ ->
    (match coerce_num "~" v with
     | Int i -> Int (lnot i)
     | _ -> fail "~ requires an integer operand")

(* ------------------------------------------------------------------ *)
(* Parse trees                                                        *)
(* ------------------------------------------------------------------ *)

type node =
  | Value of value
  | Hole of int  (* substituted value [i] *)
  | Unary of string * node
  | Binary of string * node * node
  | Cond of node * node * node
  | Call of string * node list

(* Operands evaluate left to right, and every one evaluates: [&&], [||]
   and [?:] only choose among values, as when text is read in one pass. *)
let rec eval_node holes = function
  | Value v -> v
  | Hole i -> holes.(i)
  | Unary (op, e) -> unary op (eval_node holes e)
  | Binary (("&&" | "||") as op, a, b) ->
    let l = truthy (eval_node holes a) in
    let r = eval_node holes b in
    bool_val (if op = "&&" then l && truthy r else l || truthy r)
  | Binary (op, a, b) ->
    let a = eval_node holes a in
    let b = eval_node holes b in
    apply_binop op a b
  | Cond (c, a, b) ->
    let c = truthy (eval_node holes c) in
    let a = eval_node holes a in
    let b = eval_node holes b in
    if c then a else b
  | Call (name, args) -> call_function name (List.map (eval_node holes) args)

(* ------------------------------------------------------------------ *)
(* Parser: precedence climbing                                        *)
(* ------------------------------------------------------------------ *)

(* One parser serves both uses.  Reading text ([eager]), every node is
   folded to its value as soon as it is built, so a value's error comes
   before any syntax error further right, exactly where a one-pass
   evaluator raises it.  Reading a template, it builds the tree. *)
type parser = { mutable tok : token; advance : unit -> token; eager : bool }

let next p = p.tok <- p.advance ()

let fold p n = if p.eager then Value (eval_node [||] n) else n

(* [&&], [||] and [?:] test their left operand before the parser reads
   on *)
let test p n = if p.eager then ignore (truthy (eval_node [||] n))

let rec parse_primary p =
  match p.tok with
  | Num v -> next p; Value v
  | Quoted s -> next p; Value (Str s)
  | Slot i -> next p; Hole i
  | Ident name ->
    next p;
    if p.tok = Lparen then begin
      next p;
      let args = ref [] in
      if p.tok <> Rparen then begin
        args := [ parse_expr p 0 ];
        while p.tok = Comma do
          next p;
          args := parse_expr p 0 :: !args
        done
      end;
      (match p.tok with
       | Rparen -> next p
       | _ -> fail "expected ) after arguments of %s" name);
      fold p (Call (name, List.rev !args))
    end
    else
      (* bare identifiers evaluate as strings (true/false/yes/no included) *)
      Value (Str name)
  | Lparen ->
    next p;
    let v = parse_expr p 0 in
    (match p.tok with
     | Rparen -> next p; v
     | _ -> fail "expected closing parenthesis")
  | Op ("-" | "+" | "!" | "~" as op) ->
    next p;
    fold p (Unary (op, parse_primary p))
  | End -> fail "unexpected end of expression"
  | tok ->
    let show = function
      | Op o -> o | Rparen -> ")" | Comma -> "," | _ -> "?"
    in
    fail "unexpected token %s in expression" (show tok)

and parse_expr p min_prec =
  let lhs = ref (parse_primary p) in
  let continue = ref true in
  while !continue do
    match p.tok with
    | Op "?" when min_prec <= 1 ->
      next p;
      test p !lhs;
      let then_v = parse_expr p 0 in
      (match p.tok with
       | Op ":" -> next p
       | _ -> fail "expected : in conditional expression");
      let else_v = parse_expr p 1 in
      lhs := fold p (Cond (!lhs, then_v, else_v))
    | Op op ->
      (match binop_prec op with
       | Some prec when prec >= min_prec ->
         next p;
         if op = "&&" || op = "||" then test p !lhs;
         (* ** is right-associative *)
         let rhs = parse_expr p (if op = "**" then prec else prec + 1) in
         lhs := fold p (Binary (op, !lhs, rhs))
       | _ -> continue := false)
    | _ -> continue := false
  done;
  !lhs

(* the whole token stream as one expression *)
let parse_all p src =
  next p;
  let root = parse_expr p 0 in
  if p.tok <> End then fail "trailing tokens in expression %S" src;
  root

let eval src =
  let lx = { src; pos = 0 } in
  let p = { tok = End; advance = (fun () -> scan_token lx); eager = true } in
  eval_node [||] (parse_all p src)

(* ------------------------------------------------------------------ *)
(* Templates: substitute-then-parse, parsed once                      *)
(* ------------------------------------------------------------------ *)

(* A template parses the text around the substitutions once, each one
   an operand (a [Slot]).  That is how the re-parse reads a value that
   lexes as one operand in place: digits and dots, or a non-number
   without braces.  For any other value the text is built and parsed. *)
type template = { segments : string array; tree : node option }

exception Not_operand

let operand v =
  match parse_number v with
  | Some n when String.for_all (function '0' .. '9' | '.' -> true | _ -> false) v -> n
  | None when not (String.exists (fun c -> c = '{' || c = '}') v) -> Str v
  | _ -> raise Not_operand

let substitute t values =
  let buf = Buffer.create 32 in
  Array.iteri
    (fun i seg ->
      Buffer.add_string buf seg;
      if i < Array.length values then
        let v = values.(i) in
        Buffer.add_string buf
          (match parse_number v with Some _ -> v | None -> "{" ^ v ^ "}"))
    t.segments;
  Buffer.contents buf

(* A template that parses has an operator, a parenthesis, a comma or an
   end on both sides of every slot (two operands side by side do not
   parse), so no operand above can merge with the text around it. *)
let template segments =
  let segments = Array.of_list segments in
  let holes = Array.length segments - 1 in
  let tokens = ref [] in
  let lex i seg =
    let lx = { src = seg; pos = 0 } in
    let rec go () =
      match scan_token lx with
      | End -> ()
      | tok -> tokens := tok :: !tokens; go ()
    in
    go ();
    if i < holes then tokens := Slot i :: !tokens
  in
  let advance () =
    match !tokens with
    | tok :: rest -> tokens := rest; tok
    | [] -> End
  in
  let tree =
    match
      Array.iteri lex segments;
      tokens := List.rev !tokens;
      parse_all { tok = End; advance; eager = false } ""
    with
    | root -> Some root
    | exception Error _ -> None
  in
  { segments; tree }

let eval_template t values =
  match (t.tree, Array.map operand values) with
  | Some root, operands -> eval_node operands root
  | None, _ | (exception Not_operand) -> eval (substitute t values)
