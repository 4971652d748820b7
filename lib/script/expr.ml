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
  | End

type lexer = { src : string; mutable pos : int; mutable tok : token }

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

let next lx = lx.tok <- scan_token lx

let make_lexer src =
  let lx = { src; pos = 0; tok = End } in
  next lx;
  lx

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

let rec parse_primary lx =
  match lx.tok with
  | Num v -> next lx; v
  | Quoted s -> next lx; Str s
  | Ident name ->
    next lx;
    if lx.tok = Lparen then begin
      next lx;
      let args = ref [] in
      if lx.tok <> Rparen then begin
        args := [ parse_expr lx 0 ];
        while lx.tok = Comma do
          next lx;
          args := parse_expr lx 0 :: !args
        done
      end;
      (match lx.tok with
       | Rparen -> next lx
       | _ -> fail "expected ) after arguments of %s" name);
      call_function name (List.rev !args)
    end
    else
      (* bare identifiers evaluate as strings (true/false/yes/no included) *)
      Str name
  | Lparen ->
    next lx;
    let v = parse_expr lx 0 in
    (match lx.tok with
     | Rparen -> next lx; v
     | _ -> fail "expected closing parenthesis")
  | Op "-" ->
    next lx;
    (match coerce_num "unary -" (parse_unary lx) with
     | Int i -> Int (-i)
     | Float f -> Float (-.f)
     | Str _ -> assert false)
  | Op "+" -> next lx; coerce_num "unary +" (parse_unary lx)
  | Op "!" -> next lx; bool_val (not (truthy (parse_unary lx)))
  | Op "~" ->
    next lx;
    (match coerce_num "~" (parse_unary lx) with
     | Int i -> Int (lnot i)
     | _ -> fail "~ requires an integer operand")
  | End -> fail "unexpected end of expression"
  | tok ->
    let show = function
      | Op o -> o | Rparen -> ")" | Comma -> "," | _ -> "?"
    in
    fail "unexpected token %s in expression" (show tok)

and parse_unary lx = parse_primary lx

and parse_expr lx min_prec =
  let lhs = ref (parse_unary lx) in
  let continue = ref true in
  while !continue do
    match lx.tok with
    | Op "?" when min_prec <= 1 ->
      next lx;
      let cond = truthy !lhs in
      let then_v = parse_expr lx 0 in
      (match lx.tok with
       | Op ":" -> next lx
       | _ -> fail "expected : in conditional expression");
      let else_v = parse_expr lx 1 in
      lhs := if cond then then_v else else_v
    | Op op ->
      (match binop_prec op with
       | Some prec when prec >= min_prec ->
         next lx;
         (* short-circuit for the boolean connectives *)
         if op = "&&" then begin
           let lhs_true = truthy !lhs in
           let rhs = parse_expr lx (prec + 1) in
           lhs := bool_val (lhs_true && truthy rhs)
         end
         else if op = "||" then begin
           let lhs_true = truthy !lhs in
           let rhs = parse_expr lx (prec + 1) in
           lhs := bool_val (lhs_true || truthy rhs)
         end
         else begin
           (* ** is right-associative *)
           let next_min = if op = "**" then prec else prec + 1 in
           let rhs = parse_expr lx next_min in
           lhs := apply_binop op !lhs rhs
         end
       | _ -> continue := false)
    | _ -> continue := false
  done;
  !lhs

let eval src =
  let lx = make_lexer src in
  let v = parse_expr lx 0 in
  (match lx.tok with
   | End -> ()
   | _ -> fail "trailing tokens in expression %S" src);
  v

let eval_to_string src = to_string (eval src)
