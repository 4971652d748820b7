exception Parse_error of string

(* How many times [parse] has run in this process.  The counter exists
   so tests can assert that hot paths (campaign trials, per-message
   filter evaluation) reuse compiled scripts instead of re-parsing
   source text; atomic because parallel trial executors parse from
   several domains. *)
let parses = Atomic.make 0

let parse_count () = Atomic.get parses

(* A mutable cursor over the source string. *)
type cursor = { src : string; mutable pos : int }

(* Error context: every syntax error names the 1-based line of the
   offending construct and quotes a short excerpt starting at it, so a
   filter script that dies inside a campaign says where. *)
let line_at src pos =
  let line = ref 1 in
  for i = 0 to Stdlib.min pos (String.length src) - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

let excerpt src pos =
  let stop = Stdlib.min (String.length src) (pos + 12) in
  let raw = String.sub src pos (stop - pos) in
  match String.index_opt raw '\n' with
  | Some i -> String.sub raw 0 i
  | None -> raw

let fail_at c ~start fmt =
  Format.kasprintf
    (fun s ->
      raise
        (Parse_error
           (Printf.sprintf "line %d: %s (at %S)" (line_at c.src start) s
              (excerpt c.src start))))
    fmt

let eof c = c.pos >= String.length c.src
let peek c = c.src.[c.pos]
let advance c = c.pos <- c.pos + 1

let is_word_space ch = ch = ' ' || ch = '\t'
let is_command_end ch = ch = '\n' || ch = '\r' || ch = ';'

(* Backslash escape at the cursor ('\\' already consumed).  Returns the
   replacement text.  A backslash-newline swallows following indentation
   and becomes a single space, per Tcl. *)
let scan_escape c =
  if eof c then "\\"
  else begin
    let ch = peek c in
    advance c;
    match ch with
    | 'n' -> "\n"
    | 't' -> "\t"
    | 'r' -> "\r"
    | 'a' -> "\007"
    | 'b' -> "\b"
    | 'f' -> "\012"
    | 'v' -> "\011"
    | '\n' ->
      while (not (eof c)) && is_word_space (peek c) do advance c done;
      " "
    | ch -> String.make 1 ch
  end

(* Variable name after '$'.  [${name}] takes everything to '}'; otherwise
   the name is an alphanumeric/underscore run.  A lone '$' is literal. *)
let scan_var_name c =
  if eof c then None
  else if peek c = '{' then begin
    advance c;
    let start = c.pos in
    while (not (eof c)) && peek c <> '}' do advance c done;
    if eof c then
      fail_at c ~start:(start - 2) "unterminated ${...} variable reference";
    let name = String.sub c.src start (c.pos - start) in
    advance c;
    Some name
  end
  else begin
    let is_name_char ch =
      (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
      || (ch >= '0' && ch <= '9') || ch = '_'
    in
    let start = c.pos in
    while (not (eof c)) && is_name_char (peek c) do advance c done;
    if c.pos = start then None else Some (String.sub c.src start (c.pos - start))
  end

(* Bracketed command substitution: '[' consumed; scan to the matching ']',
   tracking bracket nesting and skipping braced sections so a ']' inside
   braces does not close the substitution. *)
let scan_bracket c =
  let start = c.pos in
  let rec loop depth brace_depth =
    if eof c then
      fail_at c ~start:(start - 1) "unterminated [...] command substitution"
    else begin
      let ch = peek c in
      advance c;
      match ch with
      | '\\' -> if not (eof c) then advance c; loop depth brace_depth
      | '{' -> loop depth (brace_depth + 1)
      | '}' when brace_depth > 0 -> loop depth (brace_depth - 1)
      | '[' when brace_depth = 0 -> loop (depth + 1) brace_depth
      | ']' when brace_depth = 0 ->
        if depth = 0 then String.sub c.src start (c.pos - start - 1)
        else loop (depth - 1) brace_depth
      | _ -> loop depth brace_depth
    end
  in
  loop 0 0

(* Braced word: '{' consumed; content up to the matching '}' is verbatim.
   Backslash-escaped braces do not count toward nesting but stay in the
   text (Tcl keeps the backslash inside braces). *)
let scan_braced c =
  let start = c.pos in
  let rec loop depth =
    if eof c then fail_at c ~start:(start - 1) "unterminated {...} word"
    else begin
      let ch = peek c in
      advance c;
      match ch with
      | '\\' -> if not (eof c) then advance c; loop depth
      | '{' -> loop (depth + 1)
      | '}' ->
        if depth = 0 then String.sub c.src start (c.pos - start - 1)
        else loop (depth - 1)
      | _ -> loop depth
    end
  in
  loop 0

(* Token sequence for quoted and bare words.  [stop] decides which
   character ends the word (the terminator is not consumed). *)
let scan_tokens c ~stop ~escapes =
  let tokens = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Ast.Lit (Buffer.contents buf) :: !tokens;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if eof c || stop (peek c) then ()
    else begin
      let ch = peek c in
      advance c;
      match ch with
      | '\\' when escapes -> Buffer.add_string buf (scan_escape c); loop ()
      | '$' ->
        (match scan_var_name c with
         | Some name -> flush (); tokens := Ast.Var_ref name :: !tokens
         | None -> Buffer.add_char buf '$');
        loop ()
      | '[' ->
        flush ();
        tokens := Ast.Cmd_sub (Ast.body (scan_bracket c)) :: !tokens;
        loop ()
      | ch -> Buffer.add_char buf ch; loop ()
    end
  in
  loop ();
  flush ();
  List.rev !tokens

let scan_quoted c =
  let start = c.pos - 1 in
  let tokens = scan_tokens c ~stop:(fun ch -> ch = '"') ~escapes:true in
  if eof c then fail_at c ~start "unterminated quoted word";
  advance c;
  tokens

let scan_bare c =
  scan_tokens c ~stop:(fun ch -> is_word_space ch || is_command_end ch) ~escapes:true

(* a quoted or bare word without substitution is as constant as a
   braced one *)
let word_of_tokens = function
  | [] -> Ast.Const (Ast.body "")
  | [ Ast.Lit s ] -> Ast.Const (Ast.body s)
  | tokens -> Ast.Tokens tokens

(* One word; the cursor sits on a non-separator character. *)
let scan_word c =
  match peek c with
  | '{' -> advance c; Ast.Const (Ast.body (scan_braced c))
  | '"' -> advance c; word_of_tokens (scan_quoted c)
  | _ -> word_of_tokens (scan_bare c)

let skip_word_spaces c =
  let rec loop () =
    if not (eof c) then
      if is_word_space (peek c) then begin advance c; loop () end
      else if peek c = '\\' && c.pos + 1 < String.length c.src
              && c.src.[c.pos + 1] = '\n' then begin
        advance c; advance c;
        while (not (eof c)) && is_word_space (peek c) do advance c done;
        loop ()
      end
  in
  loop ()

let skip_comment c =
  (* '#' consumed by caller?  No: cursor on '#'. *)
  while (not (eof c)) && peek c <> '\n' do
    if peek c = '\\' && c.pos + 1 < String.length c.src then begin
      (* backslash-newline continues the comment *)
      advance c; advance c
    end
    else advance c
  done

let scan_command c =
  let words = ref [] in
  let rec loop () =
    skip_word_spaces c;
    if (not (eof c)) && not (is_command_end (peek c)) then begin
      words := scan_word c :: !words;
      loop ()
    end
  in
  loop ();
  List.rev !words

let parse src =
  Atomic.incr parses;
  let c = { src; pos = 0 } in
  let commands = ref [] in
  let rec loop () =
    (* skip separators between commands *)
    while (not (eof c))
          && (is_word_space (peek c) || is_command_end (peek c)) do
      advance c
    done;
    if not (eof c) then begin
      if peek c = '#' then skip_comment c
      else begin
        match scan_command c with
        | [] -> ()
        | words -> commands := words :: !commands
      end;
      loop ()
    end
  in
  loop ();
  List.rev !commands

let tokenize src =
  let c = { src; pos = 0 } in
  scan_tokens c ~stop:(fun _ -> false) ~escapes:true
