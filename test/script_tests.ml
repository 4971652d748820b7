(* Tests for the Tcl-subset interpreter: parser, expr, lists, builtins. *)

open Pfi_script

let run src =
  let interp = Script.create () in
  Script.eval interp src

let run_capture src =
  let interp = Script.create () in
  Script.eval_capture interp src

let check_eval msg expected src = Alcotest.(check string) msg expected (run src)

let check_error msg src =
  match run src with
  | v -> Alcotest.failf "%s: expected Script_error, got %S" msg v
  | exception Interp.Script_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

(* every syntax error must say where: 1-based line plus a quoted
   excerpt of the offending construct *)
let check_parse_error_location msg ~line ~excerpt src =
  match Parser.parse src with
  | _ -> Alcotest.failf "%s: expected Parse_error" msg
  | exception Parser.Parse_error err ->
    let contains sub =
      let n = String.length err and m = String.length sub in
      let rec at i = i + m <= n && (String.sub err i m = sub || at (i + 1)) in
      at 0
    in
    if not (contains (Printf.sprintf "line %d:" line)) then
      Alcotest.failf "%s: %S does not name line %d" msg err line;
    if not (contains excerpt) then
      Alcotest.failf "%s: %S does not quote %S" msg err excerpt

let test_parse_error_locations () =
  check_parse_error_location "unterminated quote" ~line:1 ~excerpt:"abc"
    {|set x "abc|};
  check_parse_error_location "unterminated brace" ~line:2 ~excerpt:"{ xDrop cur_"
    "set a 1\nif {$a} { xDrop cur_msg";
  check_parse_error_location "unterminated bracket" ~line:3
    ~excerpt:"[msg_type cu" "set a 1\nset b 2\nset t [msg_type cur_msg";
  check_parse_error_location "unterminated ${...}" ~line:1 ~excerpt:"${oops"
    "puts ${oops";
  (* same construct further down the script reports the later line *)
  check_parse_error_location "line counting" ~line:4 ~excerpt:"unclosed"
    "set a 1\nset b 2\nset c 3\nputs \"unclosed"

(* a word without substitution parses to a constant holding its text *)
let test_parse_words () =
  let words src =
    match Parser.parse src with
    | [ command ] ->
      List.map
        (function Ast.Const b -> b.Ast.text | Ast.Tokens _ -> Alcotest.fail "substitution")
        command
    | _ -> Alcotest.fail "expected one command"
  in
  Alcotest.(check (list string)) "plain words" [ "set"; "x"; "42" ] (words "set x 42");
  Alcotest.(check (list string)) "braced word"
    [ "if"; "$x == 1"; "puts hi" ]
    (words "if {$x == 1} {puts hi}");
  Alcotest.(check (list string)) "quoted word"
    [ "puts"; "hello world" ]
    (words {|puts "hello world"|})

let test_parse_commands () =
  Alcotest.(check int) "newline separated" 2 (List.length (Parser.parse "set a 1\nset b 2"));
  Alcotest.(check int) "semicolon separated" 2 (List.length (Parser.parse "set a 1; set b 2"));
  Alcotest.(check int) "comments skipped" 1
    (List.length (Parser.parse "# a comment\nset a 1"));
  Alcotest.(check int) "blank lines skipped" 1 (List.length (Parser.parse "\n\n set a 1 \n\n"))

let test_parse_nested_braces () =
  match Parser.parse "proc f {x} { if {$x} { puts a } }" with
  | [ [ _; _; _; Ast.Const { text = body; _ } ] ] ->
    Alcotest.(check string) "nested braces kept verbatim" " if {$x} { puts a } " body
  | _ -> Alcotest.fail "unexpected parse shape"

let test_parse_errors () =
  let expect_fail src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected Parse_error for %S" src
    | exception Parser.Parse_error _ -> ()
  in
  expect_fail "puts {unclosed";
  expect_fail {|puts "unclosed|};
  expect_fail "puts [unclosed"

let test_backslash_continuation () =
  check_eval "backslash-newline joins words" "1-2" {|format "%d-%d" \
      1 2|}

(* ------------------------------------------------------------------ *)
(* Expr                                                               *)
(* ------------------------------------------------------------------ *)

let check_expr msg expected src =
  Alcotest.(check string) msg expected (Expr.to_string (Expr.eval src))

let test_expr_arith () =
  check_expr "add" "3" "1 + 2";
  check_expr "precedence" "7" "1 + 2 * 3";
  check_expr "parens" "9" "(1 + 2) * 3";
  check_expr "float promote" "3.5" "3 + 0.5";
  check_expr "int division floors" "-2" "-3 / 2";
  check_expr "mod sign follows divisor" "1" "-3 % 2";
  check_expr "power" "1024" "2 ** 10";
  check_expr "power right assoc" "512" "2 ** 3 ** 2";
  check_expr "unary minus" "-5" "-(2 + 3)";
  check_expr "hex" "17" "0x10 + 1"

let test_expr_compare_logic () =
  check_expr "lt" "1" "1 < 2";
  check_expr "ge" "0" "1 >= 2";
  check_expr "eq numeric" "1" "1 == 1.0";
  check_expr "ne" "1" "1 != 2";
  check_expr "string compare" "1" {|"abc" == "abc"|};
  check_expr "string lt lexicographic" "1" {|"abc" < "abd"|};
  check_expr "and" "1" "1 && 2";
  check_expr "or" "1" "0 || 3";
  check_expr "not" "0" "!5";
  check_expr "ternary true" "10" "1 ? 10 : 20";
  check_expr "ternary false" "20" "0 ? 10 : 20";
  check_expr "bitand" "4" "0x6 & 0xC";
  check_expr "bitor" "14" "0x6 | 0xC";
  check_expr "xor" "10" "0x6 ^ 0xC";
  check_expr "shl" "8" "1 << 3";
  check_expr "shr" "2" "16 >> 3"

let test_expr_functions () =
  check_expr "abs" "4" "abs(-4)";
  check_expr "int truncates" "3" "int(3.9)";
  check_expr "round" "4" "round(3.9)";
  check_expr "double" "3.0" "double(3)";
  check_expr "min" "1" "min(3, 1, 2)";
  check_expr "max" "3" "max(3, 1, 2)";
  check_expr "sqrt" "3.0" "sqrt(9)";
  check_expr "pow" "8.0" "pow(2, 3)"

let test_expr_errors () =
  let expect_fail src =
    match Expr.eval src with
    | _ -> Alcotest.failf "expected Expr.Error for %S" src
    | exception Expr.Error _ -> ()
  in
  expect_fail "1 +";
  expect_fail "1 / 0";
  expect_fail "5 % 0";
  expect_fail "nosuchfun(1)";
  expect_fail "(1 + 2"

let prop_expr_matches_reference =
  (* random small arithmetic over ints: compare against direct OCaml *)
  let gen = QCheck.(triple (int_range (-50) 50) (int_range (-50) 50) (int_range 0 3)) in
  QCheck.Test.make ~name:"expr agrees with OCaml on int arithmetic" ~count:500 gen
    (fun (a, b, op) ->
      let src, expected =
        match op with
        | 0 -> (Printf.sprintf "%d + %d" a b, a + b)
        | 1 -> (Printf.sprintf "%d - %d" a b, a - b)
        | 2 -> (Printf.sprintf "%d * %d" a b, a * b)
        | _ ->
          (* floor-division semantics *)
          let b = if b = 0 then 1 else b in
          let q = a / b and r = a mod b in
          let q = if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q in
          (Printf.sprintf "%d / %d" a b, q)
      in
      Expr.to_string (Expr.eval src) = string_of_int expected)

(* ------------------------------------------------------------------ *)
(* Tcl_list                                                           *)
(* ------------------------------------------------------------------ *)

let test_list_roundtrip () =
  let cases =
    [ [ "a"; "b"; "c" ];
      [ "hello world"; "x" ];
      [ ""; "y" ];
      [ "with{brace}"; "z" ];
      [ "multi word element"; "another one" ] ]
  in
  List.iter
    (fun l ->
      Alcotest.(check (list string)) "roundtrip" l (Tcl_list.to_list (Tcl_list.of_list l)))
    cases

let test_list_parse () =
  Alcotest.(check (list string)) "simple" [ "a"; "b" ] (Tcl_list.to_list "a b");
  Alcotest.(check (list string)) "braced" [ "a b"; "c" ] (Tcl_list.to_list "{a b} c");
  Alcotest.(check (list string)) "quoted" [ "a b"; "c" ] (Tcl_list.to_list {|"a b" c|});
  Alcotest.(check (list string)) "nested braces" [ "a {b c}" ] (Tcl_list.to_list "{a {b c}}");
  Alcotest.(check (list string)) "extra spaces" [ "a"; "b" ] (Tcl_list.to_list "  a   b  ")

let prop_list_roundtrip =
  let element = QCheck.(string_gen_of_size (Gen.int_bound 8) Gen.printable) in
  QCheck.Test.make ~name:"tcl list of_list/to_list roundtrip" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_bound 6) element)
    (fun l ->
      (* brace-quoting cannot represent unbalanced braces portably; the
         writer falls back to backslashes, which to_list undoes *)
      Tcl_list.to_list (Tcl_list.of_list l) = l)

(* ------------------------------------------------------------------ *)
(* Interpreter basics                                                 *)
(* ------------------------------------------------------------------ *)

let test_set_get () =
  check_eval "set returns value" "42" "set x 42";
  check_eval "set then read" "42" "set x 42\nset x";
  check_eval "dollar substitution" "42" "set x 42\nexpr {$x}";
  check_eval "braces block substitution" "$x" "set x 42\nset y {$x}\nset y";
  (* OCaml-only number syntax is a string, not a number the expression
     lexer would split apart *)
  check_eval "underscore value compares as a string" "0"
    "set x -_9\nexpr {$x == \"_9\"}";
  check_eval "0o value compares as a string" "1"
    "set x 0o17\nexpr {$x != 15}"

let test_unset () =
  check_error "reading unset var fails" "set x 1\nunset x\nset x";
  check_eval "info exists" "0" "set x 1\nunset x\ninfo exists x"

let test_incr () =
  check_eval "incr default" "1" "set x 0\nincr x";
  check_eval "incr by" "10" "set x 7\nincr x 3";
  check_eval "incr missing var starts at 0" "5" "incr fresh 5"

let test_command_substitution () =
  check_eval "bracket substitution" "3" "set x [expr {1 + 2}]\nset x";
  check_eval "nested brackets" "6" "expr {[expr {1 + 2}] * 2}"

let test_quoted_substitution () =
  check_eval "vars in quotes" "x=5" {|set v 5
set s "x=$v"
set s|}

let test_if () =
  check_eval "if true" "yes" "if {1} {set r yes}";
  check_eval "if false" "" "if {0} {set r yes}";
  check_eval "if else" "no" "if {0} {set r yes} else {set r no}";
  check_eval "if elseif" "two" "set x 2\nif {$x == 1} {set r one} elseif {$x == 2} {set r two} else {set r other}";
  check_eval "if then keyword" "yes" "if {1} then {set r yes}"

let test_while () =
  check_eval "while loop" "10"
    "set i 0\nwhile {$i < 10} {incr i}\nset i";
  check_eval "while break" "3"
    "set i 0\nwhile {1} {incr i\nif {$i == 3} {break}}\nset i";
  check_eval "while continue" "25"
    "set i 0\nset sum 0\nwhile {$i < 10} {incr i\nif {$i % 2 == 0} {continue}\nset sum [expr {$sum + $i}]}\nset sum"

let test_for () =
  check_eval "for loop sums" "45"
    "set sum 0\nfor {set i 0} {$i < 10} {incr i} {set sum [expr {$sum + $i}]}\nset sum"

let test_foreach () =
  check_eval "foreach" "abc" "set r {}\nforeach x {a b c} {append r $x}\nset r";
  check_eval "foreach with braced elements" "2"
    "set n 0\nforeach x {{a b} c} {incr n}\nset n"

let test_proc () =
  check_eval "simple proc" "7" "proc add {a b} {expr {$a + $b}}\nadd 3 4";
  check_eval "proc return" "early" "proc f {} {return early\nset never 1}\nf";
  check_eval "proc default arg" "10" "proc f {{x 10}} {set x}\nf";
  check_eval "proc default overridden" "3" "proc f {{x 10}} {set x}\nf 3";
  check_eval "proc varargs" "a b c" "proc f {args} {set args}\nf a b c";
  check_eval "recursion" "120"
    "proc fact {n} {if {$n <= 1} {return 1}\nexpr {$n * [fact [expr {$n - 1}]]}}\nfact 5"

let test_proc_scoping () =
  check_eval "locals don't leak" "outer"
    "set x outer\nproc f {} {set x inner}\nf\nset x";
  check_eval "global links" "inner"
    "set x outer\nproc f {} {global x\nset x inner}\nf\nset x";
  check_error "arity error" "proc f {a} {set a}\nf"

let test_catch () =
  check_eval "catch ok" "0" "catch {set x 1}";
  check_eval "catch error code" "1" "catch {error boom}";
  check_eval "catch stores message" "boom" "catch {error boom} msg\nset msg";
  check_eval "catch stores result" "42" "catch {expr {42}} r\nset r"

let test_eval_cmd () =
  check_eval "eval concatenates" "3" "eval expr 1 + 2";
  check_eval "eval script string" "5" "set s {expr {2 + 3}}\neval $s"

let test_string_cmds () =
  check_eval "length" "5" "string length hello";
  check_eval "index" "e" "string index hello 1";
  check_eval "range" "ell" "string range hello 1 3";
  check_eval "range end" "llo" "string range hello 2 end";
  check_eval "tolower" "abc" "string tolower ABC";
  check_eval "toupper" "ABC" "string toupper abc";
  check_eval "trim" "x" {|string trim "  x  "|};
  check_eval "compare equal" "0" "string compare abc abc";
  check_eval "first" "2" "string first cd abcdef";
  check_eval "first missing" "-1" "string first zz abcdef";
  check_eval "match star" "1" "string match {a*c} abc";
  check_eval "match question" "1" "string match {a?c} axc";
  check_eval "match fail" "0" "string match {a?c} abbc";
  check_eval "repeat" "ababab" "string repeat ab 3"

let test_list_cmds () =
  check_eval "list builds" "a b {c d}" "list a b {c d}";
  check_eval "lindex" "b" "lindex {a b c} 1";
  check_eval "llength" "3" "llength {a b c}";
  check_eval "lappend" "a b" "set l a\nlappend l b\nset l";
  check_eval "lrange" "b c" "lrange {a b c d} 1 2";
  check_eval "lrange end" "c d" "lrange {a b c d} 2 end";
  check_eval "lsearch hit" "2" "lsearch {a b c} c";
  check_eval "lsearch miss" "-1" "lsearch {a b c} z";
  check_eval "join" "a-b-c" "join {a b c} -";
  check_eval "split" "a b c" "split a,b,c ,";
  check_eval "concat" "a b c d" "concat {a b} {c d}"

let test_more_list_cmds () =
  check_eval "lsort" "a b c" "lsort {c a b}";
  check_eval "lsort integer" "2 10 100" "lsort -integer {100 2 10}";
  check_eval "lreverse" "c b a" "lreverse {a b c}";
  check_eval "lrepeat" "x y x y x y" "lrepeat 3 x y"

let test_switch () =
  check_eval "switch exact" "two" {|set x b
switch $x {
  a { set r one }
  b { set r two }
  default { set r other }
}|};
  check_eval "switch default" "other" {|switch zz {
  a { set r one }
  default { set r other }
}|};
  check_eval "switch no match no default" "" {|switch zz { a { set r one } }|};
  check_eval "switch glob" "hit" {|switch -glob "ACK42" {
  {ACK*} { set r hit }
  default { set r miss }
}|};
  check_eval "switch inline form" "two" "switch b a {set r one} b {set r two}"

let test_runaway_loop_capped () =
  check_error "infinite while is stopped" "while {1} {set x 1}"

let test_format () =
  check_eval "format d" "x=42" {|format "x=%d" 42|};
  check_eval "format s" "hi there" {|format "%s %s" hi there|};
  check_eval "format hex" "0xff" {|format "0x%x" 255|};
  check_eval "format width" "  7" {|format "%3d" 7|};
  check_eval "format float" "3.14" {|format "%.2f" 3.14159|};
  check_eval "format percent" "100%" {|format "%d%%" 100|}

let test_puts_capture () =
  let _, out = run_capture {|puts "hello"
puts -nonewline "wor"
puts -nonewline "ld"|} in
  Alcotest.(check string) "captured output" "hello\nworld" out

let test_persistent_state () =
  (* interpreter state persists across eval calls — the property filter
     scripts rely on to count messages *)
  let interp = Script.create () in
  ignore (Script.eval interp "set count 0");
  for _ = 1 to 5 do
    ignore (Script.eval interp "incr count")
  done;
  Alcotest.(check string) "count persisted" "5" (Script.eval interp "set count")

let test_host_command () =
  let interp = Script.create () in
  let calls = ref [] in
  Interp.register interp "probe" (fun _ args ->
      calls := args :: !calls;
      "probed");
  Alcotest.(check string) "host command result" "probed"
    (Script.eval interp "probe a b");
  Alcotest.(check (list (list string))) "host command args" [ [ "a"; "b" ] ] !calls

let test_unknown_command () = check_error "unknown command" "no_such_command_xyz"

let test_error_propagates () =
  check_error "error in proc propagates" "proc f {} {error inner}\nf"

(* The paper's own example script (Section 3), adapted only in that
   msg_type/msg_log/xDrop are host commands we provide here. *)
let test_paper_example_script () =
  let interp = Script.create () in
  let dropped = ref false in
  let logged = ref false in
  Interp.register interp "msg_type" (fun _ _ -> "1" (* ACK *));
  Interp.register interp "msg_log" (fun _ _ -> logged := true; "");
  Interp.register interp "xDrop" (fun _ _ -> dropped := true; "");
  let script =
    {|
# Message types are ACK, NACK, and GACK.
# This script drops all ACK messages.
set ACK 0x1
set NACK 0x2
set GACK 0x4

# Print out a banner and then the contents of the current message.
puts -nonewline "receive filter: "
msg_log cur_msg

# Get the type of the message and drop it if it's an ack.
set type [msg_type cur_msg]
if {$type == $ACK} {
   xDrop cur_msg
}
|}
  in
  let _, out = Script.eval_capture interp script in
  Alcotest.(check bool) "message logged" true !logged;
  Alcotest.(check bool) "ACK dropped" true !dropped;
  Alcotest.(check string) "banner printed" "receive filter: " out

(* ------------------------------------------------------------------ *)
(* Differential corpus recorded from tclsh 8.6                        *)
(* ------------------------------------------------------------------ *)

(* [tcl/corpus.jsonl] holds each case's script with the output and the
   result (or error) tclsh 8.6 gave it; [tcl/gen_corpus.tcl] records it.
   The subset must print the same and return the same, or raise
   [Script_error] where Tcl failed.  A case marked as a divergence pins
   the subset's current answer instead of Tcl's. *)
let test_tcl_corpus () =
  let module Json = Pfi_testgen.Repro.Json in
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "tcl/corpus.jsonl"
  in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let field case name = Option.bind (Json.member name case) Json.to_str in
  let get case name = Option.get (field case name) in
  let run script =
    let interp = Script.create () in
    let buf = Buffer.create 64 in
    Interp.set_output interp (Buffer.add_string buf);
    let outcome =
      match Interp.eval interp script with
      | v -> Ok v
      | exception Interp.Script_error _ -> Error ()
    in
    (Buffer.contents buf, outcome)
  in
  let failures =
    List.filter_map
      (fun line ->
        let case = Result.get_ok (Json.parse line) in
        let expected =
          match Json.member "divergence" case with
          | None ->
            ( get case "output",
              match field case "result" with Some r -> Ok r | None -> Error () )
          | Some _ ->
            ( Option.value (field case "subset_output") ~default:(get case "output"),
              match field case "subset_result" with
              | Some r -> Ok r
              | None -> Error () )
        in
        let got = run (get case "script") in
        if got = expected then None
        else
          let show (out, outcome) =
            Printf.sprintf "output %S, %s" out
              (match outcome with Ok r -> Printf.sprintf "result %S" r | Error () -> "error")
          in
          Some
            (Printf.sprintf "%s: expected %s, got %s" (get case "id")
               (show expected) (show got)))
      lines
  in
  Alcotest.(check int) "corpus cases" 297 (List.length lines);
  Alcotest.(check (list string)) "cases disagreeing with the corpus" [] failures

(* A compiled script parses each nested part at most once, however many
   interpreters run it and however often.  The filter below has seven
   nested scripts: [msg_type cur_msg], [chance 0.5] (inside an [expr]),
   [expr {$n + 1}], and the bodies of the outer [if], its [elseif], the
   inner [if] and the inner [else].  Its [expr] arguments are tokenized,
   never parsed as scripts. *)
let test_nested_parts_parse_once () =
  let compiled =
    Interp.compile
      {|set t [msg_type cur_msg]
if {$t == "ACK"} {
  if {[chance 0.5] == 1} { xDrop cur_msg } else { set x [expr {$n + 1}] }
} elseif {$t == "MSG"} { incr n }|}
  in
  let before = Parser.parse_count () in
  for interp = 1 to 2 do
    let t = Script.create () in
    let msgs = ref 0 and draws = ref 0 in
    Interp.register t "msg_type" (fun _ _ ->
        incr msgs;
        [| "ACK"; "MSG"; "NAK" |].(!msgs mod 3));
    Interp.register t "chance" (fun _ _ -> incr draws; string_of_int (!draws mod 2));
    Interp.register t "xDrop" (fun _ _ -> "");
    Interp.set_global t "n" "0";
    for _ = 1 to 100 do ignore (Interp.eval_compiled t compiled) done;
    Alcotest.(check bool)
      (Printf.sprintf "interpreter %d ran every branch" interp)
      true
      (Interp.get_global t "x" <> None && Interp.get_global t "n" <> Some "0")
  done;
  let parses = Parser.parse_count () - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d parses for 7 nested parts" parses)
    true (parses <= 7)

(* Names resolve on every call: a host command registered over [if]
   replaces the stock one, even in code whose [if] bodies are already
   compiled. *)
let test_register_over_if () =
  let t = Script.create () in
  let compiled = Interp.compile "if {1} {set x stock}" in
  Alcotest.(check string) "stock if" "stock" (Interp.eval_compiled t compiled);
  Interp.register t "if" (fun _ args -> "host: " ^ String.concat "|" args);
  Alcotest.(check string) "host if runs" "host: 1|set x stock"
    (Interp.eval_compiled t compiled);
  Alcotest.(check string) "host if runs in fresh code" "host: 0|set x 2"
    (Script.eval t "if {0} {set x 2}")

let suite =
  [
    Alcotest.test_case "parse words" `Quick test_parse_words;
    Alcotest.test_case "parse command separation" `Quick test_parse_commands;
    Alcotest.test_case "parse nested braces" `Quick test_parse_nested_braces;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "backslash continuation" `Quick test_backslash_continuation;
    Alcotest.test_case "expr arithmetic" `Quick test_expr_arith;
    Alcotest.test_case "expr comparison and logic" `Quick test_expr_compare_logic;
    Alcotest.test_case "expr functions" `Quick test_expr_functions;
    Alcotest.test_case "expr errors" `Quick test_expr_errors;
    QCheck_alcotest.to_alcotest prop_expr_matches_reference;
    Alcotest.test_case "tcl list roundtrip" `Quick test_list_roundtrip;
    Alcotest.test_case "tcl list parsing" `Quick test_list_parse;
    QCheck_alcotest.to_alcotest prop_list_roundtrip;
    Alcotest.test_case "set and get" `Quick test_set_get;
    Alcotest.test_case "unset" `Quick test_unset;
    Alcotest.test_case "incr" `Quick test_incr;
    Alcotest.test_case "command substitution" `Quick test_command_substitution;
    Alcotest.test_case "quoted substitution" `Quick test_quoted_substitution;
    Alcotest.test_case "if" `Quick test_if;
    Alcotest.test_case "while" `Quick test_while;
    Alcotest.test_case "for" `Quick test_for;
    Alcotest.test_case "foreach" `Quick test_foreach;
    Alcotest.test_case "proc" `Quick test_proc;
    Alcotest.test_case "proc scoping" `Quick test_proc_scoping;
    Alcotest.test_case "catch" `Quick test_catch;
    Alcotest.test_case "eval" `Quick test_eval_cmd;
    Alcotest.test_case "string commands" `Quick test_string_cmds;
    Alcotest.test_case "list commands" `Quick test_list_cmds;
    Alcotest.test_case "more list commands" `Quick test_more_list_cmds;
    Alcotest.test_case "switch" `Quick test_switch;
    Alcotest.test_case "runaway loop capped" `Quick test_runaway_loop_capped;
    Alcotest.test_case "format" `Quick test_format;
    Alcotest.test_case "puts capture" `Quick test_puts_capture;
    Alcotest.test_case "state persists across evals" `Quick test_persistent_state;
    Alcotest.test_case "host command registration" `Quick test_host_command;
    Alcotest.test_case "unknown command errors" `Quick test_unknown_command;
    Alcotest.test_case "errors propagate from procs" `Quick test_error_propagates;
    Alcotest.test_case "paper example script runs" `Quick test_paper_example_script;
    Alcotest.test_case "parse errors name line and excerpt" `Quick
      test_parse_error_locations;
    Alcotest.test_case "tclsh 8.6 corpus agrees" `Quick test_tcl_corpus;
    Alcotest.test_case "nested parts parse once per compiled script" `Quick
      test_nested_parts_parse_once;
    Alcotest.test_case "a command registered over if runs" `Quick
      test_register_over_if;
  ]
