# Records the differential corpus of the filter language against Tcl.
#
# Every case below runs in a fresh child interpreter of tclsh 8.6; its
# puts output and its result (or error message) become one JSON line of
# corpus.jsonl.  The tier-1 test in script_tests.ml reads only that file
# and runs each case through Script.create (): the subset must print the
# same output and return the same result, or raise an error where Tcl
# does.
#
# A case marked -subset is a known divergence: the subset's current
# answer ({result R}, or {error}, optionally with {output O}) is pinned
# next to Tcl's, and -why says how the two differ.  Resolving these is
# future work; pinning keeps a change of either answer visible.
#
# Regenerate (from the repository root):
#   tclsh test/tcl/gen_corpus.tcl > test/tcl/corpus.jsonl

set cases {}

proc case {id script args} {
    set opts [dict merge {-subset {} -why {}} $args]
    lappend ::cases [list $id $script [dict get $opts -subset] [dict get $opts -why]]
}

# ------------------------------------------------------------------ #
# Variables and substitution                                           #
# ------------------------------------------------------------------ #

case set-returns-value {set x 42}
case set-then-read {set x 42; set x}
case set-unset-variable-errors {set nosuch}
case set-arity-errors {set a b c}
case braces-block-substitution {set x 42; set y {$x}; set y}
case quotes-substitute {set v 5; set s "x=$v"; set s}
case braced-variable-name {set {a b} 3; set y ${a b}; set y}
case adjacent-variables {set a 1; set b 2; set c $a$b}
case variable-then-literal {set a 1; set c ${a}0}
case lone-dollar-is-literal {set x a$}
case dollar-before-space {set x "$ x"}
case command-substitution {set x [expr {1 + 2}]; set x}
case command-substitution-in-word {set x [expr {1 + 2}]abc}
case command-substitution-in-quotes {set x "v=[expr {2 * 3}]"}
case nested-command-substitution {expr {[expr {1 + 2}] * 2}}
case bracket-inside-braces-is-literal {set x {[not run]}}
case backslash-newline-in-quotes {set s "a\nb"; string length $s}
case backslash-tab {set s "a\tb"; string length $s}
case backslash-escapes-dollar {set x 1; set y "\$x"}
case backslash-escapes-bracket {set y "\[x\]"}
case backslash-continuation "format \"%d-%d\" \\\n    1 2"
case comment-line "# a comment\nset a 1"
case semicolons-separate {set a 1; set b 2; expr {$a + $b}}
case blank-lines "\n\n set a 1 \n\n"
case unset-variable {set x 1; unset x; info exists x}
case unset-missing-variable {unset nosuch} \
    -subset {result {}} -why "the subset unsets a missing variable silently"
case incr-default {set x 0; incr x}
case incr-by-amount {set x 7; incr x 3}
case incr-negative {set x 7; incr x -10}
case incr-creates-variable {incr fresh 5}
case incr-non-integer-errors {set x abc; incr x}
case incr-float-amount-errors {set x 1; incr x 1.5}
case append-values {set s ab; append s cd ef; set s}
case append-creates-variable {append fresh x}
case global-in-proc {set g 1; proc f {} {global g; incr g}; f; set g}
case global-at-top-level {global x; set x 1}
case subst-variable {set a 1; subst {a=$a}}
case subst-command {subst {[expr {1 + 2}]}}
case subst-backslash {string length [subst {a\tb}]}
case parenthesized-variable-name {set a(1) x; set a(1)}
case array-element-substitution {set a(1) x; set y $a(1)} \
    -subset error -why "the subset has no arrays: \$a(1) reads the variable a"

# ------------------------------------------------------------------ #
# Control flow                                                         #
# ------------------------------------------------------------------ #

case if-true {if {1} {set r yes}}
case if-false {if {0} {set r yes}}
case if-else {if {0} {set r yes} else {set r no}}
case if-elseif {set x 2; if {$x == 1} {set r one} elseif {$x == 2} {set r two} else {set r other}}
case if-elseif-falls-to-else {set x 3; if {$x == 1} {set r one} elseif {$x == 2} {set r two} else {set r other}}
case if-then-keyword {if {1} then {set r yes}}
case if-boolean-word {if {"yes"} {set r 1}}
case if-non-boolean-errors {if {"abc"} {set r 1}}
case if-unbraced-condition {set c 1; if $c {set r ok}}
case if-missing-body-errors {if {1}}
case while-counts {set i 0; while {$i < 10} {incr i}; set i}
case while-break {set i 0; while {1} {incr i; if {$i == 3} {break}}; set i}
case while-continue {set i 0; set sum 0; while {$i < 10} {incr i; if {$i % 2 == 0} {continue}; set sum [expr {$sum + $i}]}; set sum}
case while-result-is-empty {set i 0; while {$i < 2} {incr i}}
case for-sums {set sum 0; for {set i 0} {$i < 10} {incr i} {set sum [expr {$sum + $i}]}; set sum}
case for-break {for {set i 0} {$i < 10} {incr i} {if {$i == 4} break}; set i}
case for-continue {set r {}; for {set i 0} {$i < 5} {incr i} {if {$i == 2} continue; append r $i}; set r}
case foreach-appends {set r {}; foreach x {a b c} {append r $x}; set r}
case foreach-braced-elements {set n 0; foreach x {{a b} c} {incr n}; set n}
case foreach-empty-list {set n 0; foreach x {} {incr n}; set n}
case foreach-break {set r {}; foreach x {a b c d} {if {$x == "c"} break; append r $x}; set r}
case foreach-continue {set r {}; foreach x {a b c} {if {$x == "b"} continue; append r $x}; set r}
case foreach-leaves-variable {foreach x {1 2 3} {}; set x}
case foreach-two-variables {set r {}; foreach {a b} {1 2 3 4} {append r $a$b}; set r} \
    -subset error -why "the subset binds one variable named {a b}"
case switch-exact {set x b; switch $x {a {set r one} b {set r two} default {set r other}}}
case switch-default {switch zz {a {set r one} default {set r other}}}
case switch-no-match {switch zz {a {set r one}}}
case switch-glob {switch -glob ACK42 {{ACK*} {set r hit} default {set r miss}}}
case switch-inline-form {switch b a {set r one} b {set r two}}
case switch-double-dash {switch -- -x {-x {set r dash}}}
case switch-fall-through {switch a {a - b {set r ab}}} \
    -subset error -why "the subset runs a - body as a command"
case proc-simple {proc add {a b} {expr {$a + $b}}; add 3 4}
case proc-return {proc f {} {return early; set never 1}; f}
case proc-return-empty {proc f {} {return}; f}
case proc-default-argument {proc f {{x 10}} {set x}; f}
case proc-default-overridden {proc f {{x 10}} {set x}; f 3}
case proc-varargs {proc f {args} {set args}; f a b c}
case proc-recursion {proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr {$n - 1}]]}}; fact 5}
case proc-locals-do-not-leak {set x outer; proc f {} {set x inner}; f; set x}
case proc-global-link {set x outer; proc f {} {global x; set x inner}; f; set x}
case proc-missing-argument-errors {proc f {a} {set a}; f}
case proc-extra-argument-errors {proc f {a} {set a}; f 1 2}
case proc-result-of-last-command {proc f {} {set a 1; set b 2}; f}
case catch-ok {catch {set x 1}}
case catch-error-code {catch {error boom}}
case catch-stores-message {catch {error boom} msg; set msg}
case catch-stores-result {catch {expr {42}} r; set r}
case catch-return-code {catch {return x} r; list [catch {return x} r] $r}
case catch-break-code {catch {break}}
case catch-continue-code {catch {continue}}
case catch-error-in-proc {proc f {} {error inner}; catch f m; set m}
case catch-unknown-command {catch {no_such_command_xyz}}
case error-message {error boom}
case error-extra-arguments {catch {error boom info} m; set m}
case unknown-command-errors {no_such_command_xyz}
case eval-concatenates {eval expr 1 + 2}
case eval-script-string {set s {expr {2 + 3}}; eval $s}
case eval-list-arguments {eval set x 7; set x}

# ------------------------------------------------------------------ #
# expr: operators                                                      #
# ------------------------------------------------------------------ #

case expr-add {expr {1 + 2}}
case expr-subtract {expr {5 - 7}}
case expr-multiply {expr {6 * 7}}
case expr-int-division-floors {expr {-7 / 2}}
case expr-int-division-negative-divisor {expr {7 / -2}}
case expr-float-division {expr {7 / 2.0}}
case expr-division-by-zero {expr {1 / 0}}
case expr-float-by-int-zero {expr {1.0 / 0}} \
    -subset error -why "Tcl gives Inf for a float dividend"
case expr-int-by-float-zero {expr {1 / 0.0}} \
    -subset {result inf} -why "Tcl prints Inf"
case expr-modulo {expr {17 % 5}}
case expr-modulo-sign-follows-divisor {expr {-7 % 2}}
case expr-modulo-negative-divisor {expr {7 % -2}}
case expr-modulo-by-zero {expr {5 % 0}}
case expr-power {expr {2 ** 10}}
case expr-power-right-associative {expr {2 ** 3 ** 2}}
case expr-power-negative-exponent {expr {2 ** -1}}
case expr-power-float {expr {2.0 ** 2}}
case expr-unary-minus-binds-tighter {expr {-2 ** 2}}
case expr-shift-left {expr {1 << 3}}
case expr-shift-right {expr {-16 >> 2}}
case expr-bit-and {expr {0x6 & 0xC}}
case expr-bit-or {expr {0x6 | 0xC}}
case expr-bit-xor {expr {0x6 ^ 0xC}}
case expr-bit-not {expr {~5}}
case expr-bit-not-float-errors {expr {~1.5}}
case expr-less {expr {1 < 2}}
case expr-greater {expr {1 > 2}}
case expr-less-equal {expr {2 <= 2}}
case expr-greater-equal {expr {1 >= 2}}
case expr-equal-int-float {expr {1 == 1.0}}
case expr-not-equal {expr {1 != 2}}
case expr-string-equal {expr {"abc" == "abc"}}
case expr-string-less {expr {"abc" < "abd"}}
case expr-numeric-strings-compare-as-numbers {expr {"10" < "9"}}
case expr-string-versus-number {expr {"abc" == 1}}
case expr-and {expr {1 && 2}}
case expr-or {expr {0 || 3}}
case expr-not {expr {!5}}
case expr-not-zero {expr {!0}}
case expr-not-string-errors {expr {!"abc"}}
case expr-boolean-words {expr {true && yes}}
case expr-ternary-true {expr {1 ? 10 : 20}}
case expr-ternary-false {expr {0 ? 10 : 20}}
case expr-ternary-nested {expr {1 ? 0 ? 3 : 4 : 5}}
case expr-unary-plus {expr {+5}}
case expr-unary-minus-expression {expr {-(2 + 3)}}
case expr-unary-minus-string-errors {expr {-"abc"}}
case expr-precedence {expr {1 + 2 * 3}}
case expr-parentheses {expr {(1 + 2) * 3}}
case expr-comparison-before-equality {expr {1 < 2 == 1}}
case expr-and-short-circuits {expr {0 && 1 / 0}} \
    -subset error -why "the subset evaluates both operands of &&"
case expr-or-short-circuits {expr {1 || 1 / 0}} \
    -subset error -why "the subset evaluates both operands of ||"
case expr-ternary-skips-branch {expr {0 ? 1 / 0 : 2}} \
    -subset error -why "the subset evaluates both branches of ?:"
case expr-eq-operator {expr {"a" eq "a"}} \
    -subset error -why "eq is not in the subset"
case expr-ne-operator {expr {"a" ne "b"}} \
    -subset error -why "ne is not in the subset"
case expr-in-operator {expr {"a" in {a b}}} \
    -subset error -why "in is not in the subset"
case expr-unbalanced-parenthesis {expr {(1 + 2}}
case expr-trailing-operator {expr {1 +}}
case expr-several-arguments {expr 1 + 2}
case expr-unbraced-parentheses {expr 2 * (3 + 4)}

# ------------------------------------------------------------------ #
# expr: numbers and functions                                          #
# ------------------------------------------------------------------ #

case expr-hex {expr {0x10 + 1}}
case expr-hex-upper {expr {0XFF}}
case expr-octal-looking {expr {010}} \
    -subset {result 10} -why "Tcl 8.6 reads a leading 0 as octal"
case expr-exponent {expr {1e3}}
case expr-exponent-sign {expr {1.5e+2}}
case expr-leading-dot {expr {.5 + .25}}
case expr-float-integer-prints-dot-zero {expr {3.0 * 2}}
case expr-float-digits {expr {1.0 / 3}} \
    -subset {result 0.333333333333} -why "doubles print with 12 significant digits"
case expr-float-sum-digits {expr {0.1 + 0.2}} \
    -subset {result 0.3} -why "doubles print with 12 significant digits"
case expr-float-small {expr {2.5e-3}}
case expr-float-large {expr {1e20}}
case expr-float-1e15 {expr {1e15}} \
    -subset {result 1e+15} -why "whole doubles from 1e15 up print in exponent form"
case expr-integer-overflow {expr {4611686018427387903 + 1}} \
    -subset {result -4611686018427387904} -why "integers are 63-bit and wrap"
case expr-big-integer-literal {expr {9223372036854775807}} \
    -subset {result 9.22337203685e+18} -why "integer literals past 63 bits read as doubles"
case expr-abs {expr {abs(-4)}}
case expr-abs-float {expr {abs(-2.5)}}
case expr-int-truncates {expr {int(3.9)}}
case expr-int-truncates-negative {expr {int(-3.9)}}
case expr-double {expr {double(3)}}
case expr-round-half-up {expr {round(2.5)}}
case expr-round-negative {expr {round(-2.5)}}
case expr-sqrt {expr {sqrt(16)}}
case expr-sqrt-irrational {expr {sqrt(2)}} \
    -subset {result 1.41421356237} -why "doubles print with 12 significant digits"
case expr-pow {expr {pow(2, 10)}}
case expr-fmod {expr {fmod(7, 3)}}
case expr-min {expr {min(3, 1, 2)}}
case expr-max {expr {max(3, 1.5, 2)}}
case expr-max-float {expr {max(1, 2.5)}}
case expr-unknown-function {expr {nosuch(1)}}
case expr-function-arity {expr {abs(1, 2)}}
case expr-string-literal {expr {"abc"}}
case expr-braced-string-literal {expr {{abc}}}

# ------------------------------------------------------------------ #
# expr: substituted values and substitution order                      #
# ------------------------------------------------------------------ #

case expr-var-string {set t ACK; expr {$t == "ACK"}}
case expr-var-number {set n 3; expr {$n * 2}}
case expr-var-padded-number {set v " 7"; expr {$v == 7}}
case expr-var-inf-compares {set v inf; expr {$v > 1}}
case expr-var-inf-value {set v inf; expr {$v}} \
    -subset {result inf} -why "Tcl normalizes the double to Inf"
case expr-var-hex {set v 0x1F; expr {$v + 1}}
case expr-var-exponent {set v 1e3; expr {$v + 1}}
case expr-var-negative {set v -2; expr {$v * 3}}
case expr-var-negative-power {set v -2; expr {$v ** 2}}
case expr-var-with-brace {set v "x\{y"; expr {$v == "x\{y"}} \
    -subset error -why "a substituted value with an unbalanced brace breaks the re-parse"
case expr-braced-backslash {set v {a\b}; expr {$v == {a\b}}} \
    -subset {result 0} -why "the subset applies backslash escapes inside braces in expr"
case expr-var-in-quotes {set t ACK; expr {"$t" == "ACK"}} \
    -subset {result 0} -why "a value substituted inside quotes keeps the subset's brace quoting"
case expr-command-result {proc t {} {return ACK}; expr {[t] == "ACK"}}
case expr-substitution-order {set n 0; expr {[incr n] + [incr n] * 10}}
case expr-and-skips-substitution {set n 0; expr {0 && [incr n]}; set n} \
    -subset {result 1} -why "the subset substitutes every operand before evaluating"
case expr-or-skips-substitution {set n 0; expr {1 || [incr n]}; set n} \
    -subset {result 1} -why "the subset substitutes every operand before evaluating"
case expr-unset-variable-errors {expr {$nosuch + 1}}

# ------------------------------------------------------------------ #
# Lists                                                                #
# ------------------------------------------------------------------ #

case list-builds {list a b {c d}}
case list-empty-element {list a {} b}
case list-quotes-space {list {a b}}
case lindex-element {lindex {a b c} 1}
case lindex-out-of-range {lindex {a b c} 5}
case lindex-end {lindex {a b c} end} \
    -subset error -why "lindex takes only integer indices"
case lindex-nested {lindex {{a b} c} 0 1} \
    -subset error -why "lindex takes one index"
case llength-counts {llength {a b c}}
case llength-braced {llength {{a b} c}}
case lappend-appends {set l a; lappend l b; set l}
case lappend-creates {lappend fresh x y}
case lrange-middle {lrange {a b c d} 1 2}
case lrange-end {lrange {a b c d} 2 end}
case lsearch-hit {lsearch {a b c} c}
case lsearch-miss {lsearch {a b c} z}
case lsearch-glob-default {lsearch {abc def} a*} \
    -subset {result -1} -why "lsearch matches exactly, Tcl's default is -glob"
case lsort-strings {lsort {c a b}}
case lsort-numbers-as-strings {lsort {10 9 100}}
case lsort-integer {lsort -integer {100 2 10}}
case lreverse-list {lreverse {a b c}}
case lrepeat-elements {lrepeat 3 x y}
case concat-lists {concat {a b} {c d}}
case concat-trims {concat " a " " b "}
case join-default {join {a b c}}
case join-separator {join {a b c} -}
case split-whitespace {split "a b c"}
case split-chars {split a,b,c ,}
case split-empty-chars {split abc {}}
case split-double-space {split "a  b"} \
    -subset {result {a b}} -why "the subset drops empty fields when splitting on whitespace"

# ------------------------------------------------------------------ #
# Strings and format                                                   #
# ------------------------------------------------------------------ #

case string-length {string length hello}
case string-index {string index hello 1}
case string-index-out-of-range {string index hello 9}
case string-index-end {string index hello end} \
    -subset error -why "string index takes only integer indices"
case string-range {string range hello 1 3}
case string-range-end {string range hello 2 end}
case string-tolower {string tolower ABC}
case string-toupper {string toupper abc}
case string-trim {string trim "  x  "}
case string-compare-equal {string compare abc abc}
case string-compare-less {string compare abc abd}
case string-compare-greater {string compare b a}
case string-equal {string equal a a}
case string-first {string first cd abcdef}
case string-first-missing {string first zz abcdef}
case string-last {string last a abcabc}
case string-match-star {string match {a*c} abc}
case string-match-question {string match {a?c} axc}
case string-match-fails {string match {a?c} abbc}
case string-match-escaped {string match {a\*} a*}
case string-repeat {string repeat ab 3}
case string-bad-option {string nosuch abc}
case string-is {string is integer 42} \
    -subset error -why "string is is not in the subset"
case format-decimal {format "x=%d" 42}
case format-strings {format "%s %s" hi there}
case format-hex {format "0x%x" 255}
case format-hex-upper {format "%X" 255}
case format-octal {format "%o" 8}
case format-char {format "%c" 65}
case format-width {format "%3d" 7}
case format-left-justify {format "%-4d|" 7}
case format-zero-pad {format "%05d" 42}
case format-float {format "%.2f" 3.14159}
case format-exponent {format "%e" 1234.5}
case format-general {format "%g" 0.0001}
case format-percent {format "%d%%" 100}
case format-missing-argument {format "%d %d" 1}

# ------------------------------------------------------------------ #
# Output and introspection                                             #
# ------------------------------------------------------------------ #

case puts-newline {puts hello}
case puts-nonewline {puts -nonewline hello}
case puts-lines {puts "a"; puts -nonewline "b"; puts "c"}
case puts-variable {set x 5; puts "x is $x"}
case info-exists-set {set x 1; info exists x}
case info-exists-unset {info exists nosuch}

# ------------------------------------------------------------------ #
# Filters: the paper's example and the generated fault scripts, with   #
# procs standing in for the PFI layer's message commands              #
# ------------------------------------------------------------------ #

set stubs {
proc msg_type {h} {global cur; return $cur}
proc msg_log {h args} {global cur; puts "log $cur"}
proc msg_field {h f} {return 7}
proc xDrop {h} {global cur; puts "drop $cur"}
proc xDelay {h s} {global cur; puts "delay $cur $s"}
proc xDup {h n} {global cur; puts "dup $cur $n"}
proc xCorrupt {h} {global cur; puts "corrupt $cur"}
proc xHold {h q} {global cur; puts "hold $cur $q"}
proc xRelease {q} {puts "release $q"}
proc xHeldCount {q} {global held; return $held}
proc peer_set {v x} {puts "peer_set $v $x"}
proc log {tag args} {puts "log $tag $args"}
proc chance {p} {global draws; incr draws; expr {$draws % 2}}
proc dst_uniform {lo hi} {global draws; incr draws; expr {($draws % 10) / 10.0}}
proc msg_gen {args} {return msg1}
proc msg_set_attr {h k v} {puts "attr $h $k $v"}
proc inject_down {h} {puts "inject $h"}
set draws 0
set held 0
}

# run [filter] once per message type in [types], as the PFI layer does
proc filter_case {id types filter} {
    case $id "$::stubs\nforeach cur {$types} {\n$filter\n}"
}

case paper-example-filter {
proc msg_type {h} {return 1}
proc msg_log {h} {puts "logged $h"}
proc xDrop {h} {puts "dropped $h"}
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
}

filter_case filter-drop-all {ACK MSG ACK} {
if {[msg_type cur_msg] == "ACK"} {
  msg_log cur_msg testgen.fault
  xDrop cur_msg
}
}

filter_case filter-drop-after {ACK ACK MSG ACK ACK} {
if {[msg_type cur_msg] == "ACK"} {
  if {![info exists n_ACK]} { set n_ACK 0 }
  incr n_ACK
  if {$n_ACK > 2} {
    msg_log cur_msg testgen.fault
    xDrop cur_msg
  }
}
}

filter_case filter-drop-fraction {MSG ACK MSG MSG ACK MSG} {
if {[msg_type cur_msg] == "MSG" && [chance 0.5000] == 1} {
  msg_log cur_msg testgen.fault
  xDrop cur_msg
}
}

filter_case filter-delay-each {MSG ACK MSG} {
if {[msg_type cur_msg] == "MSG"} {
  msg_log cur_msg testgen.fault
  xDelay cur_msg 0.500
}
}

filter_case filter-duplicate {ACK MSG} {
if {[msg_type cur_msg] == "MSG"} {
  msg_log cur_msg testgen.fault
  xDup cur_msg 1
}
}

filter_case filter-drop-first {DATA DATA DATA ACK DATA} {
if {[msg_type cur_msg] == "DATA"} {
  if {![info exists d_DATA]} { set d_DATA 0 }
  if {$d_DATA < 2} {
    incr d_DATA
    msg_log cur_msg testgen.fault
    xDrop cur_msg
  }
}
}

filter_case filter-drop-nth {DATA DATA DATA DATA DATA DATA} {
if {[msg_type cur_msg] == "DATA"} {
  if {![info exists k_DATA]} { set k_DATA 0 }
  incr k_DATA
  if {$k_DATA % 3 == 0} {
    msg_log cur_msg testgen.fault
    xDrop cur_msg
  }
}
}

filter_case filter-byzantine-mix {A B C D E F} {
set r [dst_uniform 0.0 1.0]
if {$r < 0.2500} {
  msg_log cur_msg testgen.fault
  xDrop cur_msg
} elseif {$r < 0.5000} {
  msg_log cur_msg testgen.fault
  xDup cur_msg 1
}
}

filter_case filter-reorder {MSG ACK MSG} {
if {[msg_type cur_msg] == "MSG"} {
  if {[xHeldCount q_MSG] == 0} {
    xHold cur_msg q_MSG
    set held 1
  } else {
    msg_log cur_msg testgen.fault
  }
} else {
  xRelease q_MSG
  set held 0
}
}

filter_case filter-inject-spurious {X X X X X X X} {
if {![info exists injected]} { set injected 0 }
if {$injected < 5} {
  incr injected
  set probe [msg_gen type ACK seq 1]
  msg_set_attr $probe net.dst peer
  log testgen.fault "spurious ACK"
  inject_down $probe
}
}

filter_case filter-delay-acks-then-tell {ACK DATA ACK ACK} {
if {[msg_type cur_msg] == "ACK"} {
  if {![info exists acks]} { set acks 0 }
  incr acks
  if {$acks <= 2} { xDelay cur_msg 3.000 }
  if {$acks == 2} { peer_set dropping 1 }
}
}

filter_case filter-global-counter {DATA ACK DATA DATA} {
if {![info exists count]} { set count 0 }
incr count
if {$count == 2} { peer_set delay_next_ack 1 }
if {$count > 2} {
  log exp.drop [msg_field cur_msg seq]
  xDrop cur_msg
}
}

# ------------------------------------------------------------------ #
# Recording                                                            #
# ------------------------------------------------------------------ #

proc json {s} {
    set out "\""
    foreach c [split $s ""] {
        scan $c %c code
        switch -- $c {
            "\\" { append out "\\\\" }
            "\"" { append out "\\\"" }
            "\n" { append out "\\n" }
            "\t" { append out "\\t" }
            default {
                if {$code < 0x20 || $code > 0x7e} {
                    append out [format "\\u%04x" $code]
                } else {
                    append out $c
                }
            }
        }
    }
    append out "\""
}

# puts inside a case appends to ::captured
proc capture_puts {args} {
    switch [llength $args] {
        1 { append ::captured [lindex $args 0] "\n" }
        2 {
            if {[lindex $args 0] ne "-nonewline"} { error "unsupported puts $args" }
            append ::captured [lindex $args 1]
        }
        default { error "unsupported puts $args" }
    }
    return ""
}

set seen {}
foreach c $cases {
    lassign $c id script subset why
    if {[dict exists $seen $id]} { error "duplicate case id $id" }
    dict set seen $id 1
    set child [interp create]
    interp alias $child puts {} capture_puts
    set ::captured ""
    set code [catch {$child eval $script} value]
    interp delete $child
    set line "\{\"id\": [json $id], \"script\": [json $script], \"output\": [json $::captured]"
    switch $code {
        0 { append line ", \"result\": [json $value]" }
        1 { append line ", \"error\": [json $value]" }
        default { error "case $id ended with code $code" }
    }
    if {$subset ne ""} {
        append line ", \"divergence\": [json $why]"
        if {$subset eq "error"} {
            append line ", \"subset_error\": true"
        } else {
            if {[dict exists $subset output]} {
                append line ", \"subset_output\": [json [dict get $subset output]]"
            }
            append line ", \"subset_result\": [json [dict get $subset result]]"
        }
    }
    puts "$line\}"
}
