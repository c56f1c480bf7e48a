//! The conformance corpus: one-line queries against [`DOC`], each table
//! one language area, every row `(query, expected serialization)`; and
//! [`ERRORS`], queries with the error code each raises.

/// The document every row runs against, bound to `$doc`.
pub const DOC: &str = r#"<site>
  <people>
    <person id="p1" age="36"><name>Ada</name></person>
    <person id="p2" age="41"><name>Bob</name></person>
    <person id="p3" age="36"><name>Cyd</name></person>
  </people>
  <nums><n>3</n><n>1</n><n>2</n></nums>
  <mixed>alpha <b>beta</b> gamma</mixed>
</site>"#;

pub const LITERALS: &[(&str, &str)] = &[
    ("2 + 3 * 4", "14"),
    ("(2 + 3) * 4", "20"),
    ("10 idiv 3", "3"),
    ("10 mod 3", "1"),
    ("10 div 4", "2.5"),
    ("-(2 + 3)", "-5"),
    ("1.5e2", "150"),
    ("\"a\" = \"a\"", "true"),
    ("true() and false()", "false"),
    ("true() or false()", "true"),
    ("not(())", "true"),
    ("() = ()", "false"),
    ("(1, 2) != (1, 2)", "true"), // existential: 1 != 2
    ("3 eq 3.0", "true"),
    ("\"b\" gt \"a\"", "true"),
];

pub const SEQUENCES: &[(&str, &str)] = &[
    ("count(())", "0"),
    ("count((1, (2, 3)))", "3"),
    ("(1 to 3, 5)", "1 2 3 5"),
    ("reverse(1 to 3)", "3 2 1"),
    ("subsequence(1 to 10, 3, 2)", "3 4"),
    ("distinct-values((1, 2, 1))", "1 2"),
    ("string-join((\"x\", \"y\", \"z\"), \",\")", "x,y,z"),
    ("head(1 to 5)", "1"),
    ("tail(1 to 3)", "2 3"),
    ("insert-before((\"a\", \"c\"), 2, \"b\")", "a b c"),
    ("remove((\"a\", \"b\", \"c\"), 2)", "a c"),
    ("index-of((5, 10, 5), 5)", "1 3"),
];

pub const STRINGS: &[(&str, &str)] = &[
    ("upper-case(\"mixed\")", "MIXED"),
    ("substring(\"conformance\", 4, 4)", "form"),
    ("contains(\"conformance\", \"forma\")", "true"),
    ("starts-with(\"abc\", \"ab\")", "true"),
    ("ends-with(\"abc\", \"bc\")", "true"),
    ("substring-before(\"key=value\", \"=\")", "key"),
    ("substring-after(\"key=value\", \"=\")", "value"),
    ("normalize-space(\" a   b \")", "a b"),
    ("translate(\"abc\", \"ac\", \"xz\")", "xbz"),
    ("string-length(\"héllo\")", "5"),
    ("concat(\"a\", 1, true())", "a1true"),
    // unicode (regression: UTF-8 in literals/AVTs)
    ("string-length(\"naïve\")", "5"),
    ("<t v=\"schön\"/>", "<t v=\"schön\"/>"),
    ("upper-case(\"héllo\")", "HÉLLO"),
];

pub const NUMERICS: &[(&str, &str)] = &[
    ("abs(-7)", "7"),
    ("floor(3.7)", "3"),
    ("ceiling(3.2)", "4"),
    ("round(3.5)", "4"),
    ("sum(1 to 4)", "10"),
    ("avg((2, 4))", "3"),
    ("min((3, 1, 2))", "1"),
    ("max((3, 1, 2))", "3"),
    ("number(\"5\") + 5", "10"),
    ("xs:integer(\"08\")", "8"),
];

pub const FLWOR: &[(&str, &str)] = &[
    ("for $i in 1 to 3 return $i * $i", "1 4 9"),
    ("for $i at $p in (\"a\", \"b\") return $p", "1 2"),
    ("let $s := 1 to 4 return count($s)", "4"),
    ("for $i in 1 to 6 where $i mod 3 = 0 return $i", "3 6"),
    ("for $i in (3, 1, 2) order by $i return $i", "1 2 3"),
    (
        "for $i in (3, 1, 2) order by $i descending return $i",
        "3 2 1",
    ),
    ("some $i in 1 to 5 satisfies $i * $i = 16", "true"),
    ("every $i in 1 to 5 satisfies $i < 6", "true"),
    ("if (2 > 1) then \"yes\" else \"no\"", "yes"),
];

pub const PATHS: &[(&str, &str)] = &[
    ("count($doc//person)", "3"),
    ("string($doc//person[1]/name)", "Ada"),
    ("string($doc//person[@id = \"p3\"]/name)", "Cyd"),
    ("count($doc//person[@age = 36])", "2"),
    ("$doc//person[last()]/name", "<name>Cyd</name>"),
    ("count($doc//@id)", "3"),
    ("name($doc//name[text() = \"Bob\"]/..)", "person"),
    ("sum($doc//n)", "6"),
    (
        "for $n in $doc//nums/n order by xs:integer($n) return string($n)",
        "1 2 3",
    ),
    ("string($doc//mixed)", "alpha beta gamma"),
    ("count($doc//mixed/node())", "3"),
    ("count($doc//person/following-sibling::person)", "2"),
    ("name(($doc//b)[1]/preceding::person[1])", "person"),
    ("count($doc//person | $doc//n)", "6"),
    ("count($doc//person intersect $doc//person[@age = 36])", "2"),
    ("count($doc//person except $doc//person[2])", "2"),
];

pub const CONSTRUCTORS: &[(&str, &str)] = &[
    ("<x>{1 + 1}</x>", "<x>2</x>"),
    ("<x a=\"{1 + 1}\"/>", "<x a=\"2\"/>"),
    ("element y { attribute k { \"v\" } }", "<y k=\"v\"/>"),
    ("string(text { \"plain\" })", "plain"),
    ("serialize(<a><b/></a>)", "<a><b/></a>"),
    ("count(parse-xml(\"<a><b/><b/></a>\")//b)", "2"),
    ("deep-equal(<a>1</a>, <a>1</a>)", "true"),
];

pub const UPDATES: &[(&str, &str)] = &[
    ("count((delete { $doc//person[1] }, $doc//person))", "3"), // pending
    (
        "count((snap insert { <person id=\"p4\"/> } into { ($doc//people)[1] }, $doc//person))",
        "4",
    ),
    (
        "let $c := copy { ($doc//person)[1] } return ($c is ($doc//person)[1])",
        "false",
    ),
    ("string(copy { ($doc//name)[1] })", "Ada"),
];

pub const SNAP_NESTING: &[(&str, &str)] = &[
    ("snap { 40 + 2 }", "42"),
    // `snap { … }` is a primary expression, not an operand — bind
    // it with `let` to use its value.
    ("snap { let $x := snap { 40 } return $x + 2 }", "42"),
    // A pending update is invisible until its snap closes…
    (
        "snap { insert { <y/> } into { ($doc//nums)[1] }, count($doc//nums/y) }",
        "0",
    ),
    // …but an *inner* snap applies its Δ on close, so the outer
    // continuation observes it.
    (
        "count((snap { insert { <y/> } into { ($doc//nums)[1] } }, $doc//nums/y))",
        "1",
    ),
    (
        "snap { snap insert { <y/> } into { ($doc//nums)[1] }, count($doc//nums/y) }",
        "1",
    ),
    // Three levels deep: innermost applies first.
    (
        "snap { let $x := snap { snap insert { <y/> } into { ($doc//nums)[1] }, \
             count($doc//nums/y) } return $x + 10 }",
        "11",
    ),
];

/// Queries that raise, with the code each raises; none changes the store.
pub const ERRORS: &[(&str, &str)] = &[
    ("1 div 0", "FOAR0001"),
    ("0 idiv 0", "FOAR0001"),
    ("$nope", "XPST0008"),
    ("no-such-fn()", "XPST0017"),
    // Introspection builtins are nullary — wrong arity is a static
    // error, same code as an unknown function.
    ("xqb:stats(1)", "XPST0017"),
    ("xqb:reset-stats(\"x\")", "XPST0017"),
    ("xqb:fingerprint(1)", "XPST0017"),
    // A call is built-in only at an arity its row allows; no argument
    // is defaulted or dropped.
    ("xs:integer()", "XPST0017"),
    ("xs:string(\"a\", \"b\")", "XPST0017"),
    ("xqb:explain(\"1\", \"2\")", "XPST0017"),
    ("fs:intersect(1)", "XPST0017"),
    ("1 + \"a\"", "XPTY0004"),
    ("xs:integer(\"zz\")", "FORG0001"),
    ("sum((\"a\", \"b\"))", "FORG0001"),
    ("snap { snap { 1 div 0 } }", "FOAR0001"),
    // Errors inside a pure loop body: the first failing iteration's,
    // the poison value in the middle of the input.
    (
        "for $n in $doc//nums/n return 10 div (xs:integer($n) - 1)",
        "FOAR0001",
    ),
    ("for $i in 1 to 8 return 1 + \"a\"", "XPTY0004"),
    (
        "for $v in (1, 2, 3, 4, 0, 5, 0, 6) return 10 idiv $v",
        "FOAR0001",
    ),
];

/// Every value table, with its area's name.
pub const TABLES: &[(&str, &[(&str, &str)])] = &[
    ("literals/arithmetic/logic", LITERALS),
    ("sequence", SEQUENCES),
    ("string", STRINGS),
    ("numeric", NUMERICS),
    ("FLWOR/quantifier", FLWOR),
    ("path", PATHS),
    ("constructor", CONSTRUCTORS),
    ("update", UPDATES),
    ("snap-nesting", SNAP_NESTING),
];
