//! Deeper semantics coverage: update ordering across FLWOR clauses,
//! attribute updates, evaluation-order subtleties, constructor/update
//! interplay, and the focus (position/last) machinery.

use xqcore::{Engine, Error};

fn engine_with(xml: &str) -> Engine {
    let mut e = Engine::new();
    e.load_document("doc", xml).unwrap();
    e
}

fn run(e: &mut Engine, q: &str) -> String {
    let r = e
        .run(q)
        .unwrap_or_else(|err| panic!("query {q:?} failed: {err}"));
    e.serialize(&r).unwrap()
}

// ---------------------------------------------------------------------
// Update order across FLWOR clauses (§2.4: "a FLWOR expression may
// generate updates in the for, where, and return clause")
// ---------------------------------------------------------------------

#[test]
fn updates_in_let_where_and_return_interleave_in_clause_order() {
    let mut e = engine_with("<trace/>");
    // Per iteration: the let fires first, then the where, then the return.
    run(
        &mut e,
        r#"for $i in 1 to 2
           let $w := insert { <from-let n="{$i}"/> } into { $doc/trace }
           where (insert { <from-where n="{$i}"/> } into { $doc/trace }, true())
           return insert { <from-return n="{$i}"/> } into { $doc/trace }"#,
    );
    assert_eq!(
        run(
            &mut e,
            "for $n in $doc/trace/* return concat(name($n), string($n/@n))"
        ),
        "from-let1 from-where1 from-return1 from-let2 from-where2 from-return2"
    );
}

#[test]
fn updates_in_for_source_fire_once() {
    let mut e = engine_with("<trace/>");
    run(
        &mut e,
        "for $i in (insert { <src/> } into { $doc/trace }, 1, 2, 3)
         return insert { <body/> } into { $doc/trace }",
    );
    assert_eq!(run(&mut e, "count($doc/trace/src)"), "1");
    assert_eq!(run(&mut e, "count($doc/trace/body)"), "3");
}

#[test]
fn function_arguments_evaluate_left_to_right() {
    let mut e = engine_with("<trace/>");
    let q = r#"
declare function f($a, $b) { 0 };
f(snap insert { <first/> } into { $doc/trace },
  count($doc/trace/first))"#;
    // The snap in the first argument applies before the second argument
    // is evaluated (Appendix B's function rule).
    let r = e.run(q).unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "0");
    assert_eq!(run(&mut e, "count($doc/trace/first)"), "1");
}

#[test]
fn comparison_operands_evaluate_left_to_right() {
    let mut e = engine_with("<trace/>");
    assert_eq!(
        run(
            &mut e,
            "(snap insert { <l/> } into { $doc/trace }, count($doc/trace/*))
             = count($doc/trace/*)"
        ),
        "true"
    );
}

#[test]
fn order_by_keys_may_have_effects() {
    let mut e = engine_with("<trace/>");
    run(
        &mut e,
        "for $x in (3, 1, 2)
         order by (insert { <k v=\"{$x}\"/> } into { $doc/trace }, $x)
         return $x",
    );
    // Keys evaluated once per binding, in binding order.
    assert_eq!(
        run(&mut e, "for $k in $doc/trace/k return string($k/@v)"),
        "3 1 2"
    );
}

#[test]
fn quantifier_short_circuit_limits_effects() {
    let mut e = engine_with("<trace/>");
    // `some` stops at the first witness: only items up to 2 are visited.
    assert_eq!(
        run(
            &mut e,
            "some $x in (1, 2, 3, 4) satisfies
               (snap insert { <v n=\"{$x}\"/> } into { $doc/trace }, $x = 2)"
        ),
        "true"
    );
    assert_eq!(run(&mut e, "count($doc/trace/v)"), "2");
}

// ---------------------------------------------------------------------
// Attribute updates
// ---------------------------------------------------------------------

#[test]
fn replace_attribute_with_attribute() {
    let mut e = engine_with("<r><x id=\"old\"/></r>");
    run(
        &mut e,
        "snap replace { $doc/r/x/@id } with { attribute id { \"new\" } }",
    );
    assert_eq!(run(&mut e, "string($doc/r/x/@id)"), "new");
    assert_eq!(run(&mut e, "count($doc/r/x/@*)"), "1");
}

#[test]
fn replace_attribute_with_differently_named_attribute() {
    let mut e = engine_with("<r><x id=\"v\"/></r>");
    run(
        &mut e,
        "snap replace { $doc/r/x/@id } with { attribute key { \"v2\" } }",
    );
    assert_eq!(run(&mut e, "count($doc/r/x/@id)"), "0");
    assert_eq!(run(&mut e, "string($doc/r/x/@key)"), "v2");
}

#[test]
fn replace_attribute_with_non_attribute_is_an_error() {
    let mut e = engine_with("<r><x id=\"v\"/></r>");
    let err = e
        .run("snap replace { $doc/r/x/@id } with { <y/> }")
        .unwrap_err();
    assert!(matches!(err, Error::Eval(x) if x.code == "XPTY0004"));
}

#[test]
fn delete_attribute() {
    let mut e = engine_with("<r><x a=\"1\" b=\"2\"/></r>");
    run(&mut e, "snap delete { $doc/r/x/@a }");
    assert_eq!(run(&mut e, "count($doc/r/x/@*)"), "1");
    assert_eq!(run(&mut e, "string($doc/r/x/@b)"), "2");
}

#[test]
fn rename_attribute_via_snap() {
    let mut e = engine_with("<r><x a=\"1\"/></r>");
    run(&mut e, "snap rename { $doc/r/x/@a } to { \"z\" }");
    assert_eq!(run(&mut e, "string($doc/r/x/@z)"), "1");
}

// ---------------------------------------------------------------------
// Constructors interacting with pending updates
// ---------------------------------------------------------------------

#[test]
fn constructor_copies_see_pre_update_state() {
    let mut e = engine_with("<r><src><k/></src></r>");
    // The wrap copy is taken while the delete is still pending: it
    // includes <k/>.
    assert_eq!(
        run(
            &mut e,
            "(delete { $doc/r/src/k }, count((<wrap>{$doc/r/src}</wrap>)/src/k))"
        ),
        "1"
    );
    // After the program, the original lost its child.
    assert_eq!(run(&mut e, "count($doc/r/src/k)"), "0");
}

#[test]
fn updates_target_originals_not_constructor_copies() {
    let mut e = engine_with("<r><src/></r>");
    // Insert into the copy inside the constructor: the original is
    // untouched, and the copy (returned) has the child only if the insert
    // applied before serialization — it doesn't (pending until end).
    let out = run(&mut e, "let $w := <wrap>{$doc/r/src}</wrap> return $w");
    assert_eq!(out, "<wrap><src/></wrap>");
}

#[test]
fn inserting_a_constructed_tree_then_querying_it() {
    let mut e = engine_with("<r/>");
    assert_eq!(
        run(
            &mut e,
            "(snap insert { <item><price>42</price></item> } into { $doc/r },
              $doc/r/item/price + 0)"
        ),
        "42"
    );
}

// ---------------------------------------------------------------------
// Focus machinery
// ---------------------------------------------------------------------

#[test]
fn position_and_last_in_nested_predicates() {
    let mut e = engine_with("<r><g><v/><v/><v/></g><g><v/></g></r>");
    // Inner predicate's focus is independent of the outer's.
    assert_eq!(
        run(&mut e, "count($doc//g[count(v[position() = last()]) = 1])"),
        "2"
    );
    assert_eq!(run(&mut e, "count($doc//g[v[2]])"), "1");
}

#[test]
fn context_item_in_predicates() {
    let mut e = engine_with("<r><n>1</n><n>5</n><n>3</n></r>");
    assert_eq!(run(&mut e, "count($doc/r/n[. > 2])"), "2");
    assert_eq!(
        run(&mut e, "for $x in $doc/r/n[. = 5] return string($x)"),
        "5"
    );
}

#[test]
fn position_outside_focus_is_an_error() {
    let mut e = Engine::new();
    let err = e.run("position()").unwrap_err();
    assert!(matches!(err, Error::Eval(x) if x.code == "XPDY0002"));
    let err = e.run("last()").unwrap_err();
    assert!(matches!(err, Error::Eval(x) if x.code == "XPDY0002"));
}

#[test]
fn filter_positional_on_plain_sequences() {
    let mut e = Engine::new();
    let r = e.run("(10, 20, 30, 40)[position() > 2]").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "30 40");
    let r = e.run("(10, 20, 30)[. > 15]").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "20 30");
    let r = e.run("(10, 20, 30)[2]").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "20");
}

// ---------------------------------------------------------------------
// Snap mode interactions at the language level
// ---------------------------------------------------------------------

#[test]
fn conflict_detection_allows_attribute_replacements_on_distinct_elements() {
    // Renaming replacements: a same-named one frees and claims one
    // attribute slot, which conflicts (next test).
    let mut e = engine_with("<r><x a=\"1\"/><y a=\"2\"/></r>");
    e.run(
        "snap conflict-detection {
           replace { $doc/r/x/@a } with { attribute b { \"10\" } },
           replace { $doc/r/y/@a } with { attribute b { \"20\" } } }",
    )
    .unwrap();
    assert_eq!(run(&mut e, "string($doc/r/x/@b)"), "10");
    assert_eq!(run(&mut e, "string($doc/r/y/@b)"), "20");
}

#[test]
fn conflict_detection_rejects_a_same_named_attribute_replacement() {
    // The detach frees (e, a) and the attach claims it: applied
    // attach-first the Δ fails on the duplicate name, so it is
    // order-dependent (conflict rule 6), whatever ordered mode does.
    let q = |mode: &str| {
        format!(
            "let $e := <e a=\"1\"/> return
               (snap {mode} {{ replace {{ $e/@a }} with {{ attribute a {{ \"2\" }} }} }}, $e)"
        )
    };
    let mut e = Engine::new();
    let err = e.run(&q("conflict-detection")).unwrap_err();
    assert!(
        matches!(&err, Error::Eval(x) if x.code == "XQB0010"),
        "{err}"
    );
    assert_eq!(run(&mut e, &q("ordered")), "<e a=\"2\"/>");
    // Renaming another attribute onto the freed name conflicts too.
    let err = e
        .run(
            "let $e := <e a=\"1\" b=\"2\"/> return snap conflict-detection {
               delete { $e/@a }, rename { $e/@b } to { \"a\" } }",
        )
        .unwrap_err();
    assert!(
        matches!(&err, Error::Eval(x) if x.code == "XQB0010"),
        "{err}"
    );
}

#[test]
fn renaming_an_attribute_onto_a_sibling_name_fails() {
    let mut e = Engine::new();
    let err = e
        .run(
            "let $e := <e a=\"1\" b=\"2\"/> return
               (snap { rename { $e/@a } to \"b\" }, $e)",
        )
        .unwrap_err();
    assert!(
        matches!(&err, Error::Eval(x) if x.code == "XQB0002"),
        "{err}"
    );
    // The store is unchanged: the document keeps both attributes.
    let mut e = engine_with("<r><x a=\"1\" b=\"2\"/></r>");
    assert!(e.run("snap rename { $doc/r/x/@a } to { \"b\" }").is_err());
    assert_eq!(run(&mut e, "$doc"), "<r><x a=\"1\" b=\"2\"/></r>");
    // Renaming to its own name is no duplicate.
    run(&mut e, "snap rename { $doc/r/x/@a } to { \"a\" }");
}

#[test]
fn conflict_detection_rejects_double_rename_via_language() {
    let mut e = engine_with("<r><x/></r>");
    let err = e
        .run(
            "snap conflict-detection { rename { $doc/r/x } to { \"a\" },
                                       rename { $doc/r/x } to { \"b\" } }",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Eval(x) if x.code == "XQB0010"));
}

#[test]
fn nested_snap_modes_are_independent() {
    // An ordered outer snap with a conflict-detection inner snap: the
    // inner verification only covers the inner Δ.
    let mut e = engine_with("<r><x/><y/></r>");
    e.run(
        "snap ordered {
           insert { <o1/> } into { $doc/r },
           snap conflict-detection { rename { $doc/r/x } to { \"x2\" } },
           insert { <o2/> } into { $doc/r } }",
    )
    .unwrap();
    assert_eq!(run(&mut e, "count($doc/r/x2)"), "1");
    assert_eq!(run(&mut e, "count($doc/r/o1) + count($doc/r/o2)"), "2");
}

#[test]
fn empty_snap_is_a_no_op() {
    let mut e = engine_with("<r/>");
    assert_eq!(run(&mut e, "snap { () }"), "");
    assert_eq!(run(&mut e, "snap conflict-detection { 42 }"), "42");
}

// ---------------------------------------------------------------------
// Misc regression-style coverage
// ---------------------------------------------------------------------

#[test]
fn copy_of_mixed_sequence_copies_nodes_keeps_atomics() {
    let mut e = engine_with("<r><n/></r>");
    assert_eq!(
        run(
            &mut e,
            "let $c := copy { (1, $doc/r/n, \"s\") } return count($c)"
        ),
        "3"
    );
    assert_eq!(
        run(
            &mut e,
            "let $c := copy { ($doc/r/n) } return $c is $doc/r/n"
        ),
        "false"
    );
}

#[test]
fn insert_before_first_and_after_last() {
    let mut e = engine_with("<r><only/></r>");
    run(&mut e, "snap insert { <pre/> } before { $doc/r/only }");
    run(&mut e, "snap insert { <post/> } after { $doc/r/only }");
    assert_eq!(
        run(&mut e, "for $n in $doc/r/* return name($n)"),
        "pre only post"
    );
}

#[test]
fn deleting_ancestor_and_descendant_together() {
    // Both deletes are fine: detaching the child from an already-detached
    // parent (or vice versa) is well-defined in either order.
    let mut e = engine_with("<r><a><b/></a></r>");
    e.run("snap { delete { $doc/r/a }, delete { $doc/r/a/b } }")
        .unwrap();
    assert_eq!(run(&mut e, "count($doc/r/*)"), "0");
}

#[test]
fn whole_document_serialization_after_many_updates() {
    let mut e = engine_with("<r/>");
    run(
        &mut e,
        "for $i in 1 to 10 return
           insert { element e { attribute n { $i }, text { concat(\"v\", $i) } } }
           into { $doc/r }",
    );
    let out = run(&mut e, "$doc");
    assert!(out.starts_with("<r><e n=\"1\">v1</e>"));
    assert!(out.ends_with("<e n=\"10\">v10</e></r>"));
}

#[test]
fn snap_result_can_flow_through_functions() {
    let mut e = engine_with("<log/>");
    let q = r#"
declare function log_and_double($x) {
  (snap insert { <called arg="{$x}"/> } into { $doc/log }, $x * 2)
};
log_and_double(3) + log_and_double(4)"#;
    let r = e.run(q).unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "14");
    assert_eq!(run(&mut e, "count($doc/log/called)"), "2");
}
