//! Construction without garbage (ISSUE 14): a constructed tree of *n*
//! nodes costs *n* allocations, and adoption is never observable.
//!
//! Constructor content and `copy {}` adopt the nodes of fresh-by-syntax
//! sub-expressions (`xqcore::eval`'s `yields_fresh`) instead of deep-copying
//! them. Three batteries keep that honest:
//!
//! 1. **Allocation pins** — constructor shapes → `Store::len()` delta equal
//!    to the node count of the result, under compiled and interpreted
//!    execution alike.
//! 2. **Identity negatives** — everything that can be *named* (a variable,
//!    a path) is still copied: adoption must stay an as-if copy.
//! 3. **A property** over random nested constructor / FLWOR / `copy`
//!    expressions: the serialization equals the string the generator itself
//!    renders for the tree it describes (there is no second evaluator to
//!    compare with — the deep-copying path is gone), and the allocation
//!    count equals the node count whenever every content item is fresh.

use proptest::prelude::*;
use xquery_bang::xqdm::NodeId;
use xquery_bang::{Engine, Error, Item, Store};

/// Nodes in the tree below `n`, attributes included.
fn tree_size(store: &Store, n: NodeId) -> usize {
    let below = |ids: &[NodeId]| ids.iter().map(|&c| tree_size(store, c)).sum::<usize>();
    1 + below(store.attributes(n).unwrap()) + below(store.children(n).unwrap())
}

fn result_nodes(store: &Store, value: &[Item]) -> usize {
    value
        .iter()
        .filter_map(Item::as_node)
        .map(|n| tree_size(store, n))
        .sum()
}

/// Both execution strategies, each over `<log next="0"/>` bound to `$doc`.
fn engines() -> Vec<(&'static str, Engine)> {
    [("compiled", true), ("interpreted", false)]
        .into_iter()
        .map(|(label, compile)| {
            let mut e = Engine::new();
            e.set_compile(compile);
            e.load_document("doc", "<log next=\"0\"/>").unwrap();
            (label, e)
        })
        .collect()
}

/// Run `query`; return (allocations, node count of the result, serialization).
fn allocations(e: &mut Engine, query: &str) -> (usize, usize, String) {
    let before = e.store.len();
    let value = e.run(query).unwrap_or_else(|err| panic!("{query}: {err}"));
    let text = e.serialize(&value).unwrap();
    (e.store.len() - before, result_nodes(&e.store, &value), text)
}

#[test]
fn an_all_fresh_tree_of_n_nodes_costs_n_allocations() {
    // (query, nodes; the count the deep-copying evaluator allocated)
    let table: &[(&str, usize)] = &[
        ("<a><b><c><d><e><f/></e></d></c></b></a>", 6), // was 21
        ("<a b=\"1\"/>", 2),                            // was 3
        ("<a>text</a>", 2),                             // was 3
        ("<a>{1, 2}</a>", 2),
        ("for $i in 1 to 3 return <b>{$i}</b>", 6),
        (
            "element a { attribute k { \"v\" }, text { \"t\" }, <b/> }",
            4,
        ),
        ("copy { <a><b/></a> }", 2),
        (
            "<a>{ for $i in 1 to 2 where $i = 2 return <b n=\"{$i}\"/> }</a>",
            3,
        ),
        ("document { <a><b/></a> }", 3),
    ];
    for (label, mut e) in engines() {
        for &(query, nodes) in table {
            let (allocated, counted, _) = allocations(&mut e, query);
            assert_eq!(counted, nodes, "{label}: node count of {query}");
            assert_eq!(allocated, nodes, "{label}: allocations of {query}");
        }
    }
}

/// Mixed content: freshness is judged per leaf of the content sequence,
/// however the enclosed expression nests, so only what a name denotes is
/// copied — and the interpreter (nested `Seq`) and the plan rewriter
/// (flattened) allocate the very same nodes.
#[test]
fn mixed_content_copies_only_what_a_name_denotes() {
    // (query, nodes in the result, allocations)
    let table: &[(&str, usize, usize)] = &[
        ("<a>{<b/>, 1}</a>", 3, 3),
        ("<a>{<b/>, 'x', <c/>, 1, 2}</a>", 5, 5),
        ("<a>{(<b/>, (1, <c/>))}</a>", 4, 4),
        // `<c/>` for `$x`, then `<a>`, the copy of `$x`, and `<b/>` adopted.
        ("let $x := <c/> return <a>{$x, <b/>}</a>", 3, 4),
        ("let $x := <c/> return <a>{(<b/>, ($x, <d/>))}</a>", 4, 5),
        ("<a>{$doc/log/@next, <b/>}</a>", 3, 3),
        ("<a>{<b/>}{$doc/log}<c/></a>", 5, 5),
    ];
    let mut ends = Vec::new();
    for (label, mut e) in engines() {
        for &(query, nodes, allocations_expected) in table {
            let (allocated, counted, _) = allocations(&mut e, query);
            assert_eq!(counted, nodes, "{label}: node count of {query}");
            assert_eq!(
                allocated, allocations_expected,
                "{label}: allocations of {query}"
            );
        }
        ends.push((e.store.len(), e.store.fingerprint()));
    }
    assert_eq!(ends[0], ends[1], "compiled and interpreted stores diverged");
}

/// The paper's §2 logging call, exactly as `xqbench`'s `log_commit` sends
/// it: two attributes and an element, all inserted, nothing left behind.
#[test]
fn the_logging_call_allocates_three_nodes_and_no_garbage() {
    const LOG: &str = "let $l := $doc/log let $n := xs:integer($l/@next) return \
        (replace value of { $l/@next } with { $n + 1 }, \
         insert { <entry id=\"{$n}\" user=\"person7\"/> } into { $l }, $n)";
    for (label, mut e) in engines() {
        let doc = e.binding("doc").unwrap()[0].as_node().unwrap();
        for call in 0..5 {
            let (allocated, _, reply) = allocations(&mut e, LOG);
            assert_eq!(reply, call.to_string(), "{label}");
            assert_eq!(allocated, 3, "{label}: call {call} (was 8)");
            let stats = e.store.stats(&[doc]).unwrap();
            assert_eq!(stats.garbage, 0, "{label}: call {call} (was 5 per call)");
        }
    }
}

fn run_to_string(e: &mut Engine, query: &str) -> String {
    let value = e.run(query).unwrap_or_else(|err| panic!("{query}: {err}"));
    e.serialize(&value).unwrap()
}

#[test]
fn whatever_a_name_denotes_is_still_copied() {
    for (label, mut e) in engines() {
        // `$x` twice in content: two distinct children, neither is `$x`,
        // and `$x` itself stays parentless.
        assert_eq!(
            run_to_string(
                &mut e,
                "let $x := <b/> let $a := <a>{ $x, $x }</a> return \
                 (count($a/b), $a/b[1] is $a/b[2], $a/b[1] is $x, empty($x/..))"
            ),
            "2 false false true",
            "{label}: variable content"
        );
        // The same through a fresh wrapper: `copy` of a variable copies.
        assert_eq!(
            run_to_string(
                &mut e,
                "let $x := <b/> let $a := <a>{ copy { $x } }</a> return ($a/b is $x, empty($x/..))"
            ),
            "false true",
            "{label}: copy of a variable"
        );
        // An inserted variable is inserted as a copy (§3.3).
        assert_eq!(
            run_to_string(
                &mut e,
                "let $x := <b/> return \
                 (snap insert { $x } into { $doc/log }, $doc/log/b is $x, empty($x/..))"
            ),
            "false true",
            "{label}: insert of a variable"
        );
        // ...and so is a replacement.
        assert_eq!(
            run_to_string(
                &mut e,
                "let $x := <c/> return \
                 (snap replace { $doc/log/b } with { $x }, $doc/log/c is $x, empty($x/..))"
            ),
            "false true",
            "{label}: replace with a variable"
        );
        // A function call is not fresh by syntax, whatever its body is.
        assert_eq!(
            run_to_string(
                &mut e,
                "declare function mk() { <b/> }; \
                 let $a := <a>{ mk() }</a> return count($a/b)"
            ),
            "1",
            "{label}: call content"
        );
        // Content taken by path leaves the source document as it was.
        let before = run_to_string(&mut e, "$doc");
        assert_eq!(
            run_to_string(
                &mut e,
                "let $a := <a>{ $doc//c }</a> return \
                 ($a/c is ($doc//c)[1], ($doc//c)[1]/.. is $doc/log)"
            ),
            "false true",
            "{label}: path content"
        );
        assert_eq!(run_to_string(&mut e, "$doc"), before, "{label}");
    }
}

#[test]
fn adopted_attributes_keep_their_static_errors() {
    fn code(e: &mut Engine, query: &str) -> String {
        match e.run(query) {
            Err(Error::Eval(x)) => x.code.to_string(),
            other => panic!("{query}: expected an error, got {other:?}"),
        }
    }
    for (label, mut e) in engines() {
        let before = e.store.len();
        for late_attribute in [
            "<a><b/>{ attribute x { 1 } }</a>",
            "<a>{ (<b/>, attribute x { 1 }) }</a>",
            "element a { text { \"t\" }, attribute x { 1 } }",
        ] {
            assert_eq!(code(&mut e, late_attribute), "XQTY0024", "{label}");
        }
        assert_eq!(
            code(&mut e, "<a x=\"1\">{ attribute x { 2 } }</a>"),
            "XQB0002",
            "{label}: duplicate attribute"
        );
        assert_eq!(
            code(&mut e, "document { attribute x { 1 } }"),
            "XPTY0004",
            "{label}: attribute in document content"
        );
        assert_eq!(e.store.len(), before, "{label}: a failed run leaks nodes");
    }
}

// ---------------------------------------------------------------------
// Property: random nested constructor / FLWOR / copy expressions
// ---------------------------------------------------------------------

/// `$x`, the one nameable tree the generated expressions can mention.
const X_DECL: &str = "<v k=\"1\">t</v>";

/// An expression together with the forest it denotes: every variant knows
/// how to write itself as XQuery!, which XML it must serialize to, and how
/// many nodes that is.
#[derive(Debug, Clone)]
enum Expr {
    /// `text { "tN" }`
    Text(u8),
    /// `$x` — not fresh: must go in as a copy.
    Var,
    /// A direct (`<eN aI="J">…</eN>`) or computed (`element eN { … }`)
    /// constructor; attribute names are deduplicated when written.
    Elem {
        direct: bool,
        name: u8,
        attrs: Vec<(u8, u8)>,
        content: Vec<Expr>,
    },
    /// `copy { e }`
    Copy(Box<Expr>),
    /// `for $i in 1 to n return e`
    For(u8, Box<Expr>),
    /// `for $i in 1 to 3 where $i = 2 return e`
    Where(Box<Expr>),
    /// `let $u := 1 return e`
    Let(Box<Expr>),
    /// `if (1 = n) then e1 else e2`
    If(bool, Box<Expr>, Box<Expr>),
    /// `(e1, e2, …)`
    Seq(Vec<Expr>),
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let attrs = || proptest::collection::vec((0u8..3, 0u8..10), 0..3);
    let leaf = prop_oneof![
        (0u8..10).prop_map(Expr::Text),
        Just(Expr::Var),
        (any::<bool>(), 0u8..4, attrs()).prop_map(|(direct, name, attrs)| Expr::Elem {
            direct,
            name,
            attrs,
            content: vec![],
        }),
    ];
    leaf.prop_recursive(4, 32, 3, move |inner| {
        let boxed = || inner.clone().prop_map(Box::new);
        prop_oneof![
            (
                any::<bool>(),
                0u8..4,
                attrs(),
                proptest::collection::vec(inner.clone(), 0..4)
            )
                .prop_map(|(direct, name, attrs, content)| Expr::Elem {
                    direct,
                    name,
                    attrs,
                    content,
                }),
            boxed().prop_map(Expr::Copy),
            (1u8..4, boxed()).prop_map(|(n, e)| Expr::For(n, e)),
            boxed().prop_map(Expr::Where),
            boxed().prop_map(Expr::Let),
            (any::<bool>(), boxed(), boxed()).prop_map(|(c, a, b)| Expr::If(c, a, b)),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Expr::Seq),
        ]
    })
}

/// First binding of each attribute name, in order.
fn distinct(attrs: &[(u8, u8)]) -> Vec<(u8, u8)> {
    let mut out: Vec<(u8, u8)> = Vec::new();
    for &(name, value) in attrs {
        if !out.iter().any(|&(n, _)| n == name) {
            out.push((name, value));
        }
    }
    out
}

impl Expr {
    fn query(&self) -> String {
        match self {
            Expr::Text(n) => format!("text {{ \"t{n}\" }}"),
            Expr::Var => "$x".to_string(),
            Expr::Elem {
                direct: true,
                name,
                attrs,
                content,
            } => {
                let attrs: String = distinct(attrs)
                    .iter()
                    .map(|(a, v)| format!(" a{a}=\"{v}\""))
                    .collect();
                let content: String = content
                    .iter()
                    .map(|c| match c {
                        // A direct child may be written inline.
                        Expr::Elem { direct: true, .. } => c.query(),
                        other => format!("{{ {} }}", other.query()),
                    })
                    .collect();
                format!("<e{name}{attrs}>{content}</e{name}>")
            }
            Expr::Elem {
                name,
                attrs,
                content,
                ..
            } => {
                let members: Vec<String> = distinct(attrs)
                    .iter()
                    .map(|(a, v)| format!("attribute a{a} {{ \"{v}\" }}"))
                    .chain(content.iter().map(Expr::query))
                    .collect();
                format!("element e{name} {{ {} }}", members.join(", "))
            }
            Expr::Copy(e) => format!("copy {{ {} }}", e.query()),
            Expr::For(n, e) => format!("(for $i in 1 to {n} return {})", e.query()),
            Expr::Where(e) => format!("(for $i in 1 to 3 where $i = 2 return {})", e.query()),
            Expr::Let(e) => format!("(let $u := 1 return {})", e.query()),
            Expr::If(c, a, b) => format!(
                "(if (1 = {}) then {} else {})",
                if *c { 1 } else { 2 },
                a.query(),
                b.query()
            ),
            Expr::Seq(es) => {
                let members: Vec<String> = es.iter().map(Expr::query).collect();
                format!("({})", members.join(", "))
            }
        }
    }

    /// The XML the expression denotes, as the serializer writes it.
    fn xml(&self) -> String {
        match self {
            Expr::Text(n) => format!("t{n}"),
            Expr::Var => X_DECL.to_string(),
            Expr::Elem {
                name,
                attrs,
                content,
                ..
            } => {
                let attrs: String = distinct(attrs)
                    .iter()
                    .map(|(a, v)| format!(" a{a}=\"{v}\""))
                    .collect();
                let content: String = content.iter().map(Expr::xml).collect();
                if content.is_empty() {
                    format!("<e{name}{attrs}/>")
                } else {
                    format!("<e{name}{attrs}>{content}</e{name}>")
                }
            }
            Expr::Copy(e) | Expr::Where(e) | Expr::Let(e) => e.xml(),
            Expr::For(n, e) => e.xml().repeat(usize::from(*n)),
            Expr::If(c, a, b) => if *c { a } else { b }.xml(),
            Expr::Seq(es) => es.iter().map(Expr::xml).collect(),
        }
    }

    fn nodes(&self) -> usize {
        match self {
            Expr::Text(_) => 1,
            Expr::Var => 3,
            Expr::Elem { attrs, content, .. } => {
                1 + distinct(attrs).len() + content.iter().map(Expr::nodes).sum::<usize>()
            }
            Expr::Copy(e) | Expr::Where(e) | Expr::Let(e) => e.nodes(),
            Expr::For(n, e) => usize::from(*n) * e.nodes(),
            Expr::If(c, a, b) => if *c { a } else { b }.nodes(),
            Expr::Seq(es) => es.iter().map(Expr::nodes).sum(),
        }
    }

    /// Does `$x` occur anywhere (evaluated or not)?
    fn mentions_var(&self) -> bool {
        match self {
            Expr::Text(_) => false,
            Expr::Var => true,
            Expr::Elem { content: es, .. } | Expr::Seq(es) => es.iter().any(Expr::mentions_var),
            Expr::Copy(e) | Expr::For(_, e) | Expr::Where(e) | Expr::Let(e) => e.mentions_var(),
            Expr::If(_, a, b) => a.mentions_var() || b.mentions_var(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn construction_denotes_what_it_says_and_allocates_what_it_keeps(
        body in expr_strategy()
    ) {
        // One enclosing element, so the result is a single tree whatever
        // the body's cardinality.
        let root = Expr::Elem { direct: false, name: 9, attrs: vec![], content: vec![body] };
        let named = root.mentions_var();
        let query = if named {
            format!("let $x := {X_DECL} return {}", root.query())
        } else {
            root.query()
        };
        for (label, mut e) in engines() {
            let (allocated, counted, text) = allocations(&mut e, &query);
            prop_assert_eq!(&text, &root.xml(), "{}: {}", label, &query);
            prop_assert_eq!(counted, root.nodes(), "{}: {}", label, &query);
            if named {
                // Each evaluated `$x` goes in as a copy (and drags the
                // other members of a sequence it sits in along).
                prop_assert!(allocated >= counted, "{}: {}", label, &query);
            } else {
                prop_assert_eq!(allocated, counted, "{}: {}", label, &query);
            }
        }
    }
}
