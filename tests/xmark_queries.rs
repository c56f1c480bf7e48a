//! A selection of original XMark queries (\[23\] Schmidt et al., VLDB 2002)
//! run against generated data — the substrate the paper evaluates on.
//! Where a query result depends on generated values we assert structural
//! properties rather than absolute numbers (the generator is deterministic
//! per seed, so spot values are pinned where meaningful).

mod corpus;

use corpus::xmark::{QUERY_TEXTS, SCALE, SEED};
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::{Engine, Item};

fn engine(scale: &Scale, seed: u64) -> Engine {
    let mut e = Engine::new();
    let doc = XmarkGen::new(seed).generate(&mut e.store, scale).unwrap();
    e.bind("auction", xqdm::seq![Item::Node(doc)]);
    e
}

fn run(e: &mut Engine, q: &str) -> String {
    let r = e
        .run(q)
        .unwrap_or_else(|err| panic!("query {q:?} failed: {err}"));
    e.serialize(&r).unwrap()
}

/// XMark Q1: the name of the person with id "person0".
#[test]
fn q1_person_by_id() {
    let mut e = engine(&SCALE, SEED);
    let out = run(
        &mut e,
        r#"for $b in $auction/site/people/person[@id = "person0"]
           return string($b/name)"#,
    );
    assert!(!out.is_empty());
    // Cross-check against a direct path.
    let direct = run(&mut e, "string(($auction//person)[1]/name)");
    assert_eq!(out, direct);
}

/// XMark Q2 (shape): initial bids of each open auction.
#[test]
fn q2_initial_increases() {
    let mut e = engine(&SCALE, SEED);
    let count = run(
        &mut e,
        "count(for $b in $auction/site/open_auctions/open_auction
               return <increase>{ string($b/bidder[1]/increase) }</increase>)",
    );
    // One output element per open auction with at least ... per XMark, one
    // per auction regardless (empty string when no bidder).
    assert_eq!(count, SCALE.open_auctions.to_string());
}

/// XMark Q5 (shape): how many sold items cost more than 40.
#[test]
fn q5_expensive_items() {
    let mut e = engine(&SCALE, SEED);
    let out = run(
        &mut e,
        "count(for $i in $auction/site/closed_auctions/closed_auction
               where $i/price >= 40
               return $i/price)",
    );
    let n: usize = out.parse().unwrap();
    assert!(n <= SCALE.closed_auctions);
    // Complement check: cheap + expensive = all.
    let cheap = run(
        &mut e,
        "count(for $i in $auction/site/closed_auctions/closed_auction
               where $i/price < 40
               return $i)",
    );
    assert_eq!(n + cheap.parse::<usize>().unwrap(), SCALE.closed_auctions);
}

/// XMark Q6: items in all regions.
#[test]
fn q6_items_per_region() {
    let mut e = engine(&SCALE, SEED);
    assert_eq!(
        run(
            &mut e,
            "count(for $b in $auction//site/regions return $b//item)"
        ),
        SCALE.items.to_string()
    );
}

/// XMark Q7: pieces of prose (text/description-ish counts).
#[test]
fn q7_content_counts() {
    let mut e = engine(&SCALE, SEED);
    let descriptions = run(&mut e, "count($auction//description)");
    assert_eq!(descriptions, SCALE.items.to_string());
}

/// XMark Q8 (original, no updates): purchase counts per person — the
/// paper's optimization target, in its pure form.
#[test]
fn q8_original_purchase_counts() {
    let mut e = engine(&SCALE, SEED);
    let out = run(
        &mut e,
        r#"for $p in $auction/site/people/person
           let $a := for $t in $auction/site/closed_auctions/closed_auction
                     where $t/buyer/@person = $p/@id
                     return $t
           return <item person="{ $p/name }">{ count($a) }</item>"#,
    );
    // One element per person; total purchases = closed auctions.
    let items: Vec<&str> = out.split("</item>").filter(|s| !s.is_empty()).collect();
    assert_eq!(items.len(), SCALE.persons);
    let total = run(
        &mut e,
        r#"sum(for $p in $auction/site/people/person
               return count($auction//closed_auction[buyer/@person = $p/@id]))"#,
    );
    assert_eq!(total, SCALE.closed_auctions.to_string());
}

/// Q8 whose `return` uses `$a` once: the bound FLWOR must stay a `let`
/// (not be inlined into `count(...)`), so the join compiler still sees
/// the paper's §4.3 outer-join + group-by shape and runs one hash join.
#[test]
fn q8_single_use_let_compiles_to_a_join() {
    let q = r#"for $p in $auction/site/people/person
               let $a := for $t in $auction/site/closed_auctions/closed_auction
                         where $t/buyer/@person = $p/@id
                         return $t
               return count($a)"#;
    let mut e = engine(&SCALE, SEED);
    let out = run(&mut e, q);
    let stats = e.last_stats().unwrap();
    assert_eq!(stats.joins_executed, 1, "Q8 ran without a join: {stats:?}");
    let mut i = engine(&SCALE, SEED);
    i.set_compile(false);
    assert_eq!(out, run(&mut i, q), "join changed the value");
}

/// XMark Q9-like join through items.
#[test]
fn q9_buyer_item_join() {
    let mut e = engine(&SCALE, SEED);
    let matched = run(
        &mut e,
        r#"count(for $t in $auction//closed_auction
                 for $i in $auction//item
                 where $t/itemref/@item = $i/@id
                 return <hit/>)"#,
    );
    // Every itemref points at a real item.
    assert_eq!(matched, SCALE.closed_auctions.to_string());
}

/// Q8 as an *update* (the paper's §2.1 variant), then queried back.
#[test]
fn q8_update_variant_end_to_end() {
    let mut e = engine(&SCALE, SEED);
    e.load_document("purchasers", "<purchasers/>").unwrap();
    e.run(
        r#"for $p in $auction//person
           for $t in $auction//closed_auction
           where $t/buyer/@person = $p/@id
           return insert { <buyer person="{$t/buyer/@person}"
                                   itemid="{$t/itemref/@item}" /> }
                  into { $purchasers/purchasers }"#,
    )
    .unwrap();
    assert_eq!(
        run(&mut e, "count($purchasers//buyer)"),
        SCALE.closed_auctions.to_string()
    );
    // Every inserted buyer's person resolves back to the auction doc.
    assert_eq!(
        run(
            &mut e,
            "count(for $b in $purchasers//buyer
                   return $auction//person[@id = $b/@person])"
        ),
        SCALE.closed_auctions.to_string()
    );
}

/// Quantifiers over the auction document.
#[test]
fn quantified_queries() {
    let mut e = engine(&SCALE, SEED);
    assert_eq!(
        run(
            &mut e,
            "every $p in $auction//person satisfies exists($p/@id)"
        ),
        "true"
    );
    assert_eq!(
        run(
            &mut e,
            "some $t in $auction//closed_auction satisfies $t/price > 0"
        ),
        "true"
    );
}

/// Aggregates across the document.
#[test]
fn aggregate_queries() {
    let mut e = engine(&SCALE, SEED);
    let avg = run(&mut e, "avg($auction//closed_auction/price)");
    let min = run(&mut e, "min($auction//closed_auction/price)");
    let max = run(&mut e, "max($auction//closed_auction/price)");
    let (avg, min, max): (f64, f64, f64) = (
        avg.parse().unwrap(),
        min.parse().unwrap(),
        max.parse().unwrap(),
    );
    assert!(min <= avg && avg <= max);
    assert!(min >= 1.0 && max <= 500.0, "generator price bounds");
}

/// Sorting with order by on generated data.
#[test]
fn order_by_price() {
    let mut e = engine(&SCALE, SEED);
    let out = run(
        &mut e,
        "for $t in $auction//closed_auction
         order by xs:double($t/price)
         return string($t/price)",
    );
    let prices: Vec<f64> = out.split(' ').map(|s| s.parse().unwrap()).collect();
    assert_eq!(prices.len(), SCALE.closed_auctions);
    for w in prices.windows(2) {
        assert!(w[0] <= w[1], "not sorted: {prices:?}");
    }
}

/// The plan-cache key streams a program's `Debug` text once into both of
/// its hashers. It must equal the key of one full pass per hasher.
#[test]
fn plan_cache_key_equals_the_two_pass_key() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;
    use xquery_bang::xqcore::planner::program_fingerprint;

    let mut e = engine(&SCALE, SEED);
    e.load_document("purchasers", "<purchasers/>").unwrap();
    for q in QUERY_TEXTS {
        let program = e.compile(q).unwrap();
        let text = format!("{program:?}");
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        h2.write_u64(0x9e37_79b9_7f4a_7c15);
        h1.write(text.as_bytes());
        h2.write(text.as_bytes());
        assert_eq!(
            program_fingerprint(&program),
            (h1.finish(), h2.finish()),
            "{q}"
        );
    }
}
