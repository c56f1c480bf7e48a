//! Shared generator for the EXPLAIN ANALYZE golden (`docs/analyze.golden`).
//!
//! Both `examples/analyze.rs` (which CI diffs against the pinned file)
//! and `tests/analyze_golden.rs` (which runs in plain `cargo test`) call
//! [`report`], so the golden can only drift if the analyzed renderer or
//! the counters themselves change. Wall-clock timings are masked to
//! `<t>` by [`xqcore::obs::mask_timings`]; cardinalities, Δ counts, and
//! structure are exact.

use crate::{Engine, Item};
use xmarkgen::{Scale, XmarkGen};
use xqdm::QName;

/// The §4.3 XMark Q8 variant (same shape as `xqexp::Q8_VARIANT`): the
/// paper's optimization target, with an insert in the inner branch.
const Q8_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                     itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;

/// A small query exercising the structural plan nodes (Seq, Let, If,
/// Snap) so the golden pins their annotations — including the
/// `(never executed)` marker on the branch not taken.
const STRUCTURAL_MIX: &str = r#"
let $xs := for $i in 1 to 5 return $i * $i
return if (count($xs) > 3)
       then (snap { insert { <big/> } into { $sink } }, sum($xs))
       else 0"#;

/// Fresh single-threaded engine with the XMark join fixture bound:
/// `$auction` (12 persons / 8 closed auctions, seed 42) and an empty
/// `$purchasers` element. A fresh engine per case keeps every case at
/// `cache=miss` and keeps Q8's inserts from leaking between cases.
fn q8_engine() -> Engine {
    let mut engine = Engine::new();
    let doc = XmarkGen::new(42)
        .generate(&mut engine.store, &Scale::join_sides(12, 8))
        .expect("generate xmark fixture");
    engine.bind("auction", xqdm::seq![Item::Node(doc)]);
    let purchasers = engine.store.new_element(QName::local("purchasers"));
    engine.bind("purchasers", xqdm::seq![Item::Node(purchasers)]);
    engine
}

fn sink_engine() -> Engine {
    let mut engine = Engine::new();
    let sink = engine.store.new_element(QName::local("sink"));
    engine.bind("sink", xqdm::seq![Item::Node(sink)]);
    engine
}

/// The full golden text: each case is an `=== title ===` section holding
/// one `explain_analyze` report, timings masked.
pub fn report() -> Result<String, crate::Error> {
    let mut out = String::new();
    let mut case = |title: &str, engine: &mut Engine, query: &str| -> Result<(), crate::Error> {
        out.push_str(&format!("=== {title} ===\n"));
        out.push_str(&engine.explain_analyze(query)?);
        out.push_str("\n\n");
        Ok(())
    };

    case(
        "XMark Q8 variant (compiled): outer-join + group-by with inner inserts",
        &mut q8_engine(),
        Q8_VARIANT,
    )?;

    let mut interp = q8_engine();
    interp.set_compile(false);
    case(
        "XMark Q8 variant (interpreted): structural plan, same counters",
        &mut interp,
        Q8_VARIANT,
    )?;

    // Interpreted so the Let/If/Snap structure survives as plan nodes
    // (compiled, the whole pure-ish expression folds into one Iterate).
    let mut structural = sink_engine();
    structural.set_compile(false);
    case(
        "structural mix: let / if / snap, with a never-executed branch",
        &mut structural,
        STRUCTURAL_MIX,
    )?;

    Ok(xqcore::obs::mask_timings(&out))
}
