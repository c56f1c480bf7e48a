//! The §4.3 XMark Query-8 variant: prints the paper-style annotated plan,
//! showing the optimizer recognizing the outer-join/group-by shape
//! *despite* the embedded insert (pending updates are effect-free), and
//! the plan of the same join nested inside an explicit snap body.
//!
//! Timings (naive vs engine at growing scales, plan-cache hit vs miss,
//! the snap-nested join compiled vs interpreted) live in experiment E1:
//! `cargo bench --offline -p xqexp --bench e1_xmark_q8`.
//!
//! Run with: `cargo run --release --example xmark_join`

use xquery_bang::Engine;

const Q8_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                     itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;

/// The same join nested inside an explicit snap body: per-subtree
/// compilation reaches it there too.
const Q8_JOIN_IN_SNAP: &str = r#"
snap {
  for $p in $auction//person
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return insert { <buyer person="{$t/buyer/@person}"/> } into { $purchasers }
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The compiled plans with effect annotations — what the engine itself
    // executes (EXPLAIN for XQuery!).
    let explainer = Engine::new();
    println!(
        "=== Q8 variant plan ===\n{}\n",
        explainer.explain(Q8_VARIANT)?
    );
    println!(
        "=== Q8 nested-in-snap plan ===\n{}",
        explainer.explain(Q8_JOIN_IN_SNAP)?
    );
    Ok(())
}
