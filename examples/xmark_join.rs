//! The §4.3 XMark Query-8 variant as a scaling benchmark: shows the
//! optimizer recognizing the outer-join/group-by shape *despite* the
//! embedded insert (pending updates are effect-free), prints the
//! paper-style annotated plan, and compares two execution paths at
//! growing scales:
//!
//! * **naive** — strict nested-loop interpretation (`run_naive`);
//! * **engine** — the engine-default compiled pipeline (`Engine::run`),
//!   including plan-cache first-run (miss) vs cached-run (hit) timing.
//!
//! A nested-in-snap variant shows the join compiling *inside* an
//! explicit snap body. Results go to the `pipeline` section of
//! `BENCH.json`, stamped with the host's core count and the commit.
//!
//! Run with: `cargo run --release --example xmark_join`

use std::time::Instant;
use xmarkgen::{Scale, XmarkGen};
use xquery_bang::xqalg::run_naive;
use xquery_bang::{Engine, Item, Store};

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
const Q8_SNAP_VARIANT: &str = r#"
snap {
  for $p in $auction//person
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return insert { <buyer person="{$t/buyer/@person}"/> } into { $purchasers }
}"#;

fn setup(scale: &Scale) -> (Store, Vec<(String, xqdm::Sequence)>) {
    let mut store = Store::new();
    let auction = XmarkGen::new(8)
        .generate(&mut store, scale)
        .expect("generate");
    let purchasers =
        xquery_bang::xqdm::xml::parse_fragment(&mut store, "<purchasers/>").expect("purchasers")[0];
    (
        store,
        vec![
            ("auction".to_string(), xqdm::seq![Item::Node(auction)]),
            ("purchasers".to_string(), xqdm::seq![Item::Node(purchasers)]),
        ],
    )
}

/// A facade engine with the same data generated into its own store.
fn setup_engine(scale: &Scale) -> Engine {
    let mut e = Engine::new();
    let auction = XmarkGen::new(8)
        .generate(&mut e.store, scale)
        .expect("generate");
    let purchasers = xquery_bang::xqdm::xml::parse_fragment(&mut e.store, "<purchasers/>")
        .expect("purchasers")[0];
    e.bind("auction", xqdm::seq![Item::Node(auction)]);
    e.bind("purchasers", xqdm::seq![Item::Node(purchasers)]);
    e
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = xquery_bang::xqsyn::compile(Q8_VARIANT)?;

    // Show the compiled plan with effect annotations — what the engine
    // itself executes (EXPLAIN for XQuery!).
    let explainer = Engine::new();
    println!(
        "=== Q8 variant plan ===\n{}\n",
        explainer.explain(Q8_VARIANT)?
    );
    println!(
        "=== Q8 nested-in-snap plan ===\n{}\n",
        explainer.explain(Q8_SNAP_VARIANT)?
    );

    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>8}",
        "persons", "closed", "naive", "engine", "speedup"
    );
    let mut rows = Vec::new();
    for n in [50usize, 100, 200, 400, 800] {
        let scale = Scale::join_sides(n, n / 2);

        let (mut s1, b1) = setup(&scale);
        let t0 = Instant::now();
        let naive = run_naive(&program, &mut s1, &b1, 0)?;
        let t_naive = t0.elapsed();

        // The engine-default path: compile (plan-cache miss) + execute.
        let mut engine = setup_engine(&scale);
        let t0 = Instant::now();
        let via_engine = engine.run(Q8_VARIANT)?;
        let t_engine = t0.elapsed();

        assert_eq!(naive.len(), via_engine.len());
        assert!(engine.last_stats().unwrap().joins_executed > 0);
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>7.1}x",
            scale.persons,
            scale.closed_auctions,
            format!("{t_naive:.2?}"),
            format!("{t_engine:.2?}"),
            t_naive.as_secs_f64() / t_engine.as_secs_f64().max(1e-9),
        );
        rows.push(format!(
            r#"      {{"persons": {}, "closed_auctions": {}, "naive_s": {:.6}, "engine_s": {:.6}}}"#,
            scale.persons,
            scale.closed_auctions,
            t_naive.as_secs_f64(),
            t_engine.as_secs_f64(),
        ));
    }

    // Plan cache: first run compiles (miss), the second reuses (hit).
    let scale = Scale::join_sides(200, 100);
    let mut engine = setup_engine(&scale);
    let t0 = Instant::now();
    engine.run(Q8_VARIANT)?;
    let t_first = t0.elapsed();
    let t0 = Instant::now();
    engine.run(Q8_VARIANT)?;
    let t_cached = t0.elapsed();
    let (hits, misses) = engine.plan_cache_stats();
    assert_eq!((hits, misses), (1, 1));
    println!(
        "\nplan cache @200 persons: first run (compile+exec) {t_first:.2?}, \
         cached run {t_cached:.2?}  [{hits} hit / {misses} miss]"
    );

    // The nested-in-snap variant, compiled vs forced interpretation.
    let mut compiled = setup_engine(&scale);
    let t0 = Instant::now();
    compiled.run(Q8_SNAP_VARIANT)?;
    let t_snap_compiled = t0.elapsed();
    assert!(compiled.last_stats().unwrap().joins_executed > 0);

    let mut interpreted = setup_engine(&scale);
    interpreted.set_compile(false);
    let t0 = Instant::now();
    interpreted.run(Q8_SNAP_VARIANT)?;
    let t_snap_interp = t0.elapsed();
    println!(
        "snap-nested join @200 persons: compiled {t_snap_compiled:.2?}, \
         interpreted {t_snap_interp:.2?}"
    );

    let json = format!(
        "{{\n    \"bench\": \"xmark_q8_pipeline\",\n    \"rows\": [\n{}\n    ],\n    \
         \"plan_cache\": {{\"first_run_s\": {:.6}, \"cached_run_s\": {:.6}, \
         \"hits\": {hits}, \"misses\": {misses}}},\n    \
         \"snap_variant\": {{\"persons\": {}, \"compiled_s\": {:.6}, \"interpreted_s\": {:.6}}}\n  }}",
        rows.join(",\n"),
        t_first.as_secs_f64(),
        t_cached.as_secs_f64(),
        scale.persons,
        t_snap_compiled.as_secs_f64(),
        t_snap_interp.as_secs_f64(),
    );
    xqexp::splice_bench_section("pipeline", &json)?;

    println!(
        "\nNaive is O(|person| * |closed_auction|); the outer-join/group-by\n\
         plan is O(|person| + |closed_auction| + |matches|): the speedup\n\
         grows linearly with scale, as the paper's complexity claim says."
    );
    Ok(())
}
