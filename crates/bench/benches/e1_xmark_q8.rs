//! E1 — §4.3 complexity claim on the XMark Q8 variant.
//!
//! Paper: naive evaluation is `O(|person| · |closed_auction|)`; the
//! outer-join/group-by plan is `O(|person| + |closed_auction| +
//! |matches|)`, "resulting in a substantial improvement".
//!
//! Two execution paths at growing scales, each on a fresh store:
//!
//! * **naive** — strict nested-loop interpretation (`run_naive`);
//! * **engine** — the engine-default compiled pipeline (`Engine::run`),
//!   plan-cache miss included.
//!
//! Expected shape: naive time grows ~quadratically with the scale knob
//! (both sides grow together), engine ~linearly; the ratio therefore
//! grows ~linearly. Absolute numbers are ours, not Galax's. Three probes
//! follow: a plan-cache hit against its miss, the join compiled inside
//! an explicit `snap` body against forced interpretation, and the join
//! written as a path predicate, compiled against interpreted in
//! [`xqexp::paired`] runs.
//!
//! Output: a table on stdout and the `pipeline` section of the
//! canonical `BENCH.json` (other sections are preserved).

use std::time::{Duration, Instant};
use xmarkgen::{Scale, XmarkGen};
use xqcore::alg::run_naive;
use xqcore::Engine;
use xqdm::{Item, QName};
use xqexp::{xmark_fixture, Q8_VARIANT};

/// The join alone, inside an explicit `snap` body: per-subtree
/// compilation reaches it there too. Not [`xqexp::Q8_SNAP_VARIANT`], whose
/// `snap` sits in the loop body and must block the rewrite (E8).
const Q8_JOIN_IN_SNAP: &str = r#"
snap {
  for $p in $auction//person
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return insert { <buyer person="{$t/buyer/@person}"/> } into { $purchasers }
}"#;

/// The join of the FLWOR Q8 written as a path predicate. The rewriter
/// hoists the predicate into the `let`-bound FLWOR this bench's join
/// rows compile, so it runs as the same outer join + group-by.
const Q8_PREDICATE: &str =
    "for $p in $auction//person return count($auction//closed_auction[buyer/@person = $p/@id])";

/// Fresh-store runs per cell; the median is reported.
const REPS: usize = 3;

/// An engine holding the same data as `xmark_fixture(8, scale)`.
fn engine(scale: &Scale) -> Engine {
    let mut e = Engine::new();
    let auction = XmarkGen::new(8)
        .generate(&mut e.store, scale)
        .expect("generate xmark");
    let purchasers = e.store.new_element(QName::local("purchasers"));
    e.bind("auction", xqdm::seq![Item::Node(auction)]);
    e.bind("purchasers", xqdm::seq![Item::Node(purchasers)]);
    e
}

/// Median over `REPS` runs of `run`, each given fresh state from `setup`;
/// only `run` is timed.
fn median_of<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> Duration {
    let mut samples: Vec<Duration> = (0..REPS)
        .map(|_| {
            let state = setup();
            let t0 = Instant::now();
            run(state);
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[REPS / 2]
}

/// One run of `query` on `e`, timed.
fn timed(e: &mut Engine, query: &str) -> Duration {
    let t0 = Instant::now();
    e.run(query).expect("engine run");
    t0.elapsed()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = xqsyn::compile(Q8_VARIANT)?;
    println!("E1: XMark Q8 variant, naive vs engine, median of {REPS} fresh stores");
    println!(
        "  {:>8} {:>8} {:>12} {:>12} {:>8}",
        "persons", "closed", "naive", "engine", "ratio"
    );
    let mut rows = Vec::new();
    for n in [50usize, 100, 200, 400, 800] {
        let scale = Scale::join_sides(n, n / 2);
        let mut naive_len = 0;
        let t_naive = median_of(
            || xmark_fixture(8, &scale),
            |(mut store, bindings)| {
                naive_len = run_naive(&program, &mut store, &bindings, 0)
                    .expect("naive")
                    .len();
            },
        );
        let t_engine = median_of(
            || engine(&scale),
            |mut e| {
                let out = e.run(Q8_VARIANT).expect("engine");
                assert_eq!(out.len(), naive_len, "engine and naive disagree");
                assert!(e.last_stats().expect("stats").joins_executed > 0);
            },
        );
        let (naive_s, engine_s) = (t_naive.as_secs_f64(), t_engine.as_secs_f64());
        println!(
            "  {n:>8} {:>8} {:>12.2?} {:>12.2?} {:>7.1}x",
            n / 2,
            t_naive,
            t_engine,
            naive_s / engine_s
        );
        rows.push(format!(
            "{{\"persons\": {n}, \"closed_auctions\": {}, \"naive_s\": {naive_s:.6}, \
             \"engine_s\": {engine_s:.6}}}",
            n / 2
        ));
    }

    // Plan cache: the first run compiles (miss), the second reuses (hit).
    let persons = 200;
    let scale = Scale::join_sides(persons, persons / 2);
    let mut e = engine(&scale);
    let t_first = timed(&mut e, Q8_VARIANT);
    let t_cached = timed(&mut e, Q8_VARIANT);
    let (hits, misses) = e.plan_cache_stats();
    assert_eq!((hits, misses), (1, 1));
    println!("  plan cache @{persons}: first run {t_first:.2?}, cached run {t_cached:.2?}");

    // The join inside an explicit snap, compiled vs forced interpretation.
    let mut compiled = engine(&scale);
    let t_snap_compiled = timed(&mut compiled, Q8_JOIN_IN_SNAP);
    assert!(compiled.last_stats().expect("stats").joins_executed > 0);
    let mut interpreted = engine(&scale);
    interpreted.set_compile(false);
    let t_snap_interp = timed(&mut interpreted, Q8_JOIN_IN_SNAP);
    println!(
        "  join in snap @{persons}: compiled {t_snap_compiled:.2?}, \
         interpreted {t_snap_interp:.2?}"
    );

    // The predicate form, compiled (A) against the interpreter's nested
    // loop (B), which is what its plan ran before the unnesting: a `For`
    // over an `Iterate` body. Paired, fresh engines, at 800 persons.
    let scale = Scale::join_sides(800, 400);
    let plan = engine(&scale).explain(Q8_PREDICATE)?;
    assert!(
        plan.contains("LeftOuterJoin") && plan.contains("GroupBy") && !plan.contains("Iterate"),
        "the predicate form must unnest:\n{plan}"
    );
    let value = std::cell::RefCell::new(None::<String>);
    let run = |compile: bool| {
        let mut e = engine(&scale);
        e.set_compile(compile);
        let mut out = None;
        let t = xqexp::seconds(|| out = Some(e.run(Q8_PREDICATE).expect("predicate form")));
        assert_eq!(e.last_stats().expect("stats").joins_executed > 0, compile);
        let v = e.serialize(&out.expect("ran")).expect("serialize");
        let mut first = value.borrow_mut();
        assert_eq!(first.get_or_insert_with(|| v.clone()), &v, "values differ");
        t
    };
    let predicate = xqexp::paired(10, || run(true), || run(false));
    println!(
        "  predicate form @800: compiled / interpreted = {} (ratio [q1, q3] wins), \
         {:.0}x faster",
        predicate.summary(),
        1.0 / predicate.ratio
    );

    let section = format!(
        "{{\n    \"bench\": \"xmark_q8_pipeline\",\n    \"rows\": [\n      {}\n    ],\n    \
         \"plan_cache\": {{\"first_run_s\": {:.6}, \"cached_run_s\": {:.6}, \
         \"hits\": {hits}, \"misses\": {misses}}},\n    \
         \"snap_variant\": {{\"persons\": {persons}, \"compiled_s\": {:.6}, \
         \"interpreted_s\": {:.6}}},\n    \
         \"predicate_form_800\": {{\"compiled_vs_interpreted\": {}}}\n  }}",
        rows.join(",\n      "),
        t_first.as_secs_f64(),
        t_cached.as_secs_f64(),
        t_snap_compiled.as_secs_f64(),
        t_snap_interp.as_secs_f64(),
        predicate.json(),
    );
    xqexp::splice_bench_section("pipeline", &section)?;
    Ok(())
}
