//! E5 — §3.3: normalization wraps every `insert`/`replace` source in a
//! deep `copy` ("this copy prevents the inserted tree from having two
//! parents").
//!
//! Measures what is left of that semantic tax. Deep-copying a subtree is
//! Θ(nodes), so inserting a large *existing* tree — a variable source —
//! costs linear in its size even though the splice itself is O(1)-ish.
//! A *constructor* source is fresh by syntax (`xqcore::eval`'s
//! `yields_fresh`): nobody else can reach the tree, so the evaluator adopts
//! it and the copy is elided. Each source kind is timed next to its own
//! no-insert baseline (evaluating just the source), so the difference is
//! the copy plus the request; allocations per inserted node are counted
//! exactly (`Store::len()` delta over the insert, minus what the baseline
//! allocates).
//!
//! Output: a table on stdout and the `copy_cost` section of the canonical
//! `BENCH.json` (other sections are preserved).

use std::time::Instant;
use xqcore::Engine;
use xqdm::{Item, QName};
use xqexp::element_tree;

/// Samples per cell; the median is reported.
const REPS: usize = 9;
/// Nodes' worth of runs per sample: a sample repeats the query until it
/// has handled about this many source nodes, so small trees are not timed
/// one thread spawn at a time.
const NODES_PER_SAMPLE: usize = 4_000;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// `$src` bound to a tree of `t` elements (`element_tree`: every element
/// but the root holds one text node, 2t − 1 nodes in all), `$dst` to an
/// empty element.
fn engine_with_tree(t: usize) -> Engine {
    let mut e = Engine::new();
    let root = element_tree(&mut e.store, t).expect("tree");
    let dst = e.store.new_element(QName::local("dst"));
    e.bind("src", xqdm::seq![Item::Node(root)]);
    e.bind("dst", xqdm::seq![Item::Node(dst)]);
    e
}

/// A constructor denoting a tree of the same 2t − 1 nodes.
fn constructor(t: usize) -> String {
    format!(
        "<root>{{ for $i in 1 to {} return <node>x</node> }}</root>",
        t - 1
    )
}

/// Median seconds per run of `query`, and the exact allocations of one run.
/// All runs share one engine: every query here leaves `$src` as it found it
/// and appends to `$dst` at most, so each run does the same work.
fn measure(t: usize, query: &str) -> (f64, usize) {
    let program = xqsyn::compile(query).expect("parse");
    let mut e = engine_with_tree(t);
    // Warm-up run (plan cache, interner), which also yields the count.
    let before = e.store.len();
    e.run_program(&program).expect("run");
    let allocated = e.store.len() - before;
    let iters = (NODES_PER_SAMPLE / t).max(1);
    let samples = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                e.run_program(&program).expect("run");
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    (median(samples), allocated)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E5: what an insert source costs, median of {REPS} samples per cell");
    println!(
        "  {:>6} {:>10} {:>12} {:>10} {:>12} {:>10} | {:>9} {:>9}",
        "t", "copy_us", "ins_var_us", "ref_us", "ins_ctor_us", "ctor_us", "var a/n", "ctor a/n"
    );
    let mut rows = Vec::new();
    for t in [10usize, 100, 1_000, 10_000] {
        let nodes = 2 * t - 1;
        let ctor = constructor(t);
        let (copy_s, _) = measure(t, "copy { $src }");
        let (ins_var_s, ins_var_allocs) = measure(t, "insert { $src } into { $dst }");
        let (ref_s, _) = measure(t, "count(($src))");
        let (ins_ctor_s, ins_ctor_allocs) =
            measure(t, &format!("insert {{ {ctor} }} into {{ $dst }}"));
        let (ctor_s, ctor_allocs) = measure(t, &format!("count({ctor})"));
        // Allocations the insert adds to evaluating its source, per node
        // that ends up under $dst.
        let var_per_node = ins_var_allocs as f64 / nodes as f64;
        let ctor_copies_per_node = (ins_ctor_allocs - ctor_allocs) as f64 / nodes as f64;
        let ctor_per_node = ins_ctor_allocs as f64 / nodes as f64;
        println!(
            "  {t:>6} {:>10.1} {:>12.1} {:>10.1} {:>12.1} {:>10.1} | {var_per_node:>9.2} {ctor_per_node:>9.2}",
            copy_s * 1e6,
            ins_var_s * 1e6,
            ref_s * 1e6,
            ins_ctor_s * 1e6,
            ctor_s * 1e6,
        );
        rows.push(format!(
            "{{\"t\": {t}, \"inserted_nodes\": {nodes}, \"copy_s\": {copy_s:.9}, \
             \"insert_variable_s\": {ins_var_s:.9}, \"reference_only_s\": {ref_s:.9}, \
             \"insert_constructor_s\": {ins_ctor_s:.9}, \"constructor_only_s\": {ctor_s:.9}, \
             \"variable_allocs_per_node\": {var_per_node:.3}, \
             \"constructor_allocs_per_node\": {ctor_per_node:.3}, \
             \"constructor_copies_per_node\": {ctor_copies_per_node:.3}}}"
        ));
    }
    let section = format!(
        "{{\n    \"experiment\": \"e5_copy_cost\",\n    \"rows\": [\n      {}\n    ]\n  }}",
        rows.join(",\n      ")
    );
    xqexp::splice_bench_section("copy_cost", &section)?;
    Ok(())
}
