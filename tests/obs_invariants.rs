//! Observability invariants (ISSUE 4 satellite): the counters produced by
//! `explain_analyze` must be *internally consistent* — not just plausible
//! numbers, but numbers that obey the dataflow relations of the plan that
//! produced them:
//!
//! 1. Per-node cardinalities satisfy the structural relations checked by
//!    `PlannedProgram::verify_profile` (a `Seq`'s children run as often
//!    as the `Seq`, a `For` body runs once per source row, child output
//!    cardinalities sum to parent outputs, …).
//! 2. Σ per-node `delta_self` over the whole profile equals the run's
//!    `EvalStats::requests_emitted` — every Δ request is attributed to
//!    exactly one plan node.
//! 3. On a successful run, `requests_emitted == requests_applied` (snap
//!    scopes apply exactly what was collected).
//! 4. The semantic counters are an *observable* of the program, not of
//!    the evaluation strategy: identical across
//!    {compiled, interpreted} × {1, 8} worker threads.
//!
//! A proptest section generalizes 1–4 over randomly generated join-shaped
//! updating programs.

use proptest::prelude::*;
use xquery_bang::Engine;

/// Queries that exercise every structural plan node plus joins and Δ
/// emission. Each entry is (documents, query).
fn corpus() -> Vec<(Vec<(&'static str, &'static str)>, &'static str)> {
    vec![
        (vec![], "1 + 2 * 3"),
        (vec![], "for $i in 1 to 10 return $i * $i"),
        (
            vec![("log", "<log/>")],
            "snap { insert { <a/> } into { $log/log },
                    insert { <b/> } into { $log/log } }",
        ),
        (
            vec![("log", "<log/>")],
            "let $n := 4
             return if ($n > 2)
                    then for $i in 1 to $n
                         return snap insert { <e v=\"{$i}\"/> } into { $log/log }
                    else ()",
        ),
        (
            vec![
                ("left", r#"<left><e k="k1"/><e k="k2"/><e k="k1"/></left>"#),
                ("right", r#"<right><e k="k1"/><e k="k3"/></right>"#),
                ("out", "<out/>"),
            ],
            "snap {
               for $l in $left/left/e
               for $r in $right/right/e
               where $l/@k = $r/@k
               return insert { <m/> } into { $out/out } }",
        ),
        (
            vec![
                ("people", r#"<ps><p id="a"/><p id="b"/></ps>"#),
                ("sales", r#"<ss><s ref="a"/><s ref="a"/><s ref="c"/></ss>"#),
                ("hits", "<hits/>"),
            ],
            "for $p in $people/ps/p
             let $g := for $s in $sales/ss/s
                       where $s/@ref = $p/@id
                       return (insert { <hit/> } into { $hits }, $s)
             return <row id=\"{$p/@id}\">{ count($g) }</row>",
        ),
    ]
}

fn engine_with(docs: &[(&str, &str)], compile: bool, threads: usize) -> Engine {
    let mut e = Engine::new().with_seed(0x0b5);
    e.set_compile(compile);
    e.set_threads(threads);
    for (name, xml) in docs {
        e.load_document(name, xml).unwrap();
    }
    e
}

/// Run `explain_analyze` and check invariants 1–3 on the captured
/// profile. Returns `requests_emitted` for cross-variant comparison.
fn analyze_and_check(engine: &mut Engine, query: &str, label: &str) -> u64 {
    engine.explain_analyze(query).unwrap_or_else(|e| {
        panic!("explain_analyze failed ({label}) for {query}: {e}");
    });
    let stats = engine.last_stats().expect("stats after analyze");
    let run = engine.last_run().expect("report after analyze");
    let profile = run.profile.as_ref().expect("profile after analyze");
    let plan = run.plan.as_ref().expect("plan after analyze");

    // 1. Structural dataflow relations hold.
    if let Err(e) = plan.verify_profile(profile) {
        panic!("profile inconsistent ({label}) for {query}: {e}");
    }
    // 2. Every Δ request is attributed to exactly one node.
    assert_eq!(
        profile.total_delta_self(),
        stats.requests_emitted,
        "Σ delta_self != requests_emitted ({label}) for {query}"
    );
    // 3. Snap scopes apply what they collected.
    assert_eq!(
        stats.requests_emitted, stats.requests_applied,
        "emitted != applied on success ({label}) for {query}"
    );
    assert!(profile.total_calls() > 0, "empty profile ({label})");
    stats.requests_emitted
}

#[test]
fn analyze_counters_consistent_in_both_modes() {
    for (docs, query) in corpus() {
        let compiled = analyze_and_check(&mut engine_with(&docs, true, 1), query, "compiled");
        let interpreted =
            analyze_and_check(&mut engine_with(&docs, false, 1), query, "interpreted");
        // 4. Semantic counter agreement across plan modes.
        assert_eq!(compiled, interpreted, "requests_emitted differ for {query}");
    }
}

/// Invariant 4, thread axis: the PR-3 determinism matrix extended with a
/// counter column — `requests_emitted` must not depend on the worker
/// thread count, with or without compilation.
#[test]
fn analyze_counters_thread_invariant() {
    for (docs, query) in corpus() {
        let mut seen = Vec::new();
        for compile in [true, false] {
            for threads in [1usize, 8] {
                let label = format!(
                    "{}×{threads}",
                    if compile { "compiled" } else { "interpreted" }
                );
                let emitted =
                    analyze_and_check(&mut engine_with(&docs, compile, threads), query, &label);
                seen.push((label, emitted));
            }
        }
        let reference = seen[0].1;
        for (label, emitted) in &seen {
            assert_eq!(
                *emitted, reference,
                "requests_emitted for {query} diverged at {label}: {seen:?}"
            );
        }
    }
}

/// Fanned-out pure loops still produce a coherent profile: the `For`
/// node records its par attribution, `verify_profile` skips the relations
/// the fan-out makes unknowable, and the Δ ledger stays exact.
#[test]
fn analyze_profile_coherent_under_parallel_fanout() {
    let doc: String = std::iter::once("<root>".to_string())
        .chain((0..40).map(|i| format!("<e v=\"{i}\"/>")))
        .chain(std::iter::once("</root>".to_string()))
        .collect();
    let mut e = Engine::new();
    e.set_compile(false); // structural plan: the For survives as a node
    e.set_threads(8);
    e.load_document("doc", &doc).unwrap();
    let report = e
        .explain_analyze("for $e in $doc/root/e return number($e/@v) * 2")
        .unwrap();
    let stats = e.last_stats().unwrap();
    assert!(
        stats.par_regions > 0,
        "pure loop did not fan out: {stats:?}"
    );
    assert!(
        report.contains("par="),
        "par attribution missing from analyzed tree:\n{report}"
    );
    let run = e.last_run().unwrap();
    let profile = run.profile.as_ref().unwrap();
    run.plan.as_ref().unwrap().verify_profile(profile).unwrap();
    assert_eq!(profile.total_delta_self(), stats.requests_emitted);
}

/// ISSUE 10 satellite: strategy counters (`batch=`, `idx=`) are
/// determinism-exempt in *where* they attribute, but their totals must
/// equal the 1-thread run — a batched spine under a `[par]` For-binder
/// must not double-count steps across workers (workers interpret pure
/// bodies and never touch the batch kernels; only the main thread
/// counts). Pinned at both thread legs of the matrix.
#[test]
fn batch_and_idx_totals_are_thread_invariant() {
    let doc: String = std::iter::once("<root>".to_string())
        .chain((0..40).map(|i| format!("<b><e v=\"{i}\"/></b>")))
        .chain(std::iter::once("</root>".to_string()))
        .collect();
    // Two spine shapes: a batched body under a For (runs per binding on
    // the main thread), and a pure path body that fans out under [par]
    // (workers interpret it — no batch counting at any thread count).
    let queries = [
        "for $b in $doc/root/b return $b/e",
        "for $i in 1 to 8 return count($doc/root/b/e)",
    ];
    for (qi, query) in queries.iter().enumerate() {
        let mut totals = Vec::new();
        for threads in [1usize, 8] {
            let mut e = Engine::new().with_seed(0x0b5);
            e.set_compile(true);
            e.set_threads(threads);
            e.load_document("doc", &doc).unwrap();
            e.explain_analyze(query).unwrap();
            let stats = e.last_stats().unwrap();
            totals.push((
                threads,
                stats.batch_steps,
                stats.batch_nodes,
                stats.idx_scans,
                stats.idx_hits,
            ));
        }
        let (_, steps1, nodes1, scans1, hits1) = totals[0];
        if qi == 0 {
            assert!(
                steps1 + scans1 > 0,
                "expected a batched/indexed spine in the 1-thread run of {query}: {totals:?}"
            );
        }
        for &(threads, steps, nodes, scans, hits) in &totals {
            assert_eq!(
                (steps, nodes, scans, hits),
                (steps1, nodes1, scans1, hits1),
                "strategy counter totals for {query} diverged at {threads} threads: {totals:?}"
            );
        }
    }
}

/// `explain_analyze` really executes the query: effects land in the
/// store, and a second analyze of a reading query sees them.
#[test]
fn analyze_executes_for_real() {
    let mut e = Engine::new();
    e.load_document("log", "<log/>").unwrap();
    e.explain_analyze("snap insert { <x/> } into { $log/log }")
        .unwrap();
    let r = e.run("count($log/log/x)").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "1");
}

/// Profiling is scoped to `explain_analyze`: a plain `run` right after
/// leaves no profile behind (zero-cost-when-off discipline).
#[test]
fn plain_runs_do_not_profile() {
    let mut e = Engine::new();
    e.explain_analyze("1 + 1").unwrap();
    assert!(e.last_run().unwrap().profile.is_some());
    e.run("2 + 2").unwrap();
    assert!(
        e.last_run().unwrap().profile.is_none(),
        "plain run must clear/skip profiling"
    );
}

/// `last_run()` describes the latest run and nothing of the ones before:
/// analyze, plain run, analyze — each report is that run's own.
#[test]
fn last_run_describes_only_the_latest_run() {
    let mut e = Engine::new();
    e.load_document("log", "<log/>").unwrap();
    let insert = "snap insert { <x/> } into { $log/log }";

    e.explain_analyze(insert).unwrap();
    let first = e.last_run().unwrap();
    assert_eq!(first.cache, "miss");
    assert_eq!(first.stats.unwrap().requests_applied, 1);
    assert!(first.profile.is_some());

    e.run("count($log/log/x)").unwrap();
    let plain = e.last_run().unwrap();
    assert_eq!(plain.cache, "miss");
    assert_eq!(plain.stats.unwrap().requests_applied, 0);
    assert!(plain.profile.is_none(), "a plain run captures no profile");
    assert_eq!(e.last_stats(), plain.stats);

    e.explain_analyze(insert).unwrap();
    let second = e.last_run().unwrap();
    assert_eq!(second.cache, "hit", "same program, planned by the first");
    assert_eq!(second.stats.unwrap().requests_applied, 1);
    let profile = second.profile.as_ref().unwrap();
    assert_eq!(
        profile.total_delta_self(),
        1,
        "the second analyze's profile is its own, not an accumulation"
    );
    assert!(second.plan.is_some());
    // A failed run is described too — its error keeps no stale profile.
    assert!(e.run("1 div 0").is_err());
    let failed = e.last_run().unwrap();
    assert!(failed.profile.is_none());
    assert_eq!(failed.stats.unwrap().requests_applied, 0);
}

/// The profile law: on a successful profiled run of a program without
/// prolog variables, everything the evaluator counted was counted while
/// the body's root node was open — so the root's inclusive strategy
/// counters (`par=`, `batch=`, `idx=`) and Δ equal the run's `EvalStats`,
/// whether or not the run fanned out.
#[test]
fn root_profile_node_accounts_for_the_whole_run() {
    let doc: String = std::iter::once("<root>".to_string())
        .chain((0..40).map(|i| format!("<b id=\"b{i}\"><e v=\"{i}\"/></b>")))
        .chain(std::iter::once("</root>".to_string()))
        .collect();
    let queries = [
        "for $b in $doc/root/b return $b/e",
        "for $e in $doc/root/b/e return number($e/@v) * 2",
        "count($doc//b[@id = \"b7\"])",
        "for $l in $doc/root/b for $r in $doc/root/b where $l/@id = $r/@id return <m/>",
    ];
    for compile in [true, false] {
        for threads in [1usize, 4] {
            for query in queries {
                let mut e = Engine::new();
                e.set_compile(compile);
                e.set_threads(threads);
                e.load_document("doc", &doc).unwrap();
                e.explain_analyze(query).unwrap();
                let run = e.last_run().unwrap();
                let stats = run.stats.unwrap();
                let root = run.profile.as_ref().unwrap().node(0).incl;
                let label = format!("compile={compile} threads={threads} {query}");
                assert_eq!(
                    (root.par_regions, root.par_items),
                    (stats.par_regions, stats.par_items),
                    "par: {label}"
                );
                assert_eq!(
                    (root.batch_steps, root.batch_nodes),
                    (stats.batch_steps, stats.batch_nodes),
                    "batch: {label}"
                );
                assert_eq!(
                    (root.idx_scans, root.idx_hits),
                    (stats.idx_scans, stats.idx_hits),
                    "idx: {label}"
                );
                assert_eq!(root.requests_emitted, stats.requests_emitted, "Δ: {label}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property-based generalization over join-shaped updating programs
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SideSpec {
    keys: Vec<Option<u8>>,
}

fn side_strategy(max: usize) -> impl Strategy<Value = SideSpec> {
    proptest::collection::vec(proptest::option::of(0u8..4), 0..max)
        .prop_map(|keys| SideSpec { keys })
}

fn side_xml(name: &str, spec: &SideSpec) -> String {
    let mut s = format!("<{name}>");
    for (i, k) in spec.keys.iter().enumerate() {
        match k {
            Some(k) => s.push_str(&format!(r#"<e n="{name}{i}" k="k{k}"/>"#)),
            None => s.push_str(&format!(r#"<e n="{name}{i}"/>"#)),
        }
    }
    s.push_str(&format!("</{name}>"));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_updating_joins_have_consistent_profiles(
        left in side_strategy(8),
        right in side_strategy(8),
    ) {
        let docs = [
            ("left".to_string(), side_xml("left", &left)),
            ("right".to_string(), side_xml("right", &right)),
            ("out".to_string(), "<out/>".to_string()),
        ];
        let query = r#"snap {
            for $l in $left/left/e
            for $r in $right/right/e
            where $l/@k = $r/@k
            return insert { <m l="{$l/@n}" r="{$r/@n}"/> } into { $out/out } }"#;

        let mut emitted = Vec::new();
        for compile in [true, false] {
            let mut e = Engine::new().with_seed(7);
            e.set_compile(compile);
            for (n, x) in &docs {
                e.load_document(n, x).unwrap();
            }
            e.explain_analyze(query).expect("analyze");
            let stats = e.last_stats().unwrap();
            let run = e.last_run().unwrap();
            let profile = run.profile.as_ref().unwrap();
            let plan = run.plan.as_ref().unwrap();
            prop_assert!(plan.verify_profile(profile).is_ok(),
                "inconsistent profile (compile={}): {:?}",
                compile, plan.verify_profile(profile));
            prop_assert_eq!(profile.total_delta_self(), stats.requests_emitted);
            prop_assert_eq!(stats.requests_emitted, stats.requests_applied);
            emitted.push(stats.requests_emitted);
        }
        prop_assert_eq!(emitted[0], emitted[1], "Δ count differs across plan modes");
    }
}

// ---------------------------------------------------------------------------
// Allocation pin for scratch-buffer reuse (PR 7 satellite)
// ---------------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation counter. Thread-local so
/// concurrently running tests in this binary cannot pollute the count.
struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    TL_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The PR 7 data-model contract: once the scratch buffers are warm, the
/// document-order sort and the batch step kernels run allocation-free.
/// This is what makes per-step `sort_and_dedup` affordable in the
/// batch-at-a-time path (DESIGN.md §14) — without reuse, every path step
/// would pay O(n) key-vector allocations.
#[test]
fn warm_scratch_sort_and_kernels_allocate_nothing() {
    use xquery_bang::xqdm::qname::QName;
    use xquery_bang::xqdm::{KernelTest, NodeId, Scratch};
    use xquery_bang::Store;

    // A two-level tree: root -> 64 sections -> 8 entries each.
    let mut store = Store::new();
    let root = store.new_element(QName::local("root"));
    let mut pool: Vec<NodeId> = Vec::new();
    for _ in 0..64 {
        let sec = store.new_element(QName::local("sec"));
        store.append_child(root, sec).unwrap();
        for j in 0..8 {
            let e = store.new_element(QName::local("entry"));
            store.append_child(sec, e).unwrap();
            if j % 2 == 0 {
                pool.push(e);
            }
        }
        pool.push(sec);
    }
    // An unsorted, duplicated workload (deterministic shuffle).
    let shuffled: Vec<NodeId> = (0..pool.len() * 2)
        .map(|i| pool[(i * 7 + 3) % pool.len()])
        .collect();

    let mut scratch = Scratch::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut out: Vec<NodeId> = Vec::new();
    let entry_test = KernelTest::name(store.symbols(), "entry");

    let run =
        |store: &Store, scratch: &mut Scratch, nodes: &mut Vec<NodeId>, out: &mut Vec<NodeId>| {
            nodes.clear();
            nodes.extend_from_slice(&shuffled);
            store.sort_and_dedup_with(nodes, scratch).unwrap();
            out.clear();
            store.batch_children_into(&[root], entry_test, out).unwrap();
            out.clear();
            store
                .batch_descendants_into(&[root], entry_test, false, scratch, out)
                .unwrap();
            store.sort_and_dedup_with(out, scratch).unwrap();
        };

    // Warm-up: grows nodes, scratch.keyed (and its per-slot key vecs),
    // the kernel output buffer, and the DFS stack to their final sizes.
    run(&store, &mut scratch, &mut nodes, &mut out);

    let before = thread_allocs();
    for _ in 0..10 {
        run(&store, &mut scratch, &mut nodes, &mut out);
    }
    let grew = thread_allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state sort/kernel pass allocated {grew} times; scratch reuse regressed"
    );
}
