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
//!    the evaluation strategy: identical compiled and interpreted.
//!
//! A proptest section generalizes 1–4 over randomly generated join-shaped
//! updating programs.

use proptest::prelude::*;
use xquery_bang::xqalg::{Op, QueryPlan};
use xquery_bang::xqcore::{NodeStats, Profile};
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
        // Built-in calls over batched paths: each argument runs once per
        // call, and a call's input rows are its arguments' output rows.
        (
            vec![("people", PEOPLE)],
            "for $p in $people/ps/p
             return concat(string($p/@id), \":\", count($p/w))",
        ),
        (
            vec![("people", PEOPLE)],
            "sum(for $p in $people//p[w or @id = \"b\"] return count($p/w))",
        ),
    ]
}

/// The document the built-in call rows read.
const PEOPLE: &str = r#"<ps><p id="a"><w/><w/></p><p id="b"/><p id="c"><w/></p></ps>"#;

fn engine_with(docs: &[(&str, &str)], compile: bool) -> Engine {
    let mut e = Engine::new().with_seed(0x0b5);
    e.set_compile(compile);
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
        let compiled = analyze_and_check(&mut engine_with(&docs, true), query, "compiled");
        let interpreted = analyze_and_check(&mut engine_with(&docs, false), query, "interpreted");
        // 4. Semantic counter agreement across plan modes.
        assert_eq!(compiled, interpreted, "requests_emitted differ for {query}");
    }
}

/// The call rows above are not vacuous: compiled, each argument is a
/// profiled node of its own, run once per call.
#[test]
fn call_arguments_run_once_per_call() {
    let q = "for $p in $people/ps/p return concat(string($p/@id), \":\", count($p/w))";
    let mut e = engine_with(&[("people", PEOPLE)], true);
    analyze_and_check(&mut e, q, "compiled");
    let text = e.explain_analyze(q).unwrap();
    assert!(text.contains("Call concat( (calls=3 "), "{text}");
    assert!(text.contains("Call count( (calls=3 "), "{text}");
    assert!(text.contains("Iterate[Pure] { \":\" } (calls=3 "), "{text}");
}

/// A plan whose compiled body holds a rule node of every operator: a
/// `Let` (its variable read twice, so let-inlining keeps it), a `Snap`, a
/// `For`, an `If`, a `Seq` and two `Call`s, every one of them executed.
const EVERY_RULE: &str = "let $ps := $people/ps/p
return snap {
  for $p in $ps
  return if ($p/w) then (count($p/w), string($p/@id)) else count($ps)
}";

/// Every rule node of `plan` (whose id is `base`), pre-order, with its id.
fn rule_nodes(plan: &QueryPlan, base: usize, out: &mut Vec<(usize, QueryPlan)>) {
    if let QueryPlan::Rule(..) = plan {
        out.push((base, plan.clone()));
    }
    for (p, id) in plan.operands(base) {
        rule_nodes(p, id, out);
    }
}

/// `verify_profile` is not vacuous: for every rule node of a real
/// analyzed run, bumping one counter that one of the node's laws relates
/// is rejected, and the rejection names that node. The laws: each
/// operand's calls are tied to the node's (a `Seq` member, a call
/// argument, a `let` value and body, a `for` source or `if` condition run
/// once per call, a `for` body once per source row, an `if`'s branches
/// once per call between them, a `snap` body once per call); a node's
/// input rows are its operands' output (`Let`, `For`, `If`: the first
/// operand's; `Call`: all of them); its output rows are its operands'
/// (`Seq`: all of them; `Let`, `For`, `Snap`: the body's; `If`: the
/// branches').
#[test]
fn verify_profile_rejects_each_broken_law() {
    let mut e = engine_with(&[("people", PEOPLE)], true);
    analyze_and_check(&mut e, EVERY_RULE, "compiled");
    let run = e.last_run().unwrap();
    let profile = run.profile.as_ref().unwrap();
    let mut nodes = Vec::new();
    rule_nodes(run.plan.as_ref().unwrap().body_plan(), 0, &mut nodes);
    let mut ops: Vec<&str> = nodes
        .iter()
        .map(|(_, p)| match p {
            QueryPlan::Rule(op, _) => op.name(),
            _ => unreachable!(),
        })
        .collect();
    ops.sort_unstable();
    ops.dedup();
    assert_eq!(ops, ["Call", "For", "If", "Let", "Seq", "Snap"]);

    let mut rejected = 0;
    for (id, node) in &nodes {
        let QueryPlan::Rule(op, _) = node else {
            unreachable!()
        };
        assert!(profile.node(*id).calls > 0, "node {id} never ran");
        assert_eq!(node.verify_profile(profile, *id), Ok(()));
        let mut tampers: Vec<(String, Profile)> = Vec::new();
        let mut bumped = |what: String, at: usize, field: fn(&mut NodeStats) -> &mut u64| {
            let mut t = profile.clone();
            *field(t.node_mut(at)) += 1;
            tampers.push((what, t));
        };
        for (_, operand) in node.operands(*id) {
            bumped(format!("operand {operand} calls"), operand, |n| {
                &mut n.calls
            });
        }
        if !matches!(op, Op::Seq | Op::Snap(_)) {
            bumped("input rows".into(), *id, |n| &mut n.input_rows);
        }
        if !matches!(op, Op::Call(_)) {
            bumped("output rows".into(), *id, |n| &mut n.output_rows);
        }
        for (what, tampered) in tampers {
            let err = node.verify_profile(&tampered, *id).expect_err(&format!(
                "node {id} ({}) with one more {what} was accepted",
                op.name()
            ));
            assert!(
                err.starts_with(&format!("node {id} ({})", op.name())),
                "{what}: {err}"
            );
            rejected += 1;
        }
    }
    // Seq 3, Call 2 + 2, Let 4, For 4, If 5, Snap 2.
    assert_eq!(rejected, 22);
    // The whole program's check sees the same breakage.
    let mut t = profile.clone();
    t.node_mut(nodes[0].0).output_rows += 1;
    assert!(run.plan.as_ref().unwrap().verify_profile(&t).is_err());
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
/// counters (`batch=`, `idx=`) and Δ equal the run's `EvalStats`. The
/// compiled loop over a batched body really counts kernel work.
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
        for query in queries {
            let mut e = Engine::new();
            e.set_compile(compile);
            e.load_document("doc", &doc).unwrap();
            e.explain_analyze(query).unwrap();
            let run = e.last_run().unwrap();
            let stats = run.stats.unwrap();
            let root = run.profile.as_ref().unwrap().node(0).incl;
            let label = format!("compile={compile} {query}");
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
            if compile && query == queries[0] {
                assert!(
                    stats.batch_steps + stats.idx_scans > 0,
                    "expected a batched/indexed spine: {label} {stats:?}"
                );
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

/// System allocator with per-thread counters of allocations and of the
/// bytes they request (a reallocation counts once, with its new size).
/// Thread-local so concurrently running tests in this binary cannot
/// pollute the count.
struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    TL_ALLOCS.with(|c| c.get())
}

fn thread_bytes() -> u64 {
    TL_BYTES.with(|c| c.get())
}

fn note_alloc(bytes: usize) {
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
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
                .batch_descendants_into(&[root], entry_test, false, usize::MAX, scratch, out)
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

/// Inside one order segment the document-order sort compares ids
/// (DESIGN.md §14): a parsed document's nodes, shuffled and repeated, sort
/// with no allocation at all, warm-up or not. Forking a store allocates
/// no more with its segment than without one: the fork shares the list.
#[test]
fn segment_sort_and_fork_allocate_nothing() {
    use xquery_bang::xqdm::{xml, NodeId, RedoOp, Scratch};
    use xquery_bang::Store;

    let text = format!(
        "<root>{}</root>",
        format!("<sec>{}</sec>", "<entry/>".repeat(8)).repeat(64)
    );
    let parsed = |text: &str| {
        let mut store = Store::new();
        let doc = xml::parse_document(&mut store, text).unwrap();
        (store, doc)
    };
    let (store, doc) = parsed(&text);
    assert_eq!(store.clean_segment_count(), 1);
    let pool = store.descendants(doc).unwrap();
    let shuffled: Vec<NodeId> = (0..pool.len() * 2)
        .map(|i| pool[(i * 7 + 3) % pool.len()])
        .collect();
    let mut scratch = Scratch::new();
    let mut nodes: Vec<NodeId> = Vec::with_capacity(shuffled.len());
    let before = thread_allocs();
    for _ in 0..10 {
        nodes.clear();
        nodes.extend_from_slice(&shuffled);
        store.sort_and_dedup_with(&mut nodes, &mut scratch).unwrap();
    }
    let grew = thread_allocs() - before;
    assert_eq!(grew, 0, "the id sort allocated {grew} times");
    assert_eq!(nodes, pool);

    // The same store with its segment dropped: a detach rolled back
    // restores every slot but not the segment.
    let (mut plain, _) = parsed(&text);
    plain.begin_frame();
    let leaf = *pool.last().unwrap();
    plain.apply(RedoOp::Detach { node: leaf }).unwrap();
    plain.rollback_frame();
    assert_eq!(plain.clean_segment_count(), 0);
    assert_eq!(plain.fingerprint(), store.fingerprint());
    let fork_allocs = |s: &Store| {
        let before = thread_allocs();
        let fork = s.snapshot();
        let made = thread_allocs() - before;
        drop(fork);
        made
    };
    assert_eq!(fork_allocs(&store), fork_allocs(&plain));
}

/// Run `f` on a deep-stack thread, where parsing and evaluation run inline
/// (`xqsyn::stack`): the thread-local counters then see every allocation
/// an engine run makes.
fn on_deep_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    xquery_bang::xqsyn::stack::spawn_deep("pin", f)
        .expect("spawn a deep-stack thread")
        .join()
        .expect("pinned run panicked")
}

/// `//T[p]` under a call is one descendant walk that keeps only its
/// matches: interpreted, `count($d//entry[v > 3])` makes the same number of
/// allocations whether the document beside the entries holds 1 k or 16 k
/// filler nodes. Materializing every descendant and sorting them with one
/// order-key vector per node made the count grow with the filler.
#[test]
fn descendant_step_allocations_do_not_follow_the_document_size() {
    let allocs = |filler: usize, entries: usize| {
        let entries_xml: String = (0..entries)
            .map(|i| format!("<entry><v>{i}</v></entry>"))
            .collect();
        let doc = format!(
            "<d><pad>{}</pad><list>{entries_xml}</list></d>",
            "<f/>".repeat(filler)
        );
        on_deep_thread(move || {
            let mut e = Engine::new();
            e.set_compile(false);
            e.load_document("d", &doc).unwrap();
            let before = thread_allocs();
            let v = e.run("count($d//entry[v > 3])").unwrap();
            let made = thread_allocs() - before;
            assert_eq!(e.serialize(&v).unwrap(), (entries - 4).to_string());
            made
        })
    };
    let small = allocs(1_000, 8);
    let large = allocs(16_000, 8);
    assert_eq!(
        small, large,
        "allocations grew with non-matching filler: {small} at 1 k, {large} at 16 k"
    );
    // Non-vacuity: the counter sees the evaluation — more matches, more
    // allocations.
    assert!(allocs(1_000, 16) > small);
}

/// Built-in calls take their arguments by move: `count($big)` allocates no
/// copy of `$big` beyond the one reading the variable makes, compiled and
/// interpreted.
#[test]
fn builtin_calls_do_not_copy_their_arguments() {
    use xquery_bang::Item;
    const N: i64 = 50_000;
    for compile in [false, true] {
        let (read, counted) = on_deep_thread(move || {
            let mut e = Engine::new();
            e.set_compile(compile);
            e.bind("big", (0..N).map(Item::integer).collect());
            let mut bytes = |query: &str| {
                // Warm: a compiled run plans once, on its first call.
                e.run(query).unwrap();
                let before = thread_bytes();
                let value = e.run(query).unwrap();
                let made = thread_bytes() - before;
                drop(value);
                made
            };
            (bytes("$big"), bytes("count($big)"))
        });
        assert!(
            read >= N as u64 * 16,
            "reading $big copied only {read} bytes (compile={compile})"
        );
        assert!(
            counted < read + N as u64,
            "count($big) allocated {counted} bytes against {read} for reading $big \
             alone (compile={compile}): the call copied its argument"
        );
    }
}
