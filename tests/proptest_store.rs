//! Property-based tests on the store's core invariants.
//!
//! Strategy: generate random *scripts* of store operations (build, detach,
//! move, copy, rename), execute them, and check the structural invariants
//! the paper's semantics relies on after every script:
//!
//! * parent/child links are mutually consistent;
//! * document order is a strict total order consistent with the tree;
//! * detached nodes remain alive and queryable (detach semantics);
//! * deep copies are structurally equal but disjoint in identity;
//! * reachability accounting adds up;
//! * a Δ containing a failing request leaves the store byte-identical
//!   (rollback exactness) in all three snap modes;
//! * one random script of every mutation form under random nested frames
//!   round-trips: rolled back it leaves no trace, run durably it reopens
//!   to the same store.

use proptest::prelude::*;
use xquery_bang::xqdm::item::deep_equal_nodes;
use xquery_bang::xqdm::store::InsertAnchor;
use xquery_bang::xqdm::{NodeId, QName, RedoOp, Store, SyncMode};

/// One scripted operation, with indices resolved modulo the live node set.
#[derive(Debug, Clone)]
enum Op {
    NewElement(u8),
    NewText(String),
    NewAttr {
        name: u8,
        value: u8,
    },
    AppendChild {
        parent: usize,
        child: usize,
    },
    AttachAttr {
        owner: usize,
        attr: usize,
    },
    SetAttrValue {
        node: usize,
        value: u8,
    },
    SetText {
        node: usize,
        text: u8,
    },
    Detach(usize),
    Rename {
        node: usize,
        name: u8,
    },
    DeepCopy(usize),
    MoveAfter {
        node: usize,
        anchor: usize,
    },
    /// Collect everything unreachable from the picked roots (and slot 0,
    /// so the script never runs out of live nodes).
    CollectGarbage(Vec<usize>),
    /// Reclaim the picked candidates if unreachable from the picked root.
    ReclaimUnreachable {
        candidates: Vec<usize>,
        root: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..20).prop_map(Op::NewElement),
        "[a-z]{0,6}".prop_map(Op::NewText),
        (0u8..6, 0u8..8).prop_map(|(name, value)| Op::NewAttr { name, value }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(parent, child)| Op::AppendChild { parent, child }),
        (any::<usize>(), any::<usize>()).prop_map(|(owner, attr)| Op::AttachAttr { owner, attr }),
        (any::<usize>(), 0u8..8).prop_map(|(node, value)| Op::SetAttrValue { node, value }),
        (any::<usize>(), 0u8..8).prop_map(|(node, text)| Op::SetText { node, text }),
        any::<usize>().prop_map(Op::Detach),
        (any::<usize>(), 0u8..20).prop_map(|(node, name)| Op::Rename { node, name }),
        any::<usize>().prop_map(Op::DeepCopy),
        (any::<usize>(), any::<usize>()).prop_map(|(node, anchor)| Op::MoveAfter { node, anchor }),
    ]
}

/// [`op_strategy`] plus the two collections. Scripts drawn from this
/// one retire nodes, so the pool they leave behind holds dangling ids.
fn gc_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        op_strategy(),
        proptest::collection::vec(any::<usize>(), 0..4).prop_map(Op::CollectGarbage),
        (
            proptest::collection::vec(any::<usize>(), 0..6),
            any::<usize>()
        )
            .prop_map(|(candidates, root)| Op::ReclaimUnreachable { candidates, root }),
    ]
}

/// Execute a script, ignoring operations whose preconditions fail (the
/// store must reject them gracefully, never corrupt state).
fn run_script(ops: &[Op]) -> (Store, Vec<NodeId>) {
    let mut store = Store::new();
    let mut nodes: Vec<NodeId> = vec![store.new_element(QName::local("root"))];
    for op in ops {
        run_op(&mut store, &mut nodes, op);
    }
    (store, nodes)
}

/// Execute one scripted operation against `store`, growing the pool
/// `nodes` with whatever it allocates.
fn run_op(store: &mut Store, nodes: &mut Vec<NodeId>, op: &Op) {
    {
        let pick = |i: usize| nodes[i % nodes.len()];
        match op {
            Op::NewElement(n) => nodes.push(store.new_element(QName::local(format!("e{n}")))),
            Op::NewText(t) => nodes.push(store.new_text(t.clone())),
            Op::NewAttr { name, value } => {
                nodes.push(
                    store.new_attribute(QName::local(format!("a{name}")), format!("v{value}")),
                );
            }
            Op::AppendChild { parent, child } => {
                let (p, c) = (pick(*parent), pick(*child));
                let _ = store.append_child(p, c);
            }
            Op::AttachAttr { owner, attr } => {
                let (o, a) = (pick(*owner), pick(*attr));
                let _ = store.attach_attribute(o, a);
            }
            Op::SetAttrValue { node, value } => {
                let _ = store.apply(RedoOp::SetAttrValue {
                    node: pick(*node),
                    value: format!("v{value}"),
                });
            }
            Op::SetText { node, text } => {
                let _ = store.apply(RedoOp::SetText {
                    node: pick(*node),
                    content: format!("t{text}"),
                });
            }
            Op::Detach(n) => {
                let _ = store.apply(RedoOp::Detach { node: pick(*n) });
            }
            Op::Rename { node, name } => {
                let name = store.intern_qname(&QName::local(format!("r{name}")));
                let _ = store.apply(RedoOp::Rename {
                    node: pick(*node),
                    name,
                });
            }
            Op::DeepCopy(n) => {
                if let Ok(c) = store.deep_copy(pick(*n)) {
                    nodes.push(c);
                }
            }
            Op::MoveAfter { node, anchor } => {
                let (n, a) = (pick(*node), pick(*anchor));
                if n != a && store.parent(a).ok().flatten().is_some() {
                    let parent = store.parent(a).unwrap().unwrap();
                    if store.apply(RedoOp::Detach { node: n }).is_ok() {
                        let _ = store.apply(RedoOp::Insert {
                            seq: vec![n].into(),
                            parent,
                            anchor: InsertAnchor::After(a),
                        });
                    }
                }
            }
            Op::CollectGarbage(roots) => {
                let roots: Vec<NodeId> = roots.iter().map(|&r| pick(r)).chain([nodes[0]]).collect();
                let _ = store.collect_garbage(&roots);
            }
            Op::ReclaimUnreachable { candidates, root } => {
                let candidates: Vec<NodeId> = candidates.iter().map(|&c| pick(c)).collect();
                let _ = store.reclaim_unreachable(&candidates, &[pick(*root), nodes[0]]);
            }
        }
    }
}

/// One step of a framed script: an operation, or a frame boundary.
#[derive(Debug, Clone)]
enum Step {
    Op(Op),
    Begin,
    Commit,
    Rollback,
    /// A durable commit point (`wal_commit`; nothing on a plain store).
    Sync,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..12, gc_op_strategy()).prop_map(|(pick, op)| match pick {
        0 | 1 => Step::Begin,
        2 => Step::Commit,
        3 => Step::Rollback,
        4 => Step::Sync,
        _ => Step::Op(op),
    })
}

/// Execute a framed script. Closing steps with no frame open are
/// skipped; frames still open at the end commit.
fn run_steps(store: &mut Store, nodes: &mut Vec<NodeId>, steps: &[Step]) {
    let base = store.frame_depth();
    for step in steps {
        run_step(store, nodes, step, base);
    }
    while store.frame_depth() > base {
        store.commit_frame();
    }
}

/// One step of a framed script whose frames start above depth `base`.
fn run_step(store: &mut Store, nodes: &mut Vec<NodeId>, step: &Step, base: usize) {
    match step {
        Step::Op(op) => run_op(store, nodes, op),
        Step::Begin => store.begin_frame(),
        Step::Commit if store.frame_depth() > base => store.commit_frame(),
        Step::Rollback if store.frame_depth() > base => store.rollback_frame(),
        Step::Commit | Step::Rollback => {}
        Step::Sync => {
            store.wal_commit().unwrap();
        }
    }
}

/// The alive pool nodes in document order: equal sequences on two stores
/// mean the order keys agree wherever they are observable.
fn doc_order(store: &Store, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut alive: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| store.is_alive(n))
        .collect();
    store.sort_and_dedup(&mut alive).unwrap();
    alive
}

/// A fresh directory for one durable case.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xqb_pstore_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reopen the durable store at `dir` (removing it afterwards): the log
/// must replay whole.
fn reopened_fingerprint(dir: &std::path::Path) -> u64 {
    let (store, report) = Store::open_durable(dir, SyncMode::Off).unwrap();
    assert_eq!(report.tail_dropped, 0, "report: {report:?}");
    let fp = store.fingerprint();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    fp
}

/// Every node is alive, and parent/child links agree both ways.
fn check_link_consistency(store: &Store, nodes: &[NodeId]) {
    for &n in nodes {
        assert!(store.is_alive(n));
        if let Some(p) = store.parent(n).unwrap() {
            let in_children = store.children(p).unwrap().contains(&n);
            let in_attrs = store.attributes(p).unwrap().contains(&n);
            assert!(
                in_children || in_attrs,
                "{n} has parent {p} but is not its child"
            );
        }
        for &c in store.children(n).unwrap() {
            assert_eq!(
                store.parent(c).unwrap(),
                Some(n),
                "child {c} of {n} disagrees"
            );
        }
    }
}

/// A textual fingerprint of everything observable about the tracked nodes:
/// per-root serialization outcome (including errors, so a node that fails
/// to serialize still contributes) plus reachability statistics.
fn snapshot(store: &Store, tracked: &[NodeId]) -> String {
    let mut out = String::new();
    for &n in tracked {
        if store.is_alive(n) && store.parent(n).unwrap().is_none() {
            out.push_str(&format!(
                "{n}={:?};",
                xquery_bang::xqdm::xml::serialize(store, n)
            ));
        }
    }
    out.push_str(&format!("{:?}", store.stats(tracked).unwrap()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scripts_preserve_link_consistency(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let (store, nodes) = run_script(&ops);
        check_link_consistency(&store, &nodes);
    }

    // ISSUE 10 maintenance equivalence: after ANY random mutation
    // stream (births, kills, renames, attribute moves, deep copies),
    // the incrementally-maintained index plane holds exactly the
    // entries a from-scratch rebuild would.
    #[test]
    fn index_matches_from_scratch_rebuild(ops in proptest::collection::vec(gc_op_strategy(), 0..80)) {
        let (store, _) = run_script(&ops);
        prop_assert!(store.index_verify(), "index diverged from rebuild");
    }

    // Same oracle through the Δ layer: a successfully applied random
    // delta keeps the index rebuild-equivalent in every snap mode.
    #[test]
    fn index_matches_rebuild_after_applied_deltas(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        renames in proptest::collection::vec((any::<usize>(), 0u8..12), 1..8),
        mode_pick in 0u8..3,
    ) {
        use xquery_bang::xqcore::{apply_delta, Delta, SnapMode};
        let (mut store, nodes) = run_script(&ops);
        let pick_element = |store: &Store, i: usize| -> NodeId {
            (0..nodes.len())
                .map(|k| nodes[(i + k) % nodes.len()])
                .find(|&n| store.name(n).unwrap().is_some())
                .unwrap_or(nodes[0])
        };
        let delta: Delta = renames
            .iter()
            .enumerate()
            .map(|(slot, (i, name))| RedoOp::Rename {
                node: pick_element(&store, *i),
                name: store.intern_qname(&QName::local(format!("d{name}x{slot}"))),
            })
            .collect();
        let mode = [SnapMode::Ordered, SnapMode::Nondeterministic, SnapMode::ConflictDetection]
            [mode_pick as usize];
        // Same-target renames conflict under conflict-detection; either
        // outcome must leave the index rebuild-equivalent.
        let _ = apply_delta(&mut store, delta, mode, 7);
        prop_assert!(store.index_verify(), "index diverged after Δ in {mode:?}");
    }

    // The mutation chokepoint's contract, for every op form at once: one
    // random script under random nested frames is (a) undone exactly by a
    // rollback and (b) reproduced by its redo log.
    #[test]
    fn scripts_round_trip_through_undo_and_log(
        prefix in proptest::collection::vec(gc_op_strategy(), 0..40),
        steps in proptest::collection::vec(step_strategy(), 0..80),
    ) {
        let (base, pool) = run_script(&prefix);

        // Direct application: the reference outcome.
        let mut direct = base.clone();
        let mut direct_pool = pool.clone();
        run_steps(&mut direct, &mut direct_pool, &steps);
        prop_assert!(direct.index_verify(), "index diverged on direct application");

        // (a) The whole script inside one frame, rolled back. The
        // fingerprint covers the free list; the next allocation and the
        // document order of the survivors pin what it does not.
        let mut undone = base.clone();
        undone.begin_frame();
        run_steps(&mut undone, &mut pool.clone(), &steps);
        undone.rollback_frame();
        prop_assert_eq!(undone.fingerprint(), base.fingerprint());
        prop_assert!(undone.index_verify(), "index diverged after rollback");
        prop_assert_eq!(doc_order(&undone, &pool), doc_order(&base, &pool));
        prop_assert_eq!(undone.new_text("probe"), base.clone().new_text("probe"));

        // (b) The same prefix and script on a durable store.
        let dir = temp_dir("direct");
        let (mut durable, _) = Store::open_durable(&dir, SyncMode::Off).unwrap();
        let mut durable_pool = vec![durable.new_element(QName::local("root"))];
        for op in &prefix {
            run_op(&mut durable, &mut durable_pool, op);
        }
        run_steps(&mut durable, &mut durable_pool, &steps);
        prop_assert_eq!(durable.fingerprint(), direct.fingerprint());
        drop(durable);
        prop_assert_eq!(reopened_fingerprint(&dir), direct.fingerprint());
    }

    #[test]
    fn no_cycles_ever(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let (store, nodes) = run_script(&ops);
        // Walking up from any node terminates (in at most |nodes| steps).
        for &n in &nodes {
            let mut cur = n;
            let mut steps = 0;
            while let Some(p) = store.parent(cur).unwrap() {
                cur = p;
                steps += 1;
                prop_assert!(steps <= nodes.len() + 1, "parent cycle at {n}");
            }
        }
    }

    #[test]
    fn document_order_is_total_and_consistent(
        ops in proptest::collection::vec(op_strategy(), 0..60)
    ) {
        let (store, nodes) = run_script(&ops);
        // Antisymmetry + totality over a sample of pairs.
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i..] {
                let ab = store.cmp_doc_order(a, b).unwrap();
                let ba = store.cmp_doc_order(b, a).unwrap();
                prop_assert_eq!(ab, ba.reverse());
                if a == b {
                    prop_assert_eq!(ab, std::cmp::Ordering::Equal);
                } else {
                    prop_assert_ne!(ab, std::cmp::Ordering::Equal);
                }
            }
        }
        // Consistency: a parent precedes its children.
        for &n in &nodes {
            for &c in store.children(n).unwrap() {
                prop_assert_eq!(store.cmp_doc_order(n, c).unwrap(), std::cmp::Ordering::Less);
            }
        }
    }

    #[test]
    fn sort_and_dedup_is_idempotent_and_ordered(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        picks in proptest::collection::vec(any::<usize>(), 0..30)
    ) {
        let (store, nodes) = run_script(&ops);
        let mut v: Vec<NodeId> = picks.iter().map(|&i| nodes[i % nodes.len()]).collect();
        store.sort_and_dedup(&mut v).unwrap();
        // Sorted strictly ascending => no duplicates.
        for w in v.windows(2) {
            prop_assert_eq!(
                store.cmp_doc_order(w[0], w[1]).unwrap(),
                std::cmp::Ordering::Less
            );
        }
        // Idempotent.
        let mut again = v.clone();
        store.sort_and_dedup(&mut again).unwrap();
        prop_assert_eq!(v, again);
    }

    #[test]
    fn deep_copy_is_equal_but_disjoint(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        pick in any::<usize>()
    ) {
        let (mut store, nodes) = run_script(&ops);
        let src = nodes[pick % nodes.len()];
        let copy = store.deep_copy(src).unwrap();
        prop_assert!(deep_equal_nodes(src, copy, &store).unwrap());
        prop_assert!(store.parent(copy).unwrap().is_none());
        // Identity-disjoint: no copied descendant equals a source node id.
        let src_set: std::collections::HashSet<_> =
            store.descendants(src).unwrap().into_iter().chain([src]).collect();
        for d in store.descendants(copy).unwrap().into_iter().chain([copy]) {
            prop_assert!(!src_set.contains(&d));
        }
    }

    #[test]
    fn reachability_accounting_adds_up(
        ops in proptest::collection::vec(op_strategy(), 0..60)
    ) {
        let (store, nodes) = run_script(&ops);
        let stats = store.stats(&nodes[..1]).unwrap();
        prop_assert_eq!(stats.reachable + stats.garbage, stats.alive);
        // Rooting everything makes garbage vanish.
        let all = store.stats(&nodes).unwrap();
        prop_assert_eq!(all.garbage, 0);
    }

    #[test]
    fn detached_nodes_stay_queryable(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        pick in any::<usize>()
    ) {
        let (mut store, nodes) = run_script(&ops);
        let n = nodes[pick % nodes.len()];
        let before = store.string_value(n).unwrap();
        store.apply(RedoOp::Detach { node: n }).unwrap();
        // Paper §3.1: detach does not erase.
        prop_assert!(store.is_alive(n));
        prop_assert_eq!(store.string_value(n).unwrap(), before);
        prop_assert_eq!(store.parent(n).unwrap(), None);
    }

    #[test]
    fn failed_delta_rolls_back_exactly(
        ops in proptest::collection::vec(op_strategy(), 0..50),
        req_specs in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..10),
        poison_slot in any::<usize>()
    ) {
        use xquery_bang::xqcore::{apply_delta, Delta, SnapMode};
        let (mut store, nodes) = run_script(&ops);

        // An element pick: scan forward from the index until a named
        // (element) node turns up — the root at index 0 guarantees one.
        let pick_element = |store: &Store, i: usize| -> NodeId {
            (0..nodes.len())
                .map(|k| nodes[(i + k) % nodes.len()])
                .find(|&n| store.name(n).unwrap().is_some())
                .unwrap_or(nodes[0])
        };

        // Valid requests (renames, appends of fresh elements) with one
        // guaranteed-failing poison — an insert into a text node — spliced
        // in at a random position.
        let mut requests: Delta = Vec::new();
        for (slot, (i, kind)) in req_specs.iter().enumerate() {
            if kind % 2 == 0 {
                requests.push(RedoOp::Rename {
                    node: pick_element(&store, *i),
                    name: store.intern_qname(&QName::local(format!("q{slot}"))),
                });
            } else {
                let fresh = store.new_element(QName::local(format!("f{slot}")));
                requests.push(RedoOp::Insert {
                    seq: vec![fresh].into(),
                    parent: pick_element(&store, *i),
                    anchor: InsertAnchor::Last,
                });
            }
        }
        let poison_parent = store.new_text("poison");
        let poison_child = store.new_element(QName::local("p"));
        requests.insert(poison_slot % (requests.len() + 1), RedoOp::Insert {
            seq: vec![poison_child].into(),
            parent: poison_parent,
            anchor: InsertAnchor::Last,
        });

        // Track every node we know about, including the Δ payloads
        // allocated above: they are pre-state, so rollback preserves them.
        let mut tracked = nodes.clone();
        for req in &requests {
            if let RedoOp::Insert { seq: payload, parent, .. } = req {
                tracked.extend(payload.iter().copied());
                tracked.push(*parent);
            }
        }
        tracked.sort();
        tracked.dedup();

        let before = snapshot(&store, &tracked);
        for (mode, seed) in [
            (SnapMode::Ordered, 0u64),
            (SnapMode::Nondeterministic, poison_slot as u64),
            (SnapMode::ConflictDetection, 0u64),
        ] {
            let delta = requests.clone();
            // The poison always fails its precondition (XQB0002); in
            // conflict-detection mode verification may reject first
            // (XQB0010). Either way the store must come back untouched.
            let err = apply_delta(&mut store, delta, mode, seed).unwrap_err();
            prop_assert!(
                err.code == "XQB0002" || err.code == "XQB0010",
                "unexpected error {:?} in mode {:?}", err, mode
            );
            prop_assert_eq!(&snapshot(&store, &tracked), &before, "mode {:?} not atomic", mode);
            // ISSUE 10: the undo journal rolled the index plane back too.
            prop_assert!(store.index_verify(), "index diverged after rollback in {:?}", mode);
        }

        // Rollback left no orphan allocations: rooting everything we ever
        // created, garbage collection reclaims nothing and kills nothing.
        let collected = store.collect_garbage(&tracked).unwrap();
        prop_assert_eq!(collected, 0);
        for &n in &tracked {
            prop_assert!(store.is_alive(n));
        }
    }

    #[test]
    fn serialization_round_trips(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let (store, nodes) = run_script(&ops);
        // Serialize each root and re-parse: string values must survive.
        for &n in &nodes {
            if store.parent(n).unwrap().is_none() {
                if let Ok(xml) = xquery_bang::xqdm::xml::serialize(&store, n) {
                    if xml.starts_with('<') && !xml.is_empty() {
                        let mut s2 = Store::new();
                        if let Ok(frag) = xquery_bang::xqdm::xml::parse_fragment(&mut s2, &xml) {
                            let sv: String = frag
                                .iter()
                                .map(|&f| s2.string_value(f).unwrap())
                                .collect();
                            prop_assert_eq!(sv, store.string_value(n).unwrap());
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot isolation under generated schedules
// ---------------------------------------------------------------------------

/// The operations of [`op_strategy`] that only grow the store.
fn grow_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..20).prop_map(Op::NewElement),
        "[a-z]{0,6}".prop_map(Op::NewText),
        (0u8..6, 0u8..8).prop_map(|(name, value)| Op::NewAttr { name, value }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(parent, child)| Op::AppendChild { parent, child }),
    ]
}

/// Every retained snapshot still shows the store it was taken from, and
/// its index plane is still what a rebuild would give.
fn check_snapshots(retained: &[(Store, u64)]) {
    for (k, (snap, fingerprint)) in retained.iter().enumerate() {
        assert_eq!(snap.fingerprint(), *fingerprint, "snapshot {k} drifted");
        assert!(snap.index_verify(), "snapshot {k}: index diverged");
    }
}

/// Snapshot isolation under generated schedules. Each case grows a store
/// past a page of slots, then interleaves random operations, snapshots,
/// releases and rolled-back growth bursts. The writer's appends and pops
/// cross leaf boundaries and its writes land in leaves and pages that
/// snapshots share. A reference store runs the same operations and never
/// takes a snapshot.
#[test]
fn snapshots_stay_isolated_under_generated_schedules() {
    let (grow, ops) = (grow_strategy(), op_strategy());
    for case in 0..5 {
        // Pinned: the shim's generator keyed on this name and the case.
        let mut rng = TestRng::for_case("snapshots_stay_isolated", case);
        // The writer, then the reference; each with its node pool.
        let mut stores: [(Store, Vec<NodeId>); 2] = std::array::from_fn(|_| {
            let mut store = Store::new();
            let root = store.new_element(QName::local("root"));
            (store, vec![root])
        });
        let apply = |stores: &mut [(Store, Vec<NodeId>); 2], op: &Op| {
            for (store, pool) in stores.iter_mut() {
                run_op(store, pool, op);
            }
        };
        // A prefix that stops short of, on or past the first page end.
        for _ in 0..1_200 + rng.below(250) {
            apply(&mut stores, &grow.generate(&mut rng));
        }
        let mut retained: Vec<(Store, u64)> = Vec::new();
        for _ in 0..500 {
            match rng.below(40) {
                0..=2 => {
                    let writer = &stores[0].0;
                    retained.push((writer.snapshot(), writer.fingerprint()));
                }
                3 if !retained.is_empty() => {
                    check_snapshots(&retained);
                    retained.swap_remove(rng.below(retained.len()));
                }
                4 => {
                    // Growth undone in the same breath: pops that empty
                    // the tail take leaves back out of their pages.
                    let burst: Vec<Op> = (0..1 + rng.below(90))
                        .map(|_| grow.generate(&mut rng))
                        .collect();
                    for (store, pool) in stores.iter_mut() {
                        store.begin_frame();
                        let mut burst_pool = pool.clone();
                        for op in &burst {
                            run_op(store, &mut burst_pool, op);
                        }
                        store.rollback_frame();
                    }
                }
                _ => apply(&mut stores, &ops.generate(&mut rng)),
            }
        }
        check_snapshots(&retained);
        let [(writer, pool), (reference, reference_pool)] = &stores;
        assert_eq!(pool, reference_pool, "case {case}: allocation diverged");
        assert_eq!(
            writer.fingerprint(),
            reference.fingerprint(),
            "case {case}: snapshots changed what the writer computed"
        );
        assert!(writer.index_verify(), "case {case}: writer index diverged");
        assert!(writer.page_count() >= 2, "case {case}: stayed in one page");
    }
}

// ---------------------------------------------------------------------------
// Order segments: the id fast paths agree with the gap keys
// ---------------------------------------------------------------------------

/// A small document of random shape: nested elements with attributes,
/// text and comments.
fn xml_of(shape: &[u8]) -> String {
    let mut out = String::from("<d>");
    let mut open: Vec<u8> = Vec::new();
    for &b in shape {
        match b % 6 {
            0 | 1 => {
                out.push_str(&format!("<e{} a{}=\"v{}\">", b % 4, b % 3, b % 5));
                open.push(b % 4);
            }
            2 => {
                if let Some(e) = open.pop() {
                    out.push_str(&format!("</e{e}>"));
                }
            }
            3 => out.push_str(&format!("<f x=\"{b}\" y=\"1\"/>")),
            4 => out.push_str(&format!("t{b}")),
            _ => out.push_str("<!--c-->"),
        }
    }
    while let Some(e) = open.pop() {
        out.push_str(&format!("</e{e}>"));
    }
    out.push_str("</d>");
    out
}

/// Parse a document of `shape` and add every node of it to the pool.
fn parse_into(store: &mut Store, pool: &mut Vec<NodeId>, shape: &[u8]) -> NodeId {
    let doc = xquery_bang::xqdm::xml::parse_document(store, &xml_of(shape)).unwrap();
    pool.extend(tree_of(store, doc));
    doc
}

/// `root` and every node under it, attributes included. Only links both
/// ways count, as in the store's own segment walk.
fn tree_of(store: &Store, root: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        out.push(n);
        let linked = |c: &&NodeId| store.is_alive(**c) && store.parent(**c).unwrap() == Some(n);
        stack.extend(store.children(n).unwrap().iter().filter(linked));
        stack.extend(store.attributes(n).unwrap().iter().filter(linked));
    }
    out
}

/// Every alive node of the trees the pool's alive nodes sit in.
fn alive_nodes(store: &Store, pool: &[NodeId]) -> Vec<NodeId> {
    let mut seen = std::collections::BTreeSet::new();
    for &n in pool {
        if store.is_alive(n) {
            seen.extend(tree_of(store, store.root(n).unwrap()));
        }
    }
    seen.into_iter().collect()
}

/// Is `o` the node `n` or an ancestor of it by parent links (an
/// attribute's owner counts)?
fn walk_contains(store: &Store, o: NodeId, n: NodeId) -> bool {
    let mut at = Some(n);
    while let Some(x) = at {
        if x == o {
            return true;
        }
        at = store.parent(x).unwrap();
    }
    false
}

/// `input` in document order by the scan comparison, duplicates dropped.
fn key_sort(store: &Store, input: &[NodeId]) -> Vec<NodeId> {
    let mut v = input.to_vec();
    v.sort_by(|&x, &y| store.cmp_doc_order_scan(x, y).unwrap());
    v.dedup();
    v
}

/// The segment law over every pair of alive nodes: the id comparison
/// equals the scan, segment containment implies the parent walk, and the
/// sort equals the key sort — on the whole set, reversed, on picks with
/// repeats, and on picks from one segment (the id path).
fn check_segment_law(store: &Store, pool: &[NodeId], picks: &[usize]) {
    let alive = alive_nodes(store, pool);
    for &a in &alive {
        let seg = store.segment_rooted_at(a);
        for &b in &alive {
            assert_eq!(
                store.cmp_doc_order(a, b).unwrap(),
                store.cmp_doc_order_scan(a, b).unwrap(),
                "cmp_doc_order({a}, {b})"
            );
            let walk = walk_contains(store, a, b);
            let fast = seg.is_some_and(|s| s.contains(b)) || walk;
            assert_eq!(fast, walk, "segment at {a} claims {b}");
        }
    }
    let picked: Vec<NodeId> = picks.iter().map(|&i| alive[i % alive.len()]).collect();
    let first_seg = store
        .segment_rooted_at(store.root(picked[0]).unwrap())
        .filter(|s| s.contains(picked[0]));
    let in_one: Vec<NodeId> = picked
        .iter()
        .copied()
        .filter(|&n| first_seg.is_some_and(|s| s.contains(n)))
        .collect();
    let reversed: Vec<NodeId> = alive.iter().rev().copied().collect();
    for input in [&alive, &reversed, &picked, &in_one] {
        let mut sorted = input.clone();
        store.sort_and_dedup(&mut sorted).unwrap();
        assert_eq!(sorted, key_sort(store, input), "sort_and_dedup({input:?})");
    }
}

/// One step of a segment script.
#[derive(Debug, Clone)]
enum SegStep {
    Step(Step),
    /// Parse another document (inside a frame, a rollback may undo it).
    Parse(Vec<u8>),
    /// Reopen the store from disk: from a fresh checkpoint when it has no
    /// log yet, by replaying its log when it has one.
    Reload,
}

fn seg_step_strategy() -> impl Strategy<Value = SegStep> {
    (
        0u8..24,
        step_strategy(),
        proptest::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|(pick, step, shape)| match pick {
            0 | 1 => SegStep::Parse(shape),
            2 => SegStep::Reload,
            _ => SegStep::Step(step),
        })
}

/// Reopen `store` (between frames) from disk under `dir`.
fn reload(store: &mut Store, dir: &std::path::Path) {
    if !store.has_wal() {
        store.save_durable(dir, SyncMode::Off).unwrap();
    }
    drop(std::mem::take(store));
    let (reopened, report) = Store::open_durable(dir, SyncMode::Off).unwrap();
    assert_eq!(report.tail_dropped, 0, "report: {report:?}");
    *store = reopened;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Scripts that start from a parsed document and insert, delete,
    // replace, rename, roll back, collect garbage (the next allocations
    // reuse its slots), parse more documents and reload: after each, the
    // segment fast paths agree with the gap keys and the parent walk.
    #[test]
    fn order_segments_agree_with_gap_keys(
        shape in proptest::collection::vec(any::<u8>(), 0..24),
        steps in proptest::collection::vec(seg_step_strategy(), 0..40),
        picks in proptest::collection::vec(any::<usize>(), 1..24),
    ) {
        let dir = temp_dir("segments");
        let mut store = Store::new();
        let mut pool = Vec::new();
        parse_into(&mut store, &mut pool, &shape);
        prop_assert_eq!(store.clean_segment_count(), 1);
        let base = store.frame_depth();
        for step in &steps {
            match step {
                SegStep::Step(step) => run_step(&mut store, &mut pool, step, base),
                SegStep::Parse(shape) => {
                    parse_into(&mut store, &mut pool, shape);
                }
                SegStep::Reload if store.frame_depth() == base => reload(&mut store, &dir),
                SegStep::Reload => {}
            }
        }
        while store.frame_depth() > base {
            store.commit_frame();
        }
        check_segment_law(&store, &pool, &picks);
        reload(&mut store, &dir);
        check_segment_law(&store, &pool, &picks);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A detach inside a segment drops it; linking a foreign node under one of
/// its nodes, detaching that node again, renames and value writes do not.
#[test]
fn a_detach_inside_a_segment_drops_it() {
    let mut store = Store::new();
    let mut pool = Vec::new();
    let doc = parse_into(&mut store, &mut pool, &[0, 3, 4, 2, 1, 4]);
    assert_eq!(store.clean_segment_count(), 1);
    let seg = store
        .segment_rooted_at(doc)
        .expect("a parsed document is one segment");
    assert!(pool.iter().all(|&n| seg.contains(n)));
    let d = store.children(doc).unwrap()[0];
    let foreign = store.new_element(QName::local("x"));
    store.append_child(d, foreign).unwrap();
    let f = store.children(d).unwrap()[1];
    let name = store.intern_qname(&QName::local("g"));
    store.apply(RedoOp::Rename { node: f, name }).unwrap();
    let attr = store.attributes(f).unwrap()[0];
    store
        .apply(RedoOp::SetAttrValue {
            node: attr,
            value: "w".into(),
        })
        .unwrap();
    store.apply(RedoOp::Detach { node: foreign }).unwrap();
    pool.push(foreign);
    assert_eq!(store.clean_segment_count(), 1, "no segment node moved");
    check_segment_law(&store, &pool, &[0, 3, 5, 7]);
    store.apply(RedoOp::Detach { node: f }).unwrap();
    assert_eq!(store.clean_segment_count(), 0, "a detach inside it");
    check_segment_law(&store, &pool, &[0, 3, 5, 7]);
}

/// A parse that a rollback undoes leaves no segment behind; the one
/// before it stays.
#[test]
fn a_rolled_back_parse_drops_its_segment() {
    let mut store = Store::new();
    let mut pool = Vec::new();
    parse_into(&mut store, &mut pool, &[0, 0, 4, 2, 3]);
    store.begin_frame();
    let mut undone = pool.clone();
    parse_into(&mut store, &mut undone, &[1, 4, 5]);
    assert_eq!(store.clean_segment_count(), 2);
    store.rollback_frame();
    assert_eq!(store.clean_segment_count(), 1, "the rolled-back parse's");
    // The next parse takes the same ids again, in a different shape.
    parse_into(&mut store, &mut pool, &[3, 3, 0, 4, 2]);
    assert_eq!(store.clean_segment_count(), 2);
    check_segment_law(&store, &pool, &[1, 2, 3, 4, 5, 6]);
}

/// Collecting a segment's nodes drops it, and a document parsed into the
/// reused slots is verified afresh.
#[test]
fn a_reused_slot_drops_its_segment() {
    let mut store = Store::new();
    let mut pool = Vec::new();
    let kept = parse_into(&mut store, &mut pool, &[0, 4, 2, 3]);
    parse_into(&mut store, &mut pool, &[1, 1, 4, 2, 2, 5]);
    assert_eq!(store.clean_segment_count(), 2);
    assert!(store.collect_garbage(&[kept]).unwrap() > 0);
    assert_eq!(store.clean_segment_count(), 1, "the collected document's");
    pool.retain(|&n| store.is_alive(n));
    // Off the free list, last in first out: the ids descend.
    parse_into(&mut store, &mut pool, &[0, 3, 4]);
    check_segment_law(&store, &pool, &[0, 2, 4, 6, 8]);
}

/// A checkpoint load and a log replay derive the segments again; a
/// segment a detach dropped comes back as the run its walk still finds.
#[test]
fn a_checkpoint_reload_derives_segments_again() {
    let dir = temp_dir("reload");
    let mut store = Store::new();
    let mut pool = Vec::new();
    let doc = parse_into(&mut store, &mut pool, &[0, 3, 4, 2, 1, 4]);
    reload(&mut store, &dir); // from the checkpoint
    assert_eq!(store.clean_segment_count(), 1);
    let second = parse_into(&mut store, &mut pool, &[0, 5, 2]);
    assert_eq!(store.clean_segment_count(), 2);
    reload(&mut store, &dir); // the second document from the log
    assert_eq!(store.clean_segment_count(), 2);
    let d = store.children(doc).unwrap()[0];
    let last = *store.children(d).unwrap().last().unwrap();
    store.apply(RedoOp::Detach { node: last }).unwrap();
    assert_eq!(store.clean_segment_count(), 1);
    reload(&mut store, &dir);
    assert_eq!(
        store.clean_segment_count(),
        3,
        "both documents and the detached subtree"
    );
    assert!(store.segment_rooted_at(doc).is_some());
    assert!(store.segment_rooted_at(second).is_some());
    check_segment_law(&store, &pool, &[0, 1, 2, 3, 4, 5, 6]);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reclaim_unreachable` keeps a candidate whose parent survives — a
/// node that is no candidate, or a candidate holding a survivor — and
/// everything under it: collected, its id would stay in the parent's
/// child list, and a walk of the parent would meet a dangling id.
#[test]
fn reclaim_keeps_a_candidate_under_a_survivor() {
    let mut store = Store::new();
    let root = store.new_element(QName::local("root"));
    let element = |store: &mut Store, name: &str| store.new_element(QName::local(name));
    // `kept` is no candidate; `holder` is one, but holds `kept`.
    let (holder, kept, doomed) = (
        element(&mut store, "h"),
        element(&mut store, "k"),
        element(&mut store, "d"),
    );
    store.append_child(holder, kept).unwrap();
    store.append_child(holder, doomed).unwrap();
    let below = element(&mut store, "b");
    store.append_child(doomed, below).unwrap();
    // A parentless candidate tree goes whole.
    let (garbage, leaf) = (element(&mut store, "g"), element(&mut store, "l"));
    store.append_child(garbage, leaf).unwrap();
    let candidates = [holder, doomed, below, garbage, leaf];
    let reclaimed = store.reclaim_unreachable(&candidates, &[root]).unwrap();
    let mut walked = 0;
    let mut stack = vec![holder];
    while let Some(n) = stack.pop() {
        stack.extend(store.children(n).unwrap_or_else(|e| panic!("{e}")).iter());
        walked += 1;
    }
    assert_eq!((walked, reclaimed), (4, 2));
    assert!(store.is_alive(below));
    assert!(!store.is_alive(garbage) && !store.is_alive(leaf));
    // A new node takes a freed slot: nothing lists it.
    let fresh = element(&mut store, "f");
    assert!(!store.children(holder).unwrap().contains(&fresh));
    assert_eq!(store.parent(fresh).unwrap(), None);
}
