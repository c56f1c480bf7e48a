//! Shared fixtures for the XQuery! benchmark harness.
//!
//! One Criterion bench per experiment in DESIGN.md §6 lives under
//! `benches/`; this library holds the workload builders they share, so a
//! bench file reads like the experiment protocol it implements.

use xmarkgen::{Scale, XmarkGen};
use xqcore::Delta;
use xqdm::item::{Item, Sequence};
use xqdm::store::InsertAnchor;
use xqdm::{NodeId, QName, RedoOp, Store, XdmResult};

/// The §4.3 XMark Q8 variant, verbatim from the paper (modulo `$purchasers`
/// pointing at an element we create).
pub const Q8_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                     itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;

/// The Q8 variant stripped of its updates: the same join/group shape,
/// but the per-person work is pure (no constructors, no pending
/// updates). `$a` is used twice so the simplifier cannot inline the
/// `let` away — the outer-join/group-by shape survives to plan
/// recognition. Workload for experiments E12 and E13.
pub const Q8_PURE_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return $t
return concat(string($p/name), ":", string(count($a)), ":",
              string(count($a/itemref)))"#;

/// The same query with `snap insert` in the inner branch — the §4.3
/// variation that must suppress the join rewrite (experiment E8).
pub const Q8_SNAP_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (snap insert { <buyer person="{$t/buyer/@person}"
                          itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;

/// Build an XMark store plus a fresh `purchasers` element; returns
/// `(store, bindings)` ready for `xqcore::alg::run_naive`/[`run_planned`].
pub fn xmark_fixture(seed: u64, scale: &Scale) -> (Store, Vec<(String, Sequence)>) {
    let mut store = Store::new();
    let auction = XmarkGen::new(seed)
        .generate(&mut store, scale)
        .expect("generate xmark");
    let purchasers = store.new_element(QName::local("purchasers"));
    (
        store,
        vec![
            ("auction".to_string(), xqdm::seq![Item::Node(auction)]),
            ("purchasers".to_string(), xqdm::seq![Item::Node(purchasers)]),
        ],
    )
}

/// Execute `planned` — `program` through `xqcore::alg::compile_program` — with
/// the given host bindings: the compiled counterpart of
/// `xqcore::alg::run_naive`, with the plan built outside the timed region.
pub fn run_planned(
    planned: &xqcore::alg::PlannedProgram,
    program: &xqsyn::CoreProgram,
    store: &mut Store,
    bindings: &[(String, Sequence)],
) -> Sequence {
    let mut evaluator = xqcore::Evaluator::new(Default::default(), program);
    for (name, value) in bindings {
        evaluator.bind_global(name.clone(), value.clone());
    }
    planned
        .execute(&mut evaluator, store)
        .expect("compiled run")
}

/// A conflict-free Δ of `k` rename requests over `k` fresh nodes.
/// (Renames commute when targets are distinct, so every snap mode accepts
/// this list — it isolates pure application/verification cost.)
pub fn renames_delta(store: &mut Store, k: usize) -> Delta {
    (0..k)
        .map(|i| {
            let node = store.new_element(QName::local(format!("n{i}")));
            let name = store.intern_qname(&QName::local(format!("r{i}")));
            RedoOp::Rename { node, name }
        })
        .collect()
}

/// A conflict-free Δ of `k` chained inserts under one parent (each insert
/// anchors after the previous node, so slots are all distinct).
pub fn chained_inserts_delta(store: &mut Store, k: usize) -> (NodeId, Delta) {
    let parent = store.new_element(QName::local("p"));
    let first = store.new_element(QName::local("c"));
    store.append_child(parent, first).expect("seed child");
    let mut delta = Delta::new();
    let mut anchor = first;
    for _ in 0..k {
        let c = store.new_element(QName::local("c"));
        delta.push(RedoOp::Insert {
            seq: vec![c].into(),
            parent,
            anchor: InsertAnchor::After(anchor),
        });
        anchor = c;
    }
    (parent, delta)
}

/// A Δ with exactly one conflict buried at the end (worst case for the
/// verifier: it must scan everything).
pub fn conflicting_delta(store: &mut Store, k: usize) -> Delta {
    let mut delta = renames_delta(store, k);
    let node = store.new_element(QName::local("victim"));
    for name in ["a", "b"] {
        let name = store.intern_qname(&QName::local(name));
        delta.push(RedoOp::Rename { node, name });
    }
    delta
}

/// Build a balanced element tree with `n` element nodes total (fanout 8),
/// returning its root. Used by the deep-copy experiment.
pub fn element_tree(store: &mut Store, n: usize) -> XdmResult<NodeId> {
    let root = store.new_element(QName::local("root"));
    let mut frontier = vec![root];
    let mut made = 1usize;
    'outer: loop {
        let mut next = Vec::new();
        for &parent in &frontier {
            for _ in 0..8 {
                if made >= n {
                    break 'outer;
                }
                let c = store.new_element(QName::local("node"));
                let t = store.new_text("x");
                store.append_child(c, t)?;
                store.append_child(parent, c)?;
                next.push(c);
                made += 1;
            }
        }
        frontier = next;
    }
    Ok(root)
}

/// What [`paired`] read from `n` pairs of one A and one B measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// The median of the per-pair ratios A / B: below 1, A is faster.
    pub ratio: f64,
    /// The lower quartile of the per-pair ratios.
    pub q1: f64,
    /// The upper quartile of the per-pair ratios.
    pub q3: f64,
    /// Pairs in which A measured less than B; a tie counts for neither.
    pub wins: usize,
    /// Pairs run.
    pub n: usize,
}

impl Paired {
    /// `ratio [q1, q3] wins/n`, as the tables in EXPERIMENTS.md print it.
    pub fn summary(&self) -> String {
        format!(
            "{:.3} [{:.3}, {:.3}] {}/{}",
            self.ratio, self.q1, self.q3, self.wins, self.n
        )
    }

    /// The reading as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"ratio\": {:.6}, \"q1\": {:.6}, \"q3\": {:.6}, \"wins\": {}, \"n\": {}}}",
            self.ratio, self.q1, self.q3, self.wins, self.n
        )
    }
}

impl Paired {
    /// Read `pairs` of (A, B) measurements: the per-pair ratios A / B,
    /// their median and quartiles, and A's wins.
    pub fn of(pairs: &[(f64, f64)]) -> Paired {
        let n = pairs.len();
        assert!(n > 0, "paired needs at least one pair");
        let mut ratios: Vec<f64> = pairs.iter().map(|(x, y)| x / y).collect();
        ratios.sort_by(f64::total_cmp);
        let at = |q: f64| ratios[((n - 1) as f64 * q).round() as usize];
        Paired {
            ratio: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            wins: pairs.iter().filter(|(x, y)| x < y).count(),
            n,
        }
    }
}

/// Run `n` pairs of one measurement of `a` and one of `b` (each returns
/// what it measured, e.g. seconds), alternating which side runs first so
/// drift and warm-up fall on both alike, and read them ([`Paired::of`]).
pub fn paired(n: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .collect();
    Paired::of(&pairs)
}

/// Seconds one call of `f` takes.
pub fn seconds(f: impl FnOnce()) -> f64 {
    let t0 = std::time::Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

// ----------------------------------------------------------------------
// BENCH.json: the one committed results file. Each experiment owns one
// top-level section and replaces only that.
// ----------------------------------------------------------------------

fn bench_json_path() -> std::path::PathBuf {
    // `cargo bench` runs with the package dir as cwd; the file lives at
    // the workspace root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH.json")
}

/// The top-level members of BENCH.json, in file order, as raw text. No
/// JSON parser: the layout is ours — every top-level member starts its
/// own line at two-space indent, nested lines are indented further.
fn bench_members(text: &str) -> Vec<(String, String)> {
    let inner = text.trim().trim_start_matches('{').trim_end_matches('}');
    inner
        .split("\n  \"")
        .skip(1)
        .filter_map(|member| {
            let (key, value) = member.split_once("\": ")?;
            let value = value.trim_end().trim_end_matches(',');
            Some((key.to_string(), value.to_string()))
        })
        .collect()
}

/// The committed raw text of BENCH.json's top-level section `key`.
pub fn bench_section(key: &str) -> Option<String> {
    let text = std::fs::read_to_string(bench_json_path()).ok()?;
    let section = bench_members(&text).into_iter().find(|(k, _)| k == key)?;
    Some(section.1)
}

/// The number at `"field": <n>` inside the object `"row": {…}` of a
/// committed BENCH.json section (no JSON parser: the shape is ours). How
/// a bench reads its own previous reading of a row.
pub fn committed_field(section: &str, row: &str, field: &str) -> Option<f64> {
    let key = format!("\"{row}\": {{");
    let obj = &section[section.find(&key)? + key.len()..];
    let obj = &obj[..obj.find('}')?];
    let key = format!("\"{field}\": ");
    let value = &obj[obj.find(&key)? + key.len()..];
    let end = value.find([',', '}']).unwrap_or(value.len());
    value[..end].trim().parse().ok()
}

/// `section` — a JSON object opened by `{` on a line of its own — with the
/// host facts every committed number must carry as its first two members:
/// `cores` (what this host can run in parallel) and `commit` (`git
/// describe --always --dirty` of the tree that produced the numbers).
fn stamped(section: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let members = section
        .trim_end()
        .strip_prefix("{\n")
        .expect("a BENCH.json section is an object opened by `{` on its own line");
    format!("{{\n    \"cores\": {cores},\n    \"commit\": \"{commit}\",\n{members}")
}

/// Replace BENCH.json's top-level section `key` with `section` (appended
/// when new; the file is created when missing), stamped with this host's
/// `cores` and the tree's `commit`. `section` is a JSON object whose
/// continuation lines are already indented for a top-level member. Every
/// other section is left as it is.
pub fn splice_bench_section(key: &str, section: &str) -> std::io::Result<()> {
    let path = bench_json_path();
    let mut members = match std::fs::read_to_string(&path) {
        Ok(text) => bench_members(&text),
        Err(_) => vec![("schema".to_string(), "\"xquery-bang-bench/1\"".to_string())],
    };
    let section = stamped(section);
    match members.iter_mut().find(|(k, _)| k == key) {
        Some(member) => member.1 = section,
        None => members.push((key.to_string(), section)),
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))?;
    println!("\nupdated BENCH.json section \"{key}\"");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqcore::verify_conflict_free;

    #[test]
    fn fixtures_are_well_formed() {
        let (store, bindings) = xmark_fixture(1, &Scale::tiny());
        assert_eq!(bindings.len(), 2);
        assert!(store.len() > 50);
    }

    #[test]
    fn renames_delta_is_conflict_free() {
        let mut store = Store::new();
        let d = renames_delta(&mut store, 100);
        assert_eq!(d.len(), 100);
        assert!(verify_conflict_free(&store, &d).is_ok());
    }

    #[test]
    fn chained_inserts_are_conflict_free_and_apply() {
        let mut store = Store::new();
        let (parent, d) = chained_inserts_delta(&mut store, 50);
        assert!(verify_conflict_free(&store, &d).is_ok());
        xqcore::apply_delta(&mut store, d, xqcore::SnapMode::Ordered, 0).unwrap();
        assert_eq!(store.children(parent).unwrap().len(), 51);
    }

    #[test]
    fn conflicting_delta_is_detected() {
        let mut store = Store::new();
        let d = conflicting_delta(&mut store, 100);
        assert!(verify_conflict_free(&store, &d).is_err());
    }

    #[test]
    fn element_tree_has_requested_size() {
        let mut store = Store::new();
        let root = element_tree(&mut store, 100).unwrap();
        let elems = store
            .descendants(root)
            .unwrap()
            .into_iter()
            .filter(|&n| store.name(n).unwrap().is_some())
            .count();
        assert_eq!(elems + 1, 100); // +1 for the root itself
    }

    /// `paired` over scripted measurements: each side pops its next
    /// value, and a shared log records the order the sides ran in.
    fn scripted(n: usize, a: &[f64], b: &[f64]) -> (Paired, Vec<char>) {
        let log = std::cell::RefCell::new(Vec::new());
        let (mut ai, mut bi) = (a.iter(), b.iter());
        let p = paired(
            n,
            || {
                log.borrow_mut().push('a');
                *ai.next().unwrap()
            },
            || {
                log.borrow_mut().push('b');
                *bi.next().unwrap()
            },
        );
        (p, log.into_inner())
    }

    #[test]
    fn paired_alternates_order_and_counts_no_ties() {
        let (p, order) = scripted(4, &[1.0; 4], &[1.0; 4]);
        assert_eq!(order, ['a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']);
        assert_eq!((p.ratio, p.q1, p.q3, p.wins, p.n), (1.0, 1.0, 1.0, 0, 4));
    }

    #[test]
    fn paired_reads_a_clear_win() {
        let (p, _) = scripted(10, &[1.0; 10], &[2.0; 10]);
        assert_eq!((p.ratio, p.wins), (0.5, 10));
        let (p, _) = scripted(10, &[3.0; 10], &[1.0; 10]);
        assert_eq!((p.ratio, p.wins), (3.0, 0));
    }

    #[test]
    fn paired_reads_noise_as_a_spread_around_one() {
        let a = [1.0, 1.2, 0.9, 1.1, 1.0, 0.8, 1.3, 1.0, 1.1, 0.9];
        let b = [1.1, 1.0, 1.0, 1.0, 1.2, 1.0, 1.0, 0.9, 1.0, 1.0];
        let (p, _) = scripted(10, &a, &b);
        assert_eq!(p.wins, 5);
        assert!(p.q1 < 1.0 && 1.0 < p.q3, "{p:?}");
        assert!((0.9..=1.1).contains(&p.ratio), "{p:?}");
        assert!(p.summary().ends_with(" 5/10"), "{}", p.summary());
    }

    #[test]
    fn sections_are_stamped_with_host_facts() {
        let s = super::stamped("{\n    \"x\": 1\n  }\n");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "{");
        assert!(lines[1].starts_with("    \"cores\": "), "{s}");
        assert!(lines[2].starts_with("    \"commit\": \""), "{s}");
        assert_eq!(&lines[3..], ["    \"x\": 1", "  }"]);
    }

    /// Every committed number carries its host facts: `cargo bench -p
    /// xqexp` regenerates each object section through `stamped`.
    #[test]
    fn committed_sections_are_stamped() {
        let text = std::fs::read_to_string(bench_json_path()).expect("read BENCH.json");
        for (key, value) in bench_members(&text) {
            if !value.starts_with('{') {
                continue;
            }
            let lines: Vec<&str> = value.lines().skip(1).take(2).collect();
            assert!(
                lines.len() == 2
                    && lines[0].starts_with("    \"cores\": ")
                    && lines[1].starts_with("    \"commit\": \""),
                "BENCH.json section \"{key}\" is not stamped: {lines:?}"
            );
        }
    }

    #[test]
    fn committed_fields_are_read_from_their_own_row() {
        let section = "{\n    \"a\": {\"x\": 1.5, \"y\": 2},\n    \"b\": {\"x\": 3}\n  }";
        assert_eq!(committed_field(section, "a", "x"), Some(1.5));
        assert_eq!(committed_field(section, "a", "y"), Some(2.0));
        assert_eq!(committed_field(section, "b", "x"), Some(3.0));
        assert_eq!(committed_field(section, "b", "y"), None);
        assert_eq!(committed_field(section, "c", "x"), None);
    }

    #[test]
    fn members_split_at_top_level_only() {
        let text = "{\n  \"schema\": \"s/1\",\n  \"a\": {\n    \"x\": {\"1\": 2},\n    \"y\": 3\n  },\n  \"b\": {\n    \"x\": 4\n  }\n}\n";
        let members = super::bench_members(text);
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "a", "b"]);
        assert_eq!(members[0].1, "\"s/1\"");
        assert_eq!(members[1].1, "{\n    \"x\": {\"1\": 2},\n    \"y\": 3\n  }");
        assert_eq!(members[2].1, "{\n    \"x\": 4\n  }");
    }
}
