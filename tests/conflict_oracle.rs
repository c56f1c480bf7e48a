//! Conflict-detector soundness oracle (ISSUE 9).
//!
//! The server's OCC validator decides "may Δ2, built against a base
//! snapshot, rebase over a committed Δ1?" by intersecting Δ2's *read*
//! footprint with Δ1's *write* footprint. This suite checks that verdict
//! against a naive ground-truth oracle over hundreds of random Δ pairs:
//!
//! * **Serial world** — a fresh engine runs Q1 then Q2.
//! * **Rebased world** — a fork of the base runs Q2 (capturing Δ2), the
//!   live engine runs Q1, then Δ2 is remap-replayed onto it
//!   ([`Engine::apply_captured`]) — exactly the server's commit path.
//!
//! **Soundness (zero false negatives):** whenever the detector clears
//! the pair (no aspect intersection, no global footprint), the rebased
//! store must be *bit-identical* (same fingerprint) to the serial store.
//! A single divergence would mean a lost update the server would commit
//! silently. The converse (detector conflicts, worlds agree anyway) is
//! allowed — the detector is conservative, not complete.
//!
//! The aspect masks are pinned separately: a value set or a rename
//! collides on the name/value aspects alone (and a blind rebase of such
//! a pair keeps the later writer's value), a structural edit carries a
//! structural aspect.

use proptest::prelude::*;
use xquery_bang::xqdm::footprint::aspect;
use xquery_bang::{CapturedDelta, Engine};

/// A small arena with every kind of shared state the templates touch:
/// a counter, an attributed element, a container, and a renamable tag.
const ARENA: &str =
    "<r><c>10</c><x id=\"a\" k=\"b\"><y/></x><items><item n=\"0\"/></items><tag/></r>";

fn arena_engine() -> Engine {
    let mut e = Engine::new();
    e.load_document("doc", ARENA).unwrap();
    e
}

/// The random-query pool. Indexes are drawn uniformly; the pool mixes
/// value sets, renames, structural edits, deletes, and reads so pairs
/// land on every aspect combination (including disjoint ones).
fn query(t: usize, salt: usize) -> String {
    match t % 12 {
        0 => "replace value of { $doc/r/c/text() } with { $doc/r/c + 1 }".to_string(),
        1 => format!("replace value of {{ $doc/r/c/text() }} with {{ {salt} }}"),
        2 => format!("replace value of {{ $doc/r/x/@id }} with {{ \"v{salt}\" }}"),
        3 => "replace value of { $doc/r/x/@k } with { string($doc/r/c) }".to_string(),
        4 => format!("rename {{ $doc/r/tag }} to {{ \"t{salt}\" }}"),
        5 => format!("insert {{ <item n=\"{salt}\"/> }} into {{ $doc/r/items }}"),
        6 => "delete { ($doc/r/items/item)[1] }".to_string(),
        7 => format!("replace {{ ($doc/r/items/item)[last()] }} with {{ <item n=\"r{salt}\"/> }}"),
        8 => "insert { <z/> } into { $doc/r/x/y }".to_string(),
        9 => format!("rename {{ $doc/r/x }} to {{ \"x{salt}\" }}"),
        10 => "replace value of { ($doc/r/items/item/@n)[1] } with { $doc/r/c * 2 }".to_string(),
        _ => format!("insert {{ <w n=\"{salt}\"/> }} as first into {{ $doc/r/items }}"),
    }
}

/// Capture Q's Δ against a private fork of `base` (the fork is dropped;
/// `base` is untouched) — the writer's evaluation phase.
fn capture_on_fork(base: &Engine, q: &str) -> (CapturedDelta, bool) {
    let mut fork = base.snapshot_state().reader();
    fork.begin_capture(true);
    let ok = fork.run(q).is_ok();
    (fork.take_capture().expect("fork capture"), ok)
}

/// One oracle trial. Returns `(detector_cleared, worlds_agree)`.
fn trial(q1: &str, q2: &str) -> (bool, bool) {
    // Rebased world: Δ2 is built against the base, Q1 commits first,
    // then Δ2 replays on top.
    let mut live = arena_engine();
    let (delta2, ok2) = capture_on_fork(&live, q2);
    live.begin_capture(true);
    let ok1 = live.run(q1).is_ok();
    let delta1 = live.take_capture().expect("live capture");
    let bits = delta2.reads().conflict_aspects(delta1.writes());
    let cleared = bits == 0 && !delta2.writes().is_global() && !delta1.writes().is_global();
    let replayed = live.apply_captured(&delta2);
    let rebased = live.store.fingerprint();

    // Serial world: same queries, honestly re-evaluated in that order.
    let mut serial = arena_engine();
    let s1 = serial.run(q1).is_ok();
    let s2 = serial.run(q2).is_ok();
    // Query success is part of the outcome: a Δ2 that errored on the
    // fork but would succeed serially (or vice versa) is a divergence
    // only the detector may excuse.
    let outcomes_agree = ok1 == s1 && ok2 == s2;
    let agree = replayed.is_ok() && outcomes_agree && rebased == serial.store.fingerprint();
    (cleared, agree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    // ≥256 random pairs (300 cases): every pair the detector clears
    // must be serial-equivalent. Zero false negatives.
    #[test]
    fn cleared_pairs_are_serial_equivalent(
        t1 in 0usize..12,
        t2 in 0usize..12,
        salt in 0usize..1000,
    ) {
        let q1 = query(t1, salt);
        let q2 = query(t2, salt.wrapping_add(17));
        let (cleared, agree) = trial(&q1, &q2);
        if cleared {
            prop_assert!(
                agree,
                "FALSE NEGATIVE: detector cleared a non-serializable pair\n  Q1: {}\n  Q2: {}",
                q1, q2
            );
        }
    }
}

#[test]
fn oracle_catches_the_classic_lost_update() {
    // Sanity that the oracle itself discriminates: two counter
    // increments must conflict (Δ2 read the value Δ1 overwrote), and
    // the rebased world must NOT equal the serial world (the rebased
    // replay writes the stale value — the lost update).
    let q = "replace value of { $doc/r/c/text() } with { $doc/r/c + 1 }";
    let (cleared, agree) = trial(q, q);
    assert!(!cleared, "increment pairs must be flagged");
    assert!(!agree, "blind rebase of an increment must lose an update");
}

#[test]
fn disjoint_writers_are_cleared_and_agree() {
    let (cleared, agree) = trial(
        "replace value of { $doc/r/c/text() } with { 42 }",
        "insert { <z/> } into { $doc/r/x/y }",
    );
    assert!(cleared, "disjoint footprints must clear");
    assert!(agree, "disjoint writers must be serial-equivalent");
}

#[test]
fn blind_appends_to_one_container_commute() {
    // Both writers insert into the same container: the splice indexes
    // are recomputed at replay (mutator-internal reads are untraced),
    // so the pair clears and rebases to the serial result.
    let (cleared, agree) = trial(
        "insert { <a/> } into { $doc/r/items }",
        "insert { <b/> } into { $doc/r/items }",
    );
    assert!(cleared, "blind appends must clear");
    assert!(agree, "blind appends must commute");
}

// ---------------------------------------------------------------------
// Aspect-mask pins: which aspects a colliding pair reports, and what a
// blind rebase of a value/name-only collision would commit. The blind
// replay is last-writer-wins — Δ2's stale value lands over Δ1's — which
// is exactly the lost update the server refuses by aborting the pair.
// ---------------------------------------------------------------------

/// Q2 forks first, Q1 commits; the aspects Δ2's reads share with Δ1's
/// writes.
fn collision(q1: &str, q2: &str) -> u8 {
    let mut live = arena_engine();
    let (delta2, _) = capture_on_fork(&live, q2);
    live.begin_capture(true);
    live.run(q1).unwrap();
    let delta1 = live.take_capture().unwrap();
    delta2.reads().conflict_aspects(delta1.writes())
}

/// Q2 forks first, Q1 commits, then Δ2 replays blindly over the
/// collision. Returns (aspect bits, live engine).
fn blind_rebase(q1: &str, q2: &str) -> (u8, Engine) {
    let mut live = arena_engine();
    let (delta2, ok2) = capture_on_fork(&live, q2);
    assert!(ok2);
    live.begin_capture(true);
    live.run(q1).unwrap();
    let delta1 = live.take_capture().unwrap();
    let bits = delta2.reads().conflict_aspects(delta1.writes());
    assert_ne!(bits, 0, "scenario must actually collide");
    live.apply_captured(&delta2).unwrap();
    (bits, live)
}

fn string_of(e: &mut Engine, q: &str) -> String {
    let v = e.run(q).unwrap();
    e.serialize(&v).unwrap()
}

#[test]
fn lww_counter_set_keeps_the_later_writers_value() {
    // Q1 sets the counter to 100; Δ2 computed 10+1 = 11 against the
    // base. The blind rebase applies Δ2's stale value: 11, never 101
    // and never 100.
    let (bits, mut live) = blind_rebase(
        "replace value of { $doc/r/c/text() } with { 100 }",
        "replace value of { $doc/r/c/text() } with { $doc/r/c + 1 }",
    );
    assert_eq!(bits & !(aspect::NAME | aspect::VALUE), 0, "value-only");
    assert_eq!(string_of(&mut live, "string($doc/r/c)"), "11");
}

#[test]
fn lww_attribute_set_keeps_the_later_writers_value() {
    let (bits, mut live) = blind_rebase(
        "replace value of { $doc/r/x/@id } with { \"first\" }",
        "replace value of { $doc/r/x/@id } with { concat(string($doc/r/x/@id), \"+2\") }",
    );
    assert_eq!(bits & !(aspect::NAME | aspect::VALUE), 0, "value-only");
    assert_eq!(string_of(&mut live, "string($doc/r/x/@id)"), "a+2");
}

#[test]
fn lww_rename_keeps_the_later_writers_name() {
    let (bits, mut live) = blind_rebase(
        "rename { $doc/r/tag } to { \"one\" }",
        "rename { ($doc/r/*)[4] } to { \"two\" }",
    );
    assert_eq!(bits & !(aspect::NAME | aspect::VALUE), 0, "name-only");
    assert_eq!(string_of(&mut live, "count($doc/r/two)"), "1");
    assert_eq!(string_of(&mut live, "count($doc/r/one)"), "0");
}

#[test]
fn structural_collisions_are_never_waivable() {
    // Q2 read the children list Q1 rewrote: the intersection carries
    // CHILDREN, not only a name or value aspect.
    let bits = collision(
        "delete { ($doc/r/items/item)[1] }",
        "replace { ($doc/r/items/item)[last()] } with { <item n=\"mine\"/> }",
    );
    assert_ne!(
        bits & !(aspect::NAME | aspect::VALUE),
        0,
        "structural aspect must survive in the mask: {bits:#b}"
    );
}
