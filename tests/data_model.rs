//! Data-model differential pins (PR 7 satellite): the raw-speed rework —
//! interned names, compact node slots, small-vector sequences, batch
//! kernels — must be *invisible* at every lexical boundary. Two oracles:
//!
//! 1. **Fingerprint pins.** `Store::fingerprint()` hashes the store's
//!    lexical content (names resolved back to strings, document order,
//!    text/attribute bytes). The constants below were captured on the
//!    pre-interner representation; the interned store must reproduce
//!    them bit-for-bit for the whole XMark corpus and for a recovered
//!    v1 write-ahead log.
//! 2. **Byte-identical round trips.** `serialize ∘ parse` is a fixpoint:
//!    once a tree has been serialized, re-parsing and re-serializing
//!    yields the same bytes. Symbol interning happens *under* this
//!    boundary, so any leak (prefix mangling, attribute reordering,
//!    escaping drift) breaks the equality.

use proptest::prelude::*;
use xmarkgen::{Scale, XmarkGen};
use xquery_bang::xqdm::xml;
use xquery_bang::{Store, SyncMode};

/// XMark corpus fingerprints, seed 42, captured before the interner
/// landed. A change here means the refactor altered observable content.
const XMARK_PINS: &[(&str, u64)] = &[
    ("tiny", 0xea0e241e52f6f0d4),
    ("small", 0x38c5be0ac8fcb470),
    ("join_50_25", 0x2d8780d12284aa1c),
    ("join_200_100", 0x6985f0e02f85ce92),
];

fn scale_for(label: &str) -> Scale {
    match label {
        "tiny" => Scale::tiny(),
        "small" => Scale::small(),
        "join_50_25" => Scale::join_sides(50, 25),
        "join_200_100" => Scale::join_sides(200, 100),
        other => panic!("unknown scale {other}"),
    }
}

#[test]
fn xmark_corpus_fingerprints_are_unchanged() {
    for &(label, expected) in XMARK_PINS {
        let mut store = Store::new();
        let mut g = XmarkGen::new(42);
        g.generate(&mut store, &scale_for(label)).unwrap();
        let got = store.fingerprint();
        assert_eq!(
            got, expected,
            "XMark {label} fingerprint drifted: {got:#018x} != {expected:#018x}"
        );
    }
}

/// The committed v1 WAL fixture (written before the interner) must
/// recover to the same lexical store: redo records carry lexical names,
/// and replay re-interns them without moving a single byte.
#[test]
fn wal_v1_fixture_replays_bit_identically() {
    const WAL_V1_FP: u64 = 0x646ab32d35d79421;
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/wal_v1");
    // Recover in a scratch copy: opening a durable store appends to its
    // log, and the fixture must stay pristine in the repository.
    let dir = std::env::temp_dir().join(format!("xqb_walv1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let (store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
    let got = store.fingerprint();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.replayed_commits > 0, "fixture log replayed nothing");
    assert_eq!(
        got, WAL_V1_FP,
        "v1 WAL recovery drifted: {got:#018x} != {WAL_V1_FP:#018x}"
    );
}

/// A log written by the optimistic writers this server no longer has
/// (two sessions alternating six commits on a durable server, DESIGN.md
/// §16) stamps each commit with an interleaved-committer info record.
/// Recovery still decodes those records — counted, never applied — and
/// rebuilds the store the writing server ended on.
#[test]
fn wal_info_fixture_recovers() {
    const WAL_INFO_FP: u64 = 0x10672044a5e24b3e;
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/wal_info");
    let dir = std::env::temp_dir().join(format!("xqb_walinfo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let (store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
    let got = store.fingerprint();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.tail_dropped, 0, "{report:?}");
    assert!(
        report.committer_records > 0,
        "no info record decoded: {report:?}"
    );
    assert_eq!(
        got, WAL_INFO_FP,
        "info-record WAL recovery drifted: {got:#018x} != {WAL_INFO_FP:#018x}"
    );
}

/// Serialize → parse → serialize over the XMark corpus: byte-identical.
#[test]
fn xmark_serialization_is_a_fixpoint() {
    for &(label, _) in XMARK_PINS {
        if label == "join_200_100" {
            continue; // covered by the pin; keep the fixpoint pass fast
        }
        let mut store = Store::new();
        let mut g = XmarkGen::new(42);
        let doc = g.generate(&mut store, &scale_for(label)).unwrap();
        let first = xml::serialize(&store, doc).unwrap();
        let mut store2 = Store::new();
        let doc2 = xml::parse_document(&mut store2, &first).unwrap();
        let second = xml::serialize(&store2, doc2).unwrap();
        assert_eq!(first, second, "round trip not byte-identical for {label}");
    }
}

// ---------------------------------------------------------------------------
// Property: the fixpoint holds for arbitrary generated documents, not
// just the XMark shape.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Build random trees through the store API (always well-formed by
    // construction), then check the serialize→parse→serialize fixpoint.
    #[test]
    fn random_trees_serialize_to_a_fixpoint(
        shape in proptest::collection::vec((0u8..4, 0u8..6, 0u8..3), 1..40)
    ) {
        let mut store = Store::new();
        let root = store.new_element(xquery_bang::xqdm::qname::QName::local("root"));
        let mut cursor = vec![root];
        for (op, name, flavor) in shape {
            let parent = *cursor.last().unwrap();
            match op {
                0 => {
                    let e = store.new_element(xquery_bang::xqdm::qname::QName::local(
                        format!("e{name}")));
                    store.append_child(parent, e).unwrap();
                    cursor.push(e);
                }
                1 => {
                    if cursor.len() > 1 { cursor.pop(); }
                }
                2 => {
                    let t = store.new_text(format!("t{name}x{flavor}"));
                    store.append_child(parent, t).unwrap();
                }
                _ => {
                    let a = store.new_attribute(
                        xquery_bang::xqdm::qname::QName::local(format!("a{name}")),
                        format!("v{flavor}"));
                    // Duplicate attribute names are rejected; skip those.
                    let _ = store.attach_attribute(parent, a);
                }
            }
        }
        let first = xml::serialize(&store, root).unwrap();
        let mut store2 = Store::new();
        let frags = xml::parse_fragment(&mut store2, &first).unwrap();
        prop_assert_eq!(frags.len(), 1);
        let second = xml::serialize(&store2, frags[0]).unwrap();
        prop_assert_eq!(first, second, "fixpoint violated");
    }
}
