//! Micro-probe for the undo journal's per-rename overhead, outside the
//! bench harness: interleaves the journaled and raw variants rep by rep so
//! both see the same heap state, and reports average and minimum ns/op.
//! Rename is the adversarial case — the op itself is a pointer swap, so
//! the journal push plus the deferred drop of the displaced name is the
//! entire measured difference. Run with:
//! `cargo run --release -p xqdm --example journal_probe`

use std::time::Instant;
use xqdm::{QName, QNameId, RedoOp, Store};

fn build(k: usize) -> (Store, Vec<xqdm::NodeId>, Vec<QNameId>) {
    let mut s = Store::new();
    let mut nodes = Vec::new();
    let mut names = Vec::new();
    // Interleave node and request-name allocations like renames_delta does.
    for i in 0..k {
        nodes.push(s.new_element(QName::local(format!("n{i}"))));
        names.push(s.intern_qname(&QName::local(format!("r{i}"))));
    }
    (s, nodes, names)
}

fn main() {
    const K: usize = 10_000;
    const REPS: usize = 300;

    let mut raw_total = 0u128;
    let mut raw_min = u128::MAX;
    let mut j_total = 0u128;
    let mut j_min = u128::MAX;

    // Interleave the two variants so heap state is shared fairly.
    for _ in 0..REPS {
        {
            let (mut s, nodes, names) = build(K);
            let t = Instant::now();
            for (&n, &name) in nodes.iter().zip(&names) {
                s.apply(RedoOp::Rename { node: n, name }).unwrap();
            }
            let e = t.elapsed().as_nanos();
            raw_total += e;
            raw_min = raw_min.min(e);
        }
        {
            let (mut s, nodes, names) = build(K);
            let t = Instant::now();
            s.begin_frame();
            s.journal_reserve(K);
            for (&n, &name) in nodes.iter().zip(&names) {
                s.apply(RedoOp::Rename { node: n, name }).unwrap();
            }
            s.commit_frame();
            let e = t.elapsed().as_nanos();
            j_total += e;
            j_min = j_min.min(e);
        }
    }
    let per = |t: u128| t / (REPS * K) as u128;
    println!(
        "raw:      avg {} ns/op, min {} ns/op",
        per(raw_total),
        raw_min / K as u128
    );
    println!(
        "journal:  avg {} ns/op, min {} ns/op",
        per(j_total),
        j_min / K as u128
    );
}
