//! Generated path battery: random trees and random 1–3-step paths, run
//! from one origin or from many, answered three ways — indexed (compiled,
//! index plane on), batch (compiled, index plane off) and interpreted —
//! which must agree value for value, with the index plane still equal to
//! a from-scratch rebuild afterwards.
//!
//! The index cost gate picks between the bucket scan and the kernel walk
//! per step from the step's origins, so the battery mixes wide and narrow
//! parents, deep and shallow subtrees, common and rare `@a` values: over
//! the run both choices must be taken (checked at the end, so the
//! agreement is not vacuous).
//!
//! Each case first applies a few random updates, so node ids drift out
//! of document order and the index plane's maintenance is exercised.
//!
//! Generation draws from the vendored proptest RNG keyed on `corpus::paths::SEED`,
//! so every run replays the same `CASES` cases; a failure prints the case
//! number, the document and the query.

mod corpus;

use corpus::paths::{case, CASES};
use xquery_bang::Engine;

#[test]
fn generated_paths_agree_across_strategies() {
    let (mut scanned, mut walked) = (0, 0);
    for n in 0..CASES {
        let (doc, updates, query) = case(n);
        let mut outs = Vec::new();
        let mut indexed = None;
        for (label, compile, indexing) in [
            ("interpreted", false, false),
            ("batch", true, false),
            ("indexed", true, true),
        ] {
            let mut e = Engine::new();
            e.set_compile(compile);
            e.set_indexing(indexing);
            e.load_document("doc", &doc).unwrap();
            e.run(&updates)
                .unwrap_or_else(|err| panic!("case {n}: {label} failed on {updates}: {err}"));
            let v = e
                .run(&query)
                .unwrap_or_else(|err| panic!("case {n}: {label} failed on {query}: {err}"));
            outs.push((label, e.serialize(&v).unwrap()));
            indexed = Some(e);
        }
        for (label, out) in &outs[1..] {
            assert_eq!(
                out, &outs[0].1,
                "case {n}: {label} disagrees with interpreted\n  \
                 updates: {updates}\n  query: {query}\n  doc: {doc}"
            );
        }
        let indexed = indexed.unwrap();
        assert!(
            indexed.store.index_verify(),
            "case {n}: index diverged from a rebuild\n  query: {query}"
        );
        let stats = indexed.last_stats().unwrap();
        if stats.idx_scans > 0 {
            scanned += 1;
        }
        if stats.batch_steps > 0 {
            walked += 1;
        }
    }
    // Non-vacuity: the gate chose each strategy somewhere in the run.
    assert!(scanned > 0, "no generated case took an index scan");
    assert!(walked > 0, "no generated case took a kernel walk");
}
