//! # xquery-bang — XQuery! (“XQuery Bang”) in Rust
//!
//! A from-scratch implementation of *XQuery!: An XML Query Language with
//! Side Effects* (Ghelli, Ré, Siméon — EDBT 2006): XQuery 1.0 fragment +
//! first-class compositional updates + the `snap` snapshot-scope operator,
//! with the paper's three Δ-application semantics and the §4 algebraic
//! optimizer.
//!
//! This crate is a facade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`xqdm`] | XML data model: store, node ids, document order, XML parser |
//! | [`xqsyn`] | lexer/parser, surface AST, normalization to the core language |
//! | [`xqcore`] | the engine: dynamic semantics (evaluator, Δ lists, `snap`, built-ins) and, as [`xqcore::alg`], the algebraic compiler (join rewrites guarded by effects) |
//! | [`xmarkgen`] | deterministic XMark-shaped data generator |
//!
//! ## Quickstart
//!
//! ```
//! use xquery_bang::Engine;
//!
//! let mut engine = Engine::new();
//! engine.load_document("log", "<log/>").unwrap();
//! let out = engine
//!     .run("(snap insert { <entry n=\"1\"/> } into { $log/log },
//!           count($log/log/entry))")
//!     .unwrap();
//! assert_eq!(engine.serialize(&out).unwrap(), "1");
//! ```

#[doc(hidden)]
pub mod analyze_golden;
pub mod cli;

pub use xmarkgen;
pub use xqcore;
/// The §4 algebraic compiler. It lives in [`xqcore`] — the engine calls it
/// directly — and keeps its historical crate name here.
pub use xqcore::alg as xqalg;
pub use xqdm;
pub use xqsyn;

pub use xqcore::{
    CommitRecord, Engine, Error, RequestKind, Response, Server, ServerConfig, ServerStats, Session,
    SnapMode,
};
pub use xqdm::{Atomic, Item, RecoveryReport, Sequence, Store, SyncMode};

/// Convenience: run a standalone query with no documents bound.
pub fn eval(query: &str) -> Result<Sequence, Error> {
    Engine::new().run(query)
}

/// Convenience: run a query against a single XML document bound to
/// `$doc`, returning the serialized result.
pub fn eval_on(xml: &str, query: &str) -> Result<String, Error> {
    let mut engine = Engine::new();
    engine.load_document("doc", xml)?;
    let r = engine.run(query)?;
    Ok(engine.serialize(&r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_standalone() {
        let r = eval("sum(1 to 10)").unwrap();
        assert_eq!(r, vec![Item::integer(55)]);
    }

    #[test]
    fn eval_on_document() {
        assert_eq!(eval_on("<a><b/><b/></a>", "count($doc//b)").unwrap(), "2");
    }
}
