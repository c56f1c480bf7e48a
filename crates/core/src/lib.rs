//! # xqcore — the dynamic semantics of XQuery!
//!
//! This crate implements the paper's core contribution (Ghelli, Ré, Siméon,
//! *XQuery!: An XML Query Language with Side Effects*, EDBT 2006):
//!
//! * the extended semantic judgment `store0; dynEnv ⊢ Expr ⇒ value; Δ;
//!   store1` as a big-step evaluator over the normalized core language
//!   ([`eval::Evaluator`]), with the paper's strict left-to-right
//!   evaluation order;
//! * pending update lists Δ ([`delta::Delta`]): the update requests of
//!   §3.2 are the store's own ops ([`xqdm::RedoOp`], the vocabulary
//!   `Store::apply` executes and the redo log encodes), kept on the
//!   **stack of update lists** described in §4.1;
//! * the **`snap`** operator with free nesting, and the three Δ-application
//!   semantics — ordered, nondeterministic, conflict-detection
//!   ([`delta::apply_delta`], [`delta::verify_conflict_free`] — the
//!   latter in linear time with a pair of hash tables, as §4.1 claims);
//! * the side-effect judgment that guards optimizer rewritings and every
//!   routing gate ([`effects::EffectAnalysis`], [`effects::Facts`]),
//!   including the call-graph "monadic" fixpoint of §5;
//! * the §4 algebraic compiler ([`alg`]): guarded rewrites, join plans and
//!   their physical operators — the pipeline [`engine::Engine`] runs every
//!   program through unless `set_compile(false)` selects the reference
//!   interpreter;
//! * a built-in function library and the host-facing [`engine::Engine`].
//!
//! ## Quick example
//!
//! ```
//! use xqcore::Engine;
//!
//! let mut engine = Engine::new();
//! engine.load_document("log", "<log/>").unwrap();
//! // The paper's §2.3 pattern: a snap makes the insertion visible to the
//! // rest of the same query.
//! let n = engine
//!     .run("(snap insert { <entry/> } into { $log/log }, count($log/log/entry))")
//!     .unwrap();
//! assert_eq!(engine.serialize(&n).unwrap(), "1");
//! ```

pub mod alg;
pub mod check;
pub mod delta;
pub mod effects;
pub mod engine;
pub mod env;
pub mod eval;
pub mod functions;
pub mod limits;
pub mod obs;
pub mod planner;
pub mod server;

pub use check::{check_program, Diagnostic, Severity};
pub use delta::{apply_delta, verify_conflict_free, Delta};
pub use effects::{Effect, EffectAnalysis, Facts};
pub use engine::{Engine, EngineSnapshot, Error, RunReport};
pub use env::{DynEnv, Focus, ProgramEnv, Scope};
pub use eval::{EvalStats, Evaluator};
pub use limits::{LimitGuard, Limits, TripKind};
pub use obs::{MetricsSnapshot, NodeStats, Profile, Registry, TraceSink};
pub use planner::{program_fingerprint, SharedPlanCache};
pub use server::{CommitRecord, RequestKind, Response, Server, ServerConfig, ServerStats, Session};
pub use xqsyn::ast::SnapMode;
