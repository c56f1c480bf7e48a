//! # xqcore — the dynamic semantics of XQuery!
//!
//! This crate implements the paper's core contribution (Ghelli, Ré, Siméon,
//! *XQuery!: An XML Query Language with Side Effects*, EDBT 2006):
//!
//! * the extended semantic judgment `store0; dynEnv ⊢ Expr ⇒ value; Δ;
//!   store1` as a big-step evaluator over the normalized core language
//!   ([`eval::Evaluator`]), with the paper's strict left-to-right
//!   evaluation order;
//! * pending update lists Δ ([`update::Delta`]) and the update requests of
//!   §3.2, kept on the **stack of update lists** described in §4.1;
//! * the **`snap`** operator with free nesting, and the three Δ-application
//!   semantics — ordered, nondeterministic, conflict-detection
//!   ([`apply::apply_delta`], [`conflict::verify_conflict_free`] — the
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
pub mod apply;
pub mod check;
pub mod conflict;
pub mod effects;
pub mod engine;
pub mod env;
pub mod eval;
pub mod functions;
pub mod limits;
pub mod obs;
pub mod par;
pub mod planner;
pub mod server;
pub mod update;

pub use apply::apply_delta;
pub use check::{check_program, Diagnostic, Severity};
pub use conflict::verify_conflict_free;
pub use effects::{Effect, EffectAnalysis, Facts};
pub use engine::{Engine, EngineSnapshot, Error, RunReport};
pub use env::{DynEnv, Focus, ProgramEnv, Scope};
pub use eval::{EvalStats, Evaluator};
pub use limits::{LimitGuard, Limits, TripKind};
pub use obs::{Gauge, MetricsSnapshot, NodeStats, Profile, Registry, TraceSink};
pub use par::{par_safe, threads_from_env, MAX_THREADS, PAR_MIN_ITEMS};
pub use planner::{program_fingerprint, SharedPlanCache};
pub use server::{
    CommitRecord, ConflictPolicy, RequestKind, Response, Server, ServerConfig, ServerStats, Session,
};
pub use update::{Delta, UpdateRequest};
pub use xqsyn::ast::SnapMode;
