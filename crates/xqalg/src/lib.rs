//! # xqalg — the algebraic compiler and optimizer for XQuery!
//!
//! Reproduces §4 of the paper: rule-based rewrites **guarded by the
//! side-effect judgment** turn nested FLWOR loops into join plans when the
//! guards hold, and leave the strict nested-loop evaluation in place when
//! they do not.
//!
//! * [`compile::Compiler`] — the rewrite rules and their preconditions
//!   (independence, cardinality safety, snap-freedom);
//! * [`plan::QueryPlan`] — the logical plan language, with the paper-style
//!   `Snap { MapFromItem {...} (GroupBy [...] (LeftOuterJoin(...))) }`
//!   printer;
//! * [`exec`] — physical execution: typed hash join / left-outer
//!   join + group-by, producing the same value *and the same pending
//!   update list* as the nested loop, in `O(|outer| + |inner| +
//!   |matches|)`.
//!
//! ```
//! use xqalg::Compiler;
//!
//! let program = xqsyn::compile(
//!     "for $x in $xs for $y in $ys where $x/@k = $y/@k return $y",
//! ).unwrap();
//! let plan = Compiler::new(&program).compile(&program.body);
//! assert!(plan.is_optimized());
//! ```

pub mod compile;
pub mod exec;
pub mod pipeline;
pub mod plan;
pub mod rewrite;

pub use compile::Compiler;
pub use exec::execute;
pub use pipeline::{compile_program, AlgPlanner, PlannedProgram};
pub use plan::{GroupByPlan, JoinPlan, QueryPlan};
pub use rewrite::simplify;

use std::sync::Arc;
use xqcore::{Evaluator, ProgramEnv};
use xqdm::item::Sequence;
use xqdm::{Store, XdmResult};
use xqsyn::CoreProgram;

/// Register [`AlgPlanner`] as the process-wide default planner, making
/// `xqcore::Engine::run_program` compile through this crate. Idempotent;
/// the facade crate calls this from `Engine::new()`.
pub fn install() {
    xqcore::planner::install(Arc::new(AlgPlanner));
}

/// The default environment with a fixed seed.
fn seeded(seed: u64) -> Arc<ProgramEnv> {
    Arc::new(ProgramEnv::default().with_seed(seed))
}

/// Strict nested-loop evaluation of `program` with the given host bindings
/// and a fixed seed, no compiler involved: the baseline of experiment E1
/// and the reference the optimizer's tests compare compiled runs against.
pub fn run_naive(
    program: &CoreProgram,
    store: &mut Store,
    bindings: &[(String, Sequence)],
    seed: u64,
) -> XdmResult<Sequence> {
    let mut evaluator = Evaluator::new(seeded(seed), program);
    for (name, value) in bindings {
        evaluator.bind_global(name.clone(), value.clone());
    }
    evaluator.eval_program(store, program)
}
