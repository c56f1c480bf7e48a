//! The algebraic compiler and optimizer for XQuery! (the former `xqalg`
//! crate, still re-exported under that name by the facade).
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
//! * [`exec`] — physical execution: one typed hash join, with or without
//!   a group (left outer join + group-by), producing the same value *and the same pending
//!   update list* as the nested loop, in `O(|outer| + |inner| +
//!   |matches|)`.
//!
//! ```
//! use xqcore::alg::Compiler;
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
pub use pipeline::{compile_program, PlannedProgram};
pub use plan::{JoinPlan, JoinSide, Op, QueryPlan};
pub use rewrite::simplify;

use crate::{Evaluator, ProgramEnv};
use std::sync::Arc;
use xqdm::item::Sequence;
use xqdm::{Store, XdmResult};
use xqsyn::CoreProgram;

/// Strict nested-loop evaluation of `program` with the given host bindings
/// and a fixed seed, no compiler involved: the baseline of experiment E1
/// and the reference the optimizer's tests compare compiled runs against.
pub fn run_naive(
    program: &CoreProgram,
    store: &mut Store,
    bindings: &[(String, Sequence)],
    seed: u64,
) -> XdmResult<Sequence> {
    let env = Arc::new(ProgramEnv::default().with_seed(seed));
    let mut evaluator = Evaluator::new(env, program);
    for (name, value) in bindings {
        evaluator.bind_global(name.clone(), value.clone());
    }
    evaluator.eval_program(store, program)
}
