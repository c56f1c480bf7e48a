//! Shared by the optimizer's test binaries.

use std::sync::Arc;
use xqcore::alg::compile_program;
use xqcore::{Evaluator, ProgramEnv};
use xqdm::item::Sequence;
use xqdm::Store;
use xqsyn::CoreProgram;

/// The compiled counterpart of `xqcore::alg::run_naive`: compile the whole
/// program through the pipeline the engine uses and execute it with the
/// given host bindings under seed 0. Returns the value and whether any
/// rewrite fired.
pub fn run_compiled(
    program: &CoreProgram,
    store: &mut Store,
    bindings: &[(String, Sequence)],
) -> (Sequence, bool) {
    let planned = compile_program(program);
    let mut evaluator = Evaluator::new(Arc::new(ProgramEnv::default().with_seed(0)), program);
    for (name, value) in bindings {
        evaluator.bind_global(name.clone(), value.clone());
    }
    let value = planned
        .execute(&mut evaluator, store)
        .expect("compiled run");
    (value, planned.is_optimized())
}
