//! The compiled execution pipeline: whole programs (body, prolog
//! variables, declared functions) compiled to plans — what
//! [`Engine`](crate::Engine) caches and executes unless `set_compile(false)`
//! selects the reference interpreter.
//!
//! A [`PlannedProgram`] owns one plan per program part. Function bodies
//! whose plan actually optimized something are collected into a
//! `FnTable`, which the evaluator's call rule consults for the duration
//! of the run — it runs a listed body's plan in the call's own frame — so
//! a join inside a declared function runs as a hash join no matter where
//! the call site sits. Functions whose bodies
//! compiled to a bare `Iterate` are left to the interpreter — the plan
//! would add indirection without changing a single instruction.

use crate::alg::compile::{compile_structural, Compiler};
use crate::alg::exec;
use crate::alg::plan::QueryPlan;
use crate::planner::PlanOptions;
use crate::{DynEnv, EffectAnalysis, Evaluator};
use std::sync::Arc;
use xqdm::item::Sequence;
use xqdm::{Store, XdmResult};
use xqsyn::CoreProgram;

/// Compiled plans for the declared functions that benefited from
/// compilation, consulted by the evaluator's call rule on every
/// user-function call.
#[derive(Default)]
pub(crate) struct FnTable {
    /// `(name, params, body plan, profile node-id base)` — linear scan;
    /// programs declare few functions and only the optimized ones land
    /// here.
    entries: Vec<(String, Vec<String>, QueryPlan, usize)>,
}

impl FnTable {
    /// No compiled functions at all?
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of functions with compiled bodies.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The compiled body of `name` with `arity` parameters, with its
    /// profile node-id base; `None` when that function's body runs
    /// interpreted.
    pub(crate) fn get(&self, name: &str, arity: usize) -> Option<(&QueryPlan, usize)> {
        self.entries
            .iter()
            .find(|(n, p, _, _)| n == name && p.len() == arity)
            .map(|(_, _, plan, base)| (plan, *base))
    }
}

/// A whole program compiled to plans: what the engine caches and
/// executes. Execution drives the given evaluator (its Δ-stack, snap-seed
/// counter, globals, and statistics), so compiled and interpreted subtrees
/// share one store/Δ discipline.
///
/// Profile node ids are assigned per program section, in pre-order within
/// each plan: the body starts at 0, each prolog variable's plan follows,
/// then each compiled function's — so one flat
/// [`Profile`](crate::obs::Profile) covers the whole program.
pub struct PlannedProgram {
    /// `(name, plan, profile node-id base)` per prolog variable.
    variables: Vec<(String, QueryPlan, usize)>,
    body: QueryPlan,
    functions: Arc<FnTable>,
    /// Kept for rendering (effect annotations are part of the EXPLAIN
    /// tree, analyzed or not).
    analysis: EffectAnalysis,
    optimized: bool,
}

impl PlannedProgram {
    /// The body plan (diagnostics and tests).
    pub fn body_plan(&self) -> &QueryPlan {
        &self.body
    }

    /// Number of declared functions whose bodies compiled to an optimized
    /// plan.
    pub fn compiled_functions(&self) -> usize {
        self.functions.len()
    }

    /// Run the plan: prolog variables first, then the body, inside the
    /// implicit top-level snap — the compiled counterpart of
    /// [`Evaluator::eval_program`].
    pub fn execute(&self, evaluator: &mut Evaluator, store: &mut Store) -> XdmResult<Sequence> {
        if !self.functions.is_empty() {
            evaluator.set_function_executor(Some(self.functions.clone()));
        }
        let result = evaluator.run_in_program_scope(store, |ev, store| {
            // Prolog variables in order, then the body — all inside the
            // implicit top-level snap, like `Evaluator::eval_program`.
            let env = &mut DynEnv::new();
            for (name, plan, base) in &self.variables {
                let v = exec::execute_at(plan, *base, ev, store, env)?;
                ev.bind_global(name.clone(), v);
            }
            exec::execute_at(&self.body, 0, ev, store, env)
        });
        evaluator.set_function_executor(None);
        result
    }

    /// The paper-style plan printout with effect annotations: the body,
    /// then each optimized prolog variable and each compiled function.
    /// Rendered on request — a cached plan carries no text — for a run
    /// against `store`: index-servable chains are marked `,idx` when its
    /// index plane is on.
    pub fn explain(&self, store: &Store) -> String {
        let indexed = store.index_enabled();
        let mut out = self.body.render_annotated(&self.analysis, indexed);
        for (name, plan, _) in &self.variables {
            if plan.is_optimized() {
                out.push_str(&format!(
                    "\n\ndeclare variable ${name}:\n{}",
                    plan.render_annotated(&self.analysis, indexed)
                ));
            }
        }
        for (name, params, plan, _) in &self.functions.entries {
            out.push_str(&format!(
                "\n\ndeclare function {name}({}):\n{}",
                params_list(params),
                plan.render_annotated(&self.analysis, indexed)
            ));
        }
        out
    }

    /// Did any rewrite fire anywhere in the program (body, prolog
    /// variable, or declared function)?
    pub fn is_optimized(&self) -> bool {
        self.optimized
    }

    /// The plan printout annotated with live per-node counters from an
    /// analyzed run against `store` (`Engine::explain_analyze`).
    pub fn explain_analyzed(&self, profile: &crate::obs::Profile, store: &Store) -> String {
        // Unlike the plain EXPLAIN (which shows only optimized prolog
        // variables), the analyzed tree shows every variable: each one
        // executed and has counters worth reading.
        let indexed = store.index_enabled();
        let mut out = self
            .body
            .render_analyzed(&self.analysis, profile, 0, indexed);
        for (name, plan, base) in &self.variables {
            out.push_str(&format!(
                "\n\ndeclare variable ${name}:\n{}",
                plan.render_analyzed(&self.analysis, profile, *base, indexed)
            ));
        }
        for (name, params, plan, base) in &self.functions.entries {
            out.push_str(&format!(
                "\n\ndeclare function {name}({}):\n{}",
                params_list(params),
                plan.render_analyzed(&self.analysis, profile, *base, indexed)
            ));
        }
        out
    }

    /// Cross-check a captured profile against this plan's shape (node-id
    /// assignment, parent/child call and cardinality relations). Used by
    /// the obs-invariants suite.
    pub fn verify_profile(&self, profile: &crate::obs::Profile) -> Result<(), String> {
        self.body.verify_profile(profile, 0)?;
        for (name, plan, base) in &self.variables {
            plan.verify_profile(profile, *base)
                .map_err(|e| format!("declare variable ${name}: {e}"))?;
        }
        for (name, _, plan, base) in &self.functions.entries {
            plan.verify_profile(profile, *base)
                .map_err(|e| format!("declare function {name}: {e}"))?;
        }
        Ok(())
    }
}

/// Compile a whole program: simplify + plan the body, every prolog
/// variable initializer, and every declared function body, with join
/// recognition attempted at each subtree of each part. The plan depends
/// on the program alone: whether a step is read from the index plane is
/// decided per scan.
pub fn compile_program(program: &CoreProgram) -> PlannedProgram {
    assemble(program, Compiler::compile_simplified)
}

/// [`compile_program`]. The [`PlanOptions`] are accepted and ignored —
/// no plan depends on the store — so callers that pass them build.
pub fn compile_program_opts(program: &CoreProgram, _opts: &PlanOptions) -> PlannedProgram {
    compile_program(program)
}

/// Compile a whole program to *structural* plans only (see
/// [`compile_structural`]): no rewrites, no function table — declared
/// functions stay interpreted, exactly as a plain interpreted run would
/// treat them. This is the plan `explain_analyze` executes when
/// compilation is disabled.
pub fn compile_structural_program(program: &CoreProgram) -> PlannedProgram {
    assemble(program, |_, core| compile_structural(core))
}

/// The shared program-assembly skeleton: plan the body and every prolog
/// variable with `plan_expr`, assign pre-order profile node-id bases
/// (body, then variables, then compiled functions) and collect optimized
/// function bodies.
fn assemble(
    program: &CoreProgram,
    plan_expr: impl Fn(&Compiler, &xqsyn::core::Core) -> QueryPlan,
) -> PlannedProgram {
    let compiler = Compiler::new(program);
    let body = plan_expr(&compiler, &program.body);
    let mut next_base = body.node_count();

    let variables: Vec<(String, QueryPlan, usize)> = program
        .variables
        .iter()
        .map(|(name, init)| {
            let plan = plan_expr(&compiler, init);
            let base = next_base;
            next_base += plan.node_count();
            (name.clone(), plan, base)
        })
        .collect();

    let mut fn_table = FnTable::default();
    for f in &program.functions {
        let plan = plan_expr(&compiler, &f.body);
        if plan.is_optimized() {
            let base = next_base;
            next_base += plan.node_count();
            fn_table
                .entries
                .push((f.name.clone(), f.params.clone(), plan, base));
        }
    }

    let optimized = body.is_optimized()
        || variables.iter().any(|(_, p, _)| p.is_optimized())
        || !fn_table.is_empty();

    PlannedProgram {
        variables,
        body,
        functions: Arc::new(fn_table),
        analysis: compiler.into_analysis(),
        optimized,
    }
}

/// `$a, $b` — a declared function's parameters as EXPLAIN prints them.
fn params_list(params: &[String]) -> String {
    params
        .iter()
        .map(|p| format!("${p}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_in_function_body_compiles() {
        let program = xqsyn::compile(
            r#"
            declare function pairs($ls, $rs) {
              for $l in $ls/e
              for $r in $rs/e
              where $l/@k = $r/@k
              return <m/>
            };
            pairs($left, $right)"#,
        )
        .unwrap();
        let planned = compile_program(&program);
        assert!(planned.is_optimized());
        assert_eq!(planned.compiled_functions(), 1);
        assert!(planned
            .explain(&Store::new())
            .contains("declare function pairs"));
        assert!(planned.explain(&Store::new()).contains("Join"));
    }

    #[test]
    fn join_in_snap_body_compiles() {
        let program = xqsyn::compile(
            r#"
            snap {
              for $l in $left/e
              for $r in $right/e
              where $l/@k = $r/@k
              return insert { <m/> } into { $out }
            }"#,
        )
        .unwrap();
        let planned = compile_program(&program);
        assert!(planned.is_optimized());
        assert!(matches!(
            planned.body_plan(),
            QueryPlan::Rule(crate::alg::plan::Op::Snap(_), _)
        ));
        assert!(planned.explain(&Store::new()).contains("Snap(ordered)"));
        assert!(planned.explain(&Store::new()).contains("Join"));
    }

    #[test]
    fn plain_programs_stay_single_iterate() {
        let program = xqsyn::compile("for $i in 1 to 3 return $i * $i").unwrap();
        let planned = compile_program(&program);
        assert!(!planned.is_optimized());
        assert!(matches!(planned.body_plan(), QueryPlan::Iterate(_)));
        assert_eq!(planned.compiled_functions(), 0);
    }
}
