//! The compiled execution pipeline: whole programs (body, prolog
//! variables, declared functions) compiled to plans — what
//! [`Engine`](crate::Engine) caches and executes unless `set_compile(false)`
//! selects the reference interpreter.
//!
//! A [`PlannedProgram`] owns one plan per program part. Function bodies
//! whose plan specialized — a join, a batch chain, or a rule node over
//! either, the test the compiler's collapse rule applies — are collected
//! into a `FnTable`, which the evaluator's call rule consults for the
//! duration of the run — it runs a listed body's plan in the call's own
//! frame — so a join or a batch chain inside a declared function runs as
//! one no matter where the call site sits. Functions whose bodies
//! compiled to a bare `Iterate` are left to the interpreter — the plan
//! would add indirection without changing a single instruction. EXPLAIN,
//! its analyzed form and the profile check walk the plans in one order,
//! the profile's: the body, each prolog variable, each compiled function.

use crate::alg::compile::{compile_structural, Compiler};
use crate::alg::exec;
use crate::alg::plan::QueryPlan;
use crate::planner::PlanOptions;
use crate::{DynEnv, EffectAnalysis, Evaluator};
use std::sync::Arc;
use xqdm::atomic::Atomic;
use xqdm::item::Sequence;
use xqdm::{Store, XdmResult};
use xqsyn::CoreProgram;

/// Compiled plans for the declared functions whose bodies specialized
/// ([`QueryPlan::is_specialized`], the compiler's own collapse
/// criterion), consulted by the evaluator's call rule on every
/// user-function call.
#[derive(Default)]
pub(crate) struct FnTable {
    /// `(name, params, body plan, profile node-id base)` — linear scan;
    /// programs declare few functions and only the specialized ones land
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
}

impl PlannedProgram {
    /// The body plan (diagnostics and tests).
    pub fn body_plan(&self) -> &QueryPlan {
        &self.body
    }

    /// Number of declared functions whose bodies compiled to a
    /// specialized plan.
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

    /// Every plan of the program in profile-id order — the body, each
    /// prolog variable (with `all_variables` unset, only those a join
    /// fired in), each compiled function — with the heading EXPLAIN
    /// prints above it (the body has none) and its profile node-id base:
    /// the one walk EXPLAIN, its analyzed form and the profile check
    /// share.
    fn sections(
        &self,
        all_variables: bool,
    ) -> impl Iterator<Item = (Option<String>, &QueryPlan, usize)> {
        let variables = self
            .variables
            .iter()
            .filter(move |(_, plan, _)| all_variables || plan.is_optimized())
            .map(|(name, plan, base)| (Some(format!("declare variable ${name}")), plan, *base));
        let functions = self
            .functions
            .entries
            .iter()
            .map(|(name, params, plan, base)| {
                let params: Vec<String> = params.iter().map(|p| format!("${p}")).collect();
                let heading = format!("declare function {name}({})", params.join(", "));
                (Some(heading), plan, *base)
            });
        std::iter::once((None, &self.body, 0))
            .chain(variables)
            .chain(functions)
    }

    /// The sections' texts, each but the body's under its heading.
    fn render(&self, all_variables: bool, text: impl Fn(&QueryPlan, usize) -> String) -> String {
        let texts: Vec<String> = self
            .sections(all_variables)
            .map(|(heading, plan, base)| match heading {
                Some(heading) => format!("{heading}:\n{}", text(plan, base)),
                None => text(plan, base),
            })
            .collect();
        texts.join("\n\n")
    }

    /// The paper-style plan printout with effect annotations: the body,
    /// then each optimized prolog variable and each compiled function.
    /// Rendered on request — a cached plan carries no text — for a run
    /// against `store` with `params` bound: index-servable chains are
    /// marked `,idx` when its index plane is on, and each lifted literal
    /// prints as the value bound to its slot, so a lifted program
    /// explains as the text it was lifted from (DESIGN.md §15; `&[]` for
    /// a program with none).
    pub fn explain(&self, store: &Store, params: &[Atomic]) -> String {
        let indexed = store.index_enabled();
        self.render(false, |plan, _| {
            plan.render_annotated(&self.analysis, indexed, params)
        })
    }

    /// Did any rewrite fire anywhere in the program (body, prolog
    /// variable, or declared function)?
    pub fn is_optimized(&self) -> bool {
        self.sections(false).any(|(_, plan, _)| plan.is_optimized())
    }

    /// The plan printout annotated with live per-node counters from an
    /// analyzed run against `store` with `params` bound
    /// (`Engine::explain_analyze`). Unlike the plain EXPLAIN, it shows
    /// every prolog variable: each one executed and has counters worth
    /// reading.
    pub fn explain_analyzed(
        &self,
        profile: &crate::obs::Profile,
        store: &Store,
        params: &[Atomic],
    ) -> String {
        let indexed = store.index_enabled();
        self.render(true, |plan, base| {
            plan.render_analyzed(&self.analysis, profile, base, indexed, params)
        })
    }

    /// Cross-check a captured profile against this plan's shape (node-id
    /// assignment, parent/child call and cardinality relations). Used by
    /// the obs-invariants suite.
    pub fn verify_profile(&self, profile: &crate::obs::Profile) -> Result<(), String> {
        self.sections(true).try_for_each(|(heading, plan, base)| {
            plan.verify_profile(profile, base)
                .map_err(|e| match heading {
                    Some(heading) => format!("{heading}: {e}"),
                    None => e,
                })
        })
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
/// (body, then variables, then compiled functions) and collect the
/// specialized function bodies.
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
        if plan.is_specialized() {
            let base = next_base;
            next_base += plan.node_count();
            fn_table
                .entries
                .push((f.name.clone(), f.params.clone(), plan, base));
        }
    }

    PlannedProgram {
        variables,
        body,
        functions: Arc::new(fn_table),
        analysis: compiler.into_analysis(),
    }
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
            .explain(&Store::new(), &[])
            .contains("declare function pairs"));
        assert!(planned.explain(&Store::new(), &[]).contains("Join"));
    }

    #[test]
    fn a_body_with_no_join_compiles_when_it_specializes() {
        // A batch chain, and a read-only built-in over one, run on the
        // kernels (and the index) from a call site too; a join fired in
        // neither, so the program is not optimized.
        let program = xqsyn::compile(
            r#"
            declare function local:name($a) { $a//person[@id = "person7"]/name };
            declare function local:total($a) { sum($a//closed_auction/price) };
            declare function local:plain($n) { $n + 1 };
            (local:name($auction), local:total($auction), local:plain(1))"#,
        )
        .unwrap();
        let planned = compile_program(&program);
        assert_eq!(planned.compiled_functions(), 2);
        assert!(!planned.is_optimized());
        let text = planned.explain(&Store::new(), &[]);
        assert!(text.contains("declare function local:name($a):\nSnap {\n  BatchPath"));
        assert!(text.contains("declare function local:total($a):\nSnap {\n  Call sum("));
        assert!(!text.contains("declare function local:plain"));
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
        assert!(planned
            .explain(&Store::new(), &[])
            .contains("Snap(ordered)"));
        assert!(planned.explain(&Store::new(), &[]).contains("Join"));
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
