//! Rule-based plan compilation with side-effect guards (paper §4.2–4.3).
//!
//! One rewrite, guarded by the preconditions the paper spells out:
//! **join recognition** turns `for $o in E1 for $i in E2 where K(o) = K(i)
//! return R` into a hash join ([`QueryPlan::Join`]) when
//!
//! * `E2` is *independent* of `$o` (no free occurrence),
//! * `E1` and `E2` have no effects and produce no updates (they are
//!   evaluated once instead of once per outer binding — the paper's
//!   cardinality precondition),
//! * the keys are pure and each depends on exactly one side,
//! * nothing in the query **applies** updates (`snap`): pending updates in
//!   `R` are fine ("inside an innermost snap ... can be evaluated in any
//!   order"), an inner `snap` kills the rewrite — the paper's "if we had
//!   used a snap insert ... the group-by optimization would be more
//!   difficult to detect".
//!
//! The §4.3 shape `for $o in E1 let $g := (for $i in E2 where K(o)=K(i)
//! return R) return F` is the same join with a group: it becomes
//! `MapFromItem{F}(GroupBy[o,{R}](LeftOuterJoin(E1, E2) on K))` under the
//! same guards plus one more, that `F` applies no updates either (F may
//! mention `$g` freely — it receives exactly the sequence the nested loop
//! would have produced, in the same order). When `F` fails that guard, no
//! join forms at all.

use crate::alg::plan::{
    attr_eq_parts, chain_origin, BatchFilter, BatchPathPlan, BatchStep, JoinPlan, JoinSide, Op,
    QueryPlan,
};
use crate::alg::rewrite::{chain_from, is_path};
use crate::eval::{descendant_fusion, position_blind};
use crate::functions::{self, Kind};
use crate::{Effect, EffectAnalysis};
use xqdm::atomic::CompareOp;
use xqsyn::ast::Axis;
use xqsyn::core::{Core, CoreProgram};

/// The plan compiler: effect analysis + rewrite rules.
pub struct Compiler {
    analysis: EffectAnalysis,
}

impl Compiler {
    /// A compiler for a program (analyzes its functions once).
    pub fn new(program: &CoreProgram) -> Self {
        Compiler {
            analysis: EffectAnalysis::new(program),
        }
    }

    /// The effect analysis (exposed for diagnostics and tests).
    pub fn analysis(&self) -> &EffectAnalysis {
        &self.analysis
    }

    /// Consume the compiler, keeping its effect analysis (a
    /// [`crate::alg::PlannedProgram`] holds it for analyzed
    /// re-rendering).
    pub fn into_analysis(self) -> EffectAnalysis {
        self.analysis
    }

    /// Compile a core expression to a plan. Join recognition is attempted
    /// at **every** subtree: first the join rewrite on the node itself,
    /// then [`rule_node`] through the control operators
    /// (`let`/`for`/`if`/sequence/`snap`/read-only built-in calls) so joins
    /// nested inside snap bodies, let-bound values, branches and arguments
    /// are still found. A rule node none of whose operands specialized
    /// collapses back to a single leaf of the original expression — the
    /// per-subtree fallback that keeps unoptimizable code on the strict
    /// interpreted path.
    pub fn compile(&self, core: &Core) -> QueryPlan {
        if let Some(plan) = self.try_join(core) {
            return plan;
        }
        match rule_node(core, true, |e| self.compile(e)) {
            Some(node) if node.is_specialized() => node,
            _ => self.leaf(core),
        }
    }

    /// The leaf fallback: a pure path-step chain lowers to a
    /// [`QueryPlan::BatchPath`] (batch-at-a-time kernels, DESIGN.md §14);
    /// anything else stays a strict [`QueryPlan::Iterate`].
    fn leaf(&self, core: &Core) -> QueryPlan {
        match try_batch_path(core) {
            Some(steps) => QueryPlan::BatchPath(Box::new(BatchPathPlan {
                core: core.clone(),
                steps,
            })),
            None => QueryPlan::Iterate(core.clone()),
        }
    }

    /// Run the guarded syntactic rewriting phase (§4.2) first, then
    /// compile — the full Galax-style pipeline.
    pub fn compile_simplified(&self, core: &Core) -> QueryPlan {
        self.compile(&crate::alg::rewrite::simplify(core, &self.analysis))
    }

    /// The join's guards; returns the (outer_key, inner_key) pair oriented
    /// to (outer, inner).
    #[allow(clippy::too_many_arguments)]
    fn join_guards(
        &self,
        outer_var: &str,
        outer_source: &Core,
        inner_var: &str,
        inner_source: &Core,
        k1: &Core,
        k2: &Core,
        body: &Core,
    ) -> Option<(Core, Core)> {
        // Sources are evaluated once by the join: they must be update-free
        // (cardinality guard) — and snap-free follows from that.
        if !self.analysis.effect(outer_source).cardinality_safe()
            || !self.analysis.effect(inner_source).cardinality_safe()
        {
            return None;
        }
        // Independence: the inner source must not depend on the outer
        // variable (otherwise it is a dependent loop, not a join).
        if inner_source.free_vars().contains(outer_var) {
            return None;
        }
        // The body and keys must not APPLY updates: an inner snap could
        // observe the evaluation order, which the join changes.
        if !self.analysis.effect(body).order_free() {
            return None;
        }
        // Keys: pure, and each mentioning exactly one side.
        if self.analysis.effect(k1) != Effect::Pure || self.analysis.effect(k2) != Effect::Pure {
            return None;
        }
        let (f1, f2) = (k1.free_vars(), k2.free_vars());
        let k1_outer = f1.contains(outer_var);
        let k1_inner = f1.contains(inner_var);
        let k2_outer = f2.contains(outer_var);
        let k2_inner = f2.contains(inner_var);
        let (outer_key, inner_key) = match (k1_outer, k1_inner, k2_outer, k2_inner) {
            (true, false, false, true) => (k1, k2),
            (false, true, true, false) => (k2, k1),
            _ => return None,
        };
        // The join hashes string values, while `=` casts a typed side:
        // `"03" = 3` holds. A step chain from the side's variable yields
        // untyped nodes; with at least one step, an atomic binding raises
        // as the nested loop's `where` would.
        let node_keyed = |source, var: &str, key| {
            chain_from(key, &Core::Var(var.to_string()))
                && (is_path(source) || matches!(key, Core::MapStep { .. }))
        };
        (node_keyed(outer_source, outer_var, outer_key)
            && node_keyed(inner_source, inner_var, inner_key))
        .then(|| (outer_key.clone(), inner_key.clone()))
    }

    /// Pattern: `for $o in E1 [let $g :=] for $i in E2 return if (k = k)
    /// then R else () [return F]` — the normalized form of the §2.1
    /// for-for-where query, or with the `let` the §4.3 Q8 variant.
    fn try_join(&self, core: &Core) -> Option<QueryPlan> {
        let Core::For {
            var: outer_var,
            position: None,
            source: outer_source,
            body,
        } = core
        else {
            return None;
        };
        let (group, inner) = match body.as_ref() {
            Core::Let {
                var,
                value,
                body: ret,
            } => (Some((var, ret)), value.as_ref()),
            other => (None, other),
        };
        let Core::For {
            var: inner_var,
            position: None,
            source: inner_source,
            body: inner_body,
        } = inner
        else {
            return None;
        };
        let (k1, k2, r) = match_where_eq(inner_body)?;
        let (outer_key, inner_key) =
            self.join_guards(outer_var, outer_source, inner_var, inner_source, k1, k2, r)?;
        // The group's return must not apply updates either: the join reads
        // the inner side once, before any return runs, where the nested
        // loop reads it again after each return's snap.
        if group.is_some_and(|(_, ret)| !self.analysis.effect(ret).order_free()) {
            return None;
        }
        let side = |var: &String, source: &Core, key| JoinSide {
            var: var.clone(),
            source: source.clone(),
            batch: try_batch_path(source),
            key_steps: key_steps(&key, var),
            key,
        };
        Some(QueryPlan::Join(Box::new(JoinPlan {
            outer: side(outer_var, outer_source, outer_key),
            inner: side(inner_var, inner_source, inner_key),
            body: r.clone(),
            group: group.map(|(var, ret)| (var.clone(), (**ret).clone())),
        })))
    }
}

/// The batch lowering of a join key: a pure step chain whose origin is
/// exactly the side's loop variable (the probe/build loops then run the
/// kernels straight off each bound node). Keys run per single binding,
/// where an index scan can never beat the direct kernel: the executor
/// runs them with no scan, and EXPLAIN marks them `batch` only.
fn key_steps(key: &Core, var: &str) -> Option<Vec<BatchStep>> {
    let steps = try_batch_path(key)?;
    matches!(chain_origin(key, &steps), Some(Core::Var(v)) if v == var).then_some(steps)
}

/// Recognize a path-step chain whose every step has a store kernel
/// (child / descendant / descendant-or-self / attribute axis) and whose
/// predicates are all position-blind (see [`batch_filter`]). Returns the
/// steps, outermost last, or `None` to stay on the interpreted path. What
/// they leave of `core` is its [`chain_origin`]: any expression (it is
/// evaluated once either way); an unsupported step simply becomes part
/// of the origin.
fn try_batch_path(core: &Core) -> Option<Vec<BatchStep>> {
    // A `DocOrder` wrapper is absorbed: every batch step already
    // doc-order-normalizes its output, so ddo-of-chain ≡ chain.
    let chain = match core {
        Core::DocOrder(inner) => inner,
        other => other,
    };
    let mut steps: Vec<BatchStep> = Vec::new();
    let mut cur = chain;
    while let Core::MapStep {
        base,
        axis: axis @ (Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute),
        test,
        predicates,
    } = cur
    {
        // A predicate that can see positions (a number, `position()`,
        // `last()`) or has an effect: this and everything below it stays
        // interpreted as the chain's origin.
        let Some(filters) = predicates.iter().map(batch_filter).collect() else {
            break;
        };
        // `//T` is one descendant walk, not a materialized
        // descendant-or-self step.
        let (axis, next) = match descendant_fusion(base, *axis, predicates) {
            Some(origin) => (Axis::Descendant, origin),
            None => (*axis, &**base),
        };
        steps.push(BatchStep {
            axis,
            test: test.clone(),
            filters,
        });
        cur = next;
    }
    if steps.is_empty() {
        return None;
    }
    steps.reverse();
    debug_assert!(chain_origin(core, &steps).is_some_and(|o| std::ptr::eq(o, cur)));
    Some(steps)
}

/// Recognize one admissible predicate: a value filter first (the more
/// specific shape), an existence path next, and any other predicate the
/// `//` fusion admits — one no candidate's position can change — as a
/// per-candidate [`BatchFilter::Pred`].
fn batch_filter(pred: &Core) -> Option<BatchFilter> {
    if let Some(f) = attr_eq_filter(pred) {
        return Some(f);
    }
    if let Some(chain) = existence_chain(pred) {
        return Some(BatchFilter::Exists(chain));
    }
    position_blind(pred).then(|| BatchFilter::Pred(pred.clone()))
}

/// A predicate admissible as a batch existence filter: a pure step chain
/// rooted at the context item. Such predicates always yield nodes (never
/// numbers), so the interpreter's positional semantics degenerate to the
/// non-empty test the kernels apply.
fn existence_chain(pred: &Core) -> Option<Vec<BatchStep>> {
    let steps = try_batch_path(pred)?;
    matches!(chain_origin(pred, &steps), Some(Core::ContextItem)).then_some(steps)
}

/// Recognize `[@name = V]` (either operand order, [`attr_eq_parts`]):
/// the general comparison of a context-rooted attribute step against a
/// value invariant over the chain, which the executor reads once per run
/// of the chain.
fn attr_eq_filter(pred: &Core) -> Option<BatchFilter> {
    attr_eq_parts(pred).map(|_| BatchFilter::AttrEq(pred.clone()))
}

/// The rule node of a control operator: `core`'s operator over its
/// operands, each planned by `plan`; `None` when `core` is no control
/// operator. A call is one only with `calls` set, and only of a built-in
/// that just reads: its arguments are then independent operands,
/// evaluated left to right as the call rule does.
fn rule_node(core: &Core, calls: bool, plan: impl Fn(&Core) -> QueryPlan) -> Option<QueryPlan> {
    let (op, operands): (Op, Vec<&Core>) = match core {
        Core::Seq(items) if !items.is_empty() => (Op::Seq, items.iter().collect()),
        Core::Let { var, value, body } => (Op::Let(var.clone()), vec![value, body]),
        Core::For {
            var,
            position,
            source,
            body,
        } => (Op::For(var.clone(), position.clone()), vec![source, body]),
        Core::If(cond, then, els) => (Op::If, vec![cond, then, els]),
        Core::Snap(mode, body) => (Op::Snap(*mode), vec![body]),
        Core::Call(name, args)
            if calls
                && functions::builtin(name, args.len()).is_some_and(|f| f.kind == Kind::Read) =>
        {
            (Op::Call(name.clone()), args.iter().collect())
        }
        _ => return None,
    };
    Some(QueryPlan::Rule(
        op,
        operands.into_iter().map(plan).collect(),
    ))
}

/// Compile an expression to a *structural* plan: [`rule_node`] for every
/// control operator but calls, every other expression an
/// [`QueryPlan::Iterate`] leaf — no rewriting, no simplification, no
/// collapse-back. Executing this plan is operator-for-operator identical
/// to interpreting the expression, which is exactly what
/// `explain_analyze` needs in interpreted mode: per-node counters for the
/// evaluation that would have happened anyway.
pub fn compile_structural(core: &Core) -> QueryPlan {
    rule_node(core, false, compile_structural).unwrap_or_else(|| QueryPlan::Iterate(core.clone()))
}

/// Match `if (K1 = K2) then R else ()` — a normalized `where` clause with a
/// general equality comparison.
fn match_where_eq(core: &Core) -> Option<(&Core, &Core, &Core)> {
    let Core::If(cond, then, els) = core else {
        return None;
    };
    if !matches!(els.as_ref(), Core::Seq(v) if v.is_empty()) {
        return None;
    }
    let Core::GeneralComp(CompareOp::Eq, k1, k2) = cond.as_ref() else {
        return None;
    };
    Some((k1, k2, then))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqsyn::compile as xq_compile;

    fn plan_for(query: &str) -> QueryPlan {
        let prog = xq_compile(query).expect("parse");
        Compiler::new(&prog).compile(&prog.body)
    }

    /// The join at the root of `plan`, when it has a group.
    fn grouped(plan: &QueryPlan) -> Option<&JoinPlan> {
        match plan {
            QueryPlan::Join(j) if j.group.is_some() => Some(j),
            _ => None,
        }
    }

    const Q_JOIN: &str = r#"
        for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        return insert { <buyer person="{$t/buyer/@person}"/> } into { $purchasers }"#;

    const Q8_VARIANT: &str = r#"
        for $p in $auction//person
        let $a :=
          for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return (insert { <buyer person="{$t/buyer/@person}"/> }
                  into { $purchasers }, $t)
        return <item person="{ $p/name }">{ count($a) }</item>"#;

    #[test]
    fn paper_join_query_compiles_to_hash_join() {
        let plan = plan_for(Q_JOIN);
        match &plan {
            QueryPlan::Join(j) => {
                assert_eq!(j.outer.var, "p");
                assert_eq!(j.inner.var, "t");
                assert_eq!(j.group, None);
                // Keys oriented correctly even though the where-clause
                // wrote them inner-first.
                assert!(j.outer.key.free_vars().contains("p"));
                assert!(j.inner.key.free_vars().contains("t"));
            }
            other => panic!("expected hash join, got {other:?}"),
        }
    }

    #[test]
    fn paper_q8_variant_compiles_to_outer_join_group_by() {
        let plan = plan_for(Q8_VARIANT);
        let j =
            grouped(&plan).unwrap_or_else(|| panic!("expected outer-join/group-by, got {plan:?}"));
        assert_eq!(j.group.as_ref().unwrap().0, "a");
        assert_eq!(j.outer.var, "p");
        // The §4.3 printout shape.
        let rendered = plan.render();
        assert!(rendered.contains("GroupBy"));
        assert!(rendered.contains("LeftOuterJoin"));
        assert!(rendered.contains("MapFromItem"));
        assert!(rendered.starts_with("Snap {"));
    }

    #[test]
    fn snap_in_body_suppresses_the_rewrite() {
        // §4.3: "if we had used a snap insert at line 5 of the source code,
        // the group-by optimization would be more difficult to detect". A
        // snap in the group's return is refused as well: it would observe
        // the body's pending updates mid-join (and the inner loop alone is
        // no join).
        for q in [
            r#"
            for $p in $auction//person
            let $a :=
              for $t in $auction//closed_auction
              where $t/buyer/@person = $p/@id
              return (snap insert { <buyer/> } into { $purchasers }, $t)
            return <item>{ count($a) }</item>"#,
            r#"
            for $p in $auction//person
            let $a :=
              for $t in $auction//closed_auction
              where $t/buyer/@person = $p/@id
              return $t
            return (snap insert { <seen/> } into { $log }, count($a))"#,
        ] {
            // No join — but the path sources still lower to batch chains.
            let plan = plan_for(q);
            assert!(!plan.is_optimized(), "{q}:\n{}", plan.render());
            assert!(plan.is_batched());
        }
    }

    #[test]
    fn pending_updates_in_body_do_not_suppress() {
        // The insert (no snap) is fine: pending updates are effect-free.
        assert!(plan_for(Q8_VARIANT).is_optimized());
    }

    #[test]
    fn dependent_inner_source_suppresses() {
        let q = r#"
            for $p in $auction//person
            for $t in $p//closed_auction
            where $t/buyer/@person = $p/@id
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn updating_source_suppresses() {
        // A source with updates cannot be evaluated once (cardinality).
        let q = r#"
            for $p in (insert { <x/> } into { $d }, $auction//person)
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn cross_side_keys_suppress() {
        // Both keys mention $p: not a proper equi-join.
        let q = r#"
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $p/@id = $p/@name
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn non_equality_predicates_suppress() {
        let q = r#"
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person < $p/@id
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn snap_via_function_call_suppresses() {
        // The effect judgment chases calls (the "monadic rule").
        let q = r#"
            declare function log_it($x) { snap insert { <l/> } into { $log } };
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return log_it($t)"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn pure_function_calls_do_not_suppress() {
        let q = r#"
            declare function fmt($x) { <m>{ $x }</m> };
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return fmt($t)"#;
        assert!(plan_for(q).is_optimized());
    }

    #[test]
    fn path_chains_lower_to_batch_steps() {
        // A pure child/descendant chain becomes one BatchPath leaf whose
        // steps mirror the source path left-to-right.
        let plan = plan_for("$auction//person/name");
        match &plan {
            QueryPlan::BatchPath(bp) => {
                // `//` desugars to descendant-or-self::node()/child::*,
                // which the peephole fuses back to one descendant step.
                assert_eq!(bp.steps.len(), 2);
                assert!(matches!(bp.steps[0].axis, Axis::Descendant));
                assert!(matches!(bp.steps[1].axis, Axis::Child));
                assert!(bp.steps.iter().all(|s| s.filters.is_empty()));
            }
            other => panic!("expected batch path, got {other:?}"),
        }
        assert!(plan.is_batched());
        assert!(!plan.is_optimized());
    }

    #[test]
    fn existence_predicates_become_batch_filters() {
        let plan = plan_for("$auction//person[address/city]");
        match &plan {
            QueryPlan::BatchPath(bp) => {
                assert_eq!(bp.steps.len(), 1);
                assert!(matches!(bp.steps[0].axis, Axis::Descendant));
                assert_eq!(bp.steps[0].filters.len(), 1);
                match &bp.steps[0].filters[0] {
                    BatchFilter::Exists(chain) => assert_eq!(chain.len(), 2),
                    other => panic!("expected existence filter, got {other:?}"),
                }
            }
            other => panic!("expected batch path, got {other:?}"),
        }
    }

    #[test]
    fn value_predicates_become_attr_eq_filters() {
        // Both operand orders recognize, and a non-literal comparison
        // falls back to the interpreted origin.
        for q in [
            r#"$auction//person[@id = "person0"]"#,
            r#"$auction//person["person0" = @id]"#,
        ] {
            let plan = plan_for(q);
            let QueryPlan::BatchPath(bp) = &plan else {
                panic!("expected batch path for {q}, got {plan:?}");
            };
            assert_eq!(bp.steps.len(), 1);
            let [BatchFilter::AttrEq(pred)] = bp.steps[0].filters.as_slice() else {
                panic!("expected one value filter for {q}, got {plan:?}");
            };
            assert_eq!(attr_eq_parts(pred), Some(("id", &Core::str("person0"))));
        }
        // A variable and a lifted literal are values too, read once per
        // run of the chain.
        let skeleton = xqsyn::Skeleton::of(r#"$auction//person[@id = "person0"]"#);
        let lifted = xqsyn::compile_lifted(&skeleton, xqsyn::DEFAULT_MAX_PARSE_DEPTH).unwrap();
        for (plan, value) in [
            (
                plan_for("$auction//person[@id = $id]"),
                Core::Var("id".into()),
            ),
            (Compiler::new(&lifted).compile(&lifted.body), Core::Param(0)),
        ] {
            let QueryPlan::BatchPath(bp) = &plan else {
                panic!("expected batch path, got {plan:?}");
            };
            let [BatchFilter::AttrEq(pred)] = bp.steps[0].filters.as_slice() else {
                panic!("expected one value filter, got {plan:?}");
            };
            assert_eq!(attr_eq_parts(pred), Some(("id", &value)));
        }
        // `@id = @ref` names no literal: not a value filter but a
        // per-candidate predicate, which never makes a step index-eligible
        // (over a wildcard test only a value filter could).
        let plan = plan_for("$auction//person[@id = @ref]");
        let QueryPlan::BatchPath(bp) = &plan else {
            panic!("expected batch path, got {plan:?}");
        };
        assert!(
            matches!(bp.steps[0].filters.as_slice(), [BatchFilter::Pred(_)]),
            "non-literal comparison must not become a value filter: {plan:?}"
        );
        for (q, idx) in [
            ("$auction//*[@id = @ref]", false),
            (r#"$auction//*[@id = "person0"]"#, true),
        ] {
            let plan = plan_for(q);
            let QueryPlan::BatchPath(bp) = &plan else {
                panic!("expected batch path for {q}, got {plan:?}");
            };
            assert_eq!(bp.steps.iter().any(BatchStep::index_servable), idx, "{q}");
        }
    }

    #[test]
    fn index_servability_is_the_chain_shape_alone() {
        // The compiler reads no store: one plan for every index state, and
        // EXPLAIN marks it `,idx` only when the rendering store's plane is
        // on.
        let plan = plan_for(r#"$auction//person[@id = "p7"]"#);
        let QueryPlan::BatchPath(bp) = &plan else {
            panic!("expected batch path");
        };
        assert!(bp.steps.iter().any(BatchStep::index_servable));
        let analysis = EffectAnalysis::empty();
        assert!(plan
            .render_annotated(&analysis, true, &[])
            .contains(",batch,idx]"));
        assert!(!plan
            .render_annotated(&analysis, false, &[])
            .contains(",idx"));
        assert!(!plan.render().contains(",idx"));
        // Attribute-axis chains have no name-only index: not servable.
        let QueryPlan::BatchPath(bp) = plan_for("$auction/@id") else {
            panic!("expected batch path");
        };
        assert!(
            !bp.steps.iter().any(BatchStep::index_servable),
            "attribute axis is not index-servable"
        );
    }

    #[test]
    fn positional_predicates_stay_interpreted() {
        // A numeric predicate is position-sensitive: the chain must not
        // lower to the existence-filter kernels.
        let plan = plan_for("$auction//person[1]/name");
        match &plan {
            QueryPlan::BatchPath(bp) => {
                // Only the tail step past the predicate is batched; the
                // predicated step stays inside the interpreted origin.
                assert_eq!(bp.steps.len(), 1);
                assert!(matches!(bp.steps[0].axis, Axis::Child));
            }
            QueryPlan::Iterate(_) => {}
            other => panic!("unexpected plan {other:?}"),
        }
    }

    /// The plan the engine builds: rewriting phase, then compilation.
    #[test]
    fn only_untyped_keys_join() {
        for (q, joined) in [
            (
                "for $x in $xs for $y in $ys where $x/@k = $y/@k return $y",
                true,
            ),
            (
                "for $x in $s//x for $y in $s//y where $x = $y return $y",
                true,
            ),
            // `=` would cast the typed key; the hash compares strings.
            (
                "for $x in $s//x for $y in $s//y where $x/@k = $y/@k + 0 return $y",
                false,
            ),
            (
                "for $x in $s//x for $y in $s//y where string($x/@k) = $y/@k return $y",
                false,
            ),
            // A bare variable over a non-path source may be atomic.
            (
                "for $x in $xs for $y in $s//y where $x = $y/@k return $y",
                false,
            ),
            // A predicate in a key.
            (
                "for $x in $s//x for $y in $s//y where $x/a[1] = $y/@k return $y",
                false,
            ),
        ] {
            assert_eq!(plan_for(q).is_optimized(), joined, "{q}");
        }
    }

    fn simplified_plan(query: &str) -> QueryPlan {
        let prog = xq_compile(query).expect("parse");
        Compiler::new(&prog).compile_simplified(&prog.body)
    }

    /// Correlated path predicates the rewriter unnests: each becomes the
    /// outer join + group-by, with no `Iterate` left under `For $p`.
    const UNNESTED: &[&str] = &[
        "for $p in $auction//person
         return count($auction//closed_auction[buyer/@person = $p/@id])",
        "for $p in $auction//person
         where exists($auction//closed_auction[buyer/@person = $p/@id])
         return $p/name",
        "for $p in $auction//person
         return if (empty($auction//closed_auction[buyer/@person = $p/@id]))
                then string($p/@id) else ()",
        // A predicate nested in a predicate of `P`.
        "for $p in $auction//person
         return count($auction//closed_auction[itemref[starts-with(@item, 'item1')]]
                                              [buyer/@person = $p/@id])",
        // Two predicates in one loop.
        "for $p in $auction//person
         return (count($auction//closed_auction[buyer/@person = $p/@id]),
                 count($auction//closed_auction[seller/@person = $p/@id]))",
    ];

    /// Occurrences the guards refuse: each stays a predicate evaluated
    /// inside the loop's body, once per `$p`.
    const REFUSED: &[&str] = &[
        // Positional: the last predicate is a position test.
        "for $p in $auction//person
         return count($auction//closed_auction[buyer/@person = $p/@id][1])",
        // A declared function in the predicate.
        "declare function local:id($x) { $x/@id };
         for $p in $auction//person
         return count($auction//closed_auction[buyer/@person = local:id($p)])",
        // The right side reads the context item.
        "for $p in $auction//person
         return count($auction//closed_auction[buyer/@person = concat($p/@id, .)])",
        // A predicate nested in the right side, which is then no step
        // chain from `$p`.
        "for $p in $auction//person
         return count($auction//closed_auction[buyer/@person =
                      $auction//person[@id = $p/@id]/@id])",
        // A typed right side: `=` would cast, the join compares strings.
        "for $p in $auction//person
         return count($auction//closed_auction[buyer/@person = $p/@id + 0])",
        // Inside an `if` branch, evaluated on some iterations only.
        "for $p in $auction//person
         return if ($p/@id) then count($auction//closed_auction[buyer/@person = $p/@id])
                else 0",
    ];

    #[test]
    fn correlated_predicates_unnest_to_outer_join_group_by() {
        for q in UNNESTED {
            let plan = simplified_plan(q);
            let rendered = plan.render();
            assert!(grouped(&plan).is_some(), "{q}:\n{rendered}");
            assert!(!rendered.contains("Iterate"), "{q}:\n{rendered}");
        }
    }

    #[test]
    fn guarded_predicates_stay_in_the_loop() {
        for q in REFUSED {
            let plan = simplified_plan(q);
            let rendered = plan.render();
            // Never a join, anywhere in the plan.
            assert!(!plan.is_optimized(), "{q}:\n{rendered}");
            // The predicate runs in the body of the loop over `$p`.
            let QueryPlan::Rule(Op::For(var, _), operands) = &plan else {
                panic!("expected the loop over $p:\n{rendered}");
            };
            assert_eq!(var, "p", "{q}:\n{rendered}");
            let [_, body] = operands.as_slice() else {
                panic!("a For has a source and a body:\n{rendered}");
            };
            assert!(
                body.render().contains("closed_auction["),
                "{q}:\n{rendered}"
            );
        }
    }

    #[test]
    fn q8_join_sides_and_keys_are_batched() {
        let plan = plan_for(Q8_VARIANT);
        let j = grouped(&plan).expect("expected outer-join/group-by");
        assert!(j.outer.batch.is_some(), "outer source should batch");
        assert!(j.inner.batch.is_some(), "inner source should batch");
        let okey = j.outer.key_steps.as_ref().expect("outer key steps");
        let ikey = j.inner.key_steps.as_ref().expect("inner key steps");
        // $t/buyer/@person and $p/@id respectively.
        assert_eq!(okey.len(), 1);
        assert_eq!(ikey.len(), 2);
        assert!(matches!(okey[0].axis, Axis::Attribute));
        assert!(matches!(ikey[1].axis, Axis::Attribute));
        assert!(j.is_batched());
        assert!(plan.render().contains(",batch"));
    }
}
