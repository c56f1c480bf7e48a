//! Logical query plans (paper §4.2–4.3).
//!
//! The plan language mirrors the operators the paper's compiled plan uses —
//! `MapFromItem`, `GroupBy`, `LeftOuterJoin`, `Snap` — with two families of
//! nodes:
//!
//! * **Join nodes**, produced by the guarded rewrites:
//!   [`QueryPlan::HashJoin`] (the §2.1 purchasers query) and
//!   [`QueryPlan::OuterJoinGroupBy`] (the §4.3 XMark Q8 variant).
//! * **Structural nodes** ([`QueryPlan::Seq`], [`QueryPlan::Let`],
//!   [`QueryPlan::For`], [`QueryPlan::If`], [`QueryPlan::Snap`]), which
//!   mirror the core control operators one-for-one so that join
//!   recognition reaches *into* snap bodies, let-bound subqueries, and
//!   branches — the paper's point that the effect-free interior of an
//!   innermost snap is where classical optimization is recovered.
//!
//! Anything the rewrites cannot prove safe stays [`QueryPlan::Iterate`]
//! (the naive nested-loop evaluation of the core expression) — that is
//! exactly the paper's guard story: the preconditions, not the rewrite,
//! carry the semantics. The compiler collapses any structural subtree with
//! no join descendant back to a single `Iterate`, so structural nodes only
//! appear on the spine that leads to an optimized operator.

use crate::EffectAnalysis;
use crate::SnapMode;
use std::fmt;
use xqsyn::ast::{Axis, NodeTest};
use xqsyn::core::Core;

/// A compiled query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// No rewrite applied: evaluate the core expression as-is (nested
    /// loops, strict left-to-right order). Always safe.
    Iterate(Core),
    /// `for $o in outer, $i in inner where key(o) = key(i) return body`
    /// as a typed hash join.
    HashJoin(JoinPlan),
    /// `for $o in outer let $g := (for $i in inner where k(o)=k(i) return
    /// item) return body` as LeftOuterJoin + GroupBy + MapFromItem.
    OuterJoinGroupBy(GroupByPlan),
    /// A sequence whose elements execute left to right, values and Δs
    /// concatenated — the plan mirror of `Core::Seq`.
    Seq(Vec<QueryPlan>),
    /// `let $var := value return body` with compiled subplans.
    Let {
        /// The bound variable.
        var: String,
        /// The bound value's plan (executed once).
        value: Box<QueryPlan>,
        /// The body's plan, with `var` in scope.
        body: Box<QueryPlan>,
    },
    /// `for $var [at $position] in source return body` with compiled
    /// subplans; the body executes once per source item, in order.
    For {
        /// The loop variable.
        var: String,
        /// The positional variable, if declared.
        position: Option<String>,
        /// The source's plan (executed once).
        source: Box<QueryPlan>,
        /// The body's plan, executed per binding.
        body: Box<QueryPlan>,
    },
    /// `if (cond) then … else …` with compiled subplans.
    If {
        /// The condition's plan (effective boolean value decides).
        cond: Box<QueryPlan>,
        /// The then-branch plan.
        then: Box<QueryPlan>,
        /// The else-branch plan.
        els: Box<QueryPlan>,
    },
    /// An explicit `snap` scope: push a fresh Δ, execute the body plan,
    /// apply under `mode` — identical Δ discipline to the interpreter.
    Snap {
        /// The Δ-application mode.
        mode: SnapMode,
        /// The body's plan.
        body: Box<QueryPlan>,
    },
    /// A pure path-step chain lowered to batch-at-a-time execution
    /// (DESIGN.md §14): each step maps the whole `Vec<NodeId>` batch
    /// through a store kernel with the name test resolved to interned
    /// symbol ids, then doc-order sorts and dedups — observably identical
    /// to step-at-a-time interpretation of the same chain.
    BatchPath(BatchPathPlan),
}

/// The batch lowering of a path-step chain.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPathPlan {
    /// The chain's origin expression (anything; evaluated once by the
    /// interpreter, exactly as `Core::MapStep` evaluates its base).
    pub input: Core,
    /// The steps, applied left to right over the whole batch.
    pub steps: Vec<BatchStep>,
    /// The original core expression (rendering and effect annotation).
    pub core: Core,
    /// Index eligibility (DESIGN.md §17): the store's secondary indexes
    /// were available at plan time and at least one step has an
    /// index-servable shape (a name test on an element axis, or an
    /// `[@a = "v"]` filter). Rendered as `,idx`; the executor still
    /// applies its runtime cost and OCC gates per scan.
    pub idx: bool,
}

/// One batched path step. Only the axes with store kernels appear here
/// (child, descendant, descendant-or-self, attribute); the compiler
/// leaves chains using other axes on the interpreted path.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStep {
    /// The axis (kernel dispatch).
    pub axis: Axis,
    /// The node test, resolved against the store's interner at run time.
    pub test: NodeTest,
    /// Predicate filters, applied to each candidate the step emits.
    /// Pure path predicates are position-insensitive, so per-candidate
    /// filtering coincides with the interpreter's per-origin positional
    /// semantics.
    pub filters: Vec<BatchFilter>,
}

/// One batched predicate filter (see [`BatchStep::filters`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchFilter {
    /// An existence filter: a nested pure step chain applied to the
    /// candidate node, which survives iff the chain's result is
    /// non-empty. Such predicates always yield nodes (never numbers),
    /// so positional semantics degenerate to the non-empty test.
    Exists(Vec<BatchStep>),
    /// A value filter `[@name = "value"]`: the candidate survives iff it
    /// carries an attribute `name` whose string value equals `value`
    /// exactly (general comparison of an untyped attribute against a
    /// string literal *is* string equality). This is the shape the
    /// attribute-value hash index serves (DESIGN.md §17).
    AttrEq {
        /// The attribute's lexical name.
        name: String,
        /// The literal value compared against.
        value: String,
    },
}

/// The join core shared by both optimized shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Outer loop variable.
    pub outer_var: String,
    /// Outer loop source (evaluated once).
    pub outer_source: Core,
    /// Inner loop variable.
    pub inner_var: String,
    /// Inner loop source (evaluated once — the whole point of the join).
    pub inner_source: Core,
    /// Join key over the outer variable.
    pub outer_key: Core,
    /// Join key over the inner variable.
    pub inner_key: Core,
    /// Per-match body (the `return` of the inner loop), with both
    /// variables in scope. May carry pending updates — the guards only
    /// exclude `snap`.
    pub body: Core,
    /// Batch lowering of `outer_source`, when it is a pure step chain.
    pub outer_batch: Option<BatchPathPlan>,
    /// Batch lowering of `inner_source`, when it is a pure step chain.
    pub inner_batch: Option<BatchPathPlan>,
    /// Batch lowering of `outer_key` relative to `outer_var`: the probe
    /// runs these steps from each outer node instead of re-entering the
    /// interpreter per binding.
    pub outer_key_steps: Option<Vec<BatchStep>>,
    /// Batch lowering of `inner_key` relative to `inner_var` (build side).
    pub inner_key_steps: Option<Vec<BatchStep>>,
}

impl JoinPlan {
    /// Is any side's source or key batch-lowered?
    pub fn is_batched(&self) -> bool {
        self.outer_batch.is_some()
            || self.inner_batch.is_some()
            || self.outer_key_steps.is_some()
            || self.inner_key_steps.is_some()
    }
}

/// The outer-join/group-by shape: joins like [`JoinPlan`], then groups the
/// per-match values under `group_var` for each outer binding and evaluates
/// `ret`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByPlan {
    /// The underlying join.
    pub join: JoinPlan,
    /// The `let` variable receiving the grouped sequence.
    pub group_var: String,
    /// The outer `return`, with `outer_var` and `group_var` in scope.
    pub ret: Core,
}

impl QueryPlan {
    /// Was a *join* rewrite applied anywhere in the plan? Batch path
    /// lowering is deliberately excluded: it is a physical execution
    /// strategy, not the paper's guarded algebraic rewriting — see
    /// [`QueryPlan::is_batched`].
    pub fn is_optimized(&self) -> bool {
        match self {
            QueryPlan::Iterate(_) | QueryPlan::BatchPath(_) => false,
            QueryPlan::HashJoin(_) | QueryPlan::OuterJoinGroupBy(_) => true,
            QueryPlan::Seq(items) => items.iter().any(QueryPlan::is_optimized),
            QueryPlan::Let { value, body, .. } => value.is_optimized() || body.is_optimized(),
            QueryPlan::For { source, body, .. } => source.is_optimized() || body.is_optimized(),
            QueryPlan::If { cond, then, els } => {
                cond.is_optimized() || then.is_optimized() || els.is_optimized()
            }
            QueryPlan::Snap { body, .. } => body.is_optimized(),
        }
    }

    /// Does any node execute batch-at-a-time — a [`QueryPlan::BatchPath`]
    /// leaf, or a join with batched sources/keys?
    pub fn is_batched(&self) -> bool {
        match self {
            QueryPlan::Iterate(_) => false,
            QueryPlan::BatchPath(_) => true,
            QueryPlan::HashJoin(j) => j.is_batched(),
            QueryPlan::OuterJoinGroupBy(g) => g.join.is_batched(),
            QueryPlan::Seq(items) => items.iter().any(QueryPlan::is_batched),
            QueryPlan::Let { value, body, .. } => value.is_batched() || body.is_batched(),
            QueryPlan::For { source, body, .. } => source.is_batched() || body.is_batched(),
            QueryPlan::If { cond, then, els } => {
                cond.is_batched() || then.is_batched() || els.is_batched()
            }
            QueryPlan::Snap { body, .. } => body.is_batched(),
        }
    }

    /// Did compilation specialize anything here — a join rewrite or a
    /// batch lowering? The compiler keeps a structural spine only above
    /// specialized nodes.
    pub fn is_specialized(&self) -> bool {
        self.is_optimized() || self.is_batched()
    }

    /// Number of plan nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        1 + match self {
            QueryPlan::Iterate(_)
            | QueryPlan::BatchPath(_)
            | QueryPlan::HashJoin(_)
            | QueryPlan::OuterJoinGroupBy(_) => 0,
            QueryPlan::Seq(items) => items.iter().map(QueryPlan::node_count).sum(),
            QueryPlan::Let { value, body, .. } => value.node_count() + body.node_count(),
            QueryPlan::For { source, body, .. } => source.node_count() + body.node_count(),
            QueryPlan::If { cond, then, els } => {
                cond.node_count() + then.node_count() + els.node_count()
            }
            QueryPlan::Snap { body, .. } => body.node_count(),
        }
    }

    /// The paper-style plan printout (§4.3 prints
    /// `Snap { MapFromItem {...} (GroupBy [...] (LeftOuterJoin(...))) }`).
    /// The outermost `Snap` is the implicit top-level one.
    pub fn render(&self) -> String {
        format!(
            "Snap {{\n{}\n}}",
            indent(&self.render_node(None, None, 0), 2)
        )
    }

    /// [`QueryPlan::render`] with effect annotations: every `Iterate` leaf
    /// and join body carries its place on the effect lattice, showing
    /// *why* each guard admitted (or would reject) a rewrite.
    pub fn render_annotated(&self, analysis: &EffectAnalysis) -> String {
        format!(
            "Snap {{\n{}\n}}",
            indent(&self.render_node(Some(analysis), None, 0), 2)
        )
    }

    /// [`QueryPlan::render_annotated`] plus live per-node counters from an
    /// analyzed run: every operator's head line gains
    /// `(calls=… time=… rows=in→out Δ=incl/self)` (or `(never executed)`).
    /// `base` is this plan's first node id in the profile (plans for prolog
    /// variables and compiled functions are numbered after the body's).
    pub fn render_analyzed(
        &self,
        analysis: &EffectAnalysis,
        profile: &crate::obs::Profile,
        base: usize,
    ) -> String {
        format!(
            "Snap {{\n{}\n}}",
            indent(&self.render_node(Some(analysis), Some(profile), base), 2)
        )
    }

    fn render_node(
        &self,
        analysis: Option<&EffectAnalysis>,
        profile: Option<&crate::obs::Profile>,
        base: usize,
    ) -> String {
        // `par` marks a region the parallel gate admits for fan-out
        // (DESIGN.md §9) — `Facts::par_safe`, the predicate the executor
        // asks at run time, over the same analysis: on a join body the
        // body itself, on an `Iterate` leaf any `for` loop inside it.
        let eff = |core: &Core, par: fn(&EffectAnalysis, &Core) -> bool| match analysis {
            Some(a) if par(a, core) => format!("[{:?},par]", a.effect(core)),
            Some(a) => format!("[{:?}]", a.effect(core)),
            None => String::new(),
        };
        let eff_loop = |core: &Core| eff(core, EffectAnalysis::has_par_loop);
        let eff_body = |core: &Core| eff(core, |a, body| a.facts(body).par_safe());
        // `batch` marks a subexpression lowered to the batch step kernels
        // (DESIGN.md §14): a whole chain leaf, a join source, or a join
        // key evaluated by symbol-id compare instead of interpretation.
        // `idx` additionally marks a chain the secondary indexes may
        // serve (DESIGN.md §17) — the runtime cost gate decides per scan.
        let mark = |on: bool| if on { ",batch" } else { "" };
        let bmark = |b: &Option<BatchPathPlan>| match b {
            Some(bp) if bp.idx => ",batch,idx",
            Some(_) => ",batch",
            None => "",
        };
        let text = match self {
            QueryPlan::Iterate(core) => format!("Iterate{} {{ {core} }}", eff_loop(core)),
            QueryPlan::BatchPath(bp) => {
                let idx = if bp.idx { ",idx" } else { "" };
                let eff = match analysis {
                    Some(a) => format!("[{:?},batch{idx}]", a.effect(&bp.core)),
                    None => format!("[batch{idx}]"),
                };
                format!("BatchPath{eff} {{ {} }}", bp.core)
            }
            QueryPlan::HashJoin(j) => format!(
                "MapFromItem{eb} {{ {body} }}\n(Join( MapFromItem{{[{o}:Input]{ob}}}\n   \
                 ({osrc}),\n       MapFromItem{{[{i}:Input]{ib}}}\n   ({isrc}))\n  on {{ \
                 Input#{i}/{ikey}{ikb} = Input#{o}/{okey}{okb} }}\n)",
                eb = eff_body(&j.body),
                body = j.body,
                o = j.outer_var,
                ob = bmark(&j.outer_batch),
                osrc = j.outer_source,
                i = j.inner_var,
                ib = bmark(&j.inner_batch),
                isrc = j.inner_source,
                ikey = strip_var(&j.inner_key, &j.inner_var),
                ikb = mark(j.inner_key_steps.is_some()),
                okey = strip_var(&j.outer_key, &j.outer_var),
                okb = mark(j.outer_key_steps.is_some()),
            ),
            QueryPlan::OuterJoinGroupBy(g) => format!(
                "MapFromItem{er} {{\n  {ret}\n}}\n(GroupBy [ Input#{o}, {{ {body} }}{eb} \
                 ]\n  ( LeftOuterJoin( MapFromItem{{[{o}:Input]{ob}}}\n     \
                 ({osrc}),\n                   MapFromItem{{[{i}:Input]{ib}}}\n     \
                 ({isrc}))\n    on {{ Input#{i}/{ikey}{ikb} = Input#{o}/{okey}{okb} }}\n  )\n)",
                er = eff_body(&g.ret),
                ret = g.ret,
                o = g.join.outer_var,
                ob = bmark(&g.join.outer_batch),
                body = g.join.body,
                eb = eff_body(&g.join.body),
                osrc = g.join.outer_source,
                i = g.join.inner_var,
                ib = bmark(&g.join.inner_batch),
                isrc = g.join.inner_source,
                ikey = strip_var(&g.join.inner_key, &g.join.inner_var),
                ikb = mark(g.join.inner_key_steps.is_some()),
                okey = strip_var(&g.join.outer_key, &g.join.outer_var),
                okb = mark(g.join.outer_key_steps.is_some()),
            ),
            QueryPlan::Seq(items) => {
                let mut child = base + 1;
                let mut parts: Vec<String> = Vec::with_capacity(items.len());
                for p in items {
                    parts.push(indent(&p.render_node(analysis, profile, child), 2));
                    child += p.node_count();
                }
                format!("Seq [\n{}\n]", parts.join(",\n"))
            }
            QueryPlan::Let { var, value, body } => {
                let value_id = base + 1;
                let body_id = value_id + value.node_count();
                format!(
                    "Let ${var} := {{\n{}\n}} In {{\n{}\n}}",
                    indent(&value.render_node(analysis, profile, value_id), 2),
                    indent(&body.render_node(analysis, profile, body_id), 2),
                )
            }
            QueryPlan::For {
                var,
                position,
                source,
                body,
            } => {
                let pos = position
                    .as_ref()
                    .map(|p| format!(" at ${p}"))
                    .unwrap_or_default();
                // A plan-level `For` with a pure Iterate body fans out
                // exactly like the interpreter loop the leaf used to show
                // the marker on — keep the marker visible on the spine.
                let par = match (analysis, body.as_ref()) {
                    (Some(a), QueryPlan::Iterate(core)) if a.facts(core).par_safe() => "[par]",
                    _ => "",
                };
                let source_id = base + 1;
                let body_id = source_id + source.node_count();
                format!(
                    "For ${var}{pos}{par} In {{\n{}\n}} Do {{\n{}\n}}",
                    indent(&source.render_node(analysis, profile, source_id), 2),
                    indent(&body.render_node(analysis, profile, body_id), 2),
                )
            }
            QueryPlan::If { cond, then, els } => {
                let cond_id = base + 1;
                let then_id = cond_id + cond.node_count();
                let els_id = then_id + then.node_count();
                format!(
                    "If {{\n{}\n}} Then {{\n{}\n}} Else {{\n{}\n}}",
                    indent(&cond.render_node(analysis, profile, cond_id), 2),
                    indent(&then.render_node(analysis, profile, then_id), 2),
                    indent(&els.render_node(analysis, profile, els_id), 2),
                )
            }
            QueryPlan::Snap { mode, body } => {
                let label = match mode {
                    SnapMode::Ordered => "ordered",
                    SnapMode::Nondeterministic => "nondeterministic",
                    SnapMode::ConflictDetection => "conflict-detection",
                };
                format!(
                    "Snap({label}) {{\n{}\n}}",
                    indent(&body.render_node(analysis, profile, base + 1), 2)
                )
            }
        };
        match profile {
            Some(p) => annotate_head(&text, p.node(base)),
            None => text,
        }
    }
}

impl QueryPlan {
    /// Cross-check an analyzed run's profile against this plan's shape:
    /// node-id assignment and the parent/child call & cardinality
    /// relations every structural operator guarantees. Only sound for
    /// *successful* runs (an error aborts mid-operator, legitimately
    /// leaving later siblings with fewer calls) and for nodes that did not
    /// fan out (`par_regions > 0` skips the node's relations: fanned-out
    /// iterations attribute to the parent, so child counters legitimately
    /// lag). The obs-invariants suite drives this.
    pub fn verify_profile(&self, profile: &crate::obs::Profile, base: usize) -> Result<(), String> {
        let n = profile.node(base);
        let label = match self {
            QueryPlan::Iterate(_) => "Iterate",
            QueryPlan::BatchPath(_) => "BatchPath",
            QueryPlan::HashJoin(_) => "HashJoin",
            QueryPlan::OuterJoinGroupBy(_) => "OuterJoinGroupBy",
            QueryPlan::Seq(_) => "Seq",
            QueryPlan::Let { .. } => "Let",
            QueryPlan::For { .. } => "For",
            QueryPlan::If { .. } => "If",
            QueryPlan::Snap { .. } => "Snap",
        };
        let fail = |what: String| Err(format!("node {base} ({label}): {what}"));
        let check = n.calls > 0 && n.incl.par_regions == 0;
        match self {
            QueryPlan::Iterate(_)
            | QueryPlan::BatchPath(_)
            | QueryPlan::HashJoin(_)
            | QueryPlan::OuterJoinGroupBy(_) => Ok(()),
            QueryPlan::Seq(items) => {
                let mut child = base + 1;
                let mut out_sum = 0u64;
                for p in items {
                    let c = profile.node(child);
                    if check && c.calls != n.calls {
                        return fail(format!(
                            "seq child {child} ran {} times, parent {}",
                            c.calls, n.calls
                        ));
                    }
                    out_sum += c.output_rows;
                    p.verify_profile(profile, child)?;
                    child += p.node_count();
                }
                if check && out_sum != n.output_rows {
                    return fail(format!(
                        "seq children output {out_sum} rows, parent {}",
                        n.output_rows
                    ));
                }
                Ok(())
            }
            QueryPlan::Let { value, body, .. } => {
                let value_id = base + 1;
                let body_id = value_id + value.node_count();
                let (v, b) = (profile.node(value_id), profile.node(body_id));
                if check {
                    if v.calls != n.calls || b.calls != n.calls {
                        return fail(format!(
                            "let ran {} times, value {} / body {}",
                            n.calls, v.calls, b.calls
                        ));
                    }
                    if n.input_rows != v.output_rows {
                        return fail(format!(
                            "let bound {} rows, value produced {}",
                            n.input_rows, v.output_rows
                        ));
                    }
                    if n.output_rows != b.output_rows {
                        return fail(format!(
                            "let output {} rows, body produced {}",
                            n.output_rows, b.output_rows
                        ));
                    }
                }
                value.verify_profile(profile, value_id)?;
                body.verify_profile(profile, body_id)
            }
            QueryPlan::For { source, body, .. } => {
                let source_id = base + 1;
                let body_id = source_id + source.node_count();
                let (s, b) = (profile.node(source_id), profile.node(body_id));
                if check {
                    if s.calls != n.calls {
                        return fail(format!("for ran {} times, source {}", n.calls, s.calls));
                    }
                    if n.input_rows != s.output_rows {
                        return fail(format!(
                            "for consumed {} rows, source produced {}",
                            n.input_rows, s.output_rows
                        ));
                    }
                    if b.calls != n.input_rows {
                        return fail(format!(
                            "for iterated {} times, body ran {}",
                            n.input_rows, b.calls
                        ));
                    }
                    if n.output_rows != b.output_rows {
                        return fail(format!(
                            "for output {} rows, body produced {}",
                            n.output_rows, b.output_rows
                        ));
                    }
                }
                source.verify_profile(profile, source_id)?;
                body.verify_profile(profile, body_id)
            }
            QueryPlan::If { cond, then, els } => {
                let cond_id = base + 1;
                let then_id = cond_id + cond.node_count();
                let els_id = then_id + then.node_count();
                let c = profile.node(cond_id);
                let t = profile.node(then_id);
                let e = profile.node(els_id);
                if check {
                    if c.calls != n.calls {
                        return fail(format!("if ran {} times, cond {}", n.calls, c.calls));
                    }
                    if n.input_rows != c.output_rows {
                        return fail(format!(
                            "if consumed {} rows, cond produced {}",
                            n.input_rows, c.output_rows
                        ));
                    }
                    if t.calls + e.calls != n.calls {
                        return fail(format!(
                            "if ran {} times, branches ran {} + {}",
                            n.calls, t.calls, e.calls
                        ));
                    }
                    if n.output_rows != t.output_rows + e.output_rows {
                        return fail(format!(
                            "if output {} rows, branches produced {} + {}",
                            n.output_rows, t.output_rows, e.output_rows
                        ));
                    }
                }
                cond.verify_profile(profile, cond_id)?;
                then.verify_profile(profile, then_id)?;
                els.verify_profile(profile, els_id)
            }
            QueryPlan::Snap { body, .. } => {
                let b = profile.node(base + 1);
                if check {
                    if b.calls != n.calls {
                        return fail(format!("snap ran {} times, body {}", n.calls, b.calls));
                    }
                    if n.output_rows != b.output_rows {
                        return fail(format!(
                            "snap output {} rows, body produced {}",
                            n.output_rows, b.output_rows
                        ));
                    }
                }
                body.verify_profile(profile, base + 1)
            }
        }
    }
}

/// Append a node's live counters to the first line of its rendered text.
fn annotate_head(text: &str, n: crate::obs::NodeStats) -> String {
    let note = if n.calls == 0 {
        " (never executed)".to_string()
    } else {
        let mut note = format!(
            " (calls={} time={} rows={}→{} Δ={}/{}",
            n.calls,
            crate::obs::fmt_ns(n.wall_ns),
            n.input_rows,
            n.output_rows,
            n.incl.requests_emitted,
            n.delta_self,
        );
        // A strategy shows only where it was used.
        for (label, events, items) in n.incl.strategy_pairs() {
            if events > 0 {
                note.push_str(&format!(" {label}={events}/{items}"));
            }
        }
        note.push(')');
        note
    };
    match text.find('\n') {
        Some(i) => format!("{}{}{}", &text[..i], note, &text[i..]),
        None => format!("{text}{note}"),
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Indent every line of `s` by `n` spaces.
fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Render a key expression relative to its variable (`$t/buyer/@person`
/// prints as `buyer/@person` after the `Input#t` prefix).
fn strip_var(key: &Core, var: &str) -> String {
    let s = key.to_string();
    s.strip_prefix(&format!("${var}/"))
        .map(str::to_string)
        .unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqsyn::core::Core;

    #[test]
    fn iterate_renders_with_snap_wrapper() {
        let p = QueryPlan::Iterate(Core::int(1));
        assert!(p.render().starts_with("Snap {"));
        assert!(!p.is_optimized());
    }

    #[test]
    fn structural_nodes_report_optimization_recursively() {
        let join = QueryPlan::HashJoin(JoinPlan {
            outer_var: "o".into(),
            outer_source: Core::int(1),
            inner_var: "i".into(),
            inner_source: Core::int(2),
            outer_key: Core::int(3),
            inner_key: Core::int(4),
            body: Core::int(5),
            outer_batch: None,
            inner_batch: None,
            outer_key_steps: None,
            inner_key_steps: None,
        });
        let snap = QueryPlan::Snap {
            mode: SnapMode::Ordered,
            body: Box::new(join),
        };
        assert!(snap.is_optimized());
        let seq = QueryPlan::Seq(vec![QueryPlan::Iterate(Core::int(1)), snap]);
        assert!(seq.is_optimized());
        assert_eq!(seq.node_count(), 4);
        let rendered = seq.render();
        assert!(rendered.starts_with("Snap {"));
        assert!(rendered.contains("Snap(ordered)"));
        assert!(rendered.contains("Join"));
    }
}
