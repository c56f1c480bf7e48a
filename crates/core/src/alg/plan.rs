//! Logical query plans (paper §4.2–4.3).
//!
//! The plan language mirrors the operators the paper's compiled plan uses —
//! `MapFromItem`, `GroupBy`, `LeftOuterJoin`, `Snap` — with three families
//! of nodes:
//!
//! * **The join node**, produced by the guarded rewrite:
//!   [`QueryPlan::Join`], a typed hash join of two [`JoinSide`]s — the
//!   §2.1 purchasers query — whose optional group makes it the §4.3 XMark
//!   Q8 variant, `MapFromItem∘GroupBy∘LeftOuterJoin`.
//! * **Leaves**: [`QueryPlan::BatchPath`], a path run on the batch kernels,
//!   and [`QueryPlan::Iterate`], a core expression the interpreter
//!   evaluates.
//! * **Rule nodes** ([`QueryPlan::Rule`]): a control operator ([`Op`]:
//!   sequence, `let`, `for`, `if`, `snap`, a read-only built-in call) over
//!   compiled operands, run by the evaluator's own rule for that operator
//!   (`eval::for_rule` and its siblings), so join recognition reaches
//!   *into* snap bodies, let-bound subqueries, branches and call
//!   arguments — the paper's point that the effect-free interior of an
//!   innermost snap is where classical optimization is recovered.
//!
//! Anything the rewrites cannot prove safe stays [`QueryPlan::Iterate`]
//! (the naive nested-loop evaluation of the core expression) — that is
//! exactly the paper's guard story: the preconditions, not the rewrite,
//! carry the semantics. The compiler collapses any rule node with no
//! specialized operand back to a single leaf, so rule nodes only appear
//! on the spine that leads to an optimized operator.
//!
//! Every node has a pre-order id (the profile's index): a rule node's
//! operands are numbered by [`QueryPlan::operands`], the one place that
//! does the arithmetic.

use crate::obs::NodeStats;
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
    /// `for $o in outer, $i in inner where key(o) = key(i) return body` as
    /// a typed hash join; with a [`JoinPlan::group`], `for $o in outer let
    /// $g := (for $i in inner where k(o)=k(i) return body) return ret` as
    /// LeftOuterJoin + GroupBy + MapFromItem. Boxed: a join is several
    /// times the size of any other node, and every operand slot of a rule
    /// node is as large as the largest variant.
    Join(Box<JoinPlan>),
    /// A pure path-step chain lowered to batch-at-a-time execution
    /// (DESIGN.md §14): each step maps the whole `Vec<NodeId>` batch
    /// through a store kernel with the name test resolved to interned
    /// symbol ids, then doc-order sorts and dedups — observably identical
    /// to step-at-a-time interpretation of the same chain. Boxed, as a
    /// join is: the chain holds its input and its whole expression, more
    /// than twice the size of any unboxed variant.
    BatchPath(Box<BatchPathPlan>),
    /// A control operator over compiled operands, run by the evaluator's
    /// own rule for it, so that it behaves exactly as the interpreted
    /// operator: same binding discipline, evaluation order, Δ and seed
    /// draws (DESIGN.md §8). [`Op`] says what the operand list means.
    Rule(Op, Vec<QueryPlan>),
}

/// The operator of a [`QueryPlan::Rule`] node, and what its operands are.
/// A node whose operand count the operator does not [`Op::admits`] is
/// malformed: executing it is an error.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `e1, …, en`: the operands are the members, run left to right,
    /// values and Δs concatenated.
    Seq,
    /// `let $var := value return body`: operands `[value, body]`; the
    /// value runs once.
    Let(String),
    /// `for $var [at $position] in source return body`: operands
    /// `[source, body]`; the body runs once per source item, in order.
    For(String, Option<String>),
    /// `if (cond) then … else …`: operands `[cond, then, else]`; the
    /// effective boolean value of the condition picks one branch.
    If,
    /// `snap mode { body }`: operands `[body]`, run under a fresh Δ that
    /// is applied under the mode.
    Snap(SnapMode),
    /// A call of a [`Kind::Read`](crate::functions::Kind::Read) built-in,
    /// by the name as written (`sum`, `fn:sum`): the operands are its
    /// arguments, run left to right before the built-in runs over their
    /// values.
    Call(String),
}

impl Op {
    /// Is `count` operands the right number for this operator? Any number
    /// of members or arguments; one body; a `let`'s or `for`'s two; an
    /// `if`'s three.
    pub fn admits(&self, count: usize) -> bool {
        match self {
            Op::Seq | Op::Call(_) => true,
            Op::Snap(_) => count == 1,
            Op::Let(_) | Op::For(..) => count == 2,
            Op::If => count == 3,
        }
    }

    /// The operator's name in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Seq => "Seq",
            Op::Let(_) => "Let",
            Op::For(..) => "For",
            Op::If => "If",
            Op::Snap(_) => "Snap",
            Op::Call(_) => "Call",
        }
    }
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

impl BatchStep {
    /// Can the secondary indexes serve this step (DESIGN.md §17)? An
    /// element-producing axis with either a name test (element-name
    /// index) or an `[@a = "v"]` filter (attribute-value index). The
    /// attribute axis is excluded: the value index is keyed by (name,
    /// value), never by name alone. The one statement of the shape: the
    /// executor asks it before each scan (behind the store's
    /// `index_enabled()`), EXPLAIN before printing `,idx`.
    pub fn index_servable(&self) -> bool {
        matches!(
            self.axis,
            Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
        ) && (matches!(self.test, NodeTest::Name(_))
            || self
                .filters
                .iter()
                .any(|f| matches!(f, BatchFilter::AttrEq { .. })))
    }
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
    /// Any other predicate the interpreter's `//` fusion admits
    /// (`eval::position_blind`): never a number, no `position()` /
    /// `last()`, only [`Kind::Read`](crate::functions::Kind::Read) calls.
    /// The evaluator runs it once per candidate with the candidate as its
    /// focus, and its effective boolean value decides; it never drives an
    /// index scan.
    Pred(Core),
}

/// One side of a join: a loop variable bound in turn to each item of a
/// source evaluated once, and the join key over that variable.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSide {
    /// The loop variable.
    pub var: String,
    /// The loop source (evaluated once — for the inner side, the whole
    /// point of the join).
    pub source: Core,
    /// The join key over `var`.
    pub key: Core,
    /// Batch lowering of `source`, when it is a pure step chain.
    pub batch: Option<BatchPathPlan>,
    /// Batch lowering of `key` relative to `var`: the build and probe
    /// loops run these steps from each bound node instead of re-entering
    /// the interpreter per binding.
    pub key_steps: Option<Vec<BatchStep>>,
}

/// The join: for each outer item, the per-match `body` over each inner
/// item whose key equals its key, in inner order.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// The outer loop, the probe side.
    pub outer: JoinSide,
    /// The inner loop, the build side.
    pub inner: JoinSide,
    /// Per-match body (the `return` of the inner loop), with both
    /// variables in scope. May carry pending updates — the guards only
    /// exclude `snap`.
    pub body: Core,
    /// `None`: the per-match values are the output. `Some((var, ret))`:
    /// each outer item's per-match values, empty when it has no match (the
    /// left outer join), are grouped under `var`, and `ret` — with the
    /// outer variable and `var` in scope — is the output.
    pub group: Option<(String, Core)>,
}

impl JoinPlan {
    /// Is any side's source or key batch-lowered?
    pub fn is_batched(&self) -> bool {
        [&self.outer, &self.inner]
            .iter()
            .any(|side| side.batch.is_some() || side.key_steps.is_some())
    }
}

impl QueryPlan {
    /// Was a *join* rewrite applied anywhere in the plan? Batch path
    /// lowering is deliberately excluded: it is a physical execution
    /// strategy, not the paper's guarded algebraic rewriting — see
    /// [`QueryPlan::is_batched`].
    pub fn is_optimized(&self) -> bool {
        match self {
            QueryPlan::Join(_) => true,
            _ => self.rule_operands().iter().any(QueryPlan::is_optimized),
        }
    }

    /// Does any node execute batch-at-a-time — a [`QueryPlan::BatchPath`]
    /// leaf, or a join with batched sources/keys?
    pub fn is_batched(&self) -> bool {
        match self {
            QueryPlan::BatchPath(_) => true,
            QueryPlan::Join(j) => j.is_batched(),
            _ => self.rule_operands().iter().any(QueryPlan::is_batched),
        }
    }

    /// Did compilation specialize anything here — a join rewrite or a
    /// batch lowering? The compiler keeps a rule node only above
    /// specialized operands.
    pub fn is_specialized(&self) -> bool {
        self.is_optimized() || self.is_batched()
    }

    /// Number of plan nodes (diagnostics, and the profile's id space).
    pub fn node_count(&self) -> usize {
        1 + self
            .rule_operands()
            .iter()
            .map(QueryPlan::node_count)
            .sum::<usize>()
    }

    /// A rule node's operands; none for every other node.
    fn rule_operands(&self) -> &[QueryPlan] {
        match self {
            QueryPlan::Rule(_, operands) => operands,
            _ => &[],
        }
    }

    /// A rule node's operands in order, each with its pre-order profile
    /// id when this node's id is `base`: the first operand is `base + 1`,
    /// each next one follows the nodes of the one before. Every other
    /// node has none.
    pub fn operands(&self, base: usize) -> impl Iterator<Item = (&QueryPlan, usize)> {
        let mut next = base + 1;
        let mut before: Option<&QueryPlan> = None;
        self.rule_operands().iter().map(move |p| {
            // An operand's id needs only the sizes of the ones before it.
            if let Some(q) = before.replace(p) {
                next += q.node_count();
            }
            (p, next)
        })
    }

    /// The paper-style plan printout (§4.3 prints
    /// `Snap { MapFromItem {...} (GroupBy [...] (LeftOuterJoin(...))) }`).
    /// The outermost `Snap` is the implicit top-level one. A plan alone
    /// names no store, so no chain is marked `,idx`.
    pub fn render(&self) -> String {
        format!(
            "Snap {{\n{}\n}}",
            indent(&self.render_node(None, None, 0, false), 2)
        )
    }

    /// [`QueryPlan::render`] with effect annotations: every `Iterate` leaf
    /// and join body carries its place on the effect lattice, showing
    /// *why* each guard admitted (or would reject) a rewrite. With
    /// `indexed` (the rendering store's index plane is on), every
    /// index-servable chain is marked `,idx`.
    pub fn render_annotated(&self, analysis: &EffectAnalysis, indexed: bool) -> String {
        format!(
            "Snap {{\n{}\n}}",
            indent(&self.render_node(Some(analysis), None, 0, indexed), 2)
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
        indexed: bool,
    ) -> String {
        format!(
            "Snap {{\n{}\n}}",
            indent(
                &self.render_node(Some(analysis), Some(profile), base, indexed),
                2
            )
        )
    }

    fn render_node(
        &self,
        analysis: Option<&EffectAnalysis>,
        profile: Option<&crate::obs::Profile>,
        base: usize,
        indexed: bool,
    ) -> String {
        let eff = |core: &Core| match analysis {
            Some(a) => format!("[{:?}]", a.effect(core)),
            None => String::new(),
        };
        // `batch` marks a subexpression lowered to the batch step kernels
        // (DESIGN.md §14): a whole chain leaf, a join source, or a join
        // key evaluated by symbol-id compare instead of interpretation.
        // `idx` additionally marks a chain the secondary indexes may
        // serve while the store's plane is on (DESIGN.md §17) — the
        // runtime cost gate decides per scan.
        let mark = |on: bool| if on { ",batch" } else { "" };
        let idx = |bp: &BatchPathPlan| indexed && bp.steps.iter().any(BatchStep::index_servable);
        let bmark = |b: &Option<BatchPathPlan>| match b {
            Some(bp) if idx(bp) => ",batch,idx",
            Some(_) => ",batch",
            None => "",
        };
        let text = match self {
            QueryPlan::Iterate(core) => format!("Iterate{} {{ {core} }}", eff(core)),
            QueryPlan::BatchPath(bp) => {
                let idx = if idx(bp) { ",idx" } else { "" };
                let eff = match analysis {
                    Some(a) => format!("[{:?},batch{idx}]", a.effect(&bp.core)),
                    None => format!("[batch{idx}]"),
                };
                format!("BatchPath{eff} {{ {} }}", bp.core)
            }
            QueryPlan::Join(j) => {
                // The two sides and the key, a `Join` on its own or, with a
                // group, a `LeftOuterJoin` nested one level under `GroupBy`.
                let (open, lead) = match j.group {
                    None => ("(Join( ", ""),
                    Some(_) => ("  ( LeftOuterJoin( ", "  "),
                };
                let (o, i) = (&j.outer, &j.inner);
                let join = format!(
                    "{open}MapFromItem{{[{ov}:Input]{ob}}}\n{lead}   ({osrc}),\n{pad}\
                     MapFromItem{{[{iv}:Input]{ib}}}\n{lead}   ({isrc}))\n{lead}  on {{ \
                     Input#{iv}/{ikey}{ikb} = Input#{ov}/{okey}{okb} }}\n{lead})",
                    pad = " ".repeat(open.len()),
                    ov = o.var,
                    ob = bmark(&o.batch),
                    osrc = o.source,
                    iv = i.var,
                    ib = bmark(&i.batch),
                    isrc = i.source,
                    ikey = strip_var(&i.key, &i.var),
                    ikb = mark(i.key_steps.is_some()),
                    okey = strip_var(&o.key, &o.var),
                    okb = mark(o.key_steps.is_some()),
                );
                match &j.group {
                    None => format!("MapFromItem{} {{ {} }}\n{join}", eff(&j.body), j.body),
                    Some((_, ret)) => format!(
                        "MapFromItem{} {{\n  {ret}\n}}\n(GroupBy [ Input#{}, {{ {} }}{} ]\n{join}\n)",
                        eff(ret),
                        o.var,
                        j.body,
                        eff(&j.body),
                    ),
                }
            }
            QueryPlan::Rule(op, _) => {
                // `Let $x := {` value `} In {` body `}`: an opening line,
                // then each operand preceded by the operator's separator
                // (`,` between members and arguments), then a closing line.
                let (open, seps, close): (String, &[&str], &str) = match op {
                    Op::Seq => ("Seq [".into(), &[], "]"),
                    Op::Call(name) => (format!("Call {name}("), &[], ")"),
                    Op::Let(var) => (format!("Let ${var} := {{"), &["} In {"], "}"),
                    Op::For(var, position) => {
                        let pos = position
                            .as_ref()
                            .map(|p| format!(" at ${p}"))
                            .unwrap_or_default();
                        (format!("For ${var}{pos} In {{"), &["} Do {"], "}")
                    }
                    Op::If => ("If {".into(), &["} Then {", "} Else {"], "}"),
                    Op::Snap(mode) => {
                        let label = match mode {
                            SnapMode::Ordered => "ordered",
                            SnapMode::Nondeterministic => "nondeterministic",
                            SnapMode::ConflictDetection => "conflict-detection",
                        };
                        (format!("Snap({label}) {{"), &[], "}")
                    }
                };
                let mut text = open;
                for (i, (p, id)) in self.operands(base).enumerate() {
                    if i > 0 {
                        match seps.get(i - 1) {
                            Some(sep) => {
                                text.push('\n');
                                text.push_str(sep);
                            }
                            None => text.push(','),
                        }
                    }
                    text.push('\n');
                    text.push_str(&indent(&p.render_node(analysis, profile, id, indexed), 2));
                }
                text.push('\n');
                text.push_str(close);
                text
            }
        };
        match profile {
            Some(p) => annotate_head(&text, p.node(base)),
            None => text,
        }
    }

    /// Cross-check an analyzed run's profile against this plan's shape:
    /// node-id assignment and the parent/operand call & cardinality
    /// relations every rule guarantees. Only sound for *successful* runs
    /// (an error aborts mid-operator, legitimately leaving later operands
    /// with fewer calls). The obs-invariants suite drives this.
    pub fn verify_profile(&self, profile: &crate::obs::Profile, base: usize) -> Result<(), String> {
        let QueryPlan::Rule(op, operands) = self else {
            return Ok(());
        };
        let fail = |what: String| Err(format!("node {base} ({}): {what}", op.name()));
        if !op.admits(operands.len()) {
            return fail(format!("{} operands", operands.len()));
        }
        let n = profile.node(base);
        let ids: Vec<usize> = self.operands(base).map(|(_, id)| id).collect();
        let stats: Vec<NodeStats> = ids.iter().map(|&id| profile.node(id)).collect();
        let out_sum: u64 = stats.iter().map(|s| s.output_rows).sum();
        if n.calls > 0 {
            match (op, stats.as_slice()) {
                (Op::Seq | Op::Call(_), _) => {
                    if let Some(i) = stats.iter().position(|s| s.calls != n.calls) {
                        return fail(format!(
                            "operand {} ran {} times, parent {}",
                            ids[i], stats[i].calls, n.calls
                        ));
                    }
                    // A sequence returns its members' rows; a call reads
                    // its arguments'.
                    let (rows, what) = match op {
                        Op::Seq => (n.output_rows, "output"),
                        _ => (n.input_rows, "read"),
                    };
                    if rows != out_sum {
                        return fail(format!("{what} {rows} rows, operands produced {out_sum}"));
                    }
                }
                (Op::Let(_), [v, b]) => {
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
                (Op::For(..), [s, b]) => {
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
                (Op::If, [c, t, e]) => {
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
                (Op::Snap(_), [b]) => {
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
                // `admits` ruled out every other operand count.
                _ => {}
            }
        }
        self.operands(base)
            .try_for_each(|(p, id)| p.verify_profile(profile, id))
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
    fn a_plan_slot_is_no_larger_than_a_rule_node() {
        // Every operand slot of a rule node is as large as the largest
        // variant: the join and the batch chain are boxed so a slot is
        // what a rule node needs, its operator and operand list (an
        // `Iterate` leaf's expression is smaller still).
        use std::mem::size_of;
        assert_eq!(size_of::<QueryPlan>(), 80);
        assert_eq!(size_of::<Op>() + size_of::<Vec<QueryPlan>>(), 72);
        assert!(size_of::<Core>() <= 72);
    }

    #[test]
    fn iterate_renders_with_snap_wrapper() {
        let p = QueryPlan::Iterate(Core::int(1));
        assert!(p.render().starts_with("Snap {"));
        assert!(!p.is_optimized());
    }

    #[test]
    fn structural_nodes_report_optimization_recursively() {
        let side = |var: &str, n| JoinSide {
            var: var.into(),
            source: Core::int(n),
            key: Core::int(n + 2),
            batch: None,
            key_steps: None,
        };
        let join = QueryPlan::Join(Box::new(JoinPlan {
            outer: side("o", 1),
            inner: side("i", 2),
            body: Core::int(5),
            group: None,
        }));
        let snap = QueryPlan::Rule(Op::Snap(SnapMode::Ordered), vec![join]);
        assert!(snap.is_optimized());
        let seq = QueryPlan::Rule(Op::Seq, vec![QueryPlan::Iterate(Core::int(1)), snap]);
        assert!(seq.is_optimized());
        assert_eq!(seq.node_count(), 4);
        // Pre-order ids: the Seq is 0, its members 1 and 2, the join 3.
        let ids: Vec<usize> = seq.operands(0).map(|(_, id)| id).collect();
        assert_eq!(ids, [1, 2]);
        let rendered = seq.render();
        assert!(rendered.starts_with("Snap {"));
        assert!(rendered.contains("Snap(ordered)"));
        assert!(rendered.contains("Join"));
    }

    #[test]
    fn a_rule_node_of_the_wrong_arity_is_refused_not_run() {
        let one = || QueryPlan::Iterate(Core::int(1));
        let bad = QueryPlan::Rule(Op::If, vec![one(), one()]);
        let err = bad
            .verify_profile(&crate::obs::Profile::default(), 0)
            .unwrap_err();
        assert!(err.contains("(If): 2 operands"), "{err}");
        // Rendering never panics on it either.
        assert!(bad.render().contains("If {"));
    }
}
