//! Parallel evaluation of effect-free regions (DESIGN.md §9).
//!
//! The paper's §4.2 observation — evaluation inside an innermost `snap` is
//! effect-free, so "both the pure subexpressions and the update operations
//! can be evaluated in any order" — is exactly the precondition for data
//! parallelism. This module supplies the three pieces the evaluator and
//! the plan executor share:
//!
//! * the **gate** ([`par_safe`]): a loop body may fan out only when the
//!   static judgment ([`crate::effects::Facts`], transitive through called
//!   functions by its fixpoint) rates it `Pure` *and* flags nothing the
//!   rating hides — `fn:parse-xml` allocates store nodes behind its
//!   read-only rating, `fn:trace` has observable output order, and a
//!   `snap` over pure code draws seeds and bumps snap statistics. The
//!   server's snapshot-read gate is the same value read with the ceiling
//!   at `Alloc`;
//! * the **worker** ([`Worker`]): the evaluator's own rules
//!   (`eval::EvalCtx`) instantiated over a *shared* `&Store`, so workers
//!   need no store locking at all (the store has no interior mutability;
//!   see the `Send + Sync` assertions in `xqdm`) and cannot write by
//!   construction. There is no second interpreter: a worker differs from
//!   the full evaluator only in refusing the operators that need
//!   `&mut Store` ([`GATE_BUG`]);
//! * the **fan-out driver** ([`par_map`]): contiguous chunks over a scoped
//!   worker pool (`std::thread::scope`, no dependencies), one [`Worker`]
//!   per chunk, per-item results concatenated in input order.
//!
//! Sequential semantics are preserved bit-for-bit: values and their order
//! (chunks are contiguous and reassembled in input order), Δ statistics
//! (a `Pure` body touches neither the Δ stack nor the snap counters), and
//! error codes ([`par_map`] surfaces the error of the *first* failing
//! iteration, which is the one the sequential loop would have raised;
//! later iterations may run wastefully but — being pure — leave no
//! trace).

use crate::env::{DynEnv, Scope};
use crate::eval::EvalCtx;
use crate::limits::LimitGuard;
use crate::obs::{self, CounterId};
use xqdm::item::{Item, Sequence};
use xqdm::{NodeId, Scratch, Store, XdmError, XdmResult};
use xqsyn::core::Core;
use xqsyn::stack::DEEP_STACK_BYTES;

/// Fewest source items worth fanning out — below this, spawn cost
/// dominates any conceivable body.
pub const PAR_MIN_ITEMS: usize = 4;

/// Upper bound on configured worker counts (a typo like `--threads 800`
/// should not try to spawn 800 threads per loop).
pub const MAX_THREADS: usize = 64;

/// May `body` be evaluated by parallel workers sharing `&Store`, calls
/// resolved as `scope` resolves them? [`Facts::par_safe`](crate::Facts::par_safe)
/// of the one static judgment ([`crate::effects`]): the one fan-out, a
/// `for` loop interpreted or compiled, asks this, and EXPLAIN's `par`
/// marker asks the same predicate.
pub fn par_safe(body: &Core, scope: &Scope) -> bool {
    scope.effects().facts(body).par_safe()
}

/// What a fan-out hands every worker, by copy: the read-only slice of the
/// `Evaluator` that started it, and the store — shared, so a worker cannot
/// write. `Evaluator::par_for` builds one.
#[derive(Clone, Copy)]
pub(crate) struct PureCtx<'a> {
    /// The functions and globals the program can name, and under them the
    /// run policy (thread budget, depth limit, metric handles).
    pub(crate) scope: &'a Scope,
    /// The evaluator's armed limit guard, shared by every worker: the
    /// first worker to exceed a limit trips it and every sibling's next
    /// tick unwinds with the same error class (DESIGN.md §12).
    pub(crate) guard: &'a LimitGuard,
    /// The store the region reads.
    pub(crate) store: &'a Store,
    /// The evaluator's `eval` nesting depth at the fan-out point: workers
    /// count on from here, so the `XQB0040` recursion limit fires at the
    /// nesting the sequential evaluation would have reported.
    pub(crate) depth: usize,
}

/// The worker instantiation of the evaluation rules: a [`PureCtx`] (its
/// `depth` now this worker's own counter) and a private doc-order scratch.
/// Holding `&Store` and nothing more is the compile-time proof that a
/// fan-out cannot write.
pub struct Worker<'a> {
    ctx: PureCtx<'a>,
    scratch: Scratch,
}

impl<'a> Worker<'a> {
    fn new(ctx: PureCtx<'a>) -> Self {
        Worker {
            ctx,
            scratch: Scratch::new(),
        }
    }

    /// Evaluate `expr` by the evaluator's rules. Every step ticks the
    /// shared [`LimitGuard`], so fuel/deadline trips cancel sibling
    /// workers cooperatively. The gate admits only `Pure` expressions;
    /// anything else is refused with [`GATE_BUG`].
    pub fn eval(&mut self, env: &mut DynEnv, expr: &Core) -> XdmResult<Sequence> {
        EvalCtx::eval(self, env, expr)
    }
}

impl EvalCtx for Worker<'_> {
    fn store(&self) -> &Store {
        self.ctx.store
    }

    fn scope(&self) -> &Scope {
        self.ctx.scope
    }

    fn guard(&self) -> &LimitGuard {
        self.ctx.guard
    }

    fn depth_mut(&mut self) -> &mut usize {
        &mut self.ctx.depth
    }

    fn doc_order(&mut self, nodes: &mut Vec<NodeId>) -> XdmResult<()> {
        self.ctx.store.sort_and_dedup_with(nodes, &mut self.scratch)
    }

    /// Sequential inside a worker: one level of fan-out is enough, and
    /// nesting scoped pools would multiply thread counts.
    fn par_for(
        &mut self,
        _env: &DynEnv,
        _binders: (&str, Option<&str>),
        _src: &[Item],
        _body: &Core,
    ) -> Option<XdmResult<Sequence>> {
        None
    }

    fn call_mut_store(&mut self, _args: Vec<Sequence>) -> XdmResult<Sequence> {
        Err(gate_bug("fn:parse-xml"))
    }

    fn call_unshared(
        &mut self,
        _name: &str,
        args: Vec<Sequence>,
    ) -> Result<XdmResult<Sequence>, Vec<Sequence>> {
        Err(args)
    }

    fn effectful(&mut self, _env: &mut DynEnv, expr: &Core) -> XdmResult<Sequence> {
        Err(gate_bug(&expr.to_string()))
    }
}

/// The internal error a worker raises on reaching something that needs
/// `&mut Store`. The gate excludes all of it statically, so this is a gate
/// bug, never a user error — hence a code of its own next to `XQB0030`,
/// not one a client could mistake for a server admission reply.
pub const GATE_BUG: &str = "XQB0031";

fn gate_bug(what: &str) -> XdmError {
    XdmError::new(
        GATE_BUG,
        format!("internal: parallel worker reached a non-pure operator ({what})"),
    )
}

/// Fan `items` out over at most `ctx`'s thread budget of scoped workers
/// and concatenate the per-item values **in input order**; the first
/// failing item's error wins, as in a sequential loop. Each thread runs
/// one [`Worker`] over one contiguous chunk with a clone of `env` (workers
/// never see each other's bindings), so within-chunk evaluation order
/// equals sequential order. A panicking worker propagates its panic to
/// the caller after the scope joins every thread — identical blast radius
/// to a panic in a sequential loop (the engine's catch/rollback sees the
/// same thing).
///
/// Thread-spawn failure (an OS resource limit, not a query error) degrades
/// gracefully: chunks whose worker could not be spawned are evaluated
/// sequentially on the calling thread after the spawned workers join, and
/// the `engine.par_spawn_fallback` counter records the event. A pure body
/// cannot observe the difference.
pub(crate) fn par_map<T, F>(
    ctx: PureCtx<'_>,
    env: &DynEnv,
    items: &[T],
    f: F,
) -> XdmResult<Sequence>
where
    T: Sync,
    F: Fn(&mut Worker<'_>, &mut DynEnv, usize, &T) -> XdmResult<Sequence> + Sync,
{
    let n = items.len();
    let workers = ctx.scope.env().threads.clamp(1, MAX_THREADS).min(n).max(1);
    let chunk = n.div_ceil(workers);
    let mut results: Vec<Option<XdmResult<Sequence>>> = (0..n).map(|_| None).collect();
    let mut spawn_failed = false;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest: &mut [Option<XdmResult<Sequence>>] = &mut results;
        for w in 0..workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let (slot, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let chunk_items = &items[lo..hi];
            let f = &f;
            let mut wenv = env.clone();
            // Workers recurse under the same depth limit
            // ([`crate::limits::Limits::max_depth`]) as the evaluation
            // they split, so they get the same headroom.
            let spawned = std::thread::Builder::new()
                .name(format!("xqb-par-{w}"))
                .stack_size(DEEP_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    let mut worker = Worker::new(ctx);
                    for (j, it) in chunk_items.iter().enumerate() {
                        slot[j] = Some(f(&mut worker, &mut wenv, lo + j, it));
                    }
                });
            match spawned {
                Ok(h) => handles.push(h),
                // An OS thread limit is not the query's fault: the dropped
                // closure releases its slots (still `None`), and the
                // sequential sweep below fills them.
                Err(_) => spawn_failed = true,
            }
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
    if spawn_failed {
        obs::global().counter(CounterId::ParSpawnFallback).add(1);
        let (mut worker, mut fenv) = (Worker::new(ctx), env.clone());
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(f(&mut worker, &mut fenv, i, &items[i]));
            }
        }
    }
    // Order preservation: the chunks partition 0..n exactly, so every slot
    // must be filled — a hole would mean dropped or reordered work.
    debug_assert!(
        results.iter().all(Option::is_some),
        "parallel worker left an item slot unfilled"
    );
    let mut out = Sequence::new();
    for r in results {
        out.extend(r.expect("parallel worker left an item slot unfilled")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ProgramEnv;
    use crate::eval::Evaluator;
    use std::sync::Arc;
    use xqdm::seq;
    use xqsyn::compile;

    /// The facts of the whole body expression, as a loop body would be
    /// judged.
    fn facts(src: &str) -> crate::Facts {
        let prog = compile(src).expect("compile");
        Scope::new(Arc::default(), &prog)
            .effects()
            .facts(&prog.body)
    }

    fn gate(src: &str) -> bool {
        facts(src).par_safe()
    }

    /// [`par_map`] over `items` with a budget of `threads` workers.
    fn run_par_map<T, F>(threads: usize, items: &[T], f: F) -> XdmResult<Sequence>
    where
        T: Sync,
        F: Fn(&mut Worker<'_>, &mut DynEnv, usize, &T) -> XdmResult<Sequence> + Sync,
    {
        let mut env = ProgramEnv::default();
        env.threads = threads;
        let scope = Scope::new(Arc::new(env), &compile("()").unwrap());
        let (store, guard) = (Store::new(), LimitGuard::unlimited());
        let ctx = PureCtx {
            scope: &scope,
            guard: &guard,
            store: &store,
            depth: 0,
        };
        par_map(ctx, &DynEnv::new(), items, f)
    }

    #[test]
    fn alloc_ceiling_admits_construction_and_nothing_more() {
        let alloc = |src| facts(src).snapshot_read();
        assert!(alloc("$x/a[@id = 3] + count($y)"));
        assert!(alloc(
            "for $p in $s return <item n=\"{$p/@n}\">{ count($p/*) }</item>"
        ));
        assert!(alloc("copy { $x }"));
        assert!(alloc("declare function mk($n) { <e>{$n}</e> }; mk(1)"));
        // Pending and Effectful stay above the ceiling, constructor or not.
        assert!(!alloc("insert { <a/> } into { $x }"));
        assert!(!alloc("(<a/>, snap { delete { $x } })"));
        // The flags are the same ones: snap, tracing and the par-opaque
        // built-ins are rejected at either ceiling, also behind a
        // constructor in a function body.
        assert!(!alloc("snap { <a/> }"));
        assert!(!alloc("<a>{ parse-xml(\"<b/>\") }</a>"));
        assert!(!alloc(
            "declare function mk() { <a>{ snap { 1 } }</a> }; mk()"
        ));
    }

    /// The gate corpus: `(prolog, loop body, admitted)`.
    const GATE_CORPUS: &[(&str, &str, bool)] = &[
        ("", "$x/a[@id = 3] + count($y)", true),
        ("", "for $i in 1 to 9 return $i * $i", true),
        // Alloc, Pending, Effectful: all rejected.
        ("", "<a/>", false),
        ("", "insert { <a/> } into { $x }", false),
        ("", "snap { delete { $x/a } }", false),
        // Pure-rated but par-opaque.
        ("", "parse-xml(\"<a/>\")", false),
        ("", "trace($x, \"label\")", false),
        // A snap over pure code is Pure on the lattice but draws seeds.
        ("", "snap { 1 + 2 }", false),
        // Through function bodies: a clean one...
        (
            "declare function f($n) { $n * 2 };",
            "for $i in $s return f($i)",
            true,
        ),
        // ...parse-xml and trace hiding behind a pure-rated one...
        (
            "declare function f($n) { parse-xml(\"<a/>\") };",
            "for $i in $s return f($i)",
            false,
        ),
        (
            "declare function f($x) { trace($x, \"t\") };",
            "f($x)",
            false,
        ),
        // ...and behind one more level of calls.
        (
            "declare function g() { parse-xml(\"<a/>\") };
             declare function f($n) { g() };",
            "f(1)",
            false,
        ),
    ];

    #[test]
    fn gate_admits_pure_and_transparent_bodies_only() {
        for (prolog, body, admitted) in GATE_CORPUS {
            assert_eq!(gate(&format!("{prolog} {body}")), *admitted, "{body}");
        }
    }

    /// Join plans beside the corpus: a join or group-by runs sequentially,
    /// so its body or return fans out only through a `for` loop inside it.
    /// `(query, plan operator, fans out)`.
    const JOIN_ROWS: &[(&str, &str, bool)] = &[
        (
            "for $l in $d/r/e for $r in $d/r/f where $l/@k = $r/@k return $r",
            "(Join(",
            false,
        ),
        (
            "for $p in $d/r/e let $a := for $t in $d/r/f where $t/@k = $p/@k
             return $t return (count($a), count($a/@k))",
            "(GroupBy",
            false,
        ),
        (
            "for $l in $d/r/e for $r in $d/r/f where $l/@k = $r/@k
             return sum(for $i in 1 to 8 return $i * $r/@k)",
            "(Join(",
            true,
        ),
    ];

    /// EXPLAIN's `par` marker and the run-time gate are one predicate: a
    /// plan shows the marker exactly when running it at 4 threads opens a
    /// parallel region, with the 1-thread run's value either way. The
    /// rows: each corpus body under a loop wide enough to fan out (any
    /// plan operator will do), and [`JOIN_ROWS`].
    #[test]
    fn explain_marks_par_exactly_where_a_run_fans_out() {
        let corpus = GATE_CORPUS.iter().map(|(prolog, body, admitted)| {
            let query = format!("{prolog} for $k in 1 to 8 return ({body})");
            (query, "", *admitted)
        });
        let joins = JOIN_ROWS
            .iter()
            .map(|&(q, op, fans)| (q.to_string(), op, fans));
        let es: String = (1..=6).map(|k| format!("<e k=\"{k}\"/>")).collect();
        let fs = "<f k=\"1\"/><f k=\"3\"/><f k=\"3\"/><f k=\"6\"/>";
        let doc = format!("<r><a id=\"3\">1</a><b/><b/>{es}{fs}</r>");
        for (query, operator, admitted) in corpus.chain(joins) {
            let run = |threads| {
                let mut e = crate::Engine::new();
                e.set_threads(threads);
                e.load_document("d", &doc).unwrap();
                for (var, path) in [("x", "$d/r"), ("y", "$d/r/b"), ("s", "(1, 2, 3)")] {
                    let value = e.run(path).unwrap();
                    e.bind(var, value);
                }
                let plan = e.explain(&query).unwrap();
                let value = e.run(&query).unwrap();
                let fanned = e.last_stats().unwrap().par_regions > 0;
                (plan, e.serialize(&value).unwrap(), fanned)
            };
            let (_, sequential, _) = run(1);
            let (plan, value, fanned) = run(4);
            assert!(plan.contains(operator), "{query}:\n{plan}");
            assert_eq!(plan.contains("par]"), fanned, "{query}:\n{plan}");
            assert_eq!(fanned, admitted, "{query}:\n{plan}");
            assert_eq!(value, sequential, "{query}");
        }
    }

    #[test]
    fn par_map_preserves_input_order_and_first_error() {
        let items: Vec<i64> = (0..100).collect();
        let merged = run_par_map(8, &items, |_worker, _env, i, it| {
            assert_eq!(*it as usize, i);
            Ok(seq![Item::integer(*it * 2)])
        })
        .unwrap();
        assert_eq!(merged.len(), 100);
        assert_eq!(merged[41], Item::integer(82));

        // Two failing items: the earlier one's error surfaces.
        let err = run_par_map(8, &items, |_worker, _env, _i, it| match *it {
            97 => Err(XdmError::new("E-LATE", "late")),
            13 => Err(XdmError::new("E-EARLY", "early")),
            _ => Ok(seq![]),
        })
        .unwrap_err();
        assert_eq!(err.code, "E-EARLY");
    }

    /// `c`'s position in [`worker_and_evaluator_split_every_core_variant`]'s
    /// tally. No wildcard: a new `Core` variant stops this compiling, and
    /// once it has a number the test wants a row that decides its side.
    fn variant(c: &Core) -> usize {
        match c {
            Core::Const(_) => 0,
            Core::Var(_) => 1,
            Core::ContextItem => 2,
            Core::Seq(_) => 3,
            Core::For { .. } => 4,
            Core::Let { .. } => 5,
            Core::If(..) => 6,
            Core::Quantified { .. } => 7,
            Core::SortedFor { .. } => 8,
            Core::Arith(..) => 9,
            Core::Neg(_) => 10,
            Core::GeneralComp(..) => 11,
            Core::ValueComp(..) => 12,
            Core::NodeComp(..) => 13,
            Core::And(..) => 14,
            Core::Or(..) => 15,
            Core::Union(..) => 16,
            Core::Range(..) => 17,
            Core::MapStep { .. } => 18,
            Core::DocOrder(_) => 19,
            Core::Predicate { .. } => 20,
            Core::Call(..) => 21,
            Core::ElemCtor { .. } => 22,
            Core::AttrCtor { .. } => 23,
            Core::TextCtor(_) => 24,
            Core::DocCtor(_) => 25,
            Core::Copy(_) => 26,
            Core::Insert { .. } => 27,
            Core::Delete(_) => 28,
            Core::Replace(..) => 29,
            Core::ReplaceValue(..) => 30,
            Core::Rename(..) => 31,
            Core::Snap(..) => 32,
        }
    }
    const VARIANTS: usize = 33;

    /// The worker instantiation, driven directly, over every `Core`
    /// variant: whatever the gate admits evaluates to the full evaluator's
    /// value, and every operator it refuses is refused by the worker too,
    /// with the internal code — each variant on exactly one side.
    #[test]
    fn worker_and_evaluator_split_every_core_variant() {
        use xqsyn::ast::SnapMode;
        use xqsyn::core::{CoreInsertLoc, CoreName};

        let mut store = Store::new();
        let xml = "<r><e k=\"1\">a</e><e k=\"2\"/><e k=\"3\"/></r>";
        let doc = seq![Item::Node(
            xqdm::xml::parse_document(&mut store, xml).unwrap()
        )];

        let pure = [
            "(1, 2.5, \"s\")",
            "for $e at $i in $doc//e return $i * 2",
            "let $x := count($doc//e) return -$x",
            "if ($doc//e[@k = 2]) then 1 to 3 else ()",
            "some $e in $doc//e satisfies $e/@k eq \"2\"",
            "every $e in $doc//e satisfies $e/@k = 2 or $e/@k = 1 and true()",
            "for $e in $doc//e order by -number($e/@k) return concat(\"k\", string($e/@k))",
            "($doc//e)[2] is $doc/r/e[2], $doc//e[1] << $doc//e[3]",
            "$doc//e[3] | $doc//e[1] | $doc/r",
            "$doc//e[string(.) = \"a\"]/@k",
            "declare function f($n) { $n * 2 }; f(count($doc//e))",
        ];
        let target = || Core::Var("doc".into()).boxed();
        let fixed = || CoreName::Fixed("n".into());
        // What normalization never emits, or never without a constructor
        // inside: built by hand over pure operands.
        let built = [
            Core::DocOrder(target()),
            Core::ElemCtor {
                name: fixed(),
                content: Core::empty().boxed(),
            },
            Core::AttrCtor {
                name: fixed(),
                content: Core::empty().boxed(),
            },
            Core::TextCtor(Core::empty().boxed()),
            Core::DocCtor(Core::empty().boxed()),
            Core::Copy(target()),
            Core::Insert {
                source: Core::empty().boxed(),
                location: CoreInsertLoc::Last(target()),
            },
            Core::Delete(target()),
            Core::Replace(target(), Core::empty().boxed()),
            Core::ReplaceValue(target(), Core::empty().boxed()),
            Core::Rename(target(), Core::empty().boxed()),
            Core::Snap(SnapMode::Ordered, Core::empty().boxed()),
        ];
        let mut rows: Vec<_> = pure.iter().map(|src| compile(src).unwrap()).collect();
        rows.extend(built.into_iter().map(|body| {
            let mut prog = compile("()").unwrap();
            prog.body = body;
            prog
        }));

        let (mut evaluated, mut rejected) = ([false; VARIANTS], [false; VARIANTS]);
        for prog in &rows {
            let mut scope = Scope::new(Arc::default(), prog);
            scope.bind_global("doc", doc.clone());
            let guard = LimitGuard::unlimited();
            let mut worker = Worker::new(PureCtx {
                scope: &scope,
                guard: &guard,
                store: &store,
                depth: 0,
            });
            let got = worker.eval(&mut DynEnv::new(), &prog.body);
            if par_safe(&prog.body, &scope) {
                let mut ev = Evaluator::new(Arc::default(), prog);
                ev.bind_global("doc", doc.clone());
                let want = ev.eval_query(&mut store, &mut DynEnv::new(), &prog.body);
                assert_eq!(got.unwrap(), want.unwrap(), "{:?}", prog.body);
                prog.body.walk(&mut |c| evaluated[variant(c)] = true);
            } else {
                assert_eq!(got.unwrap_err().code, GATE_BUG, "{:?}", prog.body);
                rejected[variant(&prog.body)] = true;
            }
        }
        for i in 0..VARIANTS {
            assert!(
                evaluated[i] != rejected[i],
                "Core variant #{i}: evaluated by a worker {}, refused {}",
                evaluated[i],
                rejected[i]
            );
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        let items = [1i64, 2, 3];
        let r = run_par_map(usize::MAX, &items, |_w, _e, _i, it| {
            Ok(seq![Item::integer(*it)])
        });
        assert_eq!(r.unwrap().len(), 3);
    }
}
