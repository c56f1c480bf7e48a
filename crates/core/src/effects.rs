//! The side-effect judgment (paper §4.2, §5).
//!
//! "A number of the syntactic rewritings must be guarded by a judgment
//! which detects whether side effects occur in a given subexpression."
//! This module computes, for every expression and declared function, where
//! it sits on the effect lattice:
//!
//! ```text
//! Pure  ⊑  Alloc  ⊑  Pending  ⊑  Effectful
//! ```
//!
//! * **Pure** — no store interaction at all; freely reorderable.
//! * **Alloc** — only allocates new nodes (constructors, `copy`). The paper
//!   notes such evaluations "can still be commuted or interleaved".
//! * **Pending** — produces update requests but applies none: "an
//!   expression which just produces update requests, without applying
//!   them, is actually side-effect free, hence can be evaluated with the
//!   same approaches used to evaluate pure functional expressions" (§3.4).
//!   Order of Δ still matters under the ordered snap mode, and cardinality
//!   always matters.
//! * **Effectful** — contains a `snap` (or calls a function that may
//!   execute one): the store can change mid-evaluation, and the strict
//!   left-to-right order is binding.
//!
//! Function effects need a fixpoint over the call graph (recursive
//! functions; the paper's "monadic rule": a function that calls an
//! updating function is updating as well).
//!
//! The level is not all the engine's gates need to know — a `snap` over
//! pure code is `Pure` yet draws a seed, `fn:parse-xml` is rated `Pure`
//! yet allocates — so the judgment's result is a [`Facts`]: the level plus
//! two monotone flags, joined in the same fixpoint. The rewriter's purity
//! guards and snapshot-read routing are predicates over that one value;
//! nothing else in the engine walks a `Core` to decide a static property.

use crate::functions::{self, Kind};
use std::collections::HashMap;
use xqsyn::core::{Core, CoreFunction, CoreProgram};

/// The effect lattice (derives `Ord`: variants are declared bottom-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// No store interaction.
    Pure,
    /// Allocates nodes but neither requests nor applies updates.
    Alloc,
    /// Produces pending update requests, applies none.
    Pending,
    /// May apply updates (contains / reaches a `snap`).
    Effectful,
}

impl Effect {
    /// Join (least upper bound).
    pub fn join(self, other: Effect) -> Effect {
        self.max(other)
    }

    /// May this expression be re-evaluated with different cardinality
    /// without changing observable behaviour? True only when no update
    /// requests are produced.
    pub fn cardinality_safe(self) -> bool {
        self <= Effect::Alloc
    }

    /// Is evaluation order unconstrained (the paper's "inside an innermost
    /// snap ... both the pure subexpressions and the update operations can
    /// be evaluated in any order", as long as Δ order is reassembled)?
    pub fn order_free(self) -> bool {
        self < Effect::Effectful
    }
}

/// Everything the engine statically knows about an expression or a
/// declared function: its level on the lattice plus two monotone flags
/// the level alone hides. One value, one walk (`facts_with`), closed over
/// calls by the same fixpoint — every gate in the engine is a predicate
/// over it (DESIGN.md §9, §15) and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// The level on the effect lattice.
    pub level: Effect,
    flags: u8,
}

impl Facts {
    /// Reaches a `snap` of any mode. Even over pure code a snap draws an
    /// application seed and counts toward the snap statistics.
    pub const SNAP: u8 = 1;
    /// Reaches a [`Kind::Opaque`] or [`Kind::MutStore`] built-in: rated
    /// `Pure`, yet it allocates, prints, or observes engine-global state
    /// outside the store.
    pub const OPAQUE: u8 = 2;

    /// Nothing known to happen: the bottom of the lattice, no flag.
    pub const PURE: Facts = Facts::at(Effect::Pure);
    /// Nothing known at all (a call to an undeclared function — §5 argues
    /// updating flags belong in signatures; absent one we stay sound).
    pub const UNKNOWN: Facts = Facts {
        level: Effect::Effectful,
        flags: Facts::SNAP | Facts::OPAQUE,
    };

    const fn at(level: Effect) -> Facts {
        Facts { level, flags: 0 }
    }

    /// Join (least upper bound): the higher level, either side's flags.
    pub fn join(self, other: Facts) -> Facts {
        Facts {
            level: self.level.join(other.level),
            flags: self.flags | other.flags,
        }
    }

    /// Is any of `flags` set?
    pub fn has(self, flags: u8) -> bool {
        self.flags & flags != 0
    }

    /// Is this pure with nothing the level hides — `Pure` on the lattice,
    /// reaching no `snap` and no opaque built-in? It neither allocates,
    /// nor emits update requests, nor applies them: evaluating it earlier,
    /// later or more often changes nothing observable.
    pub fn strictly_pure(self) -> bool {
        self.level <= Effect::Pure && !self.has(Facts::SNAP | Facts::OPAQUE)
    }

    /// May the server answer this from a private fork of a pinned snapshot?
    /// [`Facts::strictly_pure`] one level up: constructing nodes is harmless
    /// there — they die with the fork — while emitting or applying update
    /// requests is still a write.
    pub fn snapshot_read(self) -> bool {
        self.level <= Effect::Alloc && !self.has(Facts::SNAP | Facts::OPAQUE)
    }
}

/// Effect analysis over a program: computes per-function [`Facts`] by
/// fixpoint, then answers queries about arbitrary expressions in a single
/// pass that never chases a call.
#[derive(Clone)]
pub struct EffectAnalysis {
    functions: HashMap<(String, usize), Facts>,
}

impl EffectAnalysis {
    /// Analyze a program's function declarations to a fixpoint.
    pub fn new(program: &CoreProgram) -> Self {
        Self::for_functions(&program.functions)
    }

    /// Analyze an explicit function set to a fixpoint — the evaluator uses
    /// this for its registered-function table, which may hold module
    /// functions beyond any single program's declarations.
    pub fn for_functions<'a, I>(funcs: I) -> Self
    where
        I: IntoIterator<Item = &'a CoreFunction>,
    {
        let funcs: Vec<&CoreFunction> = funcs.into_iter().collect();
        let mut functions: HashMap<(String, usize), Facts> = funcs
            .iter()
            .map(|f| ((f.name.clone(), f.params.len()), Facts::PURE))
            .collect();
        // Kleene iteration: facts only grow, the lattice has height 4 and
        // there are three flags, so this terminates quickly.
        loop {
            let mut changed = false;
            for f in &funcs {
                let key = (f.name.clone(), f.params.len());
                let found = facts_with(&f.body, &functions);
                let cur = functions.get_mut(&key).expect("registered");
                let joined = cur.join(found);
                if joined != *cur {
                    *cur = joined;
                    changed = true;
                }
            }
            if !changed {
                return EffectAnalysis { functions };
            }
        }
    }

    /// An analysis with no user functions.
    pub fn empty() -> Self {
        EffectAnalysis {
            functions: HashMap::new(),
        }
    }

    /// What `expr` may do under this program's functions.
    pub fn facts(&self, expr: &Core) -> Facts {
        facts_with(expr, &self.functions)
    }

    /// What a run of `program` may do: its body joined with every prolog
    /// variable initializer (both run inside the implicit top-level snap).
    pub fn program_facts(&self, program: &CoreProgram) -> Facts {
        program
            .variables
            .iter()
            .fold(self.facts(&program.body), |acc, (_, init)| {
                acc.join(self.facts(init))
            })
    }

    /// The effect of an expression under this program's functions.
    pub fn effect(&self, expr: &Core) -> Effect {
        self.facts(expr).level
    }

    /// The effect of a declared function.
    pub fn function_effect(&self, name: &str, arity: usize) -> Option<Effect> {
        let facts = self.functions.get(&(name.to_string(), arity))?;
        Some(facts.level)
    }
}

/// Structural computation given current function assumptions: the one
/// place a static property of `Core` is decided.
fn facts_with(expr: &Core, funcs: &HashMap<(String, usize), Facts>) -> Facts {
    let mut acc = match expr {
        Core::ElemCtor { .. }
        | Core::AttrCtor { .. }
        | Core::TextCtor(_)
        | Core::DocCtor(_)
        | Core::Copy(_) => Facts::at(Effect::Alloc),
        Core::Insert { .. }
        | Core::Delete(_)
        | Core::Replace(..)
        | Core::ReplaceValue(..)
        | Core::Rename(..) => Facts::at(Effect::Pending),
        Core::Snap(_, body) => {
            // A snap *applies* its body's pending updates. If the body can't
            // produce any, the snap applies an empty Δ and its level is as
            // benign as its body's — but it is still a snap.
            let mut b = facts_with(body, funcs);
            if b.level >= Effect::Pending {
                b.level = Effect::Effectful;
            }
            b.flags |= Facts::SNAP;
            return b;
        }
        // Built-ins never touch the store beyond reading, and the
        // constructor-ish ones don't allocate nodes either — except the
        // few the flag exists for.
        Core::Call(name, args) => match functions::builtin(name, args.len()) {
            Some(f) => match f.kind {
                Kind::Read | Kind::Position => Facts::PURE,
                Kind::Opaque | Kind::MutStore => Facts {
                    level: Effect::Pure,
                    flags: Facts::OPAQUE,
                },
                Kind::Panic => Facts::UNKNOWN,
            },
            None => funcs
                .get(&(name.clone(), args.len()))
                .copied()
                .unwrap_or(Facts::UNKNOWN),
        },
        _ => Facts::PURE,
    };
    expr.for_each_child(|c| acc = acc.join(facts_with(c, funcs)));
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqsyn::compile;

    fn body_effect(src: &str) -> Effect {
        let prog = compile(src).expect("compile");
        EffectAnalysis::new(&prog).effect(&prog.body)
    }

    #[test]
    fn literals_and_paths_are_pure() {
        assert_eq!(body_effect("1 + 2"), Effect::Pure);
        assert_eq!(body_effect("$x//person[@id = 3]"), Effect::Pure);
        assert_eq!(body_effect("for $x in $s return count($x)"), Effect::Pure);
    }

    #[test]
    fn constructors_allocate() {
        assert_eq!(body_effect("<a/>"), Effect::Alloc);
        assert_eq!(body_effect("element foo { 1 }"), Effect::Alloc);
        assert_eq!(body_effect("copy { $x }"), Effect::Alloc);
    }

    #[test]
    fn updates_are_pending() {
        assert_eq!(body_effect("insert { <a/> } into { $x }"), Effect::Pending);
        assert_eq!(body_effect("delete { $x }"), Effect::Pending);
        assert_eq!(
            body_effect("for $i in 1 to 3 return insert { <a/> } into { $x }"),
            Effect::Pending
        );
    }

    #[test]
    fn snap_makes_updates_effectful() {
        assert_eq!(body_effect("snap { delete { $x } }"), Effect::Effectful);
        // ...but a snap over pure code is harmless.
        assert_eq!(body_effect("snap { 1 + 2 }"), Effect::Pure);
        assert_eq!(body_effect("snap { <a/> }"), Effect::Alloc);
    }

    #[test]
    fn function_effects_propagate_monadically() {
        // The paper's rule: "a function that calls an updating function is
        // updating as well."
        let prog = compile(
            r#"
            declare function upd() { snap delete { $x } };
            declare function wrapper() { upd() };
            declare function pure() { 1 + 1 };
            wrapper()"#,
        )
        .unwrap();
        let a = EffectAnalysis::new(&prog);
        assert_eq!(a.function_effect("upd", 0), Some(Effect::Effectful));
        assert_eq!(a.function_effect("wrapper", 0), Some(Effect::Effectful));
        assert_eq!(a.function_effect("pure", 0), Some(Effect::Pure));
        assert_eq!(a.effect(&prog.body), Effect::Effectful);
    }

    #[test]
    fn recursive_functions_reach_fixpoint() {
        let prog = compile(
            r#"
            declare function even($n) { if ($n = 0) then true() else odd($n - 1) };
            declare function odd($n) { if ($n = 0) then false() else even($n - 1) };
            even(4)"#,
        )
        .unwrap();
        let a = EffectAnalysis::new(&prog);
        assert_eq!(a.function_effect("even", 1), Some(Effect::Pure));
        // Mutual recursion with an update somewhere.
        let prog2 = compile(
            r#"
            declare function f($n) { if ($n = 0) then () else g($n - 1) };
            declare function g($n) { (delete { $x }, f($n - 1)) };
            f(3)"#,
        )
        .unwrap();
        let a2 = EffectAnalysis::new(&prog2);
        assert_eq!(a2.function_effect("f", 1), Some(Effect::Pending));
        assert_eq!(a2.function_effect("g", 1), Some(Effect::Pending));
    }

    #[test]
    fn unknown_functions_assumed_effectful() {
        let a = EffectAnalysis::empty();
        let prog = compile("mystery(1)").unwrap();
        assert_eq!(a.effect(&prog.body), Effect::Effectful);
        assert_eq!(a.facts(&prog.body), Facts::UNKNOWN);
    }

    /// The level and which of (`SNAP`, `OPAQUE`) are set.
    fn summary(f: Facts) -> (Effect, [bool; 2]) {
        let flags = [Facts::SNAP, Facts::OPAQUE];
        (f.level, flags.map(|flag| f.has(flag)))
    }

    fn body_facts(src: &str) -> (Effect, [bool; 2]) {
        let prog = compile(src).expect("compile");
        summary(EffectAnalysis::new(&prog).facts(&prog.body))
    }

    #[test]
    fn flags_record_what_the_level_hides() {
        use Effect::*;
        for (src, want) in [
            // Direct.
            ("1 + 2", (Pure, [false, false])),
            ("snap { 1 }", (Pure, [true, false])),
            ("snap { <a/> }", (Alloc, [true, false])),
            ("snap { delete { $x } }", (Effectful, [true, false])),
            (
                "snap nondeterministic { delete { $x } }",
                (Effectful, [true, false]),
            ),
            ("snap conflict-detection { 1 }", (Pure, [true, false])),
            ("trace($x, \"t\")", (Pure, [false, true])),
            ("<a>{ parse-xml(\"<b/>\") }</a>", (Alloc, [false, true])),
            ("count(xqb:stats())", (Pure, [false, true])),
            // A flag anywhere in the expression reaches its root.
            (
                "for $i in 1 to 3 return if ($i) then snap { $i } else trace($i, \"t\")",
                (Pure, [true, true]),
            ),
            // Through a call chain: what `f` reaches, a call to `f` reaches.
            (
                "declare function h() { snap nondeterministic { 1 } };
                 declare function g() { (h(), trace(1, \"t\")) };
                 declare function f() { g() };
                 f()",
                (Pure, [true, true]),
            ),
            // ...and only a call does: declaring is not reaching.
            (
                "declare function h() { snap nondeterministic { 1 } }; 1",
                (Pure, [false, false]),
            ),
            // Through mutual recursion, whichever side holds the construct.
            (
                "declare function even($n) { if ($n = 0) then true() else odd($n - 1) };
                 declare function odd($n) { if ($n = 0) then snap { false() } else even($n - 1) };
                 even(4)",
                (Pure, [true, false]),
            ),
        ] {
            assert_eq!(body_facts(src), want, "{src}");
        }
    }

    #[test]
    fn gates_are_predicates_over_facts() {
        let gates = |src: &str| {
            let prog = compile(src).expect("compile");
            let f = EffectAnalysis::new(&prog).program_facts(&prog);
            (f.strictly_pure(), f.snapshot_read())
        };
        assert_eq!(gates("count($x)"), (true, true));
        assert_eq!(gates("<a/>"), (false, true));
        assert_eq!(gates("delete { $x }"), (false, false));
        assert_eq!(gates("snap { 1 }"), (false, false));
        assert_eq!(gates("snap nondeterministic { 1 }"), (false, false));
        assert_eq!(gates("(delete { $x }, xqb:stats())"), (false, false));
        // A prolog initializer is part of the run.
        assert_eq!(
            gates("declare variable $v := trace(1, \"t\"); $v"),
            (false, false)
        );
    }

    #[test]
    fn alloc_ceiling_admits_construction_and_nothing_more() {
        let alloc = |src: &str| {
            let prog = compile(src).expect("compile");
            EffectAnalysis::new(&prog).facts(&prog.body).snapshot_read()
        };
        assert!(alloc("$x/a[@id = 3] + count($y)"));
        assert!(alloc(
            "for $p in $s return <item n=\"{$p/@n}\">{ count($p/*) }</item>"
        ));
        assert!(alloc("copy { $x }"));
        assert!(alloc("declare function mk($n) { <e>{$n}</e> }; mk(1)"));
        // Pending and Effectful stay above the ceiling, constructor or not.
        assert!(!alloc("insert { <a/> } into { $x }"));
        assert!(!alloc("(<a/>, snap { delete { $x } })"));
        // The flags are the same ones: snap, tracing and the opaque
        // built-ins are rejected at either ceiling, also behind a
        // constructor in a function body.
        assert!(!alloc("snap { <a/> }"));
        assert!(!alloc("<a>{ parse-xml(\"<b/>\") }</a>"));
        assert!(!alloc(
            "declare function mk() { <a>{ snap { 1 } }</a> }; mk()"
        ));
    }

    /// `(prolog, body, pure)`: what [`Facts::strictly_pure`] admits.
    const PURITY_CORPUS: &[(&str, &str, bool)] = &[
        ("", "$x/a[@id = 3] + count($y)", true),
        ("", "for $i in 1 to 9 return $i * $i", true),
        // Alloc, Pending, Effectful: all rejected.
        ("", "<a/>", false),
        ("", "insert { <a/> } into { $x }", false),
        ("", "snap { delete { $x/a } }", false),
        // Pure-rated but opaque.
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
    fn purity_admits_pure_and_transparent_bodies_only() {
        for (prolog, body, pure) in PURITY_CORPUS {
            let prog = compile(&format!("{prolog} {body}")).expect("compile");
            let facts = EffectAnalysis::new(&prog).facts(&prog.body);
            assert_eq!(facts.strictly_pure(), *pure, "{body}");
        }
    }

    #[test]
    fn program_local_functions_shadow_module_facts() {
        use crate::env::{ProgramEnv, Scope};
        use std::sync::Arc;
        let module = compile(
            "declare function f() { snap nondeterministic { trace(1, \"t\") } };
             declare function via() { f() };
             1",
        )
        .unwrap();
        let mut env = ProgramEnv::default();
        env.declare(&module.functions).unwrap();
        let env = Arc::new(env);
        let facts = |src: &str| {
            let prog = compile(src).unwrap();
            summary(Scope::new(env.clone(), &prog).effects().facts(&prog.body))
        };
        assert_eq!(facts("f()"), (Effect::Pure, [true, true]));
        // The program's own `f` is the one a call means — also a call made
        // from inside a module function.
        let local = "declare function f() { 1 };";
        assert_eq!(facts(&format!("{local} f()")), (Effect::Pure, [false; 2]));
        assert_eq!(facts(&format!("{local} via()")), (Effect::Pure, [false; 2]));
    }

    #[test]
    fn lattice_properties() {
        assert!(Effect::Pure < Effect::Alloc);
        assert!(Effect::Alloc < Effect::Pending);
        assert!(Effect::Pending < Effect::Effectful);
        assert!(Effect::Alloc.cardinality_safe());
        assert!(!Effect::Pending.cardinality_safe());
        assert!(Effect::Pending.order_free());
        assert!(!Effect::Effectful.order_free());
    }
}
