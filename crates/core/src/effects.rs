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

/// Effect analysis over a program: computes per-function effects by
/// fixpoint, then answers queries about arbitrary expressions.
#[derive(Clone)]
pub struct EffectAnalysis {
    functions: HashMap<(String, usize), Effect>,
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
        let mut functions: HashMap<(String, usize), Effect> = funcs
            .iter()
            .map(|f| ((f.name.clone(), f.params.len()), Effect::Pure))
            .collect();
        // Kleene iteration: effects only grow, the lattice has height 4,
        // so this terminates quickly.
        loop {
            let mut changed = false;
            for f in &funcs {
                let key = (f.name.clone(), f.params.len());
                let e = effect_with(&f.body, &functions);
                let cur = functions.get_mut(&key).expect("registered");
                if e > *cur {
                    *cur = e;
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

    /// The effect of an expression under this program's functions.
    pub fn effect(&self, expr: &Core) -> Effect {
        effect_with(expr, &self.functions)
    }

    /// The effect of a declared function.
    pub fn function_effect(&self, name: &str, arity: usize) -> Option<Effect> {
        self.functions.get(&(name.to_string(), arity)).copied()
    }
}

/// Structural effect computation given current function assumptions.
fn effect_with(expr: &Core, funcs: &HashMap<(String, usize), Effect>) -> Effect {
    let mut acc = match expr {
        Core::Const(_) | Core::Var(_) | Core::ContextItem => Effect::Pure,
        Core::ElemCtor { .. }
        | Core::AttrCtor { .. }
        | Core::TextCtor(_)
        | Core::DocCtor(_)
        | Core::Copy(_) => Effect::Alloc,
        Core::Insert { .. }
        | Core::Delete(_)
        | Core::Replace(..)
        | Core::ReplaceValue(..)
        | Core::Rename(..) => Effect::Pending,
        Core::Snap(_, body) => {
            // A snap *applies* its body's pending updates. If the body can't
            // produce any, the snap applies an empty Δ and is as benign as
            // its body.
            let b = effect_with(body, funcs);
            return if b >= Effect::Pending {
                Effect::Effectful
            } else {
                b
            };
        }
        Core::Call(name, args) => {
            let base = if crate::functions::is_builtin(name) {
                // Built-ins never touch the store beyond reading;
                // constructor-ish ones don't allocate nodes either.
                Effect::Pure
            } else {
                funcs
                    .get(&(name.clone(), args.len()))
                    .copied()
                    // Unknown function: assume the worst (e.g. a module
                    // boundary without an updating flag — §5 argues such
                    // flags belong in signatures; absent one we stay sound).
                    .unwrap_or(Effect::Effectful)
            };
            let mut e = base;
            for a in args {
                e = e.join(effect_with(a, funcs));
            }
            return e;
        }
        _ => Effect::Pure,
    };
    expr.for_each_child(|c| acc = acc.join(effect_with(c, funcs)));
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
