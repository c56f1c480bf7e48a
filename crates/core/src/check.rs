//! Static checking (the paper's §5 direction: "a bit of typing would be
//! useful: the signature of functions ... should contain an updating
//! flag").
//!
//! XQuery! is dynamically typed over well-formed data, but a host still
//! wants errors before evaluation: undefined variables and functions,
//! arity mismatches, duplicate declarations — plus the effect-related
//! lints this paper motivates: flagging *updating* functions and warning
//! where an applied effect (`snap`) hides in a position whose evaluation
//! order users rarely think about (path predicates, `order by` keys,
//! quantifier conditions).

use crate::effects::{Effect, EffectAnalysis};
use crate::functions;
use std::collections::{HashMap, HashSet};
use xqsyn::core::{Core, CoreProgram};

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Evaluation would fail.
    Error,
    /// Legal but suspicious.
    Warning,
}

/// One static-check finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Stable machine code (XQuery codes where one fits).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    fn error(code: &'static str, message: String) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            message,
        }
    }

    fn warning(code: &'static str, message: String) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message,
        }
    }
}

/// Statically check a program. `host_vars` are the variables the host
/// promises to bind before running (e.g. loaded documents).
pub fn check_program(program: &CoreProgram, host_vars: &[&str]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let analysis = EffectAnalysis::new(program);

    // Declared functions, with duplicate detection.
    let mut declared: HashMap<(String, usize), usize> = HashMap::new();
    for f in &program.functions {
        *declared
            .entry((f.name.clone(), f.params.len()))
            .or_insert(0) += 1;
    }
    for ((name, arity), count) in &declared {
        if *count > 1 {
            diags.push(Diagnostic::error(
                "XQST0034",
                format!("function {name}#{arity} declared {count} times"),
            ));
        }
        if functions::builtin(name, *arity).is_some() {
            diags.push(Diagnostic::warning(
                "XQB0103",
                format!(
                    "declared function {name}#{arity} is never called: \
                     the built-in takes precedence"
                ),
            ));
        }
    }

    // Duplicate global variables.
    let mut seen_vars = HashSet::new();
    for (name, _) in &program.variables {
        if !seen_vars.insert(name.clone()) {
            diags.push(Diagnostic::error(
                "XQST0049",
                format!("variable ${name} declared more than once"),
            ));
        }
    }

    // Updating-flag report (§5): informational warnings for functions that
    // apply effects.
    for f in &program.functions {
        if analysis.function_effect(&f.name, f.params.len()) == Some(Effect::Effectful) {
            diags.push(Diagnostic::warning(
                "XQB0100",
                format!(
                    "function {}#{} is updating (applies effects via snap)",
                    f.name,
                    f.params.len()
                ),
            ));
        }
    }

    // Scope/arity/effect checks per expression.
    let mut globals: HashSet<String> = host_vars.iter().map(|s| s.to_string()).collect();
    let cx = Context {
        declared: &declared,
        analysis: &analysis,
    };
    for f in &program.functions {
        let mut scope: Vec<&str> = f.params.iter().map(String::as_str).collect();
        // Function bodies see parameters + globals (all declared globals:
        // declaration order is not enforced for function bodies, matching
        // the evaluator, which resolves globals at call time).
        let mut fglobals = globals.clone();
        for (name, _) in &program.variables {
            fglobals.insert(name.clone());
        }
        check_expr(&f.body, &mut scope, &fglobals, &cx, &mut diags);
    }
    for (name, init) in &program.variables {
        check_expr(init, &mut Vec::new(), &globals, &cx, &mut diags);
        globals.insert(name.clone());
    }
    check_expr(&program.body, &mut Vec::new(), &globals, &cx, &mut diags);
    diags
}

struct Context<'a> {
    declared: &'a HashMap<(String, usize), usize>,
    analysis: &'a EffectAnalysis,
}

fn check_expr<'a>(
    expr: &'a Core,
    scope: &mut Vec<&'a str>,
    globals: &HashSet<String>,
    cx: &Context<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    match expr {
        Core::Var(name) if !scope.contains(&name.as_str()) && !globals.contains(name) => {
            diags.push(Diagnostic::error(
                "XPST0008",
                format!("undefined variable ${name}"),
            ));
        }
        Core::Call(name, args)
            if functions::builtin(name, args.len()).is_none()
                && !cx.declared.contains_key(&(name.clone(), args.len())) =>
        {
            let other_arities: Vec<usize> = cx
                .declared
                .keys()
                .filter(|(n, _)| n == name)
                .map(|(_, a)| *a)
                .collect();
            let hint = if other_arities.is_empty() {
                String::new()
            } else {
                format!(" (declared with arity {other_arities:?})")
            };
            let error = functions::unresolved(name, args.len());
            diags.push(Diagnostic::error(error.code, error.message + &hint));
        }
        _ => {}
    }
    // A quantifier's condition and a step's predicates are the children
    // after the first; an applied effect there runs a data-dependent
    // number of times.
    let order_warning = match expr {
        Core::Quantified { .. } => Some((
            "XQB0101",
            "quantifier condition applies effects; short-circuiting makes the \
             number of applications data-dependent",
        )),
        Core::MapStep { .. } => Some((
            "XQB0102",
            "path predicate applies effects (snap); it runs once per \
             candidate node in document order",
        )),
        _ => None,
    };
    expr.for_each_child_scoped(|child, in_scope| {
        if let (true, Some((code, message))) = (in_scope, order_warning) {
            if cx.analysis.effect(child) == Effect::Effectful {
                diags.push(Diagnostic::warning(code, message.to_string()));
            }
        }
        check_scoped(expr, child, in_scope, scope, globals, cx, diags);
    });
}

/// Check `child` of `parent`, with `parent`'s bound variables in scope
/// when `in_scope` says they cover it.
fn check_scoped<'a>(
    parent: &'a Core,
    child: &'a Core,
    in_scope: bool,
    scope: &mut Vec<&'a str>,
    globals: &HashSet<String>,
    cx: &Context<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let depth = scope.len();
    if in_scope {
        scope.extend(parent.binds().into_iter().flatten());
    }
    check_expr(child, scope, globals, cx, diags);
    scope.truncate(depth);
}

/// Only the errors from [`check_program`].
pub fn check_errors(program: &CoreProgram, host_vars: &[&str]) -> Vec<Diagnostic> {
    check_program(program, host_vars)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqsyn::compile;

    fn check(q: &str, hosts: &[&str]) -> Vec<Diagnostic> {
        check_program(&compile(q).expect("compile"), hosts)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let d = check(
            "declare function f($x) { $x + 1 }; for $i in 1 to 3 return f($i)",
            &[],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn undefined_variable_detected() {
        let d = check("$nope + 1", &[]);
        assert_eq!(codes(&d), vec!["XPST0008"]);
        // Host-promised variables are fine.
        assert!(check("$doc//x", &["doc"]).is_empty());
    }

    #[test]
    fn scoping_respected() {
        assert!(check("for $x in (1, 2) return $x", &[]).is_empty());
        // $x out of scope after the loop.
        let d = check("(for $x in (1, 2) return $x, $x)", &[]);
        assert_eq!(codes(&d), vec!["XPST0008"]);
        // Positional variable in scope.
        assert!(check("for $x at $i in (1, 2) return $i", &[]).is_empty());
    }

    #[test]
    fn undefined_function_with_arity_hint() {
        let d = check("declare function f($a) { $a }; f(1, 2)", &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "XPST0017");
        assert!(d[0].message.contains("arity [1]"), "{}", d[0].message);
    }

    #[test]
    fn duplicate_declarations() {
        let d = check(
            "declare function f() { 1 }; declare function f() { 2 }; f()",
            &[],
        );
        assert!(codes(&d).contains(&"XQST0034"));
        let d = check(
            "declare variable $v := 1; declare variable $v := 2; $v",
            &[],
        );
        assert!(codes(&d).contains(&"XQST0049"));
    }

    #[test]
    fn builtin_shadowing_warns() {
        // A row wins at its arities: a declared count#1 is never called.
        let d = check("declare function count($x) { 0 }; count(())", &[]);
        assert_eq!(codes(&d), vec!["XQB0103"]);
        assert!(
            d[0].message.contains("takes precedence"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn builtin_arity_decides_the_call() {
        // At an arity with no row the declaration is called, and no row is
        // shadowed.
        let d = check(
            "declare function count($a, $b, $c) { 0 }; count(1, 2, 3)",
            &[],
        );
        assert!(d.is_empty(), "{d:?}");
        // An undeclared call at an arity with no row fails the run.
        let d = check("count(1, 2)", &[]);
        assert_eq!(codes(&d), vec!["XPST0017"]);
        assert!(d[0]
            .message
            .contains("wrong number of arguments (2) for fn:count"));
    }

    #[test]
    fn updating_functions_flagged() {
        let d = check(
            "declare function log_it() { snap insert { <l/> } into { $t } }; log_it()",
            &["t"],
        );
        assert!(codes(&d).contains(&"XQB0100"));
        // Pending-only functions are not "updating" in the §5 sense.
        let d = check(
            "declare function req() { insert { <l/> } into { $t } }; snap { req() }",
            &["t"],
        );
        assert!(!codes(&d).contains(&"XQB0100"), "{d:?}");
    }

    #[test]
    fn effectful_predicate_warns() {
        let d = check("$doc//x[snap delete { . }]", &["doc"]);
        assert!(codes(&d).contains(&"XQB0102"));
        // Pending updates in predicates do not warn (they are effect-free).
        let d = check("$doc//x[(delete { . }, true())]", &["doc"]);
        assert!(!codes(&d).contains(&"XQB0102"));
    }

    #[test]
    fn effectful_quantifier_condition_warns() {
        let d = check(
            "some $x in $doc//e satisfies (snap delete { $x }, true())",
            &["doc"],
        );
        assert!(codes(&d).contains(&"XQB0101"));
    }

    #[test]
    fn function_bodies_see_all_globals() {
        // f references $later, declared after it: legal (resolved at call
        // time), so no diagnostic.
        let d = check(
            "declare function f() { $later };
             declare variable $later := 1;
             f()",
            &[],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn check_errors_filters_warnings() {
        let e = check_errors(
            &compile("declare function count($x) { $nope }; 1").unwrap(),
            &[],
        );
        assert_eq!(codes(&e), vec!["XPST0008"]);
    }
}
