//! The dynamic context (`dynEnv` in the paper's judgment), in three
//! layers from longest- to shortest-lived (DESIGN.md §19):
//!
//! * [`ProgramEnv`] — what every program run by one engine shares: module
//!   functions, host bindings, the effect analysis over those functions and
//!   the run policy. Built once, shared by `Arc`, edited copy-on-write.
//! * [`Scope`] — one program's own declarations laid over a `ProgramEnv`.
//!   The only place that says "program-local wins".
//! * [`DynEnv`] — the binder stack and focus of one evaluation: `push`/`pop`
//!   around a binder's body, lookup walking backwards so inner bindings
//!   shadow outer ones.

use crate::effects::EffectAnalysis;
use crate::limits::Limits;
use crate::obs::TraceSink;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use xqdm::{Item, Sequence, XdmError, XdmResult};
use xqsyn::core::{CoreFunction, CoreProgram};

/// A declared function's identity: name and arity.
pub type FnKey = (String, usize);

fn key_of(f: &CoreFunction) -> FnKey {
    (f.name.clone(), f.params.len())
}

/// Everything the programs run by one engine have in common. Immutable
/// once shared: an [`Engine`](crate::Engine) holds it in an `Arc` and
/// edits it through `Arc::make_mut`, so a published snapshot, a reader
/// fork and a running evaluator keep the environment they started with
/// and sharing it costs a reference count.
#[derive(Clone)]
pub struct ProgramEnv {
    /// Module functions in load order (EXPLAIN lists them so), indexed by
    /// `(name, arity)`. A key is declared once: [`ProgramEnv::declare`]
    /// refuses a second declaration.
    functions: Vec<Arc<CoreFunction>>,
    index: HashMap<FnKey, usize>,
    /// Effect ratings of `functions`, recomputed when the table changes.
    effects: EffectAnalysis,
    /// Fingerprint of `functions`, `(0, 0)` while empty: the table's share
    /// of a plan-cache key, so loading a module invalidates cached plans.
    fingerprint: (u64, u64),
    /// Host bindings (`bind`, `load_document`, module variables).
    bindings: HashMap<String, Sequence>,
    /// Base seed of the nondeterministic snap application order.
    pub seed: u64,
    /// Resource limits for every run, parse and document load.
    pub limits: Limits,
    /// Compile programs to plans (`false`: the reference interpreter)?
    pub compile: bool,
    /// Slow-query threshold in milliseconds; `None` disables the log.
    pub slow_ms: Option<f64>,
    /// Trace-span sink.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for ProgramEnv {
    /// No functions, no bindings, default policy: default limits, compiled plans, no slow-query log, no trace sink. What
    /// [`Engine::new`](crate::Engine::new) starts from; hosts change it
    /// through the engine's setters.
    fn default() -> Self {
        ProgramEnv {
            functions: Vec::new(),
            index: HashMap::new(),
            effects: EffectAnalysis::empty(),
            fingerprint: (0, 0),
            bindings: HashMap::new(),
            seed: 0x5eed,
            limits: Limits::default(),
            compile: true,
            slow_ms: None,
            trace: None,
        }
    }
}

impl ProgramEnv {
    /// Builder form of setting [`ProgramEnv::seed`].
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a module's functions and bring the effect analysis and the
    /// table fingerprint up to date. A `(name, arity)` the table already
    /// holds, or that the module declares twice, is `XQST0034` — the
    /// checker's code for a duplicate within one program — and leaves the
    /// table as it was: a module cannot replace a function that earlier
    /// requests were routed and planned against.
    pub fn declare(&mut self, functions: &[CoreFunction]) -> XdmResult<()> {
        if functions.is_empty() {
            return Ok(());
        }
        let mut seen = HashSet::new();
        for f in functions {
            let key = key_of(f);
            if self.index.contains_key(&key) || !seen.insert(key) {
                return Err(XdmError::new(
                    "XQST0034",
                    format!("function {}#{} is already declared", f.name, f.params.len()),
                ));
            }
        }
        for f in functions {
            self.index.insert(key_of(f), self.functions.len());
            self.functions.push(Arc::new(f.clone()));
        }
        self.effects = EffectAnalysis::for_functions(self.functions.iter().map(|f| &**f));
        self.fingerprint = xqsyn::core::fingerprint_of(&self.functions);
        Ok(())
    }

    /// The module function `key` names.
    pub fn function(&self, key: &FnKey) -> Option<&Arc<CoreFunction>> {
        self.index.get(key).map(|&i| &self.functions[i])
    }

    /// The module table's share of a plan-cache key.
    pub fn fingerprint(&self) -> (u64, u64) {
        self.fingerprint
    }

    /// Bind `$name` for every later program.
    pub fn bind(&mut self, name: &str, value: Sequence) {
        self.bindings.insert(name.to_string(), value);
    }

    /// Look up a host binding.
    pub fn binding(&self, name: &str) -> Option<&Sequence> {
        self.bindings.get(name)
    }

    /// Every host binding, in no particular order.
    pub fn bindings(&self) -> impl Iterator<Item = (&str, &Sequence)> {
        self.bindings.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Drop every host binding (a store was replaced under them).
    pub fn clear_bindings(&mut self) {
        self.bindings.clear();
    }
}

/// What one running program can name: its own `declare function`s and
/// prolog variables over the shared [`ProgramEnv`]. Both lookups try the
/// program's own table first, and [`Scope::module_functions`] hides what
/// they would not find — the shadowing rule lives in these three methods
/// and nowhere else, so routing, planning, the parallel gate and
/// evaluation cannot disagree about which `f` a call means.
pub struct Scope {
    env: Arc<ProgramEnv>,
    functions: HashMap<FnKey, Arc<CoreFunction>>,
    globals: HashMap<String, Sequence>,
    /// The analysis over own + visible module functions, computed on
    /// first use when the program declares any function; a program that
    /// declares none is judged by the environment's analysis as it is.
    effects: OnceLock<EffectAnalysis>,
}

impl Scope {
    /// `program`'s declarations over `env`.
    pub fn new(env: Arc<ProgramEnv>, program: &CoreProgram) -> Scope {
        Scope {
            env,
            functions: program
                .functions
                .iter()
                .map(|f| (key_of(f), Arc::new(f.clone())))
                .collect(),
            globals: HashMap::new(),
            effects: OnceLock::new(),
        }
    }

    /// The shared environment underneath.
    pub fn env(&self) -> &Arc<ProgramEnv> {
        &self.env
    }

    /// The function a call to `name` with `arity` arguments means — behind
    /// an `Arc`, so a caller can keep the body while it evaluates it.
    pub fn function(&self, name: &str, arity: usize) -> Option<&Arc<CoreFunction>> {
        let key = (name.to_string(), arity);
        self.functions.get(&key).or_else(|| self.env.function(&key))
    }

    /// The module functions a call can still reach (load order).
    pub fn module_functions(&self) -> impl Iterator<Item = &CoreFunction> {
        self.env
            .functions
            .iter()
            .map(|f| &**f)
            .filter(|f| self.functions.is_empty() || !self.functions.contains_key(&key_of(f)))
    }

    /// The value of global `$name`: a prolog variable of this program, or
    /// else a host binding.
    pub fn global(&self, name: &str) -> Option<&Sequence> {
        self.globals.get(name).or_else(|| self.env.binding(name))
    }

    /// Define a prolog variable of this program.
    pub fn bind_global(&mut self, name: impl Into<String>, value: Sequence) {
        self.globals.insert(name.into(), value);
    }

    /// Effect ratings of every function [`Scope::function`] can return.
    pub fn effects(&self) -> &EffectAnalysis {
        if self.functions.is_empty() {
            return &self.env.effects;
        }
        self.effects.get_or_init(|| {
            let own = self.functions.values().map(|f| &**f);
            EffectAnalysis::for_functions(own.chain(self.module_functions()))
        })
    }

    /// `program` with the module functions it can reach appended — the
    /// closed program a planner or checker needs.
    pub fn link(&self, program: &CoreProgram) -> CoreProgram {
        let mut linked = program.clone();
        linked.functions.extend(self.module_functions().cloned());
        linked
    }
}

/// The evaluation focus: context item, 1-based position, and size.
#[derive(Debug, Clone, PartialEq)]
pub struct Focus {
    /// The context item (`.`).
    pub item: Item,
    /// `fn:position()` — 1-based.
    pub position: usize,
    /// `fn:last()`.
    pub size: usize,
}

/// The binder stack and focus of one evaluation.
#[derive(Debug, Clone, Default)]
pub struct DynEnv {
    vars: Vec<(String, Sequence)>,
    focus: Vec<Focus>,
}

impl DynEnv {
    /// An empty environment.
    pub fn new() -> Self {
        DynEnv::default()
    }

    /// Bind `name` (shadowing any outer binding). Returns a token the
    /// caller passes to [`DynEnv::pop_var`]; pushes/pops must nest.
    pub fn push_var(&mut self, name: impl Into<String>, value: Sequence) {
        self.vars.push((name.into(), value));
    }

    /// Remove the most recent binding.
    pub fn pop_var(&mut self) {
        self.vars.pop().expect("unbalanced pop_var");
    }

    /// Look up a variable.
    pub fn var(&self, name: &str) -> XdmResult<&Sequence> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| XdmError::new("XPST0008", format!("undefined variable ${name}")))
    }

    /// Number of bindings (for balance assertions in tests).
    pub fn depth(&self) -> usize {
        self.vars.len()
    }

    /// Enter a new focus (context item / position / size).
    pub fn push_focus(&mut self, focus: Focus) {
        self.focus.push(focus);
    }

    /// Leave the current focus.
    pub fn pop_focus(&mut self) {
        self.focus.pop().expect("unbalanced pop_focus");
    }

    /// The current focus, if any (XPDY0002 when absent).
    pub fn focus(&self) -> XdmResult<&Focus> {
        self.focus
            .last()
            .ok_or_else(|| XdmError::new("XPDY0002", "context item is undefined here"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowing_and_restore() {
        let mut env = DynEnv::new();
        env.push_var("x", xqdm::seq![Item::integer(1)]);
        env.push_var("x", xqdm::seq![Item::integer(2)]);
        assert_eq!(env.var("x").unwrap(), &vec![Item::integer(2)]);
        env.pop_var();
        assert_eq!(env.var("x").unwrap(), &vec![Item::integer(1)]);
    }

    #[test]
    fn undefined_variable_errors() {
        let env = DynEnv::new();
        assert_eq!(env.var("nope").unwrap_err().code, "XPST0008");
    }

    #[test]
    fn focus_stack() {
        let mut env = DynEnv::new();
        assert_eq!(env.focus().unwrap_err().code, "XPDY0002");
        env.push_focus(Focus {
            item: Item::integer(1),
            position: 1,
            size: 3,
        });
        env.push_focus(Focus {
            item: Item::integer(2),
            position: 2,
            size: 3,
        });
        assert_eq!(env.focus().unwrap().position, 2);
        env.pop_focus();
        assert_eq!(env.focus().unwrap().position, 1);
    }
}
