//! The binder battery's generator: programs of nested, shadowing `let` /
//! `for` / `for … at` / `some` / `every` / `order by` binders over
//! integers, from the vendored proptest RNG keyed on [`BINDER_SEED`].

use proptest::test_runner::TestRng;

/// The binder battery's pinned generator key: changing it changes every
/// case.
pub const BINDER_SEED: &str = "binder_battery/v1";
/// Generated programs per battery run.
pub const BINDER_CASES: u32 = 300;

/// A random program of nested `let`, `for`, `for … at`, `some`, `every`
/// and `for … order by` over integer leaves, `+` and sequences. Binders
/// draw their names from a pool of two (three with `$z` planted), so
/// variables shadow one another and a `let` value often mentions a name
/// its body rebinds. Every source is non-empty and every program is
/// well-typed, so each sub-expression is evaluated at least once: the
/// only error a program can raise is a planted `$z` read out of scope
/// (`XPST0008`).
pub struct BinderGen {
    rng: TestRng,
    names: &'static [&'static str],
    /// Leaves may read `$z`, bound or not.
    plant: bool,
    /// Variables in scope, innermost last; `true` when bound to one
    /// integer, `false` when bound to a sequence.
    scope: Vec<(&'static str, bool)>,
}

impl BinderGen {
    pub fn program(case: u32, plant: bool) -> String {
        let mut g = BinderGen {
            rng: TestRng::for_case(BINDER_SEED, case + u32::from(plant) * BINDER_CASES),
            names: if plant { &["x", "y", "z"] } else { &["x", "y"] },
            plant,
            scope: Vec::new(),
        };
        g.seq(5)
    }

    fn name(&mut self) -> &'static str {
        self.names[self.rng.below(self.names.len())]
    }

    /// Is the innermost binding of `name` one integer?
    fn single(&self, name: &str) -> Option<bool> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, single)| single)
    }

    /// An expression yielding exactly one integer.
    fn int(&mut self, depth: u32) -> String {
        if self.plant && self.rng.below(10) == 0 {
            return "$z".into();
        }
        if depth == 0 || self.rng.below(3) == 0 {
            let vars: Vec<&str> = self
                .names
                .iter()
                .copied()
                .filter(|n| self.single(n) == Some(true))
                .collect();
            return if !vars.is_empty() && self.rng.below(3) > 0 {
                format!("${}", vars[self.rng.below(vars.len())])
            } else {
                self.rng.below(10).to_string()
            };
        }
        match self.rng.below(3) {
            0 => format!("({} + {})", self.int(depth - 1), self.int(depth - 1)),
            1 => self.bind_let(depth, false),
            _ => self.quantified(depth),
        }
    }

    /// An expression yielding a non-empty sequence of integers.
    fn seq(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(5) == 0 {
            let vars: Vec<&str> = self
                .names
                .iter()
                .copied()
                .filter(|n| self.single(n).is_some())
                .collect();
            return match self.rng.below(3) {
                0 if !vars.is_empty() => format!("${}", vars[self.rng.below(vars.len())]),
                0 | 1 => format!("({}, {})", self.int(0), self.int(0)),
                _ => self.int(0),
            };
        }
        match self.rng.below(4) {
            0 => format!("({}, {})", self.any(depth - 1), self.any(depth - 1)),
            1 => self.bind_let(depth, true),
            _ => self.bind_for(depth),
        }
    }

    fn any(&mut self, depth: u32) -> String {
        if self.rng.below(2) == 0 {
            self.int(depth)
        } else {
            self.seq(depth)
        }
    }

    /// `let $v := … return body`. Half the values are a leaf, mostly a
    /// variable, and half the bodies open with a binder: the shape where a
    /// body binder can capture the value's variable. A `$z` is always
    /// bound to one integer, so a planted `$z` in scope never raises a
    /// type error.
    fn bind_let(&mut self, depth: u32, seq_body: bool) -> String {
        let v = self.name();
        let (single, value) = match self.rng.below(4) {
            0 | 1 => (true, self.int(0)),
            2 => (true, self.int(depth - 1)),
            _ if v == "z" => (true, self.int(depth - 1)),
            _ => (false, self.seq(depth - 1)),
        };
        self.scope.push((v, single));
        let body = match (self.rng.below(2), seq_body) {
            (0, true) => self.bind_for(depth),
            (0, false) => self.quantified(depth),
            (_, true) => self.seq(depth - 1),
            (_, false) => self.int(depth - 1),
        };
        self.scope.pop();
        format!("(let ${v} := {value} return {body})")
    }

    /// `for $v in …`, `for $v at $p in …` or `for $v in … order by …`.
    fn bind_for(&mut self, depth: u32) -> String {
        let v = self.name();
        let source = self.seq(depth - 1);
        let outer = self.scope.len();
        self.scope.push((v, true));
        let mut text = format!("for ${v}");
        match self.rng.below(3) {
            0 => {
                let p = loop {
                    let p = self.name();
                    if p != v {
                        break p;
                    }
                };
                self.scope.push((p, true));
                text += &format!(" at ${p} in {source}");
            }
            1 => {
                text += &format!(" in {source} order by ");
                for k in 0..1 + self.rng.below(2) {
                    if k > 0 {
                        text += ", ";
                    }
                    text += &self.int(depth - 1);
                    if self.rng.below(2) == 0 {
                        text += " descending";
                    }
                }
            }
            _ => text += &format!(" in {source}"),
        }
        let body = self.any(depth - 1);
        self.scope.truncate(outer);
        format!("({text} return {body})")
    }

    /// `some`/`every`, turned into one integer.
    fn quantified(&mut self, depth: u32) -> String {
        let q = if self.rng.below(2) == 0 {
            "some"
        } else {
            "every"
        };
        let v = self.name();
        let source = self.seq(depth - 1);
        self.scope.push((v, true));
        let (l, r) = (self.int(depth - 1), self.int(depth - 1));
        self.scope.pop();
        format!("(if ({q} ${v} in {source} satisfies {l} = {r}) then 1 else 0)")
    }
}
