//! A compact, one-line pretty-printer for core expressions.
//!
//! Used by the algebraic plan printer (the paper prints its §4.3 plan with
//! embedded expressions) and by diagnostics. Printing normalized Core and
//! reading it back gives the same text and the same program
//! (`tests/printer_law.rs`): an operand that binds looser than its
//! position is parenthesized, a filter over a path is parenthesized so it
//! does not read as a step predicate, and string constants escape `"` and
//! `&`. The one internal form the parser does not read is `ddo(…)`, which
//! only rewrites introduce.

use crate::ast::{Axis, NodeCompOp, NodeTest, Quantifier, SnapMode};
use crate::core::{Core, CoreInsertLoc, CoreName};
use std::fmt;
use xqdm::atomic::Atomic;

impl fmt::Display for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printed(self, &[]).fmt(f)
    }
}

/// `core` printed with its [`Core::Param`] slots read from `params`: a
/// slot prints as the literal bound to it, so a lifted program prints as
/// the text it was lifted from. A slot `params` does not hold prints as
/// `?i`.
pub fn with_params<'a>(core: &'a Core, params: &'a [Atomic]) -> impl fmt::Display + 'a {
    Printed(core, params)
}

/// An expression and the parameters its slots print as.
struct Printed<'a>(&'a Core, &'a [Atomic]);

impl<'a> Printed<'a> {
    /// A sub-expression, printed under the same parameters.
    fn at(&self, core: &'a Core) -> Printed<'a> {
        Printed(core, self.1)
    }

    /// A sub-expression printed where the grammar needs one that binds at
    /// least as tightly as `level`.
    fn operand(&self, core: &'a Core, level: u8) -> Operand<'a> {
        Operand(self.at(core), level)
    }
}

/// A constant, as the literal that reads back as it.
fn write_atomic(f: &mut fmt::Formatter<'_>, a: &Atomic) -> fmt::Result {
    match a {
        Atomic::String(s) => write!(f, "\"{}\"", s.replace('&', "&amp;").replace('"', "\"\"")),
        other => write!(f, "{}", other.string_value()),
    }
}

impl fmt::Display for Printed<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = |c| self.at(c);
        match self.0 {
            Core::Const(a) => write_atomic(f, a),
            Core::Param(i) => match self.1.get(*i) {
                Some(a) => write_atomic(f, a),
                None => write!(f, "?{i}"),
            },
            Core::Var(v) => write!(f, "${v}"),
            Core::ContextItem => write!(f, "."),
            // A one-member sequence is its member: the parser drops the
            // parentheses around a single expression.
            Core::Seq(items) if items.len() == 1 => write!(f, "{}", p(&items[0])),
            Core::Seq(items) => {
                write!(f, "(")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", p(e))?;
                }
                write!(f, ")")
            }
            Core::For {
                var,
                position,
                source,
                body,
            } => {
                write!(f, "for ${var}")?;
                if let Some(pos) = position {
                    write!(f, " at ${pos}")?;
                }
                write!(f, " in {} return {}", p(source), p(body))
            }
            Core::Let { var, value, body } => {
                write!(f, "let ${var} := {} return {}", p(value), p(body))
            }
            Core::If(c, t, e) => write!(f, "if ({}) then {} else {}", p(c), p(t), p(e)),
            Core::Quantified {
                quantifier,
                var,
                source,
                satisfies,
            } => {
                let q = match quantifier {
                    Quantifier::Some => "some",
                    Quantifier::Every => "every",
                };
                write!(f, "{q} ${var} in {} satisfies {}", p(source), p(satisfies))
            }
            Core::SortedFor {
                var,
                source,
                keys,
                body,
            } => {
                write!(f, "for ${var} in {} order by ", p(source))?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(
                        f,
                        "{}{}",
                        p(&k.key),
                        if k.ascending { "" } else { " descending" }
                    )?;
                }
                write!(f, " return {}", p(body))
            }
            Core::Arith(op, a, b) => {
                write!(f, "({} {op} {})", self.operand(a, 2), self.operand(b, 2))
            }
            Core::Neg(e) => write!(f, "-({})", p(e)),
            Core::GeneralComp(op, a, b) => {
                let s = match op {
                    xqdm::atomic::CompareOp::Eq => "=",
                    xqdm::atomic::CompareOp::Ne => "!=",
                    xqdm::atomic::CompareOp::Lt => "<",
                    xqdm::atomic::CompareOp::Le => "<=",
                    xqdm::atomic::CompareOp::Gt => ">",
                    xqdm::atomic::CompareOp::Ge => ">=",
                };
                write!(f, "{} {s} {}", self.operand(a, 2), self.operand(b, 2))
            }
            Core::ValueComp(op, a, b) => write!(
                f,
                "{} {} {}",
                self.operand(a, 2),
                op.value_spelling(),
                self.operand(b, 2)
            ),
            Core::NodeComp(op, a, b) => {
                let s = match op {
                    NodeCompOp::Is => "is",
                    NodeCompOp::Precedes => "<<",
                    NodeCompOp::Follows => ">>",
                };
                write!(f, "{} {s} {}", self.operand(a, 2), self.operand(b, 2))
            }
            Core::And(a, b) => write!(f, "({} and {})", self.operand(a, 1), self.operand(b, 1)),
            Core::Or(a, b) => write!(f, "({} or {})", self.operand(a, 1), self.operand(b, 1)),
            Core::Union(a, b) => write!(f, "({} | {})", self.operand(a, 2), self.operand(b, 2)),
            Core::Range(a, b) => write!(f, "({} to {})", self.operand(a, 2), self.operand(b, 2)),
            Core::MapStep {
                base,
                axis,
                test,
                predicates,
            } => {
                // Context-relative steps print without the "./" noise.
                match &**base {
                    Core::ContextItem => write!(f, "{}", step_str(*axis, test))?,
                    b => write!(f, "{}/{}", self.operand(b, 2), step_str(*axis, test))?,
                }
                for pred in predicates {
                    write!(f, "[{}]", p(pred))?;
                }
                Ok(())
            }
            Core::DocOrder(e) => write!(f, "ddo({})", p(e)),
            // A filter over a path of more than one step would read back as
            // a predicate of its last step: `($d//p)[1]`, not `$d//p[1]`.
            Core::Predicate { base, pred } => match &**base {
                Core::MapStep { base: origin, .. } if **origin != Core::ContextItem => {
                    write!(f, "({})[{}]", p(base), p(pred))
                }
                b => write!(f, "{}[{}]", self.operand(b, 2), p(pred)),
            },
            Core::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", p(a))?;
                }
                write!(f, ")")
            }
            Core::ElemCtor { name, content } => {
                write!(f, "element {} {{ {} }}", self.name(name), p(content))
            }
            Core::AttrCtor { name, content } => {
                write!(f, "attribute {} {{ {} }}", self.name(name), p(content))
            }
            Core::TextCtor(e) => write!(f, "text {{ {} }}", p(e)),
            Core::DocCtor(e) => write!(f, "document {{ {} }}", p(e)),
            Core::Insert { source, location } => {
                let (kw, t) = match location {
                    CoreInsertLoc::First(t) => ("as first into", t),
                    CoreInsertLoc::Last(t) => ("as last into", t),
                    CoreInsertLoc::Before(t) => ("before", t),
                    CoreInsertLoc::After(t) => ("after", t),
                };
                write!(f, "insert {{ {} }} {kw} {{ {} }}", p(source), p(t))
            }
            Core::Delete(e) => write!(f, "delete {{ {} }}", p(e)),
            Core::Replace(t, w) => write!(f, "replace {{ {} }} with {{ {} }}", p(t), p(w)),
            Core::ReplaceValue(t, w) => {
                write!(f, "replace value of {{ {} }} with {{ {} }}", p(t), p(w))
            }
            Core::Rename(t, n) => write!(f, "rename {{ {} }} to {{ {} }}", p(t), p(n)),
            Core::Copy(e) => write!(f, "copy {{ {} }}", p(e)),
            Core::Snap(mode, e) => {
                let m = match mode {
                    SnapMode::Ordered => "ordered ",
                    SnapMode::Nondeterministic => "nondeterministic ",
                    SnapMode::ConflictDetection => "conflict-detection ",
                };
                write!(f, "snap {m}{{ {} }}", p(e))
            }
        }
    }
}

/// How loosely an expression binds as printed: 0 for the forms the
/// grammar admits only where a whole expression may stand (FLWOR,
/// quantifiers, conditionals, updates, `copy`, `snap`), 1 for comparisons,
/// 2 for the rest, which are primaries or print their own parentheses.
fn binding(e: &Core) -> u8 {
    match e {
        Core::Seq(items) if items.len() == 1 => binding(&items[0]),
        Core::For { .. }
        | Core::Let { .. }
        | Core::If(..)
        | Core::Quantified { .. }
        | Core::SortedFor { .. }
        | Core::Insert { .. }
        | Core::Delete(_)
        | Core::Replace(..)
        | Core::ReplaceValue(..)
        | Core::Rename(..)
        | Core::Copy(_)
        | Core::Snap(..) => 0,
        Core::GeneralComp(..) | Core::ValueComp(..) | Core::NodeComp(..) => 1,
        _ => 2,
    }
}

/// An expression printed where the grammar needs one that binds at least
/// as tightly as the given level, parenthesized when it binds looser.
struct Operand<'a>(Printed<'a>, u8);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if binding(self.0 .0) < self.1 {
            write!(f, "({})", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl Printed<'_> {
    /// A constructor's name: fixed, or a computed name expression.
    fn name(&self, name: &CoreName) -> String {
        match name {
            CoreName::Fixed(s) => s.clone(),
            CoreName::Computed(e) => format!("{{ {} }}", self.at(e)),
        }
    }
}

fn step_str(axis: Axis, test: &NodeTest) -> String {
    let test = match test {
        NodeTest::Name(n) => n.clone(),
        NodeTest::Wildcard => "*".into(),
        NodeTest::Text => "text()".into(),
        NodeTest::AnyKind => "node()".into(),
        NodeTest::Comment => "comment()".into(),
        NodeTest::Pi => "processing-instruction()".into(),
        NodeTest::Element => "element()".into(),
        NodeTest::AttributeTest => "attribute()".into(),
        NodeTest::Document => "document-node()".into(),
    };
    match axis {
        Axis::Child => test,
        Axis::Attribute => format!("@{test}"),
        other => format!("{}::{test}", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use crate::normalize::normalize;
    use crate::parser::parse_expr;

    fn pp(s: &str) -> String {
        normalize(&parse_expr(s).unwrap()).to_string()
    }

    #[test]
    fn round_trippable_shapes() {
        assert_eq!(pp("1 + 2"), "(1 + 2)");
        assert_eq!(pp("$x"), "$x");
        assert_eq!(pp("for $x in $s return $x"), "for $x in $s return $x");
    }

    #[test]
    fn paths_print_compactly() {
        assert_eq!(
            pp("$a//person[@id = $u]"),
            "$a/descendant-or-self::node()/person[@id = $u]"
        );
        assert_eq!(pp("$t/buyer/@person"), "$t/buyer/@person");
    }

    #[test]
    fn updates_print_with_normalized_copy() {
        assert_eq!(
            pp("insert { $x } into { $y }"),
            "insert { copy { $x } } as last into { $y }"
        );
        assert_eq!(pp("snap delete { $x }"), "snap ordered { delete { $x } }");
    }
}
