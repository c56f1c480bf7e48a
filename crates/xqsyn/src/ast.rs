//! The surface abstract syntax tree.
//!
//! Mirrors the XQuery 1.0 expression grammar fragment used throughout the
//! paper, extended with the Appendix A update grammar (Fig. 1). The
//! `snap op {...}` abbreviations are resolved during *parsing* (they are
//! pure sugar), everything else is preserved so normalization (§3.3) stays
//! observable and testable.

use xqdm::atomic::{ArithOp, CompareOp};

/// A parsed literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal (`42`).
    Integer(i64),
    /// Decimal/double literal (`3.14`, `1e6`).
    Double(f64),
    /// String literal (`"abc"`, `'abc'`).
    String(String),
}

/// Node-identity / order comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeCompOp {
    /// `is` — node identity.
    Is,
    /// `<<` — precedes in document order.
    Precedes,
    /// `>>` — follows in document order.
    Follows,
}

/// XPath axes supported by the engine (the ones the paper's queries use,
/// plus the reverse axes needed for `..`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
}

impl Axis {
    /// The axis name as written with `::`.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Attribute => "attribute",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
        }
    }

    /// Reverse axes deliver nodes in reverse document order.
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::PrecedingSibling
                | Axis::Preceding
        )
    }
}

/// A node test within a step.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// A name test (`person`, `x:item`). Matches principal-axis nodes with
    /// that name (elements, or attributes on the attribute axis).
    Name(String),
    /// `*` — any name on the principal axis.
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    AnyKind,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// `element()` / `element(*)`
    Element,
    /// `attribute()` / `attribute(*)`
    AttributeTest,
    /// `document-node()`
    Document,
}

/// One path step: axis, test, and predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicate list, applied with positional semantics.
    pub predicates: Vec<Expr>,
}

/// A FLWOR clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FlworClause {
    /// `for $v (at $p)? in Expr`
    For {
        /// Bound variable (without `$`).
        var: String,
        /// Optional positional variable.
        position: Option<String>,
        /// The binding sequence.
        source: Expr,
    },
    /// `let $v := Expr`
    Let {
        /// Bound variable.
        var: String,
        /// The bound value.
        value: Expr,
    },
    /// `where Expr`
    Where(Expr),
    /// `order by key (ascending|descending)?, ...`
    OrderBy(Vec<OrderSpec>),
}

/// One `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    /// The key expression (evaluated with the tuple's bindings in scope).
    pub key: Expr,
    /// Descending when false.
    pub ascending: bool,
}

/// Quantifier kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    /// `some $x in ... satisfies ...`
    Some,
    /// `every $x in ... satisfies ...`
    Every,
}

/// Target position for `insert` (paper Fig. 1 `InsertLocation`).
#[derive(Debug, Clone, PartialEq)]
pub enum InsertLocation {
    /// `as first into { Expr }`
    AsFirstInto(Box<Expr>),
    /// `as last into { Expr }` — also the normalization of plain `into`.
    AsLastInto(Box<Expr>),
    /// `into { Expr }` (surface form; normalizes to `as last into`)
    Into(Box<Expr>),
    /// `before { Expr }`
    Before(Box<Expr>),
    /// `after { Expr }`
    After(Box<Expr>),
}

/// Δ-application semantics selected on a `snap` (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapMode {
    /// Apply update requests in Δ order (the default).
    #[default]
    Ordered,
    /// Apply in an arbitrary permutation.
    Nondeterministic,
    /// Verify conflict-freedom (linear time), then apply order-independently.
    ConflictDetection,
}

/// A name in a computed constructor: literal or computed.
#[derive(Debug, Clone, PartialEq)]
pub enum CtorName {
    /// `element foo { ... }`
    Literal(String),
    /// `element { expr } { ... }`
    Computed(Box<Expr>),
}

/// Content of a direct element constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectContent {
    /// Literal text (entity references already decoded).
    Text(String),
    /// An enclosed expression `{ ... }`.
    Enclosed(Expr),
    /// A nested direct element.
    Element(DirectElement),
}

/// A chunk of a direct attribute value: literal or `{expr}`.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrChunk {
    /// Literal text.
    Text(String),
    /// The whole value, lifted into this skeleton slot ([`crate::lift`]).
    Param(usize),
    /// An enclosed expression.
    Enclosed(Expr),
}

/// A direct element constructor `<name a="v{e}">...</name>`.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectElement {
    /// The element name.
    pub name: String,
    /// Attributes: name and value template.
    pub attributes: Vec<(String, Vec<AttrChunk>)>,
    /// Child content.
    pub content: Vec<DirectContent>,
}

/// A surface expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Literal),
    /// A string literal that spans exactly slot `i` of its text's
    /// skeleton, read by a lifting parse ([`crate::lift`]): its value is
    /// bound per run, not part of the program.
    Param(usize),
    /// `$name`
    VarRef(String),
    /// `.`
    ContextItem,
    /// `(e1, e2, ...)` or the empty sequence `()`.
    Sequence(Vec<Expr>),
    /// `e1 to e2`
    Range(Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// General comparison (`=`, `!=`, `<`, ...): existential semantics.
    GeneralComp(CompareOp, Box<Expr>, Box<Expr>),
    /// Value comparison (`eq`, `ne`, ...).
    ValueComp(CompareOp, Box<Expr>, Box<Expr>),
    /// Node comparison (`is`, `<<`, `>>`).
    NodeComp(NodeCompOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Union of node sequences (`|` / `union`).
    Union(Box<Expr>, Box<Expr>),
    /// Node-sequence intersection (`intersect`).
    Intersect(Box<Expr>, Box<Expr>),
    /// Node-sequence difference (`except`).
    Except(Box<Expr>, Box<Expr>),
    /// `if (c) then t else e`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A FLWOR expression.
    Flwor {
        /// The clause list, in source order.
        clauses: Vec<FlworClause>,
        /// The return expression.
        ret: Box<Expr>,
    },
    /// `some/every $x in e satisfies p` (single-variable form chains).
    Quantified {
        /// Which quantifier.
        quantifier: Quantifier,
        /// `(var, source)` bindings.
        bindings: Vec<(String, Expr)>,
        /// The test.
        satisfies: Box<Expr>,
    },
    /// A path expression rooted at the context (`a/b`), at the tree root
    /// (`/a/b`, base = `Root`), or at an arbitrary expression (`$x/a/b`).
    Path {
        /// The origin of the path.
        base: PathBase,
        /// The steps, left to right.
        steps: Vec<Step>,
    },
    /// A primary expression with predicates: `e[p1][p2]`.
    Filter(Box<Expr>, Vec<Expr>),
    /// A function call `name(args...)`.
    Call(String, Vec<Expr>),
    /// A direct element constructor.
    Direct(DirectElement),
    /// `element N { e }`
    ElementCtor(CtorName, Option<Box<Expr>>),
    /// `attribute N { e }`
    AttributeCtor(CtorName, Option<Box<Expr>>),
    /// `text { e }`
    TextCtor(Box<Expr>),
    /// `document { e }`
    DocumentCtor(Box<Expr>),
    // ----- XQuery! extension (Fig. 1) -----
    /// `insert { e } InsertLocation`
    Insert(Box<Expr>, InsertLocation),
    /// `delete { e }`
    Delete(Box<Expr>),
    /// `replace { e1 } with { e2 }`
    Replace(Box<Expr>, Box<Expr>),
    /// `replace value of { e1 } with { e2 }` — set the string value of a
    /// text or attribute node in place. Not in the paper's Fig. 1 (its
    /// `replace` splices a fresh copy next to the target and deletes the
    /// target); this is XQuery Update's "replace value of", kept because
    /// it preserves node identity.
    ReplaceValue(Box<Expr>, Box<Expr>),
    /// `rename { e1 } to { e2 }`
    Rename(Box<Expr>, Box<Expr>),
    /// `copy { e }`
    Copy(Box<Expr>),
    /// `snap mode? { e }`
    Snap(SnapMode, Box<Expr>),
}

/// Where a path starts.
#[derive(Debug, Clone, PartialEq)]
pub enum PathBase {
    /// Relative path: starts at the context item.
    Context,
    /// `/...`: starts at the root of the context item's tree.
    Root,
    /// `expr/...`: starts at each item of the base expression.
    Expr(Box<Expr>),
}

/// A prolog declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Declaration {
    /// `declare variable $x := Expr;`
    Variable {
        /// Variable name.
        name: String,
        /// Initializer.
        init: Expr,
    },
    /// `declare function f($a, $b) { Expr };` — parameter and return type
    /// annotations are parsed and discarded (the engine is dynamically
    /// typed, like the paper's well-formed fragment).
    Function {
        /// Function name.
        name: String,
        /// Parameter names.
        params: Vec<String>,
        /// Body.
        body: Expr,
    },
}

/// A main module: prolog + query body.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Prolog declarations, in source order.
    pub declarations: Vec<Declaration>,
    /// The query body.
    pub body: Expr,
}

impl Expr {
    /// Convenience: boxed.
    pub fn boxed(self) -> Box<Expr> {
        Box::new(self)
    }

    /// The empty-sequence expression `()`.
    pub fn empty() -> Expr {
        Expr::Sequence(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_names_and_direction() {
        assert_eq!(Axis::DescendantOrSelf.name(), "descendant-or-self");
        assert!(Axis::Parent.is_reverse());
        assert!(!Axis::Child.is_reverse());
    }

    #[test]
    fn snap_mode_default_is_ordered() {
        assert_eq!(SnapMode::default(), SnapMode::Ordered);
    }

    #[test]
    fn empty_sequence_helper() {
        assert_eq!(Expr::empty(), Expr::Sequence(vec![]));
    }
}
