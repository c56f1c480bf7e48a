//! # xqsyn — XQuery! syntax
//!
//! Lexing+parsing (scannerless recursive descent — XQuery's grammar is
//! context-sensitive around direct element constructors, which is much
//! easier to handle with a character cursor than with a modal tokenizer),
//! the surface AST for the XQuery 1.0 fragment the paper uses plus the full
//! Appendix A update grammar, and the **normalization** phase (paper §3.3)
//! that lowers surface syntax to the core language the dynamic semantics is
//! defined on.
//!
//! The only semantically non-trivial normalization rules — exactly the ones
//! the paper calls out — are:
//!
//! * `insert {e1} into {e2}`  ⇒  `insert {copy {e1}} as last into {e2}`
//! * `replace {e1} with {e2}` ⇒  `replace {e1} with {copy {e2}}`
//! * the `snap insert {..} ...` one-word abbreviations ⇒ `snap { insert ... }`
//!
//! plus the classical XQuery 1.0 lowerings (FLWOR to nested for/let/if,
//! direct constructors to computed constructors, paths to steps with
//! document-order normalization).

pub mod ast;
pub mod core;
pub mod cursor;
pub mod lift;
pub mod markup;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod stack;

pub use ast::{Declaration, Expr, Program};
pub use core::{Core, CoreFunction, CoreProgram};
pub use lift::{compile_lifted, lifted_slots, Skeleton};
pub use normalize::normalize_program;
pub use parser::{
    parse_expr, parse_expr_with_limit, parse_program, parse_program_with_limit, ParseError,
    DEFAULT_MAX_PARSE_DEPTH,
};

/// Parse and normalize a full XQuery! program (prolog + body) in one step.
pub fn compile(input: &str) -> Result<CoreProgram, ParseError> {
    compile_with_limit(input, DEFAULT_MAX_PARSE_DEPTH)
}

/// [`compile`] with an explicit expression-nesting depth limit.
///
/// Exceeding the limit yields a `ParseError` whose message carries the
/// `XQB0040` code, so runaway nesting is a reported error rather than a
/// parser stack overflow.
pub fn compile_with_limit(input: &str, max_depth: usize) -> Result<CoreProgram, ParseError> {
    let prog = parse_program_with_limit(input, max_depth)?;
    Ok(normalize_program(&prog))
}
