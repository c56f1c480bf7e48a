//! Recursive-descent parser for XQuery! (XQuery 1.0 fragment + the
//! Appendix A update grammar).
//!
//! The parser is scannerless: it works directly on a [`Cursor`], because
//! XQuery's lexical structure is context-sensitive (a `<` is an operator in
//! operand position but opens a direct element constructor in expression
//! position, and direct-constructor content follows XML lexing rules). The
//! grammar is the standard XQuery 1.0 precedence tower with the update
//! expressions hooked in at the `ExprSingle` level, exactly like Fig. 1.
//!
//! Liberal-operand note: the paper's grammar writes braced operands
//! (`delete { Expr }`), but its own §2.3 example uses the unbraced form
//! (`snap delete $log/logentry`); we accept both.

use crate::ast::*;
use crate::cursor::{Cursor, PResult};
use crate::stack::with_deep_stack;
use xqdm::atomic::{ArithOp, CompareOp};

pub use crate::cursor::ParseError;

/// Default maximum expression nesting depth. The parser recurses once per
/// nesting level (through the whole precedence tower, so one paren level
/// costs several native frames — tens of KiB each in debug builds); a
/// malicious `((((…1…))))` must become a parse error (`XQB0040`), not a
/// stack overflow. Deep enough for any realistic query; parsing runs under
/// [`with_deep_stack`], whose stack fits this limit with a wide margin.
/// Override per call with [`parse_program_with_limit`] /
/// [`parse_expr_with_limit`] (the engine passes its
/// `Limits::max_parse_depth`, set through `Engine::set_limits`).
pub const DEFAULT_MAX_PARSE_DEPTH: usize = 200;

/// Parse a complete main module (prolog + body).
pub fn parse_program(input: &str) -> PResult<Program> {
    parse_program_with_limit(input, DEFAULT_MAX_PARSE_DEPTH)
}

/// [`parse_program`] with an explicit nesting-depth limit.
pub fn parse_program_with_limit(input: &str, max_depth: usize) -> PResult<Program> {
    with_deep_stack(move || {
        let mut p = Parser {
            cur: Cursor::new(input),
            depth: 0,
            max_depth,
        };
        let r = p.parse_program();
        let r = match r {
            Ok(_) if !p.cur.at_end() => p.cur.err("unexpected trailing input"),
            other => other,
        };
        // An unterminated `(:` swallows the rest of the input, so whatever
        // error the parser hit afterwards is a symptom — report the cause.
        p.check_comments()?;
        r
    })
}

/// Parse a standalone expression (no prolog).
pub fn parse_expr(input: &str) -> PResult<Expr> {
    parse_expr_with_limit(input, DEFAULT_MAX_PARSE_DEPTH)
}

/// [`parse_expr`] with an explicit nesting-depth limit.
pub fn parse_expr_with_limit(input: &str, max_depth: usize) -> PResult<Expr> {
    with_deep_stack(move || {
        let mut p = Parser {
            cur: Cursor::new(input),
            depth: 0,
            max_depth,
        };
        let r = p.parse_expr();
        let r = match r {
            Ok(_) if !p.cur.at_end() => p.cur.err("unexpected trailing input"),
            other => other,
        };
        // See parse_program_with_limit: the comment diagnosis is the root
        // cause of any error past the unterminated `(:` — prefer it.
        p.check_comments()?;
        r
    })
}

/// The parser state.
pub(crate) struct Parser<'a> {
    pub(crate) cur: Cursor<'a>,
    /// Current expression nesting depth (one level per
    /// [`Parser::parse_expr_single`] or direct-element nesting).
    depth: usize,
    /// Depth at which parsing stops with an `XQB0040` error.
    max_depth: usize,
}

impl<'a> Parser<'a> {
    // ------------------------------------------------------------------
    // Prolog
    // ------------------------------------------------------------------

    fn parse_program(&mut self) -> PResult<Program> {
        let mut declarations = Vec::new();
        while self.cur.looking_at_keyword("declare") {
            let save = self.cur.pos;
            self.cur.eat_keyword("declare");
            if self.cur.eat_keyword("variable") {
                let name = self.cur.read_var()?;
                if self.cur.eat_keyword("as") {
                    self.skip_sequence_type()?;
                }
                self.cur.expect(":=")?;
                let init = self.parse_expr_single()?;
                self.cur.expect(";")?;
                declarations.push(Declaration::Variable { name, init });
            } else if self.cur.eat_keyword("function") {
                let name = self.cur.read_name()?;
                self.cur.expect("(")?;
                let mut params = Vec::new();
                if !self.cur.looking_at(")") {
                    loop {
                        let p = self.cur.read_var()?;
                        if self.cur.eat_keyword("as") {
                            self.skip_sequence_type()?;
                        }
                        params.push(p);
                        if !self.cur.eat(",") {
                            break;
                        }
                    }
                }
                self.cur.expect(")")?;
                if self.cur.eat_keyword("as") {
                    self.skip_sequence_type()?;
                }
                self.cur.expect("{")?;
                let body = self.parse_expr()?;
                self.cur.expect("}")?;
                self.cur.expect(";")?;
                declarations.push(Declaration::Function { name, params, body });
            } else {
                // Not a prolog declaration we support ("declare" might even
                // be an element name in a path) — rewind and treat as body.
                self.cur.pos = save;
                break;
            }
        }
        // A prolog-only input is a library module: its body is `()`.
        let body = if self.cur.at_end() {
            Expr::empty()
        } else {
            self.parse_expr()?
        };
        Ok(Program { declarations, body })
    }

    /// Parse and discard a SequenceType annotation (the engine is
    /// dynamically typed over well-formed data, like the paper's fragment).
    fn skip_sequence_type(&mut self) -> PResult<()> {
        if self.cur.eat_keyword("empty-sequence") {
            self.cur.expect("(")?;
            self.cur.expect(")")?;
            return Ok(());
        }
        self.cur.read_name()?;
        if self.cur.eat("(") {
            // Kind test arguments, e.g. element(*), processing-instruction("x").
            let mut depth = 1;
            while depth > 0 {
                match self.cur.bump() {
                    Some(b'(') => depth += 1,
                    Some(b')') => depth -= 1,
                    Some(_) => {}
                    None => return self.cur.err("unterminated type annotation"),
                }
            }
        }
        // Occurrence indicator.
        let _ = self.cur.eat("?") || self.cur.eat("*") || self.cur.eat("+");
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Expr ::= ExprSingle ("," ExprSingle)*
    pub(crate) fn parse_expr(&mut self) -> PResult<Expr> {
        let first = self.parse_expr_single()?;
        if !self.cur.looking_at(",") {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.cur.eat(",") {
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    pub(crate) fn parse_expr_single(&mut self) -> PResult<Expr> {
        self.enter()?;
        let r = self.parse_expr_single_inner();
        self.leave();
        r
    }

    /// One level of expression nesting: every `ExprSingle` and every direct
    /// element constructor descends through here, so the recursion of the
    /// precedence tower is bounded by [`Parser::max_depth`] native frames
    /// (times a small constant) — a hostile input errors with `XQB0040`
    /// instead of overflowing the stack. The code lives in the message
    /// because [`ParseError`] has no code field; callers that classify
    /// resource trips (the engine's limit counters) match on it there.
    pub(crate) fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(ParseError::new(
                self.cur.pos,
                format!(
                    "XQB0040: expression nesting depth limit exceeded (max {})",
                    self.max_depth
                ),
            ));
        }
        Ok(())
    }

    /// Balance [`Parser::enter`].
    pub(crate) fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Error out if an unterminated `(: …` comment was silently skipped
    /// (recorded by the cursor; see [`Cursor::unterminated_comment`]).
    fn check_comments(&self) -> PResult<()> {
        match self.cur.unterminated_comment() {
            Some(pos) => Err(ParseError::new(
                pos,
                "unterminated comment (missing \":)\")",
            )),
            None => Ok(()),
        }
    }

    fn parse_expr_single_inner(&mut self) -> PResult<Expr> {
        self.cur.skip_trivia();
        if self.looking_at_flwor_start() {
            return self.parse_flwor();
        }
        if (self.cur.looking_at_keyword("some") || self.cur.looking_at_keyword("every"))
            && self.keyword_then_dollar()
        {
            return self.parse_quantified();
        }
        if self.cur.looking_at_keyword("if") && self.keyword_then("if", "(") {
            return self.parse_if();
        }
        if self.cur.looking_at_keyword("snap") && self.is_snap_start() {
            return self.parse_snap();
        }
        if let Some(update) = self.try_parse_update()? {
            return Ok(update);
        }
        if self.cur.looking_at_keyword("copy") && self.keyword_then("copy", "{") {
            self.cur.eat_keyword("copy");
            let e = self.parse_braced_expr()?;
            return Ok(Expr::Copy(e.boxed()));
        }
        self.parse_or()
    }

    fn looking_at_flwor_start(&mut self) -> bool {
        (self.cur.looking_at_keyword("for") || self.cur.looking_at_keyword("let"))
            && self.keyword_then_dollar()
    }

    /// Is the current keyword followed by `$` (disambiguates FLWOR keywords
    /// from element names like `<for/>` in paths)?
    fn keyword_then_dollar(&mut self) -> bool {
        let save = self.cur.pos;
        let ok = self.cur.read_name().is_ok() && self.cur.looking_at("$");
        self.cur.pos = save;
        ok
    }

    /// Is keyword `kw` followed by `tok`?
    fn keyword_then(&mut self, kw: &str, tok: &str) -> bool {
        let save = self.cur.pos;
        let ok = self.cur.eat_keyword(kw) && self.cur.looking_at(tok);
        self.cur.pos = save;
        ok
    }

    /// Does `snap` start a SnapExpr here (vs. `snap` as an element name)?
    fn is_snap_start(&mut self) -> bool {
        let save = self.cur.pos;
        let mut ok = false;
        if self.cur.eat_keyword("snap") {
            ok = self.cur.looking_at("{")
                || self.cur.looking_at_keyword("ordered")
                || self.cur.looking_at_keyword("nondeterministic")
                || self.cur.looking_at_keyword("conflict-detection")
                || self.cur.looking_at_keyword("insert")
                || self.cur.looking_at_keyword("delete")
                || self.cur.looking_at_keyword("replace")
                || self.cur.looking_at_keyword("rename");
        }
        self.cur.pos = save;
        ok
    }

    // ------------------------------------------------------------------
    // FLWOR / quantified / if
    // ------------------------------------------------------------------

    fn parse_flwor(&mut self) -> PResult<Expr> {
        let mut clauses = Vec::new();
        loop {
            if self.cur.looking_at_keyword("for") && self.keyword_then_dollar() {
                self.cur.eat_keyword("for");
                loop {
                    let var = self.cur.read_var()?;
                    let position = if self.cur.eat_keyword("at") {
                        Some(self.cur.read_var()?)
                    } else {
                        None
                    };
                    if self.cur.eat_keyword("as") {
                        self.skip_sequence_type()?;
                    }
                    self.cur.expect_keyword("in")?;
                    let source = self.parse_expr_single()?;
                    clauses.push(FlworClause::For {
                        var,
                        position,
                        source,
                    });
                    if !self.cur.eat(",") {
                        break;
                    }
                }
            } else if self.cur.looking_at_keyword("let") && self.keyword_then_dollar() {
                self.cur.eat_keyword("let");
                loop {
                    let var = self.cur.read_var()?;
                    if self.cur.eat_keyword("as") {
                        self.skip_sequence_type()?;
                    }
                    self.cur.expect(":=")?;
                    let value = self.parse_expr_single()?;
                    clauses.push(FlworClause::Let { var, value });
                    if !self.cur.eat(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if self.cur.eat_keyword("where") {
            clauses.push(FlworClause::Where(self.parse_expr_single()?));
        }
        if self.cur.looking_at_keyword("order") {
            self.cur.eat_keyword("order");
            self.cur.expect_keyword("by")?;
            let mut specs = Vec::new();
            loop {
                let key = self.parse_expr_single()?;
                let ascending = if self.cur.eat_keyword("descending") {
                    false
                } else {
                    self.cur.eat_keyword("ascending");
                    true
                };
                specs.push(OrderSpec { key, ascending });
                if !self.cur.eat(",") {
                    break;
                }
            }
            clauses.push(FlworClause::OrderBy(specs));
        }
        self.cur.expect_keyword("return")?;
        let ret = self.parse_expr_single()?;
        Ok(Expr::Flwor {
            clauses,
            ret: ret.boxed(),
        })
    }

    fn parse_quantified(&mut self) -> PResult<Expr> {
        let quantifier = if self.cur.eat_keyword("some") {
            Quantifier::Some
        } else {
            self.cur.expect_keyword("every")?;
            Quantifier::Every
        };
        let mut bindings = Vec::new();
        loop {
            let var = self.cur.read_var()?;
            if self.cur.eat_keyword("as") {
                self.skip_sequence_type()?;
            }
            self.cur.expect_keyword("in")?;
            let source = self.parse_expr_single()?;
            bindings.push((var, source));
            if !self.cur.eat(",") {
                break;
            }
        }
        self.cur.expect_keyword("satisfies")?;
        let satisfies = self.parse_expr_single()?;
        Ok(Expr::Quantified {
            quantifier,
            bindings,
            satisfies: satisfies.boxed(),
        })
    }

    fn parse_if(&mut self) -> PResult<Expr> {
        self.cur.expect_keyword("if")?;
        self.cur.expect("(")?;
        let cond = self.parse_expr()?;
        self.cur.expect(")")?;
        self.cur.expect_keyword("then")?;
        let then = self.parse_expr_single()?;
        self.cur.expect_keyword("else")?;
        let els = self.parse_expr_single()?;
        Ok(Expr::If(cond.boxed(), then.boxed(), els.boxed()))
    }

    // ------------------------------------------------------------------
    // XQuery! update expressions (Fig. 1)
    // ------------------------------------------------------------------

    fn parse_snap(&mut self) -> PResult<Expr> {
        self.cur.expect_keyword("snap")?;
        let mode = if self.cur.eat_keyword("ordered") {
            SnapMode::Ordered
        } else if self.cur.eat_keyword("nondeterministic") {
            SnapMode::Nondeterministic
        } else if self.cur.eat_keyword("conflict-detection") {
            SnapMode::ConflictDetection
        } else {
            SnapMode::default()
        };
        // Abbreviation: `snap insert {...} ...` == `snap { insert {...} ... }`
        if let Some(update) = self.try_parse_update()? {
            return Ok(Expr::Snap(mode, update.boxed()));
        }
        let body = self.parse_braced_expr()?;
        Ok(Expr::Snap(mode, body.boxed()))
    }

    /// Try to parse an update expression (insert/delete/replace/rename);
    /// `None` when the next token is not an update keyword in update
    /// position.
    fn try_parse_update(&mut self) -> PResult<Option<Expr>> {
        if self.cur.looking_at_keyword("insert") && self.is_update_start("insert") {
            self.cur.eat_keyword("insert");
            let source = self.parse_update_operand()?;
            let location = self.parse_insert_location()?;
            return Ok(Some(Expr::Insert(source.boxed(), location)));
        }
        if self.cur.looking_at_keyword("delete") && self.is_update_start("delete") {
            self.cur.eat_keyword("delete");
            let target = self.parse_update_operand()?;
            return Ok(Some(Expr::Delete(target.boxed())));
        }
        if self.cur.looking_at_keyword("replace") && self.is_replace_start() {
            self.cur.eat_keyword("replace");
            if self.cur.looking_at_keyword("value") {
                // `replace value of { E1 } with { E2 }` — the in-place
                // value setter. Unambiguous: a plain `replace` target
                // starting with the path `value` would need `with`, not
                // `of`, after it.
                self.cur.eat_keyword("value");
                self.cur.expect_keyword("of")?;
                let target = self.parse_update_operand()?;
                self.cur.expect_keyword("with")?;
                let source = self.parse_update_operand()?;
                return Ok(Some(Expr::ReplaceValue(target.boxed(), source.boxed())));
            }
            let target = self.parse_update_operand()?;
            self.cur.expect_keyword("with")?;
            let source = self.parse_update_operand()?;
            return Ok(Some(Expr::Replace(target.boxed(), source.boxed())));
        }
        if self.cur.looking_at_keyword("rename") && self.is_update_start("rename") {
            self.cur.eat_keyword("rename");
            let target = self.parse_update_operand()?;
            self.cur.expect_keyword("to")?;
            let name = self.parse_update_operand()?;
            return Ok(Some(Expr::Rename(target.boxed(), name.boxed())));
        }
        Ok(None)
    }

    /// An update keyword starts an update expression when followed by `{`
    /// (the paper's grammar) or by something that can start an operand
    /// expression (`$`, `(`, a literal — the paper's own unbraced usage).
    fn is_update_start(&mut self, kw: &str) -> bool {
        let save = self.cur.pos;
        let mut ok = false;
        if self.cur.eat_keyword(kw) {
            self.cur.skip_trivia();
            ok = matches!(
                self.cur.peek(),
                Some(b'{' | b'$' | b'(' | b'"' | b'\'' | b'/')
            );
        }
        self.cur.pos = save;
        ok
    }

    /// `replace` starts an update when followed by an operand start (as
    /// [`Self::is_update_start`]) or by the `value of` marker of the
    /// in-place value form.
    fn is_replace_start(&mut self) -> bool {
        if self.is_update_start("replace") {
            return true;
        }
        let save = self.cur.pos;
        let ok = self.cur.eat_keyword("replace")
            && self.cur.eat_keyword("value")
            && self.cur.looking_at_keyword("of");
        self.cur.pos = save;
        ok
    }

    /// Braced-or-bare update operand (see module docs).
    fn parse_update_operand(&mut self) -> PResult<Expr> {
        if self.cur.looking_at("{") {
            self.parse_braced_expr()
        } else {
            self.parse_expr_single()
        }
    }

    fn parse_braced_expr(&mut self) -> PResult<Expr> {
        self.cur.expect("{")?;
        if self.cur.eat("}") {
            return Ok(Expr::empty());
        }
        let e = self.parse_expr()?;
        self.cur.expect("}")?;
        Ok(e)
    }

    fn parse_insert_location(&mut self) -> PResult<InsertLocation> {
        if self.cur.eat_keyword("as") {
            if self.cur.eat_keyword("first") {
                self.cur.expect_keyword("into")?;
                let t = self.parse_update_operand()?;
                return Ok(InsertLocation::AsFirstInto(t.boxed()));
            }
            self.cur.expect_keyword("last")?;
            self.cur.expect_keyword("into")?;
            let t = self.parse_update_operand()?;
            return Ok(InsertLocation::AsLastInto(t.boxed()));
        }
        if self.cur.eat_keyword("into") {
            let t = self.parse_update_operand()?;
            return Ok(InsertLocation::Into(t.boxed()));
        }
        if self.cur.eat_keyword("before") {
            let t = self.parse_update_operand()?;
            return Ok(InsertLocation::Before(t.boxed()));
        }
        if self.cur.eat_keyword("after") {
            let t = self.parse_update_operand()?;
            return Ok(InsertLocation::After(t.boxed()));
        }
        self.cur
            .err("expected an insert location (into / before / after)")
    }

    // ------------------------------------------------------------------
    // The operator tower
    // ------------------------------------------------------------------

    fn parse_or(&mut self) -> PResult<Expr> {
        let mut left = self.parse_and()?;
        while self.cur.eat_keyword("or") {
            let right = self.parse_and()?;
            left = Expr::Or(left.boxed(), right.boxed());
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> PResult<Expr> {
        let mut left = self.parse_comparison()?;
        while self.cur.eat_keyword("and") {
            let right = self.parse_comparison()?;
            left = Expr::And(left.boxed(), right.boxed());
        }
        Ok(left)
    }

    fn parse_comparison(&mut self) -> PResult<Expr> {
        let left = self.parse_range()?;
        self.cur.skip_trivia();
        // Multi-char symbols first.
        let make = |op, l: Expr, r: Expr| Expr::GeneralComp(op, l.boxed(), r.boxed());
        if self.cur.eat("<<") {
            let r = self.parse_range()?;
            return Ok(Expr::NodeComp(
                NodeCompOp::Precedes,
                left.boxed(),
                r.boxed(),
            ));
        }
        if self.cur.eat(">>") {
            let r = self.parse_range()?;
            return Ok(Expr::NodeComp(NodeCompOp::Follows, left.boxed(), r.boxed()));
        }
        if self.cur.eat("!=") {
            let r = self.parse_range()?;
            return Ok(make(CompareOp::Ne, left, r));
        }
        if self.cur.eat("<=") {
            let r = self.parse_range()?;
            return Ok(make(CompareOp::Le, left, r));
        }
        if self.cur.eat(">=") {
            let r = self.parse_range()?;
            return Ok(make(CompareOp::Ge, left, r));
        }
        if self.cur.eat("=") {
            let r = self.parse_range()?;
            return Ok(make(CompareOp::Eq, left, r));
        }
        if self.cur.eat("<") {
            let r = self.parse_range()?;
            return Ok(make(CompareOp::Lt, left, r));
        }
        if self.cur.eat(">") {
            let r = self.parse_range()?;
            return Ok(make(CompareOp::Gt, left, r));
        }
        for (kw, op) in [
            ("eq", CompareOp::Eq),
            ("ne", CompareOp::Ne),
            ("lt", CompareOp::Lt),
            ("le", CompareOp::Le),
            ("gt", CompareOp::Gt),
            ("ge", CompareOp::Ge),
        ] {
            if self.cur.eat_keyword(kw) {
                let r = self.parse_range()?;
                return Ok(Expr::ValueComp(op, left.boxed(), r.boxed()));
            }
        }
        if self.cur.eat_keyword("is") {
            let r = self.parse_range()?;
            return Ok(Expr::NodeComp(NodeCompOp::Is, left.boxed(), r.boxed()));
        }
        Ok(left)
    }

    fn parse_range(&mut self) -> PResult<Expr> {
        let left = self.parse_additive()?;
        if self.cur.eat_keyword("to") {
            let right = self.parse_additive()?;
            return Ok(Expr::Range(left.boxed(), right.boxed()));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> PResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            self.cur.skip_trivia();
            if self.cur.eat("+") {
                let right = self.parse_multiplicative()?;
                left = Expr::Arith(ArithOp::Add, left.boxed(), right.boxed());
            } else if self.cur.eat("-") {
                let right = self.parse_multiplicative()?;
                left = Expr::Arith(ArithOp::Sub, left.boxed(), right.boxed());
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_multiplicative(&mut self) -> PResult<Expr> {
        let mut left = self.parse_union()?;
        loop {
            self.cur.skip_trivia();
            if self.cur.eat("*") {
                let right = self.parse_union()?;
                left = Expr::Arith(ArithOp::Mul, left.boxed(), right.boxed());
            } else if self.cur.eat_keyword("div") {
                let right = self.parse_union()?;
                left = Expr::Arith(ArithOp::Div, left.boxed(), right.boxed());
            } else if self.cur.eat_keyword("idiv") {
                let right = self.parse_union()?;
                left = Expr::Arith(ArithOp::IDiv, left.boxed(), right.boxed());
            } else if self.cur.eat_keyword("mod") {
                let right = self.parse_union()?;
                left = Expr::Arith(ArithOp::Mod, left.boxed(), right.boxed());
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_union(&mut self) -> PResult<Expr> {
        let mut left = self.parse_intersect_except()?;
        loop {
            self.cur.skip_trivia();
            if self.cur.eat("|") || self.cur.eat_keyword("union") {
                let right = self.parse_intersect_except()?;
                left = Expr::Union(left.boxed(), right.boxed());
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_intersect_except(&mut self) -> PResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            self.cur.skip_trivia();
            if self.cur.eat_keyword("intersect") {
                let right = self.parse_unary()?;
                left = Expr::Intersect(left.boxed(), right.boxed());
            } else if self.cur.eat_keyword("except") {
                let right = self.parse_unary()?;
                left = Expr::Except(left.boxed(), right.boxed());
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        self.cur.skip_trivia();
        if self.cur.eat("-") {
            let e = self.parse_unary()?;
            return Ok(Expr::Neg(e.boxed()));
        }
        if self.cur.eat("+") {
            return self.parse_unary();
        }
        self.parse_path()
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    fn parse_path(&mut self) -> PResult<Expr> {
        self.cur.skip_trivia();
        // Leading "//" or "/".
        if self.cur.looking_at("//") {
            self.cur.eat("//");
            let mut steps = vec![Step {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::AnyKind,
                predicates: vec![],
            }];
            steps.push(self.parse_step()?);
            self.parse_more_steps(&mut steps)?;
            return Ok(Expr::Path {
                base: PathBase::Root,
                steps,
            });
        }
        if self.cur.looking_at("/") {
            self.cur.eat("/");
            // "/" alone (root) or "/relative".
            if self.starts_step() {
                let mut steps = vec![self.parse_step()?];
                self.parse_more_steps(&mut steps)?;
                return Ok(Expr::Path {
                    base: PathBase::Root,
                    steps,
                });
            }
            return Ok(Expr::Path {
                base: PathBase::Root,
                steps: vec![],
            });
        }
        // Relative path: first step may be a primary expression.
        let first = self.parse_step_or_primary()?;
        self.cur.skip_trivia();
        if self.cur.looking_at("/") {
            let mut steps = Vec::new();
            self.parse_more_steps(&mut steps)?;
            if steps.is_empty() {
                return Ok(first);
            }
            return Ok(match first {
                Expr::Path {
                    base,
                    steps: mut s0,
                } => {
                    s0.extend(steps);
                    Expr::Path { base, steps: s0 }
                }
                other => Expr::Path {
                    base: PathBase::Expr(other.boxed()),
                    steps,
                },
            });
        }
        Ok(first)
    }

    fn parse_more_steps(&mut self, steps: &mut Vec<Step>) -> PResult<()> {
        loop {
            self.cur.skip_trivia();
            if self.cur.looking_at("//") {
                self.cur.eat("//");
                steps.push(Step {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyKind,
                    predicates: vec![],
                });
                steps.push(self.parse_step()?);
            } else if self.cur.looking_at("/") {
                self.cur.eat("/");
                steps.push(self.parse_step()?);
            } else {
                return Ok(());
            }
        }
    }

    /// Can the upcoming input start an axis step?
    fn starts_step(&mut self) -> bool {
        self.cur.skip_trivia();
        match self.cur.peek() {
            Some(b'@') | Some(b'*') => true,
            Some(b'.') => true,
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => true,
            _ => false,
        }
    }

    /// A step after a slash: axis step only (primaries are not allowed
    /// after `/` in XPath except via `(...)`, which we treat as a name-test
    /// position error for simplicity).
    fn parse_step(&mut self) -> PResult<Step> {
        self.cur.skip_trivia();
        let mut step = self.parse_axis_step()?;
        step.predicates = self.parse_predicates()?;
        Ok(step)
    }

    fn parse_axis_step(&mut self) -> PResult<Step> {
        self.cur.skip_trivia();
        if self.cur.eat("@") {
            let test = self.parse_node_test(Axis::Attribute)?;
            return Ok(Step {
                axis: Axis::Attribute,
                test,
                predicates: vec![],
            });
        }
        if self.cur.looking_at("..") {
            self.cur.eat("..");
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::AnyKind,
                predicates: vec![],
            });
        }
        if self.cur.looking_at(".") && self.cur.peek_at(1) != Some(b'.') {
            self.cur.eat(".");
            return Ok(Step {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyKind,
                predicates: vec![],
            });
        }
        // Explicit axis?
        let save = self.cur.pos;
        if let Ok(name) = self.cur.read_name() {
            if self.cur.looking_at("::") {
                self.cur.eat("::");
                let axis = match name.as_str() {
                    "child" => Axis::Child,
                    "descendant" => Axis::Descendant,
                    "descendant-or-self" => Axis::DescendantOrSelf,
                    "attribute" => Axis::Attribute,
                    "self" => Axis::SelfAxis,
                    "parent" => Axis::Parent,
                    "ancestor" => Axis::Ancestor,
                    "ancestor-or-self" => Axis::AncestorOrSelf,
                    "following-sibling" => Axis::FollowingSibling,
                    "preceding-sibling" => Axis::PrecedingSibling,
                    "following" => Axis::Following,
                    "preceding" => Axis::Preceding,
                    other => return self.cur.err(format!("unsupported axis \"{other}\"")),
                };
                let test = self.parse_node_test(axis)?;
                return Ok(Step {
                    axis,
                    test,
                    predicates: vec![],
                });
            }
            self.cur.pos = save;
        } else {
            self.cur.pos = save;
        }
        let test = self.parse_node_test(Axis::Child)?;
        Ok(Step {
            axis: Axis::Child,
            test,
            predicates: vec![],
        })
    }

    fn parse_node_test(&mut self, _axis: Axis) -> PResult<NodeTest> {
        self.cur.skip_trivia();
        if self.cur.eat("*") {
            return Ok(NodeTest::Wildcard);
        }
        let name = self.cur.read_name()?;
        if self.cur.looking_at("(") {
            let kind = match name.as_str() {
                "text" => Some(NodeTest::Text),
                "node" => Some(NodeTest::AnyKind),
                "comment" => Some(NodeTest::Comment),
                "processing-instruction" => Some(NodeTest::Pi),
                "element" => Some(NodeTest::Element),
                "attribute" => Some(NodeTest::AttributeTest),
                "document-node" => Some(NodeTest::Document),
                _ => None,
            };
            if let Some(k) = kind {
                self.cur.expect("(")?;
                // Allow `element(*)` style arguments, skipped.
                if !self.cur.looking_at(")") {
                    let _ = self.cur.eat("*") || self.cur.read_name().is_ok();
                }
                self.cur.expect(")")?;
                return Ok(k);
            }
            return self.cur.err(format!(
                "function call \"{name}(...)\" is not allowed as a path step"
            ));
        }
        Ok(NodeTest::Name(name))
    }

    fn parse_predicates(&mut self) -> PResult<Vec<Expr>> {
        let mut preds = Vec::new();
        while self.cur.looking_at("[") {
            self.cur.eat("[");
            preds.push(self.parse_expr()?);
            self.cur.expect("]")?;
        }
        Ok(preds)
    }

    /// The first step of a relative path: either a primary expression
    /// (`$x`, `(...)`, literal, constructor, function call, `.`) with
    /// optional predicates, or an axis step.
    fn parse_step_or_primary(&mut self) -> PResult<Expr> {
        self.cur.skip_trivia();
        match self.cur.peek() {
            Some(b'$') | Some(b'(') | Some(b'"') | Some(b'\'') | Some(b'<') => {
                return self.parse_primary_with_predicates()
            }
            Some(c) if c.is_ascii_digit() => return self.parse_primary_with_predicates(),
            Some(b'.')
                // ".." is the parent step; "." (and ".5"-style numbers) are
                // primary expressions.
                if self.cur.peek_at(1) != Some(b'.') => {
                    return self.parse_primary_with_predicates();
                }
            _ => {}
        }
        // A name: function call or computed constructor => primary;
        // otherwise an axis step (name test).
        let save = self.cur.pos;
        if let Ok(name) = self.cur.read_name() {
            let next_is_paren = self.cur.looking_at("(") && !self.cur.looking_at("(:");
            let next_is_brace = self.cur.looking_at("{");
            let ctor_kw = matches!(name.as_str(), "element" | "attribute" | "text" | "document");
            self.cur.pos = save;
            if ctor_kw && self.is_computed_ctor_start(&name) {
                return self.parse_primary_with_predicates();
            }
            if next_is_paren && !is_kind_test_name(&name) {
                return self.parse_primary_with_predicates();
            }
            let _ = next_is_brace;
        } else {
            self.cur.pos = save;
        }
        let step = self.parse_step()?;
        Ok(Expr::Path {
            base: PathBase::Context,
            steps: vec![step],
        })
    }

    /// `element foo {`, `element {`, `text {`, ... — computed constructor.
    fn is_computed_ctor_start(&mut self, kw: &str) -> bool {
        let save = self.cur.pos;
        let mut ok = false;
        if self.cur.eat_keyword(kw) {
            match kw {
                "text" | "document" => ok = self.cur.looking_at("{"),
                _ => {
                    if self.cur.looking_at("{") {
                        ok = true;
                    } else if self.cur.read_name().is_ok() {
                        ok = self.cur.looking_at("{");
                    }
                }
            }
        }
        self.cur.pos = save;
        ok
    }

    fn parse_primary_with_predicates(&mut self) -> PResult<Expr> {
        let primary = self.parse_primary()?;
        let preds = self.parse_predicates()?;
        if preds.is_empty() {
            Ok(primary)
        } else {
            Ok(Expr::Filter(primary.boxed(), preds))
        }
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        self.cur.skip_trivia();
        match self.cur.peek() {
            Some(b'$') => {
                let v = self.cur.read_var()?;
                return Ok(Expr::VarRef(v));
            }
            Some(b'"') | Some(b'\'') => {
                let s = self.cur.read_string_literal()?;
                return Ok(Expr::Literal(Literal::String(s)));
            }
            Some(b'(') => {
                self.cur.eat("(");
                if self.cur.eat(")") {
                    return Ok(Expr::empty());
                }
                let e = self.parse_expr()?;
                self.cur.expect(")")?;
                return Ok(e);
            }
            Some(b'.') if !matches!(self.cur.peek_at(1), Some(c) if c.is_ascii_digit()) => {
                self.cur.eat(".");
                return Ok(Expr::ContextItem);
            }
            Some(b'<') => return self.parse_direct_constructor(),
            Some(c) if c.is_ascii_digit() || c == b'.' => {
                let (text, is_double) = self.cur.read_number()?;
                return if is_double {
                    let d = text
                        .parse::<f64>()
                        .map_err(|_| ParseError::new(self.cur.pos, "bad double literal"))?;
                    Ok(Expr::Literal(Literal::Double(d)))
                } else {
                    let i = text
                        .parse::<i64>()
                        .map_err(|_| ParseError::new(self.cur.pos, "integer literal overflow"))?;
                    Ok(Expr::Literal(Literal::Integer(i)))
                };
            }
            _ => {}
        }
        // Computed constructors and function calls.
        let name = self.cur.read_name()?;
        match name.as_str() {
            "element" | "attribute" if self.cur.looking_at("{") || self.peek_name_then_brace() => {
                let ctor_name = if self.cur.looking_at("{") {
                    let e = self.parse_braced_expr()?;
                    CtorName::Computed(e.boxed())
                } else {
                    CtorName::Literal(self.cur.read_name()?)
                };
                let content = if self.cur.looking_at("{") {
                    self.cur.eat("{");
                    if self.cur.eat("}") {
                        None
                    } else {
                        let e = self.parse_expr()?;
                        self.cur.expect("}")?;
                        Some(e.boxed())
                    }
                } else {
                    None
                };
                return Ok(if name == "element" {
                    Expr::ElementCtor(ctor_name, content)
                } else {
                    Expr::AttributeCtor(ctor_name, content)
                });
            }
            "text" if self.cur.looking_at("{") => {
                let e = self.parse_braced_expr()?;
                return Ok(Expr::TextCtor(e.boxed()));
            }
            "document" if self.cur.looking_at("{") => {
                let e = self.parse_braced_expr()?;
                return Ok(Expr::DocumentCtor(e.boxed()));
            }
            _ => {}
        }
        if self.cur.looking_at("(") && !self.cur.looking_at("(:") {
            self.cur.eat("(");
            let mut args = Vec::new();
            if !self.cur.looking_at(")") {
                loop {
                    args.push(self.parse_expr_single()?);
                    if !self.cur.eat(",") {
                        break;
                    }
                }
            }
            self.cur.expect(")")?;
            return Ok(Expr::Call(name, args));
        }
        self.cur
            .err(format!("unexpected name \"{name}\" in primary position"))
    }

    fn peek_name_then_brace(&mut self) -> bool {
        let save = self.cur.pos;
        let ok = self.cur.read_name().is_ok() && self.cur.looking_at("{");
        self.cur.pos = save;
        ok
    }
}

/// Names reserved for kind tests in step position.
fn is_kind_test_name(name: &str) -> bool {
    matches!(
        name,
        "text"
            | "node"
            | "comment"
            | "processing-instruction"
            | "element"
            | "attribute"
            | "document-node"
    )
}
