//! Recursive-descent parser for the Caml subset.
//!
//! The grammar follows OCaml's precedence table for the operators we
//! support (loosest to tightest):
//!
//! ```text
//! e1 ; e2                     sequence
//! e1 , e2                     tuple
//! := and e.f <- e             assignment
//! ||   &&                     boolean (right)
//! = == != <> < > <= >=        comparison (left)
//! ^ @                         concat/append (right)
//! ::                          cons (right)
//! + - +. -.                   additive (left)
//! * / mod *. /.               multiplicative (left)
//! - -. (prefix)               negation
//! f x                         application (left)
//! e.f   !e   atoms            postfix / prefix-tight
//! ```
//!
//! `let … in`, `if`, `match`, and `fun` may appear wherever an operand is
//! expected and extend as far right as possible, as in OCaml. The binary
//! levels from `||` to `*` are parsed by precedence climbing.

use crate::ast::*;
use crate::lexer::{lex, unescape, LexError, Spanned};
use crate::span::Span;
use crate::token::Token;
use std::fmt;
use std::sync::Arc;

/// A parse (or lex) failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError { message: e.message, span: e.span }
    }
}

/// The spelling of an operator usable in a `( op )` section.
fn section_op(t: Token) -> Option<&'static str> {
    Some(match t {
        Token::Plus => "+",
        Token::Minus => "-",
        Token::Star => "*",
        Token::Slash => "/",
        Token::Mod => "mod",
        Token::PlusDot => "+.",
        Token::MinusDot => "-.",
        Token::StarDot => "*.",
        Token::SlashDot => "/.",
        Token::Caret => "^",
        Token::At => "@",
        Token::Eq => "=",
        Token::Lt => "<",
        Token::Gt => ">",
        Token::Le => "<=",
        Token::Ge => ">=",
        Token::LtGt => "<>",
        Token::AmpAmp => "&&",
        Token::BarBar => "||",
        _ => return None,
    })
}

/// Parses a whole source file into a [`Program`].
///
/// # Errors
///
/// Returns the first syntax error. Per the paper's architecture the search
/// system only ever sees programs that already parse; parse errors are the
/// front end's problem.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(source)?;
    let mut program = Program::new();
    loop {
        while p.eat(Token::SemiSemi) {}
        if p.at(Token::Eof) {
            break;
        }
        let decl = p.decl(&mut program)?;
        program.decls.push(std::sync::Arc::new(decl));
    }
    Ok(program)
}

/// Parses a single expression (used by tests and the enumerator's
/// template facilities).
///
/// # Errors
///
/// Returns the first syntax error, or an error if trailing tokens remain.
pub fn parse_expr(source: &str) -> Result<(Expr, Program), ParseError> {
    let mut p = Parser::new(source)?;
    let mut program = Program::new();
    let e = p.expr(&mut program)?;
    p.expect(Token::Eof)?;
    Ok((e, program))
}

/// Deepest nesting the recursive-descent parser will follow before
/// reporting a diagnostic instead of risking a stack overflow. Each
/// level costs a handful of stack frames through the expression levels,
/// so this keeps worst-case stack use far below any platform default
/// while accepting any program a person (or the enumerator) plausibly
/// writes.
const MAX_DEPTH: usize = 64;

/// The parser advances by index over the lexer's tokens, which are
/// `Copy`; a name's text is copied out of `src` only into the AST node
/// that holds it.
struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Spanned>,
    pos: usize,
    /// Current nesting depth across the recursion chokepoints
    /// (atoms, keyword forms, unary chains, patterns, list patterns,
    /// `::` pattern tails, type expressions).
    depth: usize,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Result<Parser<'s>, ParseError> {
        Ok(Parser { src, tokens: lex(src)?, pos: 0, depth: 0 })
    }

    /// Bumps the nesting depth, failing with a regular [`ParseError`]
    /// (not a stack overflow) on pathologically nested input. Paired
    /// with a decrement in the wrappers below; an error abandons the
    /// whole parse, so the counter need not survive failure.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError {
                message: format!("nesting exceeds the supported depth ({MAX_DEPTH})"),
                span: self.span(),
            });
        }
        Ok(())
    }

    fn current(&self) -> Spanned {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek(&self) -> Token {
        self.current().token
    }

    fn peek2(&self) -> Token {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn span(&self) -> Span {
        self.current().span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Spanned {
        let t = self.current();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token and copies its source text.
    fn bump_text(&mut self) -> String {
        self.bump().span.text(self.src).to_owned()
    }

    fn at(&self, t: Token) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: Token) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<Span, ParseError> {
        if self.at(t) {
            Ok(self.bump().span)
        } else {
            Err(self.error(format!("expected `{}`, found {}", t.lexeme(), self.found())))
        }
    }

    /// The current token as a parse-error message names it.
    fn found(&self) -> String {
        let t = self.current();
        t.token.describe(t.span.text(self.src))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), span: self.span() }
    }

    fn lident(&mut self) -> Result<(String, Span), ParseError> {
        if self.at(Token::Lident) {
            let sp = self.span();
            Ok((self.bump_text(), sp))
        } else {
            Err(self.error(format!("expected identifier, found {}", self.found())))
        }
    }

    /// The value of the string literal under the cursor, consumed.
    fn string_literal(&mut self) -> String {
        let text = self.bump().span.text(self.src);
        unescape(&text[1..text.len() - 1])
    }

    /// The name of the type variable under the cursor (its quote
    /// dropped), consumed.
    fn tyvar_name(&mut self) -> String {
        self.bump().span.text(self.src)[1..].to_owned()
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn decl(&mut self, prog: &mut Program) -> Result<Decl, ParseError> {
        let start = self.span();
        let id = prog.fresh_id();
        let kind = match self.peek() {
            Token::Let => {
                self.bump();
                let rec = self.eat(Token::Rec);
                let mut bindings = vec![self.binding(prog)?];
                while self.eat(Token::And) {
                    bindings.push(self.binding(prog)?);
                }
                // `let ... in ...` at the top level is an expression decl in
                // OCaml; we only support declaration `let` here, and the
                // binding parser already consumed up to the body, so an `in`
                // now means the user wrote a top-level let-expression.
                if self.at(Token::In) {
                    self.bump();
                    let body = self.expr(prog)?;
                    let span = start.merge(body.span);
                    let e = Expr {
                        id: prog.fresh_id(),
                        span,
                        kind: ExprKind::Let { rec, bindings, body: Arc::new(body) },
                    };
                    DeclKind::Expr(Arc::new(e))
                } else {
                    DeclKind::Let { rec, bindings }
                }
            }
            Token::Type => {
                self.bump();
                let mut defs = vec![self.type_def()?];
                while self.eat(Token::And) {
                    defs.push(self.type_def()?);
                }
                DeclKind::Type(defs)
            }
            Token::Exception => {
                self.bump();
                if !self.at(Token::Uident) {
                    return Err(
                        self.error(format!("expected exception name, found {}", self.found()))
                    );
                }
                let name = self.bump_text();
                let arg = if self.eat(Token::Of) { Some(self.type_expr()?) } else { None };
                DeclKind::Exception(name, arg)
            }
            _ => DeclKind::Expr(Arc::new(self.expr(prog)?)),
        };
        let span = start.merge(self.prev_span());
        Ok(Decl::new(id, span, kind))
    }

    fn binding(&mut self, prog: &mut Program) -> Result<Binding, ParseError> {
        let pat = self.pat_atom(prog)?;
        let mut params = Vec::new();
        while self.starts_pattern() {
            params.push(self.pat_atom(prog)?);
        }
        let annot = if self.eat(Token::Colon) { Some(self.type_expr()?) } else { None };
        self.expect(Token::Eq)?;
        let body = Arc::new(self.expr(prog)?);
        Ok(Binding { pat, params, annot, body })
    }

    fn type_def(&mut self) -> Result<TypeDef, ParseError> {
        // Optional parameters: 'a name, or ('a, 'b) name.
        let mut params = Vec::new();
        match self.peek() {
            Token::TyVar => params.push(self.tyvar_name()),
            Token::LParen if self.peek2() == Token::TyVar => {
                self.bump();
                loop {
                    if !self.at(Token::TyVar) {
                        return Err(
                            self.error(format!("expected type variable, found {}", self.found()))
                        );
                    }
                    params.push(self.tyvar_name());
                    if !self.eat(Token::Comma) {
                        break;
                    }
                }
                self.expect(Token::RParen)?;
            }
            _ => {}
        }
        let (name, _) = self.lident()?;
        self.expect(Token::Eq)?;
        let body = if self.at(Token::LBrace) {
            self.bump();
            let mut fields = Vec::new();
            loop {
                let mutable = self.eat(Token::Mutable);
                let (fname, _) = self.lident()?;
                self.expect(Token::Colon)?;
                let ty = self.type_expr()?;
                fields.push(FieldDef { name: fname, mutable, ty });
                if !self.eat(Token::Semi) {
                    break;
                }
                if self.at(Token::RBrace) {
                    break;
                }
            }
            self.expect(Token::RBrace)?;
            TypeDefBody::Record(fields)
        } else if matches!(self.peek(), Token::Uident | Token::Bar) {
            self.eat(Token::Bar);
            let mut ctors = Vec::new();
            loop {
                if !self.at(Token::Uident) {
                    return Err(self.error(format!("expected constructor, found {}", self.found())));
                }
                let cname = self.bump_text();
                let arg = if self.eat(Token::Of) { Some(self.type_expr()?) } else { None };
                ctors.push((cname, arg));
                if !self.eat(Token::Bar) {
                    break;
                }
            }
            TypeDefBody::Variant(ctors)
        } else {
            TypeDefBody::Alias(self.type_expr()?)
        };
        Ok(TypeDef { name, params, body })
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let lhs = self.type_tuple()?;
        if self.eat(Token::Arrow) {
            let rhs = self.type_expr()?;
            Ok(TypeExpr::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn type_tuple(&mut self) -> Result<TypeExpr, ParseError> {
        let first = self.type_app()?;
        if !self.at(Token::Star) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(Token::Star) {
            parts.push(self.type_app()?);
        }
        Ok(TypeExpr::Tuple(parts))
    }

    /// Postfix constructor application: `int list`, `('a, 'b) t`.
    fn type_app(&mut self) -> Result<TypeExpr, ParseError> {
        self.enter()?;
        let result = self.type_app_inner();
        self.depth -= 1;
        result
    }

    fn type_app_inner(&mut self) -> Result<TypeExpr, ParseError> {
        let mut base = match self.peek() {
            Token::TyVar => TypeExpr::Var(self.tyvar_name()),
            Token::Lident => TypeExpr::Con(self.bump_text(), Vec::new()),
            Token::LParen => {
                self.bump();
                let first = self.type_expr()?;
                if self.eat(Token::Comma) {
                    let mut args = vec![first];
                    loop {
                        args.push(self.type_expr()?);
                        if !self.eat(Token::Comma) {
                            break;
                        }
                    }
                    self.expect(Token::RParen)?;
                    let (name, _) = self.lident()?;
                    TypeExpr::Con(name, args)
                } else {
                    self.expect(Token::RParen)?;
                    first
                }
            }
            _ => return Err(self.error(format!("expected type, found {}", self.found()))),
        };
        while self.at(Token::Lident) {
            base = TypeExpr::Con(self.bump_text(), vec![base]);
        }
        Ok(base)
    }

    // ------------------------------------------------------------------
    // Patterns
    // ------------------------------------------------------------------

    fn starts_pattern(&self) -> bool {
        matches!(
            self.peek(),
            Token::Lident
                | Token::Underscore
                | Token::LParen
                | Token::LBracket
                | Token::Int(_)
                | Token::Float(_)
                | Token::Str
                | Token::True
                | Token::False
        )
    }

    fn pattern(&mut self, prog: &mut Program) -> Result<Pat, ParseError> {
        self.enter()?;
        let result = self.pattern_inner(prog);
        self.depth -= 1;
        result
    }

    fn pattern_inner(&mut self, prog: &mut Program) -> Result<Pat, ParseError> {
        let start = self.span();
        let first = self.pat_cons(prog)?;
        if !self.at(Token::Comma) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(Token::Comma) {
            parts.push(self.pat_cons(prog)?);
        }
        let span = start.merge(self.prev_span());
        Ok(Pat { id: prog.fresh_id(), span, kind: PatKind::Tuple(parts) })
    }

    /// `p :: p :: …`: each `::` nests its tail one level deeper, so each
    /// counts against [`MAX_DEPTH`].
    fn pat_cons(&mut self, prog: &mut Program) -> Result<Pat, ParseError> {
        let start = self.span();
        let head = self.pat_ctor(prog)?;
        if self.eat(Token::ColonColon) {
            self.enter()?;
            let tail = self.pat_cons(prog)?;
            self.depth -= 1;
            let span = start.merge(tail.span);
            Ok(Pat {
                id: prog.fresh_id(),
                span,
                kind: PatKind::Cons(Box::new(head), Box::new(tail)),
            })
        } else {
            Ok(head)
        }
    }

    fn pat_ctor(&mut self, prog: &mut Program) -> Result<Pat, ParseError> {
        if self.at(Token::Uident) {
            let start = self.span();
            let name = self.bump_text();
            let arg = if self.starts_pattern() || self.at(Token::Uident) {
                Some(Box::new(self.pat_atom(prog)?))
            } else {
                None
            };
            let span = start.merge(self.prev_span());
            return Ok(Pat { id: prog.fresh_id(), span, kind: PatKind::Construct(name, arg) });
        }
        self.pat_atom(prog)
    }

    fn pat_atom(&mut self, prog: &mut Program) -> Result<Pat, ParseError> {
        let start = self.span();
        let id = prog.fresh_id();
        let kind = match self.peek() {
            Token::Underscore => {
                self.bump();
                PatKind::Wild
            }
            Token::Lident => PatKind::Var(self.bump_text()),
            Token::Uident => PatKind::Construct(self.bump_text(), None),
            Token::Int(n) => {
                self.bump();
                PatKind::Lit(Lit::Int(n))
            }
            Token::Float(x) => {
                self.bump();
                PatKind::Lit(Lit::Float(x))
            }
            Token::Str => PatKind::Lit(Lit::Str(self.string_literal())),
            Token::True => {
                self.bump();
                PatKind::Lit(Lit::Bool(true))
            }
            Token::False => {
                self.bump();
                PatKind::Lit(Lit::Bool(false))
            }
            Token::Minus if matches!(self.peek2(), Token::Int(_)) => {
                self.bump();
                if let Token::Int(n) = self.bump().token {
                    PatKind::Lit(Lit::Int(-n))
                } else {
                    unreachable!()
                }
            }
            Token::LParen => {
                self.bump();
                if self.eat(Token::RParen) {
                    PatKind::Lit(Lit::Unit)
                } else {
                    let inner = self.pattern(prog)?;
                    if self.eat(Token::Colon) {
                        let ty = self.type_expr()?;
                        self.expect(Token::RParen)?;
                        PatKind::Annot(Box::new(inner), ty)
                    } else {
                        self.expect(Token::RParen)?;
                        let span = start.merge(self.prev_span());
                        return Ok(Pat { id, span, ..inner });
                    }
                }
            }
            Token::LBracket => {
                self.bump();
                self.enter()?;
                let mut parts = Vec::new();
                if !self.at(Token::RBracket) {
                    loop {
                        parts.push(self.pat_cons(prog)?);
                        if !self.eat(Token::Semi) {
                            break;
                        }
                    }
                }
                self.depth -= 1;
                self.expect(Token::RBracket)?;
                PatKind::List(parts)
            }
            _ => return Err(self.error(format!("expected pattern, found {}", self.found()))),
        };
        let span = start.merge(self.prev_span());
        Ok(Pat { id, span, kind })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn starts_kw_form(&self) -> bool {
        matches!(
            self.peek(),
            Token::Let | Token::If | Token::Match | Token::Fun | Token::Function | Token::Try
        )
    }

    /// Entry point: sequence level.
    fn expr(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        let mut lhs = self.operand(prog, Self::expr_tuple)?;
        while self.eat(Token::Semi) {
            let rhs = self.operand(prog, Self::expr_tuple)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                id: prog.fresh_id(),
                span,
                kind: ExprKind::Seq(Arc::new(lhs), Arc::new(rhs)),
            };
        }
        Ok(lhs)
    }

    /// Parses an operand that may be a keyword form extending maximally.
    fn operand(
        &mut self,
        prog: &mut Program,
        next: fn(&mut Self, &mut Program) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.starts_kw_form() {
            self.kw_form(prog)
        } else {
            next(self, prog)
        }
    }

    fn kw_form(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.kw_form_inner(prog);
        self.depth -= 1;
        result
    }

    fn kw_form_inner(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        let start = self.span();
        let id = prog.fresh_id();
        let kind = match self.peek() {
            Token::Let => {
                self.bump();
                let rec = self.eat(Token::Rec);
                let mut bindings = vec![self.binding(prog)?];
                while self.eat(Token::And) {
                    bindings.push(self.binding(prog)?);
                }
                self.expect(Token::In)?;
                let body = self.expr(prog)?;
                ExprKind::Let { rec, bindings, body: Arc::new(body) }
            }
            Token::If => {
                self.bump();
                let cond = self.expr_assign_or_kw(prog)?;
                self.expect(Token::Then)?;
                let then = self.expr_assign_or_kw(prog)?;
                let els = if self.eat(Token::Else) {
                    Some(Arc::new(self.expr_assign_or_kw(prog)?))
                } else {
                    None
                };
                ExprKind::If(Arc::new(cond), Arc::new(then), els)
            }
            Token::Match => {
                self.bump();
                let scrut = self.operand(prog, Self::expr_tuple)?;
                self.expect(Token::With)?;
                self.eat(Token::Bar);
                let mut arms = Vec::new();
                loop {
                    let pat = self.pattern(prog)?;
                    let guard = if self.eat(Token::When) {
                        Some(Arc::new(self.expr_assign_or_kw(prog)?))
                    } else {
                        None
                    };
                    self.expect(Token::Arrow)?;
                    let body = Arc::new(self.expr(prog)?);
                    arms.push(Arm { pat, guard, body });
                    if !self.eat(Token::Bar) {
                        break;
                    }
                }
                let scrut = Arc::new(scrut);
                ExprKind::Match(scrut, arms)
            }
            Token::Fun => {
                self.bump();
                let mut params = vec![self.pat_atom(prog)?];
                while self.starts_pattern() {
                    params.push(self.pat_atom(prog)?);
                }
                self.expect(Token::Arrow)?;
                let body = self.expr(prog)?;
                ExprKind::Fun(params, Arc::new(body))
            }
            Token::Function => {
                // `function | p -> e | …` is sugar for
                // `fun __fn_arg -> match __fn_arg with …`.
                self.bump();
                self.eat(Token::Bar);
                let mut arms = Vec::new();
                loop {
                    let pat = self.pattern(prog)?;
                    let guard = if self.eat(Token::When) {
                        Some(Arc::new(self.expr_assign_or_kw(prog)?))
                    } else {
                        None
                    };
                    self.expect(Token::Arrow)?;
                    let body = Arc::new(self.expr(prog)?);
                    arms.push(Arm { pat, guard, body });
                    if !self.eat(Token::Bar) {
                        break;
                    }
                }
                let param = Pat {
                    id: prog.fresh_id(),
                    span: start,
                    kind: PatKind::Var("__fn_arg".to_owned()),
                };
                let scrut = Expr {
                    id: prog.fresh_id(),
                    span: start,
                    kind: ExprKind::Var("__fn_arg".to_owned()),
                };
                let inner = Expr {
                    id: prog.fresh_id(),
                    span: start.merge(self.prev_span()),
                    kind: ExprKind::Match(Arc::new(scrut), arms),
                };
                ExprKind::Fun(vec![param], Arc::new(inner))
            }
            Token::Try => {
                self.bump();
                let body = self.expr(prog)?;
                self.expect(Token::With)?;
                self.eat(Token::Bar);
                let mut arms = Vec::new();
                loop {
                    let pat = self.pattern(prog)?;
                    let guard = if self.eat(Token::When) {
                        Some(Arc::new(self.expr_assign_or_kw(prog)?))
                    } else {
                        None
                    };
                    self.expect(Token::Arrow)?;
                    let handler = Arc::new(self.expr(prog)?);
                    arms.push(Arm { pat, guard, body: handler });
                    if !self.eat(Token::Bar) {
                        break;
                    }
                }
                ExprKind::Try(Arc::new(body), arms)
            }
            _ => unreachable!("kw_form called on non-keyword"),
        };
        let span = start.merge(self.prev_span());
        Ok(Expr { id, span, kind })
    }

    fn expr_assign_or_kw(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        self.operand(prog, Self::expr_assign)
    }

    /// Tuple level: `a, b, c`.
    fn expr_tuple(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        let first = self.expr_assign(prog)?;
        if !self.at(Token::Comma) {
            return Ok(first);
        }
        let mut parts = vec![Arc::new(first)];
        while self.eat(Token::Comma) {
            parts.push(Arc::new(self.expr_assign_or_kw(prog)?));
        }
        let span = parts[0].span.merge(parts[parts.len() - 1].span);
        Ok(Expr { id: prog.fresh_id(), span, kind: ExprKind::Tuple(parts) })
    }

    /// Assignment level: `r := e` and `e.f <- e`.
    fn expr_assign(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        let mut lhs = self.expr_binary(prog, 1)?;
        if self.eat(Token::ColonEq) {
            let rhs = self.expr_assign_or_kw(prog)?;
            let span = lhs.span.merge(rhs.span);
            return Ok(Expr {
                id: prog.fresh_id(),
                span,
                kind: ExprKind::BinOp(BinOp::Assign, Arc::new(lhs), Arc::new(rhs)),
            });
        }
        if self.at(Token::LeftArrow) {
            if let ExprKind::Field(obj, fname) = lhs.take_kind() {
                self.bump();
                let rhs = self.expr_assign_or_kw(prog)?;
                let span = lhs.span.merge(rhs.span);
                return Ok(Expr {
                    id: prog.fresh_id(),
                    span,
                    kind: ExprKind::SetField(obj, fname, Arc::new(rhs)),
                });
            }
            return Err(self.error("`<-` requires a field access on its left"));
        }
        Ok(lhs)
    }

    /// The binary operator under the cursor with its level, from 1 for
    /// `||` (loosest) to 7 for `*` (tightest), and whether it groups to
    /// the right.
    fn binop(&self) -> Option<(BinOp, u8, bool)> {
        Some(match self.peek() {
            Token::BarBar => (BinOp::Or, 1, true),
            Token::AmpAmp => (BinOp::And, 2, true),
            Token::Eq => (BinOp::Eq, 3, false),
            Token::EqEq => (BinOp::PhysEq, 3, false),
            Token::LtGt => (BinOp::Neq, 3, false),
            Token::BangEq => (BinOp::PhysNeq, 3, false),
            Token::Lt => (BinOp::Lt, 3, false),
            Token::Gt => (BinOp::Gt, 3, false),
            Token::Le => (BinOp::Le, 3, false),
            Token::Ge => (BinOp::Ge, 3, false),
            Token::Caret => (BinOp::Concat, 4, true),
            Token::At => (BinOp::Append, 4, true),
            Token::ColonColon => (BinOp::Cons, 5, true),
            Token::Plus => (BinOp::Add, 6, false),
            Token::Minus => (BinOp::Sub, 6, false),
            Token::PlusDot => (BinOp::AddF, 6, false),
            Token::MinusDot => (BinOp::SubF, 6, false),
            Token::Star => (BinOp::Mul, 7, false),
            Token::Slash => (BinOp::Div, 7, false),
            Token::Mod => (BinOp::Mod, 7, false),
            Token::StarDot => (BinOp::MulF, 7, false),
            Token::SlashDot => (BinOp::DivF, 7, false),
            _ => return None,
        })
    }

    /// The binary levels from `||` down to `*`, by precedence climbing:
    /// parses an operand joined by operators of level `min` or tighter.
    /// A right operand may be a keyword form, which extends maximally.
    /// A right-associative operator (`||`, `&&`, `^`, `@`, `::`) nests
    /// its right operand one level deeper, so each counts against
    /// [`MAX_DEPTH`]; a left-associative chain is this loop, and its
    /// precedence climb is at most seven calls deep.
    fn expr_binary(&mut self, prog: &mut Program, min: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.expr_unary(prog)?;
        while let Some((op, level, right)) = self.binop().filter(|&(_, level, _)| level >= min) {
            self.bump();
            let rhs = if self.starts_kw_form() {
                self.kw_form(prog)?
            } else if right {
                self.enter()?;
                let rhs = self.expr_binary(prog, level);
                self.depth -= 1;
                rhs?
            } else {
                self.expr_binary(prog, level + 1)?
            };
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                id: prog.fresh_id(),
                span,
                kind: ExprKind::BinOp(op, Arc::new(lhs), Arc::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn expr_unary(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.expr_unary_inner(prog);
        self.depth -= 1;
        result
    }

    fn expr_unary_inner(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek() {
            Token::Minus => {
                self.bump();
                let e = self.expr_unary(prog)?;
                let span = start.merge(e.span);
                Ok(Expr { id: prog.fresh_id(), span, kind: ExprKind::UnOp(UnOp::Neg, Arc::new(e)) })
            }
            Token::MinusDot => {
                self.bump();
                let e = self.expr_unary(prog)?;
                let span = start.merge(e.span);
                Ok(Expr {
                    id: prog.fresh_id(),
                    span,
                    kind: ExprKind::UnOp(UnOp::NegF, Arc::new(e)),
                })
            }
            Token::Raise => {
                self.bump();
                let e = self.expr_unary(prog)?;
                let span = start.merge(e.span);
                Ok(Expr { id: prog.fresh_id(), span, kind: ExprKind::Raise(Arc::new(e)) })
            }
            _ => self.expr_app(prog),
        }
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Token::Lident
                | Token::Uident
                | Token::Int(_)
                | Token::Float(_)
                | Token::Str
                | Token::True
                | Token::False
                | Token::LParen
                | Token::LBracket
                | Token::LBrace
                | Token::Begin
                | Token::Bang
                | Token::Hole
        )
    }

    fn expr_app(&mut self, prog: &mut Program) -> Result<Expr, ParseError> {
        let mut head = self.expr_postfix(prog, true)?;
        while self.starts_atom() {
            let arg = self.expr_postfix(prog, false)?;
            let span = head.span.merge(arg.span);
            head = Expr {
                id: prog.fresh_id(),
                span,
                kind: ExprKind::App(Arc::new(head), Arc::new(arg)),
            };
        }
        Ok(head)
    }

    /// Atom with field-access postfix. `head_position` allows constructor
    /// application (`C arg`) only where OCaml does: at the head of an
    /// application, not in argument position.
    fn expr_postfix(
        &mut self,
        prog: &mut Program,
        head_position: bool,
    ) -> Result<Expr, ParseError> {
        let mut e = self.expr_atom(prog, head_position)?;
        while self.at(Token::Dot) && self.peek2() == Token::Lident {
            self.bump();
            let (name, fspan) = self.lident()?;
            let span = e.span.merge(fspan);
            e = Expr { id: prog.fresh_id(), span, kind: ExprKind::Field(Arc::new(e), name) };
        }
        Ok(e)
    }

    fn expr_atom(&mut self, prog: &mut Program, head_position: bool) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.expr_atom_inner(prog, head_position);
        self.depth -= 1;
        result
    }

    fn expr_atom_inner(
        &mut self,
        prog: &mut Program,
        head_position: bool,
    ) -> Result<Expr, ParseError> {
        let start = self.span();
        let id = prog.fresh_id();
        let kind = match self.peek() {
            Token::Lident => ExprKind::Var(self.bump_text()),
            Token::Uident => {
                let name = self.bump_text();
                if head_position && self.starts_atom() && !self.at(Token::Bang) {
                    let arg = self.expr_postfix(prog, false)?;
                    ExprKind::Construct(name, Some(Arc::new(arg)))
                } else {
                    ExprKind::Construct(name, None)
                }
            }
            Token::Int(n) => {
                self.bump();
                ExprKind::Lit(Lit::Int(n))
            }
            Token::Float(x) => {
                self.bump();
                ExprKind::Lit(Lit::Float(x))
            }
            Token::Str => ExprKind::Lit(Lit::Str(self.string_literal())),
            Token::True => {
                self.bump();
                ExprKind::Lit(Lit::Bool(true))
            }
            Token::False => {
                self.bump();
                ExprKind::Lit(Lit::Bool(false))
            }
            Token::Hole => {
                self.bump();
                ExprKind::Hole
            }
            Token::Bang => {
                self.bump();
                let e = self.expr_postfix(prog, false)?;
                ExprKind::UnOp(UnOp::Deref, Arc::new(e))
            }
            Token::LParen => {
                self.bump();
                // Operator section: `(+)`, `(^)`, `(=)`, ….
                if let Some(op) = section_op(self.peek()) {
                    if self.peek2() == Token::RParen {
                        self.bump();
                        self.bump();
                        let span = start.merge(self.prev_span());
                        return Ok(Expr { id, span, kind: ExprKind::Var(op.to_owned()) });
                    }
                }
                if self.eat(Token::RParen) {
                    ExprKind::Lit(Lit::Unit)
                } else {
                    let mut inner = self.expr(prog)?;
                    if self.eat(Token::Colon) {
                        let ty = self.type_expr()?;
                        self.expect(Token::RParen)?;
                        ExprKind::Annot(Arc::new(inner), ty)
                    } else {
                        self.expect(Token::RParen)?;
                        let span = start.merge(self.prev_span());
                        return Ok(Expr { id, span, kind: inner.take_kind() });
                    }
                }
            }
            Token::Begin => {
                self.bump();
                let mut inner = self.expr(prog)?;
                self.expect(Token::End)?;
                let span = start.merge(self.prev_span());
                return Ok(Expr { id, span, kind: inner.take_kind() });
            }
            Token::LBracket => {
                self.bump();
                let mut parts = Vec::new();
                if !self.at(Token::RBracket) {
                    loop {
                        parts.push(Arc::new(self.operand(prog, Self::expr_tuple)?));
                        if !self.eat(Token::Semi) {
                            break;
                        }
                        if self.at(Token::RBracket) {
                            break;
                        }
                    }
                }
                self.expect(Token::RBracket)?;
                ExprKind::List(parts)
            }
            Token::LBrace => {
                self.bump();
                let mut fields = Vec::new();
                loop {
                    let (fname, _) = self.lident()?;
                    self.expect(Token::Eq)?;
                    let value = Arc::new(self.expr_assign_or_kw(prog)?);
                    fields.push((fname, value));
                    if !self.eat(Token::Semi) {
                        break;
                    }
                    if self.at(Token::RBrace) {
                        break;
                    }
                }
                self.expect(Token::RBrace)?;
                ExprKind::Record(fields)
            }
            _ => return Err(self.error(format!("expected expression, found {}", self.found()))),
        };
        let span = start.merge(self.prev_span());
        Ok(Expr { id, span, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::expr_to_string;

    fn roundtrip(src: &str) -> String {
        let (e, _) = parse_expr(src).unwrap_or_else(|err| panic!("parse `{src}`: {err}"));
        expr_to_string(&e)
    }

    #[test]
    fn application_is_left_assoc() {
        assert_eq!(roundtrip("f a b c"), "f a b c");
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(roundtrip("1 + 2 * 3"), "1 + 2 * 3");
        assert_eq!(roundtrip("(1 + 2) * 3"), "(1 + 2) * 3");
    }

    #[test]
    fn cons_is_right_assoc() {
        assert_eq!(roundtrip("1 :: 2 :: []"), "1 :: 2 :: []");
    }

    #[test]
    fn comparison_below_arith() {
        assert_eq!(roundtrip("x + 1 = y"), "x + 1 = y");
    }

    #[test]
    fn tuple_vs_list() {
        // The paper's parsing-vs-typing example: `[1,2,3]` is a one-element
        // list holding a triple.
        let (e, _) = parse_expr("[1, 2, 3]").unwrap();
        match &e.kind {
            ExprKind::List(items) => {
                assert_eq!(items.len(), 1);
                assert!(matches!(items[0].kind, ExprKind::Tuple(_)));
            }
            other => panic!("expected list, got {other:?}"),
        }
        let (e, _) = parse_expr("[1; 2; 3]").unwrap();
        match &e.kind {
            ExprKind::List(items) => assert_eq!(items.len(), 3),
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn fun_tupled_vs_curried() {
        let (e, _) = parse_expr("fun (x, y) -> x + y").unwrap();
        match &e.kind {
            ExprKind::Fun(params, _) => {
                assert_eq!(params.len(), 1);
                assert!(matches!(params[0].kind, PatKind::Tuple(_)));
            }
            other => panic!("{other:?}"),
        }
        let (e, _) = parse_expr("fun x y -> x + y").unwrap();
        match &e.kind {
            ExprKind::Fun(params, _) => assert_eq!(params.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn let_in_expression() {
        let (e, _) = parse_expr("let x = 1 in x + 2").unwrap();
        assert!(matches!(e.kind, ExprKind::Let { .. }));
    }

    #[test]
    fn match_with_arms() {
        let (e, _) = parse_expr("match xs with [] -> 0 | x :: _ -> x").unwrap();
        match &e.kind {
            ExprKind::Match(_, arms) => assert_eq!(arms.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constructor_application_head_only() {
        let (e, _) = parse_expr("f C 1").unwrap();
        // Two arguments: the bare constructor, then the literal.
        match &e.kind {
            ExprKind::App(inner, arg1) => {
                assert!(matches!(arg1.kind, ExprKind::Lit(Lit::Int(1))));
                match &inner.kind {
                    ExprKind::App(_, c) => {
                        assert!(matches!(&c.kind, ExprKind::Construct(n, None) if n == "C"));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        let (e, _) = parse_expr("For (moves, lst)").unwrap();
        assert!(matches!(&e.kind, ExprKind::Construct(n, Some(_)) if n == "For"));
    }

    #[test]
    fn deref_binds_tighter_than_app() {
        let (e, _) = parse_expr("f !x").unwrap();
        match &e.kind {
            ExprKind::App(_, arg) => assert!(matches!(arg.kind, ExprKind::UnOp(UnOp::Deref, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assign_and_setfield() {
        let (e, _) = parse_expr("r := !r + 1").unwrap();
        assert!(matches!(e.kind, ExprKind::BinOp(BinOp::Assign, _, _)));
        let (e, _) = parse_expr("p.x <- 3").unwrap();
        assert!(matches!(e.kind, ExprKind::SetField(_, _, _)));
    }

    #[test]
    fn sequence_lowest() {
        let (e, _) = parse_expr("print_string \"a\"; 1 + 2").unwrap();
        assert!(matches!(e.kind, ExprKind::Seq(_, _)));
    }

    #[test]
    fn if_branch_tighter_than_seq() {
        let (e, _) = parse_expr("if b then f x; g y").unwrap();
        assert!(matches!(e.kind, ExprKind::Seq(_, _)));
    }

    #[test]
    fn program_with_decls() {
        let src = "let rec map2 f aList bList =\n  List.map (fun (a, b) -> f a b) (List.combine aList bList)\nlet lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\nlet ans = List.filter (fun x -> x == 0) lst\n";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.decls.len(), 3);
    }

    #[test]
    fn type_declarations() {
        let src = "type move = For of int * move list | Rot of int | Stop\ntype point = { x : int; mutable y : int }\ntype 'a pair = 'a * 'a\n";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.decls.len(), 3);
        match prog.decls[0].kind() {
            DeclKind::Type(defs) => match &defs[0].body {
                TypeDefBody::Variant(cs) => assert_eq!(cs.len(), 3),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exception_decl_and_raise() {
        let prog = parse_program("exception Foo\nlet f x = raise Foo\n").unwrap();
        assert_eq!(prog.decls.len(), 2);
    }

    #[test]
    fn hole_parses() {
        let (e, _) = parse_expr("f [[...]] x").unwrap();
        match &e.kind {
            ExprKind::App(inner, _) => match &inner.kind {
                ExprKind::App(_, h) => assert!(h.is_hole()),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn record_literal_and_field() {
        let (e, _) = parse_expr("{ x = 1; y = 2 }").unwrap();
        assert!(matches!(e.kind, ExprKind::Record(_)));
        let (e, _) = parse_expr("p.x + 1").unwrap();
        assert!(matches!(e.kind, ExprKind::BinOp(BinOp::Add, _, _)));
    }

    #[test]
    fn annotation() {
        let (e, _) = parse_expr("(x : int list)").unwrap();
        assert!(matches!(e.kind, ExprKind::Annot(_, _)));
    }

    #[test]
    fn top_level_let_in_is_expr_decl() {
        let prog = parse_program("let x = 1 in x + 1\n").unwrap();
        assert!(matches!(prog.decls[0].kind(), DeclKind::Expr(_)));
    }

    #[test]
    fn node_ids_unique() {
        let prog = parse_program("let f x = x + 1\nlet y = f 2\n").unwrap();
        let mut seen = std::collections::HashSet::new();
        for d in &prog.decls {
            d.for_each_expr(&mut |e| {
                assert!(seen.insert(e.id), "duplicate id {:?}", e.id);
            });
        }
    }

    #[test]
    fn spans_cover_source() {
        let src = "let y = f 2";
        let prog = parse_program(src).unwrap();
        match prog.decls[0].kind() {
            DeclKind::Let { bindings, .. } => {
                assert_eq!(bindings[0].body.span.text(src), "f 2");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_error_reports_span() {
        let err = parse_program("let = 3").unwrap_err();
        assert!(err.span.start >= 4);
    }

    #[test]
    fn nested_if_else_binds_inner() {
        assert_eq!(
            roundtrip("if a then if b then 1 else 2 else 3"),
            "if a then (if b then 1 else 2) else 3"
        );
    }

    #[test]
    fn binop_rhs_allows_kw_form() {
        let (e, _) = parse_expr("1 + match x with _ -> 2").unwrap();
        assert!(matches!(e.kind, ExprKind::BinOp(BinOp::Add, _, _)));
    }
}
