//! Precedence-aware pretty printer.
//!
//! Error messages in this system quote program fragments in concrete
//! syntax ("Try replacing `fun (x, y) -> x + y` with `fun x y -> x + y`"),
//! so the printer must produce valid, minimally parenthesized source.
//! Printing then re-parsing yields a structurally identical tree (the
//! round-trip property tested in `tests/`); the wildcard hole prints as
//! `[[...]]`, which the lexer also accepts.

use crate::ast::*;

/// Binding strength contexts, loosest (0) to tightest.
///
/// Keyword forms (`let … in`, `if`, `match`, `fun`) are treated as the
/// loosest level: they extend maximally rightward, so they are
/// parenthesized in any interior position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    Seq = 0,
    Tuple = 1,
    Assign = 2,
    Or = 3,
    And = 4,
    Cmp = 5,
    Concat = 6,
    Cons = 7,
    Add = 8,
    Mul = 9,
    Unary = 10,
    App = 11,
    Atom = 12,
}

fn next(p: Prec) -> Prec {
    match p {
        Prec::Seq => Prec::Tuple,
        Prec::Tuple => Prec::Assign,
        Prec::Assign => Prec::Or,
        Prec::Or => Prec::And,
        Prec::And => Prec::Cmp,
        Prec::Cmp => Prec::Concat,
        Prec::Concat => Prec::Cons,
        Prec::Cons => Prec::Add,
        Prec::Add => Prec::Mul,
        Prec::Mul => Prec::Unary,
        Prec::Unary => Prec::App,
        Prec::App => Prec::Atom,
        Prec::Atom => Prec::Atom,
    }
}

fn binop_prec(op: BinOp) -> Prec {
    use BinOp::*;
    match op {
        Assign => Prec::Assign,
        Or => Prec::Or,
        And => Prec::And,
        Eq | PhysEq | Neq | PhysNeq | Lt | Gt | Le | Ge => Prec::Cmp,
        Concat | Append => Prec::Concat,
        Cons => Prec::Cons,
        Add | Sub | AddF | SubF => Prec::Add,
        Mul | Div | Mod | MulF | DivF => Prec::Mul,
    }
}

fn binop_right_assoc(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Cons | BinOp::Concat | BinOp::Append | BinOp::Assign | BinOp::And | BinOp::Or
    )
}

/// Renders an expression as minimal concrete syntax.
pub fn expr_to_string(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e, Prec::Seq);
    s
}

/// Renders a pattern.
pub fn pat_to_string(p: &Pat) -> String {
    let mut s = String::new();
    write_pat(&mut s, p, 0);
    s
}

/// Renders a declaration (single logical line).
pub fn decl_to_string(d: &Decl) -> String {
    let mut s = String::new();
    write_decl(&mut s, d);
    s
}

/// Renders the whole program, one declaration per line.
pub fn program_to_string(p: &Program) -> String {
    let mut s = String::new();
    for d in &p.decls {
        write_decl(&mut s, d);
        s.push('\n');
    }
    s
}

fn lit_to_string(l: &Lit) -> String {
    match l {
        Lit::Int(n) => {
            if *n < 0 {
                format!("({n})")
            } else {
                n.to_string()
            }
        }
        Lit::Float(x) => format!("{x:?}"),
        Lit::Str(s) => format!("{s:?}"),
        Lit::Bool(b) => b.to_string(),
        Lit::Unit => "()".to_owned(),
    }
}

/// Deepest nesting the printer will follow before eliding a subtree.
/// Far above what the parser's own depth guard admits, so elision only
/// ever triggers on programmatically built ASTs — and even then the
/// printer stays total instead of overflowing the stack.
const MAX_DEPTH: usize = 500;

thread_local! {
    static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Claims one level of printing depth; `false` means the cutoff was hit
/// and the caller should emit a placeholder instead of recursing. A
/// `true` return must be paired with [`leave`].
fn enter() -> bool {
    DEPTH.with(|d| {
        if d.get() >= MAX_DEPTH {
            false
        } else {
            d.set(d.get() + 1);
            true
        }
    })
}

fn leave() {
    DEPTH.with(|d| d.set(d.get() - 1));
}

fn write_paren(out: &mut String, want: Prec, have: Prec, body: impl FnOnce(&mut String)) {
    if have < want {
        out.push('(');
        body(out);
        out.push(')');
    } else {
        body(out);
    }
}

/// Operator spellings that must print as sections `(+)`.
fn is_operator_name(name: &str) -> bool {
    !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

fn write_expr(out: &mut String, e: &Expr, ctx: Prec) {
    if !enter() {
        // Elide the subtree as a hole: still-parseable output, no
        // unbounded recursion.
        out.push_str("[[...]]");
        return;
    }
    write_expr_inner(out, e, ctx);
    leave();
}

fn write_expr_inner(out: &mut String, e: &Expr, ctx: Prec) {
    match &e.kind {
        ExprKind::Var(name) => {
            if is_operator_name(name) || name == "mod" {
                out.push('(');
                out.push_str(name);
                out.push(')');
            } else {
                out.push_str(name);
            }
        }
        ExprKind::Lit(l) => out.push_str(&lit_to_string(l)),
        ExprKind::Hole => out.push_str("[[...]]"),
        ExprKind::App(f, a) => write_paren(out, ctx, Prec::App, |out| {
            write_expr(out, f, Prec::App);
            out.push(' ');
            write_expr(out, a, Prec::Atom);
        }),
        ExprKind::Adapt(inner) => write_paren(out, ctx, Prec::App, |out| {
            out.push_str("adapt ");
            write_expr(out, inner, Prec::Atom);
        }),
        ExprKind::Raise(inner) => write_paren(out, ctx, Prec::Unary, |out| {
            out.push_str("raise ");
            write_expr(out, inner, Prec::Unary);
        }),
        ExprKind::Construct(name, arg) => match arg {
            None => out.push_str(name),
            Some(a) => write_paren(out, ctx, Prec::App, |out| {
                out.push_str(name);
                out.push(' ');
                write_expr(out, a, Prec::Atom);
            }),
        },
        ExprKind::UnOp(op, inner) => match op {
            UnOp::Deref => write_paren(out, ctx, Prec::Atom, |out| {
                out.push('!');
                write_expr(out, inner, Prec::Atom);
            }),
            UnOp::Neg | UnOp::NegF => write_paren(out, ctx, Prec::Unary, |out| {
                out.push_str(op.symbol());
                write_expr(out, inner, Prec::Unary);
            }),
        },
        ExprKind::BinOp(op, l, r) => {
            let p = binop_prec(*op);
            write_paren(out, ctx, p, |out| {
                let (lp, rp) = if binop_right_assoc(*op) { (next(p), p) } else { (p, next(p)) };
                write_expr(out, l, lp);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                write_expr(out, r, rp);
            });
        }
        ExprKind::Seq(a, b) => write_paren(out, ctx, Prec::Seq, |out| {
            write_expr(out, a, Prec::Tuple);
            out.push_str("; ");
            write_expr(out, b, Prec::Tuple);
        }),
        ExprKind::Tuple(parts) => write_paren(out, ctx, Prec::Tuple, |out| {
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, part, Prec::Assign);
            }
        }),
        ExprKind::List(parts) => {
            out.push('[');
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                write_expr(out, part, Prec::Tuple);
            }
            out.push(']');
        }
        ExprKind::If(c, t, els) => write_paren(out, ctx, Prec::Seq, |out| {
            out.push_str("if ");
            write_expr(out, c, Prec::Assign);
            out.push_str(" then ");
            write_expr(out, t, Prec::Assign);
            if let Some(e) = els {
                out.push_str(" else ");
                write_expr(out, e, Prec::Assign);
            }
        }),
        ExprKind::Fun(params, body) => write_paren(out, ctx, Prec::Seq, |out| {
            out.push_str("fun");
            for p in params {
                out.push(' ');
                write_pat(out, p, 2);
            }
            out.push_str(" -> ");
            write_expr(out, body, Prec::Seq);
        }),
        ExprKind::Let { rec, bindings, body } => write_paren(out, ctx, Prec::Seq, |out| {
            out.push_str("let ");
            if *rec {
                out.push_str("rec ");
            }
            for (i, b) in bindings.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                write_binding(out, b);
            }
            out.push_str(" in ");
            write_expr(out, body, Prec::Seq);
        }),
        ExprKind::Match(scrut, arms) => write_paren(out, ctx, Prec::Seq, |out| {
            out.push_str("match ");
            write_expr(out, scrut, Prec::Tuple);
            out.push_str(" with ");
            for (i, arm) in arms.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                write_pat(out, &arm.pat, 0);
                if let Some(g) = &arm.guard {
                    out.push_str(" when ");
                    write_expr(out, g, Prec::Assign);
                }
                out.push_str(" -> ");
                // Arm bodies that are themselves matches would swallow the
                // following arms; parenthesize them.
                let body_ctx = if i + 1 < arms.len()
                    && matches!(arm.body.kind, ExprKind::Match(_, _) | ExprKind::Fun(_, _))
                {
                    Prec::Tuple
                } else {
                    Prec::Seq
                };
                write_expr(out, &arm.body, body_ctx);
            }
        }),
        ExprKind::Try(body, arms) => write_paren(out, ctx, Prec::Seq, |out| {
            out.push_str("try ");
            write_expr(out, body, Prec::Tuple);
            out.push_str(" with ");
            for (i, arm) in arms.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                write_pat(out, &arm.pat, 0);
                if let Some(g) = &arm.guard {
                    out.push_str(" when ");
                    write_expr(out, g, Prec::Assign);
                }
                out.push_str(" -> ");
                let body_ctx = if i + 1 < arms.len()
                    && matches!(arm.body.kind, ExprKind::Match(_, _) | ExprKind::Fun(_, _))
                {
                    Prec::Tuple
                } else {
                    Prec::Seq
                };
                write_expr(out, &arm.body, body_ctx);
            }
        }),
        ExprKind::Annot(inner, ty) => {
            out.push('(');
            write_expr(out, inner, Prec::Seq);
            out.push_str(" : ");
            write_type(out, ty, 0);
            out.push(')');
        }
        ExprKind::Record(fields) => {
            out.push_str("{ ");
            for (i, (name, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                out.push_str(name);
                out.push_str(" = ");
                write_expr(out, value, Prec::Assign);
            }
            out.push_str(" }");
        }
        ExprKind::Field(obj, name) => write_paren(out, ctx, Prec::Atom, |out| {
            write_expr(out, obj, Prec::Atom);
            out.push('.');
            out.push_str(name);
        }),
        ExprKind::SetField(obj, name, value) => write_paren(out, ctx, Prec::Assign, |out| {
            write_expr(out, obj, Prec::Atom);
            out.push('.');
            out.push_str(name);
            out.push_str(" <- ");
            write_expr(out, value, Prec::Or);
        }),
    }
}

fn write_binding(out: &mut String, b: &Binding) {
    write_pat(out, &b.pat, 2);
    for p in &b.params {
        out.push(' ');
        write_pat(out, p, 2);
    }
    if let Some(ty) = &b.annot {
        out.push_str(" : ");
        write_type(out, ty, 0);
    }
    out.push_str(" = ");
    write_expr(out, &b.body, Prec::Seq);
}

/// Pattern printing. `ctx` levels: 0 = top (tuples bare), 1 = cons operand,
/// 2 = atom required (function parameter / constructor argument).
fn write_pat(out: &mut String, p: &Pat, ctx: u8) {
    if !enter() {
        out.push('_');
        return;
    }
    write_pat_inner(out, p, ctx);
    leave();
}

fn write_pat_inner(out: &mut String, p: &Pat, ctx: u8) {
    match &p.kind {
        PatKind::Wild => out.push('_'),
        PatKind::Var(name) => out.push_str(name),
        PatKind::Lit(l) => out.push_str(&lit_to_string(l)),
        PatKind::Tuple(parts) => {
            let parens = ctx >= 1;
            if parens {
                out.push('(');
            }
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_pat(out, part, 1);
            }
            if parens {
                out.push(')');
            }
        }
        PatKind::List(parts) => {
            out.push('[');
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                write_pat(out, part, 1);
            }
            out.push(']');
        }
        PatKind::Cons(h, t) => {
            let parens = ctx >= 2;
            if parens {
                out.push('(');
            }
            write_pat(out, h, 2);
            out.push_str(" :: ");
            write_pat(out, t, 1);
            if parens {
                out.push(')');
            }
        }
        PatKind::Construct(name, arg) => match arg {
            None => out.push_str(name),
            Some(a) => {
                let parens = ctx >= 2;
                if parens {
                    out.push('(');
                }
                out.push_str(name);
                out.push(' ');
                write_pat(out, a, 2);
                if parens {
                    out.push(')');
                }
            }
        },
        PatKind::Annot(inner, ty) => {
            out.push('(');
            write_pat(out, inner, 0);
            out.push_str(" : ");
            write_type(out, ty, 0);
            out.push(')');
        }
    }
}

/// Type printing. `ctx`: 0 = top, 1 = tuple operand, 2 = argument of a
/// postfix constructor.
fn write_type(out: &mut String, t: &TypeExpr, ctx: u8) {
    match t {
        TypeExpr::Var(v) => {
            out.push('\'');
            out.push_str(v);
        }
        TypeExpr::Con(name, args) => match args.len() {
            0 => out.push_str(name),
            1 => {
                write_type(out, &args[0], 2);
                out.push(' ');
                out.push_str(name);
            }
            _ => {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_type(out, a, 0);
                }
                out.push_str(") ");
                out.push_str(name);
            }
        },
        TypeExpr::Arrow(a, b) => {
            let parens = ctx >= 1;
            if parens {
                out.push('(');
            }
            write_type(out, a, 1);
            out.push_str(" -> ");
            write_type(out, b, 0);
            if parens {
                out.push(')');
            }
        }
        TypeExpr::Tuple(parts) => {
            let parens = ctx >= 2 || ctx == 1;
            if parens {
                out.push('(');
            }
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" * ");
                }
                write_type(out, part, 2);
            }
            if parens {
                out.push(')');
            }
        }
    }
}

fn write_decl(out: &mut String, d: &Decl) {
    match d.kind() {
        DeclKind::Let { rec, bindings } => {
            out.push_str("let ");
            if *rec {
                out.push_str("rec ");
            }
            for (i, b) in bindings.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                write_binding(out, b);
            }
        }
        DeclKind::Type(defs) => {
            out.push_str("type ");
            for (i, def) in defs.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                match def.params.len() {
                    0 => {}
                    1 => {
                        out.push('\'');
                        out.push_str(&def.params[0]);
                        out.push(' ');
                    }
                    _ => {
                        out.push('(');
                        for (j, p) in def.params.iter().enumerate() {
                            if j > 0 {
                                out.push_str(", ");
                            }
                            out.push('\'');
                            out.push_str(p);
                        }
                        out.push_str(") ");
                    }
                }
                out.push_str(&def.name);
                out.push_str(" = ");
                match &def.body {
                    TypeDefBody::Variant(ctors) => {
                        for (j, (name, arg)) in ctors.iter().enumerate() {
                            if j > 0 {
                                out.push_str(" | ");
                            }
                            out.push_str(name);
                            if let Some(ty) = arg {
                                out.push_str(" of ");
                                write_type(out, ty, 0);
                            }
                        }
                    }
                    TypeDefBody::Record(fields) => {
                        out.push_str("{ ");
                        for (j, f) in fields.iter().enumerate() {
                            if j > 0 {
                                out.push_str("; ");
                            }
                            if f.mutable {
                                out.push_str("mutable ");
                            }
                            out.push_str(&f.name);
                            out.push_str(" : ");
                            write_type(out, &f.ty, 0);
                        }
                        out.push_str(" }");
                    }
                    TypeDefBody::Alias(ty) => write_type(out, ty, 0),
                }
            }
        }
        DeclKind::Exception(name, arg) => {
            out.push_str("exception ");
            out.push_str(name);
            if let Some(ty) = arg {
                out.push_str(" of ");
                write_type(out, ty, 0);
            }
        }
        DeclKind::Expr(e) => write_expr(out, e, Prec::Seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    /// Print → parse → print must be a fixpoint.
    fn fixpoint(src: &str) {
        let (e1, _) = parse_expr(src).unwrap_or_else(|err| panic!("parse `{src}`: {err}"));
        let p1 = expr_to_string(&e1);
        let (e2, _) = parse_expr(&p1).unwrap_or_else(|err| panic!("reparse `{p1}`: {err}"));
        let p2 = expr_to_string(&e2);
        assert_eq!(p1, p2, "printer not a fixpoint for `{src}`");
    }

    #[test]
    fn fixpoints() {
        for src in [
            "f a b c",
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "1 :: 2 :: []",
            "fun (x, y) -> x + y",
            "fun x y -> x + y",
            "let x = 1 in x + 2",
            "match xs with [] -> 0 | x :: _ -> x",
            "if a then b else c",
            "r := !r + 1",
            "[1; 2; 3]",
            "[1, 2, 3]",
            "(\"a\" ^ \"b\") = s",
            "{ x = 1; y = 2 }",
            "p.x <- p.x + 1",
            "raise Foo",
            "f [[...]] y",
            "For (moves, lst)",
            "adapt (f x)",
            "a; b; c",
            "let rec go n acc = if n = 0 then acc else go (n - 1) (n :: acc) in go 5 []",
            "-1 + 2",
            "f (-1)",
            "1.5 +. 2.0",
            "not (x && y || z)",
        ] {
            fixpoint(src);
        }
    }

    #[test]
    fn tupled_list_keeps_distinction() {
        let (e, _) = parse_expr("[1, 2, 3]").unwrap();
        assert_eq!(expr_to_string(&e), "[1, 2, 3]");
        let (e, _) = parse_expr("[1; 2; 3]").unwrap();
        assert_eq!(expr_to_string(&e), "[1; 2; 3]");
    }

    #[test]
    fn nested_match_in_arm_parenthesized() {
        let src = "match a with 0 -> (match b with _ -> 1) | _ -> 2";
        let (e, _) = parse_expr(src).unwrap();
        let printed = expr_to_string(&e);
        let (e2, _) = parse_expr(&printed).unwrap();
        match &e2.kind {
            ExprKind::Match(_, arms) => assert_eq!(arms.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn program_round_trip() {
        let src = "type move = For of int * move list | Stop\nlet rec len xs = match xs with [] -> 0 | _ :: t -> 1 + len t\nlet total = len [For (1, []); Stop]\n";
        let p1 = parse_program(src).unwrap();
        let s1 = program_to_string(&p1);
        let p2 = parse_program(&s1).unwrap_or_else(|err| panic!("reparse:\n{s1}\n{err}"));
        assert_eq!(s1, program_to_string(&p2));
    }

    #[test]
    fn hole_prints_and_reparses() {
        let (e, _) = parse_expr("f [[...]]").unwrap();
        assert_eq!(expr_to_string(&e), "f [[...]]");
    }

    #[test]
    fn negative_literal_parenthesized() {
        let (e, _) = parse_expr("f (-1)").unwrap();
        assert_eq!(expr_to_string(&e), "f (-1)");
    }

    #[test]
    fn types_print() {
        let (e, _) = parse_expr("(x : ('a -> 'b) -> 'a list -> 'b list)").unwrap();
        assert_eq!(expr_to_string(&e), "(x : ('a -> 'b) -> 'a list -> 'b list)");
    }
}
