//! Regression tests for the recursion-depth guards: pathologically
//! nested input must produce an ordinary diagnostic (or elided output),
//! never a stack overflow.

use seminal_ml::ast::{Expr, ExprKind, Lit, UnOp};
use seminal_ml::parser::parse_program;
use seminal_ml::pretty::expr_to_string;
use seminal_ml::span::Span;
use std::sync::Arc;

fn parens(depth: usize) -> String {
    format!("let x = {}1{}", "(".repeat(depth), ")".repeat(depth))
}

#[test]
fn pathological_nesting_is_a_parse_diagnostic_not_an_overflow() {
    let err = parse_program(&parens(5_000)).expect_err("5000 levels must be rejected");
    assert!(
        err.message.contains("nesting exceeds the supported depth"),
        "unexpected diagnostic: {}",
        err.message
    );
}

#[test]
fn right_associative_operator_chains_are_a_parse_diagnostic_not_an_overflow() {
    for (op, operand, last) in [
        ("::", "1", "[]"),
        ("^", "\"a\"", "\"b\""),
        ("@", "[1]", "[]"),
        ("||", "true", "false"),
        ("&&", "true", "false"),
    ] {
        let src = format!("let x = {}{last}", format!("{operand} {op} ").repeat(100_000));
        let err = parse_program(&src).expect_err("a 100,000-term chain must be rejected");
        assert!(
            err.message.contains("nesting exceeds the supported depth (64)"),
            "{op}: unexpected diagnostic: {}",
            err.message
        );
    }
    // Chains the checker accepts still parse.
    parse_program(&format!("let x = {}[]", "1 :: ".repeat(47))).expect("47-term `::` chain");
}

#[test]
fn moderate_nesting_still_parses() {
    let prog = parse_program(&parens(25)).expect("25 levels are within the guard");
    assert_eq!(prog.decls.len(), 1);
}

#[test]
fn printer_elides_instead_of_overflowing_on_a_programmatic_ast() {
    // The parser caps nesting well below the printer's cutoff, so only a
    // hand-built AST can reach it; the printer must stay total anyway.
    let mut e = Expr::synth(ExprKind::Lit(Lit::Int(1)), Span::DUMMY);
    for _ in 0..10_000 {
        e = Expr::synth(ExprKind::UnOp(UnOp::Neg, Arc::new(e)), Span::DUMMY);
    }
    let rendered = expr_to_string(&e);
    assert!(rendered.contains("[[...]]"), "the deep tail must be elided as a hole");
    assert!(rendered.starts_with('-'), "the shallow prefix still prints");
}
