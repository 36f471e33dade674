//! Grammar matrix: operator precedence and associativity interactions,
//! checked through the printer fixpoint and explicit tree-shape asserts.

use seminal_ml::ast::{BinOp, ExprKind};
use seminal_ml::parser::parse_expr;
use seminal_ml::pretty::expr_to_string;

fn shape(src: &str) -> String {
    let (e, _) = parse_expr(src).unwrap_or_else(|err| panic!("parse `{src}`: {err}"));
    expr_to_string(&e)
}

fn top_op(src: &str) -> BinOp {
    let (e, _) = parse_expr(src).unwrap();
    match &e.kind {
        ExprKind::BinOp(op, _, _) => *op,
        other => panic!("expected binop at top of `{src}`, got {other:?}"),
    }
}

#[test]
fn precedence_ladder() {
    // Each line: the loosest operator must end up at the top of the tree.
    assert_eq!(top_op("a := b || c"), BinOp::Assign);
    assert_eq!(top_op("a || b && c"), BinOp::Or);
    assert_eq!(top_op("a && b = c"), BinOp::And);
    assert_eq!(top_op("a = b ^ c"), BinOp::Eq);
    assert_eq!(top_op("a ^ b :: c"), BinOp::Concat);
    assert_eq!(top_op("a :: b + c"), BinOp::Cons);
    assert_eq!(top_op("a + b * c"), BinOp::Add);
    assert_eq!(top_op("a * b"), BinOp::Mul);
}

#[test]
fn left_associative_chains() {
    assert_eq!(shape("a - b - c"), "a - b - c");
    let (e, _) = parse_expr("a - b - c").unwrap();
    // ((a - b) - c): left child is itself a Sub.
    match &e.kind {
        ExprKind::BinOp(BinOp::Sub, l, _) => {
            assert!(matches!(l.kind, ExprKind::BinOp(BinOp::Sub, _, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn right_associative_chains() {
    for (src, op) in [("a :: b :: c", BinOp::Cons), ("a ^ b ^ c", BinOp::Concat)] {
        let (e, _) = parse_expr(src).unwrap();
        match &e.kind {
            ExprKind::BinOp(o, _, r) if *o == op => {
                assert!(
                    matches!(&r.kind, ExprKind::BinOp(o2, _, _) if *o2 == op),
                    "`{src}` should nest right"
                );
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn application_binds_tighter_than_everything() {
    assert_eq!(shape("f a + g b"), "f a + g b");
    let (e, _) = parse_expr("f a + g b").unwrap();
    match &e.kind {
        ExprKind::BinOp(BinOp::Add, l, r) => {
            assert!(matches!(l.kind, ExprKind::App(_, _)));
            assert!(matches!(r.kind, ExprKind::App(_, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn unary_minus_between_mul_and_app() {
    // `-f x * 2` parses as `-(f x) * 2`? No: unary binds tighter than
    // `*`'s operand position, so `(- (f x)) * 2` requires parens — OCaml
    // parses `-f x * 2` as `- (f x * 2)`. We follow: unary at the mul
    // operand level takes the whole mul chain to its right? Ours: unary
    // parses its operand at unary level, so `-f x * 2` = `(-(f x)) * 2`.
    let printed = shape("-f x * 2");
    let (e2, _) = parse_expr(&printed).unwrap();
    assert_eq!(printed, expr_to_string(&e2));
}

#[test]
fn comparison_is_non_chaining_but_left() {
    // `a < b < c` parses as `(a < b) < c` (ill-typed later, but parses).
    let (e, _) = parse_expr("a < b < c").unwrap();
    match &e.kind {
        ExprKind::BinOp(BinOp::Lt, l, _) => {
            assert!(matches!(l.kind, ExprKind::BinOp(BinOp::Lt, _, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn tuples_nest_only_with_parens() {
    let (e, _) = parse_expr("1, 2, 3").unwrap();
    match &e.kind {
        ExprKind::Tuple(parts) => assert_eq!(parts.len(), 3),
        other => panic!("{other:?}"),
    }
    let (e, _) = parse_expr("1, (2, 3)").unwrap();
    match &e.kind {
        ExprKind::Tuple(parts) => {
            assert_eq!(parts.len(), 2);
            assert!(matches!(parts[1].kind, ExprKind::Tuple(_)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn sequence_of_tuples() {
    let (e, _) = parse_expr("a, b; c, d").unwrap();
    match &e.kind {
        ExprKind::Seq(l, r) => {
            assert!(matches!(l.kind, ExprKind::Tuple(_)));
            assert!(matches!(r.kind, ExprKind::Tuple(_)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn field_access_chains() {
    assert_eq!(shape("a.b"), "a.b");
    let printed = shape("f a.b");
    // Field binds tighter than application: `f (a.b)`.
    assert_eq!(printed, "f a.b");
    let (e, _) = parse_expr("f a.b").unwrap();
    match &e.kind {
        ExprKind::App(_, arg) => assert!(matches!(arg.kind, ExprKind::Field(_, _))),
        other => panic!("{other:?}"),
    }
}

#[test]
fn begin_end_is_parens() {
    assert_eq!(shape("begin 1 + 2 end * 3"), "(1 + 2) * 3");
}

#[test]
fn deeply_nested_mixed_expression_roundtrips() {
    let src = "let rec f x = match x with [] -> (fun y -> y) | h :: t when h > 0 -> (fun y -> h + f t y) | _ :: t -> f t in f [1; -2; 3] 0";
    let printed = shape(src);
    let (e2, _) = parse_expr(&printed).unwrap();
    assert_eq!(printed, expr_to_string(&e2));
}

#[test]
fn if_inside_operands() {
    assert_eq!(shape("(if b then 1 else 2) + 3"), "(if b then 1 else 2) + 3");
}

#[test]
fn assignment_right_associates() {
    let (e, _) = parse_expr("a := b := c").unwrap();
    match &e.kind {
        ExprKind::BinOp(BinOp::Assign, _, r) => {
            assert!(matches!(r.kind, ExprKind::BinOp(BinOp::Assign, _, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn list_of_functions_requires_parens() {
    let (e, _) = parse_expr("[(fun x -> x); (fun y -> y)]").unwrap();
    match &e.kind {
        ExprKind::List(items) => assert_eq!(items.len(), 2),
        other => panic!("{other:?}"),
    }
}

#[test]
fn record_update_inside_seq() {
    let printed = shape("p.x <- 1; p.y <- 2");
    let (e2, _) = parse_expr(&printed).unwrap();
    assert_eq!(printed, expr_to_string(&e2));
}

#[test]
fn adapt_parses_as_application_of_stdlib_adapt() {
    // `adapt` is an ordinary identifier in source; the synthesized
    // `Expr::Adapt` node prints identically.
    let (e, _) = parse_expr("adapt (f x)").unwrap();
    match &e.kind {
        ExprKind::App(f, _) => {
            assert!(matches!(&f.kind, ExprKind::Var(n) if n == "adapt"));
        }
        other => panic!("{other:?}"),
    }
}
