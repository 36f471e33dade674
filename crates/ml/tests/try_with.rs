//! `try … with` across the pipeline: parse, print, edit.

use seminal_ml::ast::{DeclKind, ExprKind};
use seminal_ml::parser::{parse_expr, parse_program};
use seminal_ml::pretty::expr_to_string;

#[test]
fn parses_try_with() {
    let (e, _) = parse_expr("try List.assoc k env with Not_found -> 0").unwrap();
    match &e.kind {
        ExprKind::Try(body, arms) => {
            assert!(matches!(body.kind, ExprKind::App(_, _)));
            assert_eq!(arms.len(), 1);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn try_with_multiple_handlers() {
    let (e, _) =
        parse_expr("try f x with Not_found -> 0 | Failure msg -> String.length msg").unwrap();
    match &e.kind {
        ExprKind::Try(_, arms) => assert_eq!(arms.len(), 2),
        other => panic!("{other:?}"),
    }
}

#[test]
fn try_prints_and_reparses() {
    for src in [
        "try f x with Not_found -> 0",
        "try List.assoc k env with Not_found -> d | Failure m -> 0",
        "1 + (try f x with Not_found -> 0)",
    ] {
        let (e, _) = parse_expr(src).unwrap();
        let printed = expr_to_string(&e);
        let (e2, _) = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` does not reparse: {err}"));
        assert_eq!(printed, expr_to_string(&e2), "fixpoint failed for `{src}`");
    }
}

#[test]
fn try_in_program_decl() {
    let prog = parse_program(
        "let lookup k env = try List.assoc k env with Not_found -> 0\nlet v = lookup \"a\" [(\"a\", 1)]",
    )
    .unwrap();
    assert_eq!(prog.decls.len(), 2);
    match prog.decls[0].kind() {
        DeclKind::Let { bindings, .. } => {
            assert!(matches!(bindings[0].body.kind, ExprKind::Try(_, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn try_children_visited() {
    let (e, _) = parse_expr("try f x with Not_found -> g y").unwrap();
    let mut count = 0;
    e.walk(&mut |_| count += 1);
    // try + (f x: 3 nodes) + (g y: 3 nodes)
    assert_eq!(count, 7);
}

#[test]
fn try_node_editable() {
    use seminal_ml::edit;
    let prog = parse_program("let v = try f x with Not_found -> 0").unwrap();
    let mut target = None;
    prog.decls[0].for_each_expr(&mut |e| {
        if matches!(e.kind, ExprKind::Try(_, _)) {
            target = Some(e.id);
        }
    });
    let edited = edit::remove_expr(&prog, target.unwrap());
    assert_eq!(seminal_ml::pretty::program_to_string(&edited).trim(), "let v = [[...]]");
}

// ---------------------------------------------------------------------
// `when` guards
// ---------------------------------------------------------------------

#[test]
fn parses_when_guard() {
    let (e, _) = parse_expr("match n with x when x > 0 -> x | _ -> 0").unwrap();
    match &e.kind {
        ExprKind::Match(_, arms) => {
            assert!(arms[0].guard.is_some());
            assert!(arms[1].guard.is_none());
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn guard_prints_and_reparses() {
    for src in [
        "match n with x when x > 0 -> x | _ -> 0",
        "match p with (a, b) when a = b -> a | (a, _) -> a",
        "try f x with Failure m when String.length m > 0 -> 0",
    ] {
        let (e, _) = parse_expr(src).unwrap();
        let printed = expr_to_string(&e);
        let (e2, _) = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` does not reparse: {err}"));
        assert_eq!(printed, expr_to_string(&e2), "fixpoint failed for `{src}`");
    }
}

#[test]
fn guard_is_walked_as_child() {
    let (e, _) = parse_expr("match n with x when x > 0 -> x | _ -> 0").unwrap();
    let mut guards = 0;
    e.walk(&mut |node| {
        if matches!(node.kind, ExprKind::BinOp(seminal_ml::ast::BinOp::Gt, _, _)) {
            guards += 1;
        }
    });
    assert_eq!(guards, 1);
}

// ---------------------------------------------------------------------
// `function` sugar and operator sections
// ---------------------------------------------------------------------

#[test]
fn function_keyword_desugars_to_fun_match() {
    let (e, _) = parse_expr("function [] -> 0 | x :: _ -> x").unwrap();
    match &e.kind {
        ExprKind::Fun(params, body) => {
            assert_eq!(params.len(), 1);
            assert!(matches!(body.kind, ExprKind::Match(_, _)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn function_desugaring_prints_and_reparses() {
    let (e, _) = parse_expr("function 0 -> \"zero\" | _ -> \"more\"").unwrap();
    let printed = expr_to_string(&e);
    assert!(printed.starts_with("fun __fn_arg -> match __fn_arg with"));
    let (e2, _) = parse_expr(&printed).unwrap();
    assert_eq!(printed, expr_to_string(&e2));
}

#[test]
fn operator_sections_parse_as_vars() {
    let (e, _) = parse_expr("List.fold_left (+) 0 xs").unwrap();
    let mut found = false;
    e.walk(&mut |n| {
        if matches!(&n.kind, ExprKind::Var(name) if name == "+") {
            found = true;
        }
    });
    assert!(found);
}

#[test]
fn operator_sections_round_trip() {
    for src in ["List.fold_left (+) 0 xs", "List.sort (-) xs", "f (^) (@) (<=)"] {
        let (e, _) = parse_expr(src).unwrap();
        let printed = expr_to_string(&e);
        let (e2, _) = parse_expr(&printed).unwrap_or_else(|err| panic!("`{printed}`: {err}"));
        assert_eq!(printed, expr_to_string(&e2), "for `{src}`");
    }
}

#[test]
fn unit_still_parses_as_unit() {
    let (e, _) = parse_expr("f ()").unwrap();
    match &e.kind {
        ExprKind::App(_, a) => {
            assert!(matches!(a.kind, ExprKind::Lit(seminal_ml::ast::Lit::Unit)));
        }
        other => panic!("{other:?}"),
    }
}
