//! Declaration id bounds are exact: on every shipped program, and on
//! variants built by every kind of edit, `validate` passes, lookups by
//! id agree with a brute-force walk for every id, and `edit::apply`
//! shares every declaration that holds no target.

use seminal_ml::ast::{Expr, ExprKind, NodeId, Pat, Program};
use seminal_ml::edit::{self, app_chain, build_app, validate, Edit};
use seminal_ml::parser::parse_program;
use seminal_ml::span::Span;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// Every `samples/*.ml`, every testkit golden source and every corpus
/// template, as `(name, source)`.
fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = Vec::new();
    for dir in ["samples", "crates/testkit/golden"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ml"))
            .collect();
        files.sort();
        for path in files {
            out.push((path.display().to_string(), std::fs::read_to_string(&path).unwrap()));
        }
    }
    for t in seminal_corpus::templates::TEMPLATES {
        out.push((format!("template {}", t.name), t.source.to_owned()));
    }
    out
}

/// `validate` passes, and `find_expr`/`decl_of` equal a brute-force
/// walk over every expression for every id below the counter and for
/// `NodeId::SYNTH`.
fn check_lookups(prog: &Program, what: &str) {
    validate(prog).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut brute: HashMap<NodeId, (usize, *const Expr)> = HashMap::new();
    for (i, d) in prog.decls.iter().enumerate() {
        d.for_each_expr(&mut |e| {
            brute.insert(e.id, (i, e as *const Expr));
        });
    }
    for id in (0..prog.next_id).map(NodeId).chain([NodeId::SYNTH]) {
        let want = brute.get(&id).copied();
        let found = prog.find_expr(id).map(|e| e as *const Expr);
        assert_eq!(found, want.map(|(_, e)| e), "{what}: find_expr({id})");
        assert_eq!(prog.decl_of(id), want.map(|(i, _)| i), "{what}: decl_of({id})");
    }
}

/// Applies `edit`, checks the variant's lookups, and checks that
/// exactly the declarations holding one of `targets` were rebuilt:
/// every other one comes back as the same `Arc`.
fn check_edit(prog: &Program, edit: &Edit, targets: &[NodeId], what: &str) {
    let variant = edit::apply(prog, edit);
    check_lookups(&variant, what);
    for (i, (base, new)) in prog.decls.iter().zip(&variant.decls).enumerate() {
        let mut holds = false;
        base.for_each_id(&mut |id| holds |= targets.contains(&id));
        assert_eq!(
            !holds,
            Arc::ptr_eq(base, new),
            "{what}: declaration {i} (holds a target: {holds})"
        );
    }
}

/// A synthesized replacement with a nested pattern: `adapt (fun _ -> [[...]])`.
fn synthesized() -> Expr {
    let fun = Expr::synth(
        ExprKind::Fun(vec![Pat::wild(Span::DUMMY)], Box::new(Expr::hole(Span::DUMMY))),
        Span::DUMMY,
    );
    Expr::synth(
        ExprKind::App(Box::new(Expr::var("adapt", Span::DUMMY)), Box::new(fun)),
        Span::DUMMY,
    )
}

/// Expression targets per program: every expression of every shipped
/// program but the deadline stress sample.
const MAX_TARGETS: usize = 100;

#[test]
fn bounds_agree_with_brute_force_after_every_edit_kind() {
    let mut variants = 0usize;
    for (name, source) in sources() {
        let prog = parse_program(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_lookups(&prog, &name);

        let mut exprs = Vec::new();
        let mut swaps = Vec::new();
        for d in &prog.decls {
            d.for_each_expr(&mut |e| {
                exprs.push(e.id);
                let (head, args) = app_chain(e);
                if args.len() >= 2 {
                    let mut swapped: Vec<Expr> = args.into_iter().cloned().collect();
                    swapped.swap(0, 1);
                    swaps.push((e.id, build_app(head.clone(), swapped)));
                }
            });
        }
        let expr_ids: HashSet<NodeId> = exprs.iter().copied().collect();
        let decl_ids: HashSet<NodeId> = prog.decls.iter().map(|d| d.id()).collect();
        let mut pats = Vec::new();
        for d in &prog.decls {
            d.for_each_id(&mut |id| {
                if !expr_ids.contains(&id) && !decl_ids.contains(&id) {
                    pats.push(id);
                }
            });
        }

        // Each variant costs a lookup per id, so a program far larger
        // than the rest (the 674-expression deadline stress sample) gets
        // evenly spaced targets, first and last included.
        let stride = exprs.len().div_ceil(MAX_TARGETS);
        let targets: Vec<NodeId> = exprs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| i % stride == 0 || i + 1 == exprs.len())
            .map(|(_, id)| id)
            .collect();
        for &id in &targets {
            check_edit(&prog, &Edit::new().remove_expr(id), &[id], &format!("{name}: remove {id}"));
            let edit = Edit::new().replace_expr(id, synthesized());
            check_edit(&prog, &edit, &[id], &format!("{name}: synthesize at {id}"));
        }
        for (id, swapped) in swaps {
            let edit = Edit::new().replace_expr(id, swapped);
            check_edit(&prog, &edit, &[id], &format!("{name}: swap arguments at {id}"));
        }
        for &id in &pats {
            let edit = Edit::new().replace_pat(id, Pat::wild(Span::DUMMY));
            check_edit(&prog, &edit, &[id], &format!("{name}: wildcard pattern {id}"));
        }
        variants += 2 * targets.len() + pats.len();
    }
    assert!(variants > 1000, "only {variants} variants checked");
}
