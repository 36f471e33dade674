//! Declaration id bounds are exact: on every shipped program, and on
//! variants built by every kind of edit, `validate` passes, lookups by
//! id agree with a brute-force walk for every id, and `edit::apply`
//! shares every declaration that holds no target and, inside an edited
//! declaration, every expression subtree that holds none.

use seminal_ml::ast::{Decl, DeclKind, Expr, ExprKind, NodeId, Pat, Program};
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

/// Whether `d` holds one of `targets`, its patterns included.
fn holds(d: &Decl, targets: &[NodeId]) -> bool {
    let mut hit = false;
    d.for_each_id(&mut |id| hit |= targets.contains(&id));
    hit
}

/// Whether the subtree `e` holds one of `targets`, its patterns
/// included. (The shallow clone shares `e`'s children.)
fn subtree_holds(e: &Expr, targets: &[NodeId]) -> bool {
    holds(&Decl::new(e.id, e.span, DeclKind::Expr(Arc::new(e.clone()))), targets)
}

/// The root expressions of a declaration.
fn roots(d: &Decl) -> Vec<&Arc<Expr>> {
    match d.kind() {
        DeclKind::Let { bindings, .. } => bindings.iter().map(|b| &b.body).collect(),
        DeclKind::Expr(e) => vec![e],
        DeclKind::Type(_) | DeclKind::Exception(_, _) => Vec::new(),
    }
}

/// Walks `base` and its rebuilt counterpart `new` together down to each
/// target: a subtree holding no target must be the base's own. A child
/// expression's address is its `Arc`'s, so comparing addresses is
/// `Arc::ptr_eq`.
fn check_shared(base: &Expr, new: &Expr, targets: &[NodeId], what: &str) {
    if targets.contains(&base.id) {
        return;
    }
    if !subtree_holds(base, targets) {
        assert!(std::ptr::eq(base, new), "{what}: subtree {} was copied", base.id);
        return;
    }
    assert!(!std::ptr::eq(base, new), "{what}: node {} holds a target but is shared", base.id);
    let (mut old_children, mut new_children) = (Vec::new(), Vec::new());
    base.for_each_child(&mut |c| old_children.push(c));
    new.for_each_child(&mut |c| new_children.push(c));
    assert_eq!(old_children.len(), new_children.len(), "{what}: node {} changed shape", base.id);
    for (old, new) in old_children.into_iter().zip(new_children) {
        check_shared(old, new, targets, what);
    }
}

/// Applies `edit`, checks the variant's lookups, and checks that
/// exactly the declarations holding one of `targets` were rebuilt, and
/// in those only the nodes on a path to a target: every other
/// declaration and expression subtree comes back as the same `Arc`.
fn check_edit(prog: &Program, edit: &Edit, targets: &[NodeId], what: &str) -> Program {
    let variant = edit::apply(prog, edit);
    check_lookups(&variant, what);
    for (i, (base, new)) in prog.decls.iter().zip(&variant.decls).enumerate() {
        let holds = holds(base, targets);
        assert_eq!(
            !holds,
            Arc::ptr_eq(base, new),
            "{what}: declaration {i} (holds a target: {holds})"
        );
        for (old, new) in roots(base).into_iter().zip(roots(new)) {
            assert_eq!(
                Arc::ptr_eq(old, new),
                !subtree_holds(old, targets),
                "{what}: root {} of declaration {i}",
                old.id
            );
            check_shared(old, new, targets, what);
        }
    }
    variant
}

/// A synthesized replacement with a nested pattern: `adapt (fun _ -> [[...]])`.
fn synthesized() -> Expr {
    let fun = Expr::synth(
        ExprKind::Fun(vec![Pat::wild(Span::DUMMY)], Arc::new(Expr::hole(Span::DUMMY))),
        Span::DUMMY,
    );
    Expr::synth(
        ExprKind::App(Arc::new(Expr::var("adapt", Span::DUMMY)), Arc::new(fun)),
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
                    let mut swapped: Vec<Arc<Expr>> = args.into_iter().cloned().collect();
                    swapped.swap(0, 1);
                    swaps.push((e.id, build_app(Arc::new(head.clone()), swapped.clone()), swapped));
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
        for (id, replacement, args) in swaps {
            let what = format!("{name}: swap arguments at {id}");
            let variant =
                check_edit(&prog, &Edit::new().replace_expr(id, replacement), &[id], &what);
            // The replacement's root takes the first fresh id; the
            // arguments it moves need no fresh id or span, so the variant
            // holds the base's own.
            let spliced = variant.find_expr(NodeId(prog.next_id)).expect("spliced root");
            let (_, moved) = app_chain(spliced);
            assert_eq!(moved.len(), args.len(), "{what}");
            for (new, old) in moved.into_iter().zip(&args) {
                assert!(Arc::ptr_eq(new, old), "{what}: argument {} was copied", old.id);
            }
        }
        for &id in &pats {
            let edit = Edit::new().replace_pat(id, Pat::wild(Span::DUMMY));
            check_edit(&prog, &edit, &[id], &format!("{name}: wildcard pattern {id}"));
        }
        variants += 2 * targets.len() + pats.len();
    }
    assert!(variants > 1000, "only {variants} variants checked");
}
