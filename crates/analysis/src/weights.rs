//! The soft-clause weight model of the MCS backend.
//!
//! MaxSAT-style localization needs a cost for blaming each constraint:
//! correction subsets are ranked by the total weight of what they ask
//! the programmer to change, so *low*-weight constraints are the ones
//! the solver prefers to give up. Weight here means "reluctance to
//! blame", composed from three signals over the AST node that induced
//! the constraint (the innermost node whose span contains the
//! constraint's span):
//!
//! * **AST size** — blaming a large subtree proposes a drastic rewrite,
//!   so weight grows with [`seminal_ml::ast::Expr::size`];
//! * **nesting depth** — shallow nodes carry a program's structure while
//!   deeply nested leaves are where typos live, so weight *falls* with
//!   depth (a bounded shallowness bonus);
//! * **syntactic-class prior** — literals and variables are cheap,
//!   habitual edits; binders and whole `match`es are not.
//!
//! Constraints whose span maps to no node (synthesized positions) get a
//! neutral default; empty-span constraints never reach the weight model
//! at all — the lowering classifies them as hard clauses.

use seminal_ml::ast::{DeclKind, Expr, ExprKind, Pat, Program};
use seminal_ml::span::Span;
use seminal_typeck::record::ConstraintTrace;

/// Depth at which the shallowness bonus bottoms out.
const DEPTH_CEILING: u64 = 12;
/// Weight of a constraint whose span maps to no AST node.
const DEFAULT_WEIGHT: u64 = 8;

/// One attributable AST position: the data the weight model reads.
#[derive(Debug, Clone, Copy)]
struct Site {
    span: Span,
    size: u64,
    depth: u64,
    prior: u64,
}

/// Syntactic-class prior of an expression: the habitual-edit cost of
/// blaming this kind of node.
fn expr_prior(kind: &ExprKind) -> u64 {
    match kind {
        ExprKind::Lit(_) => 1,
        ExprKind::Var(_) => 2,
        ExprKind::UnOp(..) | ExprKind::BinOp(..) => 3,
        ExprKind::App(..) | ExprKind::Tuple(_) | ExprKind::List(_) => 4,
        ExprKind::If(..) | ExprKind::Seq(..) => 6,
        ExprKind::Match(..) | ExprKind::Try(..) => 7,
        ExprKind::Fun(..) | ExprKind::Let { .. } => 8,
        _ => 4,
    }
}

fn push_expr_sites(e: &Expr, depth: u64, out: &mut Vec<Site>) {
    if !e.span.is_empty() {
        out.push(Site { span: e.span, size: e.size() as u64, depth, prior: expr_prior(&e.kind) });
    }
    let mut children: Vec<&Expr> = Vec::new();
    e.for_each_child(&mut |c| children.push(c));
    for c in children {
        push_expr_sites(c, depth + 1, out);
    }
}

fn push_pat_sites(p: &Pat, depth: u64, out: &mut Vec<Site>) {
    p.walk(&mut |q| {
        if !q.span.is_empty() {
            // Patterns are binder positions: cheap to rename, costly to
            // restructure — a flat prior sits between Var and App.
            out.push(Site { span: q.span, size: q.size() as u64, depth, prior: 3 });
        }
    });
}

/// Collects every attributable AST position of the program.
fn collect_sites(prog: &Program) -> Vec<Site> {
    let mut sites = Vec::new();
    for decl in &prog.decls {
        match decl.kind() {
            DeclKind::Let { bindings, .. } => {
                for b in bindings {
                    push_pat_sites(&b.pat, 0, &mut sites);
                    for p in &b.params {
                        push_pat_sites(p, 1, &mut sites);
                    }
                    push_expr_sites(&b.body, 1, &mut sites);
                }
            }
            DeclKind::Expr(e) => push_expr_sites(e, 0, &mut sites),
            _ => {}
        }
    }
    sites
}

/// Computes one weight per recorded constraint, aligned with
/// [`ConstraintTrace::constraints`]. Deterministic: sites are scanned in
/// source order and ties resolve to the smaller (innermost) node.
pub fn constraint_weights(prog: &Program, trace: &ConstraintTrace) -> Vec<u64> {
    let sites = collect_sites(prog);
    trace
        .constraints
        .iter()
        .map(|c| {
            if c.span.is_empty() {
                return DEFAULT_WEIGHT;
            }
            // Innermost enclosing node: smallest containing span, deepest
            // on size ties (a node and its same-span single child).
            let best = sites
                .iter()
                .filter(|s| s.span.contains(c.span))
                .min_by_key(|s| (s.span.end - s.span.start, std::cmp::Reverse(s.depth)));
            match best {
                Some(s) => (s.size + DEPTH_CEILING.saturating_sub(s.depth) + s.prior).max(1),
                None => DEFAULT_WEIGHT,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;
    use seminal_typeck::trace_program;

    fn weights_for(src: &str) -> (ConstraintTrace, Vec<u64>) {
        let prog = parse_program(src).unwrap();
        let trace = trace_program(&prog);
        let w = constraint_weights(&prog, &trace);
        (trace, w)
    }

    #[test]
    fn every_constraint_gets_a_positive_weight() {
        let (trace, w) = weights_for("let f g = (g 1) + (g true)");
        assert_eq!(w.len(), trace.constraints.len());
        assert!(!w.is_empty());
        assert!(w.iter().all(|&x| x >= 1));
    }

    #[test]
    fn leaf_literals_weigh_less_than_structural_nodes() {
        // Check-mode inference pushes demands to the leaves, so to probe
        // the attribution of a structural span we build the trace by
        // hand: one constraint on the `false` leaf, one on the whole
        // `if` expression. Blaming the leaf must be cheaper — same
        // depth, but the `if` is larger and carries a heavier
        // syntactic-class prior.
        use seminal_ml::span::Span;
        use seminal_typeck::{Constraint, ConstraintTrace, Ty};
        let src = "let x = (if true then 1 else 2) + false";
        let prog = parse_program(src).unwrap();
        let if_span = Span::new(9, 30);
        let lit_span = Span::new(34, 39);
        assert_eq!(if_span.text(src), "if true then 1 else 2");
        assert_eq!(lit_span.text(src), "false");
        let demand = |span| Constraint { span, found: Ty::bool(), expected: Ty::int() };
        let trace = ConstraintTrace {
            constraints: vec![demand(lit_span), demand(if_span)],
            num_vars: 0,
            result: Ok(()),
        };
        let w = constraint_weights(&prog, &trace);
        assert!(w[0] < w[1], "literal {} !< if {}", w[0], w[1]);
    }

    #[test]
    fn weights_are_deterministic() {
        let (_, a) = weights_for("let f g = (g 1) + (g true)");
        let (_, b) = weights_for("let f g = (g 1) + (g true)");
        assert_eq!(a, b);
    }
}
