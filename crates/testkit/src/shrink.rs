//! Delta-debugging shrinker: minimize a failing program while
//! preserving the violated property.
//!
//! Greedy first-improvement over a fixed candidate set: drop one
//! declaration, hoist a child expression over its parent, drop one
//! `match` arm, or collapse a subtree to the literal `0`. Every
//! candidate strictly reduces the `(declarations, expression nodes)`
//! weight, so the loop terminates; when it reaches a fixpoint with
//! evaluations to spare, the result is 1-minimal — no single candidate
//! step preserves the property (the minimality contract the unit tests
//! assert).
//!
//! Every candidate is validated by rendering and **reparsing** before
//! the property runs: the shrunk program must survive the same
//! render→reparse pipeline the harness and the golden-corpus replay
//! feed it through, which is also what keeps minimized regressions
//! inside the parser's `MAX_DEPTH = 64` guard — a shrink step that
//! would push printed nesting past the guard simply fails to reparse
//! and is discarded.

use seminal_ml::ast::{Expr, ExprKind, Lit, Program};
use seminal_ml::edit;
use seminal_ml::parser::parse_program;
use seminal_ml::pretty::program_to_string;

/// The result of one shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized program (reparsed from its own rendering, so node
    /// ids and spans match `source`).
    pub program: Program,
    /// The rendering of `program` — what goes into a JSONL artifact or
    /// a golden-corpus file.
    pub source: String,
    /// Number of accepted shrink steps.
    pub steps: usize,
    /// Number of property evaluations spent.
    pub evals: usize,
    /// Whether the evaluation budget ran out before a fixpoint; when
    /// `false` the result is 1-minimal with respect to [`candidates`].
    pub exhausted: bool,
}

/// Shrink weight, ordered lexicographically: declaration count first
/// (dropping a whole declaration always counts as progress), expression
/// nodes second.
fn weight(prog: &Program) -> (usize, usize) {
    (prog.decls.len(), prog.size())
}

/// All viable one-step reductions of `prog`, strictly smaller by
/// `weight`, each already normalized through render→reparse (a
/// candidate that fails to reparse — e.g. one whose printed form would
/// exceed the parser's depth guard — is discarded here).
pub fn candidates(prog: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    let bound = weight(prog);
    let mut consider = |cand: Program| {
        let printed = program_to_string(&cand);
        if let Ok(reparsed) = parse_program(&printed) {
            if weight(&reparsed) < bound {
                out.push(reparsed);
            }
        }
    };

    // Drop one whole declaration (keep at least one).
    if prog.decls.len() > 1 {
        for i in 0..prog.decls.len() {
            let mut decls = prog.decls.clone();
            decls.remove(i);
            consider(Program { decls, next_id: prog.next_id });
        }
    }

    // Per-node reductions, in deterministic walk order.
    let mut ids = Vec::new();
    for d in &prog.decls {
        d.for_each_expr(&mut |e| ids.push(e.id));
    }
    for id in ids {
        let Some(node) = prog.find_expr(id) else { continue };
        // Hoist each direct child over its parent.
        let mut children = Vec::new();
        node.for_each_child(&mut |c| children.push(c));
        for child in children {
            consider(edit::replace_expr(prog, id, child));
        }
        // Drop one arm of a multi-arm match.
        if let ExprKind::Match(scrut, arms) = &node.kind {
            if arms.len() > 1 {
                for k in 0..arms.len() {
                    let mut kept = arms.clone();
                    kept.remove(k);
                    consider(edit::replace_expr(
                        prog,
                        id,
                        &Expr::synth(ExprKind::Match(scrut.clone(), kept), node.span),
                    ));
                }
            }
        }
        // Collapse a compound subtree to the literal `0`.
        if node.size() > 1 {
            consider(edit::replace_expr(
                prog,
                id,
                &Expr::synth(ExprKind::Lit(Lit::Int(0)), node.span),
            ));
        }
    }
    out
}

/// Minimizes `prog` while `property` stays true, spending at most
/// `max_evals` property evaluations. `property` must hold on `prog`
/// itself (the caller established the failure); it receives candidates
/// already normalized through render→reparse.
pub fn shrink(
    prog: &Program,
    max_evals: usize,
    property: &mut dyn FnMut(&Program) -> bool,
) -> ShrinkOutcome {
    let mut current = prog.clone();
    let mut steps = 0;
    let mut evals = 0;
    let mut exhausted = false;
    'progress: loop {
        for cand in candidates(&current) {
            if evals >= max_evals {
                exhausted = true;
                break 'progress;
            }
            evals += 1;
            if property(&cand) {
                current = cand;
                steps += 1;
                continue 'progress;
            }
        }
        break;
    }
    let source = program_to_string(&current);
    // Normalize: the returned program is the reparse of its own
    // rendering, so spans/ids agree with `source` (it reparses by
    // construction — every accepted candidate already did).
    let program = parse_program(&source).unwrap_or(current);
    ShrinkOutcome { program, source, steps, evals, exhausted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_typeck::check_program;

    fn ill_typed(p: &Program) -> bool {
        check_program(p).is_err()
    }

    #[test]
    fn shrinks_an_ill_typed_program_to_a_minimal_core() {
        let src = "let helper a = a * 2\n\
                   let noise = [1; 2; 3; 4]\n\
                   let bad n = if n > 0 then helper n else 1 + true\n\
                   let tail = \"unrelated\"\n";
        let prog = parse_program(src).unwrap();
        assert!(ill_typed(&prog));
        let out = shrink(&prog, 2000, &mut ill_typed);
        assert!(!out.exhausted, "budget too small for the test program");
        assert!(ill_typed(&out.program), "property lost during shrinking");
        assert_eq!(out.program.decls.len(), 1, "unrelated declarations must go:\n{}", out.source);
        assert!(
            out.program.size() <= 4,
            "expected a near-minimal core, got {} nodes:\n{}",
            out.program.size(),
            out.source
        );
    }

    #[test]
    fn fixpoint_is_one_minimal() {
        // Minimality contract: at the fixpoint, no single candidate
        // step preserves the property.
        let src = "let a = 1\nlet bad = [1; true; 2]\nlet b = a + 1\n";
        let prog = parse_program(src).unwrap();
        let out = shrink(&prog, 2000, &mut ill_typed);
        assert!(!out.exhausted);
        for cand in candidates(&out.program) {
            assert!(
                !ill_typed(&cand),
                "shrink result not 1-minimal: a further step keeps the property\n\
                 result:\n{}\nfurther:\n{}",
                out.source,
                program_to_string(&cand)
            );
        }
    }

    #[test]
    fn candidates_strictly_reduce_weight_and_reparse() {
        let src = "let f x = match x with 0 -> \"a\" | 1 -> 2 | _ -> \"c\"\nlet y = f 1\n";
        let prog = parse_program(src).unwrap();
        let w = (prog.decls.len(), prog.size());
        let cands = candidates(&prog);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!((c.decls.len(), c.size()) < w, "candidate did not shrink");
            let printed = program_to_string(c);
            assert!(parse_program(&printed).is_ok(), "candidate must reparse:\n{printed}");
        }
    }

    #[test]
    fn deeply_nested_failures_shrink_inside_the_parser_guard() {
        // A program near the parser's MAX_DEPTH: the minimized
        // regression must replay through parse_program without TooDeep
        // (satellite fix — every candidate is reparse-validated).
        let layers = 30;
        let mut body = String::from("true");
        for _ in 0..layers {
            body = format!("(1 + {body})");
        }
        let src = format!("let deep = {body}\n");
        let prog = parse_program(&src).unwrap();
        assert!(ill_typed(&prog));
        let out = shrink(&prog, 4000, &mut ill_typed);
        assert!(ill_typed(&out.program));
        assert!(
            parse_program(&out.source).is_ok(),
            "shrunk regression must reparse:\n{}",
            out.source
        );
        assert!(out.program.size() <= 4, "nesting not shrunk: {} nodes", out.program.size());
    }

    #[test]
    fn eval_budget_is_respected() {
        let src = "let a = 1\nlet b = 2\nlet bad = 1 + true\n";
        let prog = parse_program(src).unwrap();
        let out = shrink(&prog, 3, &mut ill_typed);
        assert!(out.evals <= 3);
    }
}
