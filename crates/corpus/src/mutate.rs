//! Error injection with ground truth.
//!
//! Each mutation operator corresponds to an error class the paper reports
//! seeing in student files (argument swaps, tupled-vs-curried confusion,
//! missing/extra arguments, int/float operator mixups, `[a, b]` for
//! `[a; b]`, misspelled names, missing `rec`, …). Applying one records a
//! [`GroundTruth`] — the fault's structural address, final-source span,
//! and the correct fragment — which lets the evaluation judge messages
//! *mechanically* where the paper judged by hand (DESIGN.md §5).

use crate::path::{expr_at_path, path_of_expr, NodePath};
use seminal_ml::ast::*;
use seminal_ml::edit;
use seminal_ml::parser::parse_program;
use seminal_ml::pretty::{expr_to_string, program_to_string};
use seminal_ml::span::Span;
use seminal_obs::SplitMix64;
use seminal_typeck::check_program;
use std::sync::Arc;

/// The error classes the mutator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Swap two arguments of a call (Figure 8).
    SwapArgs,
    /// Turn curried parameters into one tuple parameter (Figure 2).
    TupleParams,
    /// Turn a tuple parameter into curried parameters.
    CurryParams,
    /// Drop an argument from a call (Figure 9's class).
    DropArg,
    /// Duplicate an argument of a call.
    ExtraArg,
    /// Flip an arithmetic operator between int and float forms.
    IntFloatOp,
    /// Use `+` where `^` was needed.
    PlusForConcat,
    /// Write `[a, b, c]` for `[a; b; c]` (§5.3).
    ListCommas,
    /// Misspell a variable (the `print`/`print_string` scenario, §3.3).
    UnboundVar,
    /// Forget `rec` on a recursive declaration.
    DropRec,
    /// Confuse `::` and `@`.
    ConsAppend,
    /// Replace a literal with one of another type.
    WrongLiteral,
    /// Write `=` where `:=` was needed.
    EqAssign,
    /// Forget the `()` argument of a thunk call (`pop ()` → `pop`).
    MissingUnitArg,
    /// Write `:=` where `<-` was needed on a mutable record field
    /// (Figure 3's reference-update vs field-update row).
    RefForField,
}

/// All mutation kinds, in a stable order.
pub const ALL_KINDS: &[MutationKind] = &[
    MutationKind::SwapArgs,
    MutationKind::TupleParams,
    MutationKind::CurryParams,
    MutationKind::DropArg,
    MutationKind::ExtraArg,
    MutationKind::IntFloatOp,
    MutationKind::PlusForConcat,
    MutationKind::ListCommas,
    MutationKind::UnboundVar,
    MutationKind::DropRec,
    MutationKind::ConsAppend,
    MutationKind::WrongLiteral,
    MutationKind::EqAssign,
    MutationKind::MissingUnitArg,
    MutationKind::RefForField,
];

impl MutationKind {
    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MutationKind::SwapArgs => "swap-args",
            MutationKind::TupleParams => "tuple-params",
            MutationKind::CurryParams => "curry-params",
            MutationKind::DropArg => "drop-arg",
            MutationKind::ExtraArg => "extra-arg",
            MutationKind::IntFloatOp => "int-float-op",
            MutationKind::PlusForConcat => "plus-for-concat",
            MutationKind::ListCommas => "list-commas",
            MutationKind::UnboundVar => "unbound-var",
            MutationKind::DropRec => "drop-rec",
            MutationKind::ConsAppend => "cons-append",
            MutationKind::WrongLiteral => "wrong-literal",
            MutationKind::EqAssign => "eq-assign",
            MutationKind::MissingUnitArg => "missing-unit-arg",
            MutationKind::RefForField => "ref-for-field",
        }
    }
}

/// Where and what the injected fault is, in the *final* mutant source.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    pub kind: MutationKind,
    /// Structural address of the faulty node (`None` for declaration-level
    /// faults such as a dropped `rec`).
    pub path: Option<NodePath>,
    /// Containing declaration index.
    pub decl: usize,
    /// Span of the faulty region in the mutant source.
    pub span: Span,
    /// The correct fragment (pretty-printed) that a perfect fix restores.
    pub original: String,
    /// The faulty fragment as it appears in the mutant.
    pub mutated: String,
}

/// An ill-typed corpus program with known faults.
#[derive(Debug, Clone)]
pub struct Mutant {
    pub source: String,
    pub truths: Vec<GroundTruth>,
}

/// Partial ground truth carried between application and final rendering.
struct PendingTruth {
    kind: MutationKind,
    path: Option<NodePath>,
    decl: usize,
    original: String,
    mutated: String,
}

/// Applies `errors` independent mutations to `template_src`, retrying
/// kinds and sites until the result fails to type-check. Multi-error
/// mutants place every fault **within the same declaration** at disjoint
/// subtrees — the situation the paper's triage exists for (§2.4; faults
/// in *different* declarations are already separated by the prefix
/// search). Returns `None` if no such mutant could be built.
pub fn mutate(
    template_src: &str,
    allowed: &[MutationKind],
    errors: usize,
    rng: &mut SplitMix64,
) -> Option<Mutant> {
    let pristine = parse_program(template_src).ok()?;
    // Declaration-level faults cannot coexist with a second fault.
    let usable: Vec<MutationKind> = if errors > 1 {
        allowed.iter().copied().filter(|k| *k != MutationKind::DropRec).collect()
    } else {
        allowed.to_vec()
    };
    if usable.is_empty() {
        return None;
    }

    let mut prog = pristine.clone();
    let mut pending: Vec<PendingTruth> = Vec::new();
    for _restart in 0..10 {
        prog = pristine.clone();
        pending.clear();
        let mut attempts = 0;
        while pending.len() < errors && attempts < 80 {
            attempts += 1;
            let kind = usable[rng.random_range(0..usable.len())];
            let Some((mutated_prog, truth)) = apply_one(&prog, kind, rng) else {
                continue;
            };
            if let Some(first) = pending.first() {
                // Same declaration, disjoint subtrees.
                if truth.decl != first.decl {
                    continue;
                }
                let Some(path) = &truth.path else { continue };
                if pending.iter().any(|p| p.path.as_ref().is_none_or(|q| q.overlaps(path))) {
                    continue;
                }
            }
            if check_program(&mutated_prog).is_ok() {
                continue; // type-preserving change; find another site
            }
            pending.push(truth);
            prog = mutated_prog;
        }
        if pending.len() == errors {
            break;
        }
    }
    if pending.len() < errors {
        return None;
    }

    // Render and reparse so spans refer to the published source.
    let source = program_to_string(&prog);
    let reparsed = parse_program(&source).ok()?;
    if check_program(&reparsed).is_ok() {
        return None;
    }
    let truths = pending
        .into_iter()
        .map(|p| {
            let span = match &p.path {
                Some(path) => expr_at_path(&reparsed, path).map_or(Span::DUMMY, |e| e.span),
                None => reparsed.decls.get(p.decl).map_or(Span::DUMMY, |d| d.span()),
            };
            GroundTruth {
                kind: p.kind,
                path: p.path,
                decl: p.decl,
                span,
                original: p.original,
                mutated: p.mutated,
            }
        })
        .collect();
    Some(Mutant { source, truths })
}

/// Applies a chain of up to `steps` raw mutations in sequence, each at a
/// random applicable site, **without** [`mutate`]'s ill-typed guarantee:
/// later links can cancel earlier ones out (an operator flipped twice)
/// or land on type-preserving edits, so the result may still type-check.
/// This is the adversarial extension point the fuzzing harness builds on
/// — it wants exactly the programs `mutate` retries away, and counting
/// those *vacuous* cases is the harness's job, not this function's job
/// to prevent.
///
/// Ground truths are recorded per link and resolved against the chain's
/// *final* rendering; a link whose site was destroyed by a later link
/// keeps its kind but degrades its span to `Span::DUMMY`.
///
/// Returns `None` when the template does not parse or no link could be
/// applied at all.
pub fn mutate_chain(
    template_src: &str,
    allowed: &[MutationKind],
    steps: usize,
    rng: &mut SplitMix64,
) -> Option<Mutant> {
    if allowed.is_empty() || steps == 0 {
        return None;
    }
    let mut prog = parse_program(template_src).ok()?;
    let mut pending: Vec<PendingTruth> = Vec::new();
    for _link in 0..steps {
        let mut applied = false;
        for _attempt in 0..20 {
            let kind = allowed[rng.random_range(0..allowed.len())];
            if let Some((mutated, truth)) = apply_one(&prog, kind, rng) {
                prog = mutated;
                pending.push(truth);
                applied = true;
                break;
            }
        }
        if !applied {
            break;
        }
    }
    if pending.is_empty() {
        return None;
    }
    let source = program_to_string(&prog);
    let reparsed = parse_program(&source).ok()?;
    let truths = pending
        .into_iter()
        .map(|p| {
            let span = match &p.path {
                Some(path) => expr_at_path(&reparsed, path).map_or(Span::DUMMY, |e| e.span),
                None => reparsed.decls.get(p.decl).map_or(Span::DUMMY, |d| d.span()),
            };
            GroundTruth {
                kind: p.kind,
                path: p.path,
                decl: p.decl,
                span,
                original: p.original,
                mutated: p.mutated,
            }
        })
        .collect();
    Some(Mutant { source, truths })
}

/// Applies one mutation of the given kind at a random applicable site.
fn apply_one(
    prog: &Program,
    kind: MutationKind,
    rng: &mut SplitMix64,
) -> Option<(Program, PendingTruth)> {
    match kind {
        MutationKind::DropRec => {
            let mut candidates = Vec::new();
            for (i, d) in prog.decls.iter().enumerate() {
                if let DeclKind::Let { rec: true, .. } = d.kind() {
                    candidates.push(i);
                }
            }
            let idx = *pick(&candidates, rng)?;
            let mut variant = prog.clone();
            std::sync::Arc::make_mut(&mut variant.decls[idx]).update_kind(|kind| {
                if let DeclKind::Let { rec, .. } = kind {
                    *rec = false;
                }
            });
            Some((
                variant,
                PendingTruth {
                    kind,
                    path: None,
                    decl: idx,
                    original: "let rec".to_owned(),
                    mutated: "let".to_owned(),
                },
            ))
        }
        _ => {
            let sites = expr_sites(prog, kind);
            let (target, replacement) = pick(&sites, rng)?.clone();
            let node = prog.find_expr(target)?;
            let decl = prog.decl_of(target)?;
            let path = path_of_expr(prog, target);
            let original = expr_to_string(node);
            let mutated = expr_to_string(&replacement);
            let variant = edit::replace_expr(prog, target, &replacement);
            Some((variant, PendingTruth { kind, path, decl, original, mutated }))
        }
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut SplitMix64) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.random_range(0..items.len())])
    }
}

/// Finds `(target, replacement)` pairs for an expression-level mutation.
fn expr_sites(prog: &Program, kind: MutationKind) -> Vec<(NodeId, Expr)> {
    let mut sites = Vec::new();
    for decl in &prog.decls {
        decl.for_each_expr(&mut |e| collect_sites(e, kind, &mut sites));
    }
    sites
}

fn collect_sites(e: &Expr, kind: MutationKind, out: &mut Vec<(NodeId, Expr)>) {
    use MutationKind::*;
    match kind {
        SwapArgs => {
            if top_of_chain_args(e).len() >= 2 {
                let (head, args) = edit::app_chain(e);
                let head = Arc::new(head.clone());
                for i in 0..args.len() {
                    for j in (i + 1)..args.len() {
                        let mut swapped: Vec<Arc<Expr>> = args.iter().map(|&a| a.clone()).collect();
                        swapped.swap(i, j);
                        out.push((e.id, edit::build_app(head.clone(), swapped)));
                    }
                }
            }
        }
        TupleParams => {
            if let ExprKind::Fun(params, body) = &e.kind {
                if params.len() >= 2 {
                    out.push((
                        e.id,
                        Expr::synth(
                            ExprKind::Fun(
                                vec![Pat::synth(PatKind::Tuple(params.clone()), Span::DUMMY)],
                                body.clone(),
                            ),
                            Span::DUMMY,
                        ),
                    ));
                }
            }
        }
        CurryParams => {
            if let ExprKind::Fun(params, body) = &e.kind {
                if params.len() == 1 {
                    if let PatKind::Tuple(parts) = &params[0].kind {
                        out.push((
                            e.id,
                            Expr::synth(ExprKind::Fun(parts.clone(), body.clone()), Span::DUMMY),
                        ));
                    }
                }
            }
        }
        DropArg => {
            let args = top_of_chain_args(e);
            if args.len() >= 2 {
                let (head, args) = edit::app_chain(e);
                let head = Arc::new(head.clone());
                for i in 0..args.len() {
                    let mut fewer: Vec<Arc<Expr>> = args.iter().map(|&a| a.clone()).collect();
                    fewer.remove(i);
                    out.push((e.id, edit::build_app(head.clone(), fewer)));
                }
            }
        }
        ExtraArg => {
            let args = top_of_chain_args(e);
            if !args.is_empty() {
                let (head, args) = edit::app_chain(e);
                let mut more: Vec<Arc<Expr>> = args.iter().map(|&a| a.clone()).collect();
                more.push(args[args.len() - 1].clone());
                out.push((e.id, edit::build_app(Arc::new(head.clone()), more)));
            }
        }
        IntFloatOp => {
            if let ExprKind::BinOp(op, l, r) = &e.kind {
                use seminal_ml::ast::BinOp::*;
                let flipped = match op {
                    Add => Some(AddF),
                    Sub => Some(SubF),
                    Mul => Some(MulF),
                    Div => Some(DivF),
                    AddF => Some(Add),
                    SubF => Some(Sub),
                    MulF => Some(Mul),
                    DivF => Some(Div),
                    _ => None,
                };
                if let Some(f) = flipped {
                    out.push((
                        e.id,
                        Expr::synth(ExprKind::BinOp(f, l.clone(), r.clone()), Span::DUMMY),
                    ));
                }
            }
        }
        PlusForConcat => {
            if let ExprKind::BinOp(BinOp::Concat, l, r) = &e.kind {
                out.push((
                    e.id,
                    Expr::synth(ExprKind::BinOp(BinOp::Add, l.clone(), r.clone()), Span::DUMMY),
                ));
            }
        }
        ListCommas => {
            if let ExprKind::List(items) = &e.kind {
                if items.len() >= 2 {
                    out.push((
                        e.id,
                        Expr::synth(
                            ExprKind::List(vec![Arc::new(Expr::synth(
                                ExprKind::Tuple(items.clone()),
                                Span::DUMMY,
                            ))]),
                            Span::DUMMY,
                        ),
                    ));
                }
            }
        }
        UnboundVar => {
            if let ExprKind::Var(name) = &e.kind {
                // Chop the name so it resembles the `print`/`print_string`
                // confusion; short names are left alone.
                if name.len() >= 6 && !name.contains('.') {
                    let shorter: String = name.chars().take(name.len() - 3).collect();
                    out.push((e.id, Expr::var(shorter, Span::DUMMY)));
                }
            }
        }
        ConsAppend => {
            if let ExprKind::BinOp(op @ (BinOp::Cons | BinOp::Append), l, r) = &e.kind {
                let flipped = if *op == BinOp::Cons { BinOp::Append } else { BinOp::Cons };
                out.push((
                    e.id,
                    Expr::synth(ExprKind::BinOp(flipped, l.clone(), r.clone()), Span::DUMMY),
                ));
            }
        }
        WrongLiteral => match &e.kind {
            ExprKind::Lit(Lit::Int(n)) => {
                out.push((e.id, Expr::synth(ExprKind::Lit(Lit::Str(n.to_string())), Span::DUMMY)));
            }
            ExprKind::Lit(Lit::Str(s)) if !s.is_empty() => {
                out.push((e.id, Expr::synth(ExprKind::Lit(Lit::Int(s.len() as i64)), Span::DUMMY)));
            }
            _ => {}
        },
        EqAssign => {
            if let ExprKind::BinOp(BinOp::Assign, l, r) = &e.kind {
                out.push((
                    e.id,
                    Expr::synth(ExprKind::BinOp(BinOp::Eq, l.clone(), r.clone()), Span::DUMMY),
                ));
            }
        }
        MissingUnitArg => {
            if let ExprKind::App(f, a) = &e.kind {
                if matches!(a.kind, ExprKind::Lit(Lit::Unit)) {
                    out.push((e.id, (**f).clone()));
                }
            }
        }
        RefForField => {
            if let ExprKind::SetField(obj, fname, value) = &e.kind {
                out.push((
                    e.id,
                    Expr::synth(
                        ExprKind::BinOp(
                            BinOp::Assign,
                            Arc::new(Expr::synth(
                                ExprKind::Field(obj.clone(), fname.clone()),
                                Span::DUMMY,
                            )),
                            value.clone(),
                        ),
                        Span::DUMMY,
                    ),
                ));
            }
        }
        DropRec => {}
    }
    // Recursion happens in `expr_sites` via `for_each_expr`, which already
    // visits every node; nothing to do here.
}

/// Arguments of an application chain if `e` heads one (over-approximates
/// "top of chain": nested heads also match, which only adds sites).
fn top_of_chain_args(e: &Expr) -> Vec<&Arc<Expr>> {
    match &e.kind {
        ExprKind::App(_, _) => edit::app_chain(e).1,
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TEMPLATES;

    fn rng(seed: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(seed)
    }

    #[test]
    fn single_error_mutants_fail_to_type_check() {
        let mut r = rng(7);
        let mut made = 0;
        for t in TEMPLATES {
            if let Some(m) = mutate(t.source, ALL_KINDS, 1, &mut r) {
                made += 1;
                let prog = parse_program(&m.source).unwrap();
                assert!(check_program(&prog).is_err(), "{} mutant typechecks", t.name);
                assert_eq!(m.truths.len(), 1);
            }
        }
        assert!(made >= TEMPLATES.len() / 2, "only {made} mutants built");
    }

    #[test]
    fn mutation_chains_are_deterministic_and_parse() {
        for t in TEMPLATES.iter().take(6) {
            let a = mutate_chain(t.source, ALL_KINDS, 3, &mut rng(91));
            let b = mutate_chain(t.source, ALL_KINDS, 3, &mut rng(91));
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.source, b.source, "{}: chain not seed-deterministic", t.name);
                    assert!(parse_program(&a.source).is_ok(), "{}: chain output parses", t.name);
                    assert!(!a.truths.is_empty() && a.truths.len() <= 3, "{}", t.name);
                }
                (None, None) => {}
                _ => panic!("{}: chain determinism broken (Some vs None)", t.name),
            }
        }
    }

    #[test]
    fn mutation_chains_can_be_vacuous() {
        // Unlike `mutate`, chains give no ill-typed guarantee: links can
        // cancel out (an operator flipped twice) or land on edits the
        // checker absorbs. The fuzz harness counts these as
        // `fuzz.vacuous_cases`; this test pins down that they exist.
        let mut vacuous = 0;
        for seed in 0..400u64 {
            for t in TEMPLATES.iter().take(4) {
                if let Some(m) = mutate_chain(t.source, ALL_KINDS, 2, &mut rng(seed)) {
                    let prog = parse_program(&m.source).unwrap();
                    if check_program(&prog).is_ok() {
                        vacuous += 1;
                    }
                }
            }
        }
        assert!(vacuous > 0, "no vacuous chain in 1600 draws — guarantee changed?");
    }

    #[test]
    fn ground_truth_span_points_at_mutated_text() {
        let mut r = rng(11);
        let t = TEMPLATES.iter().find(|t| t.name == "map2_combine").unwrap();
        let m = mutate(t.source, &[MutationKind::TupleParams], 1, &mut r)
            .expect("tuple-params applies to map2 template");
        let truth = &m.truths[0];
        let text = truth.span.text(&m.source);
        assert!(
            text.trim_start_matches('(').starts_with("fun ("),
            "span should cover the tupled lambda, got `{text}`"
        );
        assert_eq!(truth.kind, MutationKind::TupleParams);
        assert!(truth.original.starts_with("fun "));
    }

    #[test]
    fn multi_error_mutants_share_a_decl_with_disjoint_sites() {
        let mut r = rng(23);
        let mut found = false;
        for t in TEMPLATES {
            if let Some(m) = mutate(t.source, ALL_KINDS, 2, &mut r) {
                found = true;
                assert_eq!(m.truths.len(), 2);
                // Same declaration (the triage scenario of §2.4) …
                assert_eq!(m.truths[0].decl, m.truths[1].decl, "{}", t.name);
                // … at disjoint subtrees.
                let (a, b) = (&m.truths[0].path, &m.truths[1].path);
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert!(!a.overlaps(b), "{}: overlapping fault sites", t.name);
            }
        }
        assert!(found, "no 2-error mutant could be built");
    }

    #[test]
    fn unbound_var_mutation_unbinds() {
        let mut r = rng(3);
        let t = TEMPLATES.iter().find(|t| t.name == "sum_len_rev").unwrap();
        let m = mutate(t.source, &[MutationKind::UnboundVar], 1, &mut r)
            .expect("some long name exists");
        let prog = parse_program(&m.source).unwrap();
        let err = check_program(&prog).unwrap_err();
        assert!(err.is_unbound(), "expected unbound error, got {err}");
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let t = TEMPLATES.iter().find(|t| t.name == "pipeline").unwrap();
        let a = mutate(t.source, ALL_KINDS, 1, &mut rng(99)).map(|m| m.source);
        let b = mutate(t.source, ALL_KINDS, 1, &mut rng(99)).map(|m| m.source);
        assert_eq!(a, b);
    }

    #[test]
    fn kind_labels_unique() {
        let mut labels: Vec<_> = ALL_KINDS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ALL_KINDS.len());
    }
}

#[cfg(test)]
mod applicability_tests {
    use super::*;
    use crate::templates::TEMPLATES;

    /// Every mutation kind must be applicable to (and actually break) at
    /// least one template — no dead injectors.
    #[test]
    fn every_kind_has_a_live_site() {
        for kind in ALL_KINDS {
            let mut hit = false;
            'templates: for t in TEMPLATES {
                for seed in 0..4 {
                    let mut rng = SplitMix64::seed_from_u64(seed);
                    if mutate(t.source, &[*kind], 1, &mut rng).is_some() {
                        hit = true;
                        break 'templates;
                    }
                }
            }
            assert!(hit, "mutation kind {} never applies", kind.label());
        }
    }
}
