//! Property-based tests on the system's core invariants, driven by the
//! in-tree [`SplitMix64`] generator (no external property-testing
//! dependency; gated behind the non-default `slow-tests` feature because
//! the search-soundness cases each run a full oracle loop).
//!
//! * printing is a parser fixpoint for arbitrary expression trees;
//! * the unifier is symmetric and idempotent on arbitrary type pairs;
//! * the wildcard hole never makes a well-typed program ill-typed;
//! * corpus mutants are deterministic and ill-typed;
//! * every untriaged suggestion's variant type-checks (search soundness).

use seminal::core::SearchSession;
use seminal::corpus::mutate::{mutate, ALL_KINDS};
use seminal::corpus::templates::TEMPLATES;
use seminal::ml::ast::{BinOp, Expr, ExprKind, Lit, NodeId, Pat, PatKind};
use seminal::ml::edit;
use seminal::ml::parser::{parse_expr, parse_program};
use seminal::ml::pretty::{expr_to_string, program_to_string};
use seminal::ml::span::Span;
use seminal::obs::SplitMix64;
use seminal::typeck::unify::Unifier;
use seminal::typeck::{check_program, pretty, Ty, TypeCheckOracle};
use std::sync::Arc;

// ---------------------------------------------------------------------
// SplitMix64-driven generators
// ---------------------------------------------------------------------

fn gen_leaf(rng: &mut SplitMix64) -> Expr {
    match rng.random_range(0..8usize) {
        0..=2 => {
            let n = rng.random_range(0..100u64) as i64;
            Expr::synth(ExprKind::Lit(Lit::Int(n)), Span::DUMMY)
        }
        3 => Expr::var(["x", "y", "f", "g"][rng.random_range(0..4usize)], Span::DUMMY),
        4 => Expr::synth(ExprKind::Lit(Lit::Bool(true)), Span::DUMMY),
        5 => Expr::synth(ExprKind::Lit(Lit::Str("s".into())), Span::DUMMY),
        _ => Expr::hole(Span::DUMMY),
    }
}

fn gen_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 {
        return gen_leaf(rng);
    }
    let d = depth - 1;
    match rng.random_range(0..8usize) {
        0 => Expr::synth(
            ExprKind::App(Arc::new(gen_expr(rng, d)), Arc::new(gen_expr(rng, d))),
            Span::DUMMY,
        ),
        1 => Expr::synth(
            ExprKind::BinOp(BinOp::Add, Arc::new(gen_expr(rng, d)), Arc::new(gen_expr(rng, d))),
            Span::DUMMY,
        ),
        2 => Expr::synth(
            ExprKind::If(
                Arc::new(gen_expr(rng, d)),
                Arc::new(gen_expr(rng, d)),
                Some(Arc::new(gen_expr(rng, d))),
            ),
            Span::DUMMY,
        ),
        3 => {
            let n = rng.random_range(2..4usize);
            Expr::synth(
                ExprKind::Tuple((0..n).map(|_| Arc::new(gen_expr(rng, d))).collect()),
                Span::DUMMY,
            )
        }
        4 => {
            let n = rng.random_range(0..4usize);
            Expr::synth(
                ExprKind::List((0..n).map(|_| Arc::new(gen_expr(rng, d))).collect()),
                Span::DUMMY,
            )
        }
        5 => Expr::synth(
            ExprKind::Fun(
                vec![Pat::synth(PatKind::Var("p".into()), Span::DUMMY)],
                Arc::new(gen_expr(rng, d)),
            ),
            Span::DUMMY,
        ),
        6 => Expr::synth(
            ExprKind::Seq(Arc::new(gen_expr(rng, d)), Arc::new(gen_expr(rng, d))),
            Span::DUMMY,
        ),
        _ => gen_leaf(rng),
    }
}

fn gen_ty(rng: &mut SplitMix64, depth: usize) -> Ty {
    if depth == 0 || rng.random_range(0..3usize) == 0 {
        return match rng.random_range(0..5usize) {
            0 => Ty::int(),
            1 => Ty::bool(),
            2 => Ty::string(),
            3 => Ty::float(),
            _ => Ty::Var(seminal::typeck::TvId(rng.random_range(0..4u64) as u32)),
        };
    }
    let d = depth - 1;
    match rng.random_range(0..3usize) {
        0 => Ty::arrow(gen_ty(rng, d), gen_ty(rng, d)),
        1 => Ty::list(gen_ty(rng, d)),
        _ => Ty::tuple(vec![gen_ty(rng, d), gen_ty(rng, d)]),
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// Printing any expression tree yields source that parses back to a tree
/// that prints identically (printer fixpoint).
#[test]
fn printer_is_parser_fixpoint() {
    let mut rng = SplitMix64::seed_from_u64(0x51EE_D001);
    for _ in 0..64 {
        let e = gen_expr(&mut rng, 4);
        let printed = expr_to_string(&e);
        let (reparsed, _) = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("printed `{printed}` does not parse: {err}"));
        assert_eq!(printed, expr_to_string(&reparsed));
    }
}

/// Unification succeeds symmetrically and resolves both sides equal.
#[test]
fn unify_is_symmetric() {
    let mut rng = SplitMix64::seed_from_u64(0x51EE_D002);
    for _ in 0..64 {
        let a = gen_ty(&mut rng, 3);
        let b = gen_ty(&mut rng, 3);
        let mut u1 = Unifier::new();
        for _ in 0..4 {
            u1.fresh();
        }
        let mut u2 = Unifier::new();
        for _ in 0..4 {
            u2.fresh();
        }
        let r1 = u1.unify(&a, &b).is_ok();
        let r2 = u2.unify(&b, &a).is_ok();
        assert_eq!(r1, r2, "symmetry failed for {a:?} / {b:?}");
        if r1 {
            assert_eq!(pretty(&u1.resolve(&a)), pretty(&u1.resolve(&b)));
        }
    }
}

/// Unification is idempotent: a second identical unify cannot fail.
#[test]
fn unify_is_idempotent() {
    let mut rng = SplitMix64::seed_from_u64(0x51EE_D003);
    for _ in 0..64 {
        let a = gen_ty(&mut rng, 3);
        let b = gen_ty(&mut rng, 3);
        let mut u = Unifier::new();
        for _ in 0..4 {
            u.fresh();
        }
        if u.unify(&a, &b).is_ok() {
            assert!(u.unify(&a, &b).is_ok(), "idempotence failed for {a:?} / {b:?}");
        }
    }
}

/// Replacing any subexpression of a *well-typed* template with the
/// wildcard hole keeps the program well-typed — the foundation of the
/// top-down search's soundness.
#[test]
fn hole_never_breaks_well_typed_code() {
    let mut rng = SplitMix64::seed_from_u64(0x51EE_D004);
    for _ in 0..64 {
        let t = &TEMPLATES[rng.random_range(0..TEMPLATES.len())];
        let prog = parse_program(t.source).unwrap();
        let mut ids: Vec<NodeId> = Vec::new();
        for d in &prog.decls {
            d.for_each_expr(&mut |e| ids.push(e.id));
        }
        let target = ids[rng.random_range(0..ids.len())];
        let variant = edit::remove_expr(&prog, target);
        if let Err(err) = check_program(&variant) {
            let node = prog.find_expr(target).unwrap();
            panic!("hole at `{}` broke {}: {}", expr_to_string(node), t.name, err);
        }
    }
}

/// Mutants are deterministic per seed and always ill-typed.
#[test]
fn mutants_deterministic_and_ill_typed() {
    for seed in 0..64u64 {
        let t = &TEMPLATES[(seed as usize) % TEMPLATES.len()];
        let m1 = mutate(t.source, ALL_KINDS, 1, &mut SplitMix64::seed_from_u64(seed));
        let m2 = mutate(t.source, ALL_KINDS, 1, &mut SplitMix64::seed_from_u64(seed));
        assert_eq!(m1.as_ref().map(|m| m.source.clone()), m2.as_ref().map(|m| m.source.clone()));
        if let Some(m) = m1 {
            let prog = parse_program(&m.source).unwrap();
            assert!(check_program(&prog).is_err(), "mutant should be ill-typed: {}", m.source);
        }
    }
}

/// Search soundness: every untriaged suggestion, applied, type-checks.
/// A full oracle loop per case — the reason this suite is feature-gated.
#[test]
fn suggestions_type_check() {
    for seed in 0..12u64 {
        let t = &TEMPLATES[(seed as usize) % TEMPLATES.len()];
        let mut rng = SplitMix64::seed_from_u64(seed * 7 + 1);
        if let Some(m) = mutate(t.source, ALL_KINDS, 1, &mut rng) {
            let prog = parse_program(&m.source).unwrap();
            let report =
                SearchSession::builder(TypeCheckOracle::new()).build().unwrap().search(&prog);
            for s in report.suggestions() {
                if !s.triaged {
                    assert!(
                        check_program(&s.variant).is_ok(),
                        "unsound suggestion `{}` -> `{}` on {}",
                        s.original_str,
                        s.replacement_str,
                        t.name
                    );
                }
            }
        }
    }
}

/// Prefix monotonicity: once a prefix fails, longer prefixes fail too.
#[test]
fn prefix_failures_are_monotone() {
    for seed in 0..24u64 {
        let t = &TEMPLATES[(seed as usize) % TEMPLATES.len()];
        let mut rng = SplitMix64::seed_from_u64(seed * 11 + 3);
        if let Some(m) = mutate(t.source, ALL_KINDS, 1, &mut rng) {
            let prog = parse_program(&m.source).unwrap();
            let mut failed = false;
            for k in 1..=prog.decls.len() {
                let ok = check_program(&prog.prefix(k)).is_ok();
                if failed {
                    assert!(!ok, "prefix {k} recovered after failure: {}", m.source);
                }
                failed = failed || !ok;
            }
            assert!(failed, "full program must fail: {}", m.source);
        }
    }
}

/// Program-level printer fixpoint over every template (plain test — the
/// corpus is the interesting distribution).
#[test]
fn program_printer_fixpoint_on_templates() {
    for t in TEMPLATES {
        let p1 = parse_program(t.source).unwrap();
        let s1 = program_to_string(&p1);
        let p2 = parse_program(&s1).unwrap();
        assert_eq!(s1, program_to_string(&p2), "{}", t.name);
    }
}

/// `Program::prefix` never changes earlier declarations.
#[test]
fn prefix_is_a_prefix() {
    let t = &TEMPLATES[0];
    let prog = parse_program(t.source).unwrap();
    for k in 0..=prog.decls.len() {
        let p = prog.prefix(k);
        assert_eq!(p.decls.len(), k.min(prog.decls.len()));
        for (a, b) in p.decls.iter().zip(&prog.decls) {
            assert_eq!(a, b);
        }
    }
}

/// The parser never panics: arbitrary bytes produce Ok or a spanned error.
#[test]
fn parser_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(0x51EE_D005);
    for _ in 0..256 {
        let len = rng.random_range(0..200usize);
        let src: String =
            (0..len).map(|_| (rng.random_range(0x20..0x7Fu64) as u8) as char).collect();
        let _ = parse_program(&src);
    }
}

/// Arbitrary token soup, denser in the language's own alphabet.
#[test]
fn parser_never_panics_on_token_soup() {
    const TOKENS: &[&str] = &[
        "let ", "in ", "fun ", "match ", "with ", "-> ", "| ", "( ", ") ", "[ ", "] ", ":: ", "+ ",
        "1 ", "x ", "\"s\" ", "if ", "then ", "else ", "; ", ", ", "try ", "when ", "[[...]] ",
        ":= ", "rec ",
    ];
    let mut rng = SplitMix64::seed_from_u64(0x51EE_D006);
    for _ in 0..256 {
        let n = rng.random_range(0..40usize);
        let src: String = (0..n).map(|_| TOKENS[rng.random_range(0..TOKENS.len())]).collect();
        let _ = parse_program(&src);
    }
}

/// The C++ parser never panics either.
#[test]
fn cpp_parser_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(0x51EE_D007);
    for _ in 0..256 {
        let len = rng.random_range(0..200usize);
        let src: String =
            (0..len).map(|_| (rng.random_range(0x20..0x7Fu64) as u8) as char).collect();
        let _ = seminal::cpp::parse_cpp(&src);
    }
}
