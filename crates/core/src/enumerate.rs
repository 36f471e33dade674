//! The enumerator: given a syntax node, produce the constructive changes
//! to try there (§2.2, Figure 3).
//!
//! "The enumerator is essentially a giant case expression that matches on
//! the sort of node it is given and produces a list of modifications."
//! Adding a change family means adding a few lines here; the searcher
//! never needs to know. Exponential families (argument permutations) are
//! emitted behind a [`Probe::Gated`] wildcard probe, so they cost oracle
//! calls only when any expression of that shape could possibly fit.

use crate::change::{Candidate, Probe};
use crate::config::SearchConfig;
use seminal_ml::ast::*;
use seminal_ml::edit::{app_chain, build_app};
use seminal_ml::pretty::expr_to_string;
use seminal_ml::span::Span;

fn hole() -> Expr {
    Expr::hole(Span::DUMMY)
}

fn one(replacement: Expr, description: impl Into<String>) -> Probe {
    Probe::One(Candidate { replacement, description: description.into() })
}

/// All constructive changes to try at `e`.
///
/// `top_of_chain` is false when `e` is an application whose parent is
/// also an application: chain-level changes are emitted once, at the
/// chain's top node.
pub fn changes_for(e: &Expr, top_of_chain: bool, cfg: &SearchConfig) -> Vec<Probe> {
    let mut out = Vec::new();
    match &e.kind {
        ExprKind::App(_, _) if top_of_chain => app_changes(e, &mut out),
        ExprKind::App(_, _) => {}
        ExprKind::Fun(params, body) => fun_changes(params, body, &mut out),
        ExprKind::List(items) => {
            if items.len() == 1 {
                if let ExprKind::Tuple(parts) = &items[0].kind {
                    // `[1, 2, 3]` → `[1; 2; 3]` — the paper's list/tuple
                    // bracket confusion (§5.3).
                    out.push(one(
                        Expr::synth(ExprKind::List(parts.clone()), Span::DUMMY),
                        "separate the list elements with `;` instead of `,`",
                    ));
                }
            }
            if items.len() >= 2 {
                out.push(one(
                    Expr::synth(ExprKind::Tuple(items.clone()), Span::DUMMY),
                    "use a tuple instead of a list",
                ));
            }
        }
        ExprKind::Tuple(parts) => {
            out.push(one(
                Expr::synth(ExprKind::List(parts.clone()), Span::DUMMY),
                "use a list instead of a tuple",
            ));
        }
        ExprKind::BinOp(op, l, r) => binop_changes(*op, l, r, &mut out),
        ExprKind::UnOp(op, inner) => match op {
            UnOp::Neg => out.push(one(
                Expr::synth(ExprKind::UnOp(UnOp::NegF, inner.clone()), Span::DUMMY),
                "use the floating-point negation `-.`",
            )),
            UnOp::NegF => out.push(one(
                Expr::synth(ExprKind::UnOp(UnOp::Neg, inner.clone()), Span::DUMMY),
                "use the integer negation `-`",
            )),
            UnOp::Deref => {}
        },
        ExprKind::Lit(Lit::Int(n)) => {
            out.push(one(
                Expr::synth(ExprKind::Lit(Lit::Float(*n as f64)), Span::DUMMY),
                "use a float literal",
            ));
        }
        ExprKind::Lit(Lit::Float(x)) if x.fract() == 0.0 => {
            out.push(one(
                Expr::synth(ExprKind::Lit(Lit::Int(*x as i64)), Span::DUMMY),
                "use an int literal",
            ));
        }
        ExprKind::Let { rec: false, bindings, body } => {
            // `let f x = … f …` missing `rec` (Figure 3).
            out.push(one(
                Expr::synth(
                    ExprKind::Let { rec: true, bindings: bindings.clone(), body: body.clone() },
                    Span::DUMMY,
                ),
                "make the binding recursive (`let rec`)",
            ));
        }
        ExprKind::If(c, t, None) => {
            out.push(one(
                Expr::synth(
                    ExprKind::If(c.clone(), t.clone(), Some(Box::new(hole()))),
                    Span::DUMMY,
                ),
                "add an `else` branch",
            ));
        }
        ExprKind::Seq(a, b) => {
            out.push(one((**b).clone(), "remove the first expression of the sequence"));
            out.push(one((**a).clone(), "remove the second expression of the sequence"));
        }
        ExprKind::Construct(name, None) => {
            out.push(one(
                Expr::synth(ExprKind::Construct(name.clone(), Some(Box::new(hole()))), Span::DUMMY),
                "apply the constructor to an argument",
            ));
        }
        ExprKind::Construct(name, Some(_)) => {
            out.push(one(
                Expr::synth(ExprKind::Construct(name.clone(), None), Span::DUMMY),
                "drop the constructor's argument",
            ));
        }
        ExprKind::Annot(inner, _) => {
            out.push(one((**inner).clone(), "remove the type annotation"));
        }
        ExprKind::SetField(obj, field, value) => {
            // `e.f <- v` where `f` holds a ref: `e.f := v`.
            out.push(one(
                Expr::synth(
                    ExprKind::BinOp(
                        BinOp::Assign,
                        Box::new(Expr::synth(
                            ExprKind::Field(obj.clone(), field.clone()),
                            Span::DUMMY,
                        )),
                        value.clone(),
                    ),
                    Span::DUMMY,
                ),
                "use `:=` — the field holds a reference",
            ));
        }
        ExprKind::Match(_, _) => match_changes(e, cfg, &mut out),
        _ => {}
    }

    // Families applicable to many node shapes.
    match &e.kind {
        // Missing unit argument: `f` where `f ()` was meant (thunks).
        ExprKind::Var(_) | ExprKind::Field(_, _) => {
            out.push(one(
                Expr::synth(
                    ExprKind::App(
                        Box::new(e.clone()),
                        Box::new(Expr::synth(ExprKind::Lit(Lit::Unit), Span::DUMMY)),
                    ),
                    Span::DUMMY,
                ),
                "apply the function to `()`",
            ));
        }
        // Unneeded unit argument: `f ()` where `f` was meant.
        ExprKind::App(f, a) if matches!(a.kind, ExprKind::Lit(Lit::Unit)) => {
            out.push(one((**f).clone(), "drop the `()` argument"));
        }
        _ => {}
    }
    // Conversion insertion: wrap small expressions in the pervasive
    // numeric/string conversions (`print_string x` → `print_string
    // (string_of_int x)` — a ubiquitous student fix).
    if e.size() <= 3 && !e.is_hole() {
        for conv in
            ["string_of_int", "string_of_float", "float_of_int", "int_of_float", "int_of_string"]
        {
            out.push(one(
                Expr::synth(
                    ExprKind::App(Box::new(Expr::var(conv, Span::DUMMY)), Box::new(e.clone())),
                    Span::DUMMY,
                ),
                format!("convert the value with `{conv}`"),
            ));
        }
    }
    out
}

/// Largest argument count for which full permutations are attempted
/// (gated on the all-wildcards probe succeeding, §2.2).
const MAX_PERMUTATION_ARGS: usize = 4;

fn app_changes(e: &Expr, out: &mut Vec<Probe>) {
    let (head, args) = app_chain(e);
    let head = head.clone();
    let args: Vec<Expr> = args.into_iter().cloned().collect();
    let n = args.len();

    // Remove one argument (Figure 3 row 1).
    if n >= 2 {
        for i in 0..n {
            let mut rest = args.clone();
            rest.remove(i);
            out.push(one(
                build_app(head.clone(), rest),
                format!("remove argument {} from the call", i + 1),
            ));
        }
    }

    // Add a wildcard argument at each position (row 2).
    for i in 0..=n {
        let mut more = args.clone();
        more.insert(i, hole());
        out.push(one(build_app(head.clone(), more), "add an argument to the call"));
    }

    // Reorder arguments (row 3) — gated behind the all-wildcards probe so
    // the n! variants cost nothing unless some argument shape fits.
    if (2..=MAX_PERMUTATION_ARGS).contains(&n) {
        let gate = build_app(head.clone(), vec![hole(); n]);
        let mut perms = Vec::new();
        permute(&args, &mut Vec::new(), &mut vec![false; n], &mut perms);
        let then: Vec<Candidate> = perms
            .into_iter()
            .filter(|p| !p.iter().zip(&args).all(|(x, y)| expr_to_string(x) == expr_to_string(y)))
            .map(|p| Candidate {
                replacement: build_app(head.clone(), p),
                description: "reorder the call's arguments".to_owned(),
            })
            .collect();
        out.push(Probe::Gated { gate, then });
    }

    // Reassociate into a nested call (row 4): `f a1 a2` → `f (a1 a2)`.
    if n >= 2 {
        let nested = build_app(args[0].clone(), args[1..].to_vec());
        out.push(one(build_app(head.clone(), vec![nested]), "make the arguments a nested call"));
    }

    // Tuple the arguments (row 5): `f a1 a2` → `f (a1, a2)`.
    if n >= 2 {
        out.push(one(
            build_app(head.clone(), vec![Expr::synth(ExprKind::Tuple(args.clone()), Span::DUMMY)]),
            "pass the arguments as one tuple",
        ));
    }

    // Curry a tupled argument (row 6): `f (a1, a2)` → `f a1 a2`.
    if n == 1 {
        if let ExprKind::Tuple(parts) = &args[0].kind {
            out.push(one(
                build_app(head.clone(), parts.clone()),
                "pass the tuple components as separate curried arguments",
            ));
        }
    }
}

fn permute(args: &[Expr], cur: &mut Vec<Expr>, used: &mut Vec<bool>, out: &mut Vec<Vec<Expr>>) {
    if cur.len() == args.len() {
        out.push(cur.clone());
        return;
    }
    for i in 0..args.len() {
        if !used[i] {
            used[i] = true;
            cur.push(args[i].clone());
            permute(args, cur, used, out);
            cur.pop();
            used[i] = false;
        }
    }
}

fn fun_changes(params: &[Pat], body: &Expr, out: &mut Vec<Probe>) {
    // Tupled → curried (the Figure 2 winner).
    if params.len() == 1 {
        if let PatKind::Tuple(parts) = &params[0].kind {
            out.push(one(
                Expr::synth(ExprKind::Fun(parts.clone(), Box::new(body.clone())), Span::DUMMY),
                "take curried arguments instead of a tuple",
            ));
        }
    }
    // Curried → tupled.
    if params.len() >= 2 {
        out.push(one(
            Expr::synth(
                ExprKind::Fun(
                    vec![Pat::synth(PatKind::Tuple(params.to_vec()), Span::DUMMY)],
                    Box::new(body.clone()),
                ),
                Span::DUMMY,
            ),
            "take one tuple argument instead of curried arguments",
        ));
    }
    // Add a trailing ignored parameter.
    let mut more = params.to_vec();
    more.push(Pat::wild(Span::DUMMY));
    out.push(one(
        Expr::synth(ExprKind::Fun(more, Box::new(body.clone())), Span::DUMMY),
        "add a parameter to the function",
    ));
    // Remove one parameter (the oracle rejects it if the parameter is used).
    if params.len() >= 2 {
        for i in 0..params.len() {
            let mut fewer = params.to_vec();
            fewer.remove(i);
            out.push(one(
                Expr::synth(ExprKind::Fun(fewer, Box::new(body.clone())), Span::DUMMY),
                format!("remove parameter {} from the function", i + 1),
            ));
        }
    }
}

fn binop_changes(op: BinOp, l: &Expr, r: &Expr, out: &mut Vec<Probe>) {
    use BinOp::*;
    let mk = |nop: BinOp, desc: &str, out: &mut Vec<Probe>| {
        out.push(one(
            Expr::synth(
                ExprKind::BinOp(nop, Box::new(l.clone()), Box::new(r.clone())),
                Span::DUMMY,
            ),
            desc,
        ));
    };
    // Deep rewrite: `(3.14 * r) * r` needs *every* operator switched at
    // once; single-operator swaps cannot fix nested arithmetic.
    let int_arith = matches!(op, Add | Sub | Mul | Div);
    let float_arith = matches!(op, AddF | SubF | MulF | DivF);
    if int_arith || float_arith {
        let rewritten = Expr::synth(
            ExprKind::BinOp(
                flip_arith(op),
                Box::new(deep_flip_arith(l, int_arith)),
                Box::new(deep_flip_arith(r, int_arith)),
            ),
            Span::DUMMY,
        );
        out.push(one(
            rewritten,
            if int_arith {
                "use floating-point arithmetic operators throughout"
            } else {
                "use integer arithmetic operators throughout"
            },
        ));
    }
    match op {
        Add => {
            mk(AddF, "use the float operator `+.`", out);
            mk(Concat, "use `^` to concatenate strings", out);
        }
        Sub => mk(SubF, "use the float operator `-.`", out),
        Mul => mk(MulF, "use the float operator `*.`", out),
        Div => mk(DivF, "use the float operator `/.`", out),
        AddF => {
            mk(Add, "use the int operator `+`", out);
            mk(Concat, "use `^` to concatenate strings", out);
        }
        SubF => mk(Sub, "use the int operator `-`", out),
        MulF => mk(Mul, "use the int operator `*`", out),
        DivF => mk(Div, "use the int operator `/`", out),
        Concat => {
            mk(Add, "use `+` to add ints", out);
            mk(AddF, "use `+.` to add floats", out);
            mk(Append, "use `@` to append lists", out);
        }
        Append => {
            mk(Concat, "use `^` to concatenate strings", out);
            mk(Cons, "use `::` to cons onto a list", out);
        }
        Cons => {
            mk(Append, "use `@` to append lists (the left side is a list)", out);
            // `xs :: x` with the operands backwards.
            out.push(one(
                Expr::synth(
                    ExprKind::BinOp(Cons, Box::new(r.clone()), Box::new(l.clone())),
                    Span::DUMMY,
                ),
                "swap the operands of `::` (element on the left, list on the right)",
            ));
        }
        Eq => {
            // `=` where the user meant assignment (Figure 3's `:=` family).
            mk(Assign, "use `:=` to assign to the reference", out);
        }
        Assign => {
            mk(Eq, "use `=` to compare instead of assigning", out);
            // `e.fld := v` on a non-ref mutable field → `e.fld <- v`.
            if let ExprKind::Field(obj, fname) = &l.kind {
                out.push(one(
                    Expr::synth(
                        ExprKind::SetField(obj.clone(), fname.clone(), Box::new(r.clone())),
                        Span::DUMMY,
                    ),
                    "use `<-` to update the mutable field",
                ));
            }
        }
        _ => {}
    }
}

/// Swaps an arithmetic operator between its int and float form.
fn flip_arith(op: BinOp) -> BinOp {
    use BinOp::*;
    match op {
        Add => AddF,
        Sub => SubF,
        Mul => MulF,
        Div => DivF,
        AddF => Add,
        SubF => Sub,
        MulF => Mul,
        DivF => Div,
        other => other,
    }
}

/// Recursively flips arithmetic operators (int→float when `to_float`),
/// descending only through arithmetic structure.
fn deep_flip_arith(e: &Expr, to_float: bool) -> Expr {
    use BinOp::*;
    match &e.kind {
        ExprKind::BinOp(op, l, r)
            if matches!(op, Add | Sub | Mul | Div | AddF | SubF | MulF | DivF) =>
        {
            let flipped =
                if to_float == matches!(op, Add | Sub | Mul | Div) { flip_arith(*op) } else { *op };
            Expr::synth(
                ExprKind::BinOp(
                    flipped,
                    Box::new(deep_flip_arith(l, to_float)),
                    Box::new(deep_flip_arith(r, to_float)),
                ),
                Span::DUMMY,
            )
        }
        ExprKind::UnOp(op @ (UnOp::Neg | UnOp::NegF), inner) => {
            let flipped = match (op, to_float) {
                (UnOp::Neg, true) => UnOp::NegF,
                (UnOp::NegF, false) => UnOp::Neg,
                (o, _) => *o,
            };
            Expr::synth(
                ExprKind::UnOp(flipped, Box::new(deep_flip_arith(inner, to_float))),
                Span::DUMMY,
            )
        }
        _ => e.clone(),
    }
}

/// Nested-`match` reparenthesization — Figure 7's "performance bug" family.
///
/// The dangling-arm ambiguity makes a `match` inside an arm swallow the
/// arms the user meant for the outer `match`. The *fast* variant moves a
/// suffix of the inner arms of the **last** arm's nested match to the
/// outer match. The *slow* variant (the paper's bug, kept behind
/// [`SearchConfig::slow_match_reassoc`]) tries every combination of
/// splits across **all** arms with nested matches, which is exponential
/// in the number of such arms.
fn match_changes(e: &Expr, cfg: &SearchConfig, out: &mut Vec<Probe>) {
    let ExprKind::Match(scrut, arms) = &e.kind else { return };
    if cfg.slow_match_reassoc {
        // All combinations of per-arm splits (identity excluded).
        let options: Vec<Vec<Option<usize>>> = arms
            .iter()
            .map(|arm| {
                let mut opts = vec![None];
                if let ExprKind::Match(_, inner) = &arm.body.kind {
                    for j in 1..inner.len() {
                        opts.push(Some(j));
                    }
                }
                opts
            })
            .collect();
        let mut combos: Vec<Vec<Option<usize>>> = vec![Vec::new()];
        for opts in &options {
            let mut next = Vec::new();
            for combo in &combos {
                for o in opts {
                    let mut c = combo.clone();
                    c.push(*o);
                    next.push(c);
                }
            }
            combos = next;
        }
        for combo in combos {
            if combo.iter().all(Option::is_none) {
                continue;
            }
            out.push(one(
                reassociate(scrut, arms, &combo),
                "move arms of a nested match to the outer match",
            ));
        }
    } else {
        // Fast: only the last arm, one split at a time.
        let Some((last_idx, last)) = arms.iter().enumerate().next_back() else { return };
        if let ExprKind::Match(_, inner) = &last.body.kind {
            for j in 1..inner.len() {
                let mut combo = vec![None; arms.len()];
                combo[last_idx] = Some(j);
                out.push(one(
                    reassociate(scrut, arms, &combo),
                    "move trailing arms of the nested match to the outer match",
                ));
            }
        }
    }
}

/// Rebuilds a match applying a per-arm split: `Some(j)` keeps the first
/// `j` arms in the nested match and promotes the rest to the outer one.
fn reassociate(scrut: &Expr, arms: &[Arm], combo: &[Option<usize>]) -> Expr {
    let mut new_arms = Vec::new();
    for (arm, split) in arms.iter().zip(combo) {
        match (split, &arm.body.kind) {
            (Some(j), ExprKind::Match(s2, inner)) => {
                let kept = inner[..*j].to_vec();
                let promoted = inner[*j..].to_vec();
                new_arms.push(Arm {
                    pat: arm.pat.clone(),
                    guard: arm.guard.clone(),
                    body: Expr::synth(ExprKind::Match(s2.clone(), kept), Span::DUMMY),
                });
                new_arms.extend(promoted);
            }
            _ => new_arms.push(arm.clone()),
        }
    }
    Expr::synth(ExprKind::Match(Box::new(scrut.clone()), new_arms), Span::DUMMY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_expr;

    fn probes(src: &str) -> Vec<Probe> {
        let (e, _) = parse_expr(src).unwrap();
        changes_for(&e, true, &SearchConfig::default())
    }

    fn descriptions(src: &str) -> Vec<String> {
        probes(src)
            .into_iter()
            .flat_map(|p| match p {
                Probe::One(c) => vec![c.description],
                Probe::Gated { then, .. } => then.into_iter().map(|c| c.description).collect(),
            })
            .collect()
    }

    fn rendered(src: &str) -> Vec<String> {
        probes(src)
            .into_iter()
            .flat_map(|p| match p {
                Probe::One(c) => vec![expr_to_string(&c.replacement)],
                Probe::Gated { then, .. } => {
                    then.iter().map(|c| expr_to_string(&c.replacement)).collect()
                }
            })
            .collect()
    }

    #[test]
    fn figure2_curry_change_is_offered() {
        let rs = rendered("fun (x, y) -> x + y");
        assert!(rs.contains(&"fun x y -> x + y".to_owned()), "{rs:?}");
    }

    #[test]
    fn app_chain_changes_cover_figure3() {
        let rs = rendered("f a1 a2 a3");
        // Remove an argument.
        assert!(rs.contains(&"f a1 a3".to_owned()), "{rs:?}");
        // Reorder (behind the gate).
        assert!(rs.contains(&"f a3 a2 a1".to_owned()), "{rs:?}");
        // Reassociate into a nested call.
        assert!(rs.contains(&"f (a1 a2 a3)".to_owned()), "{rs:?}");
        // Tuple the arguments.
        assert!(rs.contains(&"f (a1, a2, a3)".to_owned()), "{rs:?}");
        // Add an argument somewhere.
        assert!(rs.iter().any(|s| s.contains("[[...]]")), "{rs:?}");
    }

    #[test]
    fn curry_tupled_call() {
        let rs = rendered("f (a1, a2, a3)");
        assert!(rs.contains(&"f a1 a2 a3".to_owned()), "{rs:?}");
    }

    #[test]
    fn permutations_are_gated() {
        let ps = probes("f a b c");
        let gated = ps.iter().any(|p| matches!(p, Probe::Gated { then, .. } if !then.is_empty()));
        assert!(gated);
    }

    #[test]
    fn permutation_gate_excludes_identity() {
        for p in probes("f a b") {
            if let Probe::Gated { then, .. } = p {
                assert_eq!(then.len(), 1); // only the swap, not the identity
                assert_eq!(expr_to_string(&then[0].replacement), "f b a");
            }
        }
    }

    #[test]
    fn list_comma_fix() {
        let rs = rendered("[1, 2, 3]");
        assert!(rs.contains(&"[1; 2; 3]".to_owned()), "{rs:?}");
    }

    #[test]
    fn operator_families() {
        assert!(descriptions("a + b").iter().any(|d| d.contains("+.")));
        assert!(descriptions("a + b").iter().any(|d| d.contains("^")));
        assert!(descriptions("a ^ b").iter().any(|d| d.contains("@")));
        assert!(descriptions("a := b").iter().any(|d| d.contains("=")));
    }

    #[test]
    fn field_assign_to_setfield() {
        let rs = rendered("p.x := 3");
        assert!(rs.contains(&"p.x <- 3".to_owned()), "{rs:?}");
    }

    #[test]
    fn let_rec_change() {
        let rs = rendered("let f x = f x in f");
        assert!(rs.iter().any(|s| s.starts_with("let rec f")), "{rs:?}");
    }

    #[test]
    fn match_reassoc_fast_moves_trailing_arms() {
        let src = "match a with 0 -> (match b with 1 -> x | 2 -> y | 3 -> z) | _ -> w";
        // Reparse so the nested match is the *last* arm (dangling form).
        let src2 = "match a with 0 -> match b with 1 -> x | 2 -> y | 3 -> z";
        let _ = src;
        let rs = rendered(src2);
        assert!(
            rs.iter()
                .any(|s| s.contains("| 3 -> z") && s.contains("(match b with 1 -> x | 2 -> y)")),
            "{rs:?}"
        );
    }

    #[test]
    fn slow_reassoc_generates_many_more() {
        let src = "match a with 0 -> (match b with 1 -> x | 2 -> y | 3 -> z) | 1 -> (match c with 4 -> u | 5 -> v | 6 -> w) | _ -> q";
        let (e, _) = parse_expr(src).unwrap();
        let fast = changes_for(&e, true, &SearchConfig::default()).len();
        let slow = changes_for(&e, true, &SearchConfig::with_slow_match_reassoc()).len();
        assert!(slow > fast, "slow {slow} should exceed fast {fast}");
        assert!(slow >= 8, "combination count should multiply, got {slow}");
    }

    #[test]
    fn inner_app_nodes_get_no_chain_changes() {
        let (e, _) = parse_expr("f a b").unwrap();
        assert!(changes_for(&e, false, &SearchConfig::default()).is_empty());
    }

    #[test]
    fn seq_drops() {
        let rs = rendered("a; b");
        assert!(rs.contains(&"a".to_owned()) && rs.contains(&"b".to_owned()));
    }
}

#[cfg(test)]
mod extra_family_tests {
    use super::*;
    use seminal_ml::parser::parse_expr;

    fn rendered(src: &str) -> Vec<String> {
        let (e, _) = parse_expr(src).unwrap();
        changes_for(&e, true, &SearchConfig::default())
            .into_iter()
            .flat_map(|p| match p {
                Probe::One(c) => vec![expr_to_string(&c.replacement)],
                Probe::Gated { then, .. } => {
                    then.iter().map(|c| expr_to_string(&c.replacement)).collect()
                }
            })
            .collect()
    }

    #[test]
    fn apply_to_unit_offered_for_variables() {
        let rs = rendered("counter");
        assert!(rs.contains(&"counter ()".to_owned()), "{rs:?}");
    }

    #[test]
    fn drop_unit_argument() {
        let rs = rendered("f ()");
        assert!(rs.contains(&"f".to_owned()), "{rs:?}");
    }

    #[test]
    fn conversion_wrappers_for_small_exprs() {
        let rs = rendered("n");
        assert!(rs.contains(&"string_of_int n".to_owned()), "{rs:?}");
        assert!(rs.contains(&"float_of_int n".to_owned()), "{rs:?}");
    }

    #[test]
    fn conversions_skipped_for_large_exprs() {
        let rs = rendered("f (a + b) (c * d) e");
        assert!(!rs.iter().any(|s| s.starts_with("string_of_int (f")), "{rs:?}");
    }

    #[test]
    fn deep_float_rewrite_offered() {
        let rs = rendered("(a * b) * c");
        assert!(rs.contains(&"a *. b *. c".to_owned()), "{rs:?}");
    }

    #[test]
    fn deep_int_rewrite_offered() {
        let rs = rendered("x +. y +. 1.0");
        assert!(rs.iter().any(|s| s.contains("x + y")), "{rs:?}");
    }
}
