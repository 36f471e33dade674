//! The weighted MCS localization backend: oracle-free enumeration of
//! ranked alternative correction subsets.
//!
//! Where blame analysis (PR 1) shrinks *one* minimal unsatisfiable core
//! and scores its members, this backend answers the dual question the
//! modern localization line (Pavlinovic et al.'s SMT formulation,
//! Goanna's correction-subset enumeration) asks: **which minimal sets of
//! source-attributable demands, if retracted, make the program
//! well-typed — and what is the cheapest such repair?**
//!
//! The recorded [`seminal_typeck::ConstraintTrace`] is lowered into a weighted
//! CNF-like clause set: every span-attributed constraint is a *soft*
//! clause weighted by the [`crate::weights`] model (AST size, nesting
//! depth, syntactic-class prior); empty-span constraints — synthesized
//! well-formedness demands no source edit can delete — are *hard*.
//! Enumeration is a Marco/CLD-style shrink-and-block loop built from the
//! same replay primitive as PR 1's deletion shrinker
//! ([`seminal_typeck::ConstraintTrace::subset_sat`]):
//!
//! 1. **grow** a maximal satisfiable subset (MSS) by adding soft clauses
//!    in descending weight order onto the hard base; the complement of
//!    an MSS is a minimal correction subset (MCS), and growing
//!    expensive clauses first steers cheap ones into the correction;
//! 2. **block** each member of a found MCS by forcing it into the next
//!    grow, which yields an alternative MCS that spares it;
//! 3. repeat breadth-first, deduplicating, until the subset cap or the
//!    replay budget is reached.
//!
//! Soft clauses, the hard base and every replay are confined to the
//! [replay universe](seminal_typeck::ConstraintTrace::replay_universe):
//! the failing connected component of the constraint graph. Constraints
//! that share no type variables (transitively) with the failing demand
//! cannot take part in any correction, and leaving them out of a replay
//! never changes its verdict, so grows and the core shrink replay a
//! handful of constraints instead of the whole list.
//!
//! Naming errors have no constraint system at all, so no MCS exists;
//! the backend still ranks alternative repairs there by proposing the
//! nearest in-scope names (stdlib plus bindings declared before the
//! error) ordered by edit distance. These candidates are heuristic —
//! ranked hints, not replay-verified corrections — and are marked by
//! [`McsMember::constraint`] being `None`.
//!
//! Everything is deterministic and zero-oracle-call: the only "solver"
//! is in-process constraint replay.

use crate::blame::{score_spans, SpanBlame};
use crate::weights::constraint_weights;
use seminal_ml::ast::{DeclKind, PatKind, Program};
use seminal_ml::span::Span;
use seminal_typeck::stdlib::stdlib_env;
use seminal_typeck::types::pretty_pair;
use seminal_typeck::{trace_program, ConstraintTrace, TypeError, TypeErrorKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Cap on enumerated correction subsets. Alternatives beyond the first
/// few are rarely read and each costs a full grow (one replay per soft
/// clause).
pub const MAX_SUBSETS: usize = 8;
/// Cap on naming-repair candidates for unbound-variable errors.
const MAX_NAME_CANDIDATES: usize = 3;
/// Replay budget across one analysis (each replay is one fresh-store
/// pass over the constraint list). Enumeration stops early — but never
/// reports a half-grown subset — when it runs out.
const MAX_REPLAYS: u64 = 4096;

/// One member of a correction subset: a demand to retract (or, for
/// naming errors, a name to substitute), mapped back to source.
#[derive(Debug, Clone, PartialEq)]
pub struct McsMember {
    /// Index into [`seminal_typeck::ConstraintTrace::constraints`]; `None` for
    /// naming-repair candidates, which have no constraint behind them.
    pub constraint: Option<usize>,
    /// The source span the repair points at.
    pub span: Span,
    /// Human-readable repair hint.
    pub hint: String,
}

/// One ranked alternative correction subset: retracting (repairing) all
/// members restores satisfiability.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectionSubset {
    /// Members in ascending constraint order.
    pub members: Vec<McsMember>,
    /// Total weight — the model's cost of asking for this repair.
    /// Subsets are ranked ascending: cheapest repair first.
    pub weight: u64,
}

/// The outcome of MCS analysis on an ill-typed program.
#[derive(Debug, Clone)]
pub struct McsAnalysis {
    /// The baseline first error (exactly what `check_program` reports).
    pub error: TypeError,
    /// Size of the deletion-shrunk unsatisfiable core (same shrinker as
    /// blame analysis, for cross-backend comparability); 0 for naming
    /// errors.
    pub core_size: usize,
    /// Ranked alternative correction subsets, cheapest first.
    pub subsets: Vec<CorrectionSubset>,
    /// Soft-clause count of the lowered system (failing component only).
    pub soft_clauses: usize,
    /// Hard-clause count (everything else).
    pub hard_clauses: usize,
    /// Constraint replays the analysis ran: the replay-universe check,
    /// the hard-base check, every grow step, and the core shrink.
    pub replays: u64,
    /// Pure solver time: lowering, growing, blocking, core shrinking —
    /// excludes the recording run.
    pub solve: Duration,
    /// Wall-clock cost of the whole analysis, including recording when
    /// [`analyze_mcs`] recorded the trace itself (not when
    /// [`analyze_mcs_trace`] is handed one, as the search's is).
    pub elapsed: Duration,
    /// Blamed spans for search guidance, highest score first — same
    /// aggregation as blame analysis but fed by the enumerated subsets.
    pub spans: Vec<SpanBlame>,
}

/// Runs the MCS backend. Returns `None` when `prog` is well-typed.
/// Zero oracle calls: the recording run and every replay are in-process.
pub fn analyze_mcs(prog: &Program) -> Option<McsAnalysis> {
    let start = Instant::now();
    analyze_mcs_from(prog, &trace_program(prog), start)
}

/// [`analyze_mcs`] over an already-recorded trace of `prog`. Returns
/// `None` when the recording run succeeded.
pub fn analyze_mcs_trace(prog: &Program, trace: &ConstraintTrace) -> Option<McsAnalysis> {
    analyze_mcs_from(prog, trace, Instant::now())
}

fn analyze_mcs_from(
    prog: &Program,
    trace: &ConstraintTrace,
    start: Instant,
) -> Option<McsAnalysis> {
    let error = match &trace.result {
        Ok(()) => return None,
        Err(e) => e.clone(),
    };

    if !trace.has_unsat_constraints() {
        return Some(naming_analysis(prog, error, start));
    }

    let solve_start = Instant::now();
    let n = trace.constraints.len();
    // Every replay runs inside the replay universe (the failing
    // component), which decides the same verdicts as the whole list.
    // Computing it costs one replay.
    let universe = trace.replay_universe();
    let mut replays: u64 = 1;

    // Lower: soft = span-attributed constraints of the universe; hard =
    // everything else, of which the universe's share is the replayed
    // base. If that base alone is already unsatisfiable (the failing
    // demand itself is synthesized), the whole universe goes soft over
    // an empty base.
    let mut soft: Vec<usize> =
        (0..n).filter(|&i| universe[i] && !trace.constraints[i].span.is_empty()).collect();
    let mut base = universe.clone();
    for &i in &soft {
        base[i] = false;
    }
    replays += 1;
    if !trace.subset_sat(&base) {
        soft = (0..n).filter(|&i| universe[i]).collect();
        base = vec![false; n];
    }

    let weights = constraint_weights(prog, trace);
    // Grow order: descending weight keeps expensive-to-blame clauses on
    // the satisfiable side, so cheap ones land in the correction subset.
    let mut order = soft.clone();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));

    // One grow: hard base + forced members, then every other soft clause
    // in order, keeping each addition that stays satisfiable. The
    // complement of the grown MSS is an MCS (minimal by monotonicity of
    // unification). `None` when the forced set conflicts with the base
    // or the replay budget ran out mid-grow.
    let grow = |forced: &[usize], replays: &mut u64| -> Option<Vec<usize>> {
        let mut keep = base.clone();
        for &f in forced {
            keep[f] = true;
        }
        if *replays >= MAX_REPLAYS {
            return None;
        }
        *replays += 1;
        if !trace.subset_sat(&keep) {
            return None;
        }
        let mut correction = Vec::new();
        for &c in &order {
            if forced.contains(&c) {
                continue;
            }
            if *replays >= MAX_REPLAYS {
                return None;
            }
            keep[c] = true;
            *replays += 1;
            if !trace.subset_sat(&keep) {
                keep[c] = false;
                correction.push(c);
            }
        }
        correction.sort_unstable();
        Some(correction)
    };

    // Shrink-and-block enumeration, breadth-first over blocked members.
    let mut found: Vec<Vec<usize>> = Vec::new();
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut queue: VecDeque<Vec<usize>> = VecDeque::new();
    if !soft.is_empty() {
        if let Some(first) = grow(&[], &mut replays) {
            debug_assert!(!first.is_empty(), "full system is unsat, so the first grow must skip");
            if seen.insert(first.clone()) {
                queue.push_back(first);
            }
        }
    }
    while let Some(m) = queue.pop_front() {
        found.push(m.clone());
        if found.len() >= MAX_SUBSETS {
            break;
        }
        for &c in &m {
            if found.len() + queue.len() >= MAX_SUBSETS {
                break;
            }
            if let Some(alt) = grow(&[c], &mut replays) {
                if !alt.is_empty() && seen.insert(alt.clone()) {
                    queue.push_back(alt);
                }
            }
        }
    }

    // Rank: cheapest total weight first, then smallest, then source order.
    let total = |s: &[usize]| s.iter().map(|&i| weights[i]).sum::<u64>();
    found.sort_by(|a, b| total(a).cmp(&total(b)).then(a.len().cmp(&b.len())).then(a.cmp(b)));

    let subsets: Vec<CorrectionSubset> = found
        .iter()
        .map(|s| CorrectionSubset {
            weight: total(s),
            members: s
                .iter()
                .map(|&i| {
                    let c = &trace.constraints[i];
                    let (f, e) = pretty_pair(&c.found, &c.expected);
                    McsMember {
                        constraint: Some(i),
                        span: c.span,
                        hint: format!("this expression is required to have type {e}, found {f}"),
                    }
                })
                .collect(),
        })
        .collect();

    // Core and per-span scores: the same shrinker and aggregation as
    // blame analysis, but the corrections feeding the scores are the
    // enumerated MCSes — the "richer ranking" guidance consumes.
    let core = trace.shrink_unsat_core(&universe);
    replays += universe.iter().filter(|&&u| u).count() as u64;
    let spans = score_spans(trace, &core, &found);
    let solve = solve_start.elapsed();

    Some(McsAnalysis {
        error,
        core_size: core.len(),
        subsets,
        soft_clauses: soft.len(),
        hard_clauses: n - soft.len(),
        replays,
        solve,
        elapsed: start.elapsed(),
        spans,
    })
}

/// Naming errors admit no constraint subset; for unbound values the
/// backend still ranks alternative repairs: the nearest in-scope names
/// by edit distance, each a singleton candidate subset weighted by its
/// distance. Heuristic hints, not replay-verified corrections.
fn naming_analysis(prog: &Program, error: TypeError, start: Instant) -> McsAnalysis {
    let subsets = match &error.kind {
        TypeErrorKind::UnboundVar(name) => name_repair_subsets(prog, name, error.span),
        _ => Vec::new(),
    };
    McsAnalysis {
        spans: vec![SpanBlame { span: error.span, score: 1.0, in_core: false, fixes_alone: true }],
        error,
        core_size: 0,
        subsets,
        soft_clauses: 0,
        hard_clauses: 0,
        replays: 0,
        solve: Duration::ZERO,
        elapsed: start.elapsed(),
    }
}

/// Candidate replacement names for an unbound variable: stdlib values
/// plus bindings declared strictly before the error, ranked by edit
/// distance (qualified names also match on their last segment).
fn name_repair_subsets(prog: &Program, name: &str, span: Span) -> Vec<CorrectionSubset> {
    let mut best: BTreeMap<String, u64> = BTreeMap::new();
    let mut consider = |cand: &str| {
        if cand == name {
            return;
        }
        let last = cand.rsplit('.').next().unwrap_or(cand);
        let d = edit_distance(name, last).min(edit_distance(name, cand)) as u64;
        let e = best.entry(cand.to_owned()).or_insert(u64::MAX);
        *e = (*e).min(d);
    };
    for n in stdlib_env().stdlib.keys() {
        consider(n);
    }
    for decl in &prog.decls {
        if decl.span().end <= span.start {
            if let DeclKind::Let { bindings, .. } = decl.kind() {
                for b in bindings {
                    b.pat.walk(&mut |p| {
                        if let PatKind::Var(n) = &p.kind {
                            consider(n);
                        }
                    });
                }
            }
        }
    }
    let mut ranked: Vec<(u64, String)> = best.into_iter().map(|(n, d)| (d, n)).collect();
    ranked.sort();
    ranked.truncate(MAX_NAME_CANDIDATES);
    ranked
        .into_iter()
        .map(|(d, cand)| CorrectionSubset {
            weight: d,
            members: vec![McsMember {
                constraint: None,
                span,
                hint: format!("replace `{name}` with `{cand}`"),
            }],
        })
        .collect()
}

/// Plain Levenshtein distance, O(|a|·|b|) with two rows.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;

    fn mcs(src: &str) -> McsAnalysis {
        analyze_mcs(&parse_program(src).unwrap()).expect("program should be ill-typed")
    }

    #[test]
    fn well_typed_programs_yield_no_analysis() {
        let prog = parse_program("let x = 1 + 2").unwrap();
        assert!(analyze_mcs(&prog).is_none());
    }

    #[test]
    fn ambiguous_conflicts_enumerate_alternative_subsets() {
        // `g` is used at int and at bool: either use site is a minimal
        // correction, so at least two alternatives must be ranked.
        let a = mcs("let f g = (g 1) + (g true)");
        assert!(a.subsets.len() >= 2, "got {} subsets", a.subsets.len());
        for w in a.subsets.windows(2) {
            assert!(w[0].weight <= w[1].weight, "subsets must rank cheapest first");
        }
        for s in &a.subsets {
            assert!(!s.members.is_empty());
            for m in &s.members {
                assert!(m.constraint.is_some());
                assert!(!m.span.is_empty());
            }
        }
    }

    #[test]
    fn list_element_conflicts_offer_both_elements() {
        let a = mcs("let xs = [1; true]");
        assert!(a.subsets.len() >= 2, "got {} subsets", a.subsets.len());
    }

    #[test]
    fn every_subset_restores_satisfiability_when_removed() {
        for src in ["let f g = (g 1) + (g true)", "let xs = [1; true]", "let x = 3 + true"] {
            let prog = parse_program(src).unwrap();
            let a = analyze_mcs(&prog).unwrap();
            let trace = seminal_typeck::trace_program(&prog);
            for s in &a.subsets {
                let mut keep = vec![true; trace.constraints.len()];
                for m in &s.members {
                    keep[m.constraint.unwrap()] = false;
                }
                assert!(
                    trace.subset_sat(&keep),
                    "{src}: removing a reported subset must restore satisfiability"
                );
            }
        }
    }

    #[test]
    fn subsets_are_minimal() {
        // Dropping any single member from a reported subset must leave
        // the system unsatisfiable — otherwise the subset was not an MCS.
        let src = "let f g = (g 1) + (g true)";
        let prog = parse_program(src).unwrap();
        let a = analyze_mcs(&prog).unwrap();
        let trace = seminal_typeck::trace_program(&prog);
        for s in &a.subsets {
            if s.members.len() < 2 {
                continue;
            }
            for skip in 0..s.members.len() {
                let mut keep = vec![true; trace.constraints.len()];
                for (k, m) in s.members.iter().enumerate() {
                    if k != skip {
                        keep[m.constraint.unwrap()] = false;
                    }
                }
                assert!(!trace.subset_sat(&keep), "a proper sub-subset already restores SAT");
            }
        }
    }

    #[test]
    fn unbound_variables_rank_near_name_repairs() {
        let a = mcs("let main = print_");
        assert_eq!(a.core_size, 0);
        assert!(a.subsets.len() >= 2, "got {} subsets", a.subsets.len());
        assert!(a.subsets.iter().all(|s| s.members[0].constraint.is_none()));
        assert!(
            a.subsets.iter().any(|s| s.members[0].hint.contains("print_")),
            "hints should mention the unbound name: {:?}",
            a.subsets.iter().map(|s| &s.members[0].hint).collect::<Vec<_>>()
        );
        for w in a.subsets.windows(2) {
            assert!(w[0].weight <= w[1].weight);
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let prog = parse_program("let f g = (g 1) + (g true)").unwrap();
        let (a, b) = (analyze_mcs(&prog).unwrap(), analyze_mcs(&prog).unwrap());
        assert_eq!(a.subsets, b.subsets);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.replays, b.replays);
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("mean", "mean"), 0);
        assert_eq!(edit_distance("mean", "mem"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
