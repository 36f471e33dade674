//! Mechanical message judging.
//!
//! The paper judged messages by hand against what the student changed
//! next (§3.1), separately noting whether a message (a) identified a good
//! *location* and (b) *described the problem* correctly. Our corpus knows
//! the injected fault, so both judgments are mechanical, and both systems
//! are held to the same rubric:
//!
//! * **location_good** — the blamed span overlaps the fault, *and* the
//!   blamed location is actionable: replacing the blamed expression with
//!   the wildcard makes the program type-check. The second clause is the
//!   paper's own criterion — Figure 2 calls the checker's location
//!   *misleading* precisely because "no change at that location will make
//!   the program type-check".
//! * **accurate** — the message pins down the actual mistake: for the
//!   search system, the suggested rewrite inverts the mutation (exactly
//!   or by change family); for the checker, the blamed node *is* the
//!   mutated fragment and the error class matches the fault class.

use seminal_core::{ChangeKind, SearchReport, Suggestion};
use seminal_corpus::mutate::{GroundTruth, MutationKind};
use seminal_corpus::CorpusFile;
use seminal_ml::ast::{Expr, NodeId, Program};
use seminal_ml::edit;
use seminal_ml::parser::parse_program;
use seminal_ml::span::Span;
use seminal_typeck::{check_program, TypeError};

/// How good one message is, on the paper's two axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Judgment {
    /// The message points at a real, actionable fault site.
    pub location_good: bool,
    /// The message correctly describes the fault.
    pub accurate: bool,
}

impl Judgment {
    /// Scalar quality: 0 = useless, 1 = right place, 2 = right fix.
    pub fn score(self) -> u8 {
        match (self.location_good, self.accurate) {
            (_, true) => 2,
            (true, false) => 1,
            (false, false) => 0,
        }
    }

    const BAD: Judgment = Judgment { location_good: false, accurate: false };
}

/// How many ranked suggestions the "programmer" reads. The paper presents
/// one message but notes the ranker "would present both" on ties; three
/// matches the tool's UI budget.
pub const PRESENTED: usize = 3;

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ").replace(['(', ')'], "")
}

/// Judges the search system's presented messages (top [`PRESENTED`])
/// against the ground truth, taking the best.
pub fn judge_seminal(file: &CorpusFile, report: &SearchReport) -> Judgment {
    report
        .suggestions()
        .iter()
        .take(PRESENTED)
        .map(|s| judge_suggestion(file, s))
        .max_by_key(|j| j.score())
        .unwrap_or(Judgment::BAD)
}

/// Judges one suggestion against the file's faults.
pub fn judge_suggestion(file: &CorpusFile, s: &Suggestion) -> Judgment {
    let location_good = file.truths.iter().any(|t| spans_match(s, t));
    let accurate = location_good && file.truths.iter().any(|t| fix_matches(s, t));
    Judgment { location_good, accurate }
}

fn spans_match(s: &Suggestion, t: &GroundTruth) -> bool {
    if !(s.span.overlaps(t.span) || t.span.contains(s.span) || s.span.contains(t.span)) {
        return false;
    }
    // A change to a region much larger than the fault (e.g. "remove this
    // entire definition body") does not count as locating the fault —
    // exactly the §2.4 criticism of unteased wholesale removals.
    !(s.span.contains(t.span) && s.span.len() > 3 * t.span.len().max(10))
}

/// Whether the suggested change inverts the mutation, by exact fragment or
/// by change-family alignment.
fn fix_matches(s: &Suggestion, t: &GroundTruth) -> bool {
    if !spans_match(s, t) {
        return false;
    }
    // Exact inverse: the replacement is the original fragment.
    if normalize(&s.replacement_str) == normalize(&t.original) {
        return true;
    }
    // Family alignment.
    let desc = match &s.kind {
        ChangeKind::Constructive(d) => d.as_str(),
        ChangeKind::Adaptation => "adaptation",
        ChangeKind::Removal => "removal",
    };
    match t.kind {
        MutationKind::TupleParams => desc.contains("curried"),
        MutationKind::CurryParams => desc.contains("tuple"),
        MutationKind::SwapArgs => desc.contains("reorder"),
        MutationKind::DropArg => desc.contains("add an argument"),
        MutationKind::ExtraArg => {
            desc.contains("remove argument") || desc.contains("remove parameter")
        }
        MutationKind::IntFloatOp => desc.contains("float") || desc.contains("int"),
        MutationKind::PlusForConcat => desc.contains('^'),
        MutationKind::ListCommas => desc.contains("`;`"),
        MutationKind::UnboundVar => s.unbound_hint.is_some(),
        MutationKind::DropRec => s.replacement_str == "let rec" || desc.contains("recursive"),
        MutationKind::ConsAppend => desc.contains("::") || desc.contains('@'),
        MutationKind::WrongLiteral => false, // only the exact inverse counts
        MutationKind::EqAssign => desc.contains(":="),
        MutationKind::MissingUnitArg => desc.contains("`()`") || desc.contains("add an argument"),
        MutationKind::RefForField => desc.contains("<-"),
    }
}

/// The smallest expression node whose span contains `span` (ties broken
/// toward the deepest/smallest node).
fn blamed_node(prog: &Program, span: Span) -> Option<NodeId> {
    let mut best: Option<(&Expr, u32)> = None;
    for d in &prog.decls {
        d.for_each_expr(&mut |e| {
            if e.span.contains(span) {
                let width = e.span.len();
                if best.is_none_or(|(_, w)| width <= w) {
                    best = Some((e, width));
                }
            }
        });
    }
    best.map(|(e, _)| e.id)
}

/// Judges the conventional checker's message against the ground truth.
pub fn judge_baseline(file: &CorpusFile, err: &TypeError) -> Judgment {
    let overlap = |t: &GroundTruth| err.span.overlaps(t.span) || t.span.contains(err.span);
    let near_fault = file.truths.iter().any(overlap);
    if !near_fault {
        return Judgment::BAD;
    }
    let Ok(prog) = parse_program(&file.source) else {
        return Judgment::BAD;
    };
    // Declaration-level faults (missing `rec`) have no expression node to
    // probe; the blamed unbound use is inside the declaration, which is a
    // usable and accurate location (the checker's unbound-value report is
    // the message the paper credits in the `print` scenario, §3.3).
    if file.truths.iter().any(|t| t.path.is_none() && overlap(t)) {
        return Judgment { location_good: true, accurate: err.is_unbound() };
    }
    let Some(blamed) = blamed_node(&prog, err.span) else {
        return Judgment { location_good: false, accurate: false };
    };
    // Actionability on multi-error files is per-fault: the blamed
    // location is good if wildcarding it fixes the program outright, or
    // leaves only residual errors at *other* known fault sites (the
    // checker reporting the first of several errors precisely is exactly
    // what §2.4 credits it for).
    let location_good = match check_program(&edit::remove_expr(&prog, blamed)) {
        Ok(()) => true,
        Err(residual) => file.truths.iter().any(|t2| {
            let residual_here = residual.span.overlaps(t2.span) || t2.span.contains(residual.span);
            let same_fault = err.span.overlaps(t2.span) || t2.span.contains(err.span);
            residual_here && !same_fault
        }),
    };
    // Accurate: the checker blames the mutated fragment itself or one of
    // its direct children (its operands), with the right error class —
    // "This expression has type float but is used with type int" at an
    // operand of a mutated operator is a problem-describing message; the
    // same words three levels deep inside a wrong lambda are not.
    let accurate = location_good
        && file.truths.iter().any(|t| {
            if !overlap(t) {
                return false;
            }
            let class_ok = match t.kind {
                MutationKind::UnboundVar | MutationKind::DropRec => err.is_unbound(),
                _ => !err.is_unbound(),
            };
            class_ok && blames_fault_node(&prog, blamed, t)
        });
    Judgment { location_good, accurate }
}

/// Whether `blamed` is the fault node itself or one of its direct
/// children.
fn blames_fault_node(prog: &Program, blamed: NodeId, t: &GroundTruth) -> bool {
    let Some(path) = &t.path else { return false };
    let Some(fault) = seminal_corpus::path::expr_at_path(prog, path) else {
        return false;
    };
    if fault.id == blamed {
        return true;
    }
    let mut direct_child = false;
    fault.for_each_child(&mut |c| {
        if c.id == blamed {
            direct_child = true;
        }
    });
    direct_child
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_core::SearchSession;
    use seminal_corpus::mutate::mutate;
    use seminal_corpus::templates::TEMPLATES;
    use seminal_obs::SplitMix64;
    use seminal_typeck::TypeCheckOracle;

    fn file_from(template_name: &str, kind: MutationKind, seed: u64) -> CorpusFile {
        let t = TEMPLATES.iter().find(|t| t.name == template_name).unwrap();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let m = mutate(t.source, &[kind], 1, &mut rng).expect("mutant");
        CorpusFile {
            id: "test".into(),
            programmer: 1,
            assignment: t.assignment,
            template: t.name,
            source: m.source,
            truths: m.truths,
        }
    }

    #[test]
    fn tuple_params_fault_judged_accurate_for_seminal() {
        let file = file_from("map2_combine", MutationKind::TupleParams, 5);
        let prog = parse_program(&file.source).unwrap();
        let report = SearchSession::builder(TypeCheckOracle::new()).build().unwrap().search(&prog);
        let j = judge_seminal(&file, &report);
        assert!(j.location_good, "best: {:?}", report.best().map(|s| &s.original_str));
        assert!(j.accurate);
    }

    #[test]
    fn baseline_misleading_location_is_penalized() {
        // The Figure 2 dynamic: the checker blames `x + y` inside the
        // tupled lambda — a location where no change can help.
        let file = file_from("map2_combine", MutationKind::TupleParams, 5);
        let prog = parse_program(&file.source).unwrap();
        let err = check_program(&prog).unwrap_err();
        let j = judge_baseline(&file, &err);
        assert!(!j.location_good, "the paper calls this location misleading");
        assert!(!j.accurate);
    }

    #[test]
    fn baseline_unbound_variable_is_credited() {
        let file = file_from("sum_len_rev", MutationKind::UnboundVar, 9);
        let prog = parse_program(&file.source).unwrap();
        let err = check_program(&prog).unwrap_err();
        let j = judge_baseline(&file, &err);
        assert!(j.location_good);
        assert!(j.accurate, "checker is accurate for unbound variables");
    }

    #[test]
    fn score_ordering() {
        assert!(Judgment { location_good: true, accurate: true }.score() == 2);
        assert!(Judgment { location_good: true, accurate: false }.score() == 1);
        assert!(Judgment { location_good: false, accurate: false }.score() == 0);
    }

    #[test]
    fn judging_is_symmetric_in_effort() {
        // Both systems judged against the same ground truth on the same
        // file — a smoke test that neither path panics across kinds.
        for (i, kind) in [
            ("sum_len_rev", MutationKind::UnboundVar),
            ("map2_combine", MutationKind::TupleParams),
            ("float_stats", MutationKind::IntFloatOp),
        ] {
            let file = file_from(i, kind, 31);
            let prog = parse_program(&file.source).unwrap();
            let err = check_program(&prog).unwrap_err();
            let report =
                SearchSession::builder(TypeCheckOracle::new()).build().unwrap().search(&prog);
            let _ = judge_baseline(&file, &err);
            let _ = judge_seminal(&file, &report);
        }
    }
}
