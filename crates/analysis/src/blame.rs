//! Core shrinking, correction-subset enumeration, and span scoring.

use seminal_ml::ast::Program;
use seminal_ml::span::Span;
use seminal_typeck::record::ConstraintTrace;
use seminal_typeck::{trace_program, TypeError};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Cap on enumerated correction subsets: the scores only need the small
/// ones (|subset| ≤ 2), and every extra candidate costs a replay.
const MAX_CORRECTION_SETS: usize = 8;

/// Blame attached to one source span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBlame {
    pub span: Span,
    /// Normalized blame in `(0, 1]`; the top span scores exactly 1.0.
    pub score: f64,
    /// Whether a constraint at this span is in the minimal unsat core.
    pub in_core: bool,
    /// Whether deleting this span's constraints alone restores
    /// satisfiability — the strongest "the fix is here" signal.
    pub fixes_alone: bool,
}

/// The outcome of blame analysis on an ill-typed program.
#[derive(Debug, Clone)]
pub struct BlameAnalysis {
    /// The baseline first error (exactly what `check_program` reports).
    pub error: TypeError,
    /// The deletion-shrunk minimal unsatisfiable core, as ascending
    /// indices into the recorded constraint list; empty when the error
    /// is a naming/arity error no constraint subset can explain.
    pub core: Vec<usize>,
    /// The enumerated correction subsets (bounded), each as ascending
    /// constraint indices whose deletion restores satisfiability.
    pub corrections: Vec<Vec<usize>>,
    /// Wall-clock cost of shrinking and enumerating, plus recording when
    /// [`analyze`] recorded the trace itself. Over a trace recorded
    /// earlier ([`analyze_trace`]) recording is left out: the search's
    /// oracle records while checking the baseline, or while seeding an
    /// empty chain in `constraint_trace` when a warm memo answered that
    /// check.
    pub elapsed: Duration,
    /// Blamed spans, highest score first (ties broken by source order).
    pub spans: Vec<SpanBlame>,
}

impl BlameAnalysis {
    /// The highest blame score of any blamed span overlapping `span` —
    /// an ancestor node inherits the blame of its blamed descendants,
    /// which is what lets the search order sibling subtrees.
    pub fn score_at(&self, span: Span) -> f64 {
        self.spans.iter().filter(|b| b.span.overlaps(span)).map(|b| b.score).fold(0.0, f64::max)
    }

    /// Whether no blamed span overlaps `span` — the pruning predicate:
    /// deleting every constraint induced elsewhere cannot involve this
    /// site in the conflict the analysis saw.
    pub fn is_zero_blame(&self, span: Span) -> bool {
        self.score_at(span) == 0.0
    }

    /// Blame quantized to thousandths, for integer tie-breaking in
    /// suggestion ranking. Positive scores never quantize to 0: a span
    /// with any blame at all must stay distinguishable from a zero-blame
    /// span, or the deferral predicate built on [`Self::is_zero_blame`]
    /// and this quantization would disagree about the same site.
    pub fn milli_score_at(&self, span: Span) -> u32 {
        milli(self.score_at(span))
    }
}

/// Quantizes a normalized score to thousandths, clamping positive scores
/// to at least 1 so they cannot collapse into the zero bucket (scores in
/// `(0, 0.0005)` used to round to 0 and read as "no blame").
pub(crate) fn milli(score: f64) -> u32 {
    let m = (score * 1000.0).round() as u32;
    if m == 0 && score > 0.0 {
        1
    } else {
        m
    }
}

/// Runs the blame pass: records constraints, shrinks a minimal
/// unsatisfiable core, enumerates bounded correction subsets, and
/// aggregates per-span scores. Returns `None` when `prog` is well-typed.
pub fn analyze(prog: &Program) -> Option<BlameAnalysis> {
    let start = Instant::now();
    analyze_from(&trace_program(prog), start)
}

/// [`analyze`] over an already-recorded trace of the program. Returns
/// `None` when the recording run succeeded.
pub fn analyze_trace(trace: &ConstraintTrace) -> Option<BlameAnalysis> {
    analyze_from(trace, Instant::now())
}

fn analyze_from(trace: &ConstraintTrace, start: Instant) -> Option<BlameAnalysis> {
    let error = match &trace.result {
        Ok(()) => return None,
        Err(e) => e.clone(),
    };

    if !trace.has_unsat_constraints() {
        // Naming/arity errors have no conflicting constraint subset; the
        // checker's own span is the whole localization.
        return Some(BlameAnalysis {
            error: error.clone(),
            core: Vec::new(),
            corrections: Vec::new(),
            elapsed: start.elapsed(),
            spans: vec![SpanBlame {
                span: error.span,
                score: 1.0,
                in_core: false,
                fixes_alone: true,
            }],
        });
    }

    // Every replay runs in the failing component: the same verdicts as
    // the whole list (see `replay_universe`) at a fraction of the cost.
    let universe = trace.replay_universe();
    let core = trace.shrink_unsat_core(&universe);
    let corrections = enumerate_corrections(trace, &universe, &core);
    let spans = score_spans(trace, &core, &corrections);

    Some(BlameAnalysis { error, core, corrections, elapsed: start.elapsed(), spans })
}

/// Enumerates a bounded set of minimal correction subsets drawn from the
/// core: first every singleton whose deletion restores satisfiability,
/// then pairs over the remaining core members. Subsets are minimal by
/// construction (a pair is only reported when neither member suffices
/// alone); restricting candidates to the shrunk core is the bounding
/// approximation — documented in DESIGN.md. Each candidate is replayed
/// as `universe` minus the candidate, which decides the same verdict as
/// the whole list minus it.
fn enumerate_corrections(
    trace: &ConstraintTrace,
    universe: &[bool],
    core: &[usize],
) -> Vec<Vec<usize>> {
    let mut found: Vec<Vec<usize>> = Vec::new();
    let mut singleton = vec![false; universe.len()];
    let mut keep = universe.to_vec();

    for &i in core {
        keep[i] = false;
        if trace.subset_sat(&keep) {
            singleton[i] = true;
            found.push(vec![i]);
        }
        keep[i] = true;
        if found.len() >= MAX_CORRECTION_SETS {
            return found;
        }
    }
    for (a, &i) in core.iter().enumerate() {
        if singleton[i] {
            continue;
        }
        for &j in &core[a + 1..] {
            if singleton[j] {
                continue;
            }
            keep[i] = false;
            keep[j] = false;
            let sat = trace.subset_sat(&keep);
            keep[i] = true;
            keep[j] = true;
            if sat {
                found.push(vec![i, j]);
                if found.len() >= MAX_CORRECTION_SETS {
                    return found;
                }
            }
        }
    }
    found
}

/// Folds core membership and correction-subset membership into one
/// normalized score per span. Aggregation is over a `BTreeMap` keyed by
/// span, so the result is deterministic. Shared with the MCS backend,
/// which passes its enumerated correction subsets as `corrections`.
pub(crate) fn score_spans(
    trace: &ConstraintTrace,
    core: &[usize],
    corrections: &[Vec<usize>],
) -> Vec<SpanBlame> {
    let mut raw: BTreeMap<Span, (f64, bool, bool)> = BTreeMap::new();
    let mut bump = |idx: usize, amount: f64, in_core: bool, alone: bool| {
        let span = trace.constraints[idx].span;
        if span.is_empty() {
            return; // synthesized node with no source position
        }
        let entry = raw.entry(span).or_insert((0.0, false, false));
        entry.0 += amount;
        entry.1 |= in_core;
        entry.2 |= alone;
    };

    let core_share = 1.0 / core.len().max(1) as f64;
    for &i in core {
        bump(i, core_share, true, false);
    }
    for subset in corrections {
        let share = 1.0 / subset.len() as f64;
        for &i in subset {
            bump(i, share, false, subset.len() == 1);
        }
    }

    let max = raw.values().map(|v| v.0).fold(0.0, f64::max);
    if max == 0.0 {
        return Vec::new();
    }
    let mut spans: Vec<SpanBlame> = raw
        .into_iter()
        .map(|(span, (score, in_core, fixes_alone))| SpanBlame {
            span,
            score: score / max,
            in_core,
            fixes_alone,
        })
        .collect();
    spans.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.span.cmp(&b.span)));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;

    fn analyzed(src: &str) -> BlameAnalysis {
        analyze(&parse_program(src).unwrap()).expect("program should be ill-typed")
    }

    #[test]
    fn well_typed_programs_yield_no_blame() {
        let prog = parse_program("let x = 1 + 2").unwrap();
        assert!(analyze(&prog).is_none());
    }

    #[test]
    fn simple_mismatch_blames_the_conflict() {
        let src = "let x = 3 + true";
        let a = analyzed(src);
        assert!(!a.core.is_empty());
        assert!(!a.spans.is_empty());
        assert_eq!(a.spans[0].score, 1.0);
        // The top span must touch the actual conflict.
        assert!(a.spans[0].span.overlaps(a.error.span));
    }

    #[test]
    fn unbound_variable_blames_its_own_span() {
        let a = analyzed("let x = missing_name + 1");
        assert!(a.core.is_empty());
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.spans[0].span, a.error.span);
        assert!(a.spans[0].fixes_alone);
    }

    #[test]
    fn scores_are_normalized_and_sorted() {
        let a = analyzed("let f g = (g 1) + (g true)");
        assert_eq!(a.spans[0].score, 1.0);
        for w in a.spans.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for b in &a.spans {
            assert!(b.score > 0.0 && b.score <= 1.0);
        }
    }

    #[test]
    fn score_at_sees_ancestors() {
        let src = "let x = 3 + true";
        let a = analyzed(src);
        let whole = Span::new(0, src.len() as u32);
        assert_eq!(a.score_at(whole), 1.0);
        assert!(a.is_zero_blame(Span::new(0, 3))); // `let` keyword
    }

    #[test]
    fn analysis_is_deterministic() {
        let prog = parse_program("let f g = (g 1) + (g true)").unwrap();
        let a = analyze(&prog).unwrap();
        let b = analyze(&prog).unwrap();
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.core, b.core);
        assert_eq!(a.corrections, b.corrections);
    }

    #[test]
    fn milli_score_quantizes() {
        let a = analyzed("let x = 3 + true");
        assert_eq!(a.milli_score_at(a.spans[0].span), 1000);
        assert_eq!(a.milli_score_at(Span::new(0, 3)), 0);
    }

    #[test]
    fn tiny_positive_scores_do_not_quantize_to_zero() {
        // A span with any blame at all must stay distinguishable from a
        // zero-blame span: scores in (0, 0.0005) used to round to 0 and
        // read as "no blame" to integer consumers, contradicting
        // `is_zero_blame` on the same span.
        use seminal_typeck::TypeErrorKind;
        let blamed = Span::new(0, 4);
        let a = BlameAnalysis {
            error: TypeError {
                kind: TypeErrorKind::Mismatch { found: "int".into(), expected: "bool".into() },
                span: blamed,
            },
            core: vec![0],
            corrections: Vec::new(),
            elapsed: Duration::ZERO,
            spans: vec![SpanBlame {
                span: blamed,
                score: 0.0004,
                in_core: true,
                fixes_alone: false,
            }],
        };
        assert!(!a.is_zero_blame(blamed));
        assert_eq!(a.milli_score_at(blamed), 1, "positive blame must quantize to >= 1");
        assert_eq!(a.milli_score_at(Span::new(10, 12)), 0, "zero blame still quantizes to 0");
    }
}
