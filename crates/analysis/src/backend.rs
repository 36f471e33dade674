//! The localization-backend abstraction.
//!
//! Two backends localize type errors over the same recorded constraint
//! system: PR 1's unsat-core **blame** analysis and the weighted **MCS**
//! enumerator ([`crate::mcs`]). Consumers that only need "where should I
//! look first" — the search's guidance, chiefly — call [`localize`] with
//! a [`BackendKind`] and get back a backend-agnostic
//! [`Localization`]: the baseline error, the shrunk core size, and a
//! normalized per-span score ranking, plus the solver counters the
//! observability layer exports (`analysis.backend`,
//! `mcs.subsets_enumerated`, `mcs.solve_ns`).

use crate::blame::{self, BlameAnalysis, SpanBlame};
use crate::mcs::{self, McsAnalysis};
use seminal_ml::ast::Program;
use seminal_ml::span::Span;
use seminal_typeck::{ConstraintTrace, TypeError};
use std::time::Duration;

/// Which localization backend to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Deletion-shrunk unsat-core blame analysis (PR 1; the default).
    #[default]
    Blame,
    /// Weighted minimal-correction-subset enumeration.
    Mcs,
}

impl BackendKind {
    /// Stable lowercase name, as accepted by `seminal analyze --backend`.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Blame => "blame",
            BackendKind::Mcs => "mcs",
        }
    }

    /// Numeric code for the `analysis.backend` metrics counter
    /// (counters are integers; 0 is reserved for "no analysis ran").
    pub fn metric_code(self) -> u64 {
        match self {
            BackendKind::Blame => 1,
            BackendKind::Mcs => 2,
        }
    }

    /// Parses a `--backend` argument.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "blame" => Some(BackendKind::Blame),
            "mcs" => Some(BackendKind::Mcs),
            _ => None,
        }
    }
}

/// Backend-agnostic localization of one ill-typed program — the shape
/// `seminal-core`'s search guidance consumes.
#[derive(Debug, Clone)]
pub struct Localization {
    /// Which backend produced this.
    pub backend: BackendKind,
    /// The baseline first error.
    pub error: TypeError,
    /// Deletion-shrunk unsat-core size (0 for naming errors).
    pub core_size: usize,
    /// Blamed spans, highest score first.
    pub spans: Vec<SpanBlame>,
    /// Correction subsets the backend enumerated (blame: bounded
    /// correction sets; MCS: ranked alternative MCSes).
    pub subsets_enumerated: u64,
    /// Pure solver time in nanoseconds (0 for blame, which does not
    /// separate solving from recording).
    pub solve_ns: u64,
    /// Wall-clock cost of the analysis; it includes recording only when
    /// the analysis recorded its own trace, never through [`localize`].
    pub elapsed: Duration,
}

impl Localization {
    /// The highest score of any blamed span overlapping `span` (an
    /// ancestor inherits the blame of its descendants).
    pub fn score_at(&self, span: Span) -> f64 {
        self.spans.iter().filter(|b| b.span.overlaps(span)).map(|b| b.score).fold(0.0, f64::max)
    }

    /// Whether no blamed span overlaps `span` — the deferral predicate.
    pub fn is_zero_blame(&self, span: Span) -> bool {
        self.score_at(span) == 0.0
    }

    /// Score quantized to thousandths for integer tie-breaking; positive
    /// scores never quantize to 0 (see [`BlameAnalysis::milli_score_at`]).
    pub fn milli_score_at(&self, span: Span) -> u32 {
        blame::milli(self.score_at(span))
    }

    /// Whether the analysis produced nothing rankable — an ill-typed
    /// program the backend could not localize (`seminal analyze` exit 6).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl BlameAnalysis {
    /// This analysis as the backend-agnostic guidance shape.
    pub fn into_localization(self) -> Localization {
        Localization {
            backend: BackendKind::Blame,
            core_size: self.core.len(),
            subsets_enumerated: self.corrections.len() as u64,
            solve_ns: 0,
            elapsed: self.elapsed,
            spans: self.spans,
            error: self.error,
        }
    }
}

impl McsAnalysis {
    /// This analysis as the backend-agnostic guidance shape.
    pub fn into_localization(self) -> Localization {
        Localization {
            backend: BackendKind::Mcs,
            core_size: self.core_size,
            subsets_enumerated: self.subsets.len() as u64,
            solve_ns: u64::try_from(self.solve.as_nanos()).unwrap_or(u64::MAX),
            elapsed: self.elapsed,
            spans: self.spans,
            error: self.error,
        }
    }
}

/// Localizes `prog` from `trace`, the recording of its inference (the
/// search takes its oracle's), with the chosen backend; `None` when
/// well-typed.
pub fn localize(
    prog: &Program,
    trace: &ConstraintTrace,
    kind: BackendKind,
) -> Option<Localization> {
    match kind {
        BackendKind::Blame => blame::analyze_trace(trace).map(BlameAnalysis::into_localization),
        BackendKind::Mcs => mcs::analyze_mcs_trace(prog, trace).map(McsAnalysis::into_localization),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;
    use seminal_typeck::trace_program;

    #[test]
    fn both_backends_agree_on_well_typedness() {
        for src in ["let x = 1 + 2", "let x = 1 + true", "let main = print_"] {
            let prog = parse_program(src).unwrap();
            let trace = trace_program(&prog);
            let b = localize(&prog, &trace, BackendKind::Blame);
            let m = localize(&prog, &trace, BackendKind::Mcs);
            assert_eq!(b.is_some(), m.is_some(), "{src}");
        }
    }

    #[test]
    fn localizations_carry_their_backend_tag() {
        let prog = parse_program("let x = 1 + true").unwrap();
        let trace = trace_program(&prog);
        let b = localize(&prog, &trace, BackendKind::Blame).unwrap();
        let m = localize(&prog, &trace, BackendKind::Mcs).unwrap();
        assert_eq!(b.backend, BackendKind::Blame);
        assert_eq!(m.backend, BackendKind::Mcs);
        assert_eq!(b.backend.metric_code(), 1);
        assert_eq!(m.backend.metric_code(), 2);
        assert!(m.subsets_enumerated >= 1);
        assert!(!b.is_empty() && !m.is_empty());
    }

    #[test]
    fn backend_names_round_trip_through_parse() {
        for k in [BackendKind::Blame, BackendKind::Mcs] {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("nope"), None);
        assert_eq!(BackendKind::default(), BackendKind::Blame);
    }

    #[test]
    fn score_queries_match_blame_analysis_semantics() {
        let src = "let x = 3 + true";
        let prog = parse_program(src).unwrap();
        let raw = crate::blame::analyze(&prog).unwrap();
        let loc = raw.clone().into_localization();
        let whole = seminal_ml::span::Span::new(0, src.len() as u32);
        assert_eq!(loc.score_at(whole), raw.score_at(whole));
        assert_eq!(loc.milli_score_at(whole), raw.milli_score_at(whole));
        assert_eq!(loc.is_zero_blame(whole), raw.is_zero_blame(whole));
    }
}
