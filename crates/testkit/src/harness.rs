//! The fuzz driver behind `seminal fuzz`.
//!
//! A run is a pure function of its [`FuzzConfig`]: generate case `i`,
//! classify it (parse reject / vacuous / executed), run the invariant
//! catalog, and — on violation — optionally shrink the case while the
//! violated invariant still fires. Vacuous cases (mutation chains that
//! still type-check) are *counted and skipped*, never asserted on:
//! `fuzz.vacuous_cases` in the summary is the satellite fix for chains'
//! missing ill-typed guarantee.

use crate::gen::generate_case;
use crate::oracles::InvariantSuite;
use crate::shrink::shrink;
use seminal_ml::parser::parse_program;
use seminal_obs::Json;
use seminal_typeck::{check_program, ChaosConfig};
use std::collections::BTreeMap;

/// One fuzz run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Run seed; every case derives from it deterministically.
    pub seed: u64,
    /// Number of cases to generate.
    pub cases: u64,
    /// Whether to minimize failing cases before recording them.
    pub shrink: bool,
    /// Optional fault injection around the search oracle (the
    /// intentional-violation mode of the acceptance criteria).
    pub chaos: Option<ChaosConfig>,
    /// Property-evaluation budget per shrink.
    pub max_shrink_evals: usize,
    /// Oracle mode of the suite's primary runs: checkpointed incremental
    /// (the shipping default) or from-scratch (`--no-incremental`). The
    /// incremental-vs-scratch differential invariant runs either way.
    pub incremental: bool,
}

impl FuzzConfig {
    /// The standard configuration: shrinking off, no chaos, incremental
    /// oracle on.
    pub fn new(seed: u64, cases: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            cases,
            shrink: false,
            chaos: None,
            max_shrink_evals: 400,
            incremental: true,
        }
    }
}

/// One failing case, with enough context to replay it alone.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the run.
    pub index: u64,
    /// Generator family label.
    pub family: &'static str,
    /// The per-case seed ([`crate::gen::case_seed`]).
    pub seed: u64,
    /// The first violated invariant (catalog identifier).
    pub invariant: &'static str,
    /// All violations' details, one per line.
    pub detail: String,
    /// The original failing source.
    pub source: String,
    /// The minimized source, when shrinking was on.
    pub shrunk: Option<String>,
    /// Expression-node count of the minimized program.
    pub shrunk_nodes: Option<usize>,
}

impl FuzzFailure {
    /// One JSONL record (numbers are u64; the node count fits).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("case".to_owned(), Json::Num(self.index)),
            ("family".to_owned(), Json::Str(self.family.to_owned())),
            ("seed".to_owned(), Json::Num(self.seed)),
            ("invariant".to_owned(), Json::Str(self.invariant.to_owned())),
            ("detail".to_owned(), Json::Str(self.detail.clone())),
            ("source".to_owned(), Json::Str(self.source.clone())),
        ];
        if let Some(shrunk) = &self.shrunk {
            members.push(("shrunk".to_owned(), Json::Str(shrunk.clone())));
        }
        if let Some(nodes) = self.shrunk_nodes {
            members.push(("shrunk_nodes".to_owned(), Json::Num(nodes as u64)));
        }
        Json::Obj(members)
    }
}

/// Aggregate counters and failures of one run.
#[derive(Debug, Clone, Default)]
pub struct FuzzSummary {
    /// Cases requested (`fuzz.cases`).
    pub cases: u64,
    /// Cases whose invariant catalog actually ran (`fuzz.executed`).
    pub executed: u64,
    /// Generated programs that still type-check (`fuzz.vacuous_cases`) —
    /// counted and skipped, never asserted on.
    pub vacuous: u64,
    /// Generated texts rejected by the parser (`fuzz.parse_rejected`) —
    /// expected from the deep-nesting family straddling `MAX_DEPTH`.
    pub parse_rejected: u64,
    /// Cases generated per family label.
    pub per_family: BTreeMap<&'static str, u64>,
    /// Every failing case, in generation order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzSummary {
    /// Whether the run found no invariant violations.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable summary block (stable `fuzz.*` metric names).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "fuzz.cases           {}", self.cases);
        let _ = writeln!(out, "fuzz.executed        {}", self.executed);
        let _ = writeln!(out, "fuzz.vacuous_cases   {}", self.vacuous);
        let _ = writeln!(out, "fuzz.parse_rejected  {}", self.parse_rejected);
        let _ = writeln!(out, "fuzz.failures        {}", self.failures.len());
        for (family, n) in &self.per_family {
            let _ = writeln!(out, "fuzz.family.{family:<15} {n}");
        }
        out
    }
}

/// Runs one fuzz campaign. Deterministic in `cfg`; failures carry
/// per-case seeds for standalone replay. When chaos panic injection is
/// configured, injected panics are kept off stderr
/// ([`seminal_obs::silence_injected_panics`]); the search's fault
/// tolerance isolates them either way.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzSummary {
    if cfg.chaos.is_some_and(|c| c.panic_per_mille > 0) {
        seminal_obs::silence_injected_panics();
    }
    let mut suite = InvariantSuite::new().with_incremental(cfg.incremental);
    if let Some(chaos) = cfg.chaos {
        suite = suite.with_chaos(chaos);
    }
    let mut summary = FuzzSummary { cases: cfg.cases, ..FuzzSummary::default() };
    for index in 0..cfg.cases {
        let case = generate_case(cfg.seed, index);
        *summary.per_family.entry(case.family.label()).or_insert(0) += 1;
        let Ok(prog) = parse_program(&case.source) else {
            summary.parse_rejected += 1;
            continue;
        };
        if check_program(&prog).is_ok() {
            // The satellite fix: mutation chains carry no ill-typed
            // guarantee (and any generator family could in principle
            // produce a well-typed draw), so vacuous results are
            // counted, reported, and skipped — never asserted on.
            summary.vacuous += 1;
            continue;
        }
        summary.executed += 1;
        let violations = suite.check_case(&prog);
        let Some(first) = violations.first() else { continue };
        let invariant = first.invariant;
        let detail = violations
            .iter()
            .map(|v| format!("{}: {}", v.invariant, v.detail))
            .collect::<Vec<_>>()
            .join("\n");
        let (shrunk, shrunk_nodes) = if cfg.shrink {
            let out = shrink(&prog, cfg.max_shrink_evals, &mut |p| {
                suite.check_case(p).iter().any(|v| v.invariant == invariant)
            });
            (Some(out.source), Some(out.program.size()))
        } else {
            (None, None)
        };
        summary.failures.push(FuzzFailure {
            index,
            family: case.family.label(),
            seed: case.seed,
            invariant,
            detail,
            source: case.source,
            shrunk,
            shrunk_nodes,
        });
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::{INV_OUTCOME_AGREEMENT, INV_SUGGESTION_REVALIDATES};

    #[test]
    fn a_short_clean_run_finds_nothing() {
        let summary = run_fuzz(&FuzzConfig::new(42, 12));
        assert!(summary.ok(), "clean run reported failures: {:#?}", summary.failures);
        assert_eq!(summary.cases, 12);
        assert_eq!(
            summary.executed + summary.vacuous + summary.parse_rejected,
            12,
            "every case classified exactly once"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_fuzz(&FuzzConfig::new(7, 10));
        let b = run_fuzz(&FuzzConfig::new(7, 10));
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.vacuous, b.vacuous);
        assert_eq!(a.parse_rejected, b.parse_rejected);
        assert_eq!(a.per_family, b.per_family);
    }

    #[test]
    fn flip_chaos_failures_are_found_and_shrunk_small() {
        // The acceptance-criterion path: an injected verdict flip must
        // be caught by the catalog and shrunk to a tiny regression.
        let cfg = FuzzConfig {
            chaos: Some(seminal_typeck::ChaosConfig::flips(1729, 1000)),
            shrink: true,
            ..FuzzConfig::new(42, 6)
        };
        let summary = run_fuzz(&cfg);
        assert!(!summary.ok(), "total verdict inversion went unnoticed");
        let caught = summary
            .failures
            .iter()
            .find(|f| {
                f.invariant == INV_SUGGESTION_REVALIDATES || f.invariant == INV_OUTCOME_AGREEMENT
            })
            .expect("a differential invariant fired");
        let nodes = caught.shrunk_nodes.expect("shrinking was on");
        assert!(nodes <= 20, "shrunk regression has {nodes} nodes (> 20)");
        let json = caught.to_json().to_string_compact();
        assert!(json.contains("\"invariant\""));
    }
}
