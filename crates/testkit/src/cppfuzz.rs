//! A smaller, index-keyed fuzz loop for the C++ prototype (§4).
//!
//! The C++ front end's enumeration is flat, so its chaos injection is
//! keyed by probe *index* rather than program text — and so is this
//! loop: every case is assembled from `(seed, index)` out of a small
//! grammar of STL-slice calls (algorithm, iterator arguments in a
//! drawn order, functor), some of which are well-typed (counted
//! vacuous, skipped). Its invariants: every accepted suggestion
//! strictly reduces the error count, and a `Complete` search isolated
//! no probe faults.

use seminal_cpp::{parse_cpp, CppChaos, CppReport, CppSearchSession};
use seminal_obs::{Json, SplitMix64};

use crate::gen::case_seed;

/// One C++ fuzz run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct CppFuzzConfig {
    /// Run seed.
    pub seed: u64,
    /// Number of cases.
    pub cases: u64,
    /// Index-keyed panic injection rate (0 = off), seeded by `seed`.
    pub chaos_panic_per_mille: u16,
}

impl CppFuzzConfig {
    /// Standard configuration: no chaos.
    pub fn new(seed: u64, cases: u64) -> CppFuzzConfig {
        CppFuzzConfig { seed, cases, chaos_panic_per_mille: 0 }
    }
}

/// One failing C++ case.
#[derive(Debug, Clone)]
pub struct CppFuzzFailure {
    /// Case index within the run.
    pub index: u64,
    /// Which invariant fired.
    pub invariant: &'static str,
    /// Evidence.
    pub detail: String,
    /// The case source.
    pub source: String,
}

impl CppFuzzFailure {
    /// One JSONL record.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("case".to_owned(), Json::Num(self.index)),
            ("front_end".to_owned(), Json::Str("cpp".to_owned())),
            ("invariant".to_owned(), Json::Str(self.invariant.to_owned())),
            ("detail".to_owned(), Json::Str(self.detail.clone())),
            ("source".to_owned(), Json::Str(self.source.clone())),
        ])
    }
}

/// Aggregate counters and failures of one C++ run.
#[derive(Debug, Clone, Default)]
pub struct CppFuzzSummary {
    /// Cases requested.
    pub cases: u64,
    /// Cases whose invariants ran (ill-typed and parsed).
    pub executed: u64,
    /// Well-typed draws, counted and skipped.
    pub vacuous: u64,
    /// Draws the mini-C++ parser rejected.
    pub parse_rejected: u64,
    /// Every failing case.
    pub failures: Vec<CppFuzzFailure>,
}

impl CppFuzzSummary {
    /// Whether the run found no invariant violations.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        format!(
            "cppfuzz.cases          {}\ncppfuzz.executed       {}\n\
             cppfuzz.vacuous_cases  {}\ncppfuzz.parse_rejected {}\ncppfuzz.failures       {}\n",
            self.cases,
            self.executed,
            self.vacuous,
            self.parse_rejected,
            self.failures.len()
        )
    }
}

const FUNCTORS: [&str; 6] = [
    "negate<long>()",
    "multiplies<long>()",
    "less<long>()",
    "bind1st(multiplies<long>(), 5)",
    "bind1st(less<long>(), 0)",
    "labs",
];

/// Assembles case `index`: an STL call with drawn functor and argument
/// order, optionally followed by an independent second bad statement.
fn generate_cpp_case(seed: u64, index: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(case_seed(seed, index).wrapping_add(0xC0FFEE));
    let functor = FUNCTORS[rng.random_range(0..FUNCTORS.len())];
    let mut args = ["v.begin()", "v.end()", functor];
    // Draw an argument order: identity, swap iterators, or move the
    // functor forward (the paper's swapped-argument scenarios).
    match rng.random_range(0..4usize) {
        0 => {}
        1 => args.swap(0, 1),
        2 => args.swap(1, 2),
        _ => args.swap(0, 2),
    }
    let call = match rng.random_range(0..2usize) {
        0 => format!("for_each({}, {}, {});", args[0], args[1], args[2]),
        _ => format!("int n = count_if({}, {}, {}); print_long(n);", args[0], args[1], args[2]),
    };
    let second =
        if rng.random_range(0..3usize) == 0 { "\n  long x = v;\n  print_long(x);" } else { "" };
    format!("void f(vector<long>& v) {{\n  {call}{second}\n}}\n")
}

fn run_session(src: &str, cfg: &CppFuzzConfig) -> Option<CppReport> {
    let prog = parse_cpp(src).ok()?;
    let mut builder = CppSearchSession::builder();
    if cfg.chaos_panic_per_mille > 0 {
        builder =
            builder.chaos(CppChaos { seed: cfg.seed, panic_per_mille: cfg.chaos_panic_per_mille });
    }
    Some(builder.build().ok()?.search(&prog))
}

/// Runs one C++ fuzz campaign; deterministic in `cfg`. Injected panics
/// are kept off stderr, as in [`crate::run_fuzz`].
pub fn run_cpp_fuzz(cfg: &CppFuzzConfig) -> CppFuzzSummary {
    if cfg.chaos_panic_per_mille > 0 {
        seminal_obs::silence_injected_panics();
    }
    let mut summary = CppFuzzSummary { cases: cfg.cases, ..CppFuzzSummary::default() };
    for index in 0..cfg.cases {
        let source = generate_cpp_case(cfg.seed, index);
        let Ok(prog) = parse_cpp(&source) else {
            summary.parse_rejected += 1;
            continue;
        };
        if seminal_cpp::check(&prog).is_empty() {
            summary.vacuous += 1;
            continue;
        }
        let Some(report) = run_session(&source, cfg) else {
            summary.parse_rejected += 1;
            continue;
        };
        summary.executed += 1;
        let mut fail = |invariant: &'static str, detail: String| {
            summary.failures.push(CppFuzzFailure {
                index,
                invariant,
                detail,
                source: source.clone(),
            });
        };
        for s in &report.suggestions {
            if s.errors_after >= s.errors_before {
                fail(
                    "suggestion-reduces-errors",
                    format!(
                        "accepted `{}` -> `{}` leaves {} of {} errors",
                        s.original, s.replacement, s.errors_after, s.errors_before
                    ),
                );
            }
        }
        if report.completion.is_complete() && report.probe_faults > 0 {
            fail(
                "completion-consistency",
                format!("Complete with {} probe faults", report.probe_faults),
            );
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_clean_cpp_run_finds_nothing() {
        let summary = run_cpp_fuzz(&CppFuzzConfig::new(42, 20));
        assert!(summary.ok(), "clean run reported failures: {:#?}", summary.failures);
        assert_eq!(summary.executed + summary.vacuous + summary.parse_rejected, 20);
        assert!(summary.executed > 0, "no ill-typed C++ case in 20 draws");
    }

    #[test]
    fn cpp_runs_survive_index_keyed_panic_injection() {
        // Injected panics are isolated and index-keyed, so the
        // invariants must still hold at 10% faults.
        let cfg = CppFuzzConfig { chaos_panic_per_mille: 100, ..CppFuzzConfig::new(11, 15) };
        let summary = run_cpp_fuzz(&cfg);
        assert!(summary.ok(), "chaos run reported failures: {:#?}", summary.failures);
    }
}
