//! Search configuration.
//!
//! The defaults correspond to the full tool of the paper's evaluation;
//! the flags exist so the evaluation harness can run the ablations of
//! Figure 5 (triage off) and Figure 7 (slow constructive change off).
//!
//! A [`SearchConfig`] is a plain struct: start from `Default` or an
//! ablation preset (the `without_*()` / `with_*()` constructors), change
//! fields with struct-update syntax, and hand it to
//! [`SearchSessionBuilder::config`](crate::SearchSessionBuilder::config).
//! The session builder's `build` runs [`SearchConfig::validate`], the one
//! validator, which rejects nonsense values (`threads == 0`, a zero
//! budget or deadline) with a typed [`ConfigError`] instead of letting
//! them panic deep inside a search. The search's fixed cut-offs (the
//! suggestion cap, the triage size and depth limits, the permutation
//! width and the trace ring sizes) are constants beside the code that
//! reads them.

use seminal_analysis::BackendKind;
use std::fmt;
use std::time::Duration;

/// A rejected [`SearchConfig`] value, reported by
/// [`SearchConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads` must be at least 1 (1 = the sequential engine).
    ZeroThreads,
    /// `max_oracle_calls` must be at least 1 (the baseline check).
    ZeroOracleBudget,
    /// `deadline`, when set, must be a positive duration.
    ZeroDeadline,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "`threads` must be >= 1 (1 = sequential)"),
            ConfigError::ZeroOracleBudget => write!(f, "`max_oracle_calls` must be >= 1"),
            ConfigError::ZeroDeadline => {
                write!(f, "`deadline` must be a positive duration when set")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The settings of one search: which stages run (the ablations), its
/// bounds (oracle calls, deadline), and its execution and observability
/// options. Validated once, by [`SearchConfig::validate`] when a
/// [`SearchSession`](crate::SearchSession) is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Enable the triage extension for multiple independent errors (§2.4).
    pub triage: bool,
    /// Enable adaptation-to-context changes (§2.3).
    pub adaptation: bool,
    /// Enable constructive changes (§2.2). With this off the system is the
    /// pure top-down-removal searcher of §2.1.
    pub constructive: bool,
    /// Use the deliberately exhaustive variant of the nested-`match`
    /// reparenthesizing change — the "performance bug in a single
    /// constructive change" the paper identifies in Figure 7.
    pub slow_match_reassoc: bool,
    /// Budget on oracle invocations; the search stops gracefully when
    /// exhausted (the paper measures cost in type-checker calls).
    pub max_oracle_calls: u64,
    /// Memoize probe outcomes by program fingerprint: different search
    /// paths often construct identical variants (e.g. a removal revisited
    /// during triage), and the checker is deterministic, so cached
    /// outcomes are always safe. Off by default so oracle-call counts
    /// stay comparable with the paper's cost model.
    pub memoize_oracle: bool,
    /// Capture the structured trace into
    /// [`SearchReport::records`](crate::search::SearchReport::records)
    /// (span open/close records plus one event per oracle probe), for
    /// debugging and for teaching how the search proceeds. Sinks attached
    /// with [`SearchSessionBuilder::sink`](crate::SearchSessionBuilder::sink)
    /// receive the stream regardless of this flag.
    pub collect_trace: bool,
    /// Keep the always-on flight recorder running: a fixed-capacity ring
    /// of the most recent trace records, attached as an extra sink on
    /// every search. When a run ends non-`Complete` or isolated probe
    /// faults occurred, the ring's tail plus the final metrics snapshot
    /// freeze into [`SearchReport::crash`](crate::search::SearchReport)
    /// for post-mortem debugging. On by default — the ring is lock-cheap
    /// and bounded, so ambient overhead stays within the `obs_overhead`
    /// bench budget.
    pub flight_recorder: bool,
    /// Use the constraint-blame analysis (unsat-core localization, see
    /// `seminal-analysis`) to focus the search: the first bad declaration
    /// is read off the baseline error instead of probed prefix-by-prefix,
    /// high-blame subtrees are visited first, and constructive/adaptation
    /// enumeration at zero-blame sites is deferred to a fallback pass.
    /// The fallback makes the guidance sound — no suggestion reachable
    /// with this off is lost while budget remains, only found later.
    pub blame_guidance: bool,
    /// Which localization backend feeds the guidance when
    /// `blame_guidance` is on: [`BackendKind::Blame`] (the PR 1
    /// unsat-core analysis, the default) or [`BackendKind::Mcs`] (the
    /// weighted minimal-correction-subset enumerator). Both are
    /// oracle-free, so the choice reorders probes but never changes the
    /// suggestion set or `oracle_calls`. Ignored when `blame_guidance`
    /// is off.
    pub guidance_backend: BackendKind,
    /// Worker threads for the parallel probe engine. At 1 (the default)
    /// the search runs the sequential engine, byte-identical to the
    /// pre-engine tool. Above 1, each enumeration frontier is drained
    /// through a work-stealing pool of scoped `std::thread` workers into
    /// a sharded memo cache; the suggestion set is unchanged (verdicts
    /// are deterministic) but duplicate probes become memo hits, so
    /// `oracle_calls` redistributes into `oracle_calls + memo_hits`.
    /// The default honors the `SEMINAL_THREADS` environment variable so
    /// CI can sweep a whole test suite through the parallel engine.
    pub threads: usize,
    /// Wall-clock deadline for one search, measured from the start of
    /// [`search`](crate::SearchSession::search). The baseline check
    /// always runs; after it, the sequential loop and the probe engine's
    /// workers stop cooperatively once the deadline passes, and the
    /// report carries the best-so-far suggestions with
    /// `Completion::DeadlineExpired`. `None` (the default) means
    /// unbounded. The default honors `SEMINAL_DEADLINE_MS` the way
    /// `threads` honors `SEMINAL_THREADS`.
    pub deadline: Option<Duration>,
    /// Wall-clock already consumed before the search started — queue
    /// wait under the serve daemon's admission control. Charged against
    /// `deadline` when the budget clock starts, so a request's
    /// `deadline_ms` bounds its *end-to-end* latency rather than
    /// restarting once a worker picks it up. When the lag meets or
    /// exceeds the deadline the search still runs its baseline check
    /// and reports `Completion::DeadlineExpired` with best-so-far
    /// suggestions. Zero (the default) charges nothing.
    pub admission_lag: Duration,
}

/// Default thread count: `SEMINAL_THREADS` when set to a positive
/// integer, else 1 (sequential). Read once per process.
fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SEMINAL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// Default per-search deadline: `SEMINAL_DEADLINE_MS` when set to a
/// positive integer (milliseconds), else unbounded. Read once per
/// process.
fn default_deadline() -> Option<Duration> {
    static DEADLINE: std::sync::OnceLock<Option<Duration>> = std::sync::OnceLock::new();
    *DEADLINE.get_or_init(|| {
        std::env::var("SEMINAL_DEADLINE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms >= 1)
            .map(Duration::from_millis)
    })
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            triage: true,
            adaptation: true,
            constructive: true,
            slow_match_reassoc: false,
            max_oracle_calls: 50_000,
            memoize_oracle: false,
            collect_trace: false,
            flight_recorder: true,
            blame_guidance: true,
            guidance_backend: BackendKind::Blame,
            threads: default_threads(),
            deadline: default_deadline(),
            admission_lag: Duration::ZERO,
        }
    }
}

impl SearchConfig {
    /// Checks the invariants the search engine relies on.
    ///
    /// # Errors
    ///
    /// The first violated [`ConfigError`] invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.max_oracle_calls == 0 {
            return Err(ConfigError::ZeroOracleBudget);
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDeadline);
        }
        Ok(())
    }

    /// The tool with triage disabled — the "without triage" arm of the
    /// evaluation (§3.2, Figures 5 and 7).
    pub fn without_triage() -> SearchConfig {
        SearchConfig { triage: false, ..SearchConfig::default() }
    }

    /// The tool with the slow reparenthesizing change enabled — the
    /// bottom curve of Figure 7.
    pub fn with_slow_match_reassoc() -> SearchConfig {
        SearchConfig { slow_match_reassoc: true, ..SearchConfig::default() }
    }

    /// Adaptation disabled (§2.3 ablation).
    pub fn without_adaptation() -> SearchConfig {
        SearchConfig { adaptation: false, ..SearchConfig::default() }
    }

    /// Constructive changes disabled (§2.2 ablation).
    pub fn without_constructive() -> SearchConfig {
        SearchConfig { constructive: false, ..SearchConfig::default() }
    }

    /// Blame guidance disabled — probe order and cost exactly match the
    /// paper's search, for the guidance ablation and its invariance tests.
    pub fn without_blame_guidance() -> SearchConfig {
        SearchConfig { blame_guidance: false, ..SearchConfig::default() }
    }

    /// Guidance fed by the weighted MCS backend instead of blame
    /// analysis — same probe set, richer ranking signal.
    pub fn with_mcs_guidance() -> SearchConfig {
        SearchConfig { guidance_backend: BackendKind::Mcs, ..SearchConfig::default() }
    }

    /// Pure removal search (§2.1), for ablation benches.
    pub fn removal_only() -> SearchConfig {
        SearchConfig {
            constructive: false,
            adaptation: false,
            triage: false,
            ..SearchConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_where_documented() {
        let full = SearchConfig::default();
        assert!(full.triage && full.adaptation && full.constructive);
        assert!(!full.slow_match_reassoc);
        assert!(!SearchConfig::without_triage().triage);
        assert!(SearchConfig::with_slow_match_reassoc().slow_match_reassoc);
        let removal = SearchConfig::removal_only();
        assert!(!removal.constructive && !removal.adaptation && !removal.triage);
        assert!(full.blame_guidance, "guidance is on by default");
        assert!(!SearchConfig::without_blame_guidance().blame_guidance);
        assert_eq!(full.guidance_backend, BackendKind::Blame);
        assert_eq!(SearchConfig::with_mcs_guidance().guidance_backend, BackendKind::Mcs);
        assert!(full.flight_recorder, "flight recorder defaults on");
    }

    #[test]
    fn validate_rejects_zero_bounds() {
        let d = SearchConfig::default;
        let zero_budget = SearchConfig { max_oracle_calls: 0, ..d() };
        assert_eq!(SearchConfig { threads: 0, ..d() }.validate(), Err(ConfigError::ZeroThreads));
        assert_eq!(zero_budget.validate(), Err(ConfigError::ZeroOracleBudget));
        let deadline = |limit| SearchConfig { deadline: limit, ..d() }.validate();
        assert_eq!(deadline(Some(Duration::ZERO)), Err(ConfigError::ZeroDeadline));
        assert!(deadline(Some(Duration::from_millis(50))).is_ok());
        assert!(deadline(None).is_ok());
        assert!(d().validate().is_ok());
        assert!(ConfigError::ZeroThreads.to_string().contains("threads"));
    }
}
