//! Search configuration.
//!
//! The defaults correspond to the full tool of the paper's evaluation;
//! the flags exist so the evaluation harness can run the ablations of
//! Figure 5 (triage off) and Figure 7 (slow constructive change off).
//!
//! Configurations are built either from a preset (the `full()` /
//! `without_*()` constructors) or through the validating
//! [`SearchConfig::builder`], which rejects nonsense values
//! (`threads == 0`, an empty trace ring) with a typed [`ConfigError`]
//! instead of letting them panic deep inside a search.

use seminal_analysis::BackendKind;
use std::fmt;
use std::time::Duration;

/// A rejected [`SearchConfig`] value, reported by
/// [`SearchConfigBuilder::build`] and [`SearchConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads` must be at least 1 (1 = the sequential engine).
    ZeroThreads,
    /// `trace_capacity` must be at least 1 record.
    ZeroTraceCapacity,
    /// `flight_capacity` must be at least 1 record.
    ZeroFlightCapacity,
    /// `max_oracle_calls` must be at least 1 (the baseline check).
    ZeroOracleBudget,
    /// `max_suggestions` must be at least 1.
    ZeroSuggestionCap,
    /// `deadline`, when set, must be a positive duration.
    ZeroDeadline,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "`threads` must be >= 1 (1 = sequential)"),
            ConfigError::ZeroTraceCapacity => write!(f, "`trace_capacity` must be >= 1 record"),
            ConfigError::ZeroFlightCapacity => write!(f, "`flight_capacity` must be >= 1 record"),
            ConfigError::ZeroOracleBudget => write!(f, "`max_oracle_calls` must be >= 1"),
            ConfigError::ZeroSuggestionCap => write!(f, "`max_suggestions` must be >= 1"),
            ConfigError::ZeroDeadline => {
                write!(f, "`deadline` must be a positive duration when set")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Tuning knobs for the [`Searcher`](crate::search::Searcher).
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
    /// Cap on suggestions gathered before the search stops early.
    pub max_suggestions: usize,
    /// Minimum node count for a subtree to be considered "a nontrivial
    /// number of descendants" worth triaging (§2.4).
    pub triage_size_threshold: usize,
    /// Maximum nesting of triage within triage.
    pub max_triage_depth: usize,
    /// Largest argument count for which full permutations are attempted
    /// (gated on the all-wildcards probe succeeding, §2.2).
    pub max_permutation_args: usize,
    /// Memoize probe outcomes by program fingerprint: different search
    /// paths often construct identical variants (e.g. a removal revisited
    /// during triage), and the checker is deterministic, so cached
    /// outcomes are always safe. Off by default so oracle-call counts
    /// stay comparable with the paper's cost model.
    pub memoize_oracle: bool,
    /// Capture the structured trace into
    /// [`SearchReport::records`](crate::search::SearchReport) (span
    /// open/close records plus one event per oracle probe) and its legacy
    /// flat projection `SearchReport::trace`, for debugging and for
    /// teaching how the search proceeds. Sinks registered with
    /// [`Searcher::add_sink`](crate::search::Searcher) receive the stream
    /// regardless of this flag.
    pub collect_trace: bool,
    /// Ring-buffer capacity (in records) of the in-report capture when
    /// `collect_trace` is on; oldest records are dropped beyond it and
    /// counted in the `trace.dropped` metric.
    pub trace_capacity: usize,
    /// Keep the always-on flight recorder running: a fixed-capacity ring
    /// of the most recent trace records, attached as an extra sink on
    /// every search. When a run ends non-`Complete` or isolated probe
    /// faults occurred, the ring's tail plus the final metrics snapshot
    /// freeze into [`SearchReport::crash`](crate::search::SearchReport)
    /// for post-mortem debugging. On by default — the ring is lock-cheap
    /// and bounded, so ambient overhead stays within the `obs_overhead`
    /// bench budget.
    pub flight_recorder: bool,
    /// Capacity (in records) of the flight-recorder ring when
    /// `flight_recorder` is on; the oldest records are overwritten beyond
    /// it and counted in the crash report's `records_dropped`.
    pub flight_capacity: usize,
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
            max_suggestions: 64,
            triage_size_threshold: 6,
            max_triage_depth: 3,
            max_permutation_args: 4,
            memoize_oracle: false,
            collect_trace: false,
            trace_capacity: 262_144,
            flight_recorder: true,
            flight_capacity: 1024,
            blame_guidance: true,
            guidance_backend: BackendKind::Blame,
            threads: default_threads(),
            deadline: default_deadline(),
            admission_lag: Duration::ZERO,
        }
    }
}

impl SearchConfig {
    /// The full tool.
    pub fn full() -> SearchConfig {
        SearchConfig::default()
    }

    /// A validating builder starting from the defaults.
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder::default()
    }

    /// Checks the invariants the search engine relies on.
    ///
    /// # Errors
    ///
    /// The first violated [`ConfigError`] invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.trace_capacity == 0 {
            return Err(ConfigError::ZeroTraceCapacity);
        }
        if self.flight_recorder && self.flight_capacity == 0 {
            return Err(ConfigError::ZeroFlightCapacity);
        }
        if self.max_oracle_calls == 0 {
            return Err(ConfigError::ZeroOracleBudget);
        }
        if self.max_suggestions == 0 {
            return Err(ConfigError::ZeroSuggestionCap);
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

/// Fluent, validating constructor for [`SearchConfig`]. Setters are
/// infallible; [`SearchConfigBuilder::build`] checks the invariants and
/// returns a typed [`ConfigError`] on violation, replacing the
/// field-poking (`SearchConfig { threads: 0, ..default() }`) that used
/// to let invalid values panic mid-search.
#[derive(Debug, Clone, Default)]
pub struct SearchConfigBuilder {
    cfg: SearchConfig,
}

impl SearchConfigBuilder {
    /// Starts from an existing configuration (e.g. an ablation preset).
    pub fn from_config(cfg: SearchConfig) -> SearchConfigBuilder {
        SearchConfigBuilder { cfg }
    }

    /// Worker threads for the probe engine (validated `>= 1` at build).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Enable/disable triage (§2.4).
    #[must_use]
    pub fn triage(mut self, on: bool) -> Self {
        self.cfg.triage = on;
        self
    }

    /// Enable/disable adaptation-to-context changes (§2.3).
    #[must_use]
    pub fn adaptation(mut self, on: bool) -> Self {
        self.cfg.adaptation = on;
        self
    }

    /// Enable/disable constructive changes (§2.2).
    #[must_use]
    pub fn constructive(mut self, on: bool) -> Self {
        self.cfg.constructive = on;
        self
    }

    /// Use the deliberately slow nested-`match` reparenthesizing change.
    #[must_use]
    pub fn slow_match_reassoc(mut self, on: bool) -> Self {
        self.cfg.slow_match_reassoc = on;
        self
    }

    /// Oracle-call budget (validated `>= 1` at build).
    #[must_use]
    pub fn max_oracle_calls(mut self, budget: u64) -> Self {
        self.cfg.max_oracle_calls = budget;
        self
    }

    /// Suggestion cap (validated `>= 1` at build).
    #[must_use]
    pub fn max_suggestions(mut self, cap: usize) -> Self {
        self.cfg.max_suggestions = cap;
        self
    }

    /// Memoize probe outcomes by program fingerprint.
    #[must_use]
    pub fn memoize(mut self, on: bool) -> Self {
        self.cfg.memoize_oracle = on;
        self
    }

    /// Capture the structured trace into the report.
    #[must_use]
    pub fn collect_trace(mut self, on: bool) -> Self {
        self.cfg.collect_trace = on;
        self
    }

    /// In-report trace ring capacity (validated `>= 1` at build).
    #[must_use]
    pub fn trace_capacity(mut self, records: usize) -> Self {
        self.cfg.trace_capacity = records;
        self
    }

    /// Enable/disable the always-on flight recorder.
    #[must_use]
    pub fn flight_recorder(mut self, on: bool) -> Self {
        self.cfg.flight_recorder = on;
        self
    }

    /// Flight-recorder ring capacity (validated `>= 1` at build when
    /// the recorder is enabled).
    #[must_use]
    pub fn flight_capacity(mut self, records: usize) -> Self {
        self.cfg.flight_capacity = records;
        self
    }

    /// Enable/disable constraint-blame guidance.
    #[must_use]
    pub fn blame_guidance(mut self, on: bool) -> Self {
        self.cfg.blame_guidance = on;
        self
    }

    /// Select the localization backend feeding the guidance.
    #[must_use]
    pub fn guidance_backend(mut self, kind: BackendKind) -> Self {
        self.cfg.guidance_backend = kind;
        self
    }

    /// Wall-clock deadline for one search; `None` removes any limit
    /// (validated positive at build when set).
    #[must_use]
    pub fn deadline(mut self, limit: Option<Duration>) -> Self {
        self.cfg.deadline = limit;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// The first violated [`ConfigError`] invariant.
    pub fn build(self) -> Result<SearchConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// The raw configuration with validation deferred — for callers
    /// (the session builder) that validate once at their own build step.
    pub(crate) fn build_unchecked(self) -> SearchConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_where_documented() {
        let full = SearchConfig::full();
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
        let built = SearchConfig::builder().guidance_backend(BackendKind::Mcs).build().unwrap();
        assert_eq!(built.guidance_backend, BackendKind::Mcs);
    }

    #[test]
    fn builder_validates_and_builds() {
        let cfg = SearchConfig::builder()
            .threads(4)
            .memoize(true)
            .collect_trace(true)
            .trace_capacity(128)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 4);
        assert!(cfg.memoize_oracle && cfg.collect_trace);
        assert_eq!(cfg.trace_capacity, 128);
        assert!(cfg.flight_recorder, "flight recorder defaults on");
        assert_eq!(cfg.flight_capacity, 1024);

        assert_eq!(SearchConfig::builder().threads(0).build(), Err(ConfigError::ZeroThreads));
        assert_eq!(
            SearchConfig::builder().trace_capacity(0).build(),
            Err(ConfigError::ZeroTraceCapacity)
        );
        assert_eq!(
            SearchConfig::builder().flight_capacity(0).build(),
            Err(ConfigError::ZeroFlightCapacity)
        );
        assert!(
            SearchConfig::builder().flight_recorder(false).flight_capacity(0).build().is_ok(),
            "capacity is irrelevant with the recorder off"
        );
        assert_eq!(
            SearchConfig::builder().max_oracle_calls(0).build(),
            Err(ConfigError::ZeroOracleBudget)
        );
        assert_eq!(
            SearchConfig::builder().max_suggestions(0).build(),
            Err(ConfigError::ZeroSuggestionCap)
        );
        assert!(ConfigError::ZeroThreads.to_string().contains("threads"));
    }

    #[test]
    fn deadline_must_be_positive_when_set() {
        assert_eq!(
            SearchConfig::builder().deadline(Some(Duration::ZERO)).build(),
            Err(ConfigError::ZeroDeadline)
        );
        let cfg =
            SearchConfig::builder().deadline(Some(Duration::from_millis(50))).build().unwrap();
        assert_eq!(cfg.deadline, Some(Duration::from_millis(50)));
        assert!(SearchConfig::builder().deadline(None).build().is_ok());
    }

    #[test]
    fn builder_starts_from_presets() {
        let cfg = SearchConfigBuilder::from_config(SearchConfig::without_triage())
            .threads(2)
            .build()
            .unwrap();
        assert!(!cfg.triage);
        assert_eq!(cfg.threads, 2);
    }
}
