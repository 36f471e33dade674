//! `SearchSession`: the one way to build and run a search.
//!
//! Start from [`SearchSession::builder`], optionally replace the whole
//! [`SearchConfig`] (an ablation preset, say) with `.config(..)`, adjust
//! single settings with the setters, and [`build`](SearchSessionBuilder::build):
//!
//! ```
//! use seminal_core::SearchSession;
//! use seminal_ml::parser::parse_program;
//! use seminal_typeck::TypeCheckOracle;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = SearchSession::builder(TypeCheckOracle::new())
//!     .threads(2)
//!     .memoize(true)
//!     .build()?;
//! let prog = parse_program("let x = 1 + true")?;
//! let report = session.search(&prog);
//! assert!(report.best().is_some());
//! # Ok(())
//! # }
//! ```
//!
//! `build` runs [`SearchConfig::validate`], the one validator, so a bad
//! value comes back as a typed [`ConfigError`] instead of a panic deep
//! inside a search. The C++ front end mirrors the same shape
//! (`seminal_cpp::CppSearchSession::builder`), so ML and C++ callers
//! read identically.

use crate::budget::SearchHandle;
use crate::config::{ConfigError, SearchConfig};
use crate::search::CustomChange;
use seminal_obs::TraceSink;
use seminal_typeck::Oracle;
use std::sync::Arc;
use std::time::Duration;

/// A fully-assembled search pipeline: oracle, validated configuration,
/// user-registered constructive changes, and trace sinks. Construct
/// with [`SearchSession::builder`]; run with [`SearchSession::search`].
///
/// Sessions borrow nothing and share nothing mutable, so one session
/// can serve many programs, and `&session` handles can run searches
/// from several threads at once (each search keeps its own memo and
/// engine).
pub struct SearchSession<O> {
    pub(crate) oracle: O,
    pub(crate) config: SearchConfig,
    pub(crate) extra_changes: Vec<CustomChange>,
    pub(crate) sinks: Vec<Arc<dyn TraceSink>>,
    /// The session-scoped cancellation handle every search's budget
    /// polls; [`SearchSession::handle`] clones it out.
    pub(crate) handle: SearchHandle,
}

impl<O: std::fmt::Debug> std::fmt::Debug for SearchSession<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchSession")
            .field("oracle", &self.oracle)
            .field("config", &self.config)
            .field("extra_changes", &self.extra_changes.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl<O: Oracle> SearchSession<O> {
    /// Starts a builder around `oracle` (owned or borrowed — `&O` is an
    /// [`Oracle`] too) with the full-tool default configuration.
    pub fn builder(oracle: O) -> SearchSessionBuilder<O> {
        SearchSessionBuilder {
            oracle,
            config: SearchConfig::default(),
            changes: Vec::new(),
            sinks: Vec::new(),
        }
    }

    /// A cancellation handle for this session's searches: call
    /// [`SearchHandle::cancel`] from any thread and every in-flight and
    /// future search stops at its next probe boundary, reporting
    /// `Completion::Cancelled` with best-so-far suggestions.
    /// Cancellation is sticky; build a new session to search again.
    pub fn handle(&self) -> SearchHandle {
        self.handle.clone()
    }

    /// The validated configuration this session runs with.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Unwraps the oracle, consuming the session.
    pub fn into_oracle(self) -> O {
        self.oracle
    }
}

/// Fluent constructor for [`SearchSession`]. Setters are infallible and
/// chainable; [`SearchSessionBuilder::build`] validates the assembled
/// configuration and returns a typed [`ConfigError`] on violation.
pub struct SearchSessionBuilder<O> {
    oracle: O,
    config: SearchConfig,
    changes: Vec<CustomChange>,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl<O: Oracle> SearchSessionBuilder<O> {
    /// Replaces the whole configuration (e.g. an ablation preset).
    /// Later field setters apply on top.
    #[must_use]
    pub fn config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker threads for the parallel probe engine (validated `>= 1`
    /// at build; 1 = the sequential engine).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n;
        self
    }

    /// Memoize probe outcomes by program fingerprint.
    #[must_use]
    pub fn memoize(mut self, on: bool) -> Self {
        self.config.memoize_oracle = on;
        self
    }

    /// Wall-clock deadline per search (`None` = unbounded; validated
    /// non-zero at build). When it expires the search stops
    /// cooperatively and reports `Completion::DeadlineExpired`.
    #[must_use]
    pub fn deadline(mut self, limit: Option<Duration>) -> Self {
        self.config.deadline = limit;
        self
    }

    /// Convenience for [`SearchSessionBuilder::deadline`] in
    /// milliseconds, matching the CLI's `--deadline-ms`.
    #[must_use]
    pub fn deadline_ms(self, ms: u64) -> Self {
        self.deadline(Some(Duration::from_millis(ms)))
    }

    /// Wall-clock already spent queued before this search started
    /// (admission-control wait); charged against the deadline so
    /// `deadline` bounds end-to-end latency. See
    /// [`SearchConfig::admission_lag`](crate::SearchConfig).
    #[must_use]
    pub fn admission_lag(mut self, lag: Duration) -> Self {
        self.config.admission_lag = lag;
        self
    }

    /// Enable/disable the always-on flight recorder (on by default);
    /// see [`SearchConfig::flight_recorder`].
    #[must_use]
    pub fn flight_recorder(mut self, on: bool) -> Self {
        self.config.flight_recorder = on;
        self
    }

    /// Attaches a trace sink; every search streams its records into it.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Registers a user-defined constructive change (§6's open
    /// framework). Proposed candidates are oracle-validated before they
    /// can become suggestions, so user changes cannot produce unsound
    /// messages.
    #[must_use]
    pub fn custom_change(mut self, change: CustomChange) -> Self {
        self.changes.push(change);
        self
    }

    /// Validates the configuration and assembles the session.
    ///
    /// # Errors
    ///
    /// The first violated [`ConfigError`] invariant.
    pub fn build(self) -> Result<SearchSession<O>, ConfigError> {
        self.config.validate()?;
        Ok(SearchSession {
            oracle: self.oracle,
            config: self.config,
            extra_changes: self.changes,
            sinks: self.sinks,
            handle: SearchHandle::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;
    use seminal_typeck::TypeCheckOracle;

    #[test]
    fn builder_assembles_and_validates() {
        let session = SearchSession::builder(TypeCheckOracle::new())
            .threads(2)
            .memoize(true)
            .flight_recorder(false)
            .build()
            .unwrap();
        assert_eq!(session.config().threads, 2);
        assert!(session.config().memoize_oracle && !session.config().flight_recorder);

        let err = SearchSession::builder(TypeCheckOracle::new()).threads(0).build();
        assert!(matches!(err, Err(ConfigError::ZeroThreads)));
    }

    #[test]
    fn borrowed_oracle_and_preset_config_work() {
        let oracle = TypeCheckOracle::new();
        let session = SearchSession::builder(&oracle)
            .config(SearchConfig::without_triage())
            .threads(2)
            .build()
            .unwrap();
        assert!(!session.config().triage, "the preset survives a later setter");
        assert_eq!(session.config().threads, 2);
        let prog = parse_program("let x = 1 + true").unwrap();
        assert!(session.search(&prog).best().is_some());
    }
}
