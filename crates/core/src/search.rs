//! The searcher: the core loop of the paper's architecture (Figure 1).
//!
//! Given an ill-typed program, the searcher:
//!
//! 1. finds the first ill-typed top-level definition by checking
//!    increasingly long prefixes (§2.1);
//! 2. descends top-down, replacing subexpressions with the wildcard
//!    `[[...]]` and asking the oracle which replacements type-check —
//!    descending only where removal succeeds (sound pruning: the wildcard
//!    imposes no constraints, so if it fails, nothing inside can help);
//! 3. at each successful-removal node, tries the enumerator's constructive
//!    changes (§2.2) and adaptation to context (§2.3);
//! 4. when the only suggestion for a sizeable node is removing it
//!    wholesale, enters *triage* (§2.4): wildcard some sibling regions and
//!    search the rest, recovering precision when the program has several
//!    independent errors.
//!
//! The searcher talks to the type-checker exclusively through the
//! [`Oracle`] trait — it has no knowledge of type-system specifics.
//!
//! ## Observability
//!
//! Every search emits a structured trace (spans for the blame pass,
//! prefix localization, each descent and triage round; one event per
//! oracle probe with outcome and latency) through `seminal-obs`. Records
//! stream to any sinks attached with
//! [`SearchSessionBuilder::sink`](crate::SearchSessionBuilder::sink) and,
//! when [`SearchConfig::collect_trace`] is on, are captured into
//! [`SearchReport::records`]. Aggregate counters and latency histograms
//! are always collected (the cost is two clock reads and a few integer
//! bumps per oracle call) and published as [`SearchReport::metrics`].

use crate::budget::{Budget, StopReason};
use crate::change::{ChangeKind, Focus, Suggestion};
use crate::config::SearchConfig;
use crate::engine::ProbeEngine;
use crate::enumerate::changes_for;
use crate::memo::{MemoLookup, VerdictMemo};
use crate::rank::rank;
use crate::session::SearchSession;
use seminal_analysis::Localization;
use seminal_ml::ast::*;
use seminal_ml::edit::{self, app_chain, Edit};
use seminal_ml::pretty::{decl_to_string, expr_to_string, pat_to_string};
use seminal_ml::span::Span;
use seminal_obs::{
    Completion, CrashReport, EventKind, FlightRecorder, Histogram, MemorySink, MetricsSnapshot,
    ProbeKind, SpanKind, SrcSpan, TraceRecord, TraceSink, Tracer,
};
use seminal_typeck::{
    guarded_check, guarded_probe, FingerprintCache, IncrementalStats, Oracle, ProbeOutcome,
    TypeError,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cost and coverage counters for one search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Oracle invocations (the paper's cost unit).
    pub oracle_calls: u64,
    /// Wall-clock duration of the whole run — the constraint-blame pass
    /// plus the oracle-driven search. [`SearchStats::blame_time`] is a
    /// disjoint sub-interval of this; [`SearchStats::search_time`] is the
    /// remainder.
    pub elapsed: Duration,
    /// Whether triage mode was entered.
    pub triage_used: bool,
    /// Whether the oracle-call budget stopped the search early
    /// (equivalent to `completion == Completion::BudgetExhausted` on the
    /// report; kept here for the paper's cost accounting).
    pub budget_exhausted: bool,
    /// Logical probes whose oracle call panicked and was isolated
    /// ([`ProbeOutcome::Faulted`]). Each logical probe is exactly one of
    /// an oracle call, a memo hit, or a probe fault, so
    /// `oracle_calls + memo_hits + probe_faults` is the logical probe
    /// count — identical at every thread count.
    pub probe_faults: u64,
    /// Index (1-based) of the first ill-typed top-level definition.
    pub first_bad_decl: usize,
    /// Probes answered from the search's verdict memo
    /// ([`SearchConfig::memoize_oracle`](crate::SearchConfig), or the
    /// parallel engine's).
    pub memo_hits: u64,
    /// Size of the minimal unsatisfiable constraint core computed by the
    /// blame pass (0 when guidance is off, the program is well-typed, or
    /// the error is a naming error with no constraint conflict).
    pub core_size: usize,
    /// Zero-blame sites whose constructive/adaptation enumeration was
    /// deferred to the fallback pass
    /// ([`SearchConfig::blame_guidance`](crate::SearchConfig)).
    pub sites_pruned: u64,
    /// Wall-clock cost of the constraint-blame analysis (fetching the
    /// oracle's constraint trace, core shrinking, correction-subset
    /// enumeration). Not an oracle cost: the blame pass replays
    /// unification in-process, and only over the failing constraint's
    /// connected component (the replay universe), so it grows with that
    /// component, not with the file. Recording the trace is in it only
    /// when the oracle has not recorded the program already: the
    /// incremental oracle records while inferring the baseline check,
    /// which no memo answers; a scratch oracle records here. Disjoint from
    /// the oracle-driven search time by construction — the blame pass
    /// runs once, before the search proper, and this field measures
    /// exactly that interval.
    pub blame_time: Duration,
}

impl SearchStats {
    /// Wall-clock of the oracle-driven search alone: `elapsed` minus the
    /// disjoint `blame_time` sub-interval. Use this when comparing
    /// against unguided search cost (which has no blame pass), so the
    /// comparison is apples-to-apples.
    pub fn search_time(&self) -> Duration {
        self.elapsed.saturating_sub(self.blame_time)
    }

    /// The logical probe count: every planned probe resolves as exactly
    /// one oracle call, memo hit, or isolated fault, so this sum is
    /// invariant across thread counts and memo settings — the
    /// conservation identity the determinism and fuzzing suites assert.
    pub fn logical_probes(&self) -> u64 {
        self.oracle_calls + self.memo_hits + self.probe_faults
    }
}

/// What the search concluded.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The input already type-checks; the search system is bypassed.
    WellTyped,
    /// Ranked candidate messages, best first.
    Suggestions(Vec<Suggestion>),
    /// Nothing found (fall back to the baseline message).
    NoSuggestion,
}

/// The result of running [`SearchSession::search`].
#[derive(Debug, Clone)]
pub struct SearchReport {
    pub outcome: Outcome,
    /// How the run ended: `Complete` when the search examined everything
    /// it planned to, otherwise the strongest bound that stopped it
    /// (cancel > deadline > call budget) or `Degraded` when isolated
    /// probe faults curtailed the plan. Whatever the completion, the
    /// suggestions in `outcome` are the ranked best-so-far set.
    pub completion: Completion,
    pub stats: SearchStats,
    /// The conventional type-checker's message for the same input, for
    /// side-by-side presentation and for the evaluation harness.
    pub baseline: Option<TypeError>,
    /// Captured structured trace: span open/close records with
    /// parent/child nesting and one event per oracle probe (empty unless
    /// [`SearchConfig::collect_trace`](crate::SearchConfig) is set).
    pub records: Vec<TraceRecord>,
    /// Aggregate counters and latency histograms for this search
    /// (always collected; schema `seminal-obs/metrics-v1`).
    pub metrics: MetricsSnapshot,
    /// Post-mortem bundle built from the flight recorder whenever the
    /// run ended non-`Complete` or isolated probe faults occurred:
    /// the last trace records plus the final metrics snapshot
    /// (schema `seminal-obs/crash-v1`). `None` on clean runs and when
    /// [`SearchConfig::flight_recorder`](crate::SearchConfig) is off.
    pub crash: Option<CrashReport>,
}

impl SearchReport {
    /// The top-ranked suggestion, if any.
    pub fn best(&self) -> Option<&Suggestion> {
        match &self.outcome {
            Outcome::Suggestions(s) => s.first(),
            _ => None,
        }
    }

    /// All suggestions (empty unless `outcome` is `Suggestions`).
    pub fn suggestions(&self) -> &[Suggestion] {
        match &self.outcome {
            Outcome::Suggestions(s) => s,
            _ => &[],
        }
    }

    /// The full user-visible payload: every suggestion in rank order
    /// with the fields a message is rendered from (original fragment,
    /// replacement, inferred type, triage flag). Two reports with equal
    /// payloads are indistinguishable to the user, which makes this the
    /// unit of comparison for the differential suites (the determinism
    /// tests and the fuzzing harness's thread-identity oracle).
    pub fn payload(&self) -> Vec<(String, String, Option<String>, bool)> {
        self.suggestions()
            .iter()
            .map(|s| {
                (s.original_str.clone(), s.replacement_str.clone(), s.new_type.clone(), s.triaged)
            })
            .collect()
    }
}

/// A user-registered constructive change: given a node, propose
/// replacements to try there. This realizes the paper's §6 vision of "an
/// open system where programmers could describe new search strategies or
/// constructive changes" — safe to add because a bad change can never
/// threaten correctness, only waste oracle calls.
pub type CustomChange = Box<dyn Fn(&Expr) -> Vec<crate::change::Candidate> + Send + Sync>;

/// Ring capacity, in records, of the in-report trace capture when
/// [`SearchConfig::collect_trace`] is on; the oldest records are dropped
/// beyond it and counted in the `trace.dropped` metric.
const TRACE_CAPACITY: usize = 262_144;

/// Ring capacity, in records, of the flight recorder when
/// [`SearchConfig::flight_recorder`] is on; the oldest records are
/// overwritten beyond it and counted in the crash report's
/// `records_dropped`.
const FLIGHT_CAPACITY: usize = 1024;

impl<O: Oracle> SearchSession<O> {
    /// Runs the full search on `prog`. At `config.threads == 1` this is
    /// the sequential engine, byte-identical to the pre-engine tool; at
    /// higher thread counts a [`ProbeEngine`] speculatively drains each
    /// enumeration frontier into a sharded memo the sequential logic
    /// consumes, so the suggestion set and ranks are unchanged while
    /// wall-clock drops (see `crate::engine`).
    pub fn search(&self, prog: &Program) -> SearchReport {
        // Queue wait under admission control is part of the deadline:
        // a request that waited 40ms of a 50ms deadline gets a 10ms
        // search, and one whose wait consumed the whole deadline runs
        // just the baseline check before reporting DeadlineExpired.
        let deadline = self
            .config
            .deadline
            .map(|d| d.saturating_sub(self.config.admission_lag))
            .map(|d| if d.is_zero() { Duration::from_nanos(1) } else { d });
        let budget = Budget::start(self.config.max_oracle_calls, deadline, self.handle.flag());
        // Sinks are assembled before the engine so worker threads can
        // share the tracer through its cloneable handle: every parallel
        // probe then opens under the search span that caused it.
        let capture = if self.config.collect_trace {
            Some(Arc::new(MemorySink::new(TRACE_CAPACITY)))
        } else {
            None
        };
        let flight = if self.config.flight_recorder {
            Some(Arc::new(FlightRecorder::new(FLIGHT_CAPACITY)))
        } else {
            None
        };
        let mut sinks = self.sinks.clone();
        if let Some(c) = &capture {
            sinks.push(c.clone() as Arc<dyn TraceSink>);
        }
        if let Some(f) = &flight {
            sinks.push(f.clone() as Arc<dyn TraceSink>);
        }
        let tracer = Tracer::new(sinks);
        let engine = if self.config.threads > 1 {
            Some(
                ProbeEngine::with_halt(&self.oracle, self.config.threads, budget.clone())
                    .with_trace(tracer.handle()),
            )
        } else {
            None
        };
        self.run_search(prog, engine.as_ref(), budget, tracer, capture, flight)
    }

    fn run_search(
        &self,
        prog: &Program,
        engine: Option<&ProbeEngine<'_, O>>,
        budget: Budget,
        tracer: Tracer,
        capture: Option<Arc<MemorySink>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> SearchReport {
        let start = Instant::now();
        let inc_before = self.oracle.incremental_stats();
        // One memo per search: the engine's when it runs, else the run's
        // own when memoization is on, else none, and no key is built.
        let solo = (engine.is_none() && self.config.memoize_oracle).then(VerdictMemo::default);
        let memo = engine.map(ProbeEngine::memo).or(solo.as_ref());
        let mut run = Run {
            oracle: &self.oracle,
            cfg: &self.config,
            engine,
            extra_changes: &self.extra_changes,
            calls: 0,
            budget,
            stop: None,
            probe_faults: 0,
            triage_used: false,
            suggestions: Vec::new(),
            memo: memo.map(|m| (m, FingerprintCache::new(prog))),
            memo_hits: 0,
            tracer,
            probe_label: None,
            local: LocalMetrics::default(),
            guidance: None,
            deferred: Vec::new(),
            sites_pruned: 0,
        };
        let root = run.tracer.open(SpanKind::Search);
        let baseline = match run.check_full(prog) {
            Ok(()) => {
                run.tracer.close(root);
                let stats = SearchStats {
                    oracle_calls: run.calls,
                    elapsed: start.elapsed(),
                    ..SearchStats::default()
                };
                let records = capture.as_ref().map(|c| c.drain()).unwrap_or_default();
                let mut metrics = run.local.snapshot(&stats, 0, Completion::Complete);
                fold_engine_metrics(&mut metrics, engine);
                fold_incremental_metrics(&mut metrics, inc_before, self.oracle.incremental_stats());
                return SearchReport {
                    outcome: Outcome::WellTyped,
                    completion: Completion::Complete,
                    stats,
                    baseline: None,
                    records,
                    metrics,
                    crash: None,
                };
            }
            Err(e) => e,
        };

        // Localization pass (only on ill-typed input, so the well-typed
        // bypass above stays a single oracle call). The backend is
        // oracle-free either way; MCS merely ranks spans differently. It
        // replays the oracle's own recording of the baseline inference,
        // not a second inference run.
        let blame_clock = Instant::now();
        if self.config.blame_guidance {
            let span = run.tracer.open(SpanKind::BlamePass);
            let trace = self.oracle.constraint_trace(prog);
            run.guidance = seminal_analysis::localize(prog, &trace, self.config.guidance_backend);
            run.tracer.close(span);
        }
        let blame_time =
            if self.config.blame_guidance { blame_clock.elapsed() } else { Duration::ZERO };
        run.local.blame_ns = duration_ns(blame_time);
        if let Some(g) = &run.guidance {
            run.local.backend_code = g.backend.metric_code();
            run.local.mcs_subsets = g.subsets_enumerated;
            run.local.mcs_solve_ns = g.solve_ns;
        }
        let core_size = run.guidance.as_ref().map_or(0, |b| b.core_size);

        // §2.1: find the first ill-typed definition. The checker aborts at
        // the first error and processes declarations in order, so when the
        // baseline span maps into a top-level declaration, every earlier
        // prefix is known to type-check and the probe loop is redundant.
        let prefix_span = run.tracer.open(SpanKind::PrefixLocalization);
        let mut first_bad = 0;
        if run.guidance.is_some() {
            if let Some(d) = prog
                .decls
                .iter()
                .position(|decl| !baseline.span.is_empty() && decl.span.contains(baseline.span))
            {
                first_bad = d + 1;
                let _ = run.tracer.event(EventKind::PrefixLocalized {
                    first_bad: first_bad as u32,
                    detail: format!("first {first_bad} declaration(s), blame-localized (no probe)"),
                });
            }
        }
        if first_bad == 0 {
            first_bad = prog.decls.len();
            if run.wants_prefetch(prog.decls.len()) {
                let prefixes: Vec<Program> =
                    (1..=prog.decls.len()).map(|k| prog.prefix(k)).collect();
                run.prefetch(&prefixes);
            }
            for k in 1..=prog.decls.len() {
                run.label(ProbeKind::Prefix, Span::DUMMY, || format!("first {k} declaration(s)"));
                if !run.check(&prog.prefix(k)) {
                    first_bad = k;
                    break;
                }
            }
        }
        run.tracer.close(prefix_span);
        let scope_prog = prog.prefix(first_bad);
        let scope = Scope::new(scope_prog);
        run.search_decl(&scope, first_bad - 1);

        // Fallback pass over deferred zero-blame sites: guidance reorders
        // the enumeration but must not lose suggestions, so every skipped
        // site is enumerated now, while budget remains.
        let deferred = std::mem::take(&mut run.deferred);
        for id in deferred {
            if run.done() {
                break;
            }
            if let Some(node) = scope.prog.find_expr(id).cloned() {
                let span = run.tracer.open(SpanKind::Descend { span: src_span(node.span) });
                run.enumerate_changes(&scope, &node, false, 0);
                run.tracer.close(span);
            }
        }

        let mut suggestions = std::mem::take(&mut run.suggestions);
        // Deduplicate across search paths.
        let mut seen = std::collections::HashSet::new();
        suggestions.retain(|s| seen.insert(s.dedup_key()));
        rank(&mut suggestions);
        run.tracer.close(root);
        // The strongest bound that stopped the run wins; when nothing
        // stopped it but probes faulted, the plan was silently thinned
        // and the run is honest about being degraded.
        let completion = match run.stop {
            Some(reason) => reason.completion(),
            None if run.probe_faults > 0 => Completion::Degraded { faults: run.probe_faults },
            None => Completion::Complete,
        };
        let stats = SearchStats {
            oracle_calls: run.calls,
            elapsed: start.elapsed(),
            triage_used: run.triage_used,
            budget_exhausted: run.stop == Some(StopReason::BudgetExhausted),
            probe_faults: run.probe_faults,
            first_bad_decl: first_bad,
            memo_hits: run.memo_hits,
            core_size,
            sites_pruned: run.sites_pruned,
            blame_time,
        };
        let records = capture.as_ref().map(|c| c.drain()).unwrap_or_default();
        if let Some(c) = &capture {
            run.local.trace_dropped = c.dropped();
        }
        let mut metrics = run.local.snapshot(&stats, suggestions.len() as u64, completion);
        fold_engine_metrics(&mut metrics, engine);
        fold_incremental_metrics(&mut metrics, inc_before, self.oracle.incremental_stats());
        // Post-mortem evidence: whenever the run ends anything but
        // cleanly — a bound stopped it, or isolated probe faults thinned
        // the plan — the flight recorder's tail and the final metrics
        // freeze into a crash report the caller can persist.
        let engine_faults = engine.map_or(0, |e| e.probe_faults());
        let total_faults = stats.probe_faults.max(engine_faults);
        let crash = match &flight {
            Some(f) if !completion.is_complete() || total_faults > 0 => {
                let (records, records_dropped) = f.snapshot();
                let reason = if completion.is_complete() {
                    format!("{total_faults} isolated probe fault(s)")
                } else {
                    format!("completion: {}", completion.tag())
                };
                Some(CrashReport {
                    reason,
                    completion: completion.tag().to_owned(),
                    probe_faults: total_faults,
                    threads: self.config.threads as u64,
                    records_dropped,
                    records,
                    metrics: metrics.clone(),
                })
            }
            _ => None,
        };
        let outcome = if suggestions.is_empty() {
            Outcome::NoSuggestion
        } else {
            Outcome::Suggestions(suggestions)
        };
        SearchReport {
            outcome,
            completion,
            stats,
            baseline: Some(baseline),
            records,
            metrics,
            crash,
        }
    }
}

fn src_span(span: Span) -> SrcSpan {
    SrcSpan::new(span.start, span.end)
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Folds the probe engine's counters into a finished snapshot: the
/// configured `probe_parallelism` gauge plus prefetch accounting. Only
/// present when the parallel engine ran, so `threads = 1` snapshots are
/// byte-identical to the sequential engine's.
fn fold_engine_metrics<O: Oracle>(
    metrics: &mut MetricsSnapshot,
    engine: Option<&ProbeEngine<'_, O>>,
) {
    let Some(e) = engine else { return };
    let c = &mut metrics.counters;
    c.insert("probe_parallelism".to_owned(), e.threads() as u64);
    c.insert("engine.prefetched".to_owned(), e.prefetched());
    c.insert("engine.batches".to_owned(), e.batches());
    c.insert("engine.largest_batch".to_owned(), e.largest_batch());
    c.insert("engine.speculative_waste".to_owned(), e.memo().unconsumed());
    c.insert("engine.probe_faults".to_owned(), e.probe_faults());
}

/// Folds the incremental oracle's counter deltas (cumulative stats
/// snapshotted at run start vs. run end) into a finished snapshot. Only
/// present when an incremental oracle sits somewhere in the stack, so
/// scratch-oracle snapshots are unchanged.
fn fold_incremental_metrics(
    metrics: &mut MetricsSnapshot,
    before: Option<IncrementalStats>,
    after: Option<IncrementalStats>,
) {
    let (Some(b), Some(a)) = (before, after) else { return };
    let c = &mut metrics.counters;
    c.insert(
        seminal_obs::keys::ORACLE_INCREMENTAL_HITS.to_owned(),
        a.incremental_hits.saturating_sub(b.incremental_hits),
    );
    c.insert(
        seminal_obs::keys::ORACLE_DECLS_RECHECK.to_owned(),
        a.decls_recheck.saturating_sub(b.decls_recheck),
    );
    c.insert(
        seminal_obs::keys::ORACLE_ROLLBACK_NS.to_owned(),
        a.rollback_ns.saturating_sub(b.rollback_ns),
    );
}

/// Allocation-free accumulators for the per-search metrics snapshot —
/// plain integer bumps on the probe hot path, folded into a
/// [`MetricsSnapshot`] once per search.
#[derive(Debug, Default)]
struct LocalMetrics {
    oracle_latency: Histogram,
    /// Latency each memo hit saved (the original call's cost), kept out
    /// of `oracle_latency` so cache hits cannot skew its low buckets.
    memo_hit_saved: Histogram,
    descend_depth: Histogram,
    max_depth: u64,
    probes: [u64; ProbeKind::METRIC_KEYS.len()],
    triage_rounds: u64,
    blame_ns: u64,
    /// `BackendKind::metric_code` of the localization backend that ran
    /// (0 when guidance was off or the program was well-typed).
    backend_code: u64,
    /// Correction subsets the localization backend enumerated.
    mcs_subsets: u64,
    /// Pure MCS solver time (replay loop), nanoseconds.
    mcs_solve_ns: u64,
    trace_dropped: u64,
}

impl LocalMetrics {
    fn snapshot(
        &self,
        stats: &SearchStats,
        suggestions: u64,
        completion: Completion,
    ) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let c = &mut snap.counters;
        c.insert("oracle_calls".to_owned(), stats.oracle_calls);
        c.insert("memo_hits".to_owned(), stats.memo_hits);
        c.insert("probe_faults".to_owned(), stats.probe_faults);
        c.insert("completion".to_owned(), completion.metric_code());
        c.insert("suggestions".to_owned(), suggestions);
        c.insert("first_bad_decl".to_owned(), stats.first_bad_decl as u64);
        c.insert("core_size".to_owned(), stats.core_size as u64);
        c.insert("sites_pruned".to_owned(), stats.sites_pruned);
        c.insert("triage.rounds".to_owned(), self.triage_rounds);
        c.insert("budget_exhausted".to_owned(), u64::from(stats.budget_exhausted));
        c.insert("descend.max_depth".to_owned(), self.max_depth);
        c.insert("elapsed_ns".to_owned(), duration_ns(stats.elapsed));
        c.insert("blame_ns".to_owned(), self.blame_ns);
        c.insert(seminal_obs::keys::ANALYSIS_BACKEND.to_owned(), self.backend_code);
        if self.backend_code == seminal_analysis::BackendKind::Mcs.metric_code() {
            c.insert(seminal_obs::keys::MCS_SUBSETS_ENUMERATED.to_owned(), self.mcs_subsets);
            let mut h = Histogram::default();
            h.observe(self.mcs_solve_ns);
            snap.histograms.insert(seminal_obs::keys::MCS_SOLVE_NS.to_owned(), h);
        }
        c.insert("search_ns".to_owned(), duration_ns(stats.search_time()));
        if self.trace_dropped > 0 {
            c.insert("trace.dropped".to_owned(), self.trace_dropped);
        }
        for (i, &n) in self.probes.iter().enumerate() {
            if n > 0 {
                c.insert(format!("probes.{}", ProbeKind::METRIC_KEYS[i]), n);
            }
        }
        if self.oracle_latency.count > 0 {
            snap.histograms.insert("oracle.latency_ns".to_owned(), self.oracle_latency.clone());
        }
        if self.memo_hit_saved.count > 0 {
            snap.histograms.insert("memo.hit_saved_ns".to_owned(), self.memo_hit_saved.clone());
        }
        if self.descend_depth.count > 0 {
            snap.histograms.insert("descend.depth".to_owned(), self.descend_depth.clone());
        }
        snap
    }
}

/// Node metadata for ranking and enumeration, computed per scope.
#[derive(Debug, Clone, Copy)]
struct Meta {
    depth: usize,
    right_pos: i32,
    top_of_chain: bool,
}

/// A program being searched plus per-node metadata. Triage creates nested
/// scopes by materializing its sibling removals into a fresh program;
/// node ids of retained subtrees are stable across that, so suggestions
/// found in inner scopes still address the original nodes.
struct Scope {
    prog: Program,
    meta: HashMap<NodeId, Meta>,
}

impl Scope {
    fn new(prog: Program) -> Scope {
        let mut meta = HashMap::new();
        for decl in &prog.decls {
            match &decl.kind {
                DeclKind::Let { bindings, .. } => {
                    for b in bindings {
                        build_meta(&b.body, 0, None, &mut meta);
                    }
                }
                DeclKind::Expr(e) => build_meta(e, 0, None, &mut meta),
                _ => {}
            }
        }
        Scope { prog, meta }
    }

    fn meta(&self, id: NodeId) -> Meta {
        self.meta.get(&id).copied().unwrap_or(Meta { depth: 0, right_pos: 0, top_of_chain: true })
    }
}

fn build_meta(
    e: &Expr,
    depth: usize,
    parent: Option<(&Expr, usize)>,
    out: &mut HashMap<NodeId, Meta>,
) {
    let top_of_chain = match (&e.kind, parent) {
        (ExprKind::App(_, _), Some((p, idx))) => {
            !(matches!(p.kind, ExprKind::App(_, _)) && idx == 0)
        }
        _ => true,
    };
    let right_pos = parent.map_or(0, |(_, idx)| idx as i32);
    out.insert(e.id, Meta { depth, right_pos, top_of_chain });
    let mut idx = 0;
    e.for_each_child(&mut |c| {
        build_meta(c, depth + 1, Some((e, idx)), out);
        idx += 1;
    });
}

/// Cap on suggestions gathered before the search stops early.
const MAX_SUGGESTIONS: usize = 64;

/// Minimum node count for a subtree to be considered "a nontrivial
/// number of descendants" worth triaging (§2.4).
const TRIAGE_SIZE_THRESHOLD: usize = 6;

/// Maximum nesting of triage within triage.
const MAX_TRIAGE_DEPTH: usize = 3;

struct Run<'a, O> {
    oracle: &'a O,
    cfg: &'a SearchConfig,
    /// Parallel probe engine (`None` at `threads == 1`, where the run
    /// is the literal sequential engine).
    engine: Option<&'a ProbeEngine<'a, O>>,
    extra_changes: &'a [CustomChange],
    calls: u64,
    /// The run's bounds: call cap, deadline, cancellation. Consulted
    /// before every probe; the engine holds a clone for its workers.
    budget: Budget,
    /// The first bound that tripped, sticky for the rest of the run so
    /// the completion reports one coherent reason.
    stop: Option<StopReason>,
    /// Probes whose oracle call panicked and was isolated (each is a
    /// logical probe alongside `calls` and `memo_hits`, never double
    /// counted).
    probe_faults: u64,
    triage_used: bool,
    suggestions: Vec<Suggestion>,
    /// The search's memo — the engine's, or the run's own under
    /// [`SearchConfig::memoize_oracle`] — with the key cache of the
    /// search's input; `None` at `threads == 1` without memoization.
    memo: Option<(&'a VerdictMemo, FingerprintCache)>,
    memo_hits: u64,
    /// Structured-trace emitter (inert unless sinks are attached).
    tracer: Tracer,
    /// Typed label for the next probe's trace event and family counter.
    probe_label: Option<(ProbeKind, String, Span)>,
    /// Hot-path metric accumulators.
    local: LocalMetrics,
    /// Localization of the original program (blame or MCS backend, per
    /// `SearchConfig::guidance_backend`), when guidance is on and the
    /// error has a constraint trace.
    guidance: Option<Localization>,
    /// Zero-blame sites whose enumeration was deferred for the fallback
    /// pass (node ids in the first-bad-prefix scope).
    deferred: Vec<NodeId>,
    sites_pruned: u64,
}

impl<O: Oracle> Run<'_, O> {
    /// Baseline check: always runs (even under a tripped budget, so the
    /// caller always has the conventional message to fall back to), and
    /// a panicking checker is isolated into a synthetic
    /// [`TypeErrorKind::OracleFault`](seminal_typeck::TypeErrorKind)
    /// error — the search proceeds, treating the program as ill-typed.
    fn check_full(&mut self, prog: &Program) -> Result<(), TypeError> {
        let clock = Instant::now();
        let verdict = guarded_check(self.oracle, prog);
        let latency_ns = duration_ns(clock.elapsed());
        let outcome = match &verdict {
            Ok(()) => ProbeOutcome::Pass,
            Err(e) if e.is_fault() => ProbeOutcome::Faulted,
            Err(_) => ProbeOutcome::Fail,
        };
        if outcome.faulted() {
            self.probe_faults += 1;
        } else {
            self.calls += 1;
        }
        self.probe_label = Some((ProbeKind::Baseline, String::new(), Span::DUMMY));
        self.record_probe(outcome, false, latency_ns);
        verdict
    }

    /// Whether a bound has tripped, computing and latching the stop
    /// reason on first trip.
    fn halted(&mut self) -> bool {
        if self.stop.is_none() {
            self.stop = self.budget.stop_reason(self.calls);
        }
        self.stop.is_some()
    }

    /// Bounded boolean oracle query, optionally memoized; always counted
    /// and timed, and emitted as a structured probe event when tracing.
    /// Oracle panics are isolated ([`guarded_probe`]): a faulted probe
    /// reads as "did not type-check", is memoized like any outcome, and
    /// is tallied in `probe_faults` instead of `calls`.
    ///
    /// With a memo, the first read of an entry the engine prefetched is
    /// accounted as the probe the sequential engine would have issued
    /// here (counted in `calls`, with the worker-measured latency);
    /// later reads of the same key are memo hits. A miss falls through
    /// to a direct oracle call whose outcome is cached for later rounds.
    fn check(&mut self, prog: &Program) -> bool {
        if self.halted() {
            self.probe_label = None;
            return false;
        }
        let key = self.memo.as_ref().map(|(memo, keys)| (memo, keys.program_fingerprint(prog)));
        let (outcome, cached, latency_ns) =
            match key.map_or(MemoLookup::Miss, |(memo, key)| memo.consume(key)) {
                MemoLookup::Fresh { outcome, latency_ns } => (outcome, false, latency_ns),
                MemoLookup::Hit { outcome, saved_ns } => {
                    self.local.memo_hit_saved.observe(saved_ns);
                    (outcome, true, 0)
                }
                MemoLookup::Miss => {
                    let clock = Instant::now();
                    let outcome = guarded_probe(self.oracle, prog);
                    let latency_ns = duration_ns(clock.elapsed());
                    if let Some((memo, key)) = key {
                        memo.insert(key, outcome, latency_ns, true);
                    }
                    (outcome, false, latency_ns)
                }
            };
        // Every logical probe is exactly one of: a memo hit, a fault, or
        // an oracle call — so the three tallies reconcile at any thread
        // count.
        if cached {
            self.memo_hits += 1;
        } else if outcome.faulted() {
            self.probe_faults += 1;
        } else {
            self.calls += 1;
        }
        self.record_probe(outcome, cached, latency_ns);
        outcome.passed()
    }

    /// Whether a frontier of `frontier` candidate variants is worth
    /// handing to the parallel engine.
    fn wants_prefetch(&self, frontier: usize) -> bool {
        frontier >= 2 && self.engine.is_some() && self.calls < self.cfg.max_oracle_calls
    }

    /// Speculatively evaluates a frontier into the engine's memo,
    /// capped at the remaining oracle budget so speculation cannot run
    /// far past `max_oracle_calls`.
    fn prefetch(&self, variants: &[Program]) {
        if let (Some(engine), Some((_, keys))) = (self.engine, &self.memo) {
            let room = self.cfg.max_oracle_calls.saturating_sub(self.calls);
            let cap = usize::try_from(room).unwrap_or(usize::MAX).min(variants.len());
            if cap > 0 {
                engine.prefetch_under(&variants[..cap], keys, self.tracer.context());
            }
        }
    }

    /// Labels the next `check` call's probe. The target string is only
    /// rendered when a trace is being emitted; the kind is kept always,
    /// for the per-family counters.
    fn label(&mut self, probe: ProbeKind, span: Span, target: impl FnOnce() -> String) {
        let target = if self.tracer.enabled() { target() } else { String::new() };
        self.probe_label = Some((probe, target, span));
    }

    /// Folds one probe verdict into metrics and the trace stream.
    /// Faulted probes are kept out of the oracle-latency histogram (the
    /// panic's cost is not an oracle latency), so the histogram count
    /// still equals `oracle_calls`.
    fn record_probe(&mut self, outcome: ProbeOutcome, cached: bool, latency_ns: u64) {
        let (probe, target, span) =
            self.probe_label.take().unwrap_or((ProbeKind::Other, String::new(), Span::DUMMY));
        self.local.probes[probe.metric_index()] += 1;
        if !cached && !outcome.faulted() {
            self.local.oracle_latency.observe(latency_ns);
        }
        if self.tracer.enabled() {
            let _ = self.tracer.event(EventKind::OracleProbe {
                probe,
                target,
                span: src_span(span),
                outcome: outcome.passed(),
                cached,
                faulted: outcome.faulted(),
                latency_ns,
            });
        }
    }

    fn done(&self) -> bool {
        self.stop.is_some() || self.suggestions.len() >= MAX_SUGGESTIONS
    }

    /// Quantized blame score for a suggestion at `span` (0 with guidance
    /// off, so ranking is unchanged in that mode).
    fn blame_at(&self, span: Span) -> u32 {
        self.guidance.as_ref().map_or(0, |b| b.milli_score_at(span))
    }

    /// Opens a triage-round span and bumps the round counters.
    fn begin_triage_round(&mut self) -> u64 {
        self.triage_used = true;
        self.local.triage_rounds += 1;
        self.tracer.open(SpanKind::Triage { round: self.local.triage_rounds as u32 })
    }

    // ------------------------------------------------------------------
    // Declaration level
    // ------------------------------------------------------------------

    fn search_decl(&mut self, scope: &Scope, idx: usize) {
        let decl = scope.prog.decls[idx].clone();
        match &decl.kind {
            DeclKind::Let { rec, bindings } => {
                // Declaration-level `let` → `let rec` (Figure 3's last row).
                if !*rec && bindings.iter().all(|b| matches!(b.pat.kind, PatKind::Var(_))) {
                    let mut variant = scope.prog.clone();
                    if let DeclKind::Let { rec, .. } =
                        &mut std::sync::Arc::make_mut(&mut variant.decls[idx]).kind
                    {
                        *rec = true;
                    }
                    self.label(
                        ProbeKind::Constructive { family: "let rec".to_owned() },
                        decl.span,
                        || decl_to_string(&decl),
                    );
                    if self.check(&variant) {
                        let context_str = decl_to_string(&variant.decls[idx]);
                        self.suggestions.push(Suggestion {
                            focus: Focus::DeclRec { decl: decl.id },
                            kind: ChangeKind::Constructive(
                                "make the declaration recursive (`let rec`)".to_owned(),
                            ),
                            triaged: false,
                            removed_siblings: 0,
                            original_str: "let".to_owned(),
                            replacement_str: "let rec".to_owned(),
                            new_type: None,
                            context_str,
                            span: decl.span,
                            depth: 0,
                            size: 1,
                            right_pos: 0,
                            preserves_content: true,
                            superseded: false,
                            variant,
                            unbound_hint: None,
                            blame: self.blame_at(decl.span),
                        });
                    }
                }
                let roots: Vec<NodeId> = bindings.iter().map(|b| b.body.id).collect();
                let before = self.suggestions.len();
                for root in &roots {
                    self.search_expr(scope, *root, 0, false, 0);
                }
                // Multiple simultaneous bindings, none individually fixable:
                // triage across the binding bodies.
                if self.suggestions.len() == before && roots.len() > 1 && self.cfg.triage {
                    self.triage_siblings(scope, &roots, 0);
                }
            }
            DeclKind::Expr(e) => {
                self.search_expr(scope, e.id, 0, false, 0);
            }
            // Errors inside type/exception declarations have no
            // expressions to search; the baseline message stands.
            DeclKind::Type(_) | DeclKind::Exception(_, _) => {}
        }
    }

    // ------------------------------------------------------------------
    // Expression level (§2.1–2.3)
    // ------------------------------------------------------------------

    /// Searches below `node_id`; returns whether removing the node (alone)
    /// produced a type-correct program, which is the licence to descend.
    fn search_expr(
        &mut self,
        scope: &Scope,
        node_id: NodeId,
        triage_depth: usize,
        triaged: bool,
        removed_siblings: usize,
    ) -> bool {
        if self.done() {
            return false;
        }
        let Some(node) = scope.prog.find_expr(node_id).cloned() else {
            return false;
        };
        if node.is_hole() {
            return false;
        }
        let depth = scope.meta(node.id).depth as u64;
        self.local.descend_depth.observe(depth);
        self.local.max_depth = self.local.max_depth.max(depth);
        let span = self.tracer.open(SpanKind::Descend { span: src_span(node.span) });
        let descended = self.search_expr_at(scope, &node, triage_depth, triaged, removed_siblings);
        self.tracer.close(span);
        descended
    }

    /// The body of [`Run::search_expr`], inside that node's trace span.
    fn search_expr_at(
        &mut self,
        scope: &Scope,
        node: &Expr,
        triage_depth: usize,
        triaged: bool,
        removed_siblings: usize,
    ) -> bool {
        // Removal probe.
        let removal_variant = edit::remove_expr(&scope.prog, node.id);
        self.label(ProbeKind::Removal, node.span, || expr_to_string(node));
        if !self.check(&removal_variant) {
            return false;
        }

        // Recurse into children first; their success makes this node's
        // own removal uninteresting to report. With guidance on, visit
        // high-blame subtrees first (the sort is stable, so zero-blame
        // siblings keep source order): the set explored is identical, but
        // suggestions at implicated sites surface before any budget runs
        // out.
        let mut children = Vec::new();
        node.for_each_child(&mut |c| children.push((c.id, c.span)));
        if let Some(guidance) = &self.guidance {
            children.sort_by_key(|&(_, span)| std::cmp::Reverse(guidance.milli_score_at(span)));
        }
        // Speculative frontier: each child's own removal probe — the
        // first oracle query its recursive visit will issue.
        if self.wants_prefetch(children.len()) {
            let variants: Vec<Program> =
                children.iter().map(|&(id, _)| edit::remove_expr(&scope.prog, id)).collect();
            self.prefetch(&variants);
        }
        let mut any_child = false;
        for (c, _) in children {
            if self.search_expr(scope, c, triage_depth, triaged, removed_siblings) {
                any_child = true;
            }
        }

        // Constructive changes (§2.2) and adaptation (§2.3) — or, at a
        // zero-blame site, defer both to the fallback pass: no constraint
        // from this span took part in the unsat core, so a specific
        // change here is unlikely to be the message. Deferral is limited
        // to sites that cannot affect triage entry (size below the triage
        // threshold) or the §3.3 unbound-variable refinement (non-`Var`
        // nodes), so guidance changes probe order, never the suggestion
        // set.
        let (mut any_specific, mut adapt_ok) = (false, false);
        if self.defers(node, triaged, triage_depth) {
            self.deferred.push(node.id);
            self.sites_pruned += 1;
        } else {
            (any_specific, adapt_ok) =
                self.enumerate_changes(scope, node, triaged, removed_siblings);
        }

        // Triage (§2.4): only when wholesale removal of a sizeable node is
        // the best this subtree offered. Runs before the removal is
        // recorded so the removal can be marked as superseded: the paper
        // presents the triaged small change, never "remove it all".
        let mut triage_found = false;
        if self.cfg.triage
            && !any_child
            && !any_specific
            && node.size() >= TRIAGE_SIZE_THRESHOLD
            && triage_depth < MAX_TRIAGE_DEPTH
        {
            let before = self.suggestions.len();
            self.triage(scope, node, triage_depth);
            triage_found = self.suggestions.len() > before;
        }

        // Removal is reported only at minimal removable nodes — deeper
        // successes subsume it.
        if !any_child {
            // §3.3: a variable whose removal helps but whose adaptation
            // does not is itself the problem (unbound/misspelled), since
            // adaptation keeps the variable and only frees its result type.
            let unbound_hint = match (&node.kind, self.cfg.adaptation, adapt_ok) {
                (ExprKind::Var(name), true, false) => Some(name.clone()),
                _ => None,
            };
            self.push_suggestion(
                scope,
                node,
                &Expr::hole(Span::DUMMY),
                removal_variant,
                ChangeKind::Removal,
                triaged,
                removed_siblings,
                unbound_hint,
            );
            if triage_found {
                if let Some(last) = self.suggestions.last_mut() {
                    last.superseded = true;
                }
            }
        }
        true
    }

    /// Whether enumeration at `node` is deferred to the fallback pass.
    /// Only untriaged, top-level-search sites defer: triage contexts are
    /// already localized, and their spans mix original and synthesized
    /// positions the blame map does not cover.
    fn defers(&self, node: &Expr, triaged: bool, triage_depth: usize) -> bool {
        let Some(guidance) = &self.guidance else { return false };
        !triaged
            && triage_depth == 0
            && !node.span.is_empty()
            && node.size() < TRIAGE_SIZE_THRESHOLD
            && !matches!(node.kind, ExprKind::Var(_))
            && guidance.is_zero_blame(node.span)
    }

    /// Constructive-change and adaptation enumeration at one node whose
    /// removal is known to succeed. Returns `(any_specific, adapt_ok)`.
    fn enumerate_changes(
        &mut self,
        scope: &Scope,
        node: &Expr,
        triaged: bool,
        removed_siblings: usize,
    ) -> (bool, bool) {
        let meta = scope.meta(node.id);
        let mut any_specific = false;

        // Both the built-in enumerator and user-registered changes run
        // under panic isolation: a panicking step loses only that node's
        // candidates (counted as a fault so the run reports `Degraded`),
        // never the search.
        let probes = if self.cfg.constructive {
            let cfg = self.cfg;
            match catch_unwind(AssertUnwindSafe(|| changes_for(node, meta.top_of_chain, cfg))) {
                Ok(probes) => probes,
                Err(_) => {
                    self.probe_faults += 1;
                    Vec::new()
                }
            }
        } else {
            Vec::new()
        };
        // User-registered constructive changes (§6's open framework).
        let mut extra_candidates: Vec<crate::change::Candidate> = Vec::new();
        if self.cfg.constructive {
            let mut faults = 0;
            for change in self.extra_changes {
                match catch_unwind(AssertUnwindSafe(|| change(node))) {
                    Ok(candidates) => extra_candidates.extend(candidates),
                    Err(_) => faults += 1,
                }
            }
            self.probe_faults += faults;
        }
        // Adaptation to context (§2.3).
        let adapt_candidate = if self.cfg.adaptation && !matches!(node.kind, ExprKind::Adapt(_)) {
            Some(Expr::synth(ExprKind::Adapt(Box::new(node.clone())), Span::DUMMY))
        } else {
            None
        };

        // Speculative frontier: every first-wave probe at this node.
        // Gated second waves are withheld until their gate's verdict.
        let frontier =
            probes.len() + extra_candidates.len() + usize::from(adapt_candidate.is_some());
        if self.wants_prefetch(frontier) {
            let mut variants = Vec::with_capacity(frontier);
            for probe in &probes {
                let head = match probe {
                    crate::change::Probe::One(c) => &c.replacement,
                    crate::change::Probe::Gated { gate, .. } => gate,
                };
                variants.push(edit::replace_expr(&scope.prog, node.id, head.clone()));
            }
            for c in &extra_candidates {
                variants.push(edit::replace_expr(&scope.prog, node.id, c.replacement.clone()));
            }
            if let Some(adapted) = &adapt_candidate {
                variants.push(edit::replace_expr(&scope.prog, node.id, adapted.clone()));
            }
            self.prefetch(&variants);
        }

        // Constructive changes (§2.2).
        for probe in probes {
            if self.done() {
                break;
            }
            match probe {
                crate::change::Probe::One(c) => {
                    if self.try_candidate(
                        scope,
                        node,
                        &c.replacement,
                        ChangeKind::Constructive(c.description),
                        triaged,
                        removed_siblings,
                    ) {
                        any_specific = true;
                    }
                }
                crate::change::Probe::Gated { gate, then } => {
                    let gate_variant = edit::replace_expr(&scope.prog, node.id, gate);
                    self.label(ProbeKind::Gate, node.span, || expr_to_string(node));
                    if self.check(&gate_variant) {
                        if self.wants_prefetch(then.len()) {
                            let variants: Vec<Program> = then
                                .iter()
                                .map(|c| {
                                    edit::replace_expr(&scope.prog, node.id, c.replacement.clone())
                                })
                                .collect();
                            self.prefetch(&variants);
                        }
                        for c in then {
                            if self.done() {
                                break;
                            }
                            if self.try_candidate(
                                scope,
                                node,
                                &c.replacement,
                                ChangeKind::Constructive(c.description),
                                triaged,
                                removed_siblings,
                            ) {
                                any_specific = true;
                            }
                        }
                    }
                }
            }
        }

        for c in extra_candidates {
            if self.done() {
                break;
            }
            if self.try_candidate(
                scope,
                node,
                &c.replacement,
                ChangeKind::Constructive(c.description),
                triaged,
                removed_siblings,
            ) {
                any_specific = true;
            }
        }

        let mut adapt_ok = false;
        if let Some(adapted) = adapt_candidate {
            if self.try_candidate(
                scope,
                node,
                &adapted,
                ChangeKind::Adaptation,
                triaged,
                removed_siblings,
            ) {
                adapt_ok = true;
                any_specific = true;
            }
        }
        (any_specific, adapt_ok)
    }

    /// Tries one replacement; on success records a suggestion.
    fn try_candidate(
        &mut self,
        scope: &Scope,
        node: &Expr,
        replacement: &Expr,
        kind: ChangeKind,
        triaged: bool,
        removed_siblings: usize,
    ) -> bool {
        let variant = edit::replace_expr(&scope.prog, node.id, replacement.clone());
        let probe = match &kind {
            ChangeKind::Constructive(d) => ProbeKind::Constructive { family: d.clone() },
            ChangeKind::Adaptation => ProbeKind::Adaptation,
            ChangeKind::Removal => ProbeKind::Removal,
        };
        self.label(probe, node.span, || expr_to_string(node));
        if !self.check(&variant) {
            return false;
        }
        self.push_suggestion(
            scope,
            node,
            replacement,
            variant,
            kind,
            triaged,
            removed_siblings,
            None,
        );
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn push_suggestion(
        &mut self,
        scope: &Scope,
        node: &Expr,
        replacement: &Expr,
        variant: Program,
        kind: ChangeKind,
        triaged: bool,
        removed_siblings: usize,
        unbound_hint: Option<String>,
    ) {
        let meta = scope.meta(node.id);
        // Root id of the inserted subtree: synthesized roots take the
        // first fresh id; reused subtree roots keep their id.
        let inserted_root = if replacement.id == NodeId::SYNTH {
            NodeId(scope.prog.next_id)
        } else {
            replacement.id
        };
        // Principal type of the replacement, for the "of type …" line.
        // This re-check is message formatting, not search, so it is not
        // counted against the oracle budget.
        let new_type = self
            .oracle
            .types(&variant, &[inserted_root])
            .ok()
            .and_then(|mut m| m.remove(&inserted_root));
        let context_str = variant
            .decl_of(inserted_root)
            .map(|i| decl_to_string(&variant.decls[i]))
            .unwrap_or_default();
        let preserves_content = {
            let original_leaves = leaf_atoms(node);
            let new_leaves = leaf_atoms(replacement);
            original_leaves.iter().all(|l| new_leaves.contains(l))
        };
        self.suggestions.push(Suggestion {
            focus: Focus::Expr { target: node.id, replacement: replacement.clone() },
            kind,
            triaged,
            removed_siblings,
            original_str: expr_to_string(node),
            replacement_str: expr_to_string(replacement),
            new_type,
            context_str,
            span: node.span,
            depth: meta.depth,
            size: node.size(),
            right_pos: meta.right_pos,
            preserves_content,
            superseded: false,
            variant,
            unbound_hint,
            blame: self.blame_at(node.span),
        });
    }

    // ------------------------------------------------------------------
    // Triage (§2.4)
    // ------------------------------------------------------------------

    fn triage(&mut self, scope: &Scope, node: &Expr, depth: usize) {
        self.triage_used = true;
        match &node.kind {
            ExprKind::Match(scrut, arms) => self.triage_match(scope, node, scrut, arms, depth),
            _ => {
                let members = triage_members(node);
                if members.len() >= 2 {
                    self.triage_siblings(scope, &members, depth);
                }
            }
        }
    }

    /// Generic sibling triage: focus each member while cumulatively
    /// wildcarding the others (rightmost first), recurring in the first
    /// context that admits any fix for the focus.
    fn triage_siblings(&mut self, scope: &Scope, members: &[NodeId], depth: usize) {
        let span = self.begin_triage_round();
        self.triage_siblings_inner(scope, members, depth);
        self.tracer.close(span);
    }

    fn triage_siblings_inner(&mut self, scope: &Scope, members: &[NodeId], depth: usize) {
        for &focus in members {
            if self.done() {
                return;
            }
            let others: Vec<NodeId> = members.iter().copied().filter(|&m| m != focus).collect();
            // Speculative frontier: every widening of this focus's
            // removed-sibling context.
            if self.wants_prefetch(others.len()) {
                let variants: Vec<Program> = (1..=others.len())
                    .map(|j| {
                        let removed = &others[others.len() - j..];
                        let mut probe_edit = Edit::new().remove_expr(focus);
                        for &r in removed {
                            probe_edit = probe_edit.remove_expr(r);
                        }
                        edit::apply(&scope.prog, &probe_edit)
                    })
                    .collect();
                self.prefetch(&variants);
            }
            // j = 0 (focus removed alone) is already known to fail — the
            // regular search tried it before entering triage.
            for j in 1..=others.len() {
                let removed = &others[others.len() - j..];
                let mut probe_edit = Edit::new().remove_expr(focus);
                for &r in removed {
                    probe_edit = probe_edit.remove_expr(r);
                }
                let focus_span = scope.prog.find_expr(focus).map_or(Span::DUMMY, |node| node.span);
                self.label(ProbeKind::TriageContext, focus_span, || {
                    format!("focus {} with {} sibling(s) removed", focus, j)
                });
                if self.check(&edit::apply(&scope.prog, &probe_edit)) {
                    // Some fix exists for the focus in this context.
                    let mut ctx_edit = Edit::new();
                    for &r in removed {
                        ctx_edit = ctx_edit.remove_expr(r);
                    }
                    let ctx = Scope::new(edit::apply(&scope.prog, &ctx_edit));
                    self.search_expr(&ctx, focus, depth + 1, true, j);
                    break;
                }
            }
        }
    }

    /// Match-expression triage in three phases (§2.4, Figure 4):
    /// scrutinee first, then patterns, then arm bodies.
    fn triage_match(
        &mut self,
        scope: &Scope,
        node: &Expr,
        scrut: &Expr,
        arms: &[Arm],
        depth: usize,
    ) {
        let span = self.begin_triage_round();
        self.triage_match_inner(scope, node, scrut, arms, depth);
        self.tracer.close(span);
    }

    fn triage_match_inner(
        &mut self,
        scope: &Scope,
        node: &Expr,
        scrut: &Expr,
        arms: &[Arm],
        depth: usize,
    ) {
        // Phase 1: scrutinee alone — `match scrut with _ -> [[...]]`.
        let phase1 = Expr::synth(
            ExprKind::Match(
                Box::new(scrut.clone()),
                vec![Arm {
                    pat: Pat::wild(Span::DUMMY),
                    guard: None,
                    body: Expr::hole(Span::DUMMY),
                }],
            ),
            Span::DUMMY,
        );
        let p1 = edit::replace_expr(&scope.prog, node.id, phase1);
        self.label(ProbeKind::TriageMatch { phase: 1 }, scrut.span, || expr_to_string(scrut));
        if !self.check(&p1) {
            let ctx = Scope::new(p1);
            self.search_expr(&ctx, scrut.id, depth + 1, true, arms.len());
            return;
        }

        // Phase 2: patterns, with every arm body removed.
        let phase2 = Expr::synth(
            ExprKind::Match(
                Box::new(scrut.clone()),
                arms.iter()
                    .map(|arm| Arm {
                        pat: arm.pat.clone(),
                        // Guards are dropped for the pattern phase: they
                        // may carry their own errors, which phase 3 and
                        // the regular descent handle.
                        guard: None,
                        body: Expr::hole(Span::DUMMY),
                    })
                    .collect(),
            ),
            Span::DUMMY,
        );
        let p2 = edit::replace_expr(&scope.prog, node.id, phase2);
        self.label(ProbeKind::TriageMatch { phase: 2 }, node.span, || expr_to_string(node));
        if !self.check(&p2) {
            self.triage_patterns(&Scope::new(p2), arms);
            return;
        }

        // Phase 3: the arm bodies, as ordinary siblings.
        let members: Vec<NodeId> = arms.iter().map(|a| a.body.id).collect();
        if !members.is_empty() {
            self.triage_siblings(scope, &members, depth);
        }
    }

    /// Pattern-phase triage: focus each arm pattern while cumulatively
    /// wildcarding the others, then search for the smallest subpattern
    /// whose replacement with `_` fixes the (body-less) match.
    fn triage_patterns(&mut self, scope: &Scope, arms: &[Arm]) {
        let pats: Vec<NodeId> = arms.iter().map(|a| a.pat.id).collect();
        for (i, &focus) in pats.iter().enumerate() {
            if self.done() {
                return;
            }
            let others: Vec<NodeId> =
                pats.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, p)| *p).collect();
            // Speculative frontier: this focus pattern wildcarded with
            // each cumulative widening of wildcarded siblings.
            if self.wants_prefetch(others.len() + 1) {
                let variants: Vec<Program> = (0..=others.len())
                    .map(|j| {
                        let removed = &others[others.len() - j..];
                        let mut probe = Edit::new().replace_pat(focus, Pat::wild(Span::DUMMY));
                        for &r in removed {
                            probe = probe.replace_pat(r, Pat::wild(Span::DUMMY));
                        }
                        edit::apply(&scope.prog, &probe)
                    })
                    .collect();
                self.prefetch(&variants);
            }
            for j in 0..=others.len() {
                let removed = &others[others.len() - j..];
                let mut probe = Edit::new().replace_pat(focus, Pat::wild(Span::DUMMY));
                for &r in removed {
                    probe = probe.replace_pat(r, Pat::wild(Span::DUMMY));
                }
                self.label(ProbeKind::TriagePattern, arms[i].pat.span, || {
                    format!(
                        "focus pattern {} with {} sibling(s) wildcarded",
                        pat_to_string(&arms[i].pat),
                        j
                    )
                });
                if self.check(&edit::apply(&scope.prog, &probe)) {
                    let mut ctx_edit = Edit::new();
                    for &r in removed {
                        ctx_edit = ctx_edit.replace_pat(r, Pat::wild(Span::DUMMY));
                    }
                    let ctx = Scope::new(edit::apply(&scope.prog, &ctx_edit));
                    let pat = arms[i].pat.clone();
                    self.search_pattern(&ctx, &pat, j);
                    break;
                }
            }
        }
    }

    /// Descends into a pattern looking for the smallest subpattern whose
    /// replacement by `_` makes the context type-check; reports it as a
    /// (triaged) removal — "try replacing `5` with `_`".
    fn search_pattern(&mut self, scope: &Scope, pat: &Pat, removed_siblings: usize) -> bool {
        let variant =
            edit::apply(&scope.prog, &Edit::new().replace_pat(pat.id, Pat::wild(Span::DUMMY)));
        self.label(ProbeKind::TriagePattern, pat.span, || pat_to_string(pat));
        if !self.check(&variant) {
            return false;
        }
        let mut children = Vec::new();
        pat.for_each_child(&mut |c| children.push(c.clone()));
        let mut any_child = false;
        for c in &children {
            if self.search_pattern(scope, c, removed_siblings) {
                any_child = true;
            }
        }
        if !any_child && !matches!(pat.kind, PatKind::Wild) {
            // The context is the declaration containing the match in the
            // *variant* program (bodies holed, other patterns wildcarded,
            // this pattern fixed) — the presentation of Figure 4.
            let context_str = variant
                .decls
                .iter()
                .map(|d| decl_to_string(d))
                .find(|s| s.contains("match"))
                .unwrap_or_else(|| {
                    variant.decls.last().map(|d| decl_to_string(d)).unwrap_or_default()
                });
            self.suggestions.push(Suggestion {
                focus: Focus::Pat { target: pat.id, replacement: Pat::wild(Span::DUMMY) },
                kind: ChangeKind::Removal,
                triaged: true,
                removed_siblings,
                original_str: pat_to_string(pat),
                replacement_str: "_".to_owned(),
                new_type: None,
                context_str,
                span: pat.span,
                depth: 0,
                size: pat.size(),
                right_pos: 0,
                preserves_content: false,
                superseded: false,
                variant,
                unbound_hint: None,
                blame: self.blame_at(pat.span),
            });
        }
        true
    }
}

/// The variable and literal atoms of an expression, used by the
/// content-preservation ranking heuristic.
fn leaf_atoms(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    e.walk(&mut |n| match &n.kind {
        ExprKind::Var(name) => out.push(name.clone()),
        ExprKind::Lit(_) => out.push(expr_to_string(n)),
        _ => {}
    });
    out
}

/// The independent, binding-free sub-regions of a node that triage may
/// wildcard while focusing on a sibling.
fn triage_members(node: &Expr) -> Vec<NodeId> {
    match &node.kind {
        ExprKind::App(_, _) => {
            let (head, args) = app_chain(node);
            let mut m = vec![head.id];
            m.extend(args.iter().map(|a| a.id));
            m
        }
        ExprKind::Tuple(es) | ExprKind::List(es) => es.iter().map(|e| e.id).collect(),
        ExprKind::BinOp(_, l, r) | ExprKind::Seq(l, r) => vec![l.id, r.id],
        ExprKind::If(c, t, e) => {
            let mut m = vec![c.id, t.id];
            if let Some(e) = e {
                m.push(e.id);
            }
            m
        }
        ExprKind::Record(fields) => fields.iter().map(|(_, v)| v.id).collect(),
        ExprKind::Let { bindings, body, .. } => {
            let mut m: Vec<NodeId> = bindings.iter().map(|b| b.body.id).collect();
            m.push(body.id);
            m
        }
        _ => Vec::new(),
    }
}
