//! The single entry point mapping API requests onto searches.
//!
//! [`dispatch`] is the **only** place in the workspace that turns a
//! [`Request`]'s fields into a `SearchConfig`/`Budget` — both the
//! serve daemon's connection loop and the one-shot CLI subcommands
//! call it, so exit codes, degraded statuses, crash attachment, and
//! admission control cannot drift between the two front ends.
//! Configuration problems surface as the builder's own typed
//! `ConfigError`, wrapped in [`ApiError`], wrapped in an
//! [`ErrorResponse`] — never as an ad-hoc string.
//!
//! [`ServerState`] is what makes the daemon warm: the process-lifetime
//! [`VerdictMemo`] every request's probes go through, plus the running
//! metrics aggregate a `metrics` request snapshots. A chaos request
//! shares the memo too: its faults are injected at the search's probe
//! guards, above the memo, so the memo only ever holds the checker's
//! clean outcomes.

use crate::api::{
    AnalyzeRequest, AnalyzeResponse, ApiError, CheckRequest, CheckResponse, ErrorResponse,
    MetricsResponse, OverloadedResponse, PayloadEntry, Request, Response, ShutdownResponse,
    StatsSummary, Status,
};
use crate::overload::{Admission, OverloadPolicy};
use seminal_analysis::BackendKind;
use seminal_core::{
    message, Outcome, SearchConfig, SearchReport, SearchSession, SharedMemoOracle, VerdictMemo,
    DEFAULT_CROSS_MEMO_CAPACITY,
};
use seminal_ml::parser::parse_program;
use seminal_obs::{keys, MetricsSnapshot, TraceSink};
use seminal_typeck::{ChaosConfig, CheckpointedOracle, Oracle, TypeCheckOracle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Construction-time server tuning: memo capacity plus the overload
/// policy the admission gate enforces.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Cross-request memo capacity in probe outcomes (`--memo-capacity`).
    pub memo_capacity: usize,
    /// Admission-gate policy (`--max-inflight`).
    pub overload: OverloadPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            memo_capacity: DEFAULT_CROSS_MEMO_CAPACITY,
            overload: OverloadPolicy::default(),
        }
    }
}

/// Process-lifetime server state shared by every request.
pub struct ServerState {
    memo: Arc<VerdictMemo>,
    /// Running aggregate of every request's metrics (counters add,
    /// histograms combine — the eval runner's merge semantics).
    totals: Mutex<MetricsSnapshot>,
    requests: AtomicU64,
    admission: Admission,
    /// How long the last graceful drain took (`server.drain_ns`).
    drain_ns: AtomicU64,
}

impl ServerState {
    /// State with the default cross-request memo capacity.
    #[must_use]
    pub fn new() -> ServerState {
        ServerState::with_config(ServerConfig::default())
    }

    /// State with full construction-time tuning.
    #[must_use]
    pub fn with_config(config: ServerConfig) -> ServerState {
        ServerState {
            memo: Arc::new(VerdictMemo::bounded(config.memo_capacity)),
            totals: Mutex::new(MetricsSnapshot::default()),
            requests: AtomicU64::new(0),
            admission: Admission::new(config.overload),
            drain_ns: AtomicU64::new(0),
        }
    }

    /// The admission gate (connection front ends use it to shed whole
    /// connections past `--max-connections` with an honest retry hint).
    #[must_use]
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Records how long the listener's graceful drain took.
    pub fn note_drain(&self, drain: Duration) {
        self.drain_ns.store(u64::try_from(drain.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The shared cross-request memo.
    #[must_use]
    pub fn memo(&self) -> &Arc<VerdictMemo> {
        &self.memo
    }

    /// Requests dispatched so far.
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The process-wide `seminal-obs/metrics-v1` snapshot: the merged
    /// per-request metrics, with the cross-request memo counters and
    /// server counters re-stamped from their live process totals (they
    /// are gauges/process counters, not summable per-request deltas).
    #[must_use]
    pub fn process_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.totals.lock().expect("server totals poisoned").clone();
        snap.counters.insert(keys::CROSS_REQUEST_HITS.to_owned(), self.memo.hits());
        snap.counters.insert(keys::CROSS_REQUEST_MISSES.to_owned(), self.memo.misses());
        snap.counters.insert(keys::CROSS_REQUEST_EVICTIONS.to_owned(), self.memo.evictions());
        snap.counters.insert(keys::CROSS_REQUEST_ENTRIES.to_owned(), self.memo.len() as u64);
        snap.counters.insert(keys::SERVER_REQUESTS.to_owned(), self.requests_served());
        snap.counters.insert(keys::SERVER_SHED.to_owned(), self.admission.shed());
        snap.counters.insert(keys::SERVER_INFLIGHT.to_owned(), self.admission.inflight() as u64);
        snap.counters
            .insert(keys::SERVER_DRAIN_NS.to_owned(), self.drain_ns.load(Ordering::Relaxed));
        snap
    }

    /// Folds one request's metrics and wall-clock cost into the totals.
    fn absorb(&self, per_request: Option<&MetricsSnapshot>, request_ns: u64) {
        let mut totals = self.totals.lock().expect("server totals poisoned");
        if let Some(snap) = per_request {
            totals.merge(snap);
        }
        totals
            .histograms
            .entry(keys::SERVER_REQUEST_NS.to_owned())
            .or_default()
            .observe(request_ns);
    }

    /// Records one admitted request's queue wait.
    fn observe_queue(&self, queued: Duration) {
        let mut totals = self.totals.lock().expect("server totals poisoned");
        totals
            .histograms
            .entry(keys::SERVER_QUEUE_DEPTH_NS.to_owned())
            .or_default()
            .observe(u64::try_from(queued.as_nanos()).unwrap_or(u64::MAX));
    }
}

impl Default for ServerState {
    fn default() -> ServerState {
        ServerState::new()
    }
}

/// Front-end attachments that are not part of the wire request: trace
/// sinks (`--trace-json`) and whether to capture the record stream in
/// the report (`--trace`/`--profile`/`--trace-chrome`).
#[derive(Default)]
pub struct DispatchHooks {
    /// Sinks every trace record is streamed to.
    pub sinks: Vec<Arc<dyn TraceSink>>,
    /// Capture records in the returned report (costs memory; the wire
    /// response never carries raw records).
    pub collect_trace: bool,
}

/// A dispatched request: the wire response, plus the in-process
/// [`SearchReport`] for front ends that render more than the wire form
/// carries (`--trace`, `--profile`, `--trace-chrome`).
pub struct Dispatched {
    /// What goes on the wire.
    pub response: Response,
    /// The full report, for `check` requests that ran a search.
    pub report: Option<SearchReport>,
}

/// Serves one request against the shared state. Never panics on bad
/// input: malformed configuration comes back as an
/// [`ErrorResponse`] with [`Status::InvalidRequest`].
pub fn dispatch(state: &ServerState, request: &Request) -> Dispatched {
    dispatch_with(state, request, DispatchHooks::default())
}

/// [`dispatch`] with front-end hooks attached.
pub fn dispatch_with(state: &ServerState, request: &Request, hooks: DispatchHooks) -> Dispatched {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let dispatched = match request {
        // Work requests pass the admission gate; `metrics` and
        // `shutdown` never do — a saturated server must still answer
        // health checks and must always be stoppable.
        Request::Check(c) => match state.admission.admit(c.deadline_ms) {
            Err(retry_after_ms) => overloaded(c.id, retry_after_ms),
            Ok(permit) => {
                state.observe_queue(permit.queued());
                run_check(state, c, &hooks, permit.queued())
                // `permit` drops here: slot freed, service time fed to
                // the shed estimator.
            }
        },
        Request::Analyze(a) => match state.admission.admit(a.deadline_ms) {
            Err(retry_after_ms) => overloaded(a.id, retry_after_ms),
            Ok(permit) => {
                state.observe_queue(permit.queued());
                run_analyze(a)
            }
        },
        Request::Metrics(m) => Dispatched {
            response: Response::Metrics(MetricsResponse {
                id: m.id,
                status: Status::Ok,
                metrics: state.process_snapshot(),
            }),
            report: None,
        },
        Request::Shutdown(s) => Dispatched {
            response: Response::Shutdown(ShutdownResponse {
                id: s.id,
                status: Status::Ok,
                requests_served: state.requests_served(),
            }),
            report: None,
        },
    };
    let per_request = match &dispatched.response {
        Response::Check(r) => Some(&r.metrics),
        _ => None,
    };
    state.absorb(per_request, started.elapsed().as_nanos() as u64);
    dispatched
}

fn error_response(id: u64, status: Status, error: String) -> Dispatched {
    Dispatched { response: Response::Error(ErrorResponse { id, status, error }), report: None }
}

/// The typed load-shedding response: the request was well-formed but
/// the server is saturated; `retry_after_ms` is its own estimate of
/// when a slot frees up.
fn overloaded(id: u64, retry_after_ms: u64) -> Dispatched {
    Dispatched {
        response: Response::Overloaded(OverloadedResponse {
            id,
            status: Status::Overloaded,
            retry_after_ms,
        }),
        report: None,
    }
}

/// `check`: one oracle stack for every request, the shared memo over
/// the request's checker, and the search.
fn run_check(
    state: &ServerState,
    c: &CheckRequest,
    hooks: &DispatchHooks,
    queued: Duration,
) -> Dispatched {
    let clock = Instant::now();
    let parsed = parse_program(&c.source);
    let parse_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let prog = match parsed {
        Ok(p) => p,
        Err(e) => return error_response(c.id, Status::ParseError, e.to_string()),
    };
    // The real checker for this request: checkpointed (incremental)
    // unless the client opted out. Its one inference of the base also
    // records the blame trace and types the suggestions. Every probe
    // goes through the process-lifetime memo, so a warm identical
    // request makes no real probe; the baseline check always reaches
    // the checker, so its location is this source's.
    let (incremental, scratch) = (CheckpointedOracle::new(), TypeCheckOracle::new());
    let checker: &dyn Oracle = if c.no_incremental { &scratch } else { &incremental };
    let oracle = SharedMemoOracle::new(checker, state.memo.clone());
    let mut dispatched = run_search(state, c, hooks, queued, &prog, &oracle);
    // The parse stage, in the wire snapshot (and so the daemon's
    // totals) and in the report's (`--metrics-json`).
    if let Response::Check(r) = &mut dispatched.response {
        r.metrics.counters.insert(keys::STAGE_PARSE_NS.to_owned(), parse_ns);
    }
    if let Some(report) = &mut dispatched.report {
        report.metrics.counters.insert(keys::STAGE_PARSE_NS.to_owned(), parse_ns);
    }
    dispatched
}

fn run_search(
    state: &ServerState,
    c: &CheckRequest,
    hooks: &DispatchHooks,
    queued: Duration,
    prog: &seminal_ml::ast::Program,
    oracle: &SharedMemoOracle<&dyn Oracle>,
) -> Dispatched {
    let mut config =
        if c.no_triage { SearchConfig::without_triage() } else { SearchConfig::default() };
    config.collect_trace = hooks.collect_trace;
    config.guidance_backend = c.backend;
    let mut builder = SearchSession::builder(oracle).config(config);
    if c.chaos_flip > 0 || c.chaos_panic > 0 {
        let mut chaos = ChaosConfig::flips(c.chaos_seed, c.chaos_flip);
        chaos.panic_per_mille = c.chaos_panic;
        builder = builder.chaos(chaos);
    }
    if let Some(ms) = c.deadline_ms {
        // Admission control: the per-request deadline becomes the
        // search `Budget`'s wall-clock bound, and time already burned
        // queuing for an admission slot is charged against it so
        // `deadline_ms` bounds *end-to-end* latency, not just search.
        builder = builder.deadline_ms(ms).admission_lag(queued);
    }
    for sink in &hooks.sinks {
        builder = builder.sink(sink.clone());
    }
    // The builder's typed validation is the admission check — there is
    // deliberately no second hand-rolled validator here.
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            return error_response(c.id, Status::InvalidRequest, ApiError::from(e).to_string())
        }
    };
    let report = session.search(prog);

    // Every cross-request miss is exactly one real probe; the uncached
    // baseline check is not counted.
    let mut metrics = report.metrics.clone();
    let counters = &mut metrics.counters;
    counters.insert(keys::CROSS_REQUEST_HITS.to_owned(), oracle.hits());
    counters.insert(keys::CROSS_REQUEST_MISSES.to_owned(), oracle.misses());
    counters.insert(keys::CROSS_REQUEST_EVICTIONS.to_owned(), oracle.evictions());
    counters.insert(keys::CROSS_REQUEST_ENTRIES.to_owned(), state.memo.len() as u64);
    counters.insert(keys::ORACLE_REAL_CALLS.to_owned(), oracle.misses());

    let status = match &report.outcome {
        Outcome::WellTyped => Status::Ok,
        _ if report.completion.is_complete() => Status::TypeErrors,
        _ => Status::Degraded,
    };
    let response = Response::Check(Box::new(CheckResponse {
        id: c.id,
        status,
        completion: report.completion.tag().to_owned(),
        baseline: report.baseline.as_ref().map(|e| e.render(&c.source)),
        rendered: message::render_report(
            &report,
            &c.source,
            usize::try_from(c.top).unwrap_or(usize::MAX),
        ),
        payload: report
            .payload()
            .into_iter()
            .map(|(original, replacement, new_type, triaged)| PayloadEntry {
                original,
                replacement,
                new_type,
                triaged,
            })
            .collect(),
        stats: StatsSummary {
            oracle_calls: report.stats.oracle_calls,
            elapsed_ns: report.stats.elapsed.as_nanos() as u64,
            triage_used: report.stats.triage_used,
        },
        metrics,
        crash: report.crash.clone(),
    }));
    Dispatched { response, report: Some(report) }
}

/// `analyze`: oracle-free localization. Rendered with the backend's
/// own report; the status comes from the backend-agnostic
/// localization, so "error found, nothing to rank" ([`Status::NoCore`])
/// stays distinct from "localized" ([`Status::TypeErrors`]).
fn run_analyze(a: &AnalyzeRequest) -> Dispatched {
    let prog = match parse_program(&a.source) {
        Ok(p) => p,
        Err(e) => return error_response(a.id, Status::ParseError, e.to_string()),
    };
    let top = usize::try_from(a.top).unwrap_or(usize::MAX);
    let (rendered, localization) = match a.backend {
        BackendKind::Blame => match seminal_analysis::analyze(&prog) {
            None => (None, None),
            Some(analysis) => (
                Some(seminal_analysis::render_report(&analysis, &a.source, top)),
                Some(analysis.into_localization()),
            ),
        },
        BackendKind::Mcs => match seminal_analysis::analyze_mcs(&prog) {
            None => (None, None),
            Some(analysis) => (
                Some(seminal_analysis::render_mcs_report(&analysis, &a.source, top)),
                Some(analysis.into_localization()),
            ),
        },
    };
    let response = match (rendered, localization) {
        (Some(report), Some(loc)) => Response::Analyze(AnalyzeResponse {
            id: a.id,
            status: if loc.is_empty() { Status::NoCore } else { Status::TypeErrors },
            backend: a.backend,
            rendered: report,
        }),
        _ => Response::Analyze(AnalyzeResponse {
            id: a.id,
            status: Status::Ok,
            backend: a.backend,
            rendered: String::new(),
        }),
    };
    Dispatched { response, report: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ILL_TYPED: &str = "let x = 1 + true";

    fn check_response(state: &ServerState, request: &Request) -> CheckResponse {
        match dispatch(state, request).response {
            Response::Check(r) => *r,
            other => panic!("check answered with a non-check response: {other:?}"),
        }
    }

    /// A saturated gate answers work requests with the typed
    /// `overloaded` response — counted as served, stamped into the
    /// process snapshot — while `metrics`/`shutdown` bypass the gate.
    #[test]
    fn saturated_gate_sheds_with_a_typed_response() {
        let state = ServerState::with_config(ServerConfig {
            overload: OverloadPolicy {
                max_inflight: 1,
                // A 1s service estimate makes any small deadline doomed.
                expected_service_ns: 1_000_000_000,
                ..OverloadPolicy::default()
            },
            ..ServerConfig::default()
        });
        let held = state.admission().admit(None).expect("free gate admits");

        let doomed = Request::Check(CheckRequest {
            deadline_ms: Some(5),
            ..CheckRequest::new(9, ILL_TYPED)
        });
        match dispatch(&state, &doomed).response {
            Response::Overloaded(o) => {
                assert_eq!(o.id, 9);
                assert_eq!(o.status, Status::Overloaded);
                assert!(o.retry_after_ms > 0, "shed must carry a retry hint");
            }
            other => panic!("saturated check must shed, got {other:?}"),
        }

        // Health checks are never shed, even at saturation.
        let metrics = dispatch(
            &state,
            &Request::Metrics(crate::api::MetricsRequest { id: 10, deadline_ms: None }),
        );
        let Response::Metrics(m) = metrics.response else { panic!("metrics must bypass the gate") };
        assert_eq!(m.metrics.counter(keys::SERVER_SHED), 1);
        assert_eq!(m.metrics.counter(keys::SERVER_INFLIGHT), 1);
        assert_eq!(state.requests_served(), 2, "shed requests still count as served");
        drop(held);
    }

    /// `no_incremental` puts the oracle in scratch mode, and with it
    /// the suggestion typing and the blame trace it answers; the answer
    /// must not move, the "of type …" of every suggestion included.
    #[test]
    fn no_incremental_checks_answer_like_the_default() {
        let source = "let map2 f aList bList = List.map (fun (a, b) -> f a b) \
                      (List.combine aList bList)\n\
                      let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
                      let ans = List.filter (fun x -> x == 0) lst";
        let default =
            check_response(&ServerState::new(), &Request::Check(CheckRequest::new(1, source)));
        let scratch = check_response(
            &ServerState::new(),
            &Request::Check(CheckRequest { no_incremental: true, ..CheckRequest::new(2, source) }),
        );
        assert!(default.payload.iter().any(|e| e.new_type.is_some()));
        assert_eq!(scratch.payload, default.payload);
        assert_eq!(scratch.rendered, default.rendered);
        assert!(default.metrics.counter(keys::ORACLE_DECLS_RECHECK) > 0);
        assert_eq!(scratch.metrics.counter(keys::ORACLE_DECLS_RECHECK), 0);
    }

    const FIGURE2: &str = "let map2 f aList bList = List.map (fun (a, b) -> f a b) \
                           (List.combine aList bList)\n\
                           let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
                           let ans = List.filter (fun x -> x == 0) lst";

    /// A check of [`FIGURE2`] with the given chaos rates.
    fn figure2(id: u64, chaos_flip: u16, chaos_panic: u16) -> Request {
        Request::Check(CheckRequest {
            chaos_flip,
            chaos_panic,
            chaos_seed: 5,
            ..CheckRequest::new(id, FIGURE2)
        })
    }

    /// What a user sees of a check answer.
    fn answer(r: &CheckResponse) -> (Status, &str, &[PayloadEntry], Option<&str>) {
        (r.status, r.rendered.as_str(), r.payload.as_slice(), r.baseline.as_deref())
    }

    /// Chaos requests share the daemon's memo. Their faults are injected
    /// above it, so a warm memo neither neutralizes a flip (the chaos
    /// answer is the cold one) nor learns one (a later clean request
    /// is answered like the first, entirely from the memo). Half the
    /// calls flip; seed 5 leaves the baseline alone, so the request
    /// searches (a flipped baseline reads well-typed and probes nothing).
    #[test]
    fn chaos_requests_answer_alike_through_a_cold_and_a_warm_memo() {
        let cold = check_response(&ServerState::new(), &figure2(1, 500, 0));
        assert_eq!(cold.status, Status::TypeErrors, "the baseline was not flipped");

        let state = ServerState::new();
        let clean = check_response(&state, &figure2(2, 0, 0));
        let warm = check_response(&state, &figure2(3, 500, 0));
        assert_eq!(answer(&warm), answer(&cold));
        assert_ne!(warm.payload, clean.payload, "the flips change the answer");
        assert!(warm.metrics.counter(keys::CROSS_REQUEST_HITS) > 0, "the memo answered probes");

        let again = check_response(&state, &figure2(4, 0, 0));
        assert_eq!(answer(&again), answer(&clean));
        assert_eq!(again.metrics.counter(keys::ORACLE_REAL_CALLS), 0);
    }

    /// Every search-level oracle call of a one-thread request whose
    /// baseline did not fault is that baseline, which no memo answers,
    /// or a probe the memo answered or passed on to the checker, clean
    /// and chaos requests alike.
    #[test]
    fn every_oracle_call_is_the_baseline_a_memo_hit_or_a_real_call() {
        let prog = parse_program(FIGURE2).unwrap();
        let state = ServerState::new();
        for (id, flip, panic) in [(1, 0, 0), (2, 500, 0), (3, 0, 0), (4, 0, 200), (5, 300, 200)] {
            let chaos = ChaosConfig { flip_per_mille: flip, ..ChaosConfig::panics(5, panic) };
            assert!(!chaos.would_panic(&prog), "request {id}: the baseline does not fault");
            let m = check_response(&state, &figure2(id, flip, panic)).metrics;
            assert_eq!(m.counter("probe_faults") > 0, panic > 0, "request {id}: panics fired");
            assert_eq!(
                m.counter(keys::CROSS_REQUEST_HITS) + m.counter(keys::ORACLE_REAL_CALLS) + 1,
                m.counter("oracle_calls"),
                "request {id} (flip {flip}, panic {panic})"
            );
        }
    }

    #[test]
    fn parse_time_is_stamped_into_every_snapshot() {
        let state = ServerState::new();
        let request = Request::Check(CheckRequest::new(1, ILL_TYPED));
        let dispatched = dispatch(&state, &request);
        let Response::Check(response) = &dispatched.response else { panic!("not a check") };
        let parse_ns = response.metrics.counter(keys::STAGE_PARSE_NS);
        assert!(parse_ns > 0);
        let report = dispatched.report.expect("a check carries its report");
        assert_eq!(report.metrics.counter(keys::STAGE_PARSE_NS), parse_ns);

        let second = check_response(&state, &request).metrics.counter(keys::STAGE_PARSE_NS);
        assert_eq!(state.process_snapshot().counter(keys::STAGE_PARSE_NS), parse_ns + second);
    }
}
