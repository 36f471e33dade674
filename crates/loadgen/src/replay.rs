//! Session replay: Figure 6's recompile groups as concurrent clients.
//!
//! Each client walks a slice of the generated ill-typed corpus; for
//! every problem it draws a group size from the session model and
//! re-sends the *same* source that many times — the same-problem
//! recompile loop that makes the cross-request memo earn its keep.
//! The fleet runs in lockstep rounds: every client connects, then all
//! send their next request together, and every client starts problem
//! `p` in the same round. So each problem's first, memo-cold
//! submissions arrive as one burst, and a small admission gate is
//! overloaded by the load's shape rather than by scheduling luck.
//! Clients classify every response (completed / degraded / shed /
//! error / malformed), validate the probe-accounting identity on every
//! check, and time each round trip.

use seminal_corpus::generate::{generate, small_config};
use seminal_corpus::session::sample_group_size;
use seminal_obs::{MetricsSnapshot, SplitMix64};
use seminal_serve::{
    serve_tcp, CheckRequest, MetricsRequest, Request, Response, ServeOptions, ServerConfig,
    ServerState, ShutdownRequest, Status,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long a client waits for any single response before declaring
/// the harness wedged (a *harness* bound, far above any sane request
/// deadline — it exists so a dead server fails the run instead of
/// hanging it).
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The load shape one run replays.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent TCP clients.
    pub clients: usize,
    /// Distinct corpus problems each client works through.
    pub problems_per_client: usize,
    /// Seed for the corpus, the group-size draws, and the chaos picks.
    pub seed: u64,
    /// Think time between a client's requests (0 = closed loop).
    pub arrival_ms: u64,
    /// Per-request deadline forwarded to the server (`None` = none) —
    /// under saturation this is what turns queue waits into sheds.
    pub deadline_ms: Option<u64>,
    /// Per-mille of requests that carry chaos injection flags.
    pub chaos_share_milli: u16,
    /// Verdict-flip rate (per mille) on chaos requests.
    pub chaos_flip: u16,
    /// Probe-panic rate (per mille) on chaos requests.
    pub chaos_panic: u16,
    /// Cap on recompiles per problem, so the session model's heavy
    /// tail cannot make one CI run unbounded.
    pub max_group: usize,
    /// `top` forwarded on every check request.
    pub top: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 4,
            problems_per_client: 3,
            seed: 42,
            arrival_ms: 0,
            deadline_ms: Some(2_000),
            chaos_share_milli: 0,
            chaos_flip: 250,
            chaos_panic: 50,
            max_group: 6,
            top: 3,
        }
    }
}

/// One client's tally.
#[derive(Debug, Clone, Default)]
struct ClientTally {
    requests: u64,
    completed: u64,
    degraded: u64,
    shed: u64,
    errors: u64,
    /// Lines that failed to parse as a `seminal-api/v1` response, plus
    /// typed responses violating their own contract (an `overloaded`
    /// without a retry hint).
    malformed: u64,
    /// Check responses where `memo.cross_request_hits +
    /// oracle.real_calls + probes.baseline < oracle_calls`.
    accounting_violations: u64,
    latencies_ns: Vec<u64>,
}

/// What a whole replay observed, fleet-wide.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent clients that ran.
    pub clients: usize,
    /// Work requests sent (checks only; the control connection's
    /// `metrics`/`shutdown` are not load).
    pub requests: u64,
    /// Responses with a complete search (`ok`/`type_errors`).
    pub completed: u64,
    /// Responses that ran out of budget (`degraded`).
    pub degraded: u64,
    /// Typed `overloaded` rejections.
    pub shed: u64,
    /// Error responses (should be zero: the replay sends only
    /// well-formed requests over parseable sources).
    pub errors: u64,
    /// Unparseable or contract-violating response lines (pinned zero).
    pub malformed: u64,
    /// Probe-accounting identity violations (pinned zero).
    pub accounting_violations: u64,
    /// Per-request round-trip latencies, ascending.
    pub latencies_ns: Vec<u64>,
    /// Work requests per client, in client order — their sum plus the
    /// control requests must equal `ShutdownResponse::requests_served`.
    pub per_client_requests: Vec<u64>,
    /// Whole-run wall clock.
    pub wall_clock_ns: u64,
    /// The server's process-wide metrics snapshot, taken by the control
    /// connection after every client finished.
    pub snapshot: Option<MetricsSnapshot>,
    /// `requests_served` echoed by the server's shutdown response
    /// (when the replay was asked to shut the server down).
    pub requests_served: Option<u64>,
    /// Control requests this replay itself sent (`metrics`, and
    /// `shutdown` when requested).
    pub control_requests: u64,
}

impl LoadReport {
    /// Shed requests per thousand sent.
    #[must_use]
    pub fn shed_rate_milli(&self) -> u64 {
        self.shed * 1_000 / self.requests.max(1)
    }

    /// Degraded completions per thousand sent.
    #[must_use]
    pub fn degraded_rate_milli(&self) -> u64 {
        self.degraded * 1_000 / self.requests.max(1)
    }

    /// Cross-request memo hits per thousand memo lookups (from the
    /// server's own snapshot).
    #[must_use]
    pub fn memo_hit_rate_milli(&self) -> u64 {
        let Some(snapshot) = &self.snapshot else { return 0 };
        let hits = snapshot.counter("memo.cross_request_hits");
        let misses = snapshot.counter("memo.cross_request_misses");
        hits * 1_000 / (hits + misses).max(1)
    }
}

/// One client's session, drawn up front from the session model as wire
/// lines: for each problem of its slice of the corpus, a recompile
/// group re-sending the *same* source.
fn plan_client(cfg: &LoadConfig, client: usize, sources: &[String]) -> Vec<Vec<String>> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ (client as u64).wrapping_mul(0x9E37));
    let mut seq: u64 = 0;
    let mut plan = Vec::new();
    for problem in 0..cfg.problems_per_client {
        let source = &sources[(client * cfg.problems_per_client + problem) % sources.len()];
        // The Figure 6 recompile loop: the same problem, resubmitted.
        let group = sample_group_size(&mut rng).min(cfg.max_group.max(1));
        let mut lines = Vec::with_capacity(group);
        for _recompile in 0..group {
            seq += 1;
            let mut request = CheckRequest::new((client as u64) << 32 | seq, source.as_str());
            request.top = cfg.top;
            request.deadline_ms = cfg.deadline_ms;
            if u16::try_from(rng.random_range(0..1000usize)).unwrap_or(1000) < cfg.chaos_share_milli
            {
                request.chaos_flip = cfg.chaos_flip;
                request.chaos_panic = cfg.chaos_panic;
                request.chaos_seed = rng.next_u64();
            }
            let mut line = Request::Check(request).to_json_string();
            line.push('\n');
            lines.push(line);
        }
        plan.push(lines);
    }
    plan
}

/// One client's session: its `schedule` against `addr`, one line per
/// round. The fleet meets at `round` before every round, so a round's
/// requests arrive together; a client that sits a round out (`None`),
/// or whose connection failed, still meets the others.
fn run_client(
    addr: &str,
    cfg: &LoadConfig,
    client: usize,
    schedule: &[Option<&String>],
    round: &Barrier,
) -> std::io::Result<ClientTally> {
    let who = format!("client {client}'s connection");
    let mut tally = ClientTally::default();
    let mut conn = connect(addr);
    for line in schedule {
        round.wait();
        let (Ok((reader, stream)), Some(line)) = (&mut conn, line) else { continue };
        if cfg.arrival_ms > 0 {
            std::thread::sleep(Duration::from_millis(cfg.arrival_ms));
        }
        let started = Instant::now();
        match round_trip(reader, stream, line, &who) {
            Ok(response) => {
                tally.requests += 1;
                tally
                    .latencies_ns
                    .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                classify(&response, &mut tally);
            }
            Err(e) => conn = Err(e),
        }
    }
    conn.map(|_| tally)
}

/// A connection to `addr` with the harness's read timeout.
fn connect(addr: &str) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
    // Without this, Nagle + delayed ACK adds ~40ms per round trip and
    // de-facto serializes the fleet — no saturation, no shed coverage.
    let _ = stream.set_nodelay(true);
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Sends one request line and reads one response line; `who` names the
/// connection if the server closes it.
fn round_trip(
    reader: &mut impl BufRead,
    stream: &mut TcpStream,
    line: &str,
    who: &str,
) -> std::io::Result<String> {
    stream.write_all(line.as_bytes())?;
    stream.flush()?;
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("server closed {who} mid-session"),
        ));
    }
    Ok(response)
}

/// Buckets one response line and validates its contract.
fn classify(line: &str, tally: &mut ClientTally) {
    match Response::from_json_str(line.trim_end()) {
        Err(_) => tally.malformed += 1,
        Ok(Response::Overloaded(shed)) => {
            // The shed contract: a typed rejection with an actionable
            // retry hint — anything else is a malformed shed.
            if shed.status == Status::Overloaded && shed.retry_after_ms > 0 {
                tally.shed += 1;
            } else {
                tally.malformed += 1;
            }
        }
        Ok(Response::Check(check)) => {
            if check.status == Status::Degraded {
                tally.degraded += 1;
            } else {
                tally.completed += 1;
            }
            // Probe accounting on every check, chaos or not: each
            // search-level oracle call is the baseline check, which
            // never reads the memo, or a probe that either hit the
            // shared memo or reached the real checker. (A baseline
            // that faulted makes the left side larger, never smaller.)
            let hits = check.metrics.counter("memo.cross_request_hits");
            let real = check.metrics.counter("oracle.real_calls");
            let baseline = check.metrics.counter("probes.baseline");
            let calls = check.metrics.counter("oracle_calls");
            if hits + real + baseline < calls {
                tally.accounting_violations += 1;
            }
        }
        Ok(Response::Error(_)) => tally.errors += 1,
        // A response kind the replay never asked for on this
        // connection is a protocol violation.
        Ok(_) => tally.malformed += 1,
    }
}

/// A control round trip: send one request, read its response.
fn control_round_trip(
    reader: &mut impl BufRead,
    stream: &mut TcpStream,
    request: &Request,
) -> std::io::Result<Response> {
    let mut line = request.to_json_string();
    line.push('\n');
    let response = round_trip(reader, stream, &line, "the control connection")?;
    Response::from_json_str(response.trim_end())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Replays the whole session model against a running server at `addr`.
/// With `shutdown` set, the control connection stops the server after
/// collecting its metrics snapshot (self-hosted mode; leave it off
/// against a server you do not own).
///
/// # Errors
///
/// Client connection/transport failures, or a server that answers the
/// control connection with the wrong response kind.
pub fn replay(addr: &str, cfg: &LoadConfig, shutdown: bool) -> std::io::Result<LoadReport> {
    let corpus = generate(&small_config(cfg.seed));
    let sources: Vec<String> = corpus.into_iter().map(|f| f.source).collect();
    if sources.is_empty() {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty corpus"));
    }
    let plans: Vec<Vec<Vec<String>>> =
        (0..cfg.clients.max(1)).map(|client| plan_client(cfg, client, &sources)).collect();
    // Lockstep rounds: every client starts problem `p` in the same round,
    // so each problem's memo-cold first submissions arrive as one burst;
    // a client with a shorter group sits the rest of it out.
    let mut schedules = vec![Vec::new(); plans.len()];
    for p in 0..cfg.problems_per_client {
        let width = plans.iter().map(|groups| groups[p].len()).max().unwrap_or(0);
        for (schedule, groups) in schedules.iter_mut().zip(&plans) {
            schedule.extend((0..width).map(|k| groups[p].get(k)));
        }
    }
    let round = Barrier::new(schedules.len());
    let started = Instant::now();
    let tallies: Vec<std::io::Result<ClientTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(client, schedule)| {
                let round = &round;
                scope.spawn(move || run_client(addr, cfg, client, schedule, round))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let mut report = LoadReport {
        clients: cfg.clients.max(1),
        requests: 0,
        completed: 0,
        degraded: 0,
        shed: 0,
        errors: 0,
        malformed: 0,
        accounting_violations: 0,
        latencies_ns: Vec::new(),
        per_client_requests: Vec::new(),
        wall_clock_ns: 0,
        snapshot: None,
        requests_served: None,
        control_requests: 0,
    };
    for tally in tallies {
        let tally = tally?;
        report.requests += tally.requests;
        report.completed += tally.completed;
        report.degraded += tally.degraded;
        report.shed += tally.shed;
        report.errors += tally.errors;
        report.malformed += tally.malformed;
        report.accounting_violations += tally.accounting_violations;
        report.per_client_requests.push(tally.requests);
        report.latencies_ns.extend(tally.latencies_ns);
    }
    report.wall_clock_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report.latencies_ns.sort_unstable();

    // The control connection: snapshot the server's own view of the
    // run, then (in self-hosted mode) stop it.
    let (mut reader, mut control) = connect(addr)?;
    let metrics_request = Request::Metrics(MetricsRequest { id: u64::MAX - 1, deadline_ms: None });
    match control_round_trip(&mut reader, &mut control, &metrics_request)? {
        Response::Metrics(m) => report.snapshot = Some(m.metrics),
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("metrics request answered with {other:?}"),
            ))
        }
    }
    report.control_requests += 1;
    if shutdown {
        let request = Request::Shutdown(ShutdownRequest { id: u64::MAX, deadline_ms: None });
        match control_round_trip(&mut reader, &mut control, &request)? {
            Response::Shutdown(s) => report.requests_served = Some(s.requests_served),
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("shutdown request answered with {other:?}"),
                ))
            }
        }
        report.control_requests += 1;
    }
    Ok(report)
}

/// Best-effort shutdown so a failed replay cannot leave the self-hosted
/// server thread blocked in accept forever.
fn send_shutdown_best_effort(addr: &str) {
    let request = Request::Shutdown(ShutdownRequest { id: u64::MAX, deadline_ms: None });
    let _ = connect(addr).and_then(|(mut r, mut s)| control_round_trip(&mut r, &mut s, &request));
}

/// One-command mode: bind an ephemeral loopback listener, run a real
/// `serve_tcp` server over it on a scoped thread, replay the load
/// against it, and shut it down. This is what `seminal loadgen` (and
/// the CI `load` job) runs.
///
/// # Errors
///
/// Bind/transport failures from either side, or a server thread that
/// panicked.
pub fn run_self_hosted(
    cfg: &LoadConfig,
    server: ServerConfig,
    options: &ServeOptions,
) -> std::io::Result<LoadReport> {
    // The server runs in this process, so injected chaos panics would
    // flood stderr; keep them off it, as the fuzz harness does (the
    // search's fault tolerance isolates them either way).
    if cfg.chaos_share_milli > 0 && cfg.chaos_panic > 0 {
        seminal_obs::silence_injected_panics();
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let state = ServerState::with_config(server);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&state, options, &listener));
        let report = replay(&addr, cfg, true);
        if report.is_err() {
            send_shutdown_best_effort(&addr);
        }
        match server.join() {
            Ok(Ok(_summary)) => {}
            Ok(Err(e)) => eprintln!("self-hosted server error: {e}"),
            Err(_) => {
                return Err(std::io::Error::other("self-hosted server thread panicked"));
            }
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default server with an admission gate of `max_inflight`.
    fn gate(max_inflight: usize) -> ServerConfig {
        let mut server = ServerConfig::default();
        server.overload.max_inflight = max_inflight;
        server
    }

    /// The happy-path contract: an unsaturated server answers every
    /// replayed request completely, the accounting identity holds on
    /// every response, and the server's own `requests_served` agrees
    /// with the sum of per-client counts plus the control requests.
    #[test]
    fn unsaturated_replay_answers_every_request() {
        let cfg = LoadConfig {
            clients: 2,
            problems_per_client: 2,
            max_group: 3,
            deadline_ms: Some(10_000),
            ..LoadConfig::default()
        };
        let report =
            run_self_hosted(&cfg, gate(8), &ServeOptions::default()).expect("self-hosted replay");

        assert!(report.requests > 0);
        assert_eq!(report.malformed, 0, "every response must parse");
        assert_eq!(report.errors, 0, "well-formed requests must not error");
        assert_eq!(report.accounting_violations, 0, "probe accounting must hold");
        assert_eq!(report.shed, 0, "an unsaturated gate must not shed");
        assert_eq!(report.completed + report.degraded, report.requests);
        assert_eq!(report.latencies_ns.len() as u64, report.requests);

        let served = report.requests_served.expect("shutdown echoes requests_served");
        let client_sum: u64 = report.per_client_requests.iter().sum();
        assert_eq!(client_sum, report.requests);
        assert_eq!(served, client_sum + report.control_requests);

        // The recompile loop must actually warm the memo.
        let snapshot = report.snapshot.expect("metrics snapshot");
        assert!(
            snapshot.counter("memo.cross_request_hits") > 0,
            "same-problem recompiles must hit the cross-request memo"
        );
    }

    /// The chaos-under-load pin: a saturated server (1 admission slot,
    /// tiny deadlines, chaos on a share of requests) answers *every*
    /// request with a well-formed completed/degraded/overloaded
    /// response, sheds some of them, and never violates accounting.
    #[test]
    fn saturated_chaotic_replay_stays_well_formed() {
        let cfg = LoadConfig {
            clients: 3,
            problems_per_client: 3,
            max_group: 3,
            // Tiny deadlines: any queue wait dooms the request, so the
            // single-slot gate below must shed under overlap.
            deadline_ms: Some(1),
            chaos_share_milli: 300,
            chaos_flip: 200,
            chaos_panic: 100,
            ..LoadConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let state = ServerState::with_config(gate(1));
        let state = &state;
        let report = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_tcp(state, &ServeOptions::default(), &listener));
            // The overload, by construction rather than by timing: the
            // test holds the gate's only slot until a request has been
            // shed, so the first requests queue behind a slot that does
            // not free within their 1ms deadline. Then the replay runs
            // on against the saturated gate.
            let held = state.admission().admit(None).expect("an idle gate admits");
            scope.spawn(move || {
                let waited = Instant::now();
                while state.admission().shed() == 0 && waited.elapsed() < CLIENT_READ_TIMEOUT {
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop(held);
            });
            let report = replay(&addr, &cfg, true);
            if report.is_err() {
                send_shutdown_best_effort(&addr);
            }
            server.join().expect("server thread").expect("server transport");
            report
        });
        let report = report.expect("replay");

        assert!(report.requests > 0);
        assert_eq!(report.malformed, 0, "saturation must not produce malformed responses");
        assert_eq!(report.errors, 0, "saturation must shed, not error");
        assert_eq!(report.accounting_violations, 0, "accounting must survive saturation");
        assert_eq!(
            report.completed + report.degraded + report.shed,
            report.requests,
            "every request gets exactly one of the three well-formed outcomes"
        );
        assert!(
            report.shed > 0,
            "three closed-loop clients against one slot with 1ms deadlines must shed \
             (report: {report:?})"
        );
    }
}
