//! End-to-end tests of `seminal serve`: a real child process speaking
//! `seminal-api/v1` NDJSON over its standard streams.
//!
//! The headline property: a warm second `check` request for an
//! identical program has every probe answered from the cross-request
//! memo — zero real oracle calls — with a payload byte-identical to the
//! cold one. Its complement: a warm daemon answers a layout twin (the
//! same program with a comment added) exactly as a cold daemon does,
//! baseline location included.

use seminal::serve::{CheckRequest, MetricsRequest, Request, Response, ShutdownRequest, Status};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

const FIGURE2: &str = include_str!("../samples/figure2.ml");
const DEADLINE_STRESS: &str = include_str!("../samples/deadline_stress.ml");

/// Kills the server on test panic so a failed assertion cannot leave
/// an orphaned child holding the pipes open. The response reader lives
/// here too so buffered read-ahead survives across round trips.
struct ServerGuard {
    child: Child,
    reader: BufReader<std::process::ChildStdout>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn spawn_serve(extra_args: &[&str]) -> ServerGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_seminal"))
        .arg("serve")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn seminal serve");
    let reader = BufReader::new(child.stdout.take().expect("server stdout"));
    ServerGuard { child, reader }
}

/// Sends one NDJSON line and reads one NDJSON response line.
fn round_trip(server: &mut ServerGuard, line: &str) -> Response {
    let stdin = server.child.stdin.as_mut().expect("server stdin");
    writeln!(stdin, "{line}").expect("write request");
    stdin.flush().expect("flush request");
    let mut response = String::new();
    server.reader.read_line(&mut response).expect("read response");
    assert!(!response.is_empty(), "server closed the pipe without answering {line}");
    Response::from_json_str(response.trim_end())
        .unwrap_or_else(|e| panic!("response line is not valid seminal-api/v1 ({e}): {response}"))
}

/// Shuts the server down cleanly, returning the dispatched-request
/// count the shutdown response reported.
fn shutdown_clean(mut server: ServerGuard) -> u64 {
    let shutdown = Request::Shutdown(ShutdownRequest { id: 99, deadline_ms: None });
    let resp = round_trip(&mut server, &shutdown.to_json_string());
    let Response::Shutdown(resp) = resp else { panic!("shutdown answered {resp:?}") };
    assert_eq!(resp.status, Status::Ok);
    let status = server.child.wait().expect("server exits after shutdown");
    assert_eq!(status.code(), Some(0), "clean serve shutdown exits 0");
    // Disarm the guard's kill: the child is already reaped.
    std::mem::forget(server);
    resp.requests_served
}

#[test]
fn warm_second_check_is_answered_from_the_cross_request_memo() {
    let mut server = spawn_serve(&[]);
    let req = |id| Request::Check(CheckRequest::new(id, FIGURE2)).to_json_string();

    let Response::Check(cold) = round_trip(&mut server, &req(1)) else {
        panic!("check answered with a non-check response");
    };
    assert_eq!(cold.id, 1);
    assert_eq!(cold.status, Status::TypeErrors);
    assert!(cold.rendered.contains("fun x y -> x + y"), "{}", cold.rendered);
    assert!(!cold.payload.is_empty());
    assert!(
        cold.metrics.counter("oracle.real_calls") > 0,
        "the cold request must consult the real oracle"
    );

    let Response::Check(warm) = round_trip(&mut server, &req(2)) else {
        panic!("check answered with a non-check response");
    };
    assert_eq!(warm.id, 2);
    assert_eq!(warm.status, Status::TypeErrors);
    assert_eq!(warm.payload, cold.payload, "identical program, identical suggestions");
    assert_eq!(warm.rendered, cold.rendered);
    assert!(
        warm.metrics.counter("memo.cross_request_hits") > 0,
        "the warm request must hit the cross-request memo"
    );
    assert_eq!(
        warm.metrics.counter("oracle.real_calls"),
        0,
        "a fully warm request issues zero real oracle calls"
    );

    shutdown_clean(server);
}

/// `source` with a comment inserted after its first `= `: the same
/// program to the memo's layout-blind key, with every later span moved.
fn layout_twin(source: &str) -> String {
    let at = source.find("= ").expect("every input has a `let … = `") + 2;
    let comment = "(* running sum, updated by the loop further below *) ";
    format!("{}{comment}{}", &source[..at], &source[at..])
}

/// Checks `sources` in order on a fresh daemon and returns the last
/// answer.
fn check_on_fresh_daemon(sources: &[&str]) -> seminal::serve::CheckResponse {
    let mut server = spawn_serve(&[]);
    let mut last = None;
    for (id, source) in (1..).zip(sources) {
        let request = Request::Check(CheckRequest::new(id, *source)).to_json_string();
        let Response::Check(answer) = round_trip(&mut server, &request) else {
            panic!("check answered with a non-check response");
        };
        last = Some(*answer);
    }
    shutdown_clean(server);
    last.expect("at least one source")
}

#[test]
fn a_warm_daemon_answers_layout_twins_like_a_cold_one() {
    // A daemon that cached baselines put this twin's error inside the
    // comment, then searched, and blamed, the well-typed first line.
    let mut inputs = vec![(
        "the two-line List.mem program".to_owned(),
        "let total = 0\nlet r = List.mem [\"a\"] \"a\"\n".to_owned(),
    )];
    for dir in ["samples", "crates/testkit/golden"] {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("read input directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "ml"))
            .collect();
        paths.sort();
        for path in paths {
            let source = std::fs::read_to_string(&path).expect("read input");
            inputs.push((path.display().to_string(), source));
        }
    }
    assert!(inputs.len() >= 19, "the two-line program, the samples and the golden corpus");

    let print = |source: &str| {
        let prog = seminal::ml::parser::parse_program(source).expect("inputs parse");
        seminal::ml::pretty::program_to_string(&prog)
    };
    for (name, original) in &inputs {
        let twin = layout_twin(original);
        assert_eq!(print(&twin), print(original), "{name}: the twin must print like the original");
        let cold = check_on_fresh_daemon(&[&twin]);
        let warm = check_on_fresh_daemon(&[original, &twin]);
        assert_eq!(warm.status, cold.status, "{name}: status");
        assert_eq!(warm.baseline, cold.baseline, "{name}: baseline");
        assert_eq!(warm.rendered, cold.rendered, "{name}: rendered report");
        assert_eq!(warm.payload, cold.payload, "{name}: payload");
        assert_eq!(warm.stats.oracle_calls, cold.stats.oracle_calls, "{name}: oracle calls");
    }
}

#[test]
fn metrics_request_snapshots_the_whole_process() {
    let mut server = spawn_serve(&[]);
    let check = Request::Check(CheckRequest::new(7, FIGURE2)).to_json_string();
    round_trip(&mut server, &check);

    let metrics = "{\"api\":\"seminal-api/v1\",\"id\":8,\"type\":\"metrics\"}";
    let Response::Metrics(resp) = round_trip(&mut server, metrics) else {
        panic!("metrics answered with a non-metrics response");
    };
    assert_eq!(resp.id, 8);
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.metrics.counter("server.requests"), 2, "the metrics request counts itself");
    assert!(resp.metrics.counter("oracle_calls") > 0, "check work is merged into process totals");
    assert!(
        resp.metrics.counter("memo.cross_request_entries") > 0,
        "the memo retains verdicts after the request finishes"
    );
    // The snapshot is itself a valid metrics-v1 document.
    let text = resp.metrics.to_json_string();
    seminal_obs::MetricsSnapshot::from_json_str(&text).expect("snapshot round-trips");

    shutdown_clean(server);
}

#[test]
fn malformed_and_invalid_requests_do_not_kill_the_server() {
    let mut server = spawn_serve(&[]);

    // Not JSON at all.
    let Response::Error(err) = round_trip(&mut server, "not json") else {
        panic!("garbage must be answered with an error response");
    };
    assert_eq!(err.status, Status::InvalidRequest);

    // JSON, but an unknown field (strict schema).
    let Response::Error(err) = round_trip(
        &mut server,
        "{\"api\":\"seminal-api/v1\",\"id\":3,\"type\":\"metrics\",\"bogus\":1}",
    ) else {
        panic!("unknown fields must be rejected");
    };
    assert_eq!(err.id, 3, "the id is still recovered from the bad line");
    assert!(err.error.contains("bogus"), "{}", err.error);

    // Decodes fine, but the configuration is invalid: a zero deadline.
    let bad_config =
        Request::Check(CheckRequest { deadline_ms: Some(0), ..CheckRequest::new(4, FIGURE2) })
            .to_json_string();
    let Response::Error(err) = round_trip(&mut server, &bad_config) else {
        panic!("invalid configurations must be rejected");
    };
    assert_eq!(err.id, 4);
    assert_eq!(err.status, Status::InvalidRequest);

    // A source that does not parse is a per-request parse error.
    let unparseable = Request::Check(CheckRequest::new(5, "let = = =")).to_json_string();
    let Response::Error(err) = round_trip(&mut server, &unparseable) else {
        panic!("parse failures must be answered, not fatal");
    };
    assert_eq!(err.id, 5);
    assert_eq!(err.status, Status::ParseError);

    // The server is still alive and serving after all of that.
    let Response::Check(ok) = round_trip(
        &mut server,
        &Request::Check(CheckRequest::new(6, "let x = 1 + 2")).to_json_string(),
    ) else {
        panic!("the server must still serve after bad requests");
    };
    assert_eq!(ok.status, Status::Ok);

    // Only the three decodable requests plus the shutdown were
    // dispatched; the two malformed lines were answered with errors
    // but never reached dispatch, and both transports' summaries use
    // this same dispatched-request definition.
    assert_eq!(shutdown_clean(server), 4, "malformed lines are not counted as requests");
}

/// Bytes that are not UTF-8 on stdin are one malformed line: the daemon
/// answers it with a typed error, serves the next line, and exits 0 at
/// end of input.
#[test]
fn a_non_utf8_line_does_not_end_stdio_serve() {
    let metrics = |id| Request::Metrics(MetricsRequest { id, deadline_ms: None }).to_json_string();
    let mut input = format!("{}\n", metrics(1)).into_bytes();
    input.extend_from_slice(b"\xff\xfe\n");
    input.extend_from_slice(format!("{}\n", metrics(2)).as_bytes());
    let mut child = Command::new(env!("CARGO_BIN_EXE_seminal"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn seminal serve");
    child.stdin.take().expect("server stdin").write_all(&input).expect("write requests");
    let out = child.wait_with_output().expect("serve runs to end of input");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("responses are UTF-8");
    let statuses: Vec<Status> = stdout
        .lines()
        .map(|line| match Response::from_json_str(line).expect("a v1 response") {
            Response::Metrics(m) => m.status,
            Response::Error(e) => e.status,
            other => panic!("unexpected response {other:?}"),
        })
        .collect();
    assert_eq!(statuses, [Status::Ok, Status::InvalidRequest, Status::Ok]);
}

/// Kills a child on test panic without holding any of its pipes.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Spawns `serve --tcp 127.0.0.1:0` plus `extra_args` and returns the
/// guarded child with the ephemeral address from its listen banner.
fn spawn_tcp_serve(extra_args: &[&str]) -> (KillOnDrop, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_seminal"))
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .args(extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn seminal serve --tcp");
    let mut stderr = BufReader::new(child.stderr.take().expect("server stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read the listen banner");
    let addr = banner.trim().rsplit(' ').next().expect("address in banner").to_owned();
    // Keep draining stderr so a chatty (or panicking) server never
    // blocks on a full pipe — and its diagnostics reach the test log.
    std::thread::spawn(move || {
        for line in stderr.lines() {
            let Ok(line) = line else { break };
            eprintln!("[serve] {line}");
        }
    });
    (KillOnDrop(child), addr)
}

/// A line-oriented `seminal-api/v1` TCP client.
struct TcpClient {
    stream: std::net::TcpStream,
    reader: BufReader<std::net::TcpStream>,
}

impl TcpClient {
    fn connect(addr: &str) -> TcpClient {
        let stream =
            std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect to {addr}: {e}"));
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        TcpClient { stream, reader }
    }

    fn round_trip(&mut self, request: &Request) -> Response {
        let mut line = request.to_json_string();
        line.push('\n');
        self.stream.write_all(line.as_bytes()).expect("write request");
        self.stream.flush().expect("flush request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        assert!(!response.is_empty(), "server closed the connection without answering {line}");
        Response::from_json_str(response.trim_end()).unwrap_or_else(|e| {
            panic!("response line is not valid seminal-api/v1 ({e}): {response}")
        })
    }
}

/// Waits for the child to exit on its own, failing after `limit`.
fn wait_with_deadline(guard: &mut KillOnDrop, limit: std::time::Duration) -> i32 {
    let started = std::time::Instant::now();
    loop {
        if let Some(status) = guard.0.try_wait().expect("poll server") {
            return status.code().expect("server exit code");
        }
        assert!(
            started.elapsed() < limit,
            "server still running {limit:?} after shutdown — drain is hanging"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// The tentpole's concurrency acceptance: four simultaneous TCP
/// connections are all served, every one of their warm checks is
/// answered from the shared cross-request memo without touching the
/// real oracle, and the per-connection request counts sum exactly to
/// the `requests_served` the shutdown response reports.
#[test]
fn four_concurrent_connections_share_the_memo_and_the_request_count() {
    let (mut guard, addr) = spawn_tcp_serve(&[]);

    // Warm the memo with one cold check first.
    let mut warmer = TcpClient::connect(&addr);
    let Response::Check(cold) = warmer.round_trip(&Request::Check(CheckRequest::new(1, FIGURE2)))
    else {
        panic!("warming check answered with a non-check response");
    };
    assert!(cold.metrics.counter("oracle.real_calls") > 0);

    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 2;
    let per_connection: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut conn = TcpClient::connect(addr);
                    let mut sent = 0;
                    for seq in 0..PER_CLIENT {
                        let id = (client + 2) * 100 + seq;
                        let Response::Check(warm) =
                            conn.round_trip(&Request::Check(CheckRequest::new(id, FIGURE2)))
                        else {
                            panic!("concurrent check answered with a non-check response");
                        };
                        sent += 1;
                        assert_eq!(warm.id, id);
                        assert_eq!(
                            warm.metrics.counter("oracle.real_calls"),
                            0,
                            "a warm concurrent check must be served from the shared memo"
                        );
                        assert!(warm.metrics.counter("memo.cross_request_hits") > 0);
                    }
                    sent
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut control = TcpClient::connect(&addr);
    let Response::Shutdown(resp) =
        control.round_trip(&Request::Shutdown(ShutdownRequest { id: 999, deadline_ms: None }))
    else {
        panic!("shutdown answered with a non-shutdown response");
    };
    let client_sum: u64 = per_connection.iter().sum();
    assert_eq!(
        resp.requests_served,
        1 + client_sum + 1,
        "warm-up + every connection's requests + the shutdown itself"
    );
    assert_eq!(wait_with_deadline(&mut guard, std::time::Duration::from_secs(10)), 0);
    std::mem::forget(guard);
}

/// Regression test for the shutdown hang: a connected client that
/// never sends anything must not block the drain. The server has to
/// notice the stop flag, force-close the idle connection after the
/// drain budget, and exit — under the old 20ms-sleep accept loop plus
/// unbounded connection joins it would hang forever.
#[test]
fn idle_client_does_not_block_shutdown() {
    let (mut guard, addr) = spawn_tcp_serve(&["--drain-ms", "300"]);

    // An idle connection: opened, never written to.
    let idle = TcpClient::connect(&addr);

    let mut control = TcpClient::connect(&addr);
    let Response::Shutdown(resp) =
        control.round_trip(&Request::Shutdown(ShutdownRequest { id: 1, deadline_ms: None }))
    else {
        panic!("shutdown answered with a non-shutdown response");
    };
    assert_eq!(resp.status, Status::Ok);

    // Drain budget 300ms + force-close grace; 10s is pure slack.
    assert_eq!(wait_with_deadline(&mut guard, std::time::Duration::from_secs(10)), 0);
    drop(idle);
    std::mem::forget(guard);
}

/// A client that trickles an unfinished line one byte every 50 ms is
/// closed when the idle budget runs out, exactly like a silent one, and
/// the daemon then serves a fresh connection.
#[test]
fn trickling_client_is_closed_at_the_idle_limit() {
    use std::io::Read;
    use std::time::{Duration, Instant};
    let (mut guard, addr) = spawn_tcp_serve(&["--idle-timeout-ms", "300"]);

    let mut trickler =
        std::net::TcpStream::connect(&addr).unwrap_or_else(|e| panic!("connect to {addr}: {e}"));
    // The read timeout paces the trickle.
    trickler.set_read_timeout(Some(Duration::from_millis(50))).expect("set read timeout");
    let started = Instant::now();
    loop {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a client trickling one byte every 50 ms is still connected after 5 s"
        );
        if trickler.write_all(b"x").is_err() {
            break;
        }
        let mut reply = [0u8; 64];
        match trickler.read(&mut reply) {
            Ok(0) => break,
            Ok(_) => panic!("the server answered an unfinished line"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }

    let mut client = TcpClient::connect(&addr);
    let Response::Check(check) = client.round_trip(&Request::Check(CheckRequest::new(1, FIGURE2)))
    else {
        panic!("check answered with a non-check response");
    };
    assert_eq!(check.status, Status::TypeErrors);
    let Response::Shutdown(resp) =
        client.round_trip(&Request::Shutdown(ShutdownRequest { id: 2, deadline_ms: None }))
    else {
        panic!("shutdown answered with a non-shutdown response");
    };
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(wait_with_deadline(&mut guard, Duration::from_secs(10)), 0);
    std::mem::forget(guard);
}

/// The load-shedding acceptance: with a single admission slot held
/// busy, a concurrent check with a 1ms deadline is answered with a
/// typed `overloaded` response carrying a retry hint — not an error,
/// not a hang, not a dropped connection.
#[test]
fn saturated_admission_gate_sheds_with_a_typed_response() {
    let (mut guard, addr) = spawn_tcp_serve(&["--max-inflight", "1"]);

    // Keep the one slot busy: a pump thread sends slow checks back to
    // back. Each is the ~3k-probe deadline stress program under a first
    // declaration of its own, so every probe key is new to the
    // cross-request memo and each check occupies the slot for a full
    // search.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let shed = std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            let mut conn = TcpClient::connect(&addr);
            let mut id = 10;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let source = format!("let pump_{id} = {id}\n{DEADLINE_STRESS}");
                let request = CheckRequest::new(id, source);
                let response = conn.round_trip(&Request::Check(request));
                assert!(
                    matches!(response, Response::Check(_)),
                    "the pump's un-deadlined checks must complete, got {response:?}"
                );
                id += 1;
            }
        });

        // Probe with doomed deadlines until one lands while the slot
        // is held. Each probe either completes (it caught the gate
        // idle) or sheds — both well-formed; we need one shed.
        let mut conn = TcpClient::connect(&addr);
        let mut shed = None;
        for seq in 0..200 {
            let request =
                CheckRequest { deadline_ms: Some(1), ..CheckRequest::new(10_000 + seq, FIGURE2) };
            match conn.round_trip(&Request::Check(request)) {
                Response::Overloaded(o) => {
                    shed = Some(o);
                    break;
                }
                Response::Check(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
                other => panic!("a doomed check must complete or shed, got {other:?}"),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        pump.join().expect("pump thread");
        shed
    });

    let shed = shed.expect("200 doomed probes against a busy single-slot gate must shed once");
    assert_eq!(shed.status, Status::Overloaded);
    assert!(shed.retry_after_ms > 0, "a shed must carry an actionable retry hint");

    let mut control = TcpClient::connect(&addr);
    let Response::Shutdown(resp) =
        control.round_trip(&Request::Shutdown(ShutdownRequest { id: 1, deadline_ms: None }))
    else {
        panic!("shutdown answered with a non-shutdown response");
    };
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(wait_with_deadline(&mut guard, std::time::Duration::from_secs(10)), 0);
    std::mem::forget(guard);
}

/// The TCP transport end-to-end: bind an ephemeral port, connect, run
/// a check and a clean shutdown. Regression test for accepted sockets
/// inheriting `O_NONBLOCK` from the non-blocking listener (macOS/BSD
/// behavior), which made every connection's line I/O fail with
/// `WouldBlock` and drop the connection.
#[test]
fn tcp_connection_serves_checks_and_shuts_down_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_seminal"))
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn seminal serve --tcp");
    let mut stderr = BufReader::new(child.stderr.take().expect("server stderr"));
    let mut guard = KillOnDrop(child);

    // The daemon announces the resolved ephemeral address on stderr
    // before it starts accepting.
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read the listen banner");
    let addr = banner.trim().rsplit(' ').next().expect("address in banner").to_owned();

    let mut stream = std::net::TcpStream::connect(&addr)
        .unwrap_or_else(|e| panic!("connect to {addr} ({banner:?}): {e}"));
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut round_trip = |line: &str| -> Response {
        writeln!(stream, "{line}").expect("write request");
        stream.flush().expect("flush request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        assert!(!response.is_empty(), "server closed the connection without answering {line}");
        Response::from_json_str(response.trim_end()).unwrap_or_else(|e| {
            panic!("response line is not valid seminal-api/v1 ({e}): {response}")
        })
    };

    let Response::Check(check) =
        round_trip(&Request::Check(CheckRequest::new(1, FIGURE2)).to_json_string())
    else {
        panic!("check answered with a non-check response");
    };
    assert_eq!(check.id, 1);
    assert_eq!(check.status, Status::TypeErrors);

    let shutdown = Request::Shutdown(ShutdownRequest { id: 2, deadline_ms: None }).to_json_string();
    let Response::Shutdown(resp) = round_trip(&shutdown) else {
        panic!("shutdown answered with a non-shutdown response");
    };
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.requests_served, 2, "both dispatched requests are counted");

    let status = guard.0.wait().expect("server exits after shutdown");
    assert_eq!(status.code(), Some(0), "clean TCP shutdown exits 0");
    std::mem::forget(guard);
}

#[test]
fn served_check_agrees_with_the_one_shot_cli() {
    // The acceptance criterion behind routing both front ends through
    // `dispatch`: the served response's exit-code semantics match what
    // `seminal check` on the same program exits with.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/figure2.ml");
    let one_shot = Command::new(env!("CARGO_BIN_EXE_seminal"))
        .arg("check")
        .arg(path)
        .output()
        .expect("run one-shot check");

    let mut server = spawn_serve(&[]);
    let Response::Check(served) =
        round_trip(&mut server, &Request::Check(CheckRequest::new(1, FIGURE2)).to_json_string())
    else {
        panic!("check answered with a non-check response");
    };
    shutdown_clean(server);

    assert_eq!(
        i32::from(served.status.exit_code()),
        one_shot.status.code().expect("one-shot exit code"),
        "served status and one-shot exit code come from the same table"
    );
    let stdout = String::from_utf8_lossy(&one_shot.stdout);
    assert!(
        stdout.contains(served.rendered.trim_end()),
        "one-shot output must contain the served rendered report verbatim.\n\
         served:\n{}\none-shot:\n{stdout}",
        served.rendered
    );
}

#[test]
fn readme_and_usage_render_the_shared_exit_code_table() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("read README.md");
    assert!(
        readme.contains(&seminal::serve::render_exit_table_markdown()),
        "README's exit-code table must be exactly `render_exit_table_markdown()` — \
         regenerate it instead of editing by hand"
    );
    let usage = Command::new(env!("CARGO_BIN_EXE_seminal")).output().expect("run seminal");
    let stderr = String::from_utf8_lossy(&usage.stderr);
    for line in seminal::serve::render_exit_table_help().lines() {
        assert!(stderr.contains(line), "usage is missing `{line}`:\n{stderr}");
    }
    // `--help`, the flag README points readers at, prints the same
    // usage on stdout and succeeds, before or after a subcommand.
    for args in [&["--help"][..], &["-h"], &["check", "--help"]] {
        let help = Command::new(env!("CARGO_BIN_EXE_seminal")).args(args).output().expect("run");
        assert_eq!(help.status.code(), Some(0), "{args:?} is not a usage error");
        let stdout = String::from_utf8_lossy(&help.stdout);
        for line in seminal::serve::render_exit_table_help().lines() {
            assert!(stdout.contains(line), "{args:?} is missing `{line}`:\n{stdout}");
        }
    }
}
