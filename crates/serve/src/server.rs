//! The long-lived daemon: newline-delimited JSON over stdio or TCP.
//!
//! One request per line, one response per line, flushed after every
//! response so a pipe-driven client can interleave. The connection
//! loop is transport-agnostic ([`serve_lines`] takes any
//! `BufRead`/`Write` pair); [`serve_stdio`] wires it to the process's
//! standard streams and [`serve_tcp`] accepts connections on a socket,
//! one thread per connection over the same shared [`ServerState`] —
//! so a `check` warmed over one connection is warm for all of them.
//!
//! The TCP listener is overload-resilient by construction:
//!
//! * **Bounded connections** — past `--max-connections` the acceptor
//!   answers with a typed `overloaded` response (carrying a
//!   `retry_after_ms` hint) and closes, instead of spawning an
//!   unbounded thread per socket.
//! * **Blocking, wakeable accept** — the acceptor blocks in
//!   `accept(2)` (no poll/sleep loop burning CPU); the connection
//!   thread that serves a `shutdown` wakes it with a loopback
//!   self-connect.
//! * **Ticked reads** — connection reads run on a short read-timeout
//!   tick so a stalled or idle client cannot pin its thread forever:
//!   the tick observes the stop flag (for drain) and the
//!   `--idle-timeout-ms` budget.
//! * **Graceful drain** — on shutdown the listener stops accepting,
//!   serves in-flight connections up to `--drain-ms`, then
//!   force-closes stragglers, so shutdown completes in bounded time
//!   even with a connected-but-silent client.
//!
//! Every connection opens a `SpanKind::Server` root span and nests one
//! `SpanKind::Request` span per request under it; with a crash
//! directory configured, per-request crash reports are persisted
//! exactly like `seminal check --crash-dir`.

use crate::api::{ErrorResponse, OverloadedResponse, Request, Response, Status};
use crate::dispatch::{dispatch_with, DispatchHooks, ServerState};
use seminal_obs::{parse_json, Json, SpanKind, SplitMix64, TraceSink, Tracer};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default concurrent-connection cap (`--max-connections`).
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Default graceful-drain budget on shutdown (`--drain-ms`).
pub const DEFAULT_DRAIN_MS: u64 = 2_000;

/// Default per-connection idle timeout (`--idle-timeout-ms`): a client
/// that completes no request line for this long, silent or trickling,
/// is disconnected so it cannot pin a connection slot forever.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 300_000;

/// How often a blocked connection read wakes to check the stop flag
/// and the idle budget.
const READ_TICK: Duration = Duration::from_millis(100);

/// Bound on a single response write so one stalled client that stops
/// reading cannot pin its connection thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Transport-independent serving options.
#[derive(Clone)]
pub struct ServeOptions {
    /// Persist per-request flight-recorder crash reports here.
    pub crash_dir: Option<PathBuf>,
    /// Stream every request's trace records to these sinks.
    pub sinks: Vec<Arc<dyn TraceSink>>,
    /// Concurrent TCP connections served; excess connections are shed
    /// at accept with an `overloaded` response.
    pub max_connections: usize,
    /// Graceful-drain budget: after `shutdown`, in-flight connections
    /// get this long to finish before being force-closed.
    pub drain_ms: u64,
    /// Disconnect a TCP client that completes no request line for this
    /// long (`None` = never).
    pub idle_timeout_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            crash_dir: None,
            sinks: Vec::new(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            drain_ms: DEFAULT_DRAIN_MS,
            idle_timeout_ms: Some(DEFAULT_IDLE_TIMEOUT_MS),
        }
    }
}

/// What one connection loop did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests dispatched on this connection — the same definition
    /// `ShutdownResponse::requests_served` uses process-wide, so the
    /// stdio trailer and the TCP summary agree. Malformed lines are
    /// answered with an error response but not counted.
    pub requests: u64,
    /// Whether a `shutdown` request ended the loop (as opposed to EOF).
    pub shutdown: bool,
}

/// One answered input line: the response to write, whether it counted
/// as a dispatched request, and whether it was a `shutdown`.
struct Answer {
    line: String,
    counted: bool,
    shutdown: bool,
}

/// The transport-agnostic per-line step shared by the stdio loop and
/// the TCP connection loop: parse, dispatch, render, persist crashes.
/// Returns `None` for blank lines.
fn answer_line(
    state: &ServerState,
    options: &ServeOptions,
    tracer: &mut Tracer,
    raw: &str,
) -> Option<Answer> {
    let line = raw.trim_end_matches(['\r', '\n']);
    if line.trim().is_empty() {
        return None;
    }
    let (response, counted, shutdown) = match Request::from_json_str(line) {
        Err(e) => (
            Response::Error(ErrorResponse {
                id: id_hint(line),
                status: Status::InvalidRequest,
                error: e.to_string(),
            }),
            false,
            false,
        ),
        Ok(request) => {
            let span = tracer.open(SpanKind::Request { id: request.id() });
            let hooks = DispatchHooks { sinks: options.sinks.clone(), collect_trace: false };
            let dispatched = dispatch_with(state, &request, hooks);
            tracer.close(span);
            if let (Some(dir), Some(report)) = (&options.crash_dir, &dispatched.report) {
                if let Some(crash) = &report.crash {
                    persist_crash(dir, &crash.file_name(), &crash.to_json_string());
                }
            }
            (dispatched.response, true, matches!(request, Request::Shutdown(_)))
        }
    };
    Some(Answer { line: response.to_json_string(), counted, shutdown })
}

/// Serves one connection: reads NDJSON requests off `input`, writes
/// NDJSON responses to `output`, until EOF or a `shutdown` request.
///
/// # Errors
///
/// Only transport I/O errors propagate; malformed requests are
/// answered with an [`ErrorResponse`] and the loop continues.
pub fn serve_lines<R: BufRead, W: Write>(
    state: &ServerState,
    options: &ServeOptions,
    input: R,
    mut output: W,
) -> std::io::Result<ServeSummary> {
    // Server/request spans stream straight to the configured sinks;
    // with no sinks the tracer is disabled and costs nothing.
    let mut tracer = Tracer::new(options.sinks.clone());
    let root = tracer.open(SpanKind::Server);
    let mut summary = ServeSummary { requests: 0, shutdown: false };
    let run = || -> std::io::Result<()> {
        for line in lossy_lines(input) {
            let line = line?;
            let Some(answer) = answer_line(state, options, &mut tracer, &line) else {
                continue;
            };
            if answer.counted {
                summary.requests += 1;
            }
            writeln!(output, "{}", answer.line)?;
            output.flush()?;
            if answer.shutdown {
                summary.shutdown = true;
                break;
            }
        }
        Ok(())
    };
    let result = run();
    tracer.close(root);
    result.map(|()| summary)
}

/// The lines of `input`, decoded the way every transport decodes a
/// line ([`decode_line`]): a line that is not UTF-8 is answered as a
/// malformed request instead of ending the stream.
fn lossy_lines<R: BufRead>(input: R) -> impl Iterator<Item = std::io::Result<String>> {
    input.split(b'\n').map(|line| line.map(|bytes| decode_line(&bytes)))
}

/// One raw request line as text: invalid UTF-8 becomes U+FFFD, so the
/// line fails request decoding like any other malformed line.
fn decode_line(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Best-effort `id` recovery from a line that failed strict decoding,
/// so the error response still correlates with the request.
fn id_hint(line: &str) -> u64 {
    parse_json(line).ok().and_then(|j| j.get("id").and_then(Json::as_num)).unwrap_or(0)
}

/// Best-effort crash persistence: serving must not die because the
/// crash directory did (the report is still in the response).
fn persist_crash(dir: &Path, file_name: &str, body: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let file = dir.join(file_name);
    match std::fs::write(&file, body) {
        Ok(()) => eprintln!("crash report written to {}", file.display()),
        Err(e) => eprintln!("cannot write {}: {e}", file.display()),
    }
}

/// Serves the process's standard streams until EOF or `shutdown`.
///
/// # Errors
///
/// Transport I/O errors.
pub fn serve_stdio(state: &ServerState, options: &ServeOptions) -> std::io::Result<ServeSummary> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_lines(state, options, stdin.lock(), stdout.lock())
}

/// Live TCP connections, keyed by an acceptor-assigned id. The entry
/// holds a second handle to the socket so drain can force-close a
/// straggler from outside its connection thread.
#[derive(Default)]
struct ConnRegistry {
    conns: Mutex<HashMap<u64, TcpStream>>,
    changed: Condvar,
}

impl ConnRegistry {
    fn count(&self) -> usize {
        self.conns.lock().expect("connection registry poisoned").len()
    }

    /// Registers `stream` under `id`; `false` when the socket handle
    /// cannot be duplicated (the connection is then dropped).
    fn register(&self, id: u64, stream: &TcpStream) -> bool {
        match stream.try_clone() {
            Ok(handle) => {
                self.conns.lock().expect("connection registry poisoned").insert(id, handle);
                true
            }
            Err(_) => false,
        }
    }

    fn deregister(&self, id: u64) {
        self.conns.lock().expect("connection registry poisoned").remove(&id);
        self.changed.notify_all();
    }

    /// The graceful drain: wait up to `limit` for every connection to
    /// finish, then force-close stragglers so their threads unblock.
    /// Returns how long the drain took.
    fn drain(&self, limit: Duration) -> Duration {
        let started = Instant::now();
        let mut conns = self.conns.lock().expect("connection registry poisoned");
        while !conns.is_empty() {
            let elapsed = started.elapsed();
            if elapsed >= limit {
                for stream in conns.values() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                break;
            }
            let (next, _timed_out) = self
                .changed
                .wait_timeout(conns, limit - elapsed)
                .expect("connection registry poisoned");
            conns = next;
        }
        // Give force-closed threads a moment to observe the dead
        // socket; the scope join below is the hard backstop.
        let grace = Instant::now();
        while !conns.is_empty() && grace.elapsed() < Duration::from_secs(1) {
            let (next, _timed_out) = self
                .changed
                .wait_timeout(conns, Duration::from_millis(50))
                .expect("connection registry poisoned");
            conns = next;
        }
        started.elapsed()
    }
}

/// Accepts connections on `listener`, one thread per connection (at
/// most `max_connections` of them) over the shared `state`, until any
/// connection receives `shutdown` — then drains gracefully.
///
/// # Errors
///
/// Transport I/O errors from the accept loop (per-connection errors
/// are reported to stderr and drop only that connection).
pub fn serve_tcp(
    state: &ServerState,
    options: &ServeOptions,
    listener: &TcpListener,
) -> std::io::Result<ServeSummary> {
    // The acceptor blocks in accept(2); shutdown wakes it with a
    // loopback self-connect (see `wake_acceptor`).
    listener.set_nonblocking(false)?;
    let stop = AtomicBool::new(false);
    let registry = ConnRegistry::default();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut next_id: u64 = 0;
        loop {
            let (stream, _addr) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(e);
                }
            };
            if stop.load(Ordering::SeqCst) {
                // The wake connection itself, or a client racing the
                // drain: either way, no new work is accepted.
                break;
            }
            if registry.count() >= options.max_connections {
                shed_connection(state, stream);
                continue;
            }
            let id = next_id;
            next_id += 1;
            if !registry.register(id, &stream) {
                continue;
            }
            let (stop, registry, options) = (&stop, &registry, options.clone());
            scope.spawn(move || {
                match serve_connection(state, &options, stop, stream) {
                    Ok(summary) if summary.shutdown => {
                        stop.store(true, Ordering::SeqCst);
                        wake_acceptor(listener);
                    }
                    Ok(_) => {}
                    Err(e) => eprintln!("connection error: {e}"),
                }
                registry.deregister(id);
            });
        }
        state.note_drain(registry.drain(Duration::from_millis(options.drain_ms)));
        Ok(())
    })?;
    Ok(ServeSummary { requests: state.requests_served(), shutdown: true })
}

/// Answers a connection the server has no capacity for with a typed
/// `overloaded` response (id 0 — no request was read) and closes it.
fn shed_connection(state: &ServerState, mut stream: TcpStream) {
    state.admission().note_external_shed();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let response = Response::Overloaded(OverloadedResponse {
        id: 0,
        status: Status::Overloaded,
        retry_after_ms: state.admission().retry_hint_ms(),
    });
    let _ = writeln!(stream, "{}", response.to_json_string());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Unblocks the acceptor's `accept(2)` after the stop flag is set by
/// dialing the listener once from loopback. Best-effort: if the dial
/// fails the acceptor still stops on its next (real) accept.
fn wake_acceptor(listener: &TcpListener) {
    let Ok(mut addr) = listener.local_addr() else { return };
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Bytes received but not yet handed out as lines, and how much of
/// them is known to hold no newline: a line that arrives over many
/// reads is scanned once, not once per read.
#[derive(Debug, Default)]
struct LineBuffer {
    pending: Vec<u8>,
    /// Length of the prefix of `pending` already scanned.
    scanned: usize,
}

impl LineBuffer {
    fn extend(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// The first complete line, newline included, once it has arrived.
    /// Bytes after it stay for the next call.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        match self.pending[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let line = self.pending.drain(..=self.scanned + pos).collect();
                self.scanned = 0;
                Some(line)
            }
            None => {
                self.scanned = self.pending.len();
                None
            }
        }
    }
}

/// A minimal line reader over a raw socket whose blocked reads wake on
/// a short timeout tick. `BufReader::read_line` is unusable here: a
/// read timeout mid-multibyte-char silently discards the partial bytes
/// (std's UTF-8 guard truncates on error), corrupting the request.
/// This reader accumulates raw bytes across ticks and only splits on
/// `\n`, so a slow client's request survives any number of ticks.
struct TickReader {
    stream: TcpStream,
    buffer: LineBuffer,
}

impl TickReader {
    fn new(stream: TcpStream) -> TickReader {
        TickReader { stream, buffer: LineBuffer::default() }
    }

    /// The next full line, or `None` when the connection should close:
    /// EOF, server drain (`stop`), the idle budget expiring, or a
    /// socket error after stop (the drain force-close).
    ///
    /// The idle budget runs from the call, that is from the previous
    /// line, and is checked after every read: the bytes of an
    /// unfinished line do not reset it, so a client trickling a line
    /// out byte by byte is closed like a silent one.
    fn next_line(
        &mut self,
        stop: &AtomicBool,
        idle_limit: Option<Duration>,
    ) -> std::io::Result<Option<String>> {
        let waiting_since = Instant::now();
        loop {
            if let Some(line) = self.buffer.take_line() {
                return Ok(Some(decode_line(&line)));
            }
            if idle_limit.is_some_and(|limit| waiting_since.elapsed() >= limit) {
                return Ok(None);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buffer.extend(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    if stop.load(Ordering::SeqCst) {
                        // Drain force-closed the socket under us.
                        return Ok(None);
                    }
                    return Err(e);
                }
            }
        }
    }
}

fn serve_connection(
    state: &ServerState,
    options: &ServeOptions,
    stop: &AtomicBool,
    stream: TcpStream,
) -> std::io::Result<ServeSummary> {
    // On macOS/BSD an accepted socket can inherit O_NONBLOCK from the
    // listener; the ticked loop needs real timeouts, not WouldBlock
    // spin.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // Request/response over small lines: Nagle + delayed ACK would add
    // ~40ms stalls per round trip and serialize concurrent clients.
    let _ = stream.set_nodelay(true);
    let mut input = TickReader::new(stream.try_clone()?);
    let mut output = stream;
    let idle_limit = options.idle_timeout_ms.map(Duration::from_millis);

    let mut tracer = Tracer::new(options.sinks.clone());
    let root = tracer.open(SpanKind::Server);
    let mut summary = ServeSummary { requests: 0, shutdown: false };
    let mut run = || -> std::io::Result<()> {
        while let Some(line) = input.next_line(stop, idle_limit)? {
            let Some(answer) = answer_line(state, options, &mut tracer, &line) else {
                continue;
            };
            if answer.counted {
                summary.requests += 1;
            }
            // One write per response line, so the whole answer leaves
            // in a single segment.
            let mut line = answer.line;
            line.push('\n');
            output.write_all(line.as_bytes())?;
            output.flush()?;
            if answer.shutdown {
                summary.shutdown = true;
                break;
            }
        }
        Ok(())
    };
    let result = run();
    tracer.close(root);
    result.map(|()| summary)
}

/// Client-side resilience knobs for [`forward_with`].
#[derive(Debug, Clone)]
pub struct ForwardOptions {
    /// Fail if a response takes longer than this (`--timeout-ms`;
    /// `None` = wait forever).
    pub timeout_ms: Option<u64>,
    /// Reconnect attempts (beyond the first) when the initial dial
    /// fails, with exponential backoff and jitter between attempts.
    pub connect_retries: u32,
    /// How many times one request is re-sent after an `overloaded`
    /// response (waiting out each `retry_after_ms` hint, plus jitter).
    pub overload_retries: u32,
}

impl Default for ForwardOptions {
    fn default() -> ForwardOptions {
        ForwardOptions { timeout_ms: None, connect_retries: 4, overload_retries: 3 }
    }
}

/// Client mode (`seminal serve --connect ADDR`): forwards NDJSON lines
/// from `input` to a running server and prints each response line,
/// with default resilience ([`ForwardOptions::default`]).
///
/// # Errors
///
/// Connection or transport I/O errors.
pub fn forward<R: BufRead, W: Write>(addr: &str, input: R, output: W) -> std::io::Result<()> {
    forward_with(addr, &ForwardOptions::default(), input, output)
}

/// [`forward`] with explicit resilience options: connect-time backoff,
/// per-response timeouts, and `retry_after_ms`-honoring resends when
/// the server sheds load.
///
/// # Errors
///
/// Connection or transport I/O errors. A server that closes the
/// connection while requests are still pending fails with
/// [`ErrorKind::UnexpectedEof`] and a message saying how many
/// responses had arrived — never a silent truncation.
pub fn forward_with<R: BufRead, W: Write>(
    addr: &str,
    options: &ForwardOptions,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    let stream = connect_with_backoff(addr, options)?;
    let _ = stream.set_nodelay(true);
    if let Some(ms) = options.timeout_ms {
        stream.set_read_timeout(Some(Duration::from_millis(ms.max(1))))?;
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut jitter = Jitter::seeded();
    let mut responses: u64 = 0;
    for line in lossy_lines(input) {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut resends: u32 = 0;
        let mut wire = line.clone();
        wire.push('\n');
        loop {
            stream.write_all(wire.as_bytes())?;
            stream.flush()?;
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        format!(
                            "server closed the connection mid-session after {responses} \
                             response(s); the remaining requests were not served"
                        ),
                    ))
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "no response within {}ms (--timeout-ms); the server may be wedged \
                             or the request may need a larger budget",
                            options.timeout_ms.unwrap_or(0)
                        ),
                    ))
                }
                Err(e) => return Err(e),
            }
            responses += 1;
            // A shed response with retries left: wait out the server's
            // own hint (plus jitter, so a fleet of clients doesn't
            // retry in lockstep) and re-send the same request.
            if let Ok(Response::Overloaded(shed)) = Response::from_json_str(response.trim_end()) {
                if resends < options.overload_retries {
                    resends += 1;
                    let hint = Duration::from_millis(shed.retry_after_ms);
                    std::thread::sleep(hint + jitter.up_to(hint / 2 + Duration::from_millis(5)));
                    continue;
                }
            }
            output.write_all(response.as_bytes())?;
            output.flush()?;
            break;
        }
    }
    Ok(())
}

fn connect_with_backoff(addr: &str, options: &ForwardOptions) -> std::io::Result<TcpStream> {
    let mut delay = Duration::from_millis(50);
    let mut jitter = Jitter::seeded();
    let mut attempt: u32 = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if attempt >= options.connect_retries => return Err(e),
            Err(_) => {
                attempt += 1;
                std::thread::sleep(delay + jitter.up_to(delay / 2));
                delay = (delay * 2).min(Duration::from_secs(2));
            }
        }
    }
}

/// Backoff jitter: a SplitMix64 stream seeded from the wall clock, so
/// concurrent clients decorrelate.
struct Jitter(SplitMix64);

impl Jitter {
    fn seeded() -> Jitter {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::from(d.subsec_nanos()) ^ d.as_secs().rotate_left(32));
        Jitter(SplitMix64::seed_from_u64(seed))
    }

    fn up_to(&mut self, max: Duration) -> Duration {
        let cap = u64::try_from(max.as_nanos()).unwrap_or(u64::MAX);
        if cap == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.0.random_range(0..cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::thread;

    fn error_line(id: u64) -> String {
        Response::Error(ErrorResponse {
            id,
            status: Status::InvalidRequest,
            error: "test".to_owned(),
        })
        .to_json_string()
    }

    fn overloaded_line(id: u64, retry_after_ms: u64) -> String {
        Response::Overloaded(OverloadedResponse { id, status: Status::Overloaded, retry_after_ms })
            .to_json_string()
    }

    #[test]
    fn line_buffer_scans_each_byte_once_and_keeps_the_rest() {
        let mut buf = LineBuffer::default();
        let line = format!("{}\n", "x".repeat(10_000));
        let input = format!("{line}next");
        let mut lines = Vec::new();
        for chunk in input.as_bytes().chunks(7) {
            buf.extend(chunk);
            while let Some(l) = buf.take_line() {
                lines.push(l);
            }
            assert_eq!(
                buf.scanned,
                buf.pending.len(),
                "the next scan starts after every held byte"
            );
        }
        assert_eq!(lines, vec![line.into_bytes()], "a line split over many reads comes back whole");
        assert_eq!(buf.pending, b"next", "bytes after the newline stay for the next line");

        // A newline planted among bytes already scanned is not seen
        // again: the scan resumes where it stopped.
        let mut buf = LineBuffer::default();
        buf.extend(b"abc");
        assert_eq!(buf.take_line(), None);
        buf.pending[1] = b'\n';
        buf.extend(b"de\nf");
        assert_eq!(buf.take_line().as_deref(), Some(&b"a\ncde\n"[..]));
        assert_eq!(buf.take_line(), None);
        assert_eq!(buf.pending, b"f");
    }

    /// A line that is not UTF-8 is a malformed request: stdio answers it
    /// with a typed error and goes on, as the TCP reader does.
    #[test]
    fn a_non_utf8_line_is_answered_and_serving_goes_on() {
        use crate::api::MetricsRequest;
        let metrics = |id| Request::Metrics(MetricsRequest { id, deadline_ms: None });
        let mut input = format!("{}\n", metrics(1).to_json_string()).into_bytes();
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(format!("{}\n", metrics(2).to_json_string()).as_bytes());
        let mut output = Vec::new();
        let state = ServerState::new();
        let summary =
            serve_lines(&state, &ServeOptions::default(), Cursor::new(input), &mut output)
                .expect("a bad line is not a transport error");
        let responses: Vec<Response> = String::from_utf8(output)
            .expect("responses are UTF-8")
            .lines()
            .map(|line| Response::from_json_str(line).expect("a v1 response"))
            .collect();
        assert_eq!(responses.len(), 3, "{responses:?}");
        assert!(matches!(&responses[0], Response::Metrics(m) if m.id == 1));
        assert!(matches!(&responses[1], Response::Error(e) if e.status == Status::InvalidRequest));
        assert!(matches!(&responses[2], Response::Metrics(m) if m.id == 2));
        assert_eq!(summary.requests, 2, "the malformed line is answered, not counted");
    }

    /// Satellite: a server that dies mid-session must produce a
    /// distinct, counted failure — not a silent truncation of output.
    #[test]
    fn forward_reports_mid_session_close_distinctly() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            let mut line = String::new();
            reader.read_line(&mut line).expect("first request");
            writeln!(stream, "{}", error_line(1)).expect("first response");
            line.clear();
            reader.read_line(&mut line).expect("second request");
            // Close without answering: the half-closed pipe the client
            // must diagnose.
            drop(stream);
        });

        let input = Cursor::new("{\"x\":1}\n{\"y\":2}\n");
        let mut output = Vec::new();
        let err = forward(&addr, input, &mut output).expect_err("mid-session close must fail");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        let message = err.to_string();
        assert!(message.contains("mid-session"), "undiagnostic error: {message}");
        assert!(message.contains("1 response(s)"), "must count served responses: {message}");
        server.join().expect("server thread");
    }

    /// An `overloaded` response is not a result: the client waits out
    /// `retry_after_ms` and re-sends, delivering only the real answer.
    #[test]
    fn forward_honors_retry_after_and_resends() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            let mut line = String::new();
            reader.read_line(&mut line).expect("first send");
            writeln!(stream, "{}", overloaded_line(7, 5)).expect("shed response");
            line.clear();
            reader.read_line(&mut line).expect("the resend");
            writeln!(stream, "{}", error_line(7)).expect("real response");
        });

        let input = Cursor::new("{\"x\":1}\n");
        let mut output = Vec::new();
        forward(&addr, input, &mut output).expect("retried session must succeed");
        let printed = String::from_utf8(output).expect("utf8");
        assert!(!printed.contains("overloaded"), "shed response leaked to output: {printed}");
        assert!(printed.contains("invalid_request"), "real response missing: {printed}");
        server.join().expect("server thread");
    }

    /// `--timeout-ms`: a wedged server fails the forward with a typed
    /// timeout instead of hanging the client forever.
    #[test]
    fn forward_times_out_on_a_wedged_server() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // Accept and go silent; the listener thread holds the socket
        // open without ever responding.
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            thread::sleep(Duration::from_millis(1_500));
            drop(stream);
        });

        let options = ForwardOptions { timeout_ms: Some(100), ..ForwardOptions::default() };
        let input = Cursor::new("{\"x\":1}\n");
        let mut output = Vec::new();
        let started = Instant::now();
        let err = forward_with(&addr, &options, input, &mut output)
            .expect_err("wedged server must time out");
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(err.to_string().contains("--timeout-ms"), "unhelpful error: {err}");
        assert!(started.elapsed() < Duration::from_secs(1), "timeout must be prompt");
        server.join().expect("server thread");
    }

    /// Connecting to a dead address exhausts its retries and reports
    /// the underlying error rather than retrying forever.
    #[test]
    fn forward_connect_backoff_gives_up() {
        // Bind-then-drop yields a port with (very probably) no
        // listener.
        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let options = ForwardOptions { connect_retries: 1, ..ForwardOptions::default() };
        let input = Cursor::new("{\"x\":1}\n");
        let err =
            forward_with(&dead, &options, input, Vec::new()).expect_err("dead address must fail");
        assert_ne!(err.kind(), ErrorKind::UnexpectedEof);
    }
}
