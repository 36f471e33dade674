//! The `seminal` command-line tool.
//!
//! ```text
//! seminal check <file.ml>          search an ill-typed Caml-subset file
//! seminal analyze <file.ml>        blamed-span localization report (no search)
//! seminal metrics-check <file.json> validate a metrics snapshot against the schema
//! seminal crash show <file.json>   render a flight-recorder crash report
//! seminal cpp <file.cpp>           run the C++ template-function prototype
//! seminal fuzz                     run the property-fuzzing harness
//! seminal serve                    long-lived NDJSON request server
//! seminal loadgen                  chaos-under-load harness (BENCH_serve.json)
//! seminal demo                     run the paper's worked examples
//! ```
//!
//! The subcommand comes first. Each subcommand takes exactly the flags
//! its usage line lists (`seminal --help`), in any order among its
//! positional arguments; any other flag, a missing or unparsable value,
//! or an extra positional argument is a usage error, never ignored.
//!
//! `check` prints the conventional type-checker message followed by the
//! search system's ranked suggestions — the side-by-side view the paper's
//! evaluation compares. `analyze` runs only the static constraint-blame
//! pass: a top-k list of blamed spans from unsat-core localization,
//! usable as a fast lint without any oracle search.
//!
//! `--deadline-ms N` on `check` and `cpp` bounds one search's wall clock
//! (default honors `SEMINAL_DEADLINE_MS`): when it expires, best-so-far
//! suggestions are still printed and the run exits with the degraded
//! code 5.
//!
//! Observability flags on `check`: `--trace` (structured span/probe tree),
//! `--trace-json PATH` (stream JSONL trace records), `--metrics-json PATH`
//! (write the `seminal-obs/metrics-v1` snapshot), `--profile` (per-span
//! oracle-cost flame report), `--trace-chrome PATH` (write a Chrome
//! `trace_event` document loadable in `chrome://tracing` or Perfetto),
//! `--crash-dir DIR` (persist the flight-recorder crash report when the
//! run degrades or probes fault). `check` also accepts
//! `--chaos-panic`/`--chaos-flip`/`--chaos-seed` to inject deterministic
//! faults into the oracle, for exercising the post-mortem pipeline end to
//! end; `check` and `serve` keep the panics they inject off stderr, as
//! `fuzz` and `loadgen` do. `metrics-check` validates a snapshot
//! file against the schema with unknown fields rejected; with
//! `--baseline FILE` it additionally gates the snapshot against a
//! committed baseline (`--tolerance PCT` for counters, `--time-tolerance
//! PCT` for `*_ns` values and latency percentiles), exiting 1 on any
//! regression. `crash show` renders a `seminal-obs/crash-v1` report.
//!
//! `check` and `analyze` are thin clients of the `seminal-api/v1`
//! request API: they build a request from their flags and feed it to
//! the same `seminal_serve::dispatch` entry point the long-lived
//! `seminal serve` daemon serves, so exit codes, degraded statuses,
//! and crash attachment cannot drift between the two front ends.
//! `serve` speaks newline-delimited JSON over stdio (default) or TCP
//! (`--tcp ADDR`), holds a process-lifetime cross-request memo
//! (`--memo-capacity N` probe outcomes), and `--connect ADDR` turns the
//! binary into a line-forwarding client for testing a running server.
//!
//! `fuzz` runs the deterministic property-fuzzing harness from
//! `seminal-testkit`: `--seed S --cases N` generate the campaign,
//! `--shrink` minimizes failures, `--out PATH` streams failures as JSON
//! lines, `--chaos-flip`/`--chaos-panic`/`--chaos-seed` inject faults
//! into the search oracle (the intentional-violation mode), and `--cpp`
//! switches to the index-keyed C++ loop, which takes neither `--shrink`
//! nor `--no-incremental` nor `--chaos-flip`. A clean campaign exits 0;
//! invariant violations exit 1.
//!
//! `loadgen` replays the recompile-session model as concurrent TCP
//! clients: `--clients`, `--problems`, `--seed`, `--arrival-ms`,
//! `--deadline-ms`, `--top` and `--chaos-share`/`--chaos-flip`/
//! `--chaos-panic` shape the load; `--memo-capacity`, `--max-inflight`,
//! `--max-connections` and `--drain-ms` tune the in-process server it
//! hosts unless `--connect ADDR` names a running one; `--out PATH`
//! writes the `seminal-bench/serve-v1` artifact.
//!
//! Every subcommand writes stdout through one locked handle: a reader
//! that closes early (`seminal cpp f.cpp | head -1`) ends the output
//! quietly, and the command still exits with its own code.
//!
//! Exit codes (see `--help`): 0 success/no errors, 1 type errors found or
//! invalid metrics or fuzz invariant violations, 2 usage error, 3 parse
//! error, 4 file I/O error, 5 type errors found but the search degraded
//! (deadline, budget, cancellation, or isolated probe faults).

use seminal::analysis::BackendKind;
use seminal::serve::{
    dispatch, dispatch_with, AnalyzeRequest, CheckRequest, DispatchHooks, Dispatched,
    ForwardOptions, Request, Response, ServeOptions, ServerConfig, ServerState, Status,
};
use seminal_obs::{
    chrome_trace, extract_snapshot, parse_json, profile, regressions, render_profile, CrashReport,
    EventKind, JsonlSink, MetricsSnapshot, SpanKind, Tolerance, TraceRecord, TraceSink,
};
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// The process exit for `status`: every code comes from the one table,
/// `seminal::serve::EXIT_CODES`, through [`Status::exit_code`]. Commands
/// that do not dispatch a request reuse the statuses' meanings: type
/// errors found (also an invalid metrics file or fuzz violations), a
/// usage error, a parse error, an I/O error, a degraded search.
fn exit(status: Status) -> ExitCode {
    ExitCode::from(status.exit_code())
}

/// Runs the subcommand the first argument names on the arguments after
/// it. A subcommand returns its process exit; an `Err` is an early one:
/// a usage error, `--help`, or a file that cannot be read or written.
fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next();
    let args = Args { rest: argv, positionals: Vec::new() };
    let run = match command.as_deref() {
        Some("check") => check_cmd(args),
        Some("analyze") => analyze_cmd(args),
        Some("metrics-check") => metrics_check(args),
        Some("crash") => crash_show(args),
        Some("cpp") => check_cpp(args),
        Some("fuzz") => fuzz_cmd(args),
        Some("serve") => serve_cmd(args),
        Some("loadgen") => loadgen_cmd(args),
        Some("demo") => demo(args),
        Some("--help" | "-h") => Ok(help()),
        Some(flag) if flag.starts_with('-') => {
            eprintln!("expected a subcommand before `{flag}`");
            Err(usage())
        }
        _ => Err(usage()),
    };
    match run {
        Ok(code) | Err(code) => code,
    }
}

/// One subcommand's arguments, read left to right: flags, each followed
/// by its value if it takes one, in any order among the positional
/// arguments.
struct Args {
    rest: std::iter::Skip<std::env::Args>,
    positionals: Vec<String>,
}

impl Args {
    /// The next flag, setting positional arguments aside on the way.
    /// `--help` or `-h` ends the subcommand with the usage on stdout.
    fn next_flag(&mut self) -> Result<Option<String>, ExitCode> {
        for arg in self.rest.by_ref() {
            if arg == "--help" || arg == "-h" {
                return Err(help());
            }
            if arg.starts_with("--") {
                return Ok(Some(arg));
            }
            self.positionals.push(arg);
        }
        Ok(None)
    }

    /// The value of the flag just read, parsed as `T`: a missing or
    /// unparsable value is a usage error. Values the library validates
    /// (`--deadline-ms 0`) pass through to get its typed error.
    fn value<T: FromStr>(&mut self) -> Result<T, ExitCode> {
        self.rest.next().and_then(|v| v.parse().ok()).ok_or_else(usage)
    }

    /// `--backend`'s value, with a hint naming the backends when it is
    /// missing or unknown.
    fn backend(&mut self) -> Result<BackendKind, ExitCode> {
        let kind = self.rest.next().as_deref().and_then(BackendKind::parse);
        kind.ok_or_else(|| {
            eprintln!("--backend takes `blame` or `mcs`");
            usage()
        })
    }

    /// The positional arguments, exactly `N` of them, once every flag is
    /// read: a flag still unread here is one the subcommand does not take.
    fn positionals<const N: usize>(mut self) -> Result<[String; N], ExitCode> {
        if let Some(flag) = self.next_flag()? {
            return Err(unknown(&flag));
        }
        self.positionals.try_into().map_err(|_| usage())
    }
}

/// The usage error for a flag the subcommand does not take.
fn unknown(flag: &str) -> ExitCode {
    eprintln!("unknown flag `{flag}`");
    usage()
}

/// A usage error: the usage text on stderr, exit 2.
fn usage() -> ExitCode {
    eprint!("{}", usage_text());
    exit(Status::InvalidRequest)
}

/// `--help`: the usage text on stdout, exit 0.
fn help() -> ExitCode {
    match print_report(|out| write!(out, "{}", usage_text())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn usage_text() -> String {
    format!(
        "usage:\n  \
         seminal check [--top N] [--no-triage] [--no-incremental]\n               \
         [--deadline-ms N] [--backend blame|mcs] [--trace] [--profile]\n               \
         [--metrics-json PATH] [--trace-json PATH] [--trace-chrome PATH]\n               \
         [--crash-dir DIR] [--chaos-panic PM] [--chaos-flip PM]\n               \
         [--chaos-seed S] <file.ml>\n  \
         seminal analyze [--top N] [--backend blame|mcs] <file.ml>\n                            \
         localization report: blamed spans (blame, default) or\n                            \
         ranked alternative correction subsets (mcs)\n  \
         seminal metrics-check <file.json> [--baseline FILE] [--tolerance PCT]\n               \
         [--time-tolerance PCT]\n                            \
         validate a metrics snapshot; with --baseline, also gate\n                            \
         counters and latency percentiles against a committed run\n  \
         seminal crash show <file.json>         render a crash report\n  \
         seminal cpp [--deadline-ms N] <file.cpp>    C++ prototype\n  \
         seminal fuzz [--seed S] [--cases N] [--shrink] [--out PATH]\n               \
         [--chaos-flip PM] [--chaos-panic PM] [--chaos-seed S] [--cpp]\n               \
         [--no-incremental]\n                            \
         run the deterministic property-fuzzing harness (--cpp:\n                            \
         the C++ loop, without --shrink, --no-incremental and\n                            \
         --chaos-flip)\n  \
         seminal serve [--tcp ADDR | --connect ADDR] [--memo-capacity N]\n               \
         [--max-connections N] [--max-inflight N] [--drain-ms N]\n               \
         [--idle-timeout-ms N] [--timeout-ms N] [--crash-dir DIR]\n               \
         [--trace-json PATH]\n                            \
         long-lived seminal-api/v1 request server (NDJSON over\n                            \
         stdio, or TCP with --tcp; --connect forwards stdin lines\n                            \
         to a running server, with --timeout-ms bounding each\n                            \
         response; --memo-capacity bounds the probe outcomes\n                            \
         cached across requests; requests past the admission\n                            \
         gate's capacity are shed with a typed `overloaded`\n                            \
         response)\n  \
         seminal loadgen [--connect ADDR] [--clients N] [--problems N] [--seed S]\n               \
         [--arrival-ms N] [--deadline-ms N] [--chaos-share PM]\n               \
         [--chaos-flip PM] [--chaos-panic PM] [--top N] [--max-inflight N]\n               \
         [--max-connections N] [--memo-capacity N] [--drain-ms N]\n               \
         [--out PATH]\n                            \
         replay the paper's recompile-session model as concurrent\n                            \
         TCP clients (self-hosted server unless --connect) and\n                            \
         write the seminal-bench/serve-v1 artifact\n  \
         seminal demo              run the paper's worked examples\n\n\
         Flags follow the subcommand, which takes only the flags on its\n\
         lines; `seminal --help` prints this text.\n\n\
         `--deadline-ms N` bounds one search's wall clock (default honors\n\
         SEMINAL_DEADLINE_MS); when it expires the best-so-far suggestions\n\
         are still printed and the run exits 5.\n\n\
         {}",
        seminal::serve::render_exit_table_help()
    )
}

/// Reads `path` as text; a failure is an I/O error.
fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(Status::IoError)
    })
}

/// Writes `contents` to `path`; a failure is an I/O error.
fn write_file(path: impl AsRef<std::path::Path>, contents: String) -> Result<(), ExitCode> {
    let path = path.as_ref();
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        exit(Status::IoError)
    })
}

/// A sink streaming trace records to `path` as JSON lines (`--trace-json`).
fn jsonl_sink(path: &str) -> Result<Arc<dyn TraceSink>, ExitCode> {
    let file = std::fs::File::create(path).map_err(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(Status::IoError)
    })?;
    Ok(Arc::new(JsonlSink::new(std::io::BufWriter::new(file))))
}

/// The exit for a dispatched request whose response is not the one it
/// asked for: an error response's status, with its message on stderr.
fn failed(response: &Response) -> ExitCode {
    let Response::Error(err) = response else {
        eprintln!("unexpected response type {:?}", response.kind());
        return exit(Status::IoError);
    };
    match err.status {
        Status::ParseError => eprintln!("{}", err.error),
        _ => eprintln!("invalid configuration: {}", err.error),
    }
    exit(err.status)
}

/// What `check` writes besides its report: the `--trace` span tree, the
/// `--profile` flame report, and the files the other flags name.
#[derive(Default)]
struct CheckOutputs {
    trace: bool,
    profile: bool,
    metrics_json: Option<String>,
    trace_json: Option<String>,
    trace_chrome: Option<String>,
    crash_dir: Option<String>,
}

/// `seminal check`: builds a `seminal-api/v1` request from the flags
/// and feeds it to the same `dispatch` the serve daemon uses; only the
/// rendering below is CLI-specific.
fn check_cmd(mut args: Args) -> Result<ExitCode, ExitCode> {
    let mut request = CheckRequest::new(0, String::new());
    let mut outputs = CheckOutputs::default();
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--top" => request.top = args.value()?,
            "--no-triage" => request.no_triage = true,
            "--no-incremental" => request.no_incremental = true,
            "--backend" => request.backend = args.backend()?,
            "--deadline-ms" => request.deadline_ms = Some(args.value()?),
            "--chaos-flip" => request.chaos_flip = args.value()?,
            "--chaos-panic" => request.chaos_panic = args.value()?,
            "--chaos-seed" => request.chaos_seed = args.value()?,
            "--trace" => outputs.trace = true,
            "--profile" => outputs.profile = true,
            "--metrics-json" => outputs.metrics_json = Some(args.value()?),
            "--trace-json" => outputs.trace_json = Some(args.value()?),
            "--trace-chrome" => outputs.trace_chrome = Some(args.value()?),
            "--crash-dir" => outputs.crash_dir = Some(args.value()?),
            _ => return Err(unknown(&flag)),
        }
    }
    let [path] = args.positionals()?;
    let source = read(&path)?;
    request.source = source.clone();
    let mut hooks = DispatchHooks {
        sinks: Vec::new(),
        collect_trace: outputs.trace
            || outputs.profile
            || outputs.metrics_json.is_some()
            || outputs.trace_chrome.is_some(),
    };
    if let Some(file) = &outputs.trace_json {
        hooks.sinks.push(jsonl_sink(file)?);
    }
    // One-shot runs get a fresh (cold) server state; only a long-lived
    // `seminal serve` process keeps the cross-request memo warm.
    let state = ServerState::new();
    seminal_obs::silence_injected_panics();
    render_check(&path, &source, &outputs, dispatch_with(&state, &Request::Check(request), hooks))
}

/// Renders a dispatched `check` to the terminal, byte-identical to the
/// pre-dispatch CLI: the exit code comes from the response's status,
/// the prose from the in-process report.
fn render_check(
    path: &str,
    source: &str,
    outputs: &CheckOutputs,
    dispatched: Dispatched,
) -> Result<ExitCode, ExitCode> {
    let resp = match dispatched.response {
        Response::Check(resp) => resp,
        other => return Err(failed(&other)),
    };
    let report = dispatched.report.expect("a check response carries its report");
    if let Some(file) = &outputs.metrics_json {
        // The report's own snapshot, without the per-request cross-memo
        // deltas: the document `metrics-check` validates.
        write_file(file, report.metrics.to_json_string())?;
    }
    if let Some(file) = &outputs.trace_chrome {
        write_file(file, chrome_trace(&report.records).to_string_pretty())?;
    }
    if let (Some(dir), Some(crash)) = (&outputs.crash_dir, &report.crash) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return Err(exit(Status::IoError));
        }
        let file = std::path::Path::new(dir).join(crash.file_name());
        write_file(&file, crash.to_json_string())?;
        eprintln!("crash report written to {}", file.display());
    }
    print_report(|out| {
        if resp.status == Status::Ok {
            return writeln!(out, "{path}: no type errors");
        }
        if let Some(baseline) = &resp.baseline {
            writeln!(out, "Type-checker:\n{baseline}\n")?;
        }
        writeln!(out, "Our approach:\n{}", resp.rendered)?;
        writeln!(
            out,
            "({} oracle calls, {:?}{})",
            report.stats.oracle_calls,
            report.stats.elapsed,
            if report.stats.triage_used { ", triage used" } else { "" }
        )?;
        if outputs.trace {
            write!(out, "{}", render_trace_tree(&report.records, source))?;
        }
        if outputs.profile {
            writeln!(out)?;
            write!(out, "{}", render_profile(&profile(&report.records), Some(source)))?;
        }
        Ok(())
    })?;
    if resp.status != Status::Ok && resp.status != Status::TypeErrors {
        eprintln!("search degraded: {} — suggestions are best-so-far", report.completion);
    }
    Ok(exit(resp.status))
}

/// Writes one report through a single locked stdout handle.
///
/// A reader that closed early (`seminal check f.ml | head -3`) is not an
/// error: the rest of the report is dropped and the caller exits quietly
/// with the report's own code. Any other write failure is an I/O error.
fn print_report(
    write: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<()>,
) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("cannot write to stdout: {e}");
            Err(exit(Status::IoError))
        }
        _ => Ok(()),
    }
}

/// Renders the structured record stream as an indented span tree with one
/// line per oracle probe.
fn render_trace_tree(records: &[TraceRecord], source: &str) -> String {
    use std::fmt::Write as _;
    let probes = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::Event { kind: EventKind::OracleProbe { .. }, .. }))
        .count();
    let mut out = format!("\nsearch trace ({probes} probes):\n");
    let mut depth = 0usize;
    let line_of =
        |at: u32| 1 + source.as_bytes().iter().take(at as usize).filter(|&&b| b == b'\n').count();
    for rec in records {
        match rec {
            TraceRecord::Open { kind, .. } => {
                let label = match kind {
                    SpanKind::Search => "search".to_owned(),
                    SpanKind::BlamePass => "blame pass".to_owned(),
                    SpanKind::PrefixLocalization => "prefix localization".to_owned(),
                    SpanKind::Descend { span } => {
                        format!("descend (line {})", line_of(span.start))
                    }
                    SpanKind::Triage { round } => format!("triage round {round}"),
                    SpanKind::Server => "server".to_owned(),
                    SpanKind::Request { id } => format!("request {id}"),
                };
                let _ = writeln!(out, "  {:indent$}{label}", "", indent = depth * 2);
                depth += 1;
            }
            TraceRecord::Close { .. } => depth = depth.saturating_sub(1),
            TraceRecord::Event { kind, .. } => match kind {
                EventKind::OracleProbe { probe, target, outcome, latency_ns, .. } => {
                    let _ = writeln!(
                        out,
                        "  {:indent$}[{}] {}  `{}`{}",
                        "",
                        if *outcome { "ok " } else { "err" },
                        probe.label(),
                        target,
                        if *latency_ns > 0 {
                            format!("  {}µs", latency_ns / 1_000)
                        } else {
                            String::new()
                        },
                        indent = depth * 2,
                    );
                }
                EventKind::PrefixLocalized { detail, .. } => {
                    let _ = writeln!(
                        out,
                        "  {:indent$}[loc] prefix  `{detail}`",
                        "",
                        indent = depth * 2,
                    );
                }
            },
        }
    }
    out
}

/// `seminal analyze`: the same thin-client pattern as `check` — build
/// a request, dispatch it, render the response.
fn analyze_cmd(mut args: Args) -> Result<ExitCode, ExitCode> {
    let mut request = AnalyzeRequest {
        id: 0,
        source: String::new(),
        top: 3,
        backend: BackendKind::Blame,
        deadline_ms: None,
    };
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--top" => request.top = args.value()?,
            "--backend" => request.backend = args.backend()?,
            _ => return Err(unknown(&flag)),
        }
    }
    let [path] = args.positionals()?;
    request.source = read(&path)?;
    let resp = match dispatch(&ServerState::new(), &Request::Analyze(request)).response {
        Response::Analyze(resp) => resp,
        other => return Err(failed(&other)),
    };
    print_report(|out| match resp.status {
        Status::Ok => writeln!(out, "{path}: no type errors"),
        _ => write!(out, "{}", resp.rendered),
    })?;
    if resp.status == Status::NoCore {
        eprintln!(
            "analysis produced no core: the {} backend has nothing to rank",
            resp.backend.name()
        );
    }
    Ok(exit(resp.status))
}

/// `seminal serve`: the long-lived daemon (or, with `--connect`, a
/// line-forwarding client for one).
fn serve_cmd(mut args: Args) -> Result<ExitCode, ExitCode> {
    let (mut config, mut options) = (ServerConfig::default(), ServeOptions::default());
    let mut forward_options = ForwardOptions::default();
    let (mut tcp, mut connect, mut trace_json) = (None::<String>, None::<String>, None::<String>);
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--tcp" => tcp = Some(args.value()?),
            "--connect" => connect = Some(args.value()?),
            "--memo-capacity" => config.memo_capacity = args.value()?,
            "--max-inflight" => config.overload.max_inflight = args.value()?,
            "--max-connections" => options.max_connections = args.value()?,
            "--drain-ms" => options.drain_ms = args.value()?,
            // `--idle-timeout-ms 0` disables the idle disconnect.
            "--idle-timeout-ms" => {
                options.idle_timeout_ms = Some(args.value()?).filter(|&ms| ms > 0);
            }
            "--timeout-ms" => forward_options.timeout_ms = Some(args.value()?),
            "--crash-dir" => options.crash_dir = Some(args.value()?),
            "--trace-json" => trace_json = Some(args.value()?),
            _ => return Err(unknown(&flag)),
        }
    }
    let [] = args.positionals()?;
    if let Some(addr) = &connect {
        if tcp.is_some() {
            eprintln!("`--tcp` serves and `--connect` forwards: give one of them");
            return Err(usage());
        }
        let stdin = std::io::stdin();
        return match seminal::serve::forward_with(
            addr,
            &forward_options,
            stdin.lock(),
            std::io::stdout(),
        ) {
            Ok(()) => Ok(ExitCode::SUCCESS),
            Err(e) => {
                eprintln!("forward to {addr} failed: {e}");
                Err(exit(Status::IoError))
            }
        };
    }
    if let Some(file) = &trace_json {
        options.sinks.push(jsonl_sink(file)?);
    }
    // Requests may inject panics (`chaos_panic`); the daemon isolates
    // them and keeps them off its stderr.
    seminal_obs::silence_injected_panics();
    let state = ServerState::with_config(config);
    let served = if let Some(addr) = &tcp {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return Err(exit(Status::IoError));
            }
        };
        match listener.local_addr() {
            Ok(local) => eprintln!("seminal serve: listening on {local}"),
            Err(_) => eprintln!("seminal serve: listening on {addr}"),
        }
        seminal::serve::serve_tcp(&state, &options, &listener)
    } else {
        seminal::serve::serve_stdio(&state, &options)
    };
    match served {
        Ok(summary) => {
            eprintln!(
                "seminal serve: {} request(s) served, {}",
                summary.requests,
                if summary.shutdown { "shut down cleanly" } else { "input closed" }
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("serve transport error: {e}");
            Err(exit(Status::IoError))
        }
    }
}

/// `seminal loadgen`: replay the Figure 6 session model as concurrent
/// TCP clients — against `--connect ADDR`, or self-hosted against an
/// ephemeral in-process server — and render the run as a
/// `seminal-bench/serve-v1` artifact (`--out PATH`, else stdout).
///
/// Exits 0 on a well-formed run; exits 1 if any response was malformed,
/// errored, or violated the probe-accounting identity. Shed and
/// degraded responses are expected outcomes under load, not failures.
fn loadgen_cmd(mut args: Args) -> Result<ExitCode, ExitCode> {
    use seminal::loadgen::{bench_serve_json, percentile, LoadConfig};
    let mut cfg = LoadConfig::default();
    let (mut config, mut options) = (ServerConfig::default(), ServeOptions::default());
    let (mut connect, mut out) = (None::<String>, None::<String>);
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--clients" => cfg.clients = args.value()?,
            "--problems" => cfg.problems_per_client = args.value()?,
            "--seed" => cfg.seed = args.value()?,
            "--arrival-ms" => cfg.arrival_ms = args.value()?,
            "--deadline-ms" => cfg.deadline_ms = Some(args.value()?),
            "--chaos-share" => cfg.chaos_share_milli = args.value()?,
            "--chaos-flip" => cfg.chaos_flip = args.value()?,
            "--chaos-panic" => cfg.chaos_panic = args.value()?,
            "--top" => cfg.top = args.value()?,
            "--memo-capacity" => config.memo_capacity = args.value()?,
            "--max-inflight" => config.overload.max_inflight = args.value()?,
            "--max-connections" => options.max_connections = args.value()?,
            "--drain-ms" => options.drain_ms = args.value()?,
            "--connect" => connect = Some(args.value()?),
            "--out" => out = Some(args.value()?),
            _ => return Err(unknown(&flag)),
        }
    }
    let [] = args.positionals()?;
    let report = match &connect {
        Some(addr) => seminal::loadgen::replay(addr, &cfg, false),
        None => seminal::loadgen::run_self_hosted(&cfg, config, &options),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen transport error: {e}");
            return Err(exit(Status::IoError));
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let artifact = bench_serve_json(&report, cores).to_string_pretty();
    if let Some(path) = &out {
        write_file(path, artifact + "\n")?;
        eprintln!("loadgen: wrote {path}");
    } else {
        print_report(|out| writeln!(out, "{artifact}"))?;
    }
    eprintln!(
        "loadgen: {} client(s), {} request(s): {} completed, {} degraded, {} shed, \
         {} error(s), {} malformed, {} accounting violation(s); p50 {:.1}ms p99 {:.1}ms",
        report.clients,
        report.requests,
        report.completed,
        report.degraded,
        report.shed,
        report.errors,
        report.malformed,
        report.accounting_violations,
        percentile(&report.latencies_ns, 50) as f64 / 1e6,
        percentile(&report.latencies_ns, 99) as f64 / 1e6,
    );
    if report.malformed > 0 || report.errors > 0 || report.accounting_violations > 0 {
        eprintln!("loadgen: run violated the serving contract");
        return Ok(exit(Status::TypeErrors));
    }
    Ok(ExitCode::SUCCESS)
}

/// Validates a metrics snapshot file against the documented schema
/// (`seminal-obs/metrics-v1`, unknown fields rejected) by round-tripping
/// it through the strict reader. With `--baseline FILE`, additionally
/// runs the perf-trend gate: counters within `--tolerance` percent of
/// the baseline, `*_ns` values and latency-histogram percentiles within
/// `--time-tolerance` percent. Either file may be a bare snapshot or a
/// `figures eval-metrics` BENCH artifact.
fn metrics_check(mut args: Args) -> Result<ExitCode, ExitCode> {
    let mut baseline = None::<String>;
    let mut tol = Tolerance::default();
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--baseline" => baseline = Some(args.value()?),
            "--tolerance" => tol.counters_pct = args.value()?,
            "--time-tolerance" => tol.times_pct = args.value()?,
            _ => return Err(unknown(&flag)),
        }
    }
    let [path] = args.positionals()?;
    let snap = load_snapshot(&path)?;
    print_report(|out| {
        writeln!(
            out,
            "{path}: valid {} snapshot ({} counters, {} histograms, {} oracle calls)",
            seminal_obs::SCHEMA,
            snap.counters.len(),
            snap.histograms.len(),
            snap.counter("oracle_calls"),
        )
    })?;
    let Some(base_path) = baseline else { return Ok(ExitCode::SUCCESS) };
    let base = load_snapshot(&base_path)?;
    let findings = regressions(&snap, &base, tol);
    if findings.is_empty() {
        print_report(|out| {
            writeln!(
                out,
                "{path}: no regressions against {base_path} \
                 (counters +{}%, times +{}%)",
                tol.counters_pct, tol.times_pct
            )
        })?;
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("{path}: {} regression(s) against {base_path}:", findings.len());
        for f in &findings {
            eprintln!("  {f}");
        }
        Ok(exit(Status::TypeErrors))
    }
}

/// Reads the snapshot in `path`, which may be a bare
/// `seminal-obs/metrics-v1` document (validated strictly) or a BENCH
/// artifact embedding one under `"metrics"`.
fn load_snapshot(path: &str) -> Result<MetricsSnapshot, ExitCode> {
    parse_json(&read(path)?).and_then(|doc| extract_snapshot(&doc)).map_err(|e| {
        eprintln!("{path}: invalid metrics snapshot: {e}");
        exit(Status::TypeErrors)
    })
}

/// Renders a `seminal-obs/crash-v1` flight-recorder report: the headline
/// (why the run degraded), the key metrics, and the recorded trace tail.
/// The tail is ring-truncated evidence, not a complete trace, so it is
/// shown as-is rather than validated against the stream invariants.
fn crash_show(args: Args) -> Result<ExitCode, ExitCode> {
    let [show, path] = args.positionals()?;
    if show != "show" {
        return Err(usage());
    }
    let report = match CrashReport::from_json_str(&read(&path)?) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: invalid crash report: {e}");
            return Err(exit(Status::TypeErrors));
        }
    };
    print_report(|out| {
        writeln!(out, "crash report ({}):", seminal_obs::crash::SCHEMA)?;
        writeln!(out, "  reason:        {}", report.reason)?;
        writeln!(out, "  completion:    {}", report.completion)?;
        writeln!(out, "  probe faults:  {}", report.probe_faults)?;
        writeln!(out, "  threads:       {}", report.threads)?;
        writeln!(out, "  oracle calls:  {}", report.metrics.counter("oracle_calls"))?;
        writeln!(
            out,
            "  trace tail:    {} record(s), {} dropped by the ring",
            report.records.len(),
            report.records_dropped
        )?;
        for rec in &report.records {
            let line = match rec {
                TraceRecord::Open { id, kind, thread, at_ns, .. } => format!(
                    "open  span {id} {} (thread {thread}, +{}µs)",
                    kind.tag(),
                    at_ns / 1_000
                ),
                TraceRecord::Close { id, thread, at_ns } => {
                    format!("close span {id} (thread {thread}, +{}µs)", at_ns / 1_000)
                }
                TraceRecord::Event { kind, thread, at_ns, .. } => {
                    let what = match kind {
                        EventKind::OracleProbe { outcome, faulted, .. } => format!(
                            "oracle probe [{}]{}",
                            if *outcome { "ok" } else { "err" },
                            if *faulted { " faulted" } else { "" },
                        ),
                        EventKind::PrefixLocalized { detail, .. } => {
                            format!("localized: {detail}")
                        }
                    };
                    format!("event {what} (thread {thread}, +{}µs)", at_ns / 1_000)
                }
            };
            writeln!(out, "    {line}")?;
        }
        Ok(())
    })?;
    Ok(ExitCode::SUCCESS)
}

/// `seminal cpp`: the C++ template-function prototype's search.
fn check_cpp(mut args: Args) -> Result<ExitCode, ExitCode> {
    let mut builder = seminal::cpp::CppSearchSession::builder();
    while let Some(flag) = args.next_flag()? {
        builder = match flag.as_str() {
            "--deadline-ms" => builder.deadline_ms(args.value()?),
            _ => return Err(unknown(&flag)),
        };
    }
    let [path] = args.positionals()?;
    let source = read(&path)?;
    let prog = match seminal::cpp::parse_cpp(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return Err(exit(Status::ParseError));
        }
    };
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            return Err(exit(Status::InvalidRequest));
        }
    };
    let report = session.search(&prog);
    if report.baseline.is_empty() {
        print_report(|out| writeln!(out, "{path}: no type errors"))?;
        return Ok(ExitCode::SUCCESS);
    }
    print_report(|out| {
        writeln!(out, "Compiler diagnostics ({}):", report.baseline.len())?;
        for e in &report.baseline {
            write!(out, "{}", e.render(&source))?;
        }
        writeln!(out, "\nOur approach:")?;
        for s in report.suggestions.iter().take(3) {
            writeln!(out, "  {}", s.render())?;
        }
        Ok(())
    })?;
    if report.completion.is_complete() {
        Ok(exit(Status::TypeErrors))
    } else {
        eprintln!("search degraded: {} — suggestions are best-so-far", report.completion);
        Ok(exit(Status::Degraded))
    }
}

/// Runs the deterministic property-fuzzing harness (`seminal fuzz`).
fn fuzz_cmd(mut args: Args) -> Result<ExitCode, ExitCode> {
    use seminal::testkit::{run_cpp_fuzz, run_fuzz, CppFuzzConfig, FuzzConfig};
    let mut cfg = FuzzConfig::new(42, 200);
    let mut chaos = seminal::typeck::ChaosConfig::flips(0, 0);
    let (mut cpp, mut out) = (false, None::<String>);
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--seed" => cfg.seed = args.value()?,
            "--cases" => cfg.cases = args.value()?,
            "--shrink" => cfg.shrink = true,
            "--no-incremental" => cfg.incremental = false,
            "--chaos-flip" => chaos.flip_per_mille = args.value()?,
            "--chaos-panic" => chaos.panic_per_mille = args.value()?,
            "--chaos-seed" => chaos.seed = args.value()?,
            "--cpp" => cpp = true,
            "--out" => out = Some(args.value()?),
            _ => return Err(unknown(&flag)),
        }
    }
    let [] = args.positionals()?;
    let (rendered, ok, jsonl) = if cpp {
        if chaos.flip_per_mille > 0 {
            eprintln!("invalid configuration: the C++ loop has no --chaos-flip (panics only)");
            return Err(exit(Status::InvalidRequest));
        }
        // The C++ loop neither shrinks nor has an oracle mode to switch.
        for (set, flag) in [(cfg.shrink, "--shrink"), (!cfg.incremental, "--no-incremental")] {
            if set {
                eprintln!("invalid configuration: the C++ loop has no {flag}");
                return Err(exit(Status::InvalidRequest));
            }
        }
        let cpp_cfg = CppFuzzConfig {
            chaos_panic_per_mille: chaos.panic_per_mille,
            ..CppFuzzConfig::new(cfg.seed, cfg.cases)
        };
        let summary = run_cpp_fuzz(&cpp_cfg);
        let jsonl: Vec<String> =
            summary.failures.iter().map(|f| f.to_json().to_string_compact()).collect();
        (summary.render(), summary.ok(), jsonl)
    } else {
        cfg.chaos = (chaos.flip_per_mille > 0 || chaos.panic_per_mille > 0).then_some(chaos);
        let summary = run_fuzz(&cfg);
        let jsonl: Vec<String> =
            summary.failures.iter().map(|f| f.to_json().to_string_compact()).collect();
        (summary.render(), summary.ok(), jsonl)
    };
    print_report(|out| write!(out, "{rendered}"))?;
    if let Some(path) = &out {
        // Always written — an empty artifact is how CI distinguishes a
        // clean campaign from one that never ran.
        let mut text = jsonl.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        write_file(path, text)?;
    }
    if ok {
        Ok(ExitCode::SUCCESS)
    } else {
        for line in &jsonl {
            eprintln!("{line}");
        }
        Ok(exit(Status::TypeErrors))
    }
}

/// `seminal demo`: Figure 2 through the same `dispatch` as `check`.
fn demo(args: Args) -> Result<ExitCode, ExitCode> {
    let [] = args.positionals()?;
    let figure2 = "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\nlet lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\nlet ans = List.filter (fun x -> x == 0) lst\n";
    let request = Request::Check(CheckRequest { top: 1, ..CheckRequest::new(0, figure2) });
    let state = ServerState::new();
    let Response::Check(resp) = dispatch(&state, &request).response else {
        eprintln!("figure 2 did not dispatch");
        return Err(exit(Status::IoError));
    };
    print_report(|out| {
        if let Some(baseline) = &resp.baseline {
            writeln!(out, "Type-checker:\n{baseline}\n")?;
        }
        writeln!(out, "Our approach:\n{}", resp.rendered)
    })?;
    Ok(ExitCode::SUCCESS)
}
