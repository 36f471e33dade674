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
//! `check` prints the conventional type-checker message followed by the
//! search system's ranked suggestions — the side-by-side view the paper's
//! evaluation compares. `analyze` runs only the static constraint-blame
//! pass: a top-k list of blamed spans from unsat-core localization,
//! usable as a fast lint without any oracle search.
//!
//! `--threads N` on `check` and `cpp` selects the parallel probe engine's
//! worker count (default honors `SEMINAL_THREADS`; suggestions are
//! identical at every thread count). `--deadline-ms N` bounds one
//! search's wall clock (default honors `SEMINAL_DEADLINE_MS`): when it
//! expires, best-so-far suggestions are still printed and the run exits
//! with the degraded code 5.
//!
//! Observability flags on `check`: `--trace` (structured span/probe tree),
//! `--trace-json PATH` (stream JSONL trace records), `--metrics-json PATH`
//! (write the `seminal-obs/metrics-v1` snapshot), `--profile` (per-span
//! oracle-cost flame report), `--trace-chrome PATH` (write a Chrome
//! `trace_event` document — one track per worker — loadable in
//! `chrome://tracing` or Perfetto), `--crash-dir DIR` (persist the
//! flight-recorder crash report when the run degrades or probes fault).
//! `check` also accepts `--chaos-panic`/`--chaos-flip`/`--chaos-seed` to
//! inject deterministic faults into the oracle, for exercising the
//! post-mortem pipeline end to end. `metrics-check` validates a snapshot
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
//! switches to the index-keyed C++ loop. A clean campaign exits 0;
//! invariant violations exit 1.
//!
//! Exit codes (see `--help`): 0 success/no errors, 1 type errors found or
//! invalid metrics or fuzz invariant violations, 2 usage error, 3 parse
//! error, 4 file I/O error, 5 type errors found but the search degraded
//! (deadline, budget, cancellation, or isolated probe faults).

use seminal::serve::{
    dispatch, dispatch_with, AnalyzeRequest, CheckRequest, DispatchHooks, Dispatched, Request,
    Response, ServeOptions, ServerState, Status,
};
use seminal_obs::{
    chrome_trace, extract_snapshot, parse_json, profile, regressions, render_profile, CrashReport,
    EventKind, JsonlSink, MetricsSnapshot, SpanKind, Tolerance, TraceRecord,
};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

/// The program found type errors (`check`, `analyze`, `cpp`) or the
/// metrics file failed validation (`metrics-check`).
const EXIT_TYPE_ERRORS: u8 = 1;
/// Bad command line.
const EXIT_USAGE: u8 = 2;
/// The input file does not parse.
const EXIT_PARSE: u8 = 3;
/// A file could not be read or written.
const EXIT_IO: u8 = 4;
/// Type errors were found but the search degraded: it hit its deadline
/// or oracle budget, was cancelled, or isolated probe faults, so the
/// printed suggestions are best-so-far rather than exhaustive.
const EXIT_DEGRADED: u8 = 5;
// Exit 6 ("analyze: no rankable core") has no local constant: the
// dispatch path derives it from `Status::NoCore` via the shared
// `seminal::serve::EXIT_CODES` table.

/// Options parsed from the command line.
struct Opts {
    /// How many ranked suggestions to print.
    top: usize,
    /// Disable triage (§2.4) — the evaluation's ablation, exposed for use.
    no_triage: bool,
    /// Disable the checkpointed incremental oracle (`check`, `fuzz`):
    /// probes, suggestion typing and the blame trace re-infer the whole
    /// program from scratch. The escape hatch for bisecting a suspected
    /// incremental-path bug.
    no_incremental: bool,
    /// Print the structured search trace (spans nested, one line per probe).
    trace: bool,
    /// Print the per-span oracle-cost flame report.
    profile: bool,
    /// Write the metrics snapshot (JSON, schema `seminal-obs/metrics-v1`).
    metrics_json: Option<String>,
    /// Stream trace records as JSON lines.
    trace_json: Option<String>,
    /// Write the captured trace as a Chrome `trace_event` document.
    trace_chrome: Option<String>,
    /// Directory to persist flight-recorder crash reports into.
    crash_dir: Option<String>,
    /// Baseline snapshot for the `metrics-check` perf-trend gate.
    baseline: Option<String>,
    /// Counter tolerance (percent) for the perf-trend gate.
    tolerance: Option<u64>,
    /// Time tolerance (percent) for `*_ns` values in the perf-trend gate.
    time_tolerance: Option<u64>,
    /// Worker threads for the parallel probe engine (`None` = config
    /// default, which honors `SEMINAL_THREADS`).
    threads: Option<usize>,
    /// Wall-clock deadline per search in milliseconds (`None` = config
    /// default, which honors `SEMINAL_DEADLINE_MS`).
    deadline_ms: Option<u64>,
    /// Fuzz campaign seed (`fuzz`).
    seed: u64,
    /// Fuzz case count (`fuzz`).
    cases: u64,
    /// Minimize failing fuzz cases before reporting them (`fuzz`).
    shrink: bool,
    /// Stream fuzz failures as JSON lines to this path (`fuzz`).
    out: Option<String>,
    /// Verdict-flip injection rate in per mille (`fuzz`).
    chaos_flip: u16,
    /// Panic injection rate in per mille (`fuzz`).
    chaos_panic: u16,
    /// Seed for the chaos layer's own draws (`fuzz`).
    chaos_seed: u64,
    /// Run the index-keyed C++ fuzz loop instead of the Caml one (`fuzz`).
    cpp: bool,
    /// Localization backend for `analyze` and the guidance of `check`.
    backend: seminal::analysis::BackendKind,
    /// Bind the serve daemon to this TCP address instead of stdio.
    tcp: Option<String>,
    /// Client mode: forward stdin lines to a running server (`serve`).
    connect: Option<String>,
    /// Cross-request memo capacity in probe outcomes (`serve`).
    memo_capacity: Option<usize>,
    /// Concurrent-connection cap for the TCP daemon (`serve --tcp`).
    max_connections: Option<usize>,
    /// Admission-gate concurrency (`serve`, `loadgen`).
    max_inflight: Option<usize>,
    /// Graceful-drain budget in milliseconds on shutdown (`serve`).
    drain_ms: Option<u64>,
    /// Per-connection idle timeout in ms; 0 disables (`serve --tcp`).
    idle_timeout_ms: Option<u64>,
    /// Per-response timeout in milliseconds (`serve --connect`).
    timeout_ms: Option<u64>,
    /// Concurrent load clients (`loadgen`).
    clients: Option<usize>,
    /// Distinct corpus problems per client (`loadgen`).
    problems: Option<usize>,
    /// Think time between a client's requests in ms (`loadgen`).
    arrival_ms: Option<u64>,
    /// Per-mille of load requests carrying chaos flags (`loadgen`).
    chaos_share: u16,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut opts = Opts {
        top: 3,
        no_triage: false,
        no_incremental: false,
        trace: false,
        profile: false,
        metrics_json: None,
        trace_json: None,
        trace_chrome: None,
        crash_dir: None,
        baseline: None,
        tolerance: None,
        time_tolerance: None,
        threads: None,
        deadline_ms: None,
        seed: 42,
        cases: 200,
        shrink: false,
        out: None,
        chaos_flip: 0,
        chaos_panic: 0,
        chaos_seed: 0,
        cpp: false,
        backend: seminal::analysis::BackendKind::Blame,
        tcp: None,
        connect: None,
        memo_capacity: None,
        max_connections: None,
        max_inflight: None,
        drain_ms: None,
        idle_timeout_ms: None,
        timeout_ms: None,
        clients: None,
        problems: None,
        arrival_ms: None,
        chaos_share: 0,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    opts.top = n;
                    i += 2;
                }
                None => return usage(),
            },
            "--no-triage" => {
                opts.no_triage = true;
                i += 1;
            }
            "--no-incremental" => {
                opts.no_incremental = true;
                i += 1;
            }
            "--trace" => {
                opts.trace = true;
                i += 1;
            }
            "--profile" => {
                opts.profile = true;
                i += 1;
            }
            "--metrics-json" => match args.get(i + 1) {
                Some(path) => {
                    opts.metrics_json = Some(path.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--trace-json" => match args.get(i + 1) {
                Some(path) => {
                    opts.trace_json = Some(path.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--trace-chrome" => match args.get(i + 1) {
                Some(path) => {
                    opts.trace_chrome = Some(path.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--crash-dir" => match args.get(i + 1) {
                Some(dir) => {
                    opts.crash_dir = Some(dir.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--baseline" => match args.get(i + 1) {
                Some(path) => {
                    opts.baseline = Some(path.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--tolerance" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(pct) => {
                    opts.tolerance = Some(pct);
                    i += 2;
                }
                None => return usage(),
            },
            "--time-tolerance" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(pct) => {
                    opts.time_tolerance = Some(pct);
                    i += 2;
                }
                None => return usage(),
            },
            "--threads" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                // `0` is kept so the session builder reports the typed
                // error; anything unparsable is a usage error here.
                Some(n) => {
                    opts.threads = Some(n);
                    i += 2;
                }
                None => return usage(),
            },
            "--seed" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => {
                    opts.seed = s;
                    i += 2;
                }
                None => return usage(),
            },
            "--cases" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => {
                    opts.cases = n;
                    i += 2;
                }
                None => return usage(),
            },
            "--shrink" => {
                opts.shrink = true;
                i += 1;
            }
            "--out" => match args.get(i + 1) {
                Some(path) => {
                    opts.out = Some(path.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--chaos-flip" => match args.get(i + 1).and_then(|s| s.parse::<u16>().ok()) {
                Some(pm) => {
                    opts.chaos_flip = pm;
                    i += 2;
                }
                None => return usage(),
            },
            "--chaos-panic" => match args.get(i + 1).and_then(|s| s.parse::<u16>().ok()) {
                Some(pm) => {
                    opts.chaos_panic = pm;
                    i += 2;
                }
                None => return usage(),
            },
            "--chaos-seed" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => {
                    opts.chaos_seed = s;
                    i += 2;
                }
                None => return usage(),
            },
            "--cpp" => {
                opts.cpp = true;
                i += 1;
            }
            "--backend" => {
                match args.get(i + 1).and_then(|s| seminal::analysis::BackendKind::parse(s)) {
                    Some(kind) => {
                        opts.backend = kind;
                        i += 2;
                    }
                    None => {
                        eprintln!("--backend takes `blame` or `mcs`");
                        return usage();
                    }
                }
            }
            "--tcp" => match args.get(i + 1) {
                Some(addr) => {
                    opts.tcp = Some(addr.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--connect" => match args.get(i + 1) {
                Some(addr) => {
                    opts.connect = Some(addr.clone());
                    i += 2;
                }
                None => return usage(),
            },
            "--memo-capacity" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    opts.memo_capacity = Some(n);
                    i += 2;
                }
                None => return usage(),
            },
            "--max-connections" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    opts.max_connections = Some(n);
                    i += 2;
                }
                None => return usage(),
            },
            "--max-inflight" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    opts.max_inflight = Some(n);
                    i += 2;
                }
                None => return usage(),
            },
            "--drain-ms" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) => {
                    opts.drain_ms = Some(ms);
                    i += 2;
                }
                None => return usage(),
            },
            "--idle-timeout-ms" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) => {
                    opts.idle_timeout_ms = Some(ms);
                    i += 2;
                }
                None => return usage(),
            },
            "--timeout-ms" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) => {
                    opts.timeout_ms = Some(ms);
                    i += 2;
                }
                None => return usage(),
            },
            "--clients" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    opts.clients = Some(n);
                    i += 2;
                }
                None => return usage(),
            },
            "--problems" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    opts.problems = Some(n);
                    i += 2;
                }
                None => return usage(),
            },
            "--arrival-ms" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) => {
                    opts.arrival_ms = Some(ms);
                    i += 2;
                }
                None => return usage(),
            },
            "--chaos-share" => match args.get(i + 1).and_then(|s| s.parse::<u16>().ok()) {
                Some(pm) => {
                    opts.chaos_share = pm;
                    i += 2;
                }
                None => return usage(),
            },
            "--deadline-ms" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                // `0` is kept so the session builder reports the typed
                // error, matching `--threads 0`.
                Some(ms) => {
                    opts.deadline_ms = Some(ms);
                    i += 2;
                }
                None => return usage(),
            },
            other => {
                if other.starts_with("--") {
                    eprintln!("unknown flag `{other}`");
                    return usage();
                }
                positional.push(other);
                i += 1;
            }
        }
    }
    match positional.first().copied() {
        Some("check") => match positional.get(1) {
            Some(path) => check_file(path, &opts),
            None => usage(),
        },
        Some("analyze") => match positional.get(1) {
            Some(path) => analyze_file(path, &opts),
            None => usage(),
        },
        Some("metrics-check") => match positional.get(1) {
            Some(path) => metrics_check(path, &opts),
            None => usage(),
        },
        Some("crash") => match (positional.get(1).copied(), positional.get(2)) {
            (Some("show"), Some(path)) => crash_show(path),
            _ => usage(),
        },
        Some("cpp") => match positional.get(1) {
            Some(path) => check_cpp(path, &opts),
            None => usage(),
        },
        Some("fuzz") => fuzz_cmd(&opts),
        Some("serve") => serve_cmd(&opts),
        Some("loadgen") => loadgen_cmd(&opts),
        Some("demo") => demo(),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprint!(
        "usage:\n  \
         seminal check [--top N] [--no-triage] [--no-incremental] [--threads N]\n               \
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
         seminal cpp [--threads N] [--deadline-ms N] <file.cpp>    C++ prototype\n  \
         seminal fuzz [--seed S] [--cases N] [--threads N] [--shrink] [--out PATH]\n               \
         [--chaos-flip PM] [--chaos-panic PM] [--chaos-seed S] [--cpp]\n               \
         [--no-incremental]\n                            \
         run the deterministic property-fuzzing harness\n  \
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
         [--chaos-flip PM] [--chaos-panic PM] [--max-inflight N]\n               \
         [--max-connections N] [--memo-capacity N] [--out PATH]\n                            \
         replay the paper's recompile-session model as concurrent\n                            \
         TCP clients (self-hosted server unless --connect) and\n                            \
         write the seminal-bench/serve-v1 artifact\n  \
         seminal demo              run the paper's worked examples\n\n\
         `--deadline-ms N` bounds one search's wall clock (default honors\n\
         SEMINAL_DEADLINE_MS); when it expires the best-so-far suggestions\n\
         are still printed and the run exits 5.\n\n\
         {}",
        seminal::serve::render_exit_table_help()
    );
    ExitCode::from(EXIT_USAGE)
}

/// `seminal check`: builds a `seminal-api/v1` request from the flags
/// and feeds it to the same `dispatch` the serve daemon uses; only the
/// rendering below is CLI-specific.
fn check_file(path: &str, opts: &Opts) -> ExitCode {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let request = Request::Check(CheckRequest {
        id: 0,
        source: source.clone(),
        top: opts.top as u64,
        no_triage: opts.no_triage,
        backend: opts.backend,
        threads: opts.threads.map(|n| n as u64),
        deadline_ms: opts.deadline_ms,
        chaos_flip: opts.chaos_flip,
        chaos_panic: opts.chaos_panic,
        chaos_seed: opts.chaos_seed,
        no_incremental: opts.no_incremental,
    });
    let mut hooks = DispatchHooks {
        sinks: Vec::new(),
        collect_trace: opts.trace
            || opts.profile
            || opts.metrics_json.is_some()
            || opts.trace_chrome.is_some(),
    };
    if let Some(out) = &opts.trace_json {
        match std::fs::File::create(out) {
            Ok(f) => hooks.sinks.push(Arc::new(JsonlSink::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }
    // One-shot runs get a fresh (cold) server state; only a long-lived
    // `seminal serve` process keeps the cross-request memo warm.
    let state = ServerState::new();
    render_check(path, &source, opts, dispatch_with(&state, &request, hooks))
}

/// Renders a dispatched `check` to the terminal, byte-identical to the
/// pre-dispatch CLI: the exit code comes from the response's status,
/// the prose from the in-process report.
fn render_check(path: &str, source: &str, opts: &Opts, dispatched: Dispatched) -> ExitCode {
    let resp = match dispatched.response {
        Response::Error(err) => {
            match err.status {
                Status::ParseError => eprintln!("{}", err.error),
                _ => eprintln!("invalid configuration: {}", err.error),
            }
            return ExitCode::from(err.status.exit_code());
        }
        Response::Check(resp) => resp,
        other => {
            eprintln!("unexpected response type {:?}", other.kind());
            return ExitCode::from(EXIT_IO);
        }
    };
    let report = dispatched.report.expect("a check response carries its report");
    if let Some(out) = &opts.metrics_json {
        // The report's own snapshot (without the per-request
        // cross-memo deltas): the PR 2 artifact contract.
        if let Err(e) = std::fs::write(out, report.metrics.to_json_string()) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }
    if let Some(out) = &opts.trace_chrome {
        if let Err(e) = std::fs::write(out, chrome_trace(&report.records).to_string_pretty()) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }
    if let (Some(dir), Some(crash)) = (&opts.crash_dir, &report.crash) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::from(EXIT_IO);
        }
        let file = std::path::Path::new(dir).join(crash.file_name());
        if let Err(e) = std::fs::write(&file, crash.to_json_string()) {
            eprintln!("cannot write {}: {e}", file.display());
            return ExitCode::from(EXIT_IO);
        }
        eprintln!("crash report written to {}", file.display());
    }
    let printed = print_report(|out| {
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
        if opts.trace {
            write!(out, "{}", render_trace_tree(&report.records, source))?;
        }
        if opts.profile {
            writeln!(out)?;
            write!(out, "{}", render_profile(&profile(&report.records), Some(source)))?;
        }
        Ok(())
    });
    if let Err(code) = printed {
        return code;
    }
    if resp.status != Status::Ok && resp.status != Status::TypeErrors {
        eprintln!("search degraded: {} — suggestions are best-so-far", report.completion);
    }
    ExitCode::from(resp.status.exit_code())
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
            Err(ExitCode::from(EXIT_IO))
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
                    SpanKind::Worker { index } => format!("worker {index}"),
                    SpanKind::Server => "server".to_owned(),
                    SpanKind::Request { id } => format!("request {id}"),
                };
                let _ = writeln!(out, "  {:indent$}{label}", "", indent = depth * 2);
                depth += 1;
            }
            TraceRecord::Close { .. } => depth = depth.saturating_sub(1),
            TraceRecord::Event { kind, .. } => match kind {
                EventKind::OracleProbe { probe, target, outcome, cached, latency_ns, .. } => {
                    let _ = writeln!(
                        out,
                        "  {:indent$}[{}] {}  `{}`{}{}",
                        "",
                        if *outcome { "ok " } else { "err" },
                        probe.label(),
                        target,
                        if *cached { "  (cached)" } else { "" },
                        if *latency_ns > 0 && !cached {
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
                EventKind::SpeculativeProbe { outcome, faulted, latency_ns } => {
                    let _ = writeln!(
                        out,
                        "  {:indent$}[{}] speculative{}{}",
                        "",
                        if *outcome { "ok " } else { "err" },
                        if *faulted { "  (faulted)" } else { "" },
                        if *latency_ns > 0 {
                            format!("  {}µs", latency_ns / 1_000)
                        } else {
                            String::new()
                        },
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
fn analyze_file(path: &str, opts: &Opts) -> ExitCode {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let request = Request::Analyze(AnalyzeRequest {
        id: 0,
        source,
        top: opts.top as u64,
        backend: opts.backend,
        deadline_ms: opts.deadline_ms,
    });
    let state = ServerState::new();
    match dispatch(&state, &request).response {
        Response::Error(err) => {
            match err.status {
                Status::ParseError => eprintln!("{}", err.error),
                _ => eprintln!("invalid configuration: {}", err.error),
            }
            ExitCode::from(err.status.exit_code())
        }
        Response::Analyze(resp) => {
            let printed = print_report(|out| match resp.status {
                Status::Ok => writeln!(out, "{path}: no type errors"),
                _ => write!(out, "{}", resp.rendered),
            });
            if let Err(code) = printed {
                return code;
            }
            if resp.status == Status::NoCore {
                eprintln!(
                    "analysis produced no core: the {} backend has nothing to rank",
                    resp.backend.name()
                );
            }
            ExitCode::from(resp.status.exit_code())
        }
        other => {
            eprintln!("unexpected response type {:?}", other.kind());
            ExitCode::from(EXIT_IO)
        }
    }
}

/// `seminal serve`: the long-lived daemon (or, with `--connect`, a
/// line-forwarding client for one).
fn serve_cmd(opts: &Opts) -> ExitCode {
    if let Some(addr) = &opts.connect {
        let stdin = std::io::stdin();
        let forward_options = seminal::serve::ForwardOptions {
            timeout_ms: opts.timeout_ms,
            ..seminal::serve::ForwardOptions::default()
        };
        return match seminal::serve::forward_with(
            addr,
            &forward_options,
            stdin.lock(),
            std::io::stdout(),
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("forward to {addr} failed: {e}");
                ExitCode::from(EXIT_IO)
            }
        };
    }
    let mut options = ServeOptions {
        crash_dir: opts.crash_dir.as_ref().map(std::path::PathBuf::from),
        ..ServeOptions::default()
    };
    if let Some(n) = opts.max_connections {
        options.max_connections = n;
    }
    if let Some(ms) = opts.drain_ms {
        options.drain_ms = ms;
    }
    if let Some(ms) = opts.idle_timeout_ms {
        // `--idle-timeout-ms 0` disables the idle disconnect.
        options.idle_timeout_ms = (ms > 0).then_some(ms);
    }
    if let Some(out) = &opts.trace_json {
        match std::fs::File::create(out) {
            Ok(f) => options.sinks.push(Arc::new(JsonlSink::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }
    let mut config = seminal::serve::ServerConfig::default();
    if let Some(n) = opts.memo_capacity {
        config.memo_capacity = n;
    }
    if let Some(n) = opts.max_inflight {
        config.overload.max_inflight = n;
    }
    let state = ServerState::with_config(config);
    let served = if let Some(addr) = &opts.tcp {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::from(EXIT_IO);
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve transport error: {e}");
            ExitCode::from(EXIT_IO)
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
fn loadgen_cmd(opts: &Opts) -> ExitCode {
    use seminal::loadgen::{bench_serve_json, percentile, LoadConfig, ServerTuning};
    let defaults = LoadConfig::default();
    // A bare `--chaos-share` still injects: fall back to the library's
    // flip/panic rates so the chaos slice is never a silent no-op.
    let (chaos_flip, chaos_panic) = if opts.chaos_flip == 0 && opts.chaos_panic == 0 {
        (defaults.chaos_flip, defaults.chaos_panic)
    } else {
        (opts.chaos_flip, opts.chaos_panic)
    };
    let cfg = LoadConfig {
        clients: opts.clients.unwrap_or(defaults.clients),
        problems_per_client: opts.problems.unwrap_or(defaults.problems_per_client),
        seed: opts.seed,
        arrival_ms: opts.arrival_ms.unwrap_or(defaults.arrival_ms),
        deadline_ms: opts.deadline_ms.or(defaults.deadline_ms),
        chaos_share_milli: opts.chaos_share,
        chaos_flip,
        chaos_panic,
        max_group: defaults.max_group,
        top: opts.top as u64,
    };
    let report = if let Some(addr) = &opts.connect {
        seminal::loadgen::replay(addr, &cfg, false)
    } else {
        let mut tuning = ServerTuning::default();
        if let Some(n) = opts.memo_capacity {
            tuning.memo_capacity = n;
        }
        if let Some(n) = opts.max_inflight {
            tuning.max_inflight = n;
        }
        if let Some(n) = opts.max_connections {
            tuning.max_connections = n;
        }
        if let Some(ms) = opts.drain_ms {
            tuning.drain_ms = ms;
        }
        seminal::loadgen::run_self_hosted(&cfg, &tuning)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen transport error: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let artifact = bench_serve_json(&report, cores).to_string_pretty();
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, artifact + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
        eprintln!("loadgen: wrote {path}");
    } else {
        println!("{artifact}");
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
        return ExitCode::from(EXIT_TYPE_ERRORS);
    }
    ExitCode::SUCCESS
}

/// Validates a metrics snapshot file against the documented schema
/// (`seminal-obs/metrics-v1`, unknown fields rejected) by round-tripping
/// it through the strict reader. With `--baseline FILE`, additionally
/// runs the perf-trend gate: counters within `--tolerance` percent of
/// the baseline, `*_ns` values and latency-histogram percentiles within
/// `--time-tolerance` percent. Either file may be a bare snapshot or a
/// `figures eval-metrics` BENCH artifact.
fn metrics_check(path: &str, opts: &Opts) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let snap = match load_snapshot(path, &text) {
        Ok(s) => s,
        Err(code) => return code,
    };
    println!(
        "{path}: valid {} snapshot ({} counters, {} histograms, {} oracle calls)",
        seminal_obs::SCHEMA,
        snap.counters.len(),
        snap.histograms.len(),
        snap.counter("oracle_calls"),
    );
    let Some(base_path) = &opts.baseline else { return ExitCode::SUCCESS };
    let base_text = match std::fs::read_to_string(base_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {base_path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let base = match load_snapshot(base_path, &base_text) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let tol = Tolerance {
        counters_pct: opts.tolerance.unwrap_or(Tolerance::default().counters_pct),
        times_pct: opts.time_tolerance.unwrap_or(Tolerance::default().times_pct),
    };
    let findings = regressions(&snap, &base, tol);
    if findings.is_empty() {
        println!(
            "{path}: no regressions against {base_path} \
             (counters +{}%, times +{}%)",
            tol.counters_pct, tol.times_pct
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{path}: {} regression(s) against {base_path}:", findings.len());
        for f in &findings {
            eprintln!("  {f}");
        }
        ExitCode::from(EXIT_TYPE_ERRORS)
    }
}

/// Reads a snapshot out of `text`, which may be a bare
/// `seminal-obs/metrics-v1` document (validated strictly) or a BENCH
/// artifact embedding one under `"metrics"`.
fn load_snapshot(path: &str, text: &str) -> Result<MetricsSnapshot, ExitCode> {
    let doc = match parse_json(text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: invalid metrics snapshot: {e}");
            return Err(ExitCode::from(EXIT_TYPE_ERRORS));
        }
    };
    extract_snapshot(&doc).map_err(|e| {
        eprintln!("{path}: invalid metrics snapshot: {e}");
        ExitCode::from(EXIT_TYPE_ERRORS)
    })
}

/// Renders a `seminal-obs/crash-v1` flight-recorder report: the headline
/// (why the run degraded), the key metrics, and the recorded trace tail.
/// The tail is ring-truncated evidence, not a complete trace, so it is
/// shown as-is rather than validated against the stream invariants.
fn crash_show(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let report = match CrashReport::from_json_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: invalid crash report: {e}");
            return ExitCode::from(EXIT_TYPE_ERRORS);
        }
    };
    println!("crash report ({}):", seminal_obs::crash::SCHEMA);
    println!("  reason:        {}", report.reason);
    println!("  completion:    {}", report.completion);
    println!("  probe faults:  {}", report.probe_faults);
    println!("  threads:       {}", report.threads);
    println!(
        "  oracle calls:  {} ({} memo hits)",
        report.metrics.counter("oracle_calls"),
        report.metrics.counter("memo_hits"),
    );
    println!(
        "  trace tail:    {} record(s), {} dropped by the ring",
        report.records.len(),
        report.records_dropped
    );
    for rec in &report.records {
        let line = match rec {
            TraceRecord::Open { id, kind, thread, at_ns, .. } => {
                format!("open  span {id} {} (thread {thread}, +{}µs)", kind.tag(), at_ns / 1_000)
            }
            TraceRecord::Close { id, thread, at_ns } => {
                format!("close span {id} (thread {thread}, +{}µs)", at_ns / 1_000)
            }
            TraceRecord::Event { kind, thread, at_ns, .. } => {
                let what = match kind {
                    EventKind::OracleProbe { outcome, faulted, cached, .. } => format!(
                        "oracle probe [{}]{}{}",
                        if *outcome { "ok" } else { "err" },
                        if *faulted { " faulted" } else { "" },
                        if *cached { " cached" } else { "" },
                    ),
                    EventKind::SpeculativeProbe { outcome, faulted, .. } => format!(
                        "speculative probe [{}]{}",
                        if *outcome { "ok" } else { "err" },
                        if *faulted { " faulted" } else { "" },
                    ),
                    EventKind::PrefixLocalized { detail, .. } => format!("localized: {detail}"),
                };
                format!("event {what} (thread {thread}, +{}µs)", at_ns / 1_000)
            }
        };
        println!("    {line}");
    }
    ExitCode::SUCCESS
}

fn check_cpp(path: &str, opts: &Opts) -> ExitCode {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let prog = match seminal::cpp::parse_cpp(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_PARSE);
        }
    };
    let mut builder = seminal::cpp::CppSearchSession::builder();
    if let Some(n) = opts.threads {
        builder = builder.threads(n);
    }
    if let Some(ms) = opts.deadline_ms {
        builder = builder.deadline_ms(ms);
    }
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let report = session.search(&prog);
    if report.baseline.is_empty() {
        println!("{path}: no type errors");
        return ExitCode::SUCCESS;
    }
    println!("Compiler diagnostics ({}):", report.baseline.len());
    for e in &report.baseline {
        print!("{}", e.render(&source));
    }
    println!("\nOur approach:");
    for s in report.suggestions.iter().take(3) {
        println!("  {}", s.render());
    }
    if report.completion.is_complete() {
        ExitCode::from(EXIT_TYPE_ERRORS)
    } else {
        eprintln!("search degraded: {} — suggestions are best-so-far", report.completion);
        ExitCode::from(EXIT_DEGRADED)
    }
}

/// Runs the deterministic property-fuzzing harness (`seminal fuzz`).
fn fuzz_cmd(opts: &Opts) -> ExitCode {
    use seminal::testkit::{run_cpp_fuzz, run_fuzz, CppFuzzConfig, FuzzConfig};
    let threads = opts.threads.unwrap_or(2);
    if threads == 0 {
        eprintln!("invalid configuration: --threads must be at least 1");
        return ExitCode::from(EXIT_USAGE);
    }
    let (rendered, ok, jsonl) = if opts.cpp {
        if opts.chaos_flip > 0 {
            eprintln!("invalid configuration: the C++ loop has no --chaos-flip (panics only)");
            return ExitCode::from(EXIT_USAGE);
        }
        let cfg = CppFuzzConfig {
            threads,
            chaos_panic_per_mille: opts.chaos_panic,
            ..CppFuzzConfig::new(opts.seed, opts.cases)
        };
        let summary = run_cpp_fuzz(&cfg);
        let jsonl: Vec<String> =
            summary.failures.iter().map(|f| f.to_json().to_string_compact()).collect();
        (summary.render(), summary.ok(), jsonl)
    } else {
        let chaos = (opts.chaos_flip > 0 || opts.chaos_panic > 0).then(|| {
            let mut c = seminal::typeck::ChaosConfig::flips(opts.chaos_seed, opts.chaos_flip);
            c.panic_per_mille = opts.chaos_panic;
            c
        });
        let cfg = FuzzConfig {
            threads,
            shrink: opts.shrink,
            chaos,
            incremental: !opts.no_incremental,
            ..FuzzConfig::new(opts.seed, opts.cases)
        };
        let summary = run_fuzz(&cfg);
        let jsonl: Vec<String> =
            summary.failures.iter().map(|f| f.to_json().to_string_compact()).collect();
        (summary.render(), summary.ok(), jsonl)
    };
    print!("{rendered}");
    if let Some(out) = &opts.out {
        // Always written — an empty artifact is how CI distinguishes a
        // clean campaign from one that never ran.
        let mut text = jsonl.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        for line in &jsonl {
            eprintln!("{line}");
        }
        ExitCode::from(EXIT_TYPE_ERRORS)
    }
}

fn demo() -> ExitCode {
    let figure2 = "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\nlet lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\nlet ans = List.filter (fun x -> x == 0) lst\n";
    let request = Request::Check(CheckRequest { top: 1, ..CheckRequest::new(0, figure2) });
    let state = ServerState::new();
    let Response::Check(resp) = dispatch(&state, &request).response else {
        eprintln!("figure 2 did not dispatch");
        return ExitCode::from(EXIT_IO);
    };
    if let Some(baseline) = &resp.baseline {
        println!("Type-checker:\n{baseline}\n");
    }
    println!("Our approach:\n{}", resp.rendered);
    ExitCode::SUCCESS
}
