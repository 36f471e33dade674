//! Regenerates the paper's evaluation artifacts as text.
//!
//! ```text
//! figures [all|figure5|figure6|figure7|headline|examples|cpp|eval-metrics [OUT]]
//!         [--scale N] [--threads N]
//! ```
//!
//! `eval-metrics` runs the evaluation suite and writes the
//! `BENCH_search.json` benchmark artifact (headline aggregates plus the
//! merged `seminal-obs/metrics-v1` snapshot) to `OUT` (default
//! `BENCH_search.json`); CI uploads it and checks it round-trips through
//! the documented schema. With `--threads N` the corpus is evaluated by
//! N file-level workers and the artifact records `threads` and the
//! measured `wall_clock_ns`, so per-thread artifacts can be diffed for
//! the parallel speedup.
//!
//! `--scale` multiplies the corpus size (default 1 ≈ 200 files; the
//! paper's corpus was 1075 files ≈ `--scale 5`).

use seminal_bench::{harness_corpus, FIGURE10_CPP, FIGURE2, FIGURE8, FIGURE9, MULTI_ERROR};
use seminal_core::{message, SearchSession};
use seminal_corpus::session::{group_sizes, histogram, summarize};
use seminal_eval::figure7::{figure7, render_figure7};
use seminal_eval::{evaluate_corpus, figure5, render_figure5};
use seminal_ml::parser::parse_program;
use seminal_typeck::TypeCheckOracle;
use std::io::Write as _;

/// Prints one line of an artifact through [`emit`], as `println!` would.
macro_rules! say {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut positional: Vec<String> = Vec::new();
    let mut scale = 1usize;
    let mut threads = 1usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = value(&arg, args.next()),
            "--threads" => threads = value(&arg, args.next()).max(1),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            _ if positional.len() == 2 => usage_error(&format!("unexpected argument `{arg}`")),
            _ => positional.push(arg),
        }
    }
    let which = positional.first().map_or("all", String::as_str);
    let target = positional.get(1).map(String::as_str);

    match which {
        "figure5" | "headline" => print_figure5(scale),
        "figure6" => print_figure6(scale),
        "figure7" => print_figure7(scale),
        "examples" => print_examples(),
        "cpp" => print_cpp(),
        "ablations" => print_ablations(scale),
        "export" => export_corpus(scale, target.unwrap_or("corpus-out")),
        "eval-metrics" => eval_metrics(scale, threads, target.unwrap_or("BENCH_search.json")),
        "debug-kinds" => debug_kinds(scale),
        "all" => {
            print_examples();
            print_figure5(scale);
            print_figure6(scale);
            print_figure7(scale);
            print_ablations(scale);
            print_cpp();
        }
        other => {
            eprintln!(
                "unknown artifact `{other}`; try \
                 figure5|figure6|figure7|examples|cpp|eval-metrics|all"
            );
            std::process::exit(2);
        }
    }
}

/// The number after `flag`; a missing or unparsable one is a usage error.
fn value(flag: &str, raw: Option<String>) -> usize {
    raw.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("`{flag}` takes a number")))
}

/// Writes `text` to stdout through its lock. A reader that closed early
/// ends the run quietly (exit 0), and any other write failure exits 4,
/// as both do for `seminal`.
fn emit(text: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(text).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(4)
        }
    }
}

/// Exits 2, the usage-error code `seminal` also uses, naming `problem`.
fn usage_error(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: figures [all|figure5|figure6|figure7|headline|examples|cpp|\
         eval-metrics [OUT]] [--scale N] [--threads N]"
    );
    std::process::exit(2)
}

fn print_ablations(scale: usize) {
    banner("Ablations (§2's mechanisms removed one at a time) and §3.1 location-only check");
    let corpus = harness_corpus(scale);
    say!("corpus: {} files (scale {scale})\n", corpus.len());
    say!("{}", seminal_eval::render_ablations(&seminal_eval::ablations(&corpus)));
    say!("{}", seminal_eval::render_location_only(&seminal_eval::location_only(&corpus)));
}

/// Writes the assignments and the generated corpus to disk — the data
/// release the paper promised ("We plan to make the assignments and data
/// available", §3.1). Layout:
///
/// ```text
/// <dir>/templates/<name>.ml        the well-typed assignment programs
/// <dir>/corpus/<id>.ml             the ill-typed files
/// <dir>/corpus/MANIFEST.tsv        ground truth per file
/// ```
fn export_corpus(scale: usize, dir: &str) {
    use std::fs;
    use std::path::Path;
    let root = Path::new(dir);
    let templates_dir = root.join("templates");
    let corpus_dir = root.join("corpus");
    fs::create_dir_all(&templates_dir).expect("create templates dir");
    fs::create_dir_all(&corpus_dir).expect("create corpus dir");

    for t in seminal_corpus::TEMPLATES {
        fs::write(templates_dir.join(format!("{}.ml", t.name)), t.source).expect("write template");
    }

    let corpus = harness_corpus(scale);
    let mut manifest =
        String::from("id\tprogrammer\tassignment\ttemplate\tfaults\tspans\texpected_fixes\n");
    for f in &corpus {
        fs::write(corpus_dir.join(format!("{}.ml", f.id)), &f.source).expect("write file");
        let kinds: Vec<&str> = f.truths.iter().map(|t| t.kind.label()).collect();
        let spans: Vec<String> =
            f.truths.iter().map(|t| format!("{}..{}", t.span.start, t.span.end)).collect();
        let fixes: Vec<String> = f.truths.iter().map(|t| t.original.replace('\t', " ")).collect();
        manifest.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            f.id,
            f.programmer,
            f.assignment,
            f.template,
            kinds.join(","),
            spans.join(","),
            fixes.join(" | "),
        ));
    }
    fs::write(corpus_dir.join("MANIFEST.tsv"), manifest).expect("write manifest");
    say!(
        "exported {} templates and {} corpus files to {}",
        seminal_corpus::TEMPLATES.len(),
        corpus.len(),
        root.display()
    );
}

/// Runs the evaluation suite and writes the `BENCH_search.json`
/// aggregate-metrics artifact. `threads` selects file-level workers; the
/// artifact records the worker count and the measured wall-clock.
fn eval_metrics(scale: usize, threads: usize, out: &str) {
    let corpus = harness_corpus(scale);
    let start = std::time::Instant::now();
    let results = seminal_eval::evaluate_corpus_with(&corpus, threads);
    let wall = start.elapsed();
    let json = seminal_eval::bench_search_json_with(&results, threads, wall);
    std::fs::write(out, &json).expect("write metrics artifact");
    let merged = seminal_eval::corpus_metrics(&results);
    say!(
        "wrote {} ({} files, {} oracle calls, {} threads, wall {:?})",
        out,
        results.len(),
        merged.counter("oracle_calls"),
        threads,
        wall,
    );
    if let Some(h) = merged.histograms.get("oracle.latency_ns") {
        say!(
            "oracle latency: p50 <= {}ns  p90 <= {}ns  p99 <= {}ns ({} observations)",
            h.p50(),
            h.p90(),
            h.p99(),
            h.count,
        );
    }
}

/// Per-fault-class breakdown (§3.3's qualitative comparison, made
/// quantitative).
fn debug_kinds(scale: usize) {
    let corpus = harness_corpus(scale);
    let results = evaluate_corpus(&corpus);
    say!("{}", seminal_eval::render_by_kind(&seminal_eval::by_kind(&corpus, &results)));
    say!("sample disagreements (id, kind, baseline, no-triage, full):");
    for (file, r) in corpus.iter().zip(&results).take(300) {
        if r.full.score() != r.baseline.score() {
            say!(
                "  {:<34} {:<14} base={} nt={} full={}",
                r.id,
                file.truths.iter().map(|t| t.kind.label()).collect::<Vec<_>>().join("+"),
                r.baseline.score(),
                r.no_triage.score(),
                r.full.score()
            );
        }
    }
}

fn banner(title: &str) {
    say!("\n{}\n{}\n", "=".repeat(72), title);
}

fn print_examples() {
    banner("Worked examples (Figures 2, 8, 9 and the §2.4 multi-error program)");
    let searcher = SearchSession::builder(TypeCheckOracle::new()).build().unwrap();
    for (name, src) in [
        ("Figure 2 (map2, tupled vs curried)", FIGURE2),
        ("Figure 8 (swapped arguments)", FIGURE8),
        ("Figure 9 (missing argument to List.nth)", FIGURE9),
        ("§2.4 (two independent errors — triage)", MULTI_ERROR),
    ] {
        say!("--- {name} ---");
        let prog = parse_program(src).expect("example parses");
        let report = searcher.search(&prog);
        if let Some(err) = &report.baseline {
            say!("Type-checker: {}", err.render(src));
        }
        say!("Our approach:\n{}", message::render_report(&report, src, 1));
        say!(
            "(oracle calls: {}, time: {:?}, triage: {})\n",
            report.stats.oracle_calls,
            report.stats.elapsed,
            report.stats.triage_used
        );
    }
}

fn print_figure5(scale: usize) {
    banner("Figure 5 and §3.2 headline statistics");
    let corpus = harness_corpus(scale);
    say!("corpus: {} files (scale {scale})\n", corpus.len());
    let results = evaluate_corpus(&corpus);
    let fig = figure5(&results);
    say!("{}", render_figure5(&fig));
}

fn print_figure6(scale: usize) {
    banner("Figure 6: sizes of same-problem file groups (log scale)");
    let problems = 215 * scale.max(1); // ≈ paper's 1075 at scale 5
    let sizes = group_sizes(problems, 2007);
    let s = summarize(&sizes);
    say!(
        "collected files: {}   analyzed (groups): {}   (paper: 2122 / 1075)\n",
        s.collected,
        s.analyzed
    );
    say!("{:>6}  {:>7}  bar (log scale)", "size", "groups");
    for (size, count) in histogram(&sizes) {
        let bar = "#".repeat(((count as f64).ln_1p() * 8.0).ceil() as usize);
        say!("{size:>6}  {count:>7}  {bar}");
    }
}

fn print_figure7(scale: usize) {
    banner("Figure 7: cumulative distribution of search time");
    let corpus = harness_corpus(scale);
    say!("corpus: {} files (scale {scale})\n", corpus.len());
    let fig = figure7(&corpus);
    say!("{}", render_figure7(&fig));
}

fn print_cpp() {
    banner("Figures 10/11: the C++ template-function prototype");
    let prog = seminal_cpp::parse_cpp(FIGURE10_CPP).expect("figure 10 parses");
    let report = seminal_cpp::search_cpp(&prog);
    say!("gcc-style diagnostics ({} errors):\n", report.baseline.len());
    for e in &report.baseline {
        emit(format_args!("{}", e.render(FIGURE10_CPP)));
    }
    say!("\nOur approach:");
    match report.best() {
        Some(s) => say!("  {}", s.render()),
        None => say!("  (no suggestion)"),
    }
    say!("  (oracle calls: {})", report.oracle_calls);
}
