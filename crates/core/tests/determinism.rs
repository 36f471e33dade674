//! The parallel probe engine's determinism contract, as an executable
//! specification: at every thread count the search reports the same
//! suggestions in the same ranks, the trace satisfies the structural
//! invariants, and the probe accounting reconciles exactly —
//!
//! * `oracle_calls + memo_hits` (logical probes) is identical across
//!   thread counts;
//! * the raw oracle sees exactly `oracle_calls + engine.speculative_waste`
//!   calls when the engine is on.

use seminal_core::obs::{check_invariants, EventKind, TraceRecord};
use seminal_core::{Outcome, SearchConfig, SearchReport, SearchSession};
use seminal_ml::parser::parse_program;
use seminal_typeck::{ChaosConfig, CountingOracle, TypeCheckOracle};

const SCENARIOS: &[(&str, &str)] = &[
    (
        "figure2",
        "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
         let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
         let ans = List.filter (fun x -> x == 0) lst\n",
    ),
    (
        "figure8",
        "let add str lst = if List.mem str lst then lst else str :: lst\n\
         let vList1 = [\"a\"]\n\
         let s = \"b\"\n\
         let r = add vList1 s\n",
    ),
    (
        "multi_error_triage",
        "let go () =\n\
         let x = 3 + true in\n\
         let a = 1 + 2 in\n\
         let b = a * 3 in\n\
         let c = 4 + \"hi\" in\n\
         b + c\n",
    ),
    (
        "figure4_match",
        "let f x y =\n\
         match (x, y) with\n\
           0, [] -> []\n\
         | n, [] -> n\n\
         | _, 5 -> 5 + \"hi\"\n",
    ),
    ("list_comma", "let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]"),
    ("unbound_variable", "let f x = print x; x + 1"),
    ("missing_rec", "let fact n = if n = 0 then 1 else n * fact (n - 1)"),
];

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn run(src: &str, threads: usize) -> SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    SearchSession::builder(TypeCheckOracle::new())
        .config(SearchConfig { collect_trace: true, ..SearchConfig::default() })
        .threads(threads)
        .build()
        .unwrap()
        .search(&prog)
}

/// The full user-visible payload of a report: every suggestion in rank
/// order with the fields a message is rendered from.
fn payload(report: &SearchReport) -> Vec<(String, String, Option<String>, bool)> {
    report
        .suggestions()
        .iter()
        .map(|s| (s.original_str.clone(), s.replacement_str.clone(), s.new_type.clone(), s.triaged))
        .collect()
}

#[test]
fn suggestions_and_ranks_are_identical_at_every_thread_count() {
    for (name, src) in SCENARIOS {
        let base = run(src, 1);
        for threads in [2, 8] {
            let par = run(src, threads);
            assert_eq!(
                payload(&base),
                payload(&par),
                "{name}: suggestion set or ranks changed at {threads} threads"
            );
            assert_eq!(
                std::mem::discriminant(&base.outcome),
                std::mem::discriminant(&par.outcome),
                "{name}: outcome changed at {threads} threads"
            );
            assert_eq!(base.stats.triage_used, par.stats.triage_used, "{name}");
            assert_eq!(base.stats.first_bad_decl, par.stats.first_bad_decl, "{name}");
        }
    }
}

#[test]
fn logical_probe_counts_reconcile_across_thread_counts() {
    // At 1 thread the engine is off and every logical probe is a real
    // oracle call. At N threads the shared memo folds duplicate probes
    // into hits — but the *logical* count (calls + hits) must match the
    // sequential run exactly, or the engine changed what was probed.
    for (name, src) in SCENARIOS {
        let base = run(src, 1);
        assert_eq!(base.stats.memo_hits, 0, "{name}: no memo on the sequential path");
        for threads in [2, 8] {
            let par = run(src, threads);
            assert_eq!(
                par.stats.oracle_calls + par.stats.memo_hits,
                base.stats.oracle_calls,
                "{name}: logical probes diverged at {threads} threads \
                 ({} calls + {} hits vs {} sequential)",
                par.stats.oracle_calls,
                par.stats.memo_hits,
                base.stats.oracle_calls
            );
        }
    }
}

#[test]
fn raw_oracle_calls_reconcile_with_speculative_waste() {
    for (name, src) in SCENARIOS {
        let prog = parse_program(src).unwrap();
        for threads in [2, 8] {
            let oracle = CountingOracle::new(TypeCheckOracle::new());
            let report =
                SearchSession::builder(&oracle).threads(threads).build().unwrap().search(&prog);
            let waste = report.metrics.counter("engine.speculative_waste");
            assert_eq!(
                oracle.calls(),
                report.stats.oracle_calls + waste,
                "{name}: raw oracle saw {} calls but search attributed {} + {} waste \
                 at {threads} threads",
                oracle.calls(),
                report.stats.oracle_calls,
                waste
            );
        }
    }
}

#[test]
fn trace_invariants_hold_at_every_thread_count() {
    use seminal_core::obs::{EventKind, SpanKind, TraceRecord};
    for (name, src) in SCENARIOS {
        for threads in THREAD_COUNTS {
            let report = run(src, threads);
            check_invariants(&report.records)
                .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            // Uncached probe events still reconcile with the stats.
            let uncached = report
                .records
                .iter()
                .filter(|r| {
                    matches!(
                        r,
                        TraceRecord::Event {
                            kind: EventKind::OracleProbe { cached: false, .. },
                            ..
                        }
                    )
                })
                .count() as u64;
            assert_eq!(uncached, report.stats.oracle_calls, "{name} at {threads} threads");
            // Parallel runs that prefetched must show causally-attributed
            // worker activity: worker spans on distinct non-zero threads,
            // each parented to a live search-side span.
            if threads > 1 && report.metrics.counter("engine.prefetched") > 0 {
                let worker_threads: std::collections::HashSet<u32> = report
                    .records
                    .iter()
                    .filter(|r| {
                        matches!(r, TraceRecord::Open { kind: SpanKind::Worker { .. }, .. })
                    })
                    .map(|r| r.thread())
                    .collect();
                assert!(
                    !worker_threads.is_empty(),
                    "{name} at {threads} threads: prefetching left no worker spans"
                );
                assert!(
                    !worker_threads.contains(&0),
                    "{name} at {threads} threads: worker spans must not claim the search thread"
                );
                let speculative = report
                    .records
                    .iter()
                    .filter(|r| {
                        matches!(
                            r,
                            TraceRecord::Event { kind: EventKind::SpeculativeProbe { .. }, .. }
                        )
                    })
                    .count() as u64;
                assert_eq!(
                    speculative,
                    report.metrics.counter("engine.prefetched"),
                    "{name} at {threads} threads: one speculative event per prefetched probe"
                );
            }
        }
    }
}

#[test]
fn engine_metrics_appear_only_when_parallel() {
    let (_, src) = SCENARIOS[0];
    let seq = run(src, 1);
    assert_eq!(seq.metrics.counter("probe_parallelism"), 0);
    assert_eq!(seq.metrics.counter("engine.prefetched"), 0);
    for threads in [2, 8] {
        let par = run(src, threads);
        assert_eq!(par.metrics.counter("probe_parallelism"), threads as u64);
        assert!(par.metrics.counter("engine.prefetched") > 0, "engine actually prefetched");
        assert!(par.metrics.counter("engine.batches") > 0);
        assert!(
            par.metrics.counter("engine.largest_batch") >= 2,
            "frontiers of at least two variants were batched"
        );
    }
}

#[test]
fn memo_hits_land_in_the_saved_latency_histogram_not_oracle_latency() {
    // Satellite invariant: cache hits must not pollute the oracle-latency
    // distribution; their saved cost goes to `memo.hit_saved_ns`.
    let (_, src) = SCENARIOS[0];
    for threads in [2, 8] {
        let par = run(src, threads);
        if par.stats.memo_hits == 0 {
            continue;
        }
        let saved = par.metrics.histograms.get("memo.hit_saved_ns");
        assert_eq!(
            saved.map_or(0, |h| h.count),
            par.stats.memo_hits,
            "one saved-latency observation per memo hit at {threads} threads"
        );
        let oracle_latency = par.metrics.histograms.get("oracle.latency_ns").map_or(0, |h| h.count);
        assert_eq!(
            oracle_latency, par.stats.oracle_calls,
            "oracle-latency histogram holds real calls only at {threads} threads"
        );
    }
}

#[test]
fn well_typed_input_is_identical_at_every_thread_count() {
    for threads in THREAD_COUNTS {
        let report = run("let x = 1 + 2\nlet y = x * 3\n", threads);
        assert!(matches!(report.outcome, Outcome::WellTyped));
        assert_eq!(report.stats.oracle_calls, 1, "one baseline check, no engine work");
        assert_eq!(report.metrics.counter("engine.prefetched"), 0);
    }
}

#[test]
fn determinism_survives_seeded_fault_injection() {
    // The engine's contract extends to a faulty oracle: injections are
    // keyed by program text, so the same variants fault at every thread
    // count, and payloads, completion status, and the full probe
    // accounting (`oracle_calls + memo_hits + probe_faults`) must all
    // reconcile exactly. The sequential search keeps no memo, so each
    // faulted verdict the engine's memo serves is one more fault there.
    let faulted_hit = |rec: &&TraceRecord| {
        matches!(
            rec,
            TraceRecord::Event {
                kind: EventKind::OracleProbe { cached: true, faulted: true, .. },
                ..
            }
        )
    };
    for (name, src) in SCENARIOS {
        let prog = parse_program(src).unwrap();
        let run = |threads: usize| {
            let config = SearchConfig { collect_trace: true, threads, ..SearchConfig::default() };
            SearchSession::builder(TypeCheckOracle::new())
                .config(config)
                .chaos(ChaosConfig::panics(1729, 100))
                .build()
                .unwrap()
                .search(&prog)
        };
        let base = run(1);
        let logical = base.stats.oracle_calls + base.stats.memo_hits + base.stats.probe_faults;
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(payload(&base), payload(&par), "{name}: payload at {threads} threads");
            let (kind, par_kind) = (base.completion.tag(), par.completion.tag());
            assert_eq!(kind, par_kind, "{name}: completion at {threads} threads");
            let faulted_hits = par.records.iter().filter(faulted_hit).count() as u64;
            assert_eq!(
                base.stats.probe_faults,
                par.stats.probe_faults + faulted_hits,
                "{name}: faults at {threads} threads"
            );
            assert_eq!(
                par.stats.oracle_calls + par.stats.memo_hits + par.stats.probe_faults,
                logical,
                "{name}: probe accounting diverged at {threads} threads"
            );
        }
    }
}
