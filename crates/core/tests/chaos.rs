//! The chaos suite: degradation invariants under deterministic fault
//! injection.
//!
//! A session built with [`SearchSessionBuilder::chaos`] makes its
//! oracle guards panic on a seeded, text-keyed fraction of calls — the
//! same variants fault on every run — and the search must absorb every
//! injection: finish, rank best-so-far suggestions, and report
//! `Completion::Degraded` with an exact fault count. Cancellation and
//! deadlines degrade the same way: cooperative stop, best-so-far
//! payload, honest completion.
//!
//! The whole suite is pinned with **both** checkers, the checkpointed
//! incremental oracle and the from-scratch [`TypeCheckOracle`]:
//! injection happens in the guard, above the checker, and its decisions
//! are a pure function of rendered text and seed, so the same variants
//! must fault — and the payloads, completions, and probe accounting
//! must stay identical — whichever checker answers the clean probes.
//! (The C++ prototype's chaos loop is untouched by this: the
//! checkpointed oracle is Caml-only.)
//!
//! [`SearchSessionBuilder::chaos`]: seminal_core::SearchSessionBuilder::chaos

use seminal_core::{Completion, Oracle, SearchConfig, SearchReport, SearchSession};
use seminal_ml::parser::parse_program;
use seminal_typeck::{ChaosConfig, CheckpointedOracle, TypeCheckOracle};
use std::time::{Duration, Instant};

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
    ("list_comma", "let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]"),
    ("missing_rec", "let fact n = if n = 0 then 1 else n * fact (n - 1)"),
];

/// Ten percent nominal panic rate — the ISSUE's headline chaos load.
const PANIC_PER_MILLE: u16 = 100;

fn run_chaotic(src: &str, seed: u64) -> SearchReport {
    run_chaotic_mode(src, seed, true)
}

fn run_chaotic_mode(src: &str, seed: u64, incremental: bool) -> SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let (chain, scratch) = (CheckpointedOracle::new(), TypeCheckOracle::new());
    let checker: &dyn Oracle = if incremental { &chain } else { &scratch };
    let config = SearchConfig { collect_trace: true, ..SearchConfig::default() };
    SearchSession::builder(checker)
        .config(config)
        .chaos(ChaosConfig::panics(seed, PANIC_PER_MILLE))
        .build()
        .unwrap()
        .search(&prog)
}

/// The user-visible payload: every suggestion in rank order.
fn payload(report: &SearchReport) -> Vec<(String, String, Option<String>, bool)> {
    report
        .suggestions()
        .iter()
        .map(|s| (s.original_str.clone(), s.replacement_str.clone(), s.new_type.clone(), s.triaged))
        .collect()
}

#[test]
fn every_chaotic_search_finishes_and_reports_faults_honestly() {
    let mut faulted_somewhere = false;
    for (name, src) in SCENARIOS {
        for seed in [1, 7, 42] {
            let report = run_chaotic(src, seed);
            match report.completion {
                Completion::Complete => {
                    assert_eq!(report.stats.probe_faults, 0, "{name}/{seed}: hidden faults");
                }
                Completion::Degraded { faults } => {
                    assert!(faults > 0, "{name}/{seed}: degraded with zero faults");
                    assert_eq!(
                        faults, report.stats.probe_faults,
                        "{name}/{seed}: completion and stats disagree on the fault count"
                    );
                    faulted_somewhere = true;
                }
                other => panic!("{name}/{seed}: unexpected completion {other}"),
            }
            assert_eq!(
                report.metrics.counter("probe_faults"),
                report.stats.probe_faults,
                "{name}/{seed}: metrics disagree with stats"
            );
        }
    }
    assert!(faulted_somewhere, "a 10% panic rate never fired across the whole suite");
}

#[test]
fn chaotic_runs_are_identical_between_incremental_and_scratch_oracles() {
    // Injection decisions are text-keyed, so the same variants fault
    // with both checkers; everything user-visible — payload, completion,
    // and the probe accounting — must therefore be byte-identical
    // between the checkpointed and scratch paths.
    for (name, src) in SCENARIOS {
        let incr = run_chaotic_mode(src, 42, true);
        let scratch = run_chaotic_mode(src, 42, false);
        assert_eq!(payload(&incr), payload(&scratch), "{name}: payload depends on the oracle mode");
        assert_eq!(
            incr.completion, scratch.completion,
            "{name}: completion depends on the oracle mode"
        );
        assert_eq!(
            (incr.stats.oracle_calls, incr.stats.probe_faults),
            (scratch.stats.oracle_calls, scratch.stats.probe_faults),
            "{name}: probe accounting depends on the oracle mode"
        );
    }
}

#[test]
fn faulted_probes_stay_out_of_the_oracle_latency_histogram() {
    for (name, src) in SCENARIOS {
        let report = run_chaotic(src, 42);
        let observed = report.metrics.histograms.get("oracle.latency_ns").map_or(0, |h| h.count);
        assert_eq!(
            observed, report.stats.oracle_calls,
            "{name}: histogram must hold real calls only"
        );
    }
}

#[test]
fn cancellation_is_cooperative_sticky_and_honest() {
    let prog = parse_program(SCENARIOS[0].1).unwrap();
    let session = SearchSession::builder(TypeCheckOracle::new()).build().unwrap();
    session.handle().cancel();
    let report = session.search(&prog);
    assert_eq!(report.completion, Completion::Cancelled, "pre-cancelled search");
    // Sticky: the same session stays cancelled for later searches.
    let again = session.search(&prog);
    assert_eq!(again.completion, Completion::Cancelled);
}

#[test]
fn cancelling_mid_search_still_returns_a_report() {
    let prog = parse_program(SCENARIOS[2].1).unwrap();
    let session = SearchSession::builder(TypeCheckOracle::new()).build().unwrap();
    let handle = session.handle();
    std::thread::scope(|s| {
        s.spawn(move || handle.cancel());
        let report = session.search(&prog);
        // Depending on timing the search may finish first; either way it
        // must return, and a cancelled run must say so.
        assert!(
            matches!(report.completion, Completion::Cancelled | Completion::Complete),
            "unexpected completion {}",
            report.completion
        );
    });
}

#[test]
fn deadline_expiry_degrades_gracefully() {
    // Delay-injected probes make the tiny deadline certain to expire
    // mid-search.
    let prog = parse_program(SCENARIOS[0].1).unwrap();
    let started = Instant::now();
    let report = SearchSession::builder(TypeCheckOracle::new())
        .chaos(ChaosConfig::delays(5, 1000, Duration::from_millis(2)))
        .deadline(Some(Duration::from_millis(5)))
        .build()
        .unwrap()
        .search(&prog);
    assert_eq!(
        report.completion,
        Completion::DeadlineExpired,
        "slow probes against a 5ms deadline must expire"
    );
    // The search stops at its next probe; overrunning by far more than
    // one probe's delay means it did not.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "search took {:?} — it did not stop at the deadline",
        started.elapsed()
    );
}

#[test]
fn budget_exhaustion_still_reports_through_completion() {
    let prog = parse_program(SCENARIOS[0].1).unwrap();
    let report = SearchSession::builder(TypeCheckOracle::new())
        .config(SearchConfig { max_oracle_calls: 3, ..SearchConfig::default() })
        .build()
        .unwrap()
        .search(&prog);
    assert_eq!(report.completion, Completion::BudgetExhausted);
    assert_eq!(report.metrics.counter("budget_exhausted"), 1);
}
