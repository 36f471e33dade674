//! Chaos suite for the C++ front end: seeded, index-keyed panic
//! injection into the checker must degrade the search gracefully — the
//! same payload and completion on every run, an honest fault count, and
//! no faulted probe ever accepted as a fix.

use seminal_cpp::{parse_cpp, CppChaos, CppReport, CppSearchSession};
use seminal_obs::Completion;
use std::time::{Duration, Instant};

const SCENARIOS: &[(&str, &str)] = &[
    (
        "figure10",
        "#include <algorithm>\n\
         #include <vector>\n\
         #include <functional>\n\
         using namespace std;\n\
         \n\
         void myFun(vector<long>& inv, vector<long>& outv) {\n\
           transform(inv.begin(), inv.end(), outv.begin(),\n\
                     compose1(bind1st(multiplies<long>(), 5), labs));\n\
         }\n",
    ),
    (
        "bind2nd_swap",
        "#include <algorithm>\n\
         #include <vector>\n\
         #include <functional>\n\
         using namespace std;\n\
         \n\
         void keep(vector<long>& v) {\n\
           remove_if(v.begin(), v.end(), bind2nd(less<long>(), v));\n\
         }\n",
    ),
];

fn run_chaotic(src: &str, seed: u64) -> CppReport {
    let prog = parse_cpp(src).unwrap_or_else(|e| panic!("parse: {e}"));
    CppSearchSession::builder()
        .chaos(CppChaos { seed, panic_per_mille: 100 })
        .build()
        .unwrap()
        .search(&prog)
}

fn payload(report: &CppReport) -> Vec<String> {
    report.suggestions.iter().map(|s| s.render()).collect()
}

#[test]
fn chaotic_cpp_searches_finish_with_honest_fault_counts() {
    let mut faulted_somewhere = false;
    for (name, src) in SCENARIOS {
        for seed in [1, 7, 42] {
            let report = run_chaotic(src, seed);
            match report.completion {
                Completion::Complete => {
                    assert_eq!(report.probe_faults, 0, "{name}/{seed}: hidden faults");
                }
                Completion::Degraded { faults } => {
                    assert!(faults > 0, "{name}/{seed}: degraded with zero faults");
                    assert_eq!(faults, report.probe_faults, "{name}/{seed}");
                    faulted_somewhere = true;
                }
                other => panic!("{name}/{seed}: unexpected completion {other}"),
            }
            assert_eq!(
                report.metrics.counter("probe_faults"),
                report.probe_faults,
                "{name}/{seed}: metrics disagree with the report"
            );
        }
    }
    assert!(faulted_somewhere, "a 10% panic rate never fired across the suite");
}

#[test]
fn chaotic_cpp_payloads_are_identical_across_runs() {
    // Injection is keyed by probe index and the probe list is fixed
    // before any verdict lands, so the same probes fault on every run.
    for (name, src) in SCENARIOS {
        let (first, second) = (run_chaotic(src, 42), run_chaotic(src, 42));
        assert_eq!(payload(&first), payload(&second), "{name}: payload");
        assert_eq!(first.completion, second.completion, "{name}: completion");
        assert_eq!(first.probe_faults, second.probe_faults, "{name}: fault count");
        assert_eq!(first.oracle_calls, second.oracle_calls, "{name}: call count");
    }
}

#[test]
fn faulted_cpp_probes_stay_out_of_the_latency_histogram() {
    for (name, src) in SCENARIOS {
        let report = run_chaotic(src, 42);
        let observed = report.metrics.histograms.get("oracle.latency_ns").map_or(0, |h| h.count);
        assert_eq!(observed, report.oracle_calls, "{name}: histogram must hold real checks only");
    }
}

#[test]
fn cpp_deadline_expiry_degrades_gracefully() {
    for (name, src) in SCENARIOS {
        let prog = parse_cpp(src).unwrap();
        let started = Instant::now();
        let report = CppSearchSession::builder()
            .deadline(Some(Duration::from_nanos(1)))
            .build()
            .unwrap()
            .search(&prog);
        assert_eq!(report.completion, Completion::DeadlineExpired, "{name}: a 1ns deadline");
        assert!(started.elapsed() < Duration::from_secs(10), "{name}: the search did not stop");
        // Degraded runs still carry the baseline diagnosis.
        assert!(!report.baseline.is_empty(), "{name}: baseline must survive expiry");
    }
}

#[test]
fn injected_fault_set_is_pinned() {
    // The fault set is a pure function of (seed, index); a changed
    // generator would silently move every chaos run onto other probes.
    let chaos = CppChaos { seed: 1729, panic_per_mille: 100 };
    let faulted: Vec<usize> = (0..200).filter(|&i| chaos.would_panic(i)).collect();
    assert_eq!(
        faulted,
        [0, 2, 17, 19, 27, 30, 32, 47, 62, 65, 76, 85, 99, 108, 120, 121, 183, 186]
    );
}
