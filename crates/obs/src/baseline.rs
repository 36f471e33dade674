//! Perf-trend gate: compares a metrics snapshot against a committed
//! baseline and reports regressions.
//!
//! The gate is deliberately one-sided: it fires only when a candidate
//! *exceeds* the baseline by more than the allowed tolerance.
//! Improvements never fail the gate (they are picked up the next time
//! the baseline file is regenerated). Two tolerances apply:
//!
//! * **counter tolerance** for work counters (`oracle_calls`,
//!   `suggestions`, per-family probe counts, …) — these are deterministic
//!   for a fixed corpus and seed, so CI can hold them tight;
//! * **time tolerance** for anything measured in nanoseconds (`*_ns`
//!   counters and latency-histogram percentiles) — wall-clock numbers
//!   vary across machines, so CI holds them loose, catching only
//!   catastrophic slowdowns.
//!
//! A baseline counter of zero is a strict gate: if the committed run
//! had no probe faults, any fault in the candidate is a regression.
//!
//! [`extract_snapshot`] accepts either a bare
//! [`MetricsSnapshot`] document or a `figures eval-metrics` BENCH
//! artifact (whose aggregate snapshot sits under its `"metrics"`
//! member), so `metrics-check --baseline` works on both.

use crate::json::{Json, JsonError};
use crate::metrics::MetricsSnapshot;

/// Allowed overshoot, as a percentage of the baseline value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tolerance {
    /// Allowed overshoot for work counters, percent.
    pub counters_pct: u64,
    /// Allowed overshoot for `*_ns` counters and histogram
    /// percentiles, percent.
    pub times_pct: u64,
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance { counters_pct: 5, times_pct: 500 }
    }
}

fn allowed(base: u64, pct: u64) -> u64 {
    base.saturating_add(base.saturating_mul(pct) / 100)
}

fn is_time_key(key: &str) -> bool {
    key.ends_with("_ns")
}

/// Every way `candidate` exceeds `baseline` beyond `tol`, as
/// human-readable findings (empty means the gate passes).
///
/// Keys present only in the candidate are ignored (new metrics are not
/// regressions); keys present only in the baseline are compared against
/// a candidate value of zero, which can never exceed the baseline.
pub fn regressions(
    candidate: &MetricsSnapshot,
    baseline: &MetricsSnapshot,
    tol: Tolerance,
) -> Vec<String> {
    let mut findings = Vec::new();
    for (key, &base) in &baseline.counters {
        let cand = candidate.counter(key);
        let pct = if is_time_key(key) { tol.times_pct } else { tol.counters_pct };
        let limit = allowed(base, pct);
        if cand > limit {
            findings.push(format!(
                "counter `{key}` regressed: {cand} > {limit} (baseline {base}, +{pct}% allowed)"
            ));
        }
    }
    for (key, base_hist) in &baseline.histograms {
        let Some(cand_hist) = candidate.histograms.get(key) else { continue };
        let pct = if is_time_key(key) { tol.times_pct } else { tol.counters_pct };
        for (label, base_q, cand_q) in [
            ("p50", base_hist.p50(), cand_hist.p50()),
            ("p90", base_hist.p90(), cand_hist.p90()),
            ("p99", base_hist.p99(), cand_hist.p99()),
        ] {
            let limit = allowed(base_q, pct);
            if cand_q > limit {
                findings.push(format!(
                    "histogram `{key}` {label} regressed: {cand_q} > {limit} \
                     (baseline {base_q}, +{pct}% allowed)"
                ));
            }
        }
    }
    findings
}

/// Pulls the [`MetricsSnapshot`] out of `value`, which may be a bare
/// snapshot document or a BENCH artifact embedding one under
/// `"metrics"`.
///
/// # Errors
///
/// Whatever [`MetricsSnapshot::from_json`] rejects, or a document that
/// is neither shape.
pub fn extract_snapshot(value: &Json) -> Result<MetricsSnapshot, JsonError> {
    if value.get("schema").is_some() {
        return MetricsSnapshot::from_json(value);
    }
    match value.get("metrics") {
        Some(inner) => MetricsSnapshot::from_json(inner),
        None => Err(JsonError(
            "document is neither a metrics snapshot nor a BENCH artifact \
             with an embedded `metrics` member"
                .to_owned(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn snapshot(calls: u64, elapsed_ns: u64, latencies: &[u64]) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.add("oracle_calls", calls);
        reg.add("elapsed_ns", elapsed_ns);
        reg.add("probe_faults", 0);
        for &v in latencies {
            reg.observe("oracle.latency_ns", v);
        }
        reg.snapshot()
    }

    #[test]
    fn identical_snapshots_pass() {
        let snap = snapshot(100, 1_000_000, &[100, 200, 300]);
        assert!(regressions(&snap, &snap, Tolerance::default()).is_empty());
    }

    #[test]
    fn improvements_and_new_keys_pass() {
        let base = snapshot(100, 1_000_000, &[100, 200, 300]);
        let mut cand = snapshot(80, 500_000, &[50, 60]);
        cand.counters.insert("brand.new".to_owned(), 999);
        assert!(regressions(&cand, &base, Tolerance::default()).is_empty());
    }

    #[test]
    fn counter_inflation_beyond_tolerance_fails() {
        let base = snapshot(100, 1_000_000, &[100]);
        let cand = snapshot(111, 1_000_000, &[100]);
        let findings = regressions(&cand, &base, Tolerance { counters_pct: 10, times_pct: 500 });
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("oracle_calls"));
        // Inside tolerance passes.
        let cand = snapshot(110, 1_000_000, &[100]);
        assert!(
            regressions(&cand, &base, Tolerance { counters_pct: 10, times_pct: 500 }).is_empty()
        );
    }

    #[test]
    fn time_keys_use_the_loose_tolerance() {
        let base = snapshot(100, 1_000, &[100]);
        // elapsed_ns 4× the baseline: inside times_pct 500, outside
        // counters_pct 5 — must use the former.
        let cand = snapshot(100, 4_000, &[100]);
        assert!(regressions(&cand, &base, Tolerance::default()).is_empty());
        let cand = snapshot(100, 7_000, &[100]);
        let findings = regressions(&cand, &base, Tolerance::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("elapsed_ns"));
    }

    #[test]
    fn zero_baseline_counters_gate_strictly() {
        let base = snapshot(100, 1_000, &[100]);
        let mut cand = snapshot(100, 1_000, &[100]);
        cand.counters.insert("probe_faults".to_owned(), 1);
        let findings = regressions(&cand, &base, Tolerance::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("probe_faults"));
    }

    #[test]
    fn histogram_percentile_blowup_fails() {
        let base = snapshot(100, 1_000, &[100, 120, 130]);
        // Percentiles grow by ~1000×: way past the 500% time tolerance.
        let cand = snapshot(100, 1_000, &[100_000, 120_000, 130_000]);
        let findings = regressions(&cand, &base, Tolerance::default());
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.contains("oracle.latency_ns")), "{findings:?}");
    }

    #[test]
    fn extract_accepts_both_document_shapes() {
        let snap = snapshot(5, 10, &[1]);
        let bare = crate::json::parse(&snap.to_json_string()).unwrap();
        assert_eq!(extract_snapshot(&bare).unwrap(), snap);
        let bench = Json::Obj(vec![
            ("bench".to_owned(), Json::Str("search".to_owned())),
            ("metrics".to_owned(), snap.to_json()),
        ]);
        assert_eq!(extract_snapshot(&bench).unwrap(), snap);
        let neither = Json::Obj(vec![("bench".to_owned(), Json::Str("search".to_owned()))]);
        assert!(extract_snapshot(&neither).is_err());
    }
}
