//! Corpus-level metric aggregation and the `BENCH_search.json` artifact.
//!
//! Each [`FileResult`] carries the full tool's
//! per-search [`MetricsSnapshot`]; this module merges them into one
//! corpus-wide snapshot and renders the benchmark artifact the CI
//! pipeline uploads — a single JSON object with the headline aggregates
//! (files, oracle calls, wall-clock) plus the merged snapshot under
//! `"metrics"`, so downstream tooling can diff runs field by field.

use crate::runner::FileResult;
use seminal_obs::{Json, MetricsSnapshot};
use std::time::Duration;

/// Merges every file's per-search snapshot into one corpus-wide snapshot:
/// counters add, histograms pool their observations.
pub fn corpus_metrics(results: &[FileResult]) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for r in results {
        merged.merge(&r.metrics);
    }
    merged
}

/// Renders the `BENCH_search.json` benchmark artifact for a sequential
/// run: headline aggregates plus the merged `seminal-obs/metrics-v1`
/// snapshot. The `wall_clock_ns` field equals the sum of per-file search
/// times, which is what a one-worker run spends.
pub fn bench_search_json(results: &[FileResult]) -> String {
    let wall: u64 =
        results.iter().map(|r| u64::try_from(r.full_time.as_nanos()).unwrap_or(u64::MAX)).sum();
    bench_search_json_with(results, 1, Duration::from_nanos(wall))
}

/// Renders the `BENCH_search.json` benchmark artifact for a run evaluated
/// with [`crate::runner::evaluate_corpus_with`]: `threads` records the
/// worker count and `wall_clock_ns` the externally measured wall-clock of
/// the whole corpus pass, so per-thread artifacts can be diffed for the
/// parallel speedup.
pub fn bench_search_json_with(
    results: &[FileResult],
    threads: usize,
    wall_clock: Duration,
) -> String {
    let merged = corpus_metrics(results);
    let oracle_calls: u64 = results.iter().map(|r| r.full_calls).sum();
    let mut times_ns: Vec<u64> =
        results.iter().map(|r| u64::try_from(r.full_time.as_nanos()).unwrap_or(u64::MAX)).collect();
    times_ns.sort_unstable();
    let total_ns: u64 = times_ns.iter().sum();
    let quantile = |q_milli: u64| -> u64 {
        if times_ns.is_empty() {
            0
        } else {
            let idx = (q_milli * (times_ns.len() as u64 - 1) + 500) / 1000;
            times_ns[idx as usize]
        }
    };
    let obj = Json::Obj(vec![
        ("bench".to_owned(), Json::Str("search".to_owned())),
        ("files".to_owned(), Json::Num(results.len() as u64)),
        ("threads".to_owned(), Json::Num(threads.max(1) as u64)),
        ("oracle_calls".to_owned(), Json::Num(oracle_calls)),
        ("total_time_ns".to_owned(), Json::Num(total_ns)),
        (
            "wall_clock_ns".to_owned(),
            Json::Num(u64::try_from(wall_clock.as_nanos()).unwrap_or(u64::MAX)),
        ),
        (
            "mean_time_ns".to_owned(),
            Json::Num(total_ns.checked_div(results.len() as u64).unwrap_or(0)),
        ),
        ("p50_time_ns".to_owned(), Json::Num(quantile(500))),
        ("p90_time_ns".to_owned(), Json::Num(quantile(900))),
        ("p99_time_ns".to_owned(), Json::Num(quantile(990))),
        ("metrics".to_owned(), merged.to_json()),
    ]);
    obj.to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_corpus::generate::{generate, small_config};
    use seminal_obs::parse_json;

    #[test]
    fn corpus_metrics_sum_oracle_calls_exactly() {
        let files = generate(&small_config(4));
        let results = crate::runner::evaluate_corpus(&files);
        let merged = corpus_metrics(&results);
        let total: u64 = results.iter().map(|r| r.full_calls).sum();
        assert_eq!(merged.counter("oracle_calls"), total);
    }

    #[test]
    fn bench_artifact_parses_and_embeds_a_valid_snapshot() {
        let files = generate(&small_config(3));
        let results = crate::runner::evaluate_corpus(&files);
        let text = bench_search_json(&results);
        let json = parse_json(&text).expect("artifact is valid JSON");
        assert_eq!(json.get("files").and_then(Json::as_num), Some(results.len() as u64));
        // The embedded snapshot round-trips through the strict
        // (deny-unknown-fields) schema reader.
        let snap = MetricsSnapshot::from_json(json.get("metrics").expect("metrics present"))
            .expect("embedded snapshot is schema-valid");
        assert_eq!(
            snap.counter("oracle_calls"),
            json.get("oracle_calls").and_then(Json::as_num).unwrap()
        );
        // Sequential artifact: one worker, wall-clock = summed per-file time.
        assert_eq!(json.get("threads").and_then(Json::as_num), Some(1));
        assert_eq!(
            json.get("wall_clock_ns").and_then(Json::as_num),
            json.get("total_time_ns").and_then(Json::as_num)
        );
    }

    #[test]
    fn per_thread_artifact_records_worker_count_and_wall_clock() {
        let files = generate(&small_config(3));
        let start = std::time::Instant::now();
        let results = crate::runner::evaluate_corpus_with(&files, 4);
        let wall = start.elapsed();
        let text = bench_search_json_with(&results, 4, wall);
        let json = parse_json(&text).expect("artifact is valid JSON");
        assert_eq!(json.get("threads").and_then(Json::as_num), Some(4));
        assert_eq!(
            json.get("wall_clock_ns").and_then(Json::as_num),
            Some(u64::try_from(wall.as_nanos()).unwrap())
        );
    }
}
