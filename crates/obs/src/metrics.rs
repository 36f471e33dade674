//! Counters and latency histograms with a stable JSON snapshot schema.
//!
//! [`MetricsRegistry`] is a string-keyed registry of monotonic counters
//! and power-of-two-bucket histograms, cheap enough to stay on for every
//! search. [`MetricsSnapshot`] is its frozen, serializable form; the JSON
//! encoding is versioned by the [`SCHEMA`] tag and decoding rejects
//! unknown fields everywhere, so artifacts round-trip exactly or fail
//! loudly (the CI contract).

use crate::json::{parse, Json, JsonError};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The schema tag every snapshot carries; bump the suffix on any change
/// to the snapshot layout.
pub const SCHEMA: &str = "seminal-obs/metrics-v1";

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// `v` with `ilog2(max(v,1)) == i`, so the top bucket covers up to
/// `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Well-known metric keys shared between producers (the search) and
/// consumers (the eval runner, CI assertions). The registry itself is
/// stringly-keyed; these constants exist so the localization-backend
/// keys added in PR 6 cannot drift between crates.
pub mod keys {
    /// Counter: `BackendKind::metric_code` of the localization backend
    /// that ran this search (0 = none, 1 = blame, 2 = mcs).
    pub const ANALYSIS_BACKEND: &str = "analysis.backend";
    /// Counter: correction subsets the MCS backend enumerated.
    pub const MCS_SUBSETS_ENUMERATED: &str = "mcs.subsets_enumerated";
    /// Histogram: pure MCS solve time (the replay loop), nanoseconds.
    pub const MCS_SOLVE_NS: &str = "mcs.solve_ns";
    /// Counter: probes answered from the process-lifetime cross-request
    /// memo (serve daemon, PR 8) without calling the real oracle.
    pub const CROSS_REQUEST_HITS: &str = "memo.cross_request_hits";
    /// Counter: probes that missed the cross-request memo and fell
    /// through to the real oracle.
    pub const CROSS_REQUEST_MISSES: &str = "memo.cross_request_misses";
    /// Counter: probe outcomes evicted from the cross-request memo
    /// (FIFO, per shard) to stay under its capacity.
    pub const CROSS_REQUEST_EVICTIONS: &str = "memo.cross_request_evictions";
    /// Gauge (reported as a counter): probe outcomes resident in the
    /// cross-request memo when the snapshot was taken.
    pub const CROSS_REQUEST_ENTRIES: &str = "memo.cross_request_entries";
    /// Counter: probes this request's cross-request memo could not
    /// answer, each one real oracle call — the number the e2e
    /// warm-cache test pins to zero. The baseline check is never
    /// cached and not counted here, nor is a probe an injected panic
    /// cut short, for chaos and clean requests alike.
    pub const ORACLE_REAL_CALLS: &str = "oracle.real_calls";
    /// Counter: probes the incremental (checkpointed) oracle answered by
    /// reusing a previously checked declaration prefix — including probes
    /// answered entirely from the cached chain without any re-inference.
    pub const ORACLE_INCREMENTAL_HITS: &str = "oracle.incremental_hits";
    /// Counter: declarations the incremental oracle actually re-inferred.
    /// The whole point of the checkpointed path is that this stays well
    /// under `oracle_calls × decls`, the scratch oracle's cost.
    pub const ORACLE_DECLS_RECHECK: &str = "oracle.decls_recheck";
    /// Counter: nanoseconds the incremental oracle spent rolling the
    /// union-find trail and environment back after tail re-inference.
    pub const ORACLE_ROLLBACK_NS: &str = "oracle.rollback_ns";
    /// Counter: API requests dispatched by this server process.
    pub const SERVER_REQUESTS: &str = "server.requests";
    /// Histogram: wall-clock time to dispatch one API request, ns.
    pub const SERVER_REQUEST_NS: &str = "server.request_ns";
    /// Counter: requests shed by admission control (answered with a
    /// typed `Overloaded` response carrying `retry_after_ms`) plus
    /// connections refused at the `--max-connections` cap.
    pub const SERVER_SHED: &str = "server.shed";
    /// Gauge (reported as a counter): work requests holding an
    /// admission permit when the snapshot was taken.
    pub const SERVER_INFLIGHT: &str = "server.inflight";
    /// Histogram: time a request waited in the bounded admission queue
    /// before dispatch, ns.
    pub const SERVER_QUEUE_DEPTH_NS: &str = "server.queue_depth_ns";
    /// Counter: wall-clock the last graceful drain spent waiting for
    /// in-flight connections at shutdown, ns.
    pub const SERVER_DRAIN_NS: &str = "server.drain_ns";
    /// Counter: wall-clock `dispatch` spent lexing and parsing a
    /// `check` request's source, ns; summed over requests in the
    /// daemon's totals. The parse stage of the per-stage ledger.
    pub const STAGE_PARSE_NS: &str = "stage.parse_ns";
}

/// A latency/size histogram with power-of-two buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Per-bucket counts, trailing zero buckets trimmed on snapshot.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Records one observation (public so hot paths can bump a local
    /// histogram without going through a registry's lock).
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = value.max(1).ilog2() as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// thousandths, e.g. 500 = median, 990 = p99). Approximate by one
    /// power of two, which is all the flame report needs.
    pub fn quantile_upper_bound(&self, q_milli: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * q_milli.min(1000)).div_ceil(1000).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 2u64.saturating_pow(i as u32 + 1).saturating_sub(1);
            }
        }
        self.max
    }

    /// Median upper bound (see [`Histogram::quantile_upper_bound`]).
    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(500)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile_upper_bound(900)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(990)
    }
}

/// Live registry: counters and histograms keyed by stable names.
/// Interior-mutable (`&self` updates) so one registry can be shared by a
/// search run, an instrumented oracle, and an eval harness.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryState>,
}

#[derive(Debug, Default)]
struct RegistryState {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to the counter `name` (creating it at zero).
    pub fn add(&self, name: &str, by: u64) {
        let mut state = self.inner.lock().expect("metrics registry poisoned");
        *state.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Increments the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Raises the counter `name` to `value` if it is currently lower
    /// (for high-water marks such as maximum descent depth).
    pub fn set_max(&self, name: &str, value: u64) {
        let mut state = self.inner.lock().expect("metrics registry poisoned");
        let slot = state.counters.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let mut state = self.inner.lock().expect("metrics registry poisoned");
        state.histograms.entry(name.to_owned()).or_default().observe(value);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        let state = self.inner.lock().expect("metrics registry poisoned");
        state.counters.get(name).copied().unwrap_or(0)
    }

    /// Freezes the registry into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot { counters: state.counters.clone(), histograms: state.histograms.clone() }
    }
}

/// A frozen, serializable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges `other` into `self` (counters add, histograms combine
    /// bucket-wise) — how the eval runner aggregates per-file snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let slot = self.histograms.entry(k.clone()).or_default();
            if slot.count == 0 {
                *slot = h.clone();
                continue;
            }
            if h.count > 0 {
                slot.min = slot.min.min(h.min);
                slot.max = slot.max.max(h.max);
            }
            slot.count += h.count;
            slot.sum = slot.sum.saturating_add(h.sum);
            if slot.buckets.len() < h.buckets.len() {
                slot.buckets.resize(h.buckets.len(), 0);
            }
            for (i, n) in h.buckets.iter().enumerate() {
                slot.buckets[i] += n;
            }
        }
    }

    /// The snapshot as a JSON value (schema [`SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let counters =
            Json::Obj(self.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect());
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".to_owned(), Json::Num(h.count)),
                            ("sum".to_owned(), Json::Num(h.sum)),
                            ("min".to_owned(), Json::Num(h.min)),
                            ("max".to_owned(), Json::Num(h.max)),
                            (
                                "buckets".to_owned(),
                                Json::Arr(h.buckets.iter().map(|n| Json::Num(*n)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("counters".to_owned(), counters),
            ("histograms".to_owned(), histograms),
        ])
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Decodes a snapshot, rejecting unknown fields at every level and
    /// any schema-tag mismatch (the deny-unknown-fields contract CI
    /// enforces on emitted artifacts).
    ///
    /// # Errors
    ///
    /// Schema-tag mismatch, unknown or missing fields, or wrong types.
    pub fn from_json(value: &Json) -> Result<MetricsSnapshot, JsonError> {
        let Json::Obj(members) = value else {
            return Err(JsonError("snapshot must be an object".to_owned()));
        };
        let mut counters = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        let mut schema_seen = false;
        for (key, v) in members {
            match key.as_str() {
                "schema" => {
                    let tag =
                        v.as_str().ok_or_else(|| JsonError("schema must be a string".into()))?;
                    if tag != SCHEMA {
                        return Err(JsonError(format!(
                            "schema mismatch: expected `{SCHEMA}`, found `{tag}`"
                        )));
                    }
                    schema_seen = true;
                }
                "counters" => {
                    let Json::Obj(entries) = v else {
                        return Err(JsonError("counters must be an object".into()));
                    };
                    for (name, n) in entries {
                        let n = n.as_num().ok_or_else(|| {
                            JsonError(format!("counter `{name}` must be a number"))
                        })?;
                        counters.insert(name.clone(), n);
                    }
                }
                "histograms" => {
                    let Json::Obj(entries) = v else {
                        return Err(JsonError("histograms must be an object".into()));
                    };
                    for (name, h) in entries {
                        histograms.insert(name.clone(), histogram_from_json(name, h)?);
                    }
                }
                other => {
                    return Err(JsonError(format!("unknown snapshot field `{other}`")));
                }
            }
        }
        if !schema_seen {
            return Err(JsonError("missing `schema` field".into()));
        }
        Ok(MetricsSnapshot { counters, histograms })
    }

    /// Parses a JSON document into a snapshot (see [`Self::from_json`]).
    ///
    /// # Errors
    ///
    /// Parse errors or schema violations.
    pub fn from_json_str(text: &str) -> Result<MetricsSnapshot, JsonError> {
        MetricsSnapshot::from_json(&parse(text)?)
    }
}

fn histogram_from_json(name: &str, value: &Json) -> Result<Histogram, JsonError> {
    let Json::Obj(members) = value else {
        return Err(JsonError(format!("histogram `{name}` must be an object")));
    };
    let mut h = Histogram::default();
    let mut seen = [false; 5];
    for (key, v) in members {
        let field = |v: &Json| {
            v.as_num()
                .ok_or_else(|| JsonError(format!("histogram `{name}.{key}` must be a number")))
        };
        match key.as_str() {
            "count" => {
                h.count = field(v)?;
                seen[0] = true;
            }
            "sum" => {
                h.sum = field(v)?;
                seen[1] = true;
            }
            "min" => {
                h.min = field(v)?;
                seen[2] = true;
            }
            "max" => {
                h.max = field(v)?;
                seen[3] = true;
            }
            "buckets" => {
                let Json::Arr(items) = v else {
                    return Err(JsonError(format!("histogram `{name}.buckets` must be an array")));
                };
                if items.len() > HISTOGRAM_BUCKETS {
                    return Err(JsonError(format!(
                        "histogram `{name}` has {} buckets, max {HISTOGRAM_BUCKETS}",
                        items.len()
                    )));
                }
                h.buckets = items
                    .iter()
                    .map(|n| {
                        n.as_num().ok_or_else(|| {
                            JsonError(format!("histogram `{name}` bucket must be a number"))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                seen[4] = true;
            }
            other => {
                return Err(JsonError(format!("unknown histogram field `{name}.{other}`")));
            }
        }
    }
    if seen.iter().any(|s| !s) {
        return Err(JsonError(format!("histogram `{name}` is missing required fields")));
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_accumulate() {
        let reg = MetricsRegistry::new();
        reg.inc("oracle_calls");
        reg.add("oracle_calls", 2);
        reg.set_max("descend.max_depth", 4);
        reg.set_max("descend.max_depth", 2);
        for v in [1u64, 2, 3, 1000] {
            reg.observe("oracle.latency_ns", v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("oracle_calls"), 3);
        assert_eq!(snap.counter("descend.max_depth"), 4);
        let h = &snap.histograms["oracle.latency_ns"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.mean(), 251);
        // 1 → bucket 0, 2 and 3 → bucket 1, 1000 → bucket 9.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[9], 1);
        assert!(h.quantile_upper_bound(500) <= 7);
        assert!(h.quantile_upper_bound(1000) >= 1000 - 1);
    }

    #[test]
    fn percentile_accessors_bound_the_observed_ranks() {
        let mut h = Histogram::default();
        assert_eq!((h.p50(), h.p90(), h.p99()), (0, 0, 0), "empty histogram");
        // 100 observations: 1..=99 land in low buckets, one outlier in
        // bucket ilog2(1<<20) = 20.
        for v in 1..=99u64 {
            h.observe(v);
        }
        h.observe(1 << 20);
        assert_eq!(h.p50(), h.quantile_upper_bound(500));
        assert!(h.p50() <= 63, "median of 1..=99 sits at or below bucket [32,64)");
        assert!(h.p90() <= 127, "p90 is still inside the 1..=99 mass");
        assert!(h.p99() <= 127, "rank 99 of 100 is the value 99");
        assert!(h.quantile_upper_bound(1000) >= (1 << 20) - 1, "the outlier is the max");
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99(), "percentiles are monotone");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.add("a", 7);
        reg.observe("h", 42);
        reg.observe("h", 1);
        let snap = reg.snapshot();
        let text = snap.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json_string(), text, "serialization is canonical");
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        let reg = MetricsRegistry::new();
        reg.add("a", 1);
        reg.observe("h", 5);
        let good = reg.snapshot().to_json_string();
        // Top level.
        let bad = good.replace("\"counters\"", "\"extra\": 1,\n  \"counters\"");
        assert!(MetricsSnapshot::from_json_str(&bad).is_err());
        // Histogram level.
        let bad = good.replace("\"count\"", "\"sneaky\": 0,\n      \"count\"");
        assert!(MetricsSnapshot::from_json_str(&bad).is_err());
        // Wrong schema tag.
        let bad = good.replace(SCHEMA, "seminal-obs/metrics-v999");
        assert!(MetricsSnapshot::from_json_str(&bad).is_err());
        // Missing schema.
        let bad = good.replace("\"schema\": \"seminal-obs/metrics-v1\",", "");
        assert!(MetricsSnapshot::from_json_str(&bad).is_err());
    }

    #[test]
    fn merge_combines_counters_and_buckets() {
        let a = MetricsRegistry::new();
        a.add("c", 1);
        a.observe("h", 2);
        let b = MetricsRegistry::new();
        b.add("c", 2);
        b.add("only_b", 5);
        b.observe("h", 1000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c"), 3);
        assert_eq!(merged.counter("only_b"), 5);
        let h = &merged.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1002);
        assert_eq!(h.min, 2);
        assert_eq!(h.max, 1000);
    }
}
