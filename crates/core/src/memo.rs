//! Process-lifetime probe-verdict cache for the serve daemon.
//!
//! The in-search [`ShardedMemo`](crate::engine::ShardedMemo) lives for
//! one `SearchSession::search` call and keys on pretty-printed program
//! text. A long-lived `seminal serve` process wants the complement: a
//! cache that **outlives** every session, keyed by the compact
//! [`program_fingerprint`] content hash so repeated edits to the same
//! file replay probe verdicts across requests instead of re-running the
//! oracle.
//!
//! The key of every probe after the first is built by a
//! [`FingerprintCache`] seeded from the request's first program (the
//! search's base): declarations a probe shares with the base by `Arc`
//! reuse the base's fingerprints, so a key costs O(edit) to build and
//! stays bit-identical to [`program_fingerprint`].
//!
//! [`CrossRequestMemo`] is that cache: 16-way sharded like the engine
//! memo, bounded by FIFO eviction per shard, with process-lifetime
//! hit/miss/evict counters (surfaced as the `memo.cross_request_*`
//! metrics). [`SharedMemoOracle`] is the per-request adapter: an
//! [`Oracle`] wrapper that consults the shared memo before its inner
//! oracle and additionally keeps **per-request** counters, so one
//! response can report how much of its work the warm cache absorbed —
//! including `oracle.real_calls`, the number the e2e warm-cache test
//! pins to zero for an identical second request.
//!
//! Probe *faults* (inner-oracle panics) propagate uncached: a chaotic
//! or buggy oracle must not poison verdicts for every later request.
//! Typing and constraint traces are not probes: they pass straight to
//! the inner oracle, uncounted and uncached.
//!
//! [`program_fingerprint`]: seminal_typeck::program_fingerprint

use seminal_ml::ast::{NodeId, Program};
use seminal_typeck::fingerprint::fnv1a;
use seminal_typeck::{ConstraintTrace, FingerprintCache, Oracle, TypeError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shard count; must be a power of two (same layout as `ShardedMemo`).
const SHARDS: usize = 16;

/// Default capacity (total verdicts across shards) when the server is
/// started without `--memo-capacity`.
pub const DEFAULT_CROSS_MEMO_CAPACITY: usize = 1 << 16;

/// One shard: verdicts plus insertion order for FIFO eviction.
#[derive(Default)]
struct Shard {
    verdicts: HashMap<u64, Result<(), TypeError>>,
    order: VecDeque<u64>,
}

/// A bounded, sharded, process-lifetime map from program fingerprints
/// to oracle verdicts. All counters are monotonic process totals.
pub struct CrossRequestMemo {
    shards: Vec<Mutex<Shard>>,
    /// FIFO bound per shard (total capacity distributed evenly).
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CrossRequestMemo {
    /// A memo bounded to roughly `capacity` verdicts (rounded up to a
    /// multiple of the shard count; a zero capacity still holds one
    /// verdict per shard so the daemon degrades to "tiny cache", never
    /// to "divide by zero").
    #[must_use]
    pub fn new(capacity: usize) -> CrossRequestMemo {
        CrossRequestMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(fnv1a(&key.to_le_bytes()) as usize) & (SHARDS - 1)]
    }

    /// Looks up a verdict, bumping the process hit/miss counters.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Result<(), TypeError>> {
        let shard = self.shard(key).lock().expect("cross-request memo poisoned");
        let verdict = shard.verdicts.get(&key).cloned();
        drop(shard);
        if verdict.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Caches a verdict (first writer wins — a concurrent duplicate is
    /// dropped, matching the engine memo). Returns `true` when an old
    /// verdict was evicted to make room.
    pub fn insert(&self, key: u64, verdict: Result<(), TypeError>) -> bool {
        let mut shard = self.shard(key).lock().expect("cross-request memo poisoned");
        if shard.verdicts.contains_key(&key) {
            return false;
        }
        let mut evicted = false;
        while shard.order.len() >= self.per_shard_capacity {
            if let Some(old) = shard.order.pop_front() {
                shard.verdicts.remove(&old);
                evicted = true;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.verdicts.insert(key, verdict);
        shard.order.push_back(key);
        evicted
    }

    /// Number of cached verdicts right now.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cross-request memo poisoned").verdicts.len())
            .sum()
    }

    /// Process-lifetime hit count.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Process-lifetime miss count.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Process-lifetime eviction count.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl Default for CrossRequestMemo {
    fn default() -> CrossRequestMemo {
        CrossRequestMemo::new(DEFAULT_CROSS_MEMO_CAPACITY)
    }
}

/// Per-request oracle adapter over a shared [`CrossRequestMemo`].
///
/// Wraps any inner [`Oracle`]; every `check` first consults the shared
/// memo by [`program_fingerprint`], built through a [`FingerprintCache`]
/// of the first program checked, and only on a miss calls the inner
/// oracle and caches its verdict. The wrapper's own counters are
/// per-request (they start at zero for each wrapper), so `dispatch`
/// can stamp `memo.cross_request_hits`/`_misses` and
/// `oracle.real_calls` deltas into each response while the memo keeps
/// the process totals.
///
/// [`program_fingerprint`]: seminal_typeck::program_fingerprint
pub struct SharedMemoOracle<O> {
    inner: O,
    memo: Arc<CrossRequestMemo>,
    /// Declaration fingerprints of the first program checked.
    base: OnceLock<FingerprintCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<O: Oracle> SharedMemoOracle<O> {
    /// Wraps `inner` over the shared `memo`.
    pub fn new(inner: O, memo: Arc<CrossRequestMemo>) -> SharedMemoOracle<O> {
        SharedMemoOracle {
            inner,
            memo,
            base: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Probes this wrapper answered from the shared memo.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that fell through to the inner oracle. Every miss is
    /// exactly one real oracle call, so this doubles as
    /// `oracle.real_calls`.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions this wrapper's inserts caused in the shared memo.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl<O: Oracle> Oracle for SharedMemoOracle<O> {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        let key = self.base.get_or_init(|| FingerprintCache::new(prog)).program_fingerprint(prog);
        if let Some(verdict) = self.memo.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A panicking inner oracle propagates here and nothing is
        // cached: the per-probe `guarded_probe` isolation above us
        // synthesizes the fault, and the next request retries the
        // probe instead of replaying a poisoned verdict.
        let verdict = self.inner.check(prog);
        if self.memo.insert(key, verdict.clone()) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    fn types(
        &self,
        prog: &Program,
        wanted: &[NodeId],
    ) -> Result<HashMap<NodeId, String>, TypeError> {
        self.inner.types(prog, wanted)
    }

    fn constraint_trace(&self, prog: &Program) -> Arc<ConstraintTrace> {
        self.inner.constraint_trace(prog)
    }

    fn incremental_stats(&self) -> Option<seminal_typeck::oracle::IncrementalStats> {
        self.inner.incremental_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;
    use seminal_typeck::{CountingOracle, TypeCheckOracle};

    #[test]
    fn warm_lookup_skips_the_inner_oracle() {
        let memo = Arc::new(CrossRequestMemo::default());
        let prog = parse_program("let x = 1 + true").unwrap();

        let first =
            SharedMemoOracle::new(CountingOracle::new(TypeCheckOracle::new()), memo.clone());
        let cold = first.check(&prog);
        assert_eq!(first.hits(), 0);
        assert_eq!(first.misses(), 1);

        let second =
            SharedMemoOracle::new(CountingOracle::new(TypeCheckOracle::new()), memo.clone());
        let warm = second.check(&prog);
        assert_eq!(second.hits(), 1);
        assert_eq!(second.misses(), 0, "warm verdict must not reach the inner oracle");
        assert_eq!(cold.is_ok(), warm.is_ok());
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.entries(), 1);
    }

    #[test]
    fn verdicts_cache_errors_too() {
        let memo = Arc::new(CrossRequestMemo::default());
        let oracle = SharedMemoOracle::new(TypeCheckOracle::new(), memo.clone());
        let bad = parse_program("let x = 1 + true").unwrap();
        let cold = oracle.check(&bad).unwrap_err();
        let warm = oracle.check(&bad).unwrap_err();
        assert_eq!(cold.message(), warm.message());
        assert_eq!(oracle.hits(), 1);
    }

    #[test]
    fn keys_match_program_fingerprint_for_shared_and_fresh_programs() {
        // The first request's probes key through the base's cached
        // declaration fingerprints; a second request re-parses the same
        // texts (no shared `Arc`s) and must land on the very same keys.
        let memo = Arc::new(CrossRequestMemo::default());
        let src = "let x = 1\nlet y = x + 1\nlet z = y + true";
        let base = parse_program(src).unwrap();
        let mut ids = Vec::new();
        base.decls[2].for_each_expr(&mut |e| ids.push(e.id));
        let probe = seminal_ml::edit::remove_expr(&base, ids[0]);
        let programs = [base.clone(), probe.clone(), base.prefix(2)];

        let first = SharedMemoOracle::new(TypeCheckOracle::new(), memo.clone());
        for p in &programs {
            let _ = first.check(p);
        }
        assert_eq!(first.misses(), 3);
        assert_eq!(memo.entries(), 3);

        let second = SharedMemoOracle::new(TypeCheckOracle::new(), memo.clone());
        let reparsed = parse_program(src).unwrap();
        let _ = second.check(&reparsed);
        let _ =
            second.check(&parse_program(&seminal_ml::pretty::program_to_string(&probe)).unwrap());
        let _ = second.check(&reparsed.prefix(2));
        assert_eq!(second.hits(), 3);
        assert_eq!(second.misses(), 0);
    }

    #[test]
    fn types_and_traces_bypass_the_memo() {
        let memo = Arc::new(CrossRequestMemo::default());
        let prog = parse_program("let x = 1\nlet y = x + true").unwrap();
        let mut ids = Vec::new();
        prog.decls[1].for_each_expr(&mut |e| ids.push(e.id));
        let inner = seminal_typeck::CheckpointedOracle::new();
        let oracle = SharedMemoOracle::new(&inner, memo.clone());
        assert!(oracle.check(&prog).is_err());
        let (hits, misses, entries) = (oracle.hits(), oracle.misses(), memo.entries());

        assert_eq!(oracle.types(&prog, &ids), seminal_typeck::check_program_types(&prog, &ids));
        let trace = oracle.constraint_trace(&prog);
        assert!(Arc::ptr_eq(&trace, &inner.constraint_trace(&prog)));
        assert_eq!((oracle.hits(), oracle.misses(), memo.entries()), (hits, misses, entries));
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
    }

    #[test]
    fn capacity_evicts_fifo() {
        // Capacity 0 rounds up to one verdict per shard, so inserting
        // two programs that land in the same shard must evict the
        // first. Find such a pair by fingerprint shard index.
        let memo = CrossRequestMemo::new(0);
        let keys: Vec<u64> = (0..64u64).collect();
        let shard_of = |k: u64| (fnv1a(&k.to_le_bytes()) as usize) & (SHARDS - 1);
        let a = keys[0];
        let b = *keys[1..].iter().find(|k| shard_of(**k) == shard_of(a)).unwrap();
        assert!(!memo.insert(a, Ok(())));
        assert!(memo.insert(b, Ok(())), "second insert into a full shard must evict");
        assert_eq!(memo.evictions(), 1);
        assert!(memo.get(a).is_none(), "FIFO evicts the oldest key");
        assert!(memo.get(b).is_some());
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let memo = CrossRequestMemo::default();
        let fault = TypeError {
            kind: seminal_typeck::TypeErrorKind::OracleFault,
            span: seminal_ml::span::Span::DUMMY,
        };
        assert!(!memo.insert(7, Ok(())));
        assert!(!memo.insert(7, Err(fault)), "duplicate insert is dropped");
        assert!(memo.get(7).unwrap().is_ok());
        assert_eq!(memo.entries(), 1);
    }
}
