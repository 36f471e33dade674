//! The verdict memo: probe outcomes keyed by program fingerprint.
//!
//! [`VerdictMemo`] is the workspace's one cache of oracle answers. It
//! lives for one parallel search, as the probe engine's memo
//! (`crate::engine`: workers insert outcomes unconsumed, the search reads
//! them back [`MemoLookup::Fresh`] once and later repeats as hits), or,
//! bounded by FIFO eviction per shard ([`VerdictMemo::bounded`],
//! `--memo-capacity`), for the serve daemon's lifetime behind
//! [`SharedMemoOracle`]. A sequential search keeps none: it counts every
//! probe as an oracle call, the paper's cost model.
//!
//! Every key is [`program_fingerprint`], a fold over the content keys
//! each declaration got when it was built, so a key costs one FNV step
//! per declaration and prints nothing. That key ignores layout, so an entry holds only what layout cannot
//! change: a [`ProbeOutcome`] and its latency, never a `TypeError` with
//! spans. The baseline, the one verdict whose message and location are
//! shown, always comes from the checker ([`Oracle::check`]); so a warm
//! daemon answers a layout twin exactly like a cold one. Entries are
//! fixed-size, so a bounded memo's capacity bounds its memory too.
//! Injected faults (a search's `ChaosConfig`) never reach a memo: the
//! search's probe guards inject them above it.
//!
//! [`program_fingerprint`]: seminal_typeck::program_fingerprint

use seminal_ml::ast::{NodeId, Program};
use seminal_obs::fnv1a;
use seminal_typeck::{program_fingerprint, ConstraintTrace, Oracle, ProbeOutcome, TypeError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Shard count; a power of two.
const SHARDS: usize = 16;

/// Default capacity (total outcomes across shards) of the daemon's
/// memo when the server is started without `--memo-capacity`.
pub const DEFAULT_CROSS_MEMO_CAPACITY: usize = 1 << 16;

/// One cached probe.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `Faulted` when a search's probe panicked: a deterministic fault
    /// costs one fault, not one per duplicate probe.
    outcome: ProbeOutcome,
    /// Wall-clock of the oracle call that produced the outcome.
    latency_ns: u64,
    /// Whether a search has read this entry. The first read of a
    /// prefetched entry is accounted as the probe (the oracle did run,
    /// on the search's behalf); later reads are memo hits.
    consumed: bool,
}

/// One shard: entries, plus their insertion order when bounded.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    order: VecDeque<u64>,
}

/// What [`VerdictMemo::consume`] found for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoLookup {
    /// A prefetched outcome read for the first time: account it as the
    /// probe the sequential search would have issued here, with the
    /// latency the worker measured.
    Fresh {
        /// The probe's outcome.
        outcome: ProbeOutcome,
        /// Wall-clock of the speculative oracle call.
        latency_ns: u64,
    },
    /// An already-consumed outcome: a true cache hit.
    Hit {
        /// The probe's outcome.
        outcome: ProbeOutcome,
        /// Latency of the original call — the cost the cache saved.
        saved_ns: u64,
    },
    /// Not cached; the caller must query the oracle itself.
    Miss,
}

/// A 16-way sharded map from program fingerprints to probe outcomes,
/// unbounded by default (one search's lifetime).
///
/// The shards are `Mutex<HashMap>`s rather than a lock-free map: the
/// workspace is dependency-free by policy, a probe costs micro- to
/// milliseconds while a shard critical section costs tens of
/// nanoseconds, and FNV-spread keys make contention negligible. Inserts
/// are first-writer-wins, so a racing duplicate never changes a stored
/// outcome or resets a consumed flag. The hit, miss and eviction
/// counters are totals over the memo's lifetime.
#[derive(Debug, Default)]
pub struct VerdictMemo {
    shards: [Mutex<Shard>; SHARDS],
    /// FIFO bound per shard; `None` is unbounded.
    per_shard_capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl VerdictMemo {
    /// A memo bounded to roughly `capacity` outcomes by FIFO eviction
    /// per shard: the daemon's process-lifetime tier. The capacity is
    /// rounded up to a multiple of the shard count, and a zero capacity
    /// still holds one outcome per shard ("tiny cache", never "divide by
    /// zero").
    #[must_use]
    pub fn bounded(capacity: usize) -> VerdictMemo {
        VerdictMemo {
            per_shard_capacity: Some(capacity.div_ceil(SHARDS).max(1)),
            ..VerdictMemo::default()
        }
    }

    fn lock(&self, key: u64) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[(fnv1a(&key.to_le_bytes()) as usize) & (SHARDS - 1)];
        shard.lock().expect("verdict memo shard poisoned")
    }

    /// Whether `key` is cached, consumed or not. Counts nothing.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.lock(key).entries.contains_key(&key)
    }

    /// Reads the outcome for `key`, marking it consumed, and bumps the
    /// hit or miss counter.
    pub fn consume(&self, key: u64) -> MemoLookup {
        let lookup = match self.lock(key).entries.get_mut(&key) {
            Some(e) if !e.consumed => {
                e.consumed = true;
                MemoLookup::Fresh { outcome: e.outcome, latency_ns: e.latency_ns }
            }
            Some(e) => MemoLookup::Hit { outcome: e.outcome, saved_ns: e.latency_ns },
            None => MemoLookup::Miss,
        };
        let counter = if lookup == MemoLookup::Miss { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        lookup
    }

    /// Caches an outcome. The first writer wins: a duplicate insert is
    /// dropped. Returns `true` when a bounded memo evicted an older
    /// outcome to make room.
    pub fn insert(&self, key: u64, outcome: ProbeOutcome, latency_ns: u64, consumed: bool) -> bool {
        let mut shard = self.lock(key);
        if shard.entries.contains_key(&key) {
            return false;
        }
        let mut evicted = false;
        if let Some(capacity) = self.per_shard_capacity {
            while shard.order.len() >= capacity {
                if let Some(old) = shard.order.pop_front() {
                    shard.entries.remove(&old);
                    evicted = true;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            shard.order.push_back(key);
        }
        shard.entries.insert(key, Entry { outcome, latency_ns, consumed });
        evicted
    }

    /// Outcomes cached right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("verdict memo shard poisoned").entries.len())
            .sum()
    }

    /// Whether the memo holds no outcomes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Outcomes inserted but never consumed — the probe engine's
    /// speculative waste, reported as `engine.speculative_waste`.
    #[must_use]
    pub fn unconsumed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("verdict memo shard poisoned");
                shard.entries.values().filter(|e| !e.consumed).count() as u64
            })
            .sum()
    }

    /// Lookups that found an outcome.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Outcomes evicted to stay under the bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Per-request oracle adapter over the daemon's shared [`VerdictMemo`].
///
/// Only probes ([`Oracle::passes`]) go through the memo: a probe looks
/// its key up and, on a miss, asks the inner oracle and caches the
/// outcome. [`Oracle::check`] (the baseline), typing and traces pass
/// straight through, uncached and uncounted, so a baseline's message and
/// location are always the request's own. A panicking inner oracle
/// propagates uncached. Injected faults never reach the wrapper: the
/// search's guards inject them above it, so what it caches is always
/// the inner oracle's real outcome, and a chaos request shares the memo
/// with clean ones.
///
/// The wrapper stays an [`Oracle`] on purpose: the search counts a probe
/// the memo answered as an oracle call, so a served answer reports the
/// same `oracle_calls` as a one-shot run. Its counters are per-request,
/// so `dispatch` can stamp `memo.cross_request_hits`/`_misses` and
/// `oracle.real_calls` into each response while the memo keeps the
/// process totals.
pub struct SharedMemoOracle<O> {
    inner: O,
    memo: Arc<VerdictMemo>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<O: Oracle> SharedMemoOracle<O> {
    /// Wraps `inner` over the shared `memo`.
    pub fn new(inner: O, memo: Arc<VerdictMemo>) -> SharedMemoOracle<O> {
        SharedMemoOracle {
            inner,
            memo,
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

    /// Probes the memo could not answer. Each is exactly one inner
    /// oracle call, so this is `oracle.real_calls`.
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
        self.inner.check(prog)
    }

    fn passes(&self, prog: &Program) -> bool {
        let key = program_fingerprint(prog);
        if let MemoLookup::Fresh { outcome, .. } | MemoLookup::Hit { outcome, .. } =
            self.memo.consume(key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outcome.passed();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A panic unwinds from here before anything is cached; the
        // search's per-probe guard turns it into a fault.
        let clock = Instant::now();
        let passed = self.inner.passes(prog);
        let latency_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let outcome = if passed { ProbeOutcome::Pass } else { ProbeOutcome::Fail };
        if self.memo.insert(key, outcome, latency_ns, true) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        passed
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
    fn consume_distinguishes_fresh_from_hit() {
        let memo = VerdictMemo::default();
        assert_eq!(memo.consume(7), MemoLookup::Miss);
        assert!(!memo.insert(7, ProbeOutcome::Pass, 120, false));
        assert_eq!(
            memo.consume(7),
            MemoLookup::Fresh { outcome: ProbeOutcome::Pass, latency_ns: 120 }
        );
        assert_eq!(memo.consume(7), MemoLookup::Hit { outcome: ProbeOutcome::Pass, saved_ns: 120 });
        // First writer wins: a racing duplicate cannot flip the outcome
        // or reset the consumed flag.
        memo.insert(7, ProbeOutcome::Fail, 3, false);
        assert_eq!(memo.consume(7), MemoLookup::Hit { outcome: ProbeOutcome::Pass, saved_ns: 120 });
        assert_eq!((memo.len(), memo.unconsumed()), (1, 0));
        assert_eq!((memo.hits(), memo.misses(), memo.evictions()), (3, 1, 0));
    }

    #[test]
    fn bounded_memo_evicts_fifo_per_shard() {
        // Capacity 0 rounds up to one outcome per shard, so inserting
        // two keys that land in the same shard must evict the first.
        let memo = VerdictMemo::bounded(0);
        let shard_of = |k: u64| (fnv1a(&k.to_le_bytes()) as usize) & (SHARDS - 1);
        let b = (1..64u64).find(|k| shard_of(*k) == shard_of(0)).unwrap();
        assert!(!memo.insert(0, ProbeOutcome::Pass, 1, true));
        assert!(memo.insert(b, ProbeOutcome::Pass, 1, true), "a full shard must evict");
        assert_eq!(memo.evictions(), 1);
        assert_eq!(memo.consume(0), MemoLookup::Miss, "FIFO evicts the oldest key");
        assert!(memo.contains(b));

        let unbounded = VerdictMemo::default();
        assert!((0..64u64).all(|k| !unbounded.insert(k, ProbeOutcome::Fail, 1, true)));
        assert_eq!((unbounded.len(), unbounded.evictions()), (64, 0));
    }

    #[test]
    fn warm_probe_skips_the_inner_oracle() {
        let memo = Arc::new(VerdictMemo::bounded(DEFAULT_CROSS_MEMO_CAPACITY));
        let prog = parse_program("let x = 1 + true").unwrap();

        let counting = CountingOracle::new(TypeCheckOracle::new());
        let first = SharedMemoOracle::new(&counting, memo.clone());
        assert!(!first.passes(&prog));
        assert_eq!((first.hits(), first.misses(), counting.calls()), (0, 1, 1));

        let second = SharedMemoOracle::new(&counting, memo.clone());
        assert!(!second.passes(&prog));
        assert_eq!((second.hits(), second.misses()), (1, 0));
        assert_eq!(counting.calls(), 1, "a warm probe must not reach the inner oracle");
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (1, 1, 1));
    }

    #[test]
    fn the_baseline_check_is_never_cached() {
        // Layout twins share every key, and their errors sit at
        // different places: each must get its own.
        let memo = Arc::new(VerdictMemo::bounded(DEFAULT_CROSS_MEMO_CAPACITY));
        let a = parse_program("let x = 1 + true").unwrap();
        let b = parse_program("(* twin *)\nlet x = 1 + true").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        let first = SharedMemoOracle::new(TypeCheckOracle::new(), memo.clone());
        assert!(!first.passes(&a));
        assert_eq!(first.check(&a), seminal_typeck::check_program(&a));

        let second = SharedMemoOracle::new(TypeCheckOracle::new(), memo.clone());
        assert!(!second.passes(&b), "the twin's probe is warm");
        assert_eq!(second.check(&b), seminal_typeck::check_program(&b));
        assert_ne!(second.check(&b), first.check(&a), "each baseline keeps its own span");
        assert_eq!((second.hits(), second.misses()), (1, 0), "checks count nowhere");
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (1, 1, 1));
    }

    #[test]
    fn keys_match_program_fingerprint_for_shared_and_fresh_programs() {
        // The first request's probes key through declarations shared
        // with the base and one an edit rebuilt; a second request
        // re-parses the same texts (no shared `Arc`s) and must land on
        // the very same keys.
        let memo = Arc::new(VerdictMemo::bounded(DEFAULT_CROSS_MEMO_CAPACITY));
        let src = "let x = 1\nlet y = x + 1\nlet z = y + true";
        let base = parse_program(src).unwrap();
        let mut ids = Vec::new();
        base.decls[2].for_each_expr(&mut |e| ids.push(e.id));
        let probe = seminal_ml::edit::remove_expr(&base, ids[0]);

        let first = SharedMemoOracle::new(TypeCheckOracle::new(), memo.clone());
        for p in [&base, &probe, &base.prefix(2)] {
            first.passes(p);
        }
        assert_eq!((first.misses(), memo.len()), (3, 3));

        let reparsed = parse_program(src).unwrap();
        let second = SharedMemoOracle::new(TypeCheckOracle::new(), memo.clone());
        second.passes(&reparsed);
        second.passes(&parse_program("let x = 1\nlet y = x + 1\nlet z = [[...]]").unwrap());
        second.passes(&reparsed.prefix(2));
        assert_eq!((second.hits(), second.misses()), (3, 0));
    }

    #[test]
    fn types_and_traces_bypass_the_memo() {
        let memo = Arc::new(VerdictMemo::bounded(DEFAULT_CROSS_MEMO_CAPACITY));
        let prog = parse_program("let x = 1\nlet y = x + true").unwrap();
        let mut ids = Vec::new();
        prog.decls[1].for_each_expr(&mut |e| ids.push(e.id));
        let inner = seminal_typeck::CheckpointedOracle::new();
        let oracle = SharedMemoOracle::new(&inner, memo.clone());
        assert!(oracle.check(&prog).is_err());

        assert_eq!(oracle.types(&prog, &ids), seminal_typeck::check_program_types(&prog, &ids));
        let trace = oracle.constraint_trace(&prog);
        assert!(Arc::ptr_eq(&trace, &inner.constraint_trace(&prog)));
        assert_eq!((oracle.hits(), oracle.misses(), memo.len()), (0, 0, 0));
        assert_eq!((memo.hits(), memo.misses()), (0, 0));
    }
}
