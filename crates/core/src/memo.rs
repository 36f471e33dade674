//! The verdict memo: probe outcomes keyed by program fingerprint.
//!
//! [`VerdictMemo`] is the workspace's one cache of oracle answers: the
//! serve daemon's, bounded by FIFO eviction per shard
//! ([`VerdictMemo::bounded`], `--memo-capacity`) and shared by every
//! request behind [`SharedMemoOracle`]. A search keeps none of its own:
//! it counts every probe as an oracle call, the paper's cost model.
//!
//! Every key is [`program_fingerprint`], a fold over the content keys
//! each declaration got when it was built, so a key costs one FNV step
//! per declaration and prints nothing. That key ignores layout, so an
//! entry holds only what layout cannot change: a [`ProbeOutcome`], never
//! a `TypeError` with spans. The baseline, the one verdict whose message
//! and location are shown, always comes from the checker
//! ([`Oracle::check`]); so a warm daemon answers a layout twin exactly
//! like a cold one. Entries are fixed-size, so the capacity bounds the
//! memo's memory too. Injected faults (a search's `ChaosConfig`) never
//! reach the memo: the search's probe guards inject them above it.
//!
//! [`program_fingerprint`]: seminal_typeck::program_fingerprint

use seminal_ml::ast::{NodeId, Program};
use seminal_obs::fnv1a;
use seminal_typeck::{program_fingerprint, ConstraintTrace, Oracle, ProbeOutcome, TypeError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shard count; a power of two.
const SHARDS: usize = 16;

/// Default capacity (total outcomes across shards) of the daemon's
/// memo when the server is started without `--memo-capacity`.
pub const DEFAULT_CROSS_MEMO_CAPACITY: usize = 1 << 16;

/// One shard: outcomes, plus their insertion order for eviction.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u64, ProbeOutcome>,
    order: VecDeque<u64>,
}

/// A 16-way sharded map from program fingerprints to probe outcomes,
/// bounded by FIFO eviction per shard.
///
/// The shards are `Mutex<HashMap>`s rather than a lock-free map: the
/// workspace is dependency-free by policy, a probe costs micro- to
/// milliseconds while a shard critical section costs tens of
/// nanoseconds, and FNV-spread keys make contention between the
/// daemon's connections negligible. Inserts are first-writer-wins, so a
/// racing duplicate never changes a stored outcome. The hit, miss and
/// eviction counters are totals over the memo's lifetime.
#[derive(Debug)]
pub struct VerdictMemo {
    shards: [Mutex<Shard>; SHARDS],
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl VerdictMemo {
    /// A memo bounded to roughly `capacity` outcomes by FIFO eviction
    /// per shard. The capacity is rounded up to a multiple of the shard
    /// count, and a zero capacity still holds one outcome per shard
    /// ("tiny cache", never "divide by zero").
    #[must_use]
    pub fn bounded(capacity: usize) -> VerdictMemo {
        VerdictMemo {
            shards: Default::default(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self, key: u64) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[(fnv1a(&key.to_le_bytes()) as usize) & (SHARDS - 1)];
        shard.lock().expect("verdict memo shard poisoned")
    }

    /// The outcome cached for `key`, if any; bumps the hit or miss
    /// counter.
    pub fn get(&self, key: u64) -> Option<ProbeOutcome> {
        let outcome = self.lock(key).entries.get(&key).copied();
        let counter = if outcome.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Caches an outcome. The first writer wins: a duplicate insert is
    /// dropped. Returns `true` when an older outcome was evicted to
    /// make room.
    pub fn insert(&self, key: u64, outcome: ProbeOutcome) -> bool {
        let mut shard = self.lock(key);
        if shard.entries.contains_key(&key) {
            return false;
        }
        let mut evicted = false;
        while shard.order.len() >= self.per_shard_capacity {
            if let Some(old) = shard.order.pop_front() {
                shard.entries.remove(&old);
                evicted = true;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.order.push_back(key);
        shard.entries.insert(key, outcome);
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
        if let Some(outcome) = self.memo.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outcome.passed();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A panic unwinds from here before anything is cached; the
        // search's per-probe guard turns it into a fault.
        let passed = self.inner.passes(prog);
        let outcome = if passed { ProbeOutcome::Pass } else { ProbeOutcome::Fail };
        if self.memo.insert(key, outcome) {
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
    fn get_returns_the_first_writers_outcome() {
        let memo = VerdictMemo::bounded(DEFAULT_CROSS_MEMO_CAPACITY);
        assert_eq!(memo.get(7), None);
        assert!(!memo.insert(7, ProbeOutcome::Pass));
        assert_eq!(memo.get(7), Some(ProbeOutcome::Pass));
        // First writer wins: a racing duplicate cannot flip the outcome.
        assert!(!memo.insert(7, ProbeOutcome::Fail));
        assert_eq!(memo.get(7), Some(ProbeOutcome::Pass));
        assert_eq!(memo.len(), 1);
        assert_eq!((memo.hits(), memo.misses(), memo.evictions()), (2, 1, 0));
    }

    #[test]
    fn bounded_memo_evicts_fifo_per_shard() {
        // Capacity 0 rounds up to one outcome per shard, so inserting
        // two keys that land in the same shard must evict the first.
        let memo = VerdictMemo::bounded(0);
        let shard_of = |k: u64| (fnv1a(&k.to_le_bytes()) as usize) & (SHARDS - 1);
        let b = (1..64u64).find(|k| shard_of(*k) == shard_of(0)).unwrap();
        assert!(!memo.insert(0, ProbeOutcome::Pass));
        assert!(memo.insert(b, ProbeOutcome::Pass), "a full shard must evict");
        assert_eq!(memo.evictions(), 1);
        assert_eq!(memo.get(0), None, "FIFO evicts the oldest key");
        assert_eq!(memo.get(b), Some(ProbeOutcome::Pass));
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
