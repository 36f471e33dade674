//! Concurrency stress for the sharded memo and the probe engine,
//! gated behind the `slow-tests` feature:
//!
//! ```text
//! cargo test -p seminal-core --features slow-tests --test memo_stress
//! ```
//!
//! The engine's determinism contract (see `tests/determinism.rs`) rests
//! on three properties of [`VerdictMemo`] under contention, each
//! hammered here by many threads over shared keys:
//!
//! 1. exactly one `Fresh` read per key, globally — the first consume
//!    wins, every later consume is a `Hit`;
//! 2. first-writer-wins inserts — a racing duplicate insert never
//!    changes a stored outcome and never resets a consumed flag;
//! 3. `prefetch` dispatches each distinct variant to the oracle exactly
//!    once, across duplicates within a frontier and across overlapping
//!    frontiers.
//!
//! A fourth covers the daemon's bounded tier: concurrent inserts past
//! the bound keep every shard at its capacity and account every
//! eviction.

#![cfg(feature = "slow-tests")]

use seminal_core::engine::ProbeEngine;
use seminal_core::{MemoLookup, VerdictMemo};
use seminal_ml::ast::Program;
use seminal_ml::parser::parse_program;
use seminal_typeck::{program_fingerprint, CountingOracle, ProbeOutcome, TypeCheckOracle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const THREADS: usize = 8;
const KEYS: usize = 512;
const ROUNDS: usize = 32;

fn outcome(even: bool) -> ProbeOutcome {
    if even {
        ProbeOutcome::Pass
    } else {
        ProbeOutcome::Fail
    }
}

fn key(i: usize) -> u64 {
    program_fingerprint(&parse_program(&format!("let probe{i} = {i}")).unwrap())
}

#[test]
fn concurrent_consumes_yield_exactly_one_fresh_per_key() {
    let memo = VerdictMemo::default();
    let keys: Vec<u64> = (0..KEYS).map(key).collect();
    for (i, &k) in keys.iter().enumerate() {
        memo.insert(k, outcome(i % 2 == 0), 1_000 + i as u64, false);
    }

    let fresh: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            let fresh = &fresh;
            let keys = &keys;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for j in 0..KEYS {
                        // Offset each thread's walk so lock contention
                        // spreads over different shards each pass.
                        let i = (j + t * 61 + round * 17) % KEYS;
                        match memo.consume(keys[i]) {
                            MemoLookup::Fresh { outcome: verdict, latency_ns } => {
                                fresh[i].fetch_add(1, Ordering::Relaxed);
                                assert_eq!(
                                    verdict,
                                    outcome(i % 2 == 0),
                                    "key {i}: verdict corrupted"
                                );
                                assert_eq!(latency_ns, 1_000 + i as u64);
                            }
                            MemoLookup::Hit { outcome: verdict, saved_ns } => {
                                assert_eq!(
                                    verdict,
                                    outcome(i % 2 == 0),
                                    "key {i}: verdict corrupted"
                                );
                                assert_eq!(
                                    saved_ns,
                                    1_000 + i as u64,
                                    "key {i}: saved latency must be the original call's"
                                );
                            }
                            MemoLookup::Miss => panic!("key {i}: inserted entry went missing"),
                        }
                    }
                }
            });
        }
    });

    for (i, count) in fresh.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "key {i}: exactly one consume may be accounted as the real probe"
        );
    }
    assert_eq!(memo.len(), KEYS);
    assert_eq!(memo.unconsumed(), 0, "every entry was consumed");
}

#[test]
fn racing_duplicate_inserts_never_change_a_verdict_or_reset_consumed() {
    let memo = VerdictMemo::default();
    let keys: Vec<u64> = (0..KEYS).map(key).collect();
    let fresh: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let first_verdict: Vec<Mutex<Option<ProbeOutcome>>> =
        (0..KEYS).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            let fresh = &fresh;
            let first_verdict = &first_verdict;
            let keys = &keys;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for j in 0..KEYS {
                        let i = (j + t * 67 + round * 13) % KEYS;
                        // Each thread proposes its own verdict; only the
                        // first writer's may ever be observed.
                        memo.insert(keys[i], outcome(t % 2 == 0), t as u64 + 1, false);
                        let seen = match memo.consume(keys[i]) {
                            MemoLookup::Fresh { outcome, .. } => {
                                fresh[i].fetch_add(1, Ordering::Relaxed);
                                outcome
                            }
                            MemoLookup::Hit { outcome, .. } => outcome,
                            MemoLookup::Miss => {
                                panic!("key {i}: miss after this thread inserted it")
                            }
                        };
                        let mut slot = first_verdict[i].lock().expect("verdict slot poisoned");
                        match *slot {
                            None => *slot = Some(seen),
                            Some(expected) => assert_eq!(
                                seen, expected,
                                "key {i}: a racing duplicate insert changed the verdict"
                            ),
                        }
                    }
                }
            });
        }
    });

    for (i, count) in fresh.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "key {i}: duplicate inserts must not re-arm the Fresh read"
        );
        // After the storm, the entry is consumed for good.
        assert!(
            matches!(memo.consume(keys[i]), MemoLookup::Hit { .. }),
            "key {i}: entry must stay consumed"
        );
    }
    assert_eq!(memo.len(), KEYS);
}

/// Distinct ill-typed variants whose printed text differs per index.
fn variants(base: usize, n: usize) -> Vec<Program> {
    (0..n)
        .map(|i| {
            let k = base + i;
            parse_program(&format!("let v{k} = {k} + \"stress\"\n"))
                .unwrap_or_else(|e| panic!("variant {k}: {e}"))
        })
        .collect()
}

#[test]
fn prefetch_dispatches_each_distinct_variant_to_the_oracle_once() {
    let oracle = CountingOracle::new(TypeCheckOracle::new());
    let engine = ProbeEngine::new(&oracle, THREADS);

    let mut distinct = 0u64;
    for round in 0..4 {
        let fresh = variants(round * 100, 100);
        distinct += fresh.len() as u64;
        // A frontier with every variant tripled, plus the previous
        // round's (already-cached) variants mixed back in.
        let mut frontier: Vec<Program> = Vec::new();
        for _ in 0..3 {
            frontier.extend(fresh.iter().cloned());
        }
        if round > 0 {
            frontier.extend(variants((round - 1) * 100, 100));
        }
        engine.prefetch(&frontier);

        assert_eq!(
            oracle.calls(),
            distinct,
            "round {round}: in-frontier duplicates and cached variants must not re-dispatch"
        );
        assert_eq!(engine.memo().len() as u64, distinct, "round {round}");
        assert_eq!(engine.prefetched(), distinct, "round {round}");
    }
    assert_eq!(engine.batches(), 4);
    assert!(engine.largest_batch() >= 100);

    // Every cached outcome reads back Fresh exactly once, with the
    // ill-typed outcome the oracle actually produced.
    for round in 0..4 {
        for (i, prog) in variants(round * 100, 100).iter().enumerate() {
            match engine.memo().consume(program_fingerprint(prog)) {
                MemoLookup::Fresh { outcome, .. } => {
                    assert_eq!(outcome, ProbeOutcome::Fail, "every stress variant is ill-typed");
                }
                other => panic!("first consume of variant {} was {other:?}", round * 100 + i),
            }
        }
    }
    assert_eq!(engine.memo().unconsumed(), 0);
}

#[test]
fn concurrent_inserts_past_the_bound_keep_every_shard_at_capacity() {
    const CAPACITY: usize = 64;
    let memo = VerdictMemo::bounded(CAPACITY);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            s.spawn(move || {
                for i in 0..KEYS {
                    memo.insert((t * KEYS + i) as u64, outcome(i % 2 == 0), 1, true);
                }
            });
        }
    });
    let inserted = (THREADS * KEYS) as u64;
    assert_eq!(memo.len(), CAPACITY, "16 shards of 4, every one full");
    assert_eq!(memo.evictions(), inserted - CAPACITY as u64, "every eviction is accounted");
}
