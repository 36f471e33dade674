//! Concurrency stress for the daemon's sharded verdict memo, gated
//! behind the `slow-tests` feature:
//!
//! ```text
//! cargo test -p seminal-core --features slow-tests --test memo_stress
//! ```
//!
//! The serve daemon's connections share one [`VerdictMemo`]; two of its
//! properties are hammered here by many threads over shared keys:
//!
//! 1. first-writer-wins inserts — a racing duplicate insert never
//!    changes a stored outcome;
//! 2. concurrent inserts past the bound keep every shard at its
//!    capacity and account every eviction.

#![cfg(feature = "slow-tests")]

use seminal_core::VerdictMemo;
use seminal_ml::parser::parse_program;
use seminal_typeck::{program_fingerprint, ProbeOutcome};
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
fn racing_duplicate_inserts_never_change_a_verdict() {
    let memo = VerdictMemo::bounded(THREADS * KEYS);
    let keys: Vec<u64> = (0..KEYS).map(key).collect();
    let first_verdict: Vec<Mutex<Option<ProbeOutcome>>> =
        (0..KEYS).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let memo = &memo;
            let first_verdict = &first_verdict;
            let keys = &keys;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for j in 0..KEYS {
                        let i = (j + t * 67 + round * 13) % KEYS;
                        // Each thread proposes its own verdict; only the
                        // first writer's may ever be observed.
                        memo.insert(keys[i], outcome(t % 2 == 0));
                        let seen = memo.get(keys[i]).unwrap_or_else(|| {
                            panic!("key {i}: miss after this thread inserted it")
                        });
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
    assert_eq!(memo.len(), KEYS);
    assert_eq!(memo.evictions(), 0, "the bound was never reached");
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
                    memo.insert((t * KEYS + i) as u64, outcome(i % 2 == 0));
                }
            });
        }
    });
    let inserted = (THREADS * KEYS) as u64;
    assert_eq!(memo.len(), CAPACITY, "16 shards of 4, every one full");
    assert_eq!(memo.evictions(), inserted - CAPACITY as u64, "every eviction is accounted");
}
