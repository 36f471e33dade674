//! Bounded admission control for the serve daemon.
//!
//! [`Admission`] is a counting gate in front of the search dispatcher:
//! at most `max_inflight` work requests (check/analyze) run at once,
//! and a request that would outlive its own `deadline_ms` waiting for a
//! slot is **shed immediately** with a typed `overloaded` response
//! instead of queuing doomed work. The shed decision uses an EWMA of
//! recent service times to estimate how long the queue in front of a
//! request is, so under saturation the server degrades into fast,
//! honest rejections (with a `retry_after_ms` hint) rather than
//! unbounded queue growth and timeout storms.
//!
//! The gate is deliberately not a thread pool: connection threads block
//! *inside* [`Admission::admit`] on a condvar, which keeps the
//! dispatcher single-purposed and makes the wait observable (the
//! returned [`Permit`] carries the measured queue wait, which dispatch
//! charges against the search deadline via `admission_lag` and records
//! under `server.queue_depth_ns`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Upper bound on the `retry_after_ms` hint so a momentary spike never
/// tells clients to go away for minutes.
const MAX_RETRY_AFTER_MS: u64 = 10_000;

/// Floor for the hint: zero would invite an immediate hammering retry.
const MIN_RETRY_AFTER_MS: u64 = 25;

/// How long a request without a deadline is willing to queue before it
/// is shed anyway. Unbounded patience would recreate the unbounded
/// queue this module exists to prevent.
pub const DEFAULT_MAX_QUEUE_WAIT_MS: u64 = 2_000;

/// Default concurrent work-request cap (`--max-inflight`).
pub const DEFAULT_MAX_INFLIGHT: usize = 8;

/// Tuning knobs for [`Admission`].
#[derive(Debug, Clone, Copy)]
pub struct OverloadPolicy {
    /// Concurrent work requests allowed past the gate (validated `>= 1`
    /// by [`Admission::new`], which clamps zero up).
    pub max_inflight: usize,
    /// Queue patience for requests that carry no `deadline_ms`.
    pub max_queue_wait: Duration,
    /// Prior estimate of one request's service time, used for shed
    /// decisions before the first request completes. Zero means "assume
    /// instant" (never shed on estimate alone until measured).
    pub expected_service_ns: u64,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        OverloadPolicy {
            max_inflight: DEFAULT_MAX_INFLIGHT,
            max_queue_wait: Duration::from_millis(DEFAULT_MAX_QUEUE_WAIT_MS),
            expected_service_ns: 0,
        }
    }
}

#[derive(Debug)]
struct Gate {
    inflight: usize,
    /// Threads currently blocked in `admit` — part of the queue-length
    /// estimate a newcomer sees.
    waiters: usize,
    /// EWMA of observed service times (ns); `0` until the first
    /// completion when the policy carries no prior.
    ewma_service_ns: u64,
}

/// The admission gate. One per [`ServerState`](crate::ServerState);
/// shared by every connection thread.
#[derive(Debug)]
pub struct Admission {
    policy: OverloadPolicy,
    gate: Mutex<Gate>,
    freed: Condvar,
    shed: AtomicU64,
}

impl Admission {
    /// A gate enforcing `policy` (`max_inflight` is clamped to at least
    /// 1 so the gate can never deadlock every request out).
    #[must_use]
    pub fn new(mut policy: OverloadPolicy) -> Admission {
        policy.max_inflight = policy.max_inflight.max(1);
        Admission {
            gate: Mutex::new(Gate {
                inflight: 0,
                waiters: 0,
                ewma_service_ns: policy.expected_service_ns,
            }),
            freed: Condvar::new(),
            shed: AtomicU64::new(0),
            policy,
        }
    }

    /// Admits one work request, blocking while the gate is full.
    ///
    /// `deadline_ms` is the request's own end-to-end budget: if the
    /// estimated queue wait already exceeds it the request is shed
    /// without waiting, and a queued request is shed the moment its
    /// budget runs out. Requests without a deadline queue up to the
    /// policy's `max_queue_wait`.
    ///
    /// # Errors
    ///
    /// `Err(retry_after_ms)` when the request is shed; the value is the
    /// server's estimate of when a slot will be free.
    pub fn admit(&self, deadline_ms: Option<u64>) -> Result<Permit<'_>, u64> {
        let entered = Instant::now();
        let budget = deadline_ms
            .map_or(self.policy.max_queue_wait, Duration::from_millis)
            .min(self.policy.max_queue_wait.max(Duration::from_millis(MAX_RETRY_AFTER_MS)));
        let mut gate = self.gate.lock().expect("admission gate poisoned");
        loop {
            if gate.inflight < self.policy.max_inflight {
                gate.inflight += 1;
                return Ok(Permit {
                    admission: self,
                    queued: entered.elapsed(),
                    granted: Instant::now(),
                });
            }
            let remaining = budget.saturating_sub(entered.elapsed());
            if remaining.is_zero() || estimated_wait(&gate, self.policy.max_inflight) > remaining {
                // Shed immediately: waiting would only burn the
                // client's deadline on a queue it cannot clear.
                return Err(self.reject(gate));
            }
            gate.waiters += 1;
            let (next, _timed_out) =
                self.freed.wait_timeout(gate, remaining).expect("admission gate poisoned");
            gate = next;
            gate.waiters -= 1;
            if entered.elapsed() >= budget {
                // Woke past its budget, perhaps to a free slot: the
                // client has given up, so shed it and hand the wakeup
                // to a waiter that has not.
                let free = gate.inflight < self.policy.max_inflight;
                let retry = self.reject(gate);
                if free {
                    self.freed.notify_one();
                }
                return Err(retry);
            }
        }
    }

    /// Sheds the request holding `gate`; the hint is the queue wait a
    /// newcomer would face.
    fn reject(&self, gate: MutexGuard<'_, Gate>) -> u64 {
        let estimate = estimated_wait(&gate, self.policy.max_inflight);
        drop(gate);
        self.shed.fetch_add(1, Ordering::Relaxed);
        clamp_retry_ms(estimate)
    }

    /// Work requests shed so far (`server.shed`).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Records a shed that happened outside the gate (e.g. a connection
    /// refused at accept because `--max-connections` was reached), so
    /// `server.shed` counts every overload rejection the server issued.
    pub fn note_external_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Work requests currently past the gate (`server.inflight`).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.gate.lock().expect("admission gate poisoned").inflight
    }

    /// The current estimate of how long a new arrival would queue — the
    /// `retry_after_ms` hint for rejections issued outside the gate.
    #[must_use]
    pub fn retry_hint_ms(&self) -> u64 {
        let gate = self.gate.lock().expect("admission gate poisoned");
        clamp_retry_ms(estimated_wait(&gate, self.policy.max_inflight))
    }

    fn release(&self, served_for: Duration) {
        let mut gate = self.gate.lock().expect("admission gate poisoned");
        gate.inflight = gate.inflight.saturating_sub(1);
        let sample = u64::try_from(served_for.as_nanos()).unwrap_or(u64::MAX);
        // Quarter-weight EWMA: responsive to load shifts, immune to one
        // outlier request rewriting the whole estimate.
        gate.ewma_service_ns = if gate.ewma_service_ns == 0 {
            sample
        } else {
            (gate.ewma_service_ns / 4).saturating_mul(3).saturating_add(sample / 4)
        };
        drop(gate);
        self.freed.notify_one();
    }
}

/// Expected queue wait for a newcomer: everyone ahead of it (inflight
/// plus already-blocked waiters, minus the slots that will free) costs
/// one EWMA service time per `max_inflight` departures.
fn estimated_wait(gate: &Gate, max_inflight: usize) -> Duration {
    let ahead = (gate.inflight + gate.waiters).saturating_sub(max_inflight) + 1;
    let rounds = ahead.div_ceil(max_inflight) as u64;
    Duration::from_nanos(gate.ewma_service_ns.saturating_mul(rounds))
}

fn clamp_retry_ms(estimate: Duration) -> u64 {
    u64::try_from(estimate.as_millis())
        .unwrap_or(MAX_RETRY_AFTER_MS)
        .clamp(MIN_RETRY_AFTER_MS, MAX_RETRY_AFTER_MS)
}

/// An admitted request's slot. Dropping it releases the slot, feeds the
/// observed service time (time since grant) into the EWMA, and wakes
/// one queued waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
    queued: Duration,
    granted: Instant,
}

impl Permit<'_> {
    /// How long this request waited in the admission queue.
    #[must_use]
    pub fn queued(&self) -> Duration {
        self.queued
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.release(self.granted.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn policy(max_inflight: usize, wait_ms: u64, prior_ns: u64) -> OverloadPolicy {
        OverloadPolicy {
            max_inflight,
            max_queue_wait: Duration::from_millis(wait_ms),
            expected_service_ns: prior_ns,
        }
    }

    #[test]
    fn free_gate_admits_without_queueing() {
        let gate = Admission::new(policy(2, 1_000, 0));
        let a = gate.admit(None).expect("free gate must admit");
        let b = gate.admit(Some(5)).expect("second slot must admit");
        assert_eq!(gate.inflight(), 2);
        assert!(a.queued() < Duration::from_millis(50));
        drop((a, b));
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.shed(), 0);
    }

    #[test]
    fn doomed_deadline_is_shed_immediately() {
        // Service estimate of 1s, one slot held: a 10ms-deadline
        // arrival cannot possibly be served in time and must be
        // rejected without queuing.
        let gate = Admission::new(policy(1, 5_000, 1_000_000_000));
        let held = gate.admit(None).expect("first admit");
        let entered = Instant::now();
        let retry = gate.admit(Some(10)).expect_err("doomed request must shed");
        assert!(entered.elapsed() < Duration::from_millis(250), "shed must not queue");
        assert!((MIN_RETRY_AFTER_MS..=MAX_RETRY_AFTER_MS).contains(&retry));
        assert_eq!(gate.shed(), 1);
        drop(held);
    }

    #[test]
    fn queued_request_sheds_when_its_budget_runs_out() {
        // No service estimate (prior 0) so the arrival queues on the
        // condvar, then sheds when its own deadline elapses.
        let gate = Admission::new(policy(1, 5_000, 0));
        let held = gate.admit(None).expect("first admit");
        let entered = Instant::now();
        let _retry = gate.admit(Some(50)).expect_err("budget-expired request must shed");
        let waited = entered.elapsed();
        assert!(waited >= Duration::from_millis(45), "must wait its budget: {waited:?}");
        assert!(waited < Duration::from_secs(2), "must not overstay: {waited:?}");
        drop(held);
    }

    #[test]
    fn waiter_woken_late_to_a_free_slot_is_shed() {
        // The waiter's deadline passes while this test holds the gate's
        // lock; the slot frees before the lock is released, so the
        // waiter wakes late to a free slot and must still be shed.
        let gate = Admission::new(policy(1, 5_000, 0));
        std::mem::forget(gate.admit(None).expect("first admit"));
        thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.admit(Some(20)).map(|permit| permit.queued()));
            let mut locked = gate.gate.lock().unwrap();
            while locked.waiters == 0 {
                drop(locked);
                thread::yield_now();
                locked = gate.gate.lock().unwrap();
            }
            thread::sleep(Duration::from_millis(60));
            locked.inflight = 0;
            drop(locked);
            gate.freed.notify_one();
            let outcome = waiter.join().expect("no panic");
            assert!(outcome.is_err(), "a waiter past its deadline was admitted: {outcome:?}");
        });
        assert_eq!(gate.shed(), 1);
        assert_eq!(gate.inflight(), 0, "the freed slot stays free");
    }

    #[test]
    fn freed_slot_admits_a_waiter_and_reports_queue_wait() {
        let gate = Admission::new(policy(1, 5_000, 0));
        let held = gate.admit(None).expect("first admit");
        thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.admit(Some(2_000)));
            thread::sleep(Duration::from_millis(30));
            drop(held);
            let permit = waiter.join().expect("no panic").expect("waiter must admit");
            assert!(permit.queued() >= Duration::from_millis(20));
        });
        assert_eq!(gate.shed(), 0);
    }
}
