//! Run bounds for one search: the oracle-call cap, a wall-clock
//! deadline, and a cooperative cancellation token, unified behind
//! [`Budget`].
//!
//! The paper bounds search cost in oracle calls (§3); at production
//! scale a call cap alone is not deployable — a single pathological
//! probe can stall a batch run indefinitely. A [`Budget`] is started
//! when a search begins and is consulted by the sequential loop before
//! every probe and by the probe engine's workers before every chunk, so
//! both the search and its speculative prefetch stop promptly. Stopping
//! is always *cooperative*: no thread is killed, scoped workers drain
//! and join, and the report carries best-so-far suggestions with an
//! honest [`Completion`].

use seminal_obs::Completion;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a search stopped before finishing its planned enumeration.
/// Ordered weakest to strongest; when several bounds trip at once the
/// strongest one observed is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StopReason {
    /// The oracle-call cap (`max_oracle_calls`) was reached.
    BudgetExhausted,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The caller cancelled through a [`SearchHandle`].
    Cancelled,
}

impl StopReason {
    /// The completion status this stop maps to.
    pub fn completion(self) -> Completion {
        match self {
            StopReason::BudgetExhausted => Completion::BudgetExhausted,
            StopReason::DeadlineExpired => Completion::DeadlineExpired,
            StopReason::Cancelled => Completion::Cancelled,
        }
    }
}

/// The run bounds of one search, clock already started.
///
/// Cloning shares the cancellation flag (it is the same logical budget);
/// the engine holds a clone so its workers can poll the same bounds the
/// sequential loop checks.
#[derive(Debug, Clone)]
pub struct Budget {
    max_oracle_calls: u64,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
}

impl Budget {
    /// Starts the clock: a deadline of `limit` from now, the given call
    /// cap, and `cancel` as the shared cancellation flag.
    pub fn start(
        max_oracle_calls: u64,
        limit: Option<Duration>,
        cancel: Arc<AtomicBool>,
    ) -> Budget {
        Budget {
            max_oracle_calls,
            // An unrepresentable deadline (absurdly large limit) means
            // unbounded, same as no limit.
            deadline: limit.and_then(|d| Instant::now().checked_add(d)),
            cancel,
        }
    }

    /// Whether the caller has cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Whether the wall-clock deadline has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Cancel or deadline — the bounds the engine's workers poll between
    /// chunks (the call cap is accounted by the sequential consumer, so
    /// workers never check it).
    pub fn interrupted(&self) -> bool {
        self.cancelled() || self.deadline_expired()
    }

    /// The strongest bound in force after `calls` oracle calls, if any.
    pub fn stop_reason(&self, calls: u64) -> Option<StopReason> {
        if self.cancelled() {
            Some(StopReason::Cancelled)
        } else if self.deadline_expired() {
            Some(StopReason::DeadlineExpired)
        } else if calls >= self.max_oracle_calls {
            Some(StopReason::BudgetExhausted)
        } else {
            None
        }
    }
}

/// Cooperative cancellation for searches run through a
/// [`SearchSession`](crate::SearchSession).
///
/// Obtained from [`SearchSession::handle`](crate::SearchSession::handle)
/// and safe to clone into another thread; [`SearchHandle::cancel`] makes
/// every in-flight and future search of that session stop at its next
/// probe boundary and report `Completion::Cancelled`. Cancellation is
/// sticky — a cancelled session stays cancelled (build a new session to
/// search again).
#[derive(Debug, Clone, Default)]
pub struct SearchHandle {
    cancel: Arc<AtomicBool>,
}

impl SearchHandle {
    /// A fresh, uncancelled handle.
    pub fn new() -> SearchHandle {
        SearchHandle::default()
    }

    /// Requests cancellation; returns immediately (the search stops at
    /// its next probe boundary, it is never killed mid-probe).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The shared flag a [`Budget`] polls.
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_cap_trips_at_the_boundary() {
        let budget = Budget::start(10, None, Arc::default());
        assert_eq!(budget.stop_reason(9), None);
        assert_eq!(budget.stop_reason(10), Some(StopReason::BudgetExhausted));
        assert!(!budget.interrupted(), "the call cap is not a worker interrupt");
    }

    #[test]
    fn deadline_trips_after_it_passes() {
        let budget = Budget::start(u64::MAX, Some(Duration::from_millis(5)), Arc::default());
        assert_eq!(budget.stop_reason(0), None);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(budget.stop_reason(0), Some(StopReason::DeadlineExpired));
        assert!(budget.interrupted());
    }

    #[test]
    fn cancellation_is_sticky_and_strongest() {
        let handle = SearchHandle::new();
        let budget = Budget::start(0, Some(Duration::ZERO), handle.flag());
        // Budget and deadline are both tripped, but cancel wins.
        assert_eq!(budget.stop_reason(100), Some(StopReason::DeadlineExpired));
        handle.cancel();
        assert!(handle.is_cancelled());
        assert_eq!(budget.stop_reason(100), Some(StopReason::Cancelled));
        // A clone shares the same flag.
        assert!(budget.clone().cancelled());
    }

    #[test]
    fn stop_reasons_map_to_completions() {
        use seminal_obs::Completion;
        assert_eq!(StopReason::BudgetExhausted.completion(), Completion::BudgetExhausted);
        assert_eq!(StopReason::DeadlineExpired.completion(), Completion::DeadlineExpired);
        assert_eq!(StopReason::Cancelled.completion(), Completion::Cancelled);
        assert!(StopReason::Cancelled > StopReason::DeadlineExpired);
    }
}
