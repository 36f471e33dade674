//! The oracle interface between the type-checker and the search system.
//!
//! This is the architectural boundary of the paper (Figure 1): the
//! changer "simply uses the existing type-checker as an oracle to see if
//! a change type-checks". `seminal-core` depends only on this trait —
//! never on inference internals — which is what keeps the approach free
//! of type-checker modifications.
//!
//! The search decides on one bit per variant ([`Oracle::passes`]); only
//! the baseline asks for the checker's own error ([`Oracle::check`]).
//! The trait also hands out two by-products of inference that never
//! decide anything: the principal types that format a suggestion's
//! "of type …" line ([`Oracle::types`]) and the recorded constraint
//! system whose localization orders the search
//! ([`Oracle::constraint_trace`]). An oracle that has already inferred
//! the program answers them from that inference instead of running a
//! second one.

use crate::chaos::{inject, ChaosConfig};
use crate::error::{TypeError, TypeErrorKind};
use crate::infer::{check_program, check_program_types, trace_program};
use crate::record::ConstraintTrace;
use seminal_ml::ast::{NodeId, Program};
use seminal_ml::span::Span;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The three-valued verdict of one fault-isolated probe.
///
/// The search layers never call an oracle bare on the probe path: every
/// probe runs under a panic guard ([`guarded_probe`]) and an oracle that
/// panics yields `Faulted` instead of unwinding into the search. A
/// `Faulted` verdict is counted in `probe_faults` and treated as "did
/// not type-check" by the search — the conservative reading that can
/// suppress a suggestion but never fabricate one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// The variant type-checked.
    Pass,
    /// The variant did not type-check.
    Fail,
    /// The oracle panicked on this variant; the panic was isolated.
    Faulted,
}

impl ProbeOutcome {
    /// Whether the variant type-checked (`Faulted` reads as "no").
    pub fn passed(self) -> bool {
        matches!(self, ProbeOutcome::Pass)
    }

    /// Whether the verdict was synthesized from an isolated panic.
    pub fn faulted(self) -> bool {
        matches!(self, ProbeOutcome::Faulted)
    }
}

/// Runs one probe under a panic guard: a panicking oracle yields
/// [`ProbeOutcome::Faulted`] instead of unwinding into the search.
///
/// With `chaos`, the guard also injects its faults (see [`crate::chaos`]).
///
/// `AssertUnwindSafe` is sound here because the oracle is only observed
/// through `&self` afterwards and the trait contract requires interior
/// mutability to be panic-consistent (the built-in oracles hold atomics
/// or locks that the guard never leaves mid-update).
pub fn guarded_probe<O: Oracle + ?Sized>(
    oracle: &O,
    prog: &Program,
    chaos: Option<&ChaosConfig>,
) -> ProbeOutcome {
    let probe = || inject(chaos, prog, || oracle.passes(prog), |passed| !passed);
    match catch_unwind(AssertUnwindSafe(probe)) {
        Ok(true) => ProbeOutcome::Pass,
        Ok(false) => ProbeOutcome::Fail,
        Err(_) => ProbeOutcome::Faulted,
    }
}

/// Like [`Oracle::check`] but with panic isolation: a panicking oracle
/// yields a synthesized [`TypeErrorKind::OracleFault`] error (at the
/// dummy span) so callers that need the concrete baseline error — not
/// just a verdict — can keep going. Distinguish real errors from
/// isolated faults with [`TypeError::is_fault`].
///
/// With `chaos`, faults are injected as by [`guarded_probe`]; a flipped
/// `Ok` is the synthesized fault error, a flipped error is `Ok`.
///
/// # Errors
///
/// The oracle's own [`TypeError`] when the program is ill-typed, or the
/// synthesized fault error when the oracle panicked.
pub fn guarded_check<O: Oracle + ?Sized>(
    oracle: &O,
    prog: &Program,
    chaos: Option<&ChaosConfig>,
) -> Result<(), TypeError> {
    let fault = || TypeError { kind: TypeErrorKind::OracleFault, span: Span::DUMMY };
    let flip = |verdict: Result<(), TypeError>| if verdict.is_ok() { Err(fault()) } else { Ok(()) };
    catch_unwind(AssertUnwindSafe(|| inject(chaos, prog, || oracle.check(prog), flip)))
        .unwrap_or_else(|_| Err(fault()))
}

/// Counters published by an incremental oracle (see
/// [`crate::incremental::CheckpointedOracle`]): cumulative since
/// construction, read via [`Oracle::incremental_stats`]. The search layer
/// snapshots them around a run and reports the deltas under the
/// `oracle.incremental_hits` / `oracle.decls_recheck` /
/// `oracle.rollback_ns` metric keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Probes that reused a checked prefix (including ones answered
    /// entirely from cache).
    pub incremental_hits: u64,
    /// Declarations actually re-inferred across all checks.
    pub decls_recheck: u64,
    /// Nanoseconds spent rolling state back after tail re-inference.
    pub rollback_ns: u64,
}

/// A black-box type checker.
///
/// Oracles are `Send + Sync`, so one search session can run searches
/// from several threads at once, and `passes` must be callable
/// concurrently. Oracles carrying mutable state (counters, caches) use
/// interior mutability with atomics or locks.
///
/// [`Oracle::check`] and [`Oracle::passes`] are the oracle calls, and
/// the search's cost model counts both. Every probe asks
/// [`Oracle::passes`], for one bit; only the search's baseline asks
/// [`Oracle::check`], because only the baseline's message and location
/// are ever shown. A wrapper that caches therefore caches `passes`
/// alone, and nothing it stores carries a span. The search makes both
/// calls through its guards ([`guarded_probe`], [`guarded_check`]),
/// which is where faults are injected. [`Oracle::types`] and
/// [`Oracle::constraint_trace`] format messages and order the search;
/// wrappers forward them to their inner oracle without counting or
/// caching, and their defaults infer from scratch.
pub trait Oracle: Send + Sync {
    /// Type-checks the whole program, returning the first error if any.
    ///
    /// # Errors
    ///
    /// The first [`TypeError`] in inference order.
    fn check(&self, prog: &Program) -> Result<(), TypeError>;

    /// Whether the whole program type-checks: the probe. The default is
    /// `self.check(prog).is_ok()`, so a wrapper that counts in `check`
    /// counts probes too without overriding this.
    fn passes(&self, prog: &Program) -> bool {
        self.check(prog).is_ok()
    }

    /// The resolved principal types of the `wanted` nodes of `prog`, as
    /// [`check_program_types`] reports them: the "of type …" line of a
    /// suggestion. Not a probe.
    ///
    /// # Errors
    ///
    /// The first [`TypeError`] in inference order.
    fn types(
        &self,
        prog: &Program,
        wanted: &[NodeId],
    ) -> Result<HashMap<NodeId, String>, TypeError> {
        check_program_types(prog, wanted)
    }

    /// The recorded constraint system of `prog`, as [`trace_program`]
    /// records it: what the localization backends replay. Not a probe.
    fn constraint_trace(&self, prog: &Program) -> Arc<ConstraintTrace> {
        Arc::new(trace_program(prog))
    }

    /// Incremental-oracle counters, when an incremental oracle sits
    /// somewhere in this oracle stack. Wrappers forward to their inner
    /// oracle; leaf oracles without incremental state return `None`.
    fn incremental_stats(&self) -> Option<IncrementalStats> {
        None
    }
}

/// The real checker from [`crate::infer`], from scratch on every call:
/// `check`, `types` and `constraint_trace` are [`check_program`],
/// [`check_program_types`] and [`trace_program`]. It is the
/// `--no-incremental` checker, and the reference the incremental
/// [`crate::incremental::CheckpointedOracle`] must answer like.
#[derive(Debug, Clone, Copy, Default)]
pub struct TypeCheckOracle;

impl TypeCheckOracle {
    /// Creates the standard oracle.
    pub fn new() -> TypeCheckOracle {
        TypeCheckOracle
    }
}

impl Oracle for TypeCheckOracle {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        check_program(prog)
    }
}

/// Wraps an oracle and counts calls — the cost metric of the paper's
/// efficiency discussion (search cost ≈ number of type-checker runs).
/// A test utility: tests reconcile a search's `oracle_calls` against
/// what really reached the checker. The counter is atomic so the
/// wrapper stays a valid [`Oracle`], which must be `Sync`.
#[derive(Debug, Default)]
pub struct CountingOracle<O> {
    inner: O,
    calls: AtomicU64,
}

impl<O: Oracle> CountingOracle<O> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: O) -> CountingOracle<O> {
        CountingOracle { inner, calls: AtomicU64::new(0) }
    }

    /// Number of `check` calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<O: Oracle> Oracle for CountingOracle<O> {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.check(prog)
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

    fn incremental_stats(&self) -> Option<IncrementalStats> {
        self.inner.incremental_stats()
    }
}

impl<O: Oracle + ?Sized> Oracle for &O {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        (**self).check(prog)
    }

    fn passes(&self, prog: &Program) -> bool {
        (**self).passes(prog)
    }

    fn types(
        &self,
        prog: &Program,
        wanted: &[NodeId],
    ) -> Result<HashMap<NodeId, String>, TypeError> {
        (**self).types(prog, wanted)
    }

    fn constraint_trace(&self, prog: &Program) -> Arc<ConstraintTrace> {
        (**self).constraint_trace(prog)
    }

    fn incremental_stats(&self) -> Option<IncrementalStats> {
        (**self).incremental_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;

    #[test]
    fn oracle_accepts_well_typed() {
        let prog = parse_program("let x = 1 + 2").unwrap();
        assert!(TypeCheckOracle::new().check(&prog).is_ok());
    }

    #[test]
    fn oracle_rejects_ill_typed() {
        let prog = parse_program("let x = 1 + true").unwrap();
        assert!(TypeCheckOracle::new().check(&prog).is_err());
    }

    #[test]
    fn counting_oracle_counts() {
        let prog = parse_program("let x = 1").unwrap();
        let oracle = CountingOracle::new(TypeCheckOracle::new());
        for _ in 0..3 {
            oracle.check(&prog).unwrap();
        }
        assert_eq!(oracle.calls(), 3);
    }

    #[test]
    fn wrappers_forward_types_and_traces_without_counting() {
        let prog = parse_program("let f x = x + 1\nlet y = f true").unwrap();
        let mut ids = Vec::new();
        prog.decls[0].for_each_expr(&mut |e| ids.push(e.id));
        let inner = crate::incremental::CheckpointedOracle::new();
        let oracle = CountingOracle::new(&inner);
        assert!(oracle.check(&prog).is_err());
        assert!(!oracle.passes(&prog), "a probe is counted like a check");

        assert_eq!(oracle.types(&prog, &ids), check_program_types(&prog, &ids));
        let trace = oracle.constraint_trace(&prog);
        assert!(Arc::ptr_eq(&trace, &inner.constraint_trace(&prog)), "the inner chain's trace");
        assert_eq!(oracle.incremental_stats(), Some(inner.stats()));
        assert_eq!(oracle.calls(), 2);
    }
}
