//! Deterministic fault injection for the oracle boundary.
//!
//! [`ChaosOracle`] wraps any [`Oracle`] and injects panics, verdict
//! flips, and delays into a configurable fraction of probes — the
//! adversarial workload the fault-tolerance layer must absorb. Every
//! injection decision is a pure function of the **rendered program
//! text** and the configured seed (FNV-1a over the text, mixed through
//! SplitMix64), never of call order or thread interleaving. That is the
//! property the chaos suite leans on: the same variant faults at 1, 2,
//! and 8 worker threads, so suggestion payloads and fault counts stay
//! identical while the schedule varies freely.
//!
//! Injected panics carry the marker string `"chaos"` in their payload so
//! test harnesses can install a panic hook that silences expected
//! injections without hiding real bugs.
//!
//! Only probes are injected: [`Oracle::types`] and
//! [`Oracle::constraint_trace`] reach the inner oracle untouched.

use crate::error::{TypeError, TypeErrorKind};
use crate::oracle::Oracle;
use crate::record::ConstraintTrace;
use seminal_ml::ast::{NodeId, Program};
use seminal_ml::pretty::program_to_string;
use seminal_ml::span::Span;
use seminal_obs::fnv1a;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How much chaos to inject. Rates are per-mille (0–1000) of probes,
/// selected deterministically by program text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed mixed into every injection decision; two oracles with the
    /// same seed fault on exactly the same variants.
    pub seed: u64,
    /// Per-mille of probes that panic instead of returning a verdict.
    pub panic_per_mille: u16,
    /// Per-mille of probes whose verdict is inverted (a well-typed
    /// variant reports a synthesized error; an ill-typed one reports Ok).
    pub flip_per_mille: u16,
    /// Per-mille of probes delayed by [`ChaosConfig::delay`] before the
    /// real check runs (exercises deadline expiry mid-search).
    pub delay_per_mille: u16,
    /// The injected delay for selected probes.
    pub delay: Duration,
}

impl ChaosConfig {
    /// Panic injection only, at `per_mille`/1000 of probes.
    pub fn panics(seed: u64, per_mille: u16) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: per_mille,
            flip_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        }
    }

    /// Verdict-flip injection only: `per_mille`/1000 of probes report the
    /// inverted verdict. Unlike panics, a flip is invisible to the
    /// fault-isolation layer — the search trusts it and can accept a
    /// variant no clean oracle would. This is the adversary the fuzzing
    /// harness's differential oracles exist to catch.
    pub fn flips(seed: u64, per_mille: u16) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: 0,
            flip_per_mille: per_mille,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        }
    }

    /// Delay injection only: `per_mille`/1000 of probes sleep `delay`.
    pub fn delays(seed: u64, per_mille: u16, delay: Duration) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: 0,
            flip_per_mille: 0,
            delay_per_mille: per_mille,
            delay,
        }
    }
}

/// Wraps an oracle with deterministic, text-keyed fault injection.
#[derive(Debug)]
pub struct ChaosOracle<O> {
    inner: O,
    config: ChaosConfig,
}

impl<O: Oracle> ChaosOracle<O> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: O, config: ChaosConfig) -> ChaosOracle<O> {
        ChaosOracle { inner, config }
    }

    /// The injection configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Whether a probe of `prog` would be made to panic — the decision
    /// the real `check` will take, exposed so tests can predict fault
    /// counts without tripping the injection.
    pub fn would_panic(&self, prog: &Program) -> bool {
        self.draws(prog).0
    }

    /// (panic, flip, delay) decisions for `prog`, each an independent
    /// draw from the text-keyed SplitMix64 stream.
    fn draws(&self, prog: &Program) -> (bool, bool, bool) {
        let mut state = fnv1a(program_to_string(prog).as_bytes()) ^ self.config.seed;
        let panic_hit = per_mille_hit(splitmix64(&mut state), self.config.panic_per_mille);
        let flip_hit = per_mille_hit(splitmix64(&mut state), self.config.flip_per_mille);
        let delay_hit = per_mille_hit(splitmix64(&mut state), self.config.delay_per_mille);
        (panic_hit, flip_hit, delay_hit)
    }
}

impl<O: Oracle> Oracle for ChaosOracle<O> {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        let (panic_hit, flip_hit, delay_hit) = self.draws(prog);
        if panic_hit {
            panic!("chaos: injected oracle panic");
        }
        if delay_hit {
            std::thread::sleep(self.config.delay);
        }
        let verdict = self.inner.check(prog);
        if flip_hit {
            return match verdict {
                Ok(()) => Err(TypeError { kind: TypeErrorKind::OracleFault, span: Span::DUMMY }),
                Err(_) => Ok(()),
            };
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

    fn incremental_stats(&self) -> Option<crate::oracle::IncrementalStats> {
        self.inner.incremental_stats()
    }
}

/// One step of the SplitMix64 sequence (Steele–Lea–Flood), advancing
/// `state` and returning a well-mixed 64-bit output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn per_mille_hit(draw: u64, rate: u16) -> bool {
    draw % 1000 < u64::from(rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{guarded_probe, ProbeOutcome, TypeCheckOracle};
    use seminal_ml::parser::parse_program;

    fn variants(n: usize) -> Vec<Program> {
        (0..n).map(|i| parse_program(&format!("let v{i} = {i} + 1")).unwrap()).collect()
    }

    #[test]
    fn injection_is_a_function_of_text_and_seed_only() {
        let a = ChaosOracle::new(TypeCheckOracle::new(), ChaosConfig::panics(42, 100));
        let b = ChaosOracle::new(TypeCheckOracle::new(), ChaosConfig::panics(42, 100));
        let c = ChaosOracle::new(TypeCheckOracle::new(), ChaosConfig::panics(43, 100));
        let progs = variants(200);
        let hits_a: Vec<bool> = progs.iter().map(|p| a.would_panic(p)).collect();
        let hits_b: Vec<bool> = progs.iter().map(|p| b.would_panic(p)).collect();
        let hits_c: Vec<bool> = progs.iter().map(|p| c.would_panic(p)).collect();
        assert_eq!(hits_a, hits_b, "same seed, same text, same decisions");
        assert_ne!(hits_a, hits_c, "a different seed reshuffles the fault set");
        // Probing repeatedly never changes a decision (no hidden state).
        assert_eq!(hits_a, progs.iter().map(|p| a.would_panic(p)).collect::<Vec<_>>());
    }

    #[test]
    fn panic_rate_lands_near_the_configured_fraction() {
        let oracle = ChaosOracle::new(TypeCheckOracle::new(), ChaosConfig::panics(7, 100));
        let hits = variants(1000).iter().filter(|p| oracle.would_panic(p)).count();
        assert!((40..=200).contains(&hits), "10% nominal rate gave {hits}/1000");
    }

    #[test]
    fn guarded_probe_turns_injected_panics_into_faults() {
        let oracle = ChaosOracle::new(TypeCheckOracle::new(), ChaosConfig::panics(11, 1000));
        let prog = parse_program("let x = 1").unwrap();
        assert!(oracle.would_panic(&prog), "rate 1000 panics on every probe");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = guarded_probe(&oracle, &prog);
        std::panic::set_hook(prev);
        assert_eq!(outcome, ProbeOutcome::Faulted);
    }

    #[test]
    fn flipped_verdicts_are_synthesized_faults_or_passes() {
        let config = ChaosConfig {
            seed: 3,
            panic_per_mille: 0,
            flip_per_mille: 1000,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        };
        let oracle = ChaosOracle::new(TypeCheckOracle::new(), config);
        let good = parse_program("let x = 1").unwrap();
        let bad = parse_program("let x = 1 + true").unwrap();
        let flipped = oracle.check(&good).unwrap_err();
        assert!(flipped.is_fault(), "a flipped pass reads as a synthesized fault");
        assert!(oracle.check(&bad).is_ok(), "a flipped failure reads as well-typed");
    }

    #[test]
    fn types_and_traces_pass_through_uninjected() {
        let inner = crate::incremental::CheckpointedOracle::new();
        let oracle = ChaosOracle::new(&inner, ChaosConfig::flips(3, 1000));
        let bad = parse_program("let x = 1 + true").unwrap();
        let mut ids = Vec::new();
        bad.decls[0].for_each_expr(&mut |e| ids.push(e.id));
        assert!(oracle.check(&bad).is_ok(), "every verdict is flipped");

        assert_eq!(oracle.types(&bad, &ids), inner.types(&bad, &ids));
        assert!(oracle.types(&bad, &ids).is_err());
        let trace = oracle.constraint_trace(&bad);
        assert!(Arc::ptr_eq(&trace, &inner.constraint_trace(&bad)));
        assert!(trace.result.is_err(), "the trace records the real verdict");
    }
}
