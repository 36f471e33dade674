//! Deterministic fault injection at the probe guard.
//!
//! A search given a [`ChaosConfig`] (`SearchSessionBuilder::chaos` in
//! `seminal-core`) hands it to the guards every oracle call of the
//! search runs under, [`guarded_check`] and [`guarded_probe`]. Inside
//! their panic guard they inject panics, delays and verdict flips into a
//! configured fraction of calls: the adversarial workload the
//! fault-tolerance layer must absorb. Every injection decision is a pure
//! function of the **rendered program text** and the configured seed
//! (FNV-1a over the text seeds a SplitMix64 stream), never of call order.
//! That is the property the chaos suite leans on: the same variant
//! faults whichever oracle answers it and whenever it is probed, so
//! suggestion payloads and fault counts stay identical across oracle
//! modes and warm or cold memos.
//!
//! Injection sits above the oracle, so an oracle that caches (the serve
//! daemon's shared memo) only ever sees clean calls: a panic fires
//! before the oracle is asked and a flip inverts its answer afterwards.
//!
//! Injected panics start with [`seminal_obs::INJECTED_PANIC`], so
//! [`seminal_obs::silence_injected_panics`] can silence the expected
//! injections without hiding real bugs.
//!
//! Only the baseline check and the probes are injected:
//! [`Oracle::types`](crate::Oracle::types) and
//! [`Oracle::constraint_trace`](crate::Oracle::constraint_trace) never
//! pass through a guard.
//!
//! [`guarded_check`]: crate::guarded_check
//! [`guarded_probe`]: crate::guarded_probe

use seminal_ml::ast::Program;
use seminal_ml::pretty::program_to_string;
use seminal_obs::{fnv1a, SplitMix64, INJECTED_PANIC};
use std::time::Duration;

/// How much chaos to inject. Rates are per-mille (0–1000) of oracle
/// calls, selected deterministically by program text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed mixed into every injection decision; two searches with the
    /// same seed fault on exactly the same variants.
    pub seed: u64,
    /// Per-mille of calls that panic instead of returning a verdict.
    pub panic_per_mille: u16,
    /// Per-mille of calls whose verdict is inverted (a well-typed
    /// variant reports a synthesized error; an ill-typed one reports Ok).
    pub flip_per_mille: u16,
    /// Per-mille of calls delayed by [`ChaosConfig::delay`] before the
    /// real check runs (exercises deadline expiry mid-search).
    pub delay_per_mille: u16,
    /// The injected delay for selected calls.
    pub delay: Duration,
}

impl ChaosConfig {
    /// Panic injection only, at `per_mille`/1000 of calls.
    pub fn panics(seed: u64, per_mille: u16) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: per_mille,
            flip_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        }
    }

    /// Verdict-flip injection only: `per_mille`/1000 of calls report the
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

    /// Delay injection only: `per_mille`/1000 of calls sleep `delay`.
    pub fn delays(seed: u64, per_mille: u16, delay: Duration) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: 0,
            flip_per_mille: 0,
            delay_per_mille: per_mille,
            delay,
        }
    }

    /// Whether a call on `prog` would be made to panic — the decision
    /// the guard will take, exposed so tests can predict fault counts
    /// without tripping the injection.
    pub fn would_panic(&self, prog: &Program) -> bool {
        self.draws(prog).0
    }

    /// (panic, flip, delay) decisions for `prog`: the first three draws
    /// of the SplitMix64 stream seeded by the text's hash and the seed.
    fn draws(&self, prog: &Program) -> (bool, bool, bool) {
        let mut rng =
            SplitMix64::seed_from_u64(fnv1a(program_to_string(prog).as_bytes()) ^ self.seed);
        let mut hit = |rate: u16| rng.next_u64() % 1000 < u64::from(rate);
        (hit(self.panic_per_mille), hit(self.flip_per_mille), hit(self.delay_per_mille))
    }
}

/// Runs `call`, one oracle call on `prog`, under `chaos`'s decisions for
/// `prog`, if any: it panics instead, sleeps first, or has its verdict
/// passed through `flip`. The guards call it inside their `catch_unwind`.
pub(crate) fn inject<T>(
    chaos: Option<&ChaosConfig>,
    prog: &Program,
    call: impl FnOnce() -> T,
    flip: impl FnOnce(T) -> T,
) -> T {
    let Some(chaos) = chaos else { return call() };
    let (panic_hit, flip_hit, delay_hit) = chaos.draws(prog);
    if panic_hit {
        panic!("{INJECTED_PANIC} injected oracle panic");
    }
    if delay_hit {
        std::thread::sleep(chaos.delay);
    }
    let verdict = call();
    if flip_hit {
        flip(verdict)
    } else {
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::CheckpointedOracle;
    use crate::oracle::{guarded_check, guarded_probe, Oracle, ProbeOutcome, TypeCheckOracle};
    use seminal_ml::parser::parse_program;
    use std::sync::Arc;

    fn variants(n: usize) -> Vec<Program> {
        (0..n).map(|i| parse_program(&format!("let v{i} = {i} + 1")).unwrap()).collect()
    }

    #[test]
    fn injection_is_a_function_of_text_and_seed_only() {
        let a = ChaosConfig::panics(42, 100);
        let b = ChaosConfig::panics(42, 100);
        let c = ChaosConfig::panics(43, 100);
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
        let chaos = ChaosConfig::panics(7, 100);
        let hits = variants(1000).iter().filter(|p| chaos.would_panic(p)).count();
        assert!((40..=200).contains(&hits), "10% nominal rate gave {hits}/1000");
    }

    #[test]
    fn guarded_probe_turns_injected_panics_into_faults() {
        let chaos = ChaosConfig::panics(11, 1000);
        let prog = parse_program("let x = 1").unwrap();
        assert!(chaos.would_panic(&prog), "rate 1000 panics on every probe");
        let outcome = guarded_probe(&TypeCheckOracle::new(), &prog, Some(&chaos));
        let baseline = guarded_check(&TypeCheckOracle::new(), &prog, Some(&chaos));
        assert_eq!(outcome, ProbeOutcome::Faulted);
        assert!(baseline.unwrap_err().is_fault(), "a panicking baseline is a synthesized fault");
    }

    #[test]
    fn flipped_verdicts_are_synthesized_faults_or_passes() {
        let chaos = ChaosConfig {
            seed: 3,
            panic_per_mille: 0,
            flip_per_mille: 1000,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        };
        let oracle = TypeCheckOracle::new();
        let good = parse_program("let x = 1").unwrap();
        let bad = parse_program("let x = 1 + true").unwrap();
        let flipped = guarded_check(&oracle, &good, Some(&chaos)).unwrap_err();
        assert!(flipped.is_fault(), "a flipped pass reads as a synthesized fault");
        assert!(guarded_check(&oracle, &bad, Some(&chaos)).is_ok(), "a flipped failure passes");
        assert_eq!(guarded_probe(&oracle, &good, Some(&chaos)), ProbeOutcome::Fail);
        assert_eq!(guarded_probe(&oracle, &bad, Some(&chaos)), ProbeOutcome::Pass);
    }

    #[test]
    fn types_and_traces_stay_uninjected() {
        // Injection lives in the guard, not in the oracle: after a
        // flipped baseline seeded the incremental chain, the oracle's
        // own answers are the real ones.
        let inner = CheckpointedOracle::new();
        let chaos = ChaosConfig::flips(3, 1000);
        let bad = parse_program("let x = 1 + true").unwrap();
        let mut ids = Vec::new();
        bad.decls[0].for_each_expr(&mut |e| ids.push(e.id));
        assert!(guarded_check(&inner, &bad, Some(&chaos)).is_ok(), "every verdict is flipped");

        assert_eq!(inner.types(&bad, &ids), crate::check_program_types(&bad, &ids));
        assert!(inner.types(&bad, &ids).is_err());
        let trace = inner.constraint_trace(&bad);
        assert!(Arc::ptr_eq(&trace, &inner.constraint_trace(&bad)), "the chain's one recording");
        assert!(trace.result.is_err(), "the trace records the real verdict");
    }
}
