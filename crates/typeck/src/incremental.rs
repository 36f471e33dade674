//! The incremental oracle: one live inference state over a base
//! program, pushed and popped at declaration boundaries.
//!
//! A search probes hundreds of variants of one program, and almost
//! every variant differs from the base in a single declaration. The
//! scratch oracle re-infers the whole program per probe. This
//! module's chain, a crate-private type behind [`CheckpointedOracle`],
//! infers the base once and pushes a mark on its [`InferState`] at
//! every clean declaration boundary. A probe
//! finds the longest prefix it shares with the base (pointer equality
//! on `Arc<Decl>` handles first, equal [span keys] as the fallback) and moves the live state to the deepest boundary
//! inside that prefix: it pops back to an earlier mark, or re-infers
//! clean base declarations up to a later one. It then re-infers only
//! its own tail and pops back. Rollback restores the variable store
//! byte-for-byte, so the state at a boundary is the same whether it
//! was reached by seeding, by a pop, or by a scratch run.
//!
//! Identity with the scratch checkers is a hard contract (the testkit's
//! `incremental-scratch-identity` differential oracle pins it): the
//! whole-program checker is itself implemented as "initial state, then
//! [`InferState::check_decl`] per declaration", so resuming at a
//! boundary replays exactly the instructions a scratch run would
//! execute. The chain's verdicts answer like [`check_program`], its
//! typing like [`check_program_types`] and its traces like
//! [`trace_program`]. Spans are part of the
//! prefix-match key because type errors carry them; node ids are not
//! because inference never reads them.
//!
//! Seeding runs the constraint recorder, so the one inference of the
//! base that answers the search's baseline check also yields the
//! constraint trace its localization pass replays. Nothing else
//! records: probes and typing pay nothing for it.
//!
//! [span keys]: seminal_ml::Decl::span_key
//! [`check_program`]: crate::infer::check_program
//! [`check_program_types`]: crate::infer::check_program_types
//! [`trace_program`]: crate::infer::trace_program
//!
//! [`CheckpointedOracle`] is the chain as an [`Oracle`]. The chain sits
//! behind a `Mutex`, so the oracle stays `Sync`; every call takes the
//! lock, and one search's probes run one after another. A panic that
//! unwinds through the lock (a checker bug) poisons the mutex; the next
//! call resets the chain wholesale, so a half-rolled-back trail can
//! never leak into a later probe. Injected chaos panics fire in the
//! probe guard, before the oracle is called, and never reach the lock.

use crate::error::TypeError;
use crate::infer::{trace_program, InferState};
use crate::oracle::{IncrementalStats, Oracle};
use crate::record::ConstraintTrace;
use seminal_ml::ast::{Decl, NodeId, Program};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Incremental inference over one base program: the first program it
/// checks. One live [`InferState`] rests at a clean declaration
/// boundary `at`, with a mark open at every boundary `0..=at`, and
/// extends no further than the base's first failing declaration.
///
/// [`check`](InferChain::check), [`types`](InferChain::types) and
/// [`trace`](InferChain::trace) answer exactly like
/// [`check_program`](crate::infer::check_program),
/// [`check_program_types`](crate::infer::check_program_types) and
/// [`trace_program`] for any program,
/// sharing a prefix with the base or not; only the work they do depends
/// on that prefix. [`InferChain::stats`] counts the work of seeding and
/// of `check`: typing and traces format messages and order the search,
/// they are not oracle work.
#[derive(Debug, Default)]
pub(crate) struct InferChain {
    decls: Vec<Arc<Decl>>,
    /// The live state; `state.depth() == at + 1` once seeded.
    state: InferState,
    /// Number of leading base declarations known to check clean.
    clean: usize,
    /// First failing declaration of the base, with its error.
    err: Option<(usize, TypeError)>,
    /// The constraints seeding recorded: the base's trace.
    trace: Option<Arc<ConstraintTrace>>,
    stats: IncrementalStats,
}

impl InferChain {
    /// Counters accumulated over every call.
    pub(crate) fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Checks `prog`.
    ///
    /// # Errors
    ///
    /// The same first [`TypeError`] as
    /// [`check_program`](crate::infer::check_program).
    pub(crate) fn check(&mut self, prog: &Program) -> Result<(), TypeError> {
        if self.state.depth() == 0 {
            return self.seed(prog);
        }
        let shared = self.shared_prefix(prog);
        if let Some(err) = self.cached_error(shared) {
            return Err(err);
        }
        // Every probe declaration is a clean base prefix (prefix probes
        // from the localization loop): nothing to re-infer at all.
        if shared == prog.decls.len() && shared <= self.clean {
            self.stats.incremental_hits += 1;
            return Ok(());
        }
        let j = shared.min(self.clean);
        self.resume(j);
        let verdict = self.tail(prog, j, |state, d| state.check_decl(d));
        self.pop_to(j);
        verdict
    }

    /// Checks `prog`, reporting the resolved principal types of the
    /// `wanted` nodes. Resumes no later than the first declaration
    /// holding a wanted node, so every capture a scratch run would make
    /// is made. Charges nothing but the seeding of an empty chain.
    ///
    /// # Errors
    ///
    /// The same first [`TypeError`] as
    /// [`check_program_types`](crate::infer::check_program_types).
    pub(crate) fn types(
        &mut self,
        prog: &Program,
        wanted: &[NodeId],
    ) -> Result<HashMap<NodeId, String>, TypeError> {
        if self.state.depth() == 0 {
            // The verdict is recomputed below, with the captures.
            let _ = self.seed(prog);
        }
        let stats = self.stats;
        let types = self.types_seeded(prog, wanted);
        self.stats = stats;
        types
    }

    /// The recorded constraint system of `prog`: the trace seeding
    /// recorded when `prog` is the base, declaration for declaration
    /// the same `Arc`s (an empty chain is seeded from `prog` first),
    /// and a scratch [`trace_program`] otherwise.
    pub(crate) fn trace(&mut self, prog: &Program) -> Arc<ConstraintTrace> {
        if self.state.depth() == 0 {
            let _ = self.seed(prog);
        }
        let is_base = prog.decls.len() == self.decls.len()
            && prog.decls.iter().zip(&self.decls).all(|(p, b)| Arc::ptr_eq(p, b));
        match &self.trace {
            Some(trace) if is_base => Arc::clone(trace),
            _ => Arc::new(trace_program(prog)),
        }
    }

    /// [`InferChain::types`] on a seeded chain.
    fn types_seeded(
        &mut self,
        prog: &Program,
        wanted: &[NodeId],
    ) -> Result<HashMap<NodeId, String>, TypeError> {
        let shared = self.shared_prefix(prog);
        if let Some(err) = self.cached_error(shared) {
            return Err(err);
        }
        let resumable = shared.min(self.clean);
        let j = prog.decls[..resumable]
            .iter()
            .position(|d| wanted.iter().any(|&id| d.find_expr(id).is_some()))
            .unwrap_or(resumable);
        self.resume(j);
        let mut capture: HashSet<NodeId> = wanted.iter().copied().collect();
        let mut captured = HashMap::new();
        let verdict = self
            .tail(prog, j, |state, d| state.check_decl_capturing(d, &mut capture, &mut captured));
        let types = verdict.map(|()| self.state.resolve_captured(captured));
        self.pop_to(j);
        types
    }

    /// Makes `prog` the base: infers it from the initial state with the
    /// constraint recorder on, leaving a mark at every clean boundary,
    /// and returns its verdict. Charges `decls_recheck` for the
    /// declarations inference visited (it stops at the first failing
    /// one).
    fn seed(&mut self, prog: &Program) -> Result<(), TypeError> {
        self.decls = prog.decls.clone();
        self.state = InferState::initial();
        self.state.record();
        self.state.push();
        self.clean = 0;
        self.err = None;
        for d in &prog.decls {
            self.stats.decls_recheck += 1;
            if let Err(e) = self.state.check_decl(d) {
                self.err = Some((self.clean, e.clone()));
                self.trace = Some(Arc::new(self.state.take_trace(Err(e.clone()))));
                // Drop the failed declaration's partial bindings.
                self.pop_to(self.clean);
                return Err(e);
            }
            self.state.push();
            self.clean += 1;
        }
        self.trace = Some(Arc::new(self.state.take_trace(Ok(()))));
        Ok(())
    }

    /// Drops the base and the live state, keeping the counters.
    fn reset(&mut self) {
        *self = InferChain { stats: self.stats, ..InferChain::default() };
    }

    /// Length of the prefix `prog` shares with the base: leading
    /// declarations that are the same `Arc` or have the same
    /// [span key](Decl::span_key). Content alone is not enough: type
    /// errors carry spans, so two declarations that differ only in
    /// where they sit must not pass for the same prefix (the cached
    /// `TypeError` would point at the wrong place). Node ids are not
    /// in the key; inference never reads them.
    fn shared_prefix(&self, prog: &Program) -> usize {
        self.decls
            .iter()
            .zip(&prog.decls)
            .take_while(|(base, probe)| {
                Arc::ptr_eq(base, probe) || base.span_key() == probe.span_key()
            })
            .count()
    }

    /// The base's error when a program shares the base through its
    /// failing declaration: inference is deterministic, so the program
    /// fails with the very same error before reaching any edit.
    fn cached_error(&mut self, shared: usize) -> Option<TypeError> {
        let (e, err) = self.err.as_ref()?;
        if shared <= *e {
            return None;
        }
        self.stats.incremental_hits += 1;
        Some(err.clone())
    }

    /// Moves the live state to clean boundary `j`: pops back to an
    /// earlier mark, or re-infers the clean base declarations up to a
    /// later one, charging them to `decls_recheck`.
    fn resume(&mut self, j: usize) {
        if j > 0 {
            self.stats.incremental_hits += 1;
        }
        let at = self.state.depth() - 1;
        if j < at {
            self.pop_to(j);
        }
        for d in &self.decls[at.min(j)..j] {
            self.stats.decls_recheck += 1;
            self.state.check_decl(d).expect("a clean base declaration re-infers clean");
            self.state.push();
        }
    }

    /// Re-infers `prog.decls[j..]` on the live state with `step`,
    /// stopping at the first failure and charging every declaration
    /// visited.
    fn tail(
        &mut self,
        prog: &Program,
        j: usize,
        mut step: impl FnMut(&mut InferState, &Decl) -> Result<(), TypeError>,
    ) -> Result<(), TypeError> {
        for d in &prog.decls[j..] {
            self.stats.decls_recheck += 1;
            step(&mut self.state, d)?;
        }
        Ok(())
    }

    /// Pops the live state back to boundary `j`, keeping its mark open.
    fn pop_to(&mut self, j: usize) {
        let clock = Instant::now();
        while self.state.depth() > j {
            self.state.pop();
        }
        self.state.push();
        let ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.rollback_ns += ns;
    }
}

/// An [`Oracle`] that re-infers only the declarations a probe actually
/// changed: the module's inference chain behind a `Mutex`. See the module docs for
/// the model; metric counters ([`IncrementalStats`]) are exposed
/// through [`Oracle::incremental_stats`] so the search layer can fold
/// them into its report.
///
/// The same chain answers [`Oracle::types`] and
/// [`Oracle::constraint_trace`], so one inference of the base serves the
/// baseline verdict, the localization pass and every suggestion's type.
///
/// `--no-incremental` selects [`TypeCheckOracle`] instead, the same
/// answers from scratch on every call.
///
/// [`TypeCheckOracle`]: crate::oracle::TypeCheckOracle
#[derive(Debug, Default)]
pub struct CheckpointedOracle {
    chain: Mutex<InferChain>,
}

impl CheckpointedOracle {
    /// An incremental oracle with an empty chain.
    pub fn new() -> CheckpointedOracle {
        CheckpointedOracle::default()
    }

    /// Current counter values.
    pub fn stats(&self) -> IncrementalStats {
        self.chain.lock().unwrap_or_else(PoisonError::into_inner).stats()
    }

    /// Runs `f` on the chain, waiting for the lock.
    fn with_chain<T>(&self, f: impl FnOnce(&mut InferChain) -> T) -> T {
        let mut chain = self.chain.lock().unwrap_or_else(|poisoned| {
            // A panic unwound through a previous call. The trail and
            // marks may be half-rolled-back — throw the whole chain away
            // and reseed from this program.
            let mut chain = poisoned.into_inner();
            chain.reset();
            self.chain.clear_poison();
            chain
        });
        f(&mut chain)
    }
}

impl Oracle for CheckpointedOracle {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        self.with_chain(|chain| chain.check(prog))
    }

    fn types(
        &self,
        prog: &Program,
        wanted: &[NodeId],
    ) -> Result<HashMap<NodeId, String>, TypeError> {
        self.with_chain(|chain| chain.types(prog, wanted))
    }

    fn constraint_trace(&self, prog: &Program) -> Arc<ConstraintTrace> {
        self.with_chain(|chain| chain.trace(prog))
    }

    fn incremental_stats(&self) -> Option<IncrementalStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{check_program, check_program_types};
    use crate::oracle::TypeCheckOracle;
    use seminal_ml::edit;
    use seminal_ml::parser::parse_program;

    const SRC: &str = "let one = 1\n\
                       let double x = x + x\n\
                       let nums = [1; 2; 3]\n\
                       let bad = double true\n\
                       let tail = List.map double nums";

    /// Ids of every expression in declaration `idx`.
    fn expr_ids(prog: &Program, idx: usize) -> Vec<seminal_ml::ast::NodeId> {
        let mut ids = Vec::new();
        prog.decls[idx].for_each_expr(&mut |e| ids.push(e.id));
        ids
    }

    #[test]
    fn agrees_with_scratch_on_base_and_probes() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        let scratch = TypeCheckOracle::new();

        assert_eq!(inc.check(&prog).is_ok(), scratch.check(&prog).is_ok());
        // Hole out every expression of every declaration in turn; each
        // probe must agree with scratch exactly (same error, same span).
        for idx in 0..prog.decls.len() {
            for id in expr_ids(&prog, idx) {
                let probe = edit::remove_expr(&prog, id);
                assert_eq!(inc.check(&probe), scratch.check(&probe), "probe at {id:?}");
            }
        }
    }

    #[test]
    fn prefix_probes_are_pure_hits() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();
        let seeded = inc.stats().decls_recheck;

        // Prefixes of the base share every Arc; no re-inference at all.
        for k in 0..prog.decls.len() {
            let pre = prog.prefix(k);
            assert_eq!(inc.check(&pre), check_program(&pre), "prefix {k}");
        }
        assert_eq!(inc.stats().decls_recheck, seeded, "prefix probes re-inferred something");
        assert!(inc.stats().incremental_hits >= prog.decls.len() as u64 - 1);
    }

    #[test]
    fn probe_containing_base_error_returns_cached_error() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        let base_err = inc.check(&prog).unwrap_err();
        let before = inc.stats().decls_recheck;

        // Edit the declaration *after* the failing one: the probe still
        // contains the failing decl, so the cached error comes back with
        // zero re-inference.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 4)[0]);
        assert_eq!(inc.check(&probe), Err(base_err));
        assert_eq!(inc.stats().decls_recheck, before);
    }

    #[test]
    fn tail_edit_rechecks_only_the_tail() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();
        let seeded = inc.stats().decls_recheck;
        assert_eq!(seeded, 4, "seeding stops at the failing decl");

        // Fix the bad declaration (decl 3): shares decls 0..3, so only
        // decls 3 and 4 are re-inferred.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        assert!(inc.check(&probe).is_ok());
        assert_eq!(inc.stats().decls_recheck - seeded, 2);
    }

    #[test]
    fn repeated_probes_leave_the_base_pristine() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();

        // The same probe, many times: if rollback leaked any binding,
        // type-variable, or env entry, later repetitions would diverge.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        let expected = check_program(&probe);
        for round in 0..50 {
            assert_eq!(inc.check(&probe), expected, "round {round}");
        }
    }

    #[test]
    fn type_decl_edits_restore_ctor_maps() {
        let src = "type t = A of int | B\nlet x = A 1\nlet y = B";
        let prog = parse_program(src).unwrap();
        let inc = CheckpointedOracle::new();
        assert!(inc.check(&prog).is_ok());

        // Probe that re-checks from decl 0 (the type decl itself differs
        // → full recheck); the marked ctor map must survive the
        // copy-on-write insertions the tail performs.
        let probe = parse_program("type t = A of bool | B\nlet x = A 1\nlet y = B").unwrap();
        assert_eq!(inc.check(&probe), check_program(&probe));
        // And the original still agrees afterwards.
        assert_eq!(inc.check(&prog), check_program(&prog));
        // Moving forward again re-infers the base's type decl against the
        // restored maps: `A` must take an `int` once more.
        let probe = parse_program("type t = A of int | B\nlet x = A 1\nlet y = A true").unwrap();
        assert_eq!(inc.check(&probe), check_program(&probe));
        assert!(inc.check(&probe).is_err());
    }

    #[test]
    fn poisoned_chain_resets_and_next_probe_is_clean() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();

        // Panic while holding the chain lock — the worst-case fault: a
        // checkpoint is conceptually mid-flight and the mutex poisons.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inc.chain.lock().unwrap();
            panic!("chaos: injected oracle panic");
        }));
        assert!(unwound.is_err());

        // The next probe must reset the chain rather than resume from a
        // possibly half-rolled-back trail, and keep agreeing with
        // scratch afterwards.
        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        assert_eq!(inc.check(&probe), check_program(&probe));
        assert_eq!(inc.check(&prog), check_program(&prog));
    }

    #[test]
    fn faulted_probe_does_not_leak_into_the_next_probe() {
        use crate::chaos::ChaosConfig;
        use crate::oracle::{guarded_probe, ProbeOutcome};

        // Chaos panics fire in the probe guard, *above* the incremental
        // oracle; a probe that faults must leave the chain in a state
        // where the following probes still match scratch.
        let prog = parse_program(SRC).unwrap();
        let inner = CheckpointedOracle::new();
        let chaos = ChaosConfig::panics(11, 1000);
        assert_eq!(guarded_probe(&inner, &prog, Some(&chaos)), ProbeOutcome::Faulted);

        let probe = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        assert_eq!(inner.check(&probe), check_program(&probe));
        assert_eq!(inner.check(&prog), check_program(&prog));
    }

    #[test]
    fn generalization_sites_do_not_over_generalize_from_stale_state() {
        // `id` is let-polymorphic; the probe inserts a *monomorphic* use
        // chain after it. A stale mark that over-generalized (or a
        // rollback that leaked the tail's instantiations) would let the
        // second use unify at a different type and wrongly pass/fail.
        let src = "let id = fun x -> x\nlet a = id 1\nlet b = id true";
        let prog = parse_program(src).unwrap();
        let inc = CheckpointedOracle::new();
        assert!(inc.check(&prog).is_ok());

        // Force `id` monomorphic in the probe by eta-expanding through a
        // non-value binding; both oracles must agree on the verdict.
        let probe =
            parse_program("let id = (fun x -> x) (fun y -> y)\nlet a = id 1\nlet b = id true")
                .unwrap();
        assert_eq!(inc.check(&probe).is_err(), check_program(&probe).is_err());
        assert_eq!(inc.check(&probe), check_program(&probe));
        // Original still pristine.
        assert_eq!(inc.check(&prog), check_program(&prog));
    }

    const CLEAN: &str = "let one = 1\n\
                         let double x = x + x\n\
                         let nums = [1; 2; 3]\n\
                         let four = double 2\n\
                         let tail = List.map double nums";

    #[test]
    fn probes_pop_back_and_move_forward_exactly() {
        let prog = parse_program(CLEAN).unwrap();
        let mut chain = InferChain::default();
        assert!(chain.check(&prog).is_ok());
        assert_eq!(chain.stats().decls_recheck, 5, "seeding visits every clean decl");

        // Editing decl 1 pops the live state from boundary 5 back to 1
        // and re-infers decls 1..5 of the probe.
        let early = edit::remove_expr(&prog, expr_ids(&prog, 1)[0]);
        let before = chain.stats().decls_recheck;
        assert_eq!(chain.check(&early), check_program(&early));
        assert_eq!(chain.stats().decls_recheck - before, 4);

        // Editing decl 4 moves forward from boundary 1 to 4: the clean
        // base decls 1..4 are re-inferred (and charged), then the tail.
        let late = parse_program(
            "let one = 1\nlet double x = x + x\nlet nums = [1; 2; 3]\n\
             let four = double 2\nlet tail = List.map double true",
        )
        .unwrap();
        let before = chain.stats().decls_recheck;
        let verdict = chain.check(&late);
        assert_eq!(verdict, check_program(&late));
        assert!(verdict.is_err());
        assert_eq!(chain.stats().decls_recheck - before, 3 + 1);

        // Back at boundary 4, the base and both probes still agree.
        for p in [&prog, &early, &late, &prog] {
            assert_eq!(chain.check(p), check_program(p));
        }
    }

    #[test]
    fn a_passing_probe_can_seed_the_chain() {
        // A caller may probe before it checks the base, so the chain's
        // first program can be a probe: here one that fixes the base's
        // failing decl 3. Later probes edit that declaration differently
        // and must still match scratch.
        let prog = parse_program(SRC).unwrap();
        let ids = expr_ids(&prog, 3);
        let fixed = edit::remove_expr(&prog, ids[2]);
        let mut chain = InferChain::default();
        assert!(chain.check(&fixed).is_ok());
        assert_eq!(chain.stats().decls_recheck, 5);

        for id in ids {
            let probe = edit::remove_expr(&prog, id);
            assert_eq!(chain.check(&probe), check_program(&probe), "probe at {id:?}");
        }
        assert_eq!(chain.check(&prog), check_program(&prog));
        assert_eq!(chain.check(&fixed), Ok(()));
    }

    #[test]
    fn types_agree_with_check_program_types() {
        for src in
            [SRC, CLEAN, "let id = fun x -> x\nlet a = id 1\nlet r = ref []\nlet b = r := [true]"]
        {
            let prog = parse_program(src).unwrap();
            let mut chain = InferChain::default();
            for idx in 0..prog.decls.len() {
                for id in expr_ids(&prog, idx) {
                    let variant = edit::remove_expr(&prog, id);
                    // The hole, every node of the edited declaration, and
                    // one node of the first declaration.
                    let mut wanted = expr_ids(&variant, idx);
                    wanted.push(NodeId(prog.next_id));
                    wanted.push(expr_ids(&variant, 0)[0]);
                    assert_eq!(
                        chain.types(&variant, &wanted),
                        check_program_types(&variant, &wanted),
                        "{src:?}: variant at {id:?}"
                    );
                }
            }
            assert_eq!(chain.types(&prog, &[]), check_program_types(&prog, &[]));
        }
    }

    /// Trace identity is checked on the `Debug` text: the recorded types
    /// reference the recording run's variable ids, so equal text means
    /// the same demands over the same numbering.
    fn assert_same_trace(got: &ConstraintTrace, want: &ConstraintTrace) {
        assert_eq!(format!("{:?}", got.constraints), format!("{:?}", want.constraints));
        assert_eq!(got.num_vars, want.num_vars);
        assert_eq!(got.result, want.result);
    }

    #[test]
    fn the_baseline_check_records_the_base_trace() {
        for src in [SRC, CLEAN] {
            let prog = parse_program(src).unwrap();
            let inc = CheckpointedOracle::new();
            assert_eq!(inc.check(&prog), check_program(&prog));
            let seeded = inc.stats();
            let trace = inc.constraint_trace(&prog);
            assert_same_trace(&trace, &trace_program(&prog));
            assert!(Arc::ptr_eq(&trace, &inc.constraint_trace(&prog)), "one recording per base");
            assert_eq!(inc.stats(), seeded, "handing out the trace is not oracle work");
        }
    }

    #[test]
    fn a_trace_request_can_seed_the_chain() {
        // A caller may ask for the trace before any check, so the
        // chain's first call is the trace. It seeds (charged as seeding
        // always is), and later probes still answer like scratch.
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        assert_same_trace(&inc.constraint_trace(&prog), &trace_program(&prog));
        assert_eq!(inc.stats().decls_recheck, 4, "seeding stops at the failing decl");
        for idx in 0..prog.decls.len() {
            for id in expr_ids(&prog, idx) {
                let probe = edit::remove_expr(&prog, id);
                assert_eq!(inc.check(&probe), check_program(&probe), "probe at {id:?}");
            }
        }
        assert_eq!(inc.check(&prog), check_program(&prog));
    }

    #[test]
    fn programs_other_than_the_base_get_a_scratch_trace() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();
        let fixed = edit::remove_expr(&prog, expr_ids(&prog, 3)[2]);
        let reparsed = parse_program(SRC).unwrap();
        for other in [fixed, prog.prefix(3), reparsed] {
            assert_same_trace(&inc.constraint_trace(&other), &trace_program(&other));
        }
        // The base keeps its recording.
        assert_same_trace(&inc.constraint_trace(&prog), &trace_program(&prog));
    }

    #[test]
    fn typing_is_not_charged() {
        let prog = parse_program(SRC).unwrap();
        let inc = CheckpointedOracle::new();
        inc.check(&prog).unwrap_err();
        let before = inc.stats();
        for id in expr_ids(&prog, 3) {
            let variant = edit::remove_expr(&prog, id);
            let wanted = [NodeId(prog.next_id)];
            assert_eq!(inc.types(&variant, &wanted), check_program_types(&variant, &wanted));
        }
        assert_eq!(inc.stats(), before);
    }
}
