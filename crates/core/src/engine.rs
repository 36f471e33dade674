//! The parallel probe engine: work-stealing oracle dispatch into the
//! search's [`VerdictMemo`].
//!
//! SEMINAL's search is probe-bound and embarrassingly parallel — each
//! enumerated variant (§2.2) is an independent black-box oracle query —
//! but the search *logic* (descend/enumerate/triage in
//! [`crate::search`]) is deeply recursive and order-sensitive: which
//! probe is issued next depends on earlier verdicts, and the ranking
//! and trace contracts depend on that order. The engine therefore
//! parallelizes **speculatively** rather than restructuring the
//! recursion: at each enumeration frontier the searcher hands the whole
//! candidate set to [`ProbeEngine::prefetch`], which drains it through
//! a pool of scoped `std::thread` workers into the memo; the unchanged
//! sequential logic then *consumes* outcomes from the memo in its
//! original order. Outcomes are deterministic (the oracle is a pure
//! function of the program), so the suggestion set, ranks, and trace
//! structure are identical at any thread count — parallelism only
//! changes *when* an outcome is computed, never *what* it is.
//!
//! Workers pull index chunks from per-worker deques (own front first,
//! then steal from a victim's back) and probe each variant under its
//! own panic guard. Prefetched entries the searcher never reads are
//! counted as `engine.speculative_waste`; the accounting identity
//! "calls that reached the oracle == `oracle_calls + speculative_waste`"
//! (and `consumed probes + memo hits == logical queries`) is what the
//! determinism suite reconciles. See DESIGN.md §10.

use crate::budget::Budget;
use crate::memo::VerdictMemo;
use seminal_ml::ast::Program;
use seminal_obs::{EventKind, SpanContext, SpanKind, TraceHandle, Tracer};
use seminal_typeck::{guarded_probe, program_fingerprint, ChaosConfig, Oracle};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Largest index chunk a worker claims at once. Small enough that
/// stealing keeps the tail of a frontier balanced, large enough that
/// workers rarely touch the queue locks.
const CHUNK: usize = 8;

/// Work-stealing parallel prefetcher over a borrowed oracle. One engine
/// serves one search: its [`VerdictMemo`] persists across every
/// frontier batch and triage round of that search.
///
/// Workers are scoped threads spawned per frontier batch
/// (`std::thread::scope`), not a persistent pool: frontiers arrive at
/// the rate of the sequential consumer, each carries real type-checking
/// work that dwarfs thread-spawn cost, and scoping keeps the engine
/// free of `'static`/`Arc` bounds so borrowed oracles
/// (`SearchSession::builder(&oracle)`) keep working.
#[derive(Debug)]
pub struct ProbeEngine<'o, O> {
    oracle: &'o O,
    threads: usize,
    memo: VerdictMemo,
    prefetched: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicU64,
    /// Probes whose oracle call panicked and was isolated by a worker
    /// (includes speculative probes the searcher never consumes).
    probe_faults: AtomicU64,
    /// Shared run bounds; workers poll `interrupted()` between chunks so
    /// a deadline or cancel drains the prefetch promptly.
    halt: Option<Budget>,
    /// Trace fan-out for worker-side causal records (disabled by
    /// default; see [`ProbeEngine::with_trace`]).
    trace: TraceHandle,
    /// Faults the workers' probe guards inject (see
    /// [`ProbeEngine::with_chaos`]).
    chaos: Option<ChaosConfig>,
}

impl<'o, O: Oracle> ProbeEngine<'o, O> {
    /// An engine with `threads` workers per frontier batch and no run
    /// bounds (prefetch always runs to completion).
    pub fn new(oracle: &'o O, threads: usize) -> ProbeEngine<'o, O> {
        ProbeEngine {
            oracle,
            threads: threads.max(1),
            memo: VerdictMemo::default(),
            prefetched: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            largest_batch: AtomicU64::new(0),
            probe_faults: AtomicU64::new(0),
            halt: None,
            trace: TraceHandle::disabled(),
            chaos: None,
        }
    }

    /// An engine whose workers stop between chunks once `budget` reports
    /// a deadline expiry or cancellation.
    pub fn with_halt(oracle: &'o O, threads: usize, budget: Budget) -> ProbeEngine<'o, O> {
        ProbeEngine { halt: Some(budget), ..ProbeEngine::new(oracle, threads) }
    }

    /// Attaches a trace handle so workers can emit causal records: each
    /// worker that claims work within a [`ProbeEngine::prefetch_under`]
    /// batch opens a [`SpanKind::Worker`] span under the caller's
    /// context and emits one [`EventKind::SpeculativeProbe`] per probe
    /// it runs.
    pub fn with_trace(mut self, trace: TraceHandle) -> ProbeEngine<'o, O> {
        self.trace = trace;
        self
    }

    /// Injects `chaos` into every speculative probe, as the search's
    /// own guards inject it into the probes it makes: the draws are
    /// keyed by program text, so a variant faults the same whichever
    /// side probes it.
    pub fn with_chaos(mut self, chaos: Option<ChaosConfig>) -> ProbeEngine<'o, O> {
        self.chaos = chaos;
        self
    }

    fn interrupted(&self) -> bool {
        self.halt.as_ref().is_some_and(Budget::interrupted)
    }

    /// The memo the sequential consumer reads outcomes from.
    pub fn memo(&self) -> &VerdictMemo {
        &self.memo
    }

    /// Configured worker parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Variants handed to workers across all batches so far.
    pub fn prefetched(&self) -> u64 {
        self.prefetched.load(Ordering::Relaxed)
    }

    /// Frontier batches dispatched so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Largest single frontier batch dispatched so far.
    pub fn largest_batch(&self) -> u64 {
        self.largest_batch.load(Ordering::Relaxed)
    }

    /// Worker-side isolated panics so far (speculative probes included).
    pub fn probe_faults(&self) -> u64 {
        self.probe_faults.load(Ordering::Relaxed)
    }

    /// Speculatively evaluates a frontier of variants into the memo and
    /// blocks until every outcome is cached. Each variant is keyed by
    /// its [`program_fingerprint`]; variants already cached (or
    /// duplicated within the frontier) are dispatched once.
    pub fn prefetch(&self, variants: &[Program]) {
        self.prefetch_under(variants, None);
    }

    /// [`ProbeEngine::prefetch`] with an explicit causal parent: when a
    /// trace is attached ([`ProbeEngine::with_trace`]) and `parent` is
    /// the caller's open span, every worker span of this batch opens
    /// under it, so the parallel probes stay attributed to the search
    /// step that caused them. The parent span must stay open for the
    /// duration of the call — trivially true, since prefetch blocks
    /// until the workers join.
    pub fn prefetch_under(&self, variants: &[Program], parent: Option<SpanContext>) {
        if self.interrupted() {
            return;
        }
        let mut seen = HashSet::new();
        let jobs: Vec<(u64, &Program)> = variants
            .iter()
            .map(|p| (program_fingerprint(p), p))
            .filter(|&(key, _)| !self.memo.contains(key) && seen.insert(key))
            .collect();
        if jobs.is_empty() {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.prefetched.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.largest_batch.fetch_max(jobs.len() as u64, Ordering::Relaxed);
        let parent = if self.trace.enabled() { parent } else { None };

        let workers = self.threads.min(jobs.len());
        if workers <= 1 {
            let mut span = parent.map(|ctx| self.open_worker_span(0, ctx));
            self.run_chunk(&jobs, 0..jobs.len(), span.as_mut().map(|(t, _)| t));
            if let Some((mut tracer, id)) = span {
                tracer.close(id);
            }
            return;
        }

        // Deal contiguous index runs to per-worker deques; idle workers
        // steal from the back of a victim's run, so neighbours in the
        // frontier (which often share program structure and cost) tend
        // to stay together.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, queue) in queues.iter().enumerate() {
            let lo = i * jobs.len() / workers;
            let hi = (i + 1) * jobs.len() / workers;
            queue.lock().expect("probe queue poisoned").extend(lo..hi);
        }

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let jobs = &jobs;
                scope.spawn(move || {
                    let mut chunk = Vec::with_capacity(CHUNK);
                    // Opened lazily on the first claimed chunk, so idle
                    // workers leave no empty tracks in the trace.
                    let mut span: Option<(Tracer, u64)> = None;
                    loop {
                        // Poll the run bounds between chunks: a deadline
                        // or cancel drains the queue cooperatively (the
                        // in-flight chunk finishes, the rest is dropped).
                        if self.interrupted() {
                            break;
                        }
                        chunk.clear();
                        take_work(queues, w, &mut chunk);
                        if chunk.is_empty() {
                            break;
                        }
                        if span.is_none() {
                            span = parent.map(|ctx| self.open_worker_span(w, ctx));
                        }
                        self.run_chunk(jobs, chunk.iter().copied(), span.as_mut().map(|(t, _)| t));
                    }
                    if let Some((mut tracer, id)) = span {
                        tracer.close(id);
                    }
                });
            }
        });
    }

    /// Mints a per-worker tracer (worker `w` emits as thread `w + 1`;
    /// thread 0 is the consumer) and opens its batch span under the
    /// caller's cross-thread context.
    fn open_worker_span(&self, w: usize, ctx: SpanContext) -> (Tracer, u64) {
        let w = u32::try_from(w).unwrap_or(u32::MAX - 1);
        let mut tracer = self.trace.thread_tracer(w + 1);
        let id = tracer.open_under(ctx, SpanKind::Worker { index: w });
        (tracer, id)
    }

    /// Probes the `indices` of `jobs`, each under its own panic guard,
    /// and caches the outcomes as unconsumed entries. A panicking probe
    /// is cached as `Faulted` while its chunk-mates keep their real
    /// outcomes — a fault never kills a worker or poisons the memo.
    fn run_chunk(
        &self,
        jobs: &[(u64, &Program)],
        indices: impl IntoIterator<Item = usize>,
        mut tracer: Option<&mut Tracer>,
    ) {
        for i in indices {
            let (key, prog) = jobs[i];
            let clock = Instant::now();
            let outcome = guarded_probe(self.oracle, prog, self.chaos.as_ref());
            let latency_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if outcome.faulted() {
                self.probe_faults.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(t) = tracer.as_mut() {
                let _ = t.event(EventKind::SpeculativeProbe {
                    outcome: outcome.passed(),
                    faulted: outcome.faulted(),
                    latency_ns,
                });
            }
            self.memo.insert(key, outcome, latency_ns, false);
        }
    }
}

/// Claims up to [`CHUNK`] indices for worker `w`: from its own queue's
/// front first, else from the back half of the first non-empty victim.
fn take_work(queues: &[Mutex<VecDeque<usize>>], w: usize, out: &mut Vec<usize>) {
    {
        let mut own = queues[w].lock().expect("probe queue poisoned");
        if !own.is_empty() {
            let n = own.len().min(CHUNK);
            out.extend(own.drain(..n));
            return;
        }
    }
    for offset in 1..queues.len() {
        let victim = (w + offset) % queues.len();
        let mut q = queues[victim].lock().expect("probe queue poisoned");
        if !q.is_empty() {
            let n = q.len().div_ceil(2).min(CHUNK);
            let at = q.len() - n;
            out.extend(q.split_off(at));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::MemoLookup;
    use seminal_ml::parser::parse_program;
    use seminal_typeck::{CountingOracle, ProbeOutcome, TypeCheckOracle};

    #[test]
    fn prefetch_caches_every_variant_once() {
        let oracle = CountingOracle::new(TypeCheckOracle::new());
        let engine = ProbeEngine::new(&oracle, 4);
        let good = parse_program("let x = 1 + 2").unwrap();
        let bad = parse_program("let x = 1 + true").unwrap();
        let variants = vec![good.clone(), bad.clone(), good.clone()];
        engine.prefetch(&variants);
        // The duplicate is dispatched once; re-prefetching adds nothing.
        assert_eq!(oracle.calls(), 2);
        assert_eq!(engine.prefetched(), 2);
        engine.prefetch(&variants);
        assert_eq!(oracle.calls(), 2);
        assert_eq!(engine.batches(), 1);
        assert!(matches!(
            engine.memo().consume(program_fingerprint(&good)),
            MemoLookup::Fresh { outcome: ProbeOutcome::Pass, .. }
        ));
        assert!(matches!(
            engine.memo().consume(program_fingerprint(&bad)),
            MemoLookup::Fresh { outcome: ProbeOutcome::Fail, .. }
        ));
        assert_eq!(engine.memo().unconsumed(), 0);
    }

    /// Panics on any program that binds `boom`; delegates to the real
    /// checker otherwise.
    struct TrapOracle;

    impl Oracle for TrapOracle {
        fn check(&self, prog: &Program) -> Result<(), seminal_typeck::TypeError> {
            let boom = prog.decls.iter().any(|d| d.names().iter().any(|n| n == "boom"));
            assert!(!boom, "chaos: trap oracle tripped");
            TypeCheckOracle::new().check(prog)
        }
    }

    #[test]
    fn a_panicking_probe_is_cached_as_faulted_without_killing_its_chunk() {
        let oracle = TrapOracle;
        let engine = ProbeEngine::new(&oracle, 4);
        let good = parse_program("let x = 1 + 2").unwrap();
        let bad = parse_program("let x = 1 + true").unwrap();
        let trap = parse_program("let boom = 0").unwrap();
        engine.prefetch(&[good.clone(), trap.clone(), bad.clone()]);

        assert_eq!(engine.probe_faults(), 1, "exactly the trapped probe faulted");
        let consume = |p: &Program| engine.memo().consume(program_fingerprint(p));
        assert!(matches!(consume(&good), MemoLookup::Fresh { outcome: ProbeOutcome::Pass, .. }));
        assert!(matches!(consume(&trap), MemoLookup::Fresh { outcome: ProbeOutcome::Faulted, .. }));
        assert!(matches!(consume(&bad), MemoLookup::Fresh { outcome: ProbeOutcome::Fail, .. }));
        // A faulted entry re-reads as a hit like any other (the fault is
        // memoized, not recomputed).
        assert!(matches!(consume(&trap), MemoLookup::Hit { outcome: ProbeOutcome::Faulted, .. }));
    }

    #[test]
    fn traced_prefetch_attributes_worker_probes_to_the_caller_span() {
        use seminal_obs::{check_invariants, MemorySink, TraceRecord};
        let sink = std::sync::Arc::new(MemorySink::new(4096));
        let mut tracer = Tracer::new(vec![sink.clone()]);
        let root = tracer.open(SpanKind::Search);
        let oracle = TypeCheckOracle::new();
        let engine = ProbeEngine::new(&oracle, 4).with_trace(tracer.handle());
        let variants: Vec<Program> =
            (0..32).map(|i| parse_program(&format!("let v{i} = {i}")).unwrap()).collect();
        engine.prefetch_under(&variants, tracer.context());
        tracer.close(root);
        let records = sink.drain();
        check_invariants(&records).expect("engine records keep the stream valid");
        let mut worker_spans = 0;
        for rec in &records {
            if let TraceRecord::Open { kind: SpanKind::Worker { .. }, parent, .. } = rec {
                worker_spans += 1;
                assert_eq!(*parent, Some(root), "worker spans hang under the caller's span");
            }
        }
        assert!(worker_spans >= 1, "at least one worker claimed work");
        let probes = records
            .iter()
            .filter(|r| {
                matches!(r, TraceRecord::Event { kind: EventKind::SpeculativeProbe { .. }, .. })
            })
            .count() as u64;
        assert_eq!(probes, engine.prefetched(), "one speculative event per prefetched probe");
        // An untraced engine (no handle attached) emits nothing even
        // when handed a context.
        let silent = ProbeEngine::new(&oracle, 4);
        let more: Vec<Program> =
            (32..40).map(|i| parse_program(&format!("let v{i} = {i}")).unwrap()).collect();
        let mut tracer2 = Tracer::new(vec![sink.clone()]);
        let root2 = tracer2.open(SpanKind::Search);
        silent.prefetch_under(&more, tracer2.context());
        tracer2.close(root2);
        assert_eq!(sink.drain().len(), 2, "only the open/close pair from the consumer");
    }

    #[test]
    fn an_interrupted_engine_drops_pending_work_but_joins_cleanly() {
        use crate::budget::SearchHandle;
        let handle = SearchHandle::new();
        let oracle = CountingOracle::new(TypeCheckOracle::new());
        let budget = Budget::start(u64::MAX, None, handle.flag());
        let engine = ProbeEngine::with_halt(&oracle, 4, budget);
        handle.cancel();
        let variants: Vec<Program> =
            (0..64).map(|i| parse_program(&format!("let v{i} = {i}")).unwrap()).collect();
        engine.prefetch(&variants);
        assert_eq!(oracle.calls(), 0, "a cancelled engine dispatches nothing");
        assert!(engine.memo().is_empty());
    }

    #[test]
    fn work_stealing_drains_unbalanced_queues() {
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..3).map(|_| Mutex::new(VecDeque::new())).collect();
        queues[0].lock().unwrap().extend(0..20);
        let mut claimed = Vec::new();
        // Worker 2 owns nothing and must steal from worker 0's back.
        let mut chunk = Vec::new();
        take_work(&queues, 2, &mut chunk);
        assert!(!chunk.is_empty() && chunk.iter().all(|&i| i >= 10), "steals from the back half");
        claimed.extend(chunk.clone());
        loop {
            chunk.clear();
            take_work(&queues, 1, &mut chunk);
            if chunk.is_empty() {
                break;
            }
            claimed.extend(chunk.clone());
        }
        claimed.sort_unstable();
        claimed.dedup();
        assert_eq!(claimed.len(), 20, "every job is claimed exactly once");
    }
}
