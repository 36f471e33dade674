//! The C++ searcher (§4.2).
//!
//! Differences from the Caml searcher, as the paper describes them:
//!
//! * search is confined to the function containing the first error (C++
//!   is explicitly typed elsewhere);
//! * removal/adaptation use `magicFun`, which fails wherever the return
//!   type cannot be resolved from context — so statement deletion and
//!   *hoisting* (`e0(e1, e2);` → `voidMagic(e1); voidMagic(e2);`) pick up
//!   the slack;
//! * success means "eliminates some errors while introducing no new
//!   ones", an implicit form of triage over cascading error lists;
//! * constructive changes include STL-specific ones, chiefly wrapping and
//!   unwrapping `ptr_fun` (Figure 10's fix).
//!
//! Unlike the Caml searcher's verdict-driven recursion, the C++ search
//! is a *flat* enumeration: every candidate change is known up front
//! and no probe depends on another's verdict. The search collects every
//! pending probe, then checks them in enumeration order.

use crate::ast::*;
use crate::check::{check, CppError};
use crate::edit::{remove_stmt, replace_expr, replace_stmt};
use seminal_core::ConfigError;
use seminal_ml::span::Span;
use seminal_obs::{
    Completion, EventKind, Histogram, MetricsSnapshot, ProbeKind, SpanKind, SplitMix64, SrcSpan,
    TraceSink, Tracer, INJECTED_PANIC,
};
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The class of a C++ suggestion, ranked in this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CppChangeKind {
    /// A specific rewrite (e.g. "wrap the argument in ptr_fun").
    Constructive(String),
    /// `e` → `magicFun(e)`.
    Adaptation,
    /// `e` → `magicFun(0)`.
    Removal,
    /// Delete or hoist a whole statement.
    Statement(String),
}

impl CppChangeKind {
    fn class(&self) -> u8 {
        match self {
            CppChangeKind::Constructive(_) => 0,
            CppChangeKind::Adaptation => 1,
            CppChangeKind::Removal => 2,
            CppChangeKind::Statement(_) => 3,
        }
    }
}

/// One candidate message.
#[derive(Debug, Clone)]
pub struct CppSuggestion {
    pub kind: CppChangeKind,
    pub span: Span,
    pub original: String,
    pub replacement: String,
    /// Errors in the original program.
    pub errors_before: usize,
    /// Errors remaining after the change (0 = complete fix).
    pub errors_after: usize,
    /// Node count of the replaced fragment (ranking).
    size: usize,
}

impl CppSuggestion {
    /// Renders the suggestion as an Eclipse-style quick fix (§4.3).
    pub fn render(&self) -> String {
        let status = if self.errors_after == 0 {
            "fixes all errors".to_owned()
        } else {
            format!("leaves {} of {} errors", self.errors_after, self.errors_before)
        };
        format!("Try replacing `{}` with `{}` ({status})", self.original, self.replacement)
    }
}

/// Search output plus the baseline gcc-style diagnostics.
#[derive(Debug, Clone)]
pub struct CppReport {
    /// Ranked suggestions, best first (empty if the program is fine or
    /// nothing helped).
    pub suggestions: Vec<CppSuggestion>,
    /// The conventional compiler's full cascade.
    pub baseline: Vec<CppError>,
    /// How the run ended; whatever the completion, `suggestions` is the
    /// ranked best-so-far set (same contract as the Caml search).
    pub completion: Completion,
    /// Type-checker invocations.
    pub oracle_calls: u64,
    /// Probes whose check panicked and was isolated (never accepted as
    /// suggestions, never counted as oracle calls).
    pub probe_faults: u64,
    /// Wall-clock duration of the search.
    pub elapsed: Duration,
    /// Aggregate counters and latency histogram (same schema as the Caml
    /// search's [`seminal_obs`] metrics).
    pub metrics: MetricsSnapshot,
}

impl CppReport {
    /// The top-ranked suggestion.
    pub fn best(&self) -> Option<&CppSuggestion> {
        self.suggestions.first()
    }

    /// The user-visible payload: every suggestion in rank order with the
    /// fields its quick-fix line renders from plus the residual error
    /// counts — the unit of comparison for the differential fuzz loop's
    /// fuzz loop (mirrors the Caml report's `payload`).
    pub fn payload(&self) -> Vec<(String, String, usize, usize)> {
        self.suggestions
            .iter()
            .map(|s| (s.original.clone(), s.replacement.clone(), s.errors_before, s.errors_after))
            .collect()
    }
}

/// One enumerated change awaiting its verdict: the variant program plus
/// everything the fold needs to classify, trace, and report it.
struct PendingProbe {
    variant: CProgram,
    kind: CppChangeKind,
    span: Span,
    original: String,
    replacement: String,
    size: usize,
}

/// A checked probe: the variant's full error cascade and the check's
/// wall-clock cost. `faulted` marks a probe whose check panicked (the
/// panic was isolated; the probe can never be accepted).
struct Verdict {
    errors: Vec<CppError>,
    latency_ns: u64,
    faulted: bool,
}

/// Per-search bookkeeping for the fold phase: outcome classification
/// plus trace events and metric counters, mirroring the Caml searcher's
/// `Run`.
struct ProbeCtx<'a> {
    before: &'a HashSet<String>,
    n_before: usize,
    calls: u64,
    /// Probes whose check panicked and was isolated.
    probe_faults: u64,
    /// Probes never evaluated because the deadline expired first.
    skipped: u64,
    tracer: Tracer,
    latency: Histogram,
    probes: [u64; ProbeKind::METRIC_KEYS.len()],
    suggestions: Vec<CppSuggestion>,
}

impl ProbeCtx<'_> {
    /// Folds one verdict in enumeration order; a probe "succeeds" when
    /// it eliminates some errors while introducing no new ones (§4.2's
    /// implicit triage). A faulted probe is tallied but can never be
    /// accepted — an isolated panic must not read as "fixes all errors".
    fn fold(&mut self, probe: PendingProbe, verdict: Verdict) {
        if verdict.faulted {
            self.probe_faults += 1;
        } else {
            self.calls += 1;
        }
        let after: HashSet<String> = verdict.errors.iter().map(CppError::key).collect();
        let introduces_new = after.iter().any(|k| !self.before.contains(k));
        let accepted = !verdict.faulted && verdict.errors.len() < self.n_before && !introduces_new;
        let kind = match &probe.kind {
            CppChangeKind::Constructive(d) => ProbeKind::Constructive { family: d.clone() },
            CppChangeKind::Adaptation => ProbeKind::Adaptation,
            CppChangeKind::Removal => ProbeKind::Removal,
            CppChangeKind::Statement(_) => ProbeKind::Statement,
        };
        self.probes[kind.metric_index()] += 1;
        if !verdict.faulted {
            self.latency.observe(verdict.latency_ns);
        }
        if self.tracer.enabled() {
            let _ = self.tracer.event(EventKind::OracleProbe {
                probe: kind,
                target: probe.original.clone(),
                span: SrcSpan::new(probe.span.start, probe.span.end),
                outcome: accepted,
                cached: false,
                faulted: verdict.faulted,
                latency_ns: verdict.latency_ns,
            });
        }
        if accepted {
            self.suggestions.push(CppSuggestion {
                kind: probe.kind,
                span: probe.span,
                original: probe.original,
                replacement: probe.replacement,
                errors_before: self.n_before,
                errors_after: verdict.errors.len(),
                size: probe.size,
            });
        }
    }
}

/// Deterministic fault injection for the C++ searcher's chaos tests.
///
/// The C++ checker is built in (no oracle object to wrap), so injection
/// hangs off the session instead: probe `index` in the flat enumeration
/// panics when its seeded draw lands under `panic_per_mille`. The
/// decision is a pure function of `(seed, index)` — the enumeration
/// order is fixed before any verdict exists — so the injected fault set
/// is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CppChaos {
    /// Mixed into every draw; two seeds give independent fault sets.
    pub seed: u64,
    /// Panic probability per probe, in thousandths (100 = 10%).
    pub panic_per_mille: u16,
}

impl CppChaos {
    /// Whether probe `index` is chosen to panic under this seed: the
    /// first draw of a SplitMix64 stream whose start is `index` steps of
    /// the generator past `seed`, so consecutive indices draw
    /// well-mixed, independent values.
    pub fn would_panic(&self, index: usize) -> bool {
        let start = self.seed.wrapping_add((index as u64).wrapping_mul(SplitMix64::GAMMA));
        SplitMix64::seed_from_u64(start).next_u64() % 1000 < u64::from(self.panic_per_mille)
    }
}

/// The C++ search pipeline, mirroring the ML side's
/// `SearchSession::builder(...).sink(s).build()` shape (the checker is
/// built in, so no oracle argument).
pub struct CppSearchSession {
    deadline: Option<Duration>,
    chaos: Option<CppChaos>,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl fmt::Debug for CppSearchSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CppSearchSession")
            .field("deadline", &self.deadline)
            .field("chaos", &self.chaos)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl CppSearchSession {
    /// Starts a builder with no deadline.
    pub fn builder() -> CppSearchSessionBuilder {
        CppSearchSessionBuilder { deadline: None, chaos: None, sinks: Vec::new() }
    }

    /// Runs the C++ search on `prog`.
    pub fn search(&self, prog: &CProgram) -> CppReport {
        search_cpp_impl(prog, self.deadline, self.chaos, &self.sinks)
    }
}

/// Fluent constructor for [`CppSearchSession`].
pub struct CppSearchSessionBuilder {
    deadline: Option<Duration>,
    chaos: Option<CppChaos>,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl fmt::Debug for CppSearchSessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CppSearchSessionBuilder")
            .field("deadline", &self.deadline)
            .field("chaos", &self.chaos)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl CppSearchSessionBuilder {
    /// Wall-clock deadline per search (`None` = unbounded; validated
    /// non-zero at build). When it expires, remaining probes are skipped
    /// and the report says `Completion::DeadlineExpired` with whatever
    /// suggestions the evaluated prefix produced.
    #[must_use]
    pub fn deadline(mut self, limit: Option<Duration>) -> Self {
        self.deadline = limit;
        self
    }

    /// Convenience for [`CppSearchSessionBuilder::deadline`] in
    /// milliseconds, matching the CLI's `--deadline-ms`.
    #[must_use]
    pub fn deadline_ms(self, ms: u64) -> Self {
        self.deadline(Some(Duration::from_millis(ms)))
    }

    /// Enables deterministic fault injection (chaos tests only).
    #[must_use]
    pub fn chaos(mut self, chaos: CppChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Attaches a trace sink; every search streams its records into it.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Validates and assembles the session.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroDeadline`] when `deadline == Some(0)`.
    pub fn build(self) -> Result<CppSearchSession, ConfigError> {
        if self.deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDeadline);
        }
        Ok(CppSearchSession { deadline: self.deadline, chaos: self.chaos, sinks: self.sinks })
    }
}

/// Runs the C++ search with the default session; to attach trace sinks,
/// build a session with [`CppSearchSession::builder`].
pub fn search_cpp(prog: &CProgram) -> CppReport {
    search_cpp_impl(prog, None, None, &[])
}

/// Checks probe `index` of the flat enumeration. The check runs under
/// `catch_unwind`, so a panicking probe yields a `faulted` verdict
/// instead of ending the search.
fn check_probe(index: usize, probe: &PendingProbe, chaos: Option<CppChaos>) -> Verdict {
    let clock = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if chaos.is_some_and(|c| c.would_panic(index)) {
            panic!("{INJECTED_PANIC} injected C++ checker panic");
        }
        check(&probe.variant)
    }));
    let latency_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match result {
        Ok(errors) => Verdict { errors, latency_ns, faulted: false },
        Err(_) => Verdict { errors: Vec::new(), latency_ns, faulted: true },
    }
}

fn search_cpp_impl(
    prog: &CProgram,
    deadline: Option<Duration>,
    chaos: Option<CppChaos>,
    sinks: &[Arc<dyn TraceSink>],
) -> CppReport {
    let start = Instant::now();
    // An unrepresentable deadline (absurdly large limit) means unbounded.
    let deadline = deadline.and_then(|d| Instant::now().checked_add(d));
    let mut tracer = Tracer::new(sinks.to_vec());
    let root = tracer.open(SpanKind::Search);
    let clock = Instant::now();
    // The baseline always runs, and a panicking checker is isolated into
    // a synthetic diagnostic so the caller still gets a report.
    let (baseline, baseline_faulted) = match catch_unwind(AssertUnwindSafe(|| check(prog))) {
        Ok(errors) => (errors, false),
        Err(_) => (
            vec![CppError {
                message: "the checker faulted on this program (internal error isolated)".to_owned(),
                site: Span::DUMMY,
                chain: Vec::new(),
            }],
            true,
        ),
    };
    let baseline_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let before: HashSet<String> = baseline.iter().map(CppError::key).collect();
    let mut ctx = ProbeCtx {
        before: &before,
        n_before: baseline.len(),
        calls: u64::from(!baseline_faulted),
        probe_faults: u64::from(baseline_faulted),
        skipped: 0,
        tracer,
        latency: Histogram::default(),
        probes: [0; ProbeKind::METRIC_KEYS.len()],
        suggestions: Vec::new(),
    };
    ctx.probes[ProbeKind::Baseline.metric_index()] += 1;
    if !baseline_faulted {
        ctx.latency.observe(baseline_ns);
    }
    if ctx.tracer.enabled() {
        let _ = ctx.tracer.event(EventKind::OracleProbe {
            probe: ProbeKind::Baseline,
            target: String::new(),
            span: SrcSpan::EMPTY,
            outcome: baseline.is_empty(),
            cached: false,
            faulted: baseline_faulted,
            latency_ns: baseline_ns,
        });
    }
    if baseline.is_empty() {
        ctx.tracer.close(root);
        let metrics = cpp_metrics(&ctx, 0, Completion::Complete);
        return CppReport {
            suggestions: Vec::new(),
            baseline,
            completion: Completion::Complete,
            oracle_calls: ctx.calls,
            probe_faults: ctx.probe_faults,
            elapsed: start.elapsed(),
            metrics,
        };
    }

    // Focus on the function containing the first error (§4.2).
    let first_site = baseline[0].site;
    let focus = prog
        .fns
        .iter()
        .position(|f| f.span.contains(first_site) || f.tparams.is_empty())
        .unwrap_or(0);
    let focus_fn = prog.fns[focus].clone();

    // Phase 1: collect the whole probe frontier. No probe's membership
    // depends on another's verdict, so enumeration is verdict-free.
    let mut pending: Vec<PendingProbe> = Vec::new();

    // --- statement-level changes ---------------------------------------
    for stmt in &focus_fn.body {
        pending.push(PendingProbe {
            variant: remove_stmt(prog, stmt.id),
            kind: CppChangeKind::Statement("delete the statement".into()),
            span: stmt.span,
            original: stmt.to_string(),
            replacement: String::new(),
            size: 1,
        });
        // Hoisting: `e0(e1, …);` → `voidMagic(e1); …` to localize which
        // argument carries the errors.
        if let CStmtKind::Expr(e) = &stmt.kind {
            if let CExprKind::Call { args, .. } = &e.kind {
                let hoisted: Vec<CStmt> = args
                    .iter()
                    .map(|a| CStmt {
                        id: CId::SYNTH,
                        span: Span::DUMMY,
                        kind: CStmtKind::Expr(CExpr::synth(
                            CExprKind::Call {
                                callee: Box::new(CExpr::synth(
                                    CExprKind::Var("voidMagic".into()),
                                    Span::DUMMY,
                                )),
                                args: vec![a.clone()],
                            },
                            Span::DUMMY,
                        )),
                    })
                    .collect();
                pending.push(PendingProbe {
                    variant: replace_stmt(prog, stmt.id, hoisted),
                    kind: CppChangeKind::Statement("hoist the call's arguments".into()),
                    span: stmt.span,
                    original: stmt.to_string(),
                    replacement: "voidMagic(…); …".into(),
                    size: 1,
                });
            }
        }
    }

    // --- expression-level changes ---------------------------------------
    let mut nodes: Vec<CExpr> = Vec::new();
    focus_fn.for_each_expr(&mut |e| nodes.push(e.clone()));
    for node in &nodes {
        let span = node.span;
        let original = node.to_string();
        let size = node.size();

        // Removal: magicFun(0).
        pending.push(PendingProbe {
            variant: replace_expr(prog, node.id, CExpr::synth(CExprKind::Magic, Span::DUMMY)),
            kind: CppChangeKind::Removal,
            span,
            original: original.clone(),
            replacement: "magicFun(0)".into(),
            size,
        });

        // Adaptation: magicFun(e).
        if !matches!(node.kind, CExprKind::Magic | CExprKind::MagicAdapt(_)) {
            let adapted = replace_expr(
                prog,
                node.id,
                CExpr::synth(CExprKind::MagicAdapt(Box::new(node.clone())), Span::DUMMY),
            );
            pending.push(PendingProbe {
                variant: adapted,
                kind: CppChangeKind::Adaptation,
                span,
                original: original.clone(),
                replacement: format!("magicFun({original})"),
                size,
            });
        }

        // Constructive: wrap in ptr_fun.
        if !matches!(&node.kind, CExprKind::Call { callee, .. }
            if matches!(&callee.kind, CExprKind::Var(n) if n == "ptr_fun"))
        {
            let wrapped = replace_expr(
                prog,
                node.id,
                CExpr::synth(
                    CExprKind::Call {
                        callee: Box::new(CExpr::synth(
                            CExprKind::Var("ptr_fun".into()),
                            Span::DUMMY,
                        )),
                        args: vec![node.clone()],
                    },
                    Span::DUMMY,
                ),
            );
            pending.push(PendingProbe {
                variant: wrapped,
                kind: CppChangeKind::Constructive("wrap the expression in ptr_fun".into()),
                span,
                original: original.clone(),
                replacement: format!("ptr_fun({original})"),
                size,
            });
        }

        // Constructive: unwrap ptr_fun.
        if let CExprKind::Call { callee, args } = &node.kind {
            if matches!(&callee.kind, CExprKind::Var(n) if n == "ptr_fun") && args.len() == 1 {
                pending.push(PendingProbe {
                    variant: replace_expr(prog, node.id, args[0].clone()),
                    kind: CppChangeKind::Constructive("remove the ptr_fun wrapper".into()),
                    span,
                    original: original.clone(),
                    replacement: args[0].to_string(),
                    size,
                });
            }
        }

        // Constructive: `->` ↔ `.`.
        if let CExprKind::Member { obj, name, arrow } = &node.kind {
            let flipped = CExpr::synth(
                CExprKind::Member { obj: obj.clone(), name: name.clone(), arrow: !arrow },
                Span::DUMMY,
            );
            let desc = if *arrow { "use `.` instead of `->`" } else { "use `->` instead of `.`" };
            let replacement = flipped.to_string();
            pending.push(PendingProbe {
                variant: replace_expr(prog, node.id, flipped),
                kind: CppChangeKind::Constructive(desc.into()),
                span,
                original: original.clone(),
                replacement,
                size,
            });
        }

        // Constructive: `p->m(args)` → `p.m(args)` (Figure 3's C++ row:
        // switching `e->f` and `e.f`).
        if let CExprKind::Call { callee, args } = &node.kind {
            if let CExprKind::Member { obj, name, arrow: true } = &callee.kind {
                let as_method = CExpr::synth(
                    CExprKind::Method { obj: obj.clone(), name: name.clone(), args: args.clone() },
                    Span::DUMMY,
                );
                let replacement = as_method.to_string();
                pending.push(PendingProbe {
                    variant: replace_expr(prog, node.id, as_method),
                    kind: CppChangeKind::Constructive("use `.` instead of `->`".into()),
                    span,
                    original: original.clone(),
                    replacement,
                    size,
                });
            }
        }

        // Constructive: reorder / drop call arguments.
        if let CExprKind::Call { callee, args } = &node.kind {
            if args.len() >= 2 && args.len() <= 4 {
                let mut reversed = args.clone();
                reversed.reverse();
                let flipped = CExpr::synth(
                    CExprKind::Call { callee: callee.clone(), args: reversed },
                    Span::DUMMY,
                );
                let replacement = flipped.to_string();
                pending.push(PendingProbe {
                    variant: replace_expr(prog, node.id, flipped),
                    kind: CppChangeKind::Constructive("reverse the call's arguments".into()),
                    span,
                    original: original.clone(),
                    replacement,
                    size,
                });
            }
            if args.len() >= 2 {
                for i in 0..args.len() {
                    let mut fewer = args.clone();
                    fewer.remove(i);
                    let shrunk = CExpr::synth(
                        CExprKind::Call { callee: callee.clone(), args: fewer },
                        Span::DUMMY,
                    );
                    let replacement = shrunk.to_string();
                    pending.push(PendingProbe {
                        variant: replace_expr(prog, node.id, shrunk),
                        kind: CppChangeKind::Constructive(format!(
                            "remove argument {} from the call",
                            i + 1
                        )),
                        span,
                        original: original.clone(),
                        replacement,
                        size,
                    });
                }
            }
        }
    }

    // Check the frontier in enumeration order. Once the deadline passes,
    // every remaining probe is skipped.
    for (i, probe) in pending.into_iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            ctx.skipped += 1;
            continue;
        }
        let verdict = check_probe(i, &probe, chaos);
        ctx.fold(probe, verdict);
    }

    // Rank: complete fixes first, then class, then smaller fragments.
    let mut suggestions = std::mem::take(&mut ctx.suggestions);
    suggestions.sort_by(|a, b| {
        (a.errors_after > 0)
            .cmp(&(b.errors_after > 0))
            .then(a.kind.class().cmp(&b.kind.class()))
            .then(a.errors_after.cmp(&b.errors_after))
            .then(a.size.cmp(&b.size))
            .then(a.span.start.cmp(&b.span.start))
    });
    // Deduplicate identical rewrites found at different stages.
    let mut seen = HashSet::new();
    suggestions.retain(|s| seen.insert((s.span, s.replacement.clone())));

    ctx.tracer.close(root);
    // Mirrors the Caml search's precedence: a deadline (the only reason
    // probes are skipped here) outranks degradation by faults.
    let completion = if ctx.skipped > 0 {
        Completion::DeadlineExpired
    } else if ctx.probe_faults > 0 {
        Completion::Degraded { faults: ctx.probe_faults }
    } else {
        Completion::Complete
    };
    let metrics = cpp_metrics(&ctx, suggestions.len() as u64, completion);
    CppReport {
        suggestions,
        baseline,
        completion,
        oracle_calls: ctx.calls,
        probe_faults: ctx.probe_faults,
        elapsed: start.elapsed(),
        metrics,
    }
}

/// Folds the probe context into the stable metrics snapshot schema.
fn cpp_metrics(ctx: &ProbeCtx<'_>, suggestions: u64, completion: Completion) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    snap.counters.insert("oracle_calls".to_owned(), ctx.calls);
    snap.counters.insert("probe_faults".to_owned(), ctx.probe_faults);
    snap.counters.insert("completion".to_owned(), completion.metric_code());
    if ctx.skipped > 0 {
        snap.counters.insert("deadline_skipped".to_owned(), ctx.skipped);
    }
    snap.counters.insert("errors_before".to_owned(), ctx.n_before as u64);
    snap.counters.insert("suggestions".to_owned(), suggestions);
    for (i, &n) in ctx.probes.iter().enumerate() {
        if n > 0 {
            snap.counters.insert(format!("probes.{}", ProbeKind::METRIC_KEYS[i]), n);
        }
    }
    if ctx.latency.count > 0 {
        snap.histograms.insert("oracle.latency_ns".to_owned(), ctx.latency.clone());
    }
    snap
}
