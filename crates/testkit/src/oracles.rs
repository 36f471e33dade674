//! The differential invariant catalog.
//!
//! Each oracle is a pure check over search reports (plus, where needed,
//! a fresh run of the real type-checker), returning `None` when the
//! invariant holds. [`InvariantSuite::check_case`] runs the whole
//! catalog against one program: it performs the guided, unguided and
//! opposite-oracle-mode searches itself so the individual oracles stay
//! unit-testable on hand-built reports.
//!
//! The catalog (names are the stable identifiers used in JSONL failure
//! artifacts and the golden-corpus manifest):
//!
//! | invariant | claim |
//! |---|---|
//! | `suggestion-revalidates` | every reported suggestion's variant re-typechecks under a fresh, chaos-free oracle |
//! | `outcome-agreement` | the report says `WellTyped` iff a fresh oracle accepts the input |
//! | `pretty-roundtrip` | pretty-print → reparse → pretty-print is a fixpoint of the input |
//! | `blame-agreement` | blame-guided and unguided search accept the same suggestion set |
//! | `backend-agreement` | the blame and MCS localization backends agree on well-typedness, baseline error, and core size; every MCS subset hits the blame core and its removal replays to SAT |
//! | `completion-consistency` | `Completion` agrees with the stats that justify it |
//! | `incremental-scratch-identity` | the checkpointed incremental oracle and a from-scratch oracle produce byte-identical payloads, ranks, and probe accounting |
//! | `warm-twin-identity` | a layout twin searched through a memo its original warmed reports what it reports cold: baseline, payload, completion, oracle calls |

use seminal_core::{
    Oracle, Outcome, SearchConfig, SearchReport, SearchSession, SharedMemoOracle, VerdictMemo,
};
use seminal_ml::ast::Program;
use seminal_ml::parser::parse_program;
use seminal_ml::pretty::program_to_string;
use seminal_obs::Completion;
use seminal_typeck::{check_program, ChaosConfig, CheckpointedOracle, TypeCheckOracle};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Stable identifier: suggestions re-typecheck under a fresh oracle.
pub const INV_SUGGESTION_REVALIDATES: &str = "suggestion-revalidates";
/// Stable identifier: `WellTyped` verdicts agree with a fresh oracle.
pub const INV_OUTCOME_AGREEMENT: &str = "outcome-agreement";
/// Stable identifier: pretty-print → reparse fixpoint.
pub const INV_PRETTY_ROUNDTRIP: &str = "pretty-roundtrip";
/// Stable identifier: guided/unguided suggestion-set agreement.
pub const INV_BLAME_AGREEMENT: &str = "blame-agreement";
/// Stable identifier: blame/MCS localization-backend agreement.
pub const INV_BACKEND_AGREEMENT: &str = "backend-agreement";
/// Stable identifier: `Completion` vs stats consistency.
pub const INV_COMPLETION_CONSISTENCY: &str = "completion-consistency";
/// Stable identifier: incremental vs from-scratch oracle identity.
pub const INV_INCREMENTAL_SCRATCH_IDENTITY: &str = "incremental-scratch-identity";
/// Stable identifier: a warm shared memo answers a layout twin cold.
pub const INV_WARM_TWIN_IDENTITY: &str = "warm-twin-identity";

/// Every invariant name, in catalog order.
pub const ALL_INVARIANTS: &[&str] = &[
    INV_SUGGESTION_REVALIDATES,
    INV_OUTCOME_AGREEMENT,
    INV_PRETTY_ROUNDTRIP,
    INV_BLAME_AGREEMENT,
    INV_BACKEND_AGREEMENT,
    INV_COMPLETION_CONSISTENCY,
    INV_INCREMENTAL_SCRATCH_IDENTITY,
    INV_WARM_TWIN_IDENTITY,
];

/// One invariant violation: which oracle fired and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The catalog identifier (one of the `INV_*` constants).
    pub invariant: &'static str,
    /// Human-readable evidence for the triage log.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, detail: impl Into<String>) -> Violation {
        Violation { invariant, detail: detail.into() }
    }
}

/// The configured catalog runner: what chaos (if any) the *searches*
/// inject at their oracle guards, and which oracle mode they use. The
/// revalidation oracle is always fresh and chaos-free — that asymmetry
/// is what lets injected verdict flips be caught.
#[derive(Debug, Clone, Copy)]
pub struct InvariantSuite {
    /// Optional fault injection into the searches' oracle calls only.
    pub chaos: Option<ChaosConfig>,
    /// Whether the primary runs use the checkpointed incremental oracle
    /// (the shipping default) or the from-scratch path. Either way the
    /// `incremental-scratch-identity` differential runs both modes and
    /// compares them.
    pub incremental: bool,
}

impl Default for InvariantSuite {
    fn default() -> InvariantSuite {
        InvariantSuite::new()
    }
}

impl InvariantSuite {
    /// A clean suite over the incremental oracle.
    pub fn new() -> InvariantSuite {
        InvariantSuite { chaos: None, incremental: true }
    }

    /// Injects `chaos` into the searches (not the revalidation oracle).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> InvariantSuite {
        self.chaos = Some(chaos);
        self
    }

    /// Selects the primary runs' oracle mode (incremental or scratch).
    pub fn with_incremental(mut self, incremental: bool) -> InvariantSuite {
        self.incremental = incremental;
        self
    }

    /// One search run in the suite's own oracle mode.
    fn run(&self, prog: &Program, guidance: bool) -> SearchReport {
        self.run_mode(prog, guidance, self.incremental)
    }

    /// One search run. Deadline is pinned off so fuzz results never
    /// depend on an ambient `SEMINAL_DEADLINE_MS` setting. Chaos, when
    /// configured, is injected at the search's oracle guards — injection
    /// decisions are a pure function of rendered text and seed, so they
    /// are identical in both oracle modes.
    fn run_mode(&self, prog: &Program, guidance: bool, incremental: bool) -> SearchReport {
        let mut config =
            if guidance { SearchConfig::default() } else { SearchConfig::without_blame_guidance() };
        config.deadline = None;
        self.session(&*checker(incremental), config).search(prog)
    }

    /// A session over `oracle` with `config` and the suite's chaos.
    fn session<O: Oracle>(&self, oracle: O, config: SearchConfig) -> SearchSession<O> {
        let mut builder = SearchSession::builder(oracle).config(config);
        if let Some(chaos) = self.chaos {
            builder = builder.chaos(chaos);
        }
        builder.build().expect("fuzz search config is valid")
    }

    /// A warm cross-request memo must be invisible. The twin is the
    /// printed program with a comment line in front: it shares every
    /// memo key with the original while every span moves. Searched
    /// through one shared [`VerdictMemo`] right after the original, as a
    /// daemon would answer the two, the twin must report what it
    /// reports cold: the same baseline error, payload, completion and
    /// `oracle_calls`. Under chaos both draw the same faults (the
    /// decisions are keyed by the printed text, which the comment does
    /// not change), and the memo, below the injection, holds only clean
    /// outcomes.
    pub fn warm_twin_identity(&self, prog: &Program) -> Option<Violation> {
        let printed = program_to_string(prog);
        // A printed program that does not reparse is `pretty-roundtrip`'s.
        let original = parse_program(&printed).ok()?;
        let twin = parse_program(&format!("(* layout twin *)\n{printed}")).ok()?;
        // Deadline-free searches in the daemon's configuration.
        let config = SearchConfig { deadline: None, ..SearchConfig::default() };
        let cold = self.session(&*checker(self.incremental), config.clone()).search(&twin);
        let memo = Arc::new(VerdictMemo::bounded(seminal_core::DEFAULT_CROSS_MEMO_CAPACITY));
        let warm_search = |prog: &Program| {
            let checker = checker(self.incremental);
            let oracle = SharedMemoOracle::new(&*checker, memo.clone());
            self.session(oracle, config.clone()).search(prog)
        };
        warm_search(&original);
        let warm = warm_search(&twin);
        let seen = |r: &SearchReport| {
            (r.baseline.clone(), r.payload(), r.completion, r.stats.oracle_calls)
        };
        let (warm, cold) = (seen(&warm), seen(&cold));
        (warm != cold).then(|| {
            Violation::new(
                INV_WARM_TWIN_IDENTITY,
                format!(
                    "warm twin differs from cold (baseline, payload, completion, oracle_calls): \
                     {warm:?} vs {cold:?}"
                ),
            )
        })
    }

    /// Runs the whole catalog against `prog`, returning every violation
    /// (empty when all invariants hold).
    pub fn check_case(&self, prog: &Program) -> Vec<Violation> {
        let base = self.run(prog, true);
        let unguided = self.run(prog, false);
        // The incremental-vs-scratch differential: one extra run in the
        // *opposite* oracle mode, compared against `base`.
        let other = self.run_mode(prog, true, !self.incremental);
        let (incr, scratch) = if self.incremental { (&base, &other) } else { (&other, &base) };
        let mut out = Vec::new();
        out.extend(outcome_agreement(prog, &base));
        out.extend(suggestion_revalidates(&base));
        out.extend(pretty_roundtrip(prog));
        out.extend(blame_agreement(&base, &unguided));
        out.extend(backend_agreement(prog));
        out.extend(completion_consistency(&base));
        out.extend(incremental_scratch_identity(incr, scratch));
        out.extend(self.warm_twin_identity(prog));
        out
    }
}

/// A fresh checker: the checkpointed incremental oracle, or the
/// from-scratch one.
fn checker(incremental: bool) -> Box<dyn Oracle> {
    if incremental {
        Box::new(CheckpointedOracle::new())
    } else {
        Box::new(TypeCheckOracle::new())
    }
}

/// Every reported suggestion's variant must re-typecheck under a fresh
/// [`TypeCheckOracle`] — the paper's core promise. A memo bug or an
/// injected verdict flip surfaces here.
pub fn suggestion_revalidates(report: &SearchReport) -> Option<Violation> {
    for (rank, s) in report.suggestions().iter().enumerate() {
        if check_program(&s.variant).is_err() {
            return Some(Violation::new(
                INV_SUGGESTION_REVALIDATES,
                format!(
                    "rank-{rank} suggestion `{}` -> `{}` does not re-typecheck",
                    s.original_str, s.replacement_str
                ),
            ));
        }
    }
    None
}

/// The report may claim `WellTyped` only when a fresh oracle agrees
/// (and must claim it when one does).
pub fn outcome_agreement(prog: &Program, report: &SearchReport) -> Option<Violation> {
    let fresh_ok = check_program(prog).is_ok();
    let reported_ok = matches!(report.outcome, Outcome::WellTyped);
    if fresh_ok == reported_ok {
        None
    } else {
        Some(Violation::new(
            INV_OUTCOME_AGREEMENT,
            format!("fresh oracle says well_typed={fresh_ok} but report says {reported_ok}"),
        ))
    }
}

/// Pretty-print → reparse → pretty-print must be a fixpoint: the search
/// probes variants through exactly this pipeline, so a non-fixpoint
/// means probes and suggestions describe a different program than the
/// one on disk.
pub fn pretty_roundtrip(prog: &Program) -> Option<Violation> {
    let printed = program_to_string(prog);
    match parse_program(&printed) {
        Err(e) => Some(Violation::new(
            INV_PRETTY_ROUNDTRIP,
            format!("pretty-printed program does not reparse: {e}"),
        )),
        Ok(reparsed) => {
            let again = program_to_string(&reparsed);
            if again == printed {
                None
            } else {
                Some(Violation::new(
                    INV_PRETTY_ROUNDTRIP,
                    "print -> reparse -> print is not a fixpoint".to_owned(),
                ))
            }
        }
    }
}

/// Blame guidance reorders work but never changes the accepted set: the
/// guided and unguided searches must report the same suggestions (as an
/// unordered set of message-visible keys).
pub fn blame_agreement(guided: &SearchReport, unguided: &SearchReport) -> Option<Violation> {
    let keys = |r: &SearchReport| -> BTreeSet<(String, String, bool)> {
        r.suggestions()
            .iter()
            .map(|s| (s.original_str.clone(), s.replacement_str.clone(), s.triaged))
            .collect()
    };
    let (on, off) = (keys(guided), keys(unguided));
    if on == off {
        None
    } else {
        let missing: Vec<_> = off.difference(&on).map(|k| format!("{k:?}")).collect();
        let extra: Vec<_> = on.difference(&off).map(|k| format!("{k:?}")).collect();
        Some(Violation::new(
            INV_BLAME_AGREEMENT,
            format!(
                "guided set != unguided set (missing: [{}], extra: [{}])",
                missing.join(", "),
                extra.join(", ")
            ),
        ))
    }
}

/// The two localization backends must agree wherever their theories
/// overlap. Both are deterministic functions of the same recorded
/// constraint trace, so:
///
/// * they agree on well-typedness (both `None` or both `Some`);
/// * they report the same baseline error span and the same
///   deletion-shrunk core size (it is literally the same shrinker);
/// * by MUS/MCS hitting-set duality, every enumerated correction subset
///   must contain at least one member overlapping a blame-positive span
///   (every MCS hits every MUS, and the blame core is a MUS);
/// * retracting any constraint-backed correction subset must replay to
///   SAT on a fresh trace — that is what "correction subset" claims.
pub fn backend_agreement(prog: &Program) -> Option<Violation> {
    let bad = |why: String| Some(Violation::new(INV_BACKEND_AGREEMENT, why));
    let (blame, mcs) = (seminal_analysis::analyze(prog), seminal_analysis::analyze_mcs(prog));
    let (blame, mcs) = match (blame, mcs) {
        (None, None) => return None,
        (Some(b), None) => {
            return bad(format!("blame localizes ({:?}) but MCS says well-typed", b.error.kind))
        }
        (None, Some(m)) => {
            return bad(format!("MCS localizes ({:?}) but blame says well-typed", m.error.kind))
        }
        (Some(b), Some(m)) => (b, m),
    };
    if blame.error.span != mcs.error.span {
        return bad(format!(
            "baseline error spans diverge: blame {:?} vs MCS {:?}",
            blame.error.span, mcs.error.span
        ));
    }
    if blame.core.len() != mcs.core_size {
        return bad(format!(
            "core sizes diverge: blame {} vs MCS {}",
            blame.core.len(),
            mcs.core_size
        ));
    }
    if mcs.core_size == 0 {
        // Naming error: no constraint system, nothing further to cross-check
        // (MCS subsets there are heuristic near-name hints).
        return None;
    }
    let trace = seminal_typeck::trace_program(prog);
    for (rank, subset) in mcs.subsets.iter().enumerate() {
        if !subset.members.iter().any(|m| blame.score_at(m.span) > 0.0) {
            return bad(format!(
                "MCS subset #{rank} misses every blame-positive span (hitting-set duality)"
            ));
        }
        let mut keep = vec![true; trace.constraints.len()];
        let mut constraint_backed = false;
        for m in &subset.members {
            if let Some(i) = m.constraint {
                keep[i] = false;
                constraint_backed = true;
            }
        }
        if constraint_backed && !trace.subset_sat(&keep) {
            return bad(format!("retracting MCS subset #{rank} does not restore SAT"));
        }
    }
    None
}

/// The checkpointed incremental oracle must be observationally invisible:
/// against a from-scratch oracle on the same program, the user-visible
/// payload must be byte-identical (the ordered comparison also pins
/// suggestion ranks), the completion must match, and the probe accounting
/// (`oracle_calls`, `probe_faults`) must be identical — prefix reuse
/// saves *inference work inside* a call, never a call.
pub fn incremental_scratch_identity(
    incr: &SearchReport,
    scratch: &SearchReport,
) -> Option<Violation> {
    let bad = |why: String| Some(Violation::new(INV_INCREMENTAL_SCRATCH_IDENTITY, why));
    if incr.payload() != scratch.payload() {
        return bad(format!(
            "payload diverged: {} incremental vs {} scratch suggestions (or rank order changed)",
            incr.suggestions().len(),
            scratch.suggestions().len()
        ));
    }
    if incr.completion != scratch.completion {
        return bad(format!(
            "completion diverged: {} incremental vs {} scratch",
            incr.completion, scratch.completion
        ));
    }
    let count =
        |r: &SearchReport| (r.stats.oracle_calls, r.stats.probe_faults, r.stats.first_bad_decl);
    if count(incr) != count(scratch) {
        return bad(format!(
            "probe accounting diverged: {:?} incremental vs {:?} scratch \
             (oracle_calls, probe_faults, first_bad_decl)",
            count(incr),
            count(scratch)
        ));
    }
    None
}

/// `Completion` must agree with the fault count that justifies it:
/// `Complete` means no isolated probe faults, and `Degraded` carries
/// exactly the (non-zero) fault count. The bounds' completions
/// (budget, deadline, cancel) are the search's only record of them, so
/// there is nothing else to check them against.
pub fn completion_consistency(report: &SearchReport) -> Option<Violation> {
    let counted = report.stats.probe_faults;
    let why = match report.completion {
        Completion::Complete if counted > 0 => format!("Complete with {counted} probe faults"),
        Completion::Degraded { faults } if faults == 0 || faults != counted => {
            format!("Degraded reports {faults} faults but stats counted {counted}")
        }
        _ => return None,
    };
    Some(Violation::new(INV_COMPLETION_CONSISTENCY, why))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scenarios_satisfy_the_whole_catalog() {
        let suite = InvariantSuite::new();
        for src in [
            "let x = 1 + true",
            "let add str lst = if List.mem str lst then lst else str :: lst\n\
             let vList1 = [\"a\"]\n\
             let s = \"b\"\n\
             let r = add vList1 s\n",
        ] {
            let prog = parse_program(src).unwrap();
            let violations = suite.check_case(&prog);
            assert!(violations.is_empty(), "{src}: {violations:?}");
        }
    }

    #[test]
    fn backend_agreement_holds_on_representative_cases() {
        for src in [
            "let x = 1 + 2",              // well-typed: both None
            "let x = 1 + true",           // single-MCS mismatch
            "let f g = (g 1) + (g true)", // multi-MCS mismatch
            "let main = print_",          // naming error
            "let xs = [1; true; 3]",      // list element conflict
        ] {
            let prog = parse_program(src).unwrap();
            assert_eq!(backend_agreement(&prog), None, "{src}");
        }
    }

    #[test]
    fn flip_chaos_is_caught_by_the_catalog() {
        // With every verdict inverted, the search either trusts a bogus
        // acceptance (suggestion-revalidates) or declares an ill-typed
        // program well-typed (outcome-agreement). Either way the catalog
        // must fire — this is the intentionally-injected violation of
        // the acceptance criteria.
        let suite = InvariantSuite::new().with_chaos(ChaosConfig::flips(1729, 1000));
        let prog = parse_program("let x = 1 + true").unwrap();
        let violations = suite.check_case(&prog);
        assert!(
            violations.iter().any(|v| v.invariant == INV_SUGGESTION_REVALIDATES
                || v.invariant == INV_OUTCOME_AGREEMENT),
            "flip chaos went unnoticed: {violations:?}"
        );
    }
}
