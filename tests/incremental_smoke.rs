//! Tier-1 smoke for the checkpointed incremental oracle (PR 10).
//!
//! The tentpole claim is that probes cost O(edit-path), not O(program):
//! the oracle re-infers only from the edited declaration forward. The
//! measurable consequence pinned here on the checked-in `samples/` is
//! that `oracle.decls_recheck` — declarations actually re-inferred —
//! stays strictly below `oracle_calls × decls`, the scratch oracle's
//! cost, while the user-visible report stays byte-identical to the
//! scratch run's. Suggestion typing is pinned the same way: the
//! oracle's own chain, after the baseline check, must type every hole'd
//! variant of the failing declaration exactly like the scratch
//! `check_program_types`, and charge none of it as oracle work.

use seminal::core::{SearchConfig, SearchReport, SearchSession};
use seminal::corpus::generate::{generate, small_config};
use seminal::ml::ast::{NodeId, Program};
use seminal::ml::edit;
use seminal::ml::parser::parse_program;
use seminal::obs::keys;
use seminal::testkit::golden::{default_dir, load_corpus};
use seminal::typeck::{
    check_program_types, CheckpointedOracle, InferState, Oracle, TypeCheckOracle,
};

/// The ill-typed Caml samples (figure10.cpp belongs to the C++
/// prototype; deadline_stress.ml is sized for deadline tests, not for
/// an unbounded tier-1 search).
const SAMPLES: &[&str] = &["samples/figure2.ml", "samples/figure8.ml", "samples/multi_error.ml"];

fn run(source: &str, incremental: bool) -> SearchReport {
    let prog = parse_program(source).expect("sample parses");
    let config = SearchConfig { deadline: None, ..SearchConfig::default() };
    let (chain, scratch) = (CheckpointedOracle::new(), TypeCheckOracle::new());
    let checker: &dyn Oracle = if incremental { &chain } else { &scratch };
    SearchSession::builder(checker).config(config).build().expect("config is valid").search(&prog)
}

#[test]
fn incremental_recheck_work_stays_under_the_scratch_bound_on_samples() {
    let root = env!("CARGO_MANIFEST_DIR");
    // Aggregated across the samples: a single-declaration file (like
    // multi_error.ml, one big `let go () = ...`) has no reusable prefix,
    // so its probes legitimately re-infer their one declaration — the
    // strict saving must show up in the whole-directory total.
    let (mut total_recheck, mut total_bound) = (0u64, 0u64);
    for sample in SAMPLES {
        let source = std::fs::read_to_string(format!("{root}/{sample}")).expect("sample reads");
        let decls = parse_program(&source).expect("sample parses").decls.len() as u64;
        let report = run(&source, true);
        let calls = report.stats.oracle_calls;
        let recheck = report.metrics.counter(keys::ORACLE_DECLS_RECHECK);
        assert!(calls > 0, "{sample}: the search never probed");
        assert!(
            recheck <= calls * decls,
            "{sample}: incremental oracle re-inferred {recheck} decls across {calls} calls — \
             above the scratch bound of {calls} x {decls}"
        );
        if decls > 1 {
            assert!(
                report.metrics.counter(keys::ORACLE_INCREMENTAL_HITS) > 0,
                "{sample}: no probe ever reused a checked prefix"
            );
        }
        total_recheck += recheck;
        total_bound += calls * decls;
    }
    assert!(
        total_recheck < total_bound,
        "across samples/: {total_recheck} decls re-inferred, \
         not strictly under the scratch bound of {total_bound}"
    );
}

#[test]
fn incremental_and_scratch_reports_agree_on_samples() {
    let root = env!("CARGO_MANIFEST_DIR");
    for sample in SAMPLES {
        let source = std::fs::read_to_string(format!("{root}/{sample}")).expect("sample reads");
        let incr = run(&source, true);
        let scratch = run(&source, false);
        assert_eq!(incr.payload(), scratch.payload(), "{sample}: payload depends on oracle mode");
        assert_eq!(incr.completion, scratch.completion, "{sample}: completion diverged");
        assert_eq!(
            incr.stats.oracle_calls, scratch.stats.oracle_calls,
            "{sample}: incremental reuse must save work inside calls, never calls"
        );
        // The scratch checker publishes no reuse counters, so metric
        // consumers never see stale reuse stats.
        assert_eq!(scratch.metrics.counter(keys::ORACLE_DECLS_RECHECK), 0, "{sample}");
        assert_eq!(scratch.metrics.counter(keys::ORACLE_INCREMENTAL_HITS), 0, "{sample}");
    }
}

/// Every `.ml` sample, every golden-corpus program, and a seeded batch
/// of corpus programs, as `(name, source)`.
fn typing_inputs() -> Vec<(String, String)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut inputs = Vec::new();
    let mut samples: Vec<_> = std::fs::read_dir(format!("{root}/samples"))
        .expect("samples/ lists")
        .map(|e| e.expect("samples/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    samples.sort();
    for path in samples {
        let source = std::fs::read_to_string(&path).expect("sample reads");
        inputs.push((path.display().to_string(), source));
    }
    let golden = load_corpus(&default_dir()).expect("golden corpus loads");
    for entry in &golden.entries {
        let source = std::fs::read_to_string(golden.dir.join(&entry.file)).expect("golden reads");
        inputs.push((entry.name.clone(), source));
    }
    for file in generate(&small_config(13)) {
        inputs.push((file.id, file.source));
    }
    inputs
}

/// Ids of every expression in declaration `idx`.
fn expr_ids(prog: &Program, idx: usize) -> Vec<NodeId> {
    let mut ids = Vec::new();
    prog.decls[idx].for_each_expr(&mut |e| ids.push(e.id));
    ids
}

#[test]
fn chain_typing_matches_scratch_typing() {
    let mut variants = 0;
    for (name, source) in typing_inputs() {
        let prog = parse_program(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        if prog.decls.is_empty() {
            continue;
        }
        let mut state = InferState::initial();
        let failing = prog
            .decls
            .iter()
            .position(|d| state.check_decl(d).is_err())
            .unwrap_or(prog.decls.len() - 1);
        // The search's order: the baseline check seeds the oracle's
        // chain, which then answers every variant. The hole takes the
        // next fresh id, and every node of the edited declaration is
        // wanted too.
        let oracle = CheckpointedOracle::new();
        let _ = oracle.check(&prog);
        let seeded = oracle.incremental_stats();
        for id in expr_ids(&prog, failing) {
            let variant = edit::remove_expr(&prog, id);
            let mut wanted = expr_ids(&variant, failing);
            wanted.push(NodeId(prog.next_id));
            assert_eq!(
                oracle.types(&variant, &wanted),
                check_program_types(&variant, &wanted),
                "{name}: variant removing {id:?}"
            );
            variants += 1;
        }
        assert_eq!(oracle.incremental_stats(), seeded, "{name}: typing charged oracle work");
    }
    assert!(variants > 1000, "only {variants} variants typed");
}
