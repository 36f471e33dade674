//! Identity of the replay universe: both localization backends replay
//! only the failing constraint component, and must answer exactly as if
//! they had replayed the whole recorded list. And identity of the
//! recording itself: the trace the incremental oracle records while
//! checking the base is the one a fresh recording run produces, so the
//! search localizes from it exactly as from its own.
//!
//! Inputs are every shipped sample, every golden-corpus source, a seeded
//! batch of corpus programs, and paper-sized files (many well-typed
//! homework problems before one faulty one), where the universe is a
//! small fraction of the trace.

use seminal_analysis::{
    analyze, analyze_mcs, analyze_mcs_trace, analyze_trace, localize, BackendKind,
};
use seminal_corpus::generate::{generate, small_config};
use seminal_corpus::TEMPLATES;
use seminal_ml::parser::parse_program;
use seminal_typeck::{trace_program, CheckpointedOracle, Oracle};
use std::path::Path;

fn ml_sources(dir: &Path) -> Vec<(String, String)> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "ml"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let source = std::fs::read_to_string(&p).expect("readable source");
            (p.display().to_string(), source)
        })
        .collect()
}

fn inputs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = ml_sources(&root.join("samples"));
    out.extend(ml_sources(&root.join("crates/testkit/golden")));
    for seed in [1, 7, 42] {
        for file in generate(&small_config(seed)) {
            // Paper-sized: a run of well-typed problems, then the faulty one.
            let skip = file.source.len() % TEMPLATES.len();
            let mut big: String =
                TEMPLATES.iter().cycle().skip(skip).take(12).map(|t| t.source).collect();
            big.push_str(&file.source);
            out.push((format!("{} (paper-sized)", file.id), big));
            out.push((file.id, file.source));
        }
    }
    out
}

#[test]
fn universe_replays_agree_with_whole_list_replays() {
    let (mut checked, mut narrowed) = (0, 0);
    for (name, source) in inputs() {
        let Ok(prog) = parse_program(&source) else { continue };
        let Some(blame) = analyze(&prog) else { continue };
        let trace = trace_program(&prog);
        let n = trace.constraints.len();
        let whole = vec![true; n];
        let whole_core = if trace.has_unsat_constraints() {
            trace.shrink_unsat_core(&whole)
        } else {
            Vec::new()
        };
        assert_eq!(blame.core, whole_core, "{name}: blame core differs from the whole-list core");

        let replays_sat_without = |removed: &[usize]| {
            let mut keep = whole.clone();
            for &i in removed {
                keep[i] = false;
            }
            trace.subset_sat(&keep)
        };
        for subset in &blame.corrections {
            assert!(replays_sat_without(subset), "{name}: blame correction {subset:?} is not one");
        }
        let mcs = analyze_mcs(&prog).expect("ill-typed for both backends");
        assert_eq!(mcs.core_size, whole_core.len(), "{name}: MCS core size differs");
        for subset in &mcs.subsets {
            let members: Vec<usize> = subset.members.iter().filter_map(|m| m.constraint).collect();
            if !members.is_empty() {
                assert!(replays_sat_without(&members), "{name}: MCS subset {members:?} is not one");
            }
        }

        checked += 1;
        if trace.replay_universe().iter().any(|&u| !u) {
            narrowed += 1;
        }
    }
    assert!(checked >= 150, "only {checked} ill-typed inputs checked");
    assert!(narrowed * 2 >= checked, "universe narrowed only {narrowed} of {checked} replays");
}

#[test]
fn the_oracles_recorded_trace_localizes_like_a_fresh_recording() {
    let (mut traced, mut localized) = (0, 0);
    for (name, source) in inputs() {
        let Ok(prog) = parse_program(&source) else { continue };
        let oracle = CheckpointedOracle::new();
        let verdict = oracle.check(&prog);
        let trace = oracle.constraint_trace(&prog);
        let fresh = trace_program(&prog);
        assert_eq!(
            format!("{:?}", trace.constraints),
            format!("{:?}", fresh.constraints),
            "{name}: recorded constraints differ"
        );
        assert_eq!(trace.num_vars, fresh.num_vars, "{name}: num_vars differs");
        assert_eq!(trace.result, fresh.result, "{name}: outcome differs");
        assert_eq!(trace.result, verdict, "{name}: the trace disagrees with the check");
        traced += 1;

        let (Some(blame), Some(mcs)) = (analyze(&prog), analyze_mcs(&prog)) else {
            assert!(analyze_trace(&trace).is_none(), "{name}: well-typed, yet blamed");
            continue;
        };
        let ours = analyze_trace(&trace).expect("ill-typed");
        assert_eq!(ours.core, blame.core, "{name}: blame core differs");
        assert_eq!(ours.corrections, blame.corrections, "{name}: corrections differ");
        assert_eq!(ours.spans, blame.spans, "{name}: blame spans differ");
        let ours = analyze_mcs_trace(&prog, &trace).expect("ill-typed");
        assert_eq!(ours.subsets, mcs.subsets, "{name}: MCS subsets differ");
        assert_eq!(ours.spans, mcs.spans, "{name}: MCS spans differ");
        for (kind, spans) in [(BackendKind::Blame, &blame.spans), (BackendKind::Mcs, &mcs.spans)] {
            let loc = localize(&prog, &trace, kind).expect("ill-typed");
            assert_eq!(&loc.spans, spans, "{name}: {} localization differs", kind.name());
        }
        localized += 1;
    }
    assert!(traced >= 190, "only {traced} inputs traced");
    assert!(localized >= 150, "only {localized} ill-typed inputs localized");
}
