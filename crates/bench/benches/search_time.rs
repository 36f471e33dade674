//! Wall-clock bench: Figure 7's configurations over a corpus sample —
//! full tool (slow reparenthesizing change enabled), slow change
//! disabled, triage disabled, plus the blame-guidance and removal-only
//! variants. The paper's finding to reproduce: the no-triage
//! configuration has no heavy tail; the slow change dominates the full
//! tool's tail.

use seminal_bench::bench_corpus;
use seminal_bench::timing::Group;
use seminal_core::{SearchConfig, SearchSession};
use seminal_ml::ast::Program;
use seminal_ml::parser::parse_program;
use seminal_typeck::TypeCheckOracle;

fn main() {
    let corpus = bench_corpus();
    let progs: Vec<Program> = corpus.iter().filter_map(|f| parse_program(&f.source).ok()).collect();
    assert!(!progs.is_empty());

    let mut group = Group::new("figure7_configs");
    for (name, cfg) in [
        ("full_with_slow_change", SearchConfig::with_slow_match_reassoc()),
        ("slow_change_disabled", SearchConfig::default()),
        ("triage_disabled", SearchConfig::without_triage()),
        ("blame_guidance_disabled", SearchConfig::without_blame_guidance()),
        ("removal_only_ablation", SearchConfig::removal_only()),
    ] {
        let searcher = SearchSession::builder(TypeCheckOracle::new()).config(cfg).build().unwrap();
        group.bench(name, || {
            progs.iter().map(|p| searcher.search(p).stats.oracle_calls).sum::<u64>()
        });
    }
}
