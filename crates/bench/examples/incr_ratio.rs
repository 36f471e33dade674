//! One-off: measures the incremental oracle's re-inference saving on
//! the BENCH corpus — actual decls rechecked vs the scratch bound
//! (oracle calls × decls, summed per file).

use seminal_bench::harness_corpus;
use seminal_ml::parser::parse_program;

fn main() {
    let corpus = harness_corpus(1);
    let results = seminal_eval::evaluate_corpus(&corpus);
    let (mut recheck, mut bound, mut hits, mut calls) = (0u64, 0u64, 0u64, 0u64);
    for (file, r) in corpus.iter().zip(&results) {
        let decls = parse_program(&file.source).map_or(0, |p| p.decls.len() as u64);
        recheck += r.metrics.counter("oracle.decls_recheck");
        hits += r.metrics.counter("oracle.incremental_hits");
        bound += r.full_calls * decls;
        calls += r.full_calls;
    }
    println!("calls={calls} hits={hits} recheck={recheck} scratch_bound={bound}");
    println!("reduction: {:.2}x", bound as f64 / recheck as f64);
}
