//! Corpus generation: 10 programmers × 5 assignments of ill-typed files.
//!
//! The paper's data set: 10 of 44 part-time graduate students opted in
//! across 5 homework assignments, yielding 2122 collected files that
//! quotient to 1075 distinct problems. We reproduce the *shape*:
//! per-(programmer, assignment) batches of mutants, programmer-specific
//! error-class biases (personal coding style, §3.2), and a configurable
//! share of files with several independent errors (what triage exists
//! for).

use crate::mutate::{mutate, GroundTruth, MutationKind, ALL_KINDS};
use crate::templates::{for_assignment, Template};
use seminal_obs::SplitMix64;

/// One ill-typed corpus file with its ground truth.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    /// Stable id, e.g. `p03-a2-map2_combine-7`.
    pub id: String,
    /// Programmer number, 1-based.
    pub programmer: u8,
    /// Assignment number, 1-based (experience grows with it).
    pub assignment: u8,
    /// Template the file was derived from.
    pub template: &'static str,
    /// The ill-typed source.
    pub source: String,
    /// Injected faults (1 for single-error files, 2+ for multi-error).
    pub truths: Vec<GroundTruth>,
}

impl CorpusFile {
    /// Whether the file has several independent errors.
    pub fn is_multi_error(&self) -> bool {
        self.truths.len() > 1
    }
}

/// Knobs for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    pub seed: u64,
    /// Number of participating programmers (paper: 10).
    pub programmers: u8,
    /// Number of assignments (paper: 5).
    pub assignments: u8,
    /// Distinct problems per (programmer, assignment) cell.
    pub problems_per_cell: usize,
    /// Fraction of files carrying two independent errors.
    pub multi_error_rate: f64,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            seed: 0x5EED_2007,
            programmers: 10,
            assignments: 5,
            problems_per_cell: 4,
            multi_error_rate: 0.25,
        }
    }
}

/// A small, quick corpus for unit tests.
pub fn small_config(seed: u64) -> CorpusConfig {
    CorpusConfig {
        seed,
        programmers: 3,
        assignments: 5,
        problems_per_cell: 2,
        ..CorpusConfig::default()
    }
}

/// Each programmer gravitates to a personal subset of mistakes — the
/// "personal coding style" axis of Figure 5(a).
fn programmer_bias(programmer: u8) -> Vec<MutationKind> {
    let mut kinds: Vec<MutationKind> = ALL_KINDS.to_vec();
    // Rotate so each programmer's preferred prefix differs, and keep a
    // biased prefix twice to overweight it.
    let n = kinds.len();
    kinds.rotate_left(programmer as usize % n);
    let mut biased = kinds.clone();
    biased.extend_from_slice(&kinds[..4]);
    biased
}

/// Generates the full corpus, deterministically from `cfg.seed`.
pub fn generate(cfg: &CorpusConfig) -> Vec<CorpusFile> {
    let mut out = Vec::new();
    for programmer in 1..=cfg.programmers {
        let bias = programmer_bias(programmer);
        for assignment in 1..=cfg.assignments {
            let templates = for_assignment(assignment);
            if templates.is_empty() {
                continue;
            }
            let cell_seed = cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((programmer as u64) << 32 | (assignment as u64));
            let mut rng = SplitMix64::seed_from_u64(cell_seed);
            let mut made = 0;
            let mut attempts = 0;
            while made < cfg.problems_per_cell && attempts < cfg.problems_per_cell * 20 {
                attempts += 1;
                let template: &Template = templates[rng.random_range(0..templates.len())];
                let errors = if rng.random_range(0.0..1.0) < cfg.multi_error_rate { 2 } else { 1 };
                if let Some(mutant) = mutate(template.source, &bias, errors, &mut rng) {
                    made += 1;
                    out.push(CorpusFile {
                        id: format!("p{programmer:02}-a{assignment}-{}-{made}", template.name),
                        programmer,
                        assignment,
                        template: template.name,
                        source: mutant.source,
                        truths: mutant.truths,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;
    use seminal_typeck::check_program;

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config(42);
        let a: Vec<String> = generate(&cfg).into_iter().map(|f| f.source).collect();
        let b: Vec<String> = generate(&cfg).into_iter().map(|f| f.source).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn all_files_are_ill_typed() {
        for f in generate(&small_config(7)) {
            let prog =
                parse_program(&f.source).unwrap_or_else(|e| panic!("{} does not parse: {e}", f.id));
            assert!(check_program(&prog).is_err(), "{} type-checks", f.id);
        }
    }

    #[test]
    fn corpus_covers_all_cells() {
        let cfg = small_config(1);
        let files = generate(&cfg);
        for p in 1..=cfg.programmers {
            for a in 1..=cfg.assignments {
                assert!(
                    files.iter().any(|f| f.programmer == p && f.assignment == a),
                    "cell ({p}, {a}) empty"
                );
            }
        }
    }

    #[test]
    fn multi_error_rate_is_roughly_honored() {
        let cfg = CorpusConfig { multi_error_rate: 0.5, ..small_config(3) };
        let files = generate(&cfg);
        let multi = files.iter().filter(|f| f.is_multi_error()).count();
        assert!(multi > 0, "no multi-error files at 50% rate");
    }

    #[test]
    fn ids_are_unique() {
        let files = generate(&small_config(9));
        let mut ids: Vec<_> = files.iter().map(|f| &f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), files.len());
    }

    #[test]
    fn programmer_biases_differ() {
        assert_ne!(programmer_bias(1), programmer_bias(2));
    }
}
