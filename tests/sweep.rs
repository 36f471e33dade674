//! Sweep: the full search over every (template × mutation-kind) pair.
//! Asserts the system-wide invariants on a deterministic, broad input
//! distribution — no panics, structurally valid variants, sound
//! untriaged suggestions, and a suggestion or clean fallback everywhere.

use seminal::core::{Outcome, SearchSession};
use seminal::corpus::mutate::{mutate, ALL_KINDS};
use seminal::corpus::templates::TEMPLATES;
use seminal::ml::edit::validate;
use seminal::ml::parser::parse_program;
use seminal::obs::SplitMix64;
use seminal::typeck::{check_program, TypeCheckOracle};

#[test]
fn search_handles_every_template_and_kind() {
    let searcher = SearchSession::builder(TypeCheckOracle::new()).build().unwrap();
    let mut searched = 0usize;
    let mut with_suggestions = 0usize;
    for template in TEMPLATES {
        for (k, kind) in ALL_KINDS.iter().enumerate() {
            let mut rng = SplitMix64::seed_from_u64(k as u64 * 101 + 7);
            let Some(mutant) = mutate(template.source, &[*kind], 1, &mut rng) else {
                continue; // kind not applicable to this template
            };
            let prog = parse_program(&mutant.source)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", template.name, kind.label()));
            validate(&prog).unwrap();
            let report = searcher.search(&prog);
            searched += 1;
            match &report.outcome {
                Outcome::WellTyped => {
                    panic!("{}/{}: mutant cannot be well-typed", template.name, kind.label())
                }
                Outcome::Suggestions(suggestions) => {
                    with_suggestions += 1;
                    assert!(!suggestions.is_empty());
                    for s in suggestions {
                        validate(&s.variant).unwrap_or_else(|e| {
                            panic!(
                                "{}/{}: invalid variant for `{}`: {e}",
                                template.name,
                                kind.label(),
                                s.replacement_str
                            )
                        });
                        if !s.triaged {
                            assert!(
                                check_program(&s.variant).is_ok(),
                                "{}/{}: unsound suggestion `{}` -> `{}`",
                                template.name,
                                kind.label(),
                                s.original_str,
                                s.replacement_str
                            );
                        }
                    }
                }
                Outcome::NoSuggestion => {
                    // Legal but should be rare; the baseline must exist.
                    assert!(report.baseline.is_some());
                }
            }
            assert!(report.baseline.is_some());
            assert!(report.stats.oracle_calls > 0);
        }
    }
    // Coverage sanity: most pairs are applicable and fixable.
    assert!(searched >= 100, "only {searched} mutants built");
    assert!(
        with_suggestions * 10 >= searched * 9,
        "suggestions on only {with_suggestions}/{searched} mutants"
    );
}

#[test]
fn multi_error_sweep_exercises_triage() {
    let searcher = SearchSession::builder(TypeCheckOracle::new()).build().unwrap();
    let mut triaged_runs = 0usize;
    let mut total = 0usize;
    for (i, template) in TEMPLATES.iter().enumerate() {
        let mut rng = SplitMix64::seed_from_u64(i as u64 * 31 + 7);
        let Some(mutant) = mutate(template.source, ALL_KINDS, 2, &mut rng) else {
            continue;
        };
        let prog = parse_program(&mutant.source).unwrap();
        let report = searcher.search(&prog);
        total += 1;
        if report.stats.triage_used {
            triaged_runs += 1;
        }
    }
    assert!(total >= 5, "too few 2-error mutants: {total}");
    assert!(
        triaged_runs * 2 >= total,
        "triage engaged on only {triaged_runs}/{total} multi-error files"
    );
}
