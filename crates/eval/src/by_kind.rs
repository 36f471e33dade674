//! Per-error-class breakdown: which fault kinds each system handles well.
//!
//! The paper observes qualitatively that the two approaches have
//! different strengths (the checker is excellent at unbound names, §3.3;
//! the search wins on argument-shape confusions, Figures 2/8/9). This
//! table makes that comparison explicit on the synthesized corpus.

use crate::category::Category;
use crate::runner::FileResult;
use seminal_corpus::CorpusFile;
use std::collections::BTreeMap;

/// Outcome tallies for one fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTally {
    pub ties: usize,
    pub ours_better: usize,
    pub checker_better: usize,
}

impl KindTally {
    /// Total files of this class.
    pub fn total(&self) -> usize {
        self.ties + self.ours_better + self.checker_better
    }
}

/// Buckets evaluation results by fault class (multi-error files under the
/// key `"multi-error"`). `files` and `results` must be parallel, as
/// produced by pairing the corpus with [`crate::evaluate_corpus`].
pub fn by_kind(files: &[CorpusFile], results: &[FileResult]) -> BTreeMap<String, KindTally> {
    let mut out: BTreeMap<String, KindTally> = BTreeMap::new();
    for (file, r) in files.iter().zip(results) {
        debug_assert_eq!(file.id, r.id, "files and results must be parallel");
        let key = if file.truths.len() > 1 {
            "multi-error".to_owned()
        } else {
            file.truths[0].kind.label().to_owned()
        };
        let tally = out.entry(key).or_default();
        match r.category {
            Category::TieNoTriage | Category::TieWithTriage => tally.ties += 1,
            Category::BetterNoTriage | Category::BetterWithTriage => tally.ours_better += 1,
            Category::CheckerBetter => tally.checker_better += 1,
        }
    }
    out
}

/// Renders the per-kind table.
pub fn render_by_kind(table: &BTreeMap<String, KindTally>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18}{:>6}{:>8}{:>9}{:>8}\n",
        "fault class", "tie", "ours", "checker", "total"
    ));
    for (k, t) in table {
        out.push_str(&format!(
            "{k:<18}{:>6}{:>8}{:>9}{:>8}\n",
            t.ties,
            t.ours_better,
            t.checker_better,
            t.total()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_corpus;
    use seminal_corpus::generate::{generate, small_config};

    #[test]
    fn buckets_cover_every_file() {
        let corpus = generate(&small_config(6));
        let results = evaluate_corpus(&corpus);
        let table = by_kind(&corpus, &results);
        let total: usize = table.values().map(KindTally::total).sum();
        assert_eq!(total, corpus.len());
    }

    #[test]
    fn multi_error_files_get_their_own_bucket() {
        let corpus = generate(&small_config(8));
        if corpus.iter().any(|f| f.is_multi_error()) {
            let results = evaluate_corpus(&corpus);
            let table = by_kind(&corpus, &results);
            assert!(table.contains_key("multi-error"));
        }
    }

    #[test]
    fn render_lists_classes() {
        let corpus: Vec<_> = generate(&small_config(9)).into_iter().take(6).collect();
        let results = evaluate_corpus(&corpus);
        let text = render_by_kind(&by_kind(&corpus, &results));
        assert!(text.contains("fault class"));
    }

    #[test]
    fn checker_strength_on_unbound_names_shows_up() {
        // §3.3: the checker is genuinely good at unbound variables; on
        // those files it must not be systematically beaten.
        use seminal_corpus::mutate::{mutate, MutationKind};
        use seminal_corpus::templates::TEMPLATES;
        use seminal_obs::SplitMix64;
        let mut files = Vec::new();
        for (i, t) in TEMPLATES.iter().enumerate() {
            let mut rng = SplitMix64::seed_from_u64(i as u64);
            if let Some(m) = mutate(t.source, &[MutationKind::UnboundVar], 1, &mut rng) {
                files.push(seminal_corpus::CorpusFile {
                    id: format!("u{i}"),
                    programmer: 1,
                    assignment: t.assignment,
                    template: t.name,
                    source: m.source,
                    truths: m.truths,
                });
            }
        }
        assert!(!files.is_empty());
        let results = evaluate_corpus(&files);
        let table = by_kind(&files, &results);
        let t = table["unbound-var"];
        assert!(t.ties >= t.ours_better, "unbound-var should mostly tie: {t:?}");
    }
}
