//! The recompile-session model behind Figure 6.
//!
//! Students recompiled repeatedly while puzzling over the same problem —
//! especially when the message was misleading — so the collected files
//! quotient into equivalence classes ("groups") of time-adjacent files
//! with the same fault. The paper collected 2122 files quotienting to
//! 1075 groups; most groups are size 1–3 with a long tail past 100
//! (Figure 6 is log-scale). We model group sizes as geometric with a
//! rare heavy-tail multiplier.

use seminal_obs::SplitMix64;

/// Samples the number of same-problem recompiles for one problem.
pub fn sample_group_size(rng: &mut SplitMix64) -> usize {
    // Geometric(p = 0.5): ~half the groups are singletons.
    let mut size = 1;
    while rng.random_range(0.0..1.0) < 0.5 && size < 64 {
        size += 1;
    }
    // Rare obsessive-recompile sessions create the log-scale tail.
    if rng.random_range(0.0..1.0) < 0.015 {
        size *= rng.random_range(10..40usize);
    }
    size
}

/// Samples group sizes for `problems` distinct problems.
pub fn group_sizes(problems: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xF166);
    (0..problems).map(|_| sample_group_size(&mut rng)).collect()
}

/// Buckets group sizes: `(size, number of groups with that size)`,
/// ascending by size — the data series of Figure 6.
pub fn histogram(sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for &s in sizes {
        *counts.entry(s).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

/// Summary statistics used by the figures binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// Total files "collected" (sum of group sizes).
    pub collected: usize,
    /// Distinct problems (number of groups) — the analyzed count.
    pub analyzed: usize,
    /// Largest single group.
    pub max_group: usize,
}

/// Computes the collected/analyzed totals the paper reports (2122/1075).
pub fn summarize(sizes: &[usize]) -> SessionSummary {
    SessionSummary {
        collected: sizes.iter().sum(),
        analyzed: sizes.len(),
        max_group: sizes.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(group_sizes(100, 5), group_sizes(100, 5));
        assert_ne!(group_sizes(100, 5), group_sizes(100, 6));
    }

    #[test]
    fn most_groups_are_small_with_a_tail() {
        let sizes = group_sizes(1075, 2007);
        let singles = sizes.iter().filter(|&&s| s <= 2).count();
        assert!(
            singles * 2 > sizes.len(),
            "small groups should dominate: {singles}/{}",
            sizes.len()
        );
        let max = sizes.iter().copied().max().unwrap();
        assert!(max >= 20, "expected a heavy tail, max was {max}");
    }

    #[test]
    fn collected_to_analyzed_ratio_matches_paper_shape() {
        // Paper: 2122 collected / 1075 analyzed ≈ 2.0.
        let sizes = group_sizes(1075, 2007);
        let s = summarize(sizes.as_slice());
        let ratio = s.collected as f64 / s.analyzed as f64;
        assert!((1.5..3.5).contains(&ratio), "collected/analyzed ratio {ratio:.2} out of shape");
    }

    #[test]
    fn histogram_sums_to_group_count() {
        let sizes = group_sizes(500, 1);
        let h = histogram(&sizes);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 500);
        // Ascending sizes.
        for w in h.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }
}
