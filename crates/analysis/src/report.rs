//! Rendering of blame and MCS analyses as human-readable localization
//! reports — the output of `seminal analyze` (`--backend blame|mcs`).

use crate::blame::BlameAnalysis;
use crate::mcs::McsAnalysis;
use seminal_ml::span::LineMap;

/// Renders the top-`k` blamed spans with the baseline error on top, in
/// the same file/line idiom as the checker's own messages.
pub fn render_report(analysis: &BlameAnalysis, source: &str, k: usize) -> String {
    let lm = LineMap::new(source);
    let mut out = String::new();
    out.push_str(&analysis.error.render(source));
    out.push('\n');
    out.push('\n');

    if analysis.core.is_empty() {
        out.push_str(
            "Blame analysis: no constraint conflict (naming error); the location above is exact.\n",
        );
    } else {
        out.push_str(&format!(
            "Blame analysis: minimal unsatisfiable core of {} constraint(s), {} candidate fix(es), {:?}.\n",
            analysis.core.len(),
            analysis.corrections.len(),
            analysis.elapsed,
        ));
    }

    for (rank, b) in analysis.spans.iter().take(k).enumerate() {
        let mut tags = Vec::new();
        if b.fixes_alone {
            tags.push("fixes alone");
        }
        if b.in_core {
            tags.push("in core");
        }
        let tags = if tags.is_empty() { String::new() } else { format!("  [{}]", tags.join(", ")) };
        let text = b.span.text(source).trim();
        // Long spans (whole declarations) are elided to their first line.
        let text = match text.find('\n') {
            Some(pos) => format!("{} ...", &text[..pos].trim_end()),
            None => text.to_owned(),
        };
        out.push_str(&format!(
            "  {}. {}  `{}`  blame {:.2}{}\n",
            rank + 1,
            lm.describe(b.span),
            text,
            b.score,
            tags,
        ));
    }
    out
}

/// Renders the top-`k` correction subsets of an MCS analysis with the
/// baseline error on top: one block per ranked alternative, each member
/// mapped to its source line with its repair hint.
pub fn render_mcs_report(analysis: &McsAnalysis, source: &str, k: usize) -> String {
    let lm = LineMap::new(source);
    let mut out = String::new();
    out.push_str(&analysis.error.render(source));
    out.push('\n');
    out.push('\n');

    if analysis.subsets.is_empty() {
        if analysis.core_size == 0 {
            out.push_str(
                "MCS analysis: no constraint system (naming error) and no repair candidates; \
                 the location above is exact.\n",
            );
        } else {
            out.push_str(&format!(
                "MCS analysis: unsat core of {} constraint(s) but no enumerable correction \
                 subset (conflict is not span-attributable).\n",
                analysis.core_size,
            ));
        }
        return out;
    }

    if analysis.core_size == 0 {
        out.push_str(&format!(
            "MCS analysis: naming error; {} candidate near-name repair(s), {:?}.\n",
            analysis.subsets.len(),
            analysis.elapsed,
        ));
    } else {
        out.push_str(&format!(
            "MCS analysis: {} soft / {} hard clause(s), {} correction subset(s) in {} replay(s), {:?}.\n",
            analysis.soft_clauses,
            analysis.hard_clauses,
            analysis.subsets.len(),
            analysis.replays,
            analysis.elapsed,
        ));
    }

    for (rank, s) in analysis.subsets.iter().take(k).enumerate() {
        out.push_str(&format!(
            "  alternative {} (weight {}, {} change(s)):\n",
            rank + 1,
            s.weight,
            s.members.len(),
        ));
        for m in &s.members {
            let text = m.span.text(source).trim();
            let text = match text.find('\n') {
                Some(pos) => format!("{} ...", &text[..pos].trim_end()),
                None => text.to_owned(),
            };
            out.push_str(&format!("    {}  `{}`  — {}\n", lm.describe(m.span), text, m.hint));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::analyze;
    use crate::mcs::analyze_mcs;
    use seminal_ml::parser::parse_program;

    #[test]
    fn report_lists_ranked_spans() {
        let src = "let x = 3 + true";
        let a = analyze(&parse_program(src).unwrap()).unwrap();
        let r = render_report(&a, src, 5);
        assert!(r.contains("Blame analysis"));
        assert!(r.contains("1. line 1"));
        assert!(r.contains("blame 1.00"));
    }

    #[test]
    fn report_caps_at_k() {
        let src = "let f g = (g 1) + (g true)";
        let a = analyze(&parse_program(src).unwrap()).unwrap();
        let r = render_report(&a, src, 1);
        assert!(r.contains("1. "));
        assert!(!r.contains("\n  2. "));
    }

    #[test]
    fn naming_errors_say_so() {
        let src = "let x = missing_name + 1";
        let a = analyze(&parse_program(src).unwrap()).unwrap();
        let r = render_report(&a, src, 5);
        assert!(r.contains("naming error"));
        assert!(r.contains("missing_name"));
    }

    #[test]
    fn mcs_report_lists_ranked_alternatives() {
        let src = "let f g = (g 1) + (g true)";
        let a = analyze_mcs(&parse_program(src).unwrap()).unwrap();
        let r = render_mcs_report(&a, src, 5);
        assert!(r.contains("MCS analysis"), "{r}");
        assert!(r.contains("alternative 1 (weight "), "{r}");
        assert!(r.contains("alternative 2 (weight "), "{r}");
    }

    #[test]
    fn mcs_report_caps_at_k() {
        let src = "let f g = (g 1) + (g true)";
        let a = analyze_mcs(&parse_program(src).unwrap()).unwrap();
        let r = render_mcs_report(&a, src, 1);
        assert!(r.contains("alternative 1"));
        assert!(!r.contains("alternative 2"));
    }

    #[test]
    fn mcs_report_shows_name_candidates() {
        let src = "let main = print_";
        let a = analyze_mcs(&parse_program(src).unwrap()).unwrap();
        let r = render_mcs_report(&a, src, 5);
        assert!(r.contains("naming error"), "{r}");
        assert!(r.contains("replace `print_` with "), "{r}");
    }
}
