//! Rendering suggestions as the messages the paper shows.
//!
//! The canonical form (Figure 2):
//!
//! ```text
//! Try replacing
//!     fun (x, y) -> x + y
//! with
//!     fun x y -> x + y
//! of type int -> int -> int
//! within context
//!     let lst = map2 (fun x y -> x + y) [1; 2; 3] [4; 5; 6]
//! ```
//!
//! Triaged suggestions are prefixed with the several-errors warning of
//! §2.4, and unbound-variable refinements (§3.3) are stated directly.

use crate::change::{ChangeKind, Suggestion};
use crate::search::{Outcome, SearchReport};
use seminal_ml::span::LineMap;

/// Multi-line rendering of one suggestion.
pub fn render(s: &Suggestion) -> String {
    let mut out = String::new();
    if s.triaged {
        out.push_str("Your code has several type errors. If you ignore the surrounding code, ");
        out.push_str("try replacing\n");
    } else {
        out.push_str("Try replacing\n");
    }
    out.push_str("    ");
    out.push_str(&s.original_str);
    out.push_str("\nwith\n    ");
    out.push_str(&s.replacement_str);
    out.push('\n');
    if let Some(ty) = &s.new_type {
        out.push_str("of type ");
        out.push_str(ty);
        out.push('\n');
    }
    if !s.context_str.is_empty() {
        out.push_str("within context\n    ");
        out.push_str(&s.context_str);
        out.push('\n');
    }
    if let Some(name) = &s.unbound_hint {
        out.push_str(&format!(
            "(`{name}` appears to be unbound or misspelled: removing it helps \
             but adapting its result type does not.)\n"
        ));
    }
    if let ChangeKind::Constructive(desc) = &s.kind {
        out.push_str(&format!("({desc})\n"));
    }
    out
}

/// One-line rendering, for tables and logs.
pub fn render_line(s: &Suggestion) -> String {
    let triage = if s.triaged { " [triage]" } else { "" };
    match &s.new_type {
        Some(ty) => format!(
            "replace `{}` with `{}` (: {}){}",
            s.original_str, s.replacement_str, ty, triage
        ),
        None => {
            format!("replace `{}` with `{}`{}", s.original_str, s.replacement_str, triage)
        }
    }
}

/// Renders a whole report: the best `limit` suggestions with locations
/// (none at `limit == 0`, like `seminal analyze --top 0`), or a fallback
/// to the baseline message.
pub fn render_report(report: &SearchReport, source: &str, limit: usize) -> String {
    match &report.outcome {
        Outcome::WellTyped => "The program type-checks.".to_owned(),
        Outcome::NoSuggestion => {
            let mut out = String::from("No suggestion found; the type-checker says:\n");
            if let Some(err) = &report.baseline {
                out.push_str(&err.render(source));
            }
            out
        }
        Outcome::Suggestions(suggestions) => {
            let lm = LineMap::new(source);
            let mut out = String::new();
            for (i, s) in suggestions.iter().take(limit).enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(&format!("[{}] At {}:\n", i + 1, lm.describe(s.span)));
                out.push_str(&render(s));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::Focus;
    use seminal_ml::ast::{Expr, NodeId, Program};
    use seminal_ml::span::Span;

    fn sample(triaged: bool) -> Suggestion {
        Suggestion {
            focus: Focus::Expr { target: NodeId(0), replacement: Expr::hole(Span::DUMMY) },
            kind: ChangeKind::Constructive("take curried arguments".into()),
            triaged,
            removed_siblings: 0,
            original_str: "fun (x, y) -> x + y".into(),
            replacement_str: "fun x y -> x + y".into(),
            new_type: Some("int -> int -> int".into()),
            context_str: "let lst = map2 (fun x y -> x + y) [1; 2; 3] [4; 5; 6]".into(),
            span: Span::new(0, 5),
            depth: 3,
            size: 6,
            right_pos: 1,
            preserves_content: true,
            superseded: false,
            variant: Program::new(),
            unbound_hint: None,
            blame: 0,
        }
    }

    #[test]
    fn renders_figure2_shape() {
        let text = render(&sample(false));
        assert!(text.contains("Try replacing"));
        assert!(text.contains("fun (x, y) -> x + y"));
        assert!(text.contains("fun x y -> x + y"));
        assert!(text.contains("of type int -> int -> int"));
        assert!(text.contains("within context"));
    }

    #[test]
    fn triage_prefix() {
        let text = render(&sample(true));
        assert!(text.starts_with("Your code has several type errors."));
    }

    #[test]
    fn line_rendering_is_compact() {
        let line = render_line(&sample(false));
        assert!(line.contains("(: int -> int -> int)"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn unbound_hint_rendered() {
        let mut s = sample(false);
        s.unbound_hint = Some("print".into());
        assert!(render(&s).contains("`print` appears to be unbound"));
    }
}
