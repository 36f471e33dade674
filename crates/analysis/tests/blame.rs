//! Golden localization tests over the shipped sample programs: the
//! top-blamed span is pinned, so a regression in recording, shrinking,
//! or scoring shows up as a changed localization, not silent drift.

use seminal_analysis::{analyze, render_report};
use seminal_ml::parser::parse_program;

fn sample(name: &str) -> String {
    let path = format!("{}/../../samples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn top_span_text(source: &str) -> (String, seminal_analysis::BlameAnalysis) {
    let prog = parse_program(source).expect("sample parses");
    let a = analyze(&prog).expect("sample is ill-typed");
    assert!(!a.spans.is_empty());
    let text = a.spans[0].span.text(source).to_owned();
    (text, a)
}

#[test]
fn figure2_blames_the_tupled_lambda_body() {
    let src = sample("figure2.ml");
    let (text, a) = top_span_text(&src);
    assert_eq!(text, "x + y");
    assert_eq!(a.spans[0].score, 1.0);
    assert!(a.spans[0].in_core);
    assert!(!a.core.is_empty());
}

#[test]
fn figure8_blames_the_swapped_argument() {
    let src = sample("figure8.ml");
    let (text, a) = top_span_text(&src);
    assert_eq!(text, "s");
    assert!(a.spans[0].fixes_alone);
}

#[test]
fn multi_error_blames_the_first_conflict() {
    let src = sample("multi_error.ml");
    let (text, a) = top_span_text(&src);
    assert_eq!(text, "true");
    // The checker aborts at the first error, so the later `4 + "hi"`
    // conflict is invisible to this trace — by design (the search's
    // triage handles multi-error programs).
    assert!(a.spans.iter().all(|b| !b.span.text(&src).contains("hi")));
}

#[test]
fn reports_render_for_every_sample() {
    for name in ["figure2.ml", "figure8.ml", "multi_error.ml"] {
        let src = sample(name);
        let prog = parse_program(&src).unwrap();
        let a = analyze(&prog).unwrap();
        let report = render_report(&a, &src, 3);
        assert!(report.contains("Blame analysis"), "{name}: {report}");
        assert!(report.contains("blame 1.00"), "{name}: {report}");
    }
}

#[test]
fn blame_agrees_with_baseline_on_these_samples() {
    // On all three shipped samples the failing constraint is decided
    // locally (outer constructor clash), so the top blamed span must
    // coincide with the checker's own span. Non-local cores appear for
    // var-mediated conflicts; see the unit tests in `blame.rs`.
    for name in ["figure2.ml", "figure8.ml", "multi_error.ml"] {
        let src = sample(name);
        let prog = parse_program(&src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.spans[0].span, a.error.span, "{name}");
    }
}
