//! The §6 "open framework": registering project-specific constructive
//! changes without touching the searcher or the type-checker.
//!
//! ```text
//! cargo run --example custom_changes
//! ```
//!
//! The scenario: a codebase whose team keeps writing `List.length` where
//! they mean `List.hd` (say, after porting from a language where `len`
//! returns the first element — the point is that *domain-specific*
//! mistakes deserve domain-specific changes, as §6 suggests for embedded
//! DSLs).

use seminal::core::change::Candidate;
use seminal::core::{message, SearchSession};
use seminal::ml::ast::{Expr, ExprKind};
use seminal::ml::parser::parse_program;
use seminal::ml::span::Span;
use seminal::typeck::TypeCheckOracle;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
let shout =
  let first = List.length ["ada"; "grace"; "edsger"] in
  String.uppercase first
"#;
    let program = parse_program(source)?;

    // The stock searcher localizes the error but has no domain insight.
    let stock = SearchSession::builder(TypeCheckOracle::new()).build()?.search(&program);
    println!("stock top suggestion:");
    println!("{}", message::render(stock.best().expect("a suggestion")));

    // Register the team's change: any `List.length e` may have been
    // meant as `List.hd e`. A few lines, no compiler surgery, and the
    // oracle still validates every candidate — a bad custom change can
    // waste time but never produce a wrong "this type-checks" claim.
    let session = SearchSession::builder(TypeCheckOracle::new())
        .custom_change(Box::new(|node: &Expr| {
            let ExprKind::App(f, arg) = &node.kind else { return Vec::new() };
            let ExprKind::Var(name) = &f.kind else { return Vec::new() };
            if name != "List.length" {
                return Vec::new();
            }
            vec![Candidate {
                replacement: Expr::synth(
                    ExprKind::App(Arc::new(Expr::var("List.hd", Span::DUMMY)), arg.clone()),
                    Span::DUMMY,
                ),
                description: "take the first element with List.hd (team lint #42)".to_owned(),
            }]
        }))
        .build()?;
    let custom = session.search(&program);
    println!("with the custom change registered:");
    let hit = custom
        .suggestions()
        .iter()
        .find(|s| s.replacement_str.starts_with("List.hd"))
        .expect("the team's change should produce a validated suggestion");
    println!("{}", message::render(hit));
    assert!(matches!(hit.kind, seminal::core::ChangeKind::Constructive(_)));
    // And the stock searcher never proposed it.
    assert!(stock.suggestions().iter().all(|s| !s.replacement_str.starts_with("List.hd")));
    Ok(())
}
