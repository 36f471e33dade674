//! End-to-end search tests: every worked example in the paper, plus the
//! system's core soundness invariant (all suggested variants type-check).

use seminal_core::obs::{EventKind, TraceRecord};
use seminal_core::{message, ChangeKind, Completion, Outcome, SearchConfig, SearchSession};
use seminal_ml::parser::parse_program;
use seminal_typeck::{check_program, CountingOracle, TypeCheckOracle};
use std::sync::Arc;

fn search(src: &str) -> seminal_core::SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    SearchSession::builder(TypeCheckOracle::new()).build().unwrap().search(&prog)
}

fn search_cfg(src: &str, cfg: SearchConfig) -> seminal_core::SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    SearchSession::builder(TypeCheckOracle::new()).config(cfg).build().unwrap().search(&prog)
}

const FIGURE2: &str =
    "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
let ans = List.filter (fun x -> x == 0) lst\n";

#[test]
fn figure2_top_suggestion_is_the_curry_fix() {
    let report = search(FIGURE2);
    let best = report.best().expect("a suggestion");
    assert_eq!(best.original_str, "fun (x, y) -> x + y");
    assert_eq!(best.replacement_str, "fun x y -> x + y");
    assert_eq!(best.new_type.as_deref(), Some("int -> int -> int"));
    assert!(matches!(best.kind, ChangeKind::Constructive(_)));
    assert!(!best.triaged);
    assert!(best.context_str.contains("map2 (fun x y -> x + y)"), "context: {}", best.context_str);
}

#[test]
fn figure2_message_renders_like_the_paper() {
    let report = search(FIGURE2);
    let text = message::render(report.best().unwrap());
    assert!(text.contains("Try replacing"));
    assert!(text.contains("fun (x, y) -> x + y"));
    assert!(text.contains("of type int -> int -> int"));
    assert!(text.contains("within context"));
}

#[test]
fn figure2_search_stops_at_second_declaration() {
    let report = search(FIGURE2);
    assert_eq!(report.stats.first_bad_decl, 2);
}

#[test]
fn figure2_removal_candidates_match_paper() {
    // §2.1: removing `map2` or the lambda works; removing the lists does not.
    let report = search(FIGURE2);
    let removals: Vec<&str> = report
        .suggestions()
        .iter()
        .filter(|s| matches!(s.kind, ChangeKind::Removal) && !s.triaged)
        .map(|s| s.original_str.as_str())
        .collect();
    assert!(removals.contains(&"map2"), "{removals:?}");
    assert!(removals.contains(&"fun (x, y) -> x + y"), "{removals:?}");
    assert!(!removals.contains(&"[1; 2; 3]"), "{removals:?}");
    assert!(!removals.contains(&"[4; 5; 6]"), "{removals:?}");
    // And no change to `x + y` can help, so it is never a removal target.
    assert!(!removals.contains(&"x + y"), "{removals:?}");
}

#[test]
fn figure8_swapped_arguments() {
    let src = "let add str lst = if List.mem str lst then lst else str :: lst\n\
               let vList1 = [\"a\"]\n\
               let s = \"b\"\n\
               let r = add vList1 s\n";
    let report = search(src);
    let best = report.best().expect("a suggestion");
    assert_eq!(best.original_str, "add vList1 s");
    assert_eq!(best.replacement_str, "add s vList1");
    assert!(matches!(best.kind, ChangeKind::Constructive(_)));
}

#[test]
fn figure9_missing_argument_to_list_nth() {
    let src = "type move = For of int * move list | Other\n\
let rec loop movelist x acc =\n\
  match movelist with\n\
    [] -> acc\n\
  | For (moves, lst) :: tl ->\n\
      let rec finalLst index searchLst = if index = (moves - 1) then [] else (List.nth searchLst) :: (finalLst (index + 1) searchLst) in\n\
      loop (finalLst 0 lst) x acc\n\
  | Other :: tl -> loop tl x acc\n";
    let report = search(src);
    // The paper's winning message: add an argument to `List.nth searchLst`.
    let hit = report.suggestions().iter().find(|s| {
        s.original_str == "List.nth searchLst" && s.replacement_str == "List.nth searchLst [[...]]"
    });
    assert!(
        hit.is_some(),
        "expected the add-argument fix; top suggestions: {:?}",
        report
            .suggestions()
            .iter()
            .take(5)
            .map(|s| (&s.original_str, &s.replacement_str))
            .collect::<Vec<_>>()
    );
    // And it should be the best constructive suggestion (deepest).
    let best = report.best().unwrap();
    assert_eq!(best.original_str, "List.nth searchLst");
}

#[test]
fn multiple_errors_need_triage() {
    // §2.4 opening example: two independent errors in one definition.
    let src = "let go () =\n\
               let x = 3 + true in\n\
               let a = 1 + 2 in\n\
               let b = a * 3 in\n\
               let c = 4 + \"hi\" in\n\
               b + c\n";
    // Without triage: only coarse whole-subtree removal suggestions.
    let no_triage = search_cfg(src, SearchConfig::without_triage());
    let fine_wo = no_triage
        .suggestions()
        .iter()
        .any(|s| s.original_str == "true" || s.original_str == "\"hi\"");
    assert!(!fine_wo, "without triage the fine-grained fixes should be unreachable");

    // With triage: the precise locations surface.
    let full = search(src);
    assert!(full.stats.triage_used);
    let locs: Vec<&str> = full.suggestions().iter().map(|s| s.original_str.as_str()).collect();
    assert!(
        locs.contains(&"true") || locs.contains(&"3 + true"),
        "triage should localize the first error: {locs:?}"
    );
}

#[test]
fn triage_supersedes_wholesale_removal() {
    // §2.4: "Suggesting this entire code fragment be replaced does not
    // help" — when triage finds small changes, the giant removal must not
    // be the presented message.
    let src = "let go () =\n\
               let x = 3 + true in\n\
               let c = 4 + \"hi\" in\n\
               x + c\n";
    let report = search(src);
    let best = report.best().expect("a suggestion");
    assert!(best.triaged, "best should be a triaged fine-grained fix");
    assert!(
        best.size < 10,
        "best should be small, got `{}` (size {})",
        best.original_str,
        best.size
    );
    // The wholesale removal is still listed, but dead last.
    let last = report.suggestions().last().unwrap();
    assert!(
        matches!(last.kind, ChangeKind::Removal) && last.size >= 10,
        "the big removal should sink to the bottom"
    );
}

#[test]
fn triage_match_phases_figure4() {
    // Figure 4: scrutinee (int * 'a list), patterns with several errors.
    let src = "let f x y =\n\
               match (x, y) with\n\
                 0, [] -> []\n\
               | n, [] -> n\n\
               | _, 5 -> 5 + \"hi\"\n";
    let report = search(src);
    assert!(report.stats.triage_used, "must enter triage");
    // The pattern `5` (in `_, 5`) should be reported replaceable with `_`.
    let pat_fix = report
        .suggestions()
        .iter()
        .find(|s| s.triaged && s.original_str == "5" && s.replacement_str == "_");
    assert!(
        pat_fix.is_some(),
        "expected the `5` → `_` pattern suggestion, got {:?}",
        report
            .suggestions()
            .iter()
            .map(|s| (&s.original_str, &s.replacement_str, s.triaged))
            .collect::<Vec<_>>()
    );
    let text = message::render(pat_fix.unwrap());
    assert!(text.starts_with("Your code has several type errors."));
}

#[test]
fn adaptation_wins_for_if_condition() {
    // §2.3: `if e1 e2 then …` where e1 e2 : string. Adapting the whole
    // call `e1 e2` should rank above adapting just `e1` and above removal.
    let src = "let f (g : string -> string) (s : string) =\n\
               if g s then 1 else 2\n";
    let report = search(src);
    let adaptations: Vec<&seminal_core::Suggestion> =
        report.suggestions().iter().filter(|s| matches!(s.kind, ChangeKind::Adaptation)).collect();
    assert!(!adaptations.is_empty(), "adaptation should be found");
    assert_eq!(
        adaptations[0].original_str, "g s",
        "the larger expression should be the preferred adaptation"
    );
}

#[test]
fn unbound_variable_hint() {
    // §3.3's `print` vs `print_string` scenario (simplified: one use).
    let src = "let f x = print x; x + 1";
    let report = search(src);
    let hinted = report.suggestions().iter().find(|s| s.unbound_hint.as_deref() == Some("print"));
    assert!(
        hinted.is_some(),
        "expected the unbound-variable refinement, got {:?}",
        report.suggestions().iter().map(|s| (&s.original_str, &s.unbound_hint)).collect::<Vec<_>>()
    );
}

#[test]
fn list_comma_confusion_fixed() {
    let src = "let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]";
    let report = search(src);
    let fix = report
        .suggestions()
        .iter()
        .find(|s| s.original_str == "[1, 2, 3]" && s.replacement_str == "[1; 2; 3]");
    assert!(fix.is_some(), "expected the `;` fix");
    // It should outrank everything else (deepest constructive change).
    assert_eq!(report.best().unwrap().replacement_str, "[1; 2; 3]");
}

#[test]
fn missing_rec_fixed_at_declaration() {
    let src = "let fact n = if n = 0 then 1 else n * fact (n - 1)";
    let report = search(src);
    let fix = report.suggestions().iter().find(|s| s.replacement_str == "let rec");
    assert!(fix.is_some(), "expected the let rec fix");
}

#[test]
fn well_typed_program_bypasses_search() {
    let report = search("let x = 1 + 2\nlet y = x * 3\n");
    assert!(matches!(report.outcome, Outcome::WellTyped));
    assert_eq!(report.stats.oracle_calls, 1);
}

#[test]
fn float_operator_fix() {
    let src = "let area r = 3.14159 * r * r";
    let report = search(src);
    assert!(report.suggestions().iter().any(|s| s.replacement_str.contains("*.")));
}

#[test]
fn every_untriaged_suggestion_variant_type_checks() {
    // The system's core soundness invariant.
    for src in [
        FIGURE2,
        "let add str lst = if List.mem str lst then lst else str :: lst\nlet r = add [\"a\"] \"b\"\n",
        "let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]",
        "let f x = print x; x + 1",
        "let area r = 3.14159 * r * r",
    ] {
        let report = search(src);
        for s in report.suggestions() {
            if !s.triaged {
                assert!(
                    check_program(&s.variant).is_ok(),
                    "suggestion `{}` → `{}` variant does not type-check for {src}",
                    s.original_str,
                    s.replacement_str
                );
            }
        }
    }
}

#[test]
fn oracle_calls_are_counted_and_bounded() {
    let prog = parse_program(FIGURE2).unwrap();
    let oracle = CountingOracle::new(TypeCheckOracle::new());
    let report = SearchSession::builder(&oracle).build().unwrap().search(&prog);
    assert!(report.stats.oracle_calls >= oracle.calls());
    assert!(oracle.calls() > 5, "search must actually consult the oracle");
    assert!(oracle.calls() < 5_000, "search should not explode: {}", oracle.calls());
}

#[test]
fn tiny_budget_degrades_gracefully() {
    let cfg = SearchConfig { max_oracle_calls: 3, ..SearchConfig::default() };
    let report = search_cfg(FIGURE2, cfg);
    assert!(report.completion == Completion::BudgetExhausted || report.suggestions().len() <= 3);
}

#[test]
fn removal_only_config_still_finds_locations() {
    let report = search_cfg(FIGURE2, SearchConfig::removal_only());
    assert!(report.suggestions().iter().all(|s| matches!(s.kind, ChangeKind::Removal)));
    assert!(report.suggestions().iter().any(|s| s.original_str == "fun (x, y) -> x + y"));
}

#[test]
fn report_rendering_end_to_end() {
    let report = search(FIGURE2);
    let text = message::render_report(&report, FIGURE2, 3);
    assert!(text.contains("[1] At line 2"));
    assert!(text.contains("Try replacing"));
}

#[test]
fn baseline_error_is_carried() {
    let report = search(FIGURE2);
    let baseline = report.baseline.as_ref().unwrap();
    assert_eq!(baseline.span.text(FIGURE2), "x + y");
}

#[test]
fn custom_changes_extend_the_enumerator() {
    // §6's open framework: a project-specific change — "students often
    // write `List.map` where they need `List.iter`" — registered without
    // touching the searcher or the type-checker.
    use seminal_core::change::Candidate;
    use seminal_ml::ast::{Expr, ExprKind};
    use seminal_ml::span::Span;

    let src = "let log xs = print_string (List.map string_of_int xs)";
    let prog = parse_program(src).unwrap();

    // Without the custom change there is no constructive fix at the call.
    let plain = SearchSession::builder(TypeCheckOracle::new()).build().unwrap().search(&prog);
    assert!(plain.suggestions().iter().all(|s| !s.replacement_str.contains("String.concat")));

    let builder =
        SearchSession::builder(TypeCheckOracle::new()).custom_change(Box::new(|e: &Expr| {
            // Rewrite `List.map f xs` to `String.concat "" (List.map f xs)`.
            let ExprKind::App(_, _) = &e.kind else { return Vec::new() };
            let wrapped = Expr::synth(
                ExprKind::App(
                    Arc::new(Expr::synth(
                        ExprKind::App(
                            Arc::new(Expr::var("String.concat", Span::DUMMY)),
                            Arc::new(Expr::synth(
                                ExprKind::Lit(seminal_ml::ast::Lit::Str(String::new())),
                                Span::DUMMY,
                            )),
                        ),
                        Span::DUMMY,
                    )),
                    Arc::new(e.clone()),
                ),
                Span::DUMMY,
            );
            vec![Candidate {
                replacement: wrapped,
                description: "join the mapped strings with String.concat".to_owned(),
            }]
        }));
    let report = builder.build().unwrap().search(&prog);
    let hit = report.suggestions().iter().find(|s| s.replacement_str.contains("String.concat"));
    assert!(
        hit.is_some(),
        "custom change should fire: {:?}",
        report.suggestions().iter().map(|s| &s.replacement_str).collect::<Vec<_>>()
    );
    // And its variant type-checks like any built-in change's.
    assert!(check_program(&hit.unwrap().variant).is_ok());
}

#[test]
fn search_is_deterministic() {
    let a = search(FIGURE2);
    let b = search(FIGURE2);
    let keys = |r: &seminal_core::SearchReport| {
        r.suggestions()
            .iter()
            .map(|s| (s.original_str.clone(), s.replacement_str.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(keys(&a), keys(&b));
    assert_eq!(a.stats.oracle_calls, b.stats.oracle_calls);
}

#[test]
fn trace_records_every_probe() {
    let cfg = SearchConfig { collect_trace: true, ..SearchConfig::default() };
    let report = search_cfg(FIGURE2, cfg);
    // `(probe label, target, passed)` of every probe event.
    let probes: Vec<(String, &str, bool)> = report
        .records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Event {
                kind: EventKind::OracleProbe { probe, target, outcome, .. },
                ..
            } => Some((probe.label(), target.as_str(), *outcome)),
            _ => None,
        })
        .collect();
    // One event per oracle call, the baseline check included.
    assert_eq!(probes.len() as u64, report.stats.oracle_calls, "probe events vs calls");
    // The famous probes appear, with outcomes.
    assert!(probes.iter().any(|(l, t, ok)| l == "removal" && *t == "fun (x, y) -> x + y" && *ok));
    assert!(probes.iter().any(|(l, _, ok)| l.contains("curried") && *ok));
    assert!(probes.iter().any(|(_, _, ok)| !ok), "failed probes are recorded too");
    assert!(report
        .records
        .iter()
        .any(|r| matches!(r, TraceRecord::Event { kind: EventKind::PrefixLocalized { .. }, .. })));
}

#[test]
fn trace_off_by_default() {
    let report = search_cfg(FIGURE2, SearchConfig::default());
    assert!(report.records.is_empty());
}
