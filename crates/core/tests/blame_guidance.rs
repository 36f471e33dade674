//! Invariance tests for constraint-blame guidance: on every end-to-end
//! scenario of `search.rs`, the guided search must (a) spend no more
//! oracle calls than the unguided search, (b) report the same top-ranked
//! suggestion, and (c) report a superset-or-equal of the unguided top-3 —
//! guidance reorders work, it never loses messages.

use seminal_core::obs::{EventKind, TraceRecord};
use seminal_core::{SearchConfig, SearchReport, SearchSession};
use seminal_ml::parser::parse_program;
use seminal_typeck::TypeCheckOracle;

const SCENARIOS: &[(&str, &str)] = &[
    (
        "figure2",
        "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
         let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
         let ans = List.filter (fun x -> x == 0) lst\n",
    ),
    (
        "figure8",
        "let add str lst = if List.mem str lst then lst else str :: lst\n\
         let vList1 = [\"a\"]\n\
         let s = \"b\"\n\
         let r = add vList1 s\n",
    ),
    (
        "multi_error_triage",
        "let go () =\n\
         let x = 3 + true in\n\
         let a = 1 + 2 in\n\
         let b = a * 3 in\n\
         let c = 4 + \"hi\" in\n\
         b + c\n",
    ),
    (
        "adaptation_if_condition",
        "let f (g : string -> string) (s : string) =\n\
         if g s then 1 else 2\n",
    ),
    ("unbound_variable", "let f x = print x; x + 1"),
    ("list_comma", "let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]"),
    ("missing_rec", "let fact n = if n = 0 then 1 else n * fact (n - 1)"),
    ("float_operator", "let area r = 3.14159 * r * r"),
];

fn run(src: &str, cfg: SearchConfig) -> SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    // threads(1): these tests compare exact oracle-call costs between
    // configurations, which only makes sense on the sequential path
    // (the engine's shared memo would fold duplicate probes into hits).
    SearchSession::builder(TypeCheckOracle::new())
        .config(cfg)
        .threads(1)
        .build()
        .unwrap()
        .search(&prog)
}

fn keys(report: &SearchReport) -> Vec<(String, String)> {
    report
        .suggestions()
        .iter()
        .map(|s| (s.original_str.clone(), s.replacement_str.clone()))
        .collect()
}

#[test]
fn guided_search_never_costs_more_oracle_calls() {
    for (name, src) in SCENARIOS {
        let on = run(src, SearchConfig::default());
        let off = run(src, SearchConfig::without_blame_guidance());
        assert!(
            on.stats.oracle_calls <= off.stats.oracle_calls,
            "{name}: guided {} calls > unguided {}",
            on.stats.oracle_calls,
            off.stats.oracle_calls
        );
    }
}

#[test]
fn guided_search_saves_calls_on_multi_declaration_programs() {
    // The acceptance-criterion direction of the inequality: programs
    // whose error sits past the first declaration skip the prefix probes
    // entirely, so the guided search is strictly cheaper there.
    for name in ["figure2", "figure8"] {
        let src = SCENARIOS.iter().find(|(n, _)| n == &name).unwrap().1;
        let on = run(src, SearchConfig::default());
        let off = run(src, SearchConfig::without_blame_guidance());
        assert!(
            on.stats.oracle_calls < off.stats.oracle_calls,
            "{name}: guided {} calls, unguided {}",
            on.stats.oracle_calls,
            off.stats.oracle_calls
        );
    }
}

#[test]
fn guided_search_keeps_the_top_suggestion() {
    for (name, src) in SCENARIOS {
        let on = run(src, SearchConfig::default());
        let off = run(src, SearchConfig::without_blame_guidance());
        let top = |r: &SearchReport| {
            r.best().map(|s| (s.original_str.clone(), s.replacement_str.clone()))
        };
        assert_eq!(top(&on), top(&off), "{name}: top suggestion changed under guidance");
    }
}

#[test]
fn guided_search_reports_a_superset_of_unguided_top3() {
    for (name, src) in SCENARIOS {
        let on = run(src, SearchConfig::default());
        let off = run(src, SearchConfig::without_blame_guidance());
        let on_keys = keys(&on);
        for k in keys(&off).into_iter().take(3) {
            assert!(
                on_keys.contains(&k),
                "{name}: unguided suggestion {k:?} lost under guidance; guided set: {on_keys:?}"
            );
        }
    }
}

#[test]
fn guidance_stats_are_populated() {
    let src = SCENARIOS[0].1; // figure2
    let on = run(src, SearchConfig::default());
    assert!(on.stats.core_size >= 1, "type-mismatch scenario must have a core");
    assert!(on.stats.blame_time > std::time::Duration::ZERO);

    // Deferral fires where a removable subtree is disjoint from every
    // blamed span — figure8's `add vList1` head, whose conflict sits in
    // the sibling argument `s`.
    let fig8 = SCENARIOS.iter().find(|(n, _)| *n == "figure8").unwrap().1;
    let fig8_on = run(fig8, SearchConfig::default());
    assert!(fig8_on.stats.sites_pruned > 0, "figure8 has a zero-blame site to defer");

    let off = run(src, SearchConfig::without_blame_guidance());
    assert_eq!(off.stats.core_size, 0);
    assert_eq!(off.stats.sites_pruned, 0);
    assert_eq!(off.stats.blame_time, std::time::Duration::ZERO);
    assert!(off.suggestions().iter().all(|s| s.blame == 0));
}

#[test]
fn guided_first_bad_decl_matches_probed_first_bad_decl() {
    for (name, src) in SCENARIOS {
        let on = run(src, SearchConfig::default());
        let off = run(src, SearchConfig::without_blame_guidance());
        assert_eq!(
            on.stats.first_bad_decl, off.stats.first_bad_decl,
            "{name}: static localization disagrees with prefix probing"
        );
    }
}

#[test]
fn guided_search_is_deterministic() {
    for (_, src) in SCENARIOS {
        let a = run(src, SearchConfig::default());
        let b = run(src, SearchConfig::default());
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(a.stats.oracle_calls, b.stats.oracle_calls);
        assert_eq!(a.stats.sites_pruned, b.stats.sites_pruned);
    }
}

#[test]
fn guided_trace_still_records_a_prefix_event() {
    let src = SCENARIOS[0].1; // figure2
    let cfg = SearchConfig { collect_trace: true, ..SearchConfig::default() };
    let report = run(src, cfg);
    assert!(report
        .records
        .iter()
        .any(|r| matches!(r, TraceRecord::Event { kind: EventKind::PrefixLocalized { .. }, .. })));
}
