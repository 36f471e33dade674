//! Recorder span attribution at let-polymorphic generalization sites.
//!
//! Both localization backends read meaning off `ConstraintTrace` spans,
//! so the recorder's attribution discipline at the subtlest sites —
//! generalized `let` bindings and their per-use instantiations — is a
//! contract worth pinning:
//!
//! * every constraint a *use* of a generalized binding induces carries
//!   that use site's span, never the binder's definition span;
//! * distinct instantiations use fresh type variables, so constraints
//!   from independent use sites land in distinct connected components
//!   of the exported constraint graph;
//! * when an instantiation fails, the failing constraint (the trace's
//!   final entry) sits inside the offending use, which is what confines
//!   the replay universe of both localization backends to the right
//!   component.

use seminal_ml::parser::parse_program;
use seminal_typeck::{trace_program, ConstraintTrace};

fn trace_of(src: &str) -> ConstraintTrace {
    trace_program(&parse_program(src).unwrap())
}

#[test]
fn instantiation_constraints_carry_use_site_spans() {
    let src = "let id = fun x -> x\nlet a = id 1\nlet b = id true";
    let trace = trace_of(src);
    assert!(trace.result.is_ok(), "program is well-typed");

    let def_end = src.find('\n').unwrap();
    let use_texts: Vec<&str> = trace
        .constraints
        .iter()
        .filter(|c| c.span.start as usize > def_end)
        .map(|c| c.span.text(src))
        .collect();
    // Each use of `id` induces constraints at its own argument and
    // application spans — all inside the using declaration.
    for expected in ["1", "id 1", "true", "id true"] {
        assert!(use_texts.contains(&expected), "no constraint at `{expected}`: {use_texts:?}");
    }
    // Nothing from the use sites is mis-attributed to the binder, and
    // no instantiation constraint is synthesized (empty span).
    assert!(
        trace.constraints.iter().all(|c| !c.span.is_empty()),
        "generalization sites must not produce empty-span constraints"
    );
}

#[test]
fn distinct_instantiations_occupy_distinct_graph_components() {
    let src = "let id = fun x -> x\nlet a = id 1\nlet b = id true";
    let trace = trace_of(src);
    let graph = trace.graph();

    let component_of = |needle: &str| {
        graph
            .nodes
            .iter()
            .find(|n| n.span.text(src) == needle)
            .map_or_else(|| panic!("no constraint at `{needle}`"), |n| n.component)
    };
    let (def, int_use, bool_use) =
        (component_of("fun x -> x"), component_of("id 1"), component_of("id true"));
    // Instantiation refreshes the scheme's quantified variables, so the
    // two uses share no variables with each other or the definition.
    assert_ne!(int_use, bool_use, "independent instantiations must not share a component");
    assert_ne!(def, int_use);
    assert_ne!(def, bool_use);
    // And each use's argument constraint lives with its application.
    assert_eq!(component_of("1"), int_use);
    assert_eq!(component_of("true"), bool_use);
}

#[test]
fn failing_instantiation_is_blamed_at_the_offending_use() {
    let src = "let pair = fun x -> (x, x)\nlet p = (fun (a, b) -> a + b) (pair true)";
    let trace = trace_of(src);
    let err = trace.result.as_ref().expect_err("bool pair fed to int addition");

    // The failing constraint is the trace's last entry and sits inside
    // the bad use of the generalized `pair`, not at its definition.
    let last = trace.constraints.last().expect("unsat trace records constraints");
    assert_eq!(last.span, err.span);
    assert_eq!(last.span.text(src), "(pair true)");

    // The replay universe (the failing component) contains only the
    // second declaration's constraints; `pair`'s own (generalized)
    // definition stays outside every localization replay.
    let universe = trace.replay_universe();
    assert!(universe.iter().any(|&u| !u), "the definition's constraints are outside");
    for (c, _) in trace.constraints.iter().zip(&universe).filter(|&(_, &u)| u) {
        assert_ne!(
            c.span.text(src),
            "fun x -> (x, x)",
            "definition constraint leaked into the failing component"
        );
    }
}

#[test]
fn value_restricted_bindings_still_attribute_to_use_sites() {
    // A non-value binding is not generalized (value restriction): both
    // uses then share the binder's variables, and the recorder must
    // still attribute each demand to its own use site even though the
    // constraints now connect into one component.
    let src = "let f = (fun x -> x) (fun y -> y)\nlet a = f 1\nlet b = f 2";
    let trace = trace_of(src);
    assert!(trace.result.is_ok());
    let graph = trace.graph();
    let comp_of =
        |needle: &str| graph.nodes.iter().find(|n| n.span.text(src) == needle).map(|n| n.component);
    if let (Some(a), Some(b)) = (comp_of("f 1"), comp_of("f 2")) {
        assert_eq!(a, b, "monomorphic uses share the binder's variables");
    }
}
