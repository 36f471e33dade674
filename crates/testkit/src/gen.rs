//! The adversarial case generator.
//!
//! Where `seminal-corpus` generates *realistic* student programs (its
//! mutants are guaranteed ill-typed, with ground truth), this generator
//! aims at the implementation's own edges: nesting depths straddling the
//! parser's `MAX_DEPTH = 64` and inference's `MAX_DEPTH = 48` guards,
//! shadowing chains that move a name across types, occurs-check
//! (polymorphic recursion) attempts, wide `match` expressions that
//! exercise triage, and raw mutation chains with **no** ill-typed
//! guarantee. Cases that fail to parse or still type-check are expected
//! and are the harness's job to count, not errors of this module.
//!
//! Every case is a pure function of `(seed, index)`, so any failing case
//! can be regenerated alone from its recorded per-case seed.

use seminal_corpus::{mutate_chain, ALL_KINDS, TEMPLATES};
use seminal_obs::SplitMix64;

/// The six adversarial program families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Nesting chosen to land near (sometimes beyond) the depth guards.
    DeepNesting,
    /// A shadowing chain that re-binds one name across types, then uses
    /// the final binding at the wrong type.
    Shadowing,
    /// Occurs-check failures: recursion whose argument grows its own type.
    PolyRecursion,
    /// A wide `match` with one or two wrong-typed arms (triage fodder).
    WideMatch,
    /// A raw [`mutate_chain`] over a corpus template — may be vacuous.
    MutationChain,
    /// A many-declaration program with let-polymorphic generalization
    /// sites where the ill-typed use sits in the first, middle, or last
    /// declaration — the adversarial workload for the checkpointed
    /// incremental oracle's prefix reuse and rollback.
    CheckpointStress,
}

impl Family {
    /// All families, in generation-weight order.
    pub const ALL: [Family; 6] = [
        Family::DeepNesting,
        Family::Shadowing,
        Family::PolyRecursion,
        Family::WideMatch,
        Family::MutationChain,
        Family::CheckpointStress,
    ];

    /// Stable label for reports and JSONL artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Family::DeepNesting => "deep-nesting",
            Family::Shadowing => "shadowing",
            Family::PolyRecursion => "poly-recursion",
            Family::WideMatch => "wide-match",
            Family::MutationChain => "mutation-chain",
            Family::CheckpointStress => "checkpoint-stress",
        }
    }
}

/// One generated fuzz case: the source text plus where it came from.
#[derive(Debug, Clone)]
pub struct GeneratedCase {
    /// Position in the run's case sequence.
    pub index: u64,
    /// Which generator produced it.
    pub family: Family,
    /// The per-case seed ([`case_seed`]) — enough to regenerate this
    /// case without replaying the whole run.
    pub seed: u64,
    /// The program text (may fail to parse or even type-check; the
    /// harness classifies).
    pub source: String,
}

/// The per-case seed: the run seed mixed with the case index through the
/// SplitMix64 increment, so consecutive cases draw independent streams.
pub fn case_seed(seed: u64, index: u64) -> u64 {
    seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generates case `index` of a run seeded with `seed`.
pub fn generate_case(seed: u64, index: u64) -> GeneratedCase {
    let per_case = case_seed(seed, index);
    let mut rng = SplitMix64::seed_from_u64(per_case);
    let family = Family::ALL[rng.random_range(0..Family::ALL.len())];
    let source = match family {
        Family::DeepNesting => deep_nesting(&mut rng),
        Family::Shadowing => shadowing(&mut rng),
        Family::PolyRecursion => poly_recursion(&mut rng),
        Family::WideMatch => wide_match(&mut rng),
        Family::MutationChain => chain(&mut rng),
        Family::CheckpointStress => checkpoint_stress(&mut rng),
    };
    GeneratedCase { index, family, seed: per_case, source }
}

/// Nested expressions whose depth straddles the guards: inference's
/// `MAX_DEPTH = 48` (a legitimate `TooDeep` type error) and the parser's
/// `MAX_DEPTH = 64` (a parse reject the harness counts, not a failure).
fn deep_nesting(rng: &mut SplitMix64) -> String {
    let layers = rng.random_range(6..40usize);
    match rng.random_range(0..3usize) {
        0 => {
            // (1 + (1 + ... (1 + true))) — innermost operand mismatch.
            let mut src = String::from("let deep = ");
            for _ in 0..layers {
                src.push_str("(1 + ");
            }
            src.push_str("true");
            src.push_str(&")".repeat(layers));
            src.push('\n');
            src
        }
        1 => {
            // Nested ifs with a string in the innermost then-branch.
            let mut body = String::from("\"s\"");
            for _ in 0..layers {
                body = format!("if true then ({body}) else 0");
            }
            format!("let deep = {body}\n")
        }
        _ => {
            // A deeply nested list summed with an int.
            let mut body = String::from("true");
            for _ in 0..layers {
                body = format!("[{body}]");
            }
            format!("let deep = 1 + {body}\n")
        }
    }
}

const SHADOW_VALUES: [(&str, &str); 4] =
    [("int", "1"), ("string", "\"one\""), ("bool", "true"), ("float", "2.5")];

/// Re-binds one name across types, then uses the last binding wrongly.
fn shadowing(rng: &mut SplitMix64) -> String {
    let name = ["x", "v", "acc"][rng.random_range(0..3usize)];
    let links = rng.random_range(2..6usize);
    if rng.random_range(0..2usize) == 0 {
        // Top-level shadow chain.
        let mut src = String::new();
        let mut last = 0usize;
        for _ in 0..links {
            let pick = rng.random_range(0..SHADOW_VALUES.len());
            last = pick;
            src.push_str(&format!("let {name} = {}\n", SHADOW_VALUES[pick].1));
        }
        let misuse = if SHADOW_VALUES[last].0 == "int" {
            format!("let wrong = {name} ^ \"tail\"\n")
        } else {
            format!("let wrong = {name} + 1\n")
        };
        src.push_str(&misuse);
        src
    } else {
        // let-in rewrapping inside one function body.
        let wraps = rng.random_range(1..4usize);
        let mut body = format!("let {name} = ({name}, {name}) in");
        for _ in 0..wraps {
            body = format!("{body} let {name} = [{name}] in");
        }
        format!("let f {name} = {body} {name} + 1\n")
    }
}

/// Occurs-check attempts: the recursive call grows its own argument type.
fn poly_recursion(rng: &mut SplitMix64) -> String {
    let name = ["f", "grow", "walk"][rng.random_range(0..3usize)];
    let lit = rng.random_range(0..9u64);
    match rng.random_range(0..3usize) {
        0 => format!(
            "let rec {name} x = if true then x else {name} (x, x)\nlet used = {name} {lit}\n"
        ),
        1 => format!("let rec {name} n = {name} [n]\nlet used = {name} {lit}\n"),
        _ => format!("let rec {name} x = 1 + {name} x x\nlet used = {name} {lit}\n"),
    }
}

/// A wide `match` over an int scrutinee with one or two wrong-typed
/// arms — many sibling subtrees for the searcher, and a triage scenario
/// when two arms are wrong.
fn wide_match(rng: &mut SplitMix64) -> String {
    let arms = rng.random_range(6..14usize);
    let bad = rng.random_range(0..arms);
    let second_bad =
        if rng.random_range(0..3usize) == 0 { Some(rng.random_range(0..arms)) } else { None };
    let mut src = String::from("let classify n =\n  match n with\n");
    for i in 0..arms {
        let body = if i == bad {
            format!("{i}")
        } else if Some(i) == second_bad {
            "false".to_owned()
        } else {
            format!("\"w{i}\"")
        };
        if i == 0 {
            src.push_str(&format!("    0 -> {body}\n"));
        } else {
            src.push_str(&format!("  | {i} -> {body}\n"));
        }
    }
    src.push_str("  | _ -> \"rest\"\n");
    src.push_str(&format!("let shown = classify {}\n", rng.random_range(0..20u64)));
    src
}

/// Many top-level declarations around let-polymorphic generalization
/// sites, with the ill-typed declaration planted first, in the middle,
/// or last. The incremental oracle marks its live inference state at
/// every declaration boundary, so each position stresses a different path:
/// an early error forces near-full recheck, a late one maximizes prefix
/// reuse, and the polymorphic helpers in between catch any
/// over-generalization leaking out of a rolled-back tail.
fn checkpoint_stress(rng: &mut SplitMix64) -> String {
    let mut decls: Vec<String> = vec![
        "let id x = x".to_owned(),
        "let pair x = (x, x)".to_owned(),
        "let twice f x = f (f x)".to_owned(),
    ];
    // Monomorphic padding that *uses* the polymorphic helpers at
    // concrete types, so a stale generalization would be observable.
    let pads = rng.random_range(2..5usize);
    for i in 0..pads {
        let use_site = match rng.random_range(0..4usize) {
            0 => format!("let u{i} = id {i}"),
            1 => format!("let u{i} = pair \"s{i}\""),
            2 => format!("let u{i} = twice (fun n -> n + {i}) {i}"),
            _ => format!("let u{i} = List.map id [{i}; {i}]"),
        };
        decls.push(use_site);
    }
    // The planted error: first, middle, or last declaration.
    let bad = match rng.random_range(0..4usize) {
        0 => "let bad = id 1 ^ \"tail\"".to_owned(),
        1 => "let bad = pair true + 1".to_owned(),
        2 => "let bad = twice id true + 1".to_owned(),
        _ => "let bad = if id true then 1 else \"s\"".to_owned(),
    };
    let slot = match rng.random_range(0..3usize) {
        0 => 0,               // first: no reusable prefix
        1 => decls.len() / 2, // middle: partial reuse + rollback
        _ => decls.len(),     // last: maximal prefix reuse
    };
    decls.insert(slot, bad);
    decls.join("\n") + "\n"
}

/// A raw mutation chain over a random corpus template. No ill-typed
/// guarantee: the harness counts the well-typed outcomes as
/// `fuzz.vacuous_cases` (the satellite fix this family exists to cover).
fn chain(rng: &mut SplitMix64) -> String {
    let template = TEMPLATES[rng.random_range(0..TEMPLATES.len())];
    let steps = rng.random_range(1..4usize);
    match mutate_chain(template.source, ALL_KINDS, steps, rng) {
        Some(mutant) => mutant.source,
        // No link applied (rare); fall back to the smallest ill-typed
        // program so the case still exercises the pipeline.
        None => "let fallback = 1 + true\n".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;

    #[test]
    fn generation_is_deterministic_in_seed_and_index() {
        for index in 0..40 {
            let a = generate_case(42, index);
            let b = generate_case(42, index);
            assert_eq!(a.source, b.source, "case {index} not deterministic");
            assert_eq!(a.family, b.family);
            assert_eq!(a.seed, case_seed(42, index));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a: Vec<String> = (0..20).map(|i| generate_case(1, i).source).collect();
        let b: Vec<String> = (0..20).map(|i| generate_case(2, i).source).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn every_family_appears_and_most_cases_parse() {
        let mut seen = std::collections::HashSet::new();
        let mut parsed = 0;
        let total = 120;
        for i in 0..total {
            let case = generate_case(7, i);
            seen.insert(case.family);
            if parse_program(&case.source).is_ok() {
                parsed += 1;
            }
        }
        assert_eq!(seen.len(), Family::ALL.len(), "family coverage: {seen:?}");
        // Deep-nesting deliberately straddles the parser guard, so some
        // rejects are expected — but the bulk of the stream must parse.
        assert!(parsed * 2 > total, "only {parsed}/{total} cases parse");
    }
}
