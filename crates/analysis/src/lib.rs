//! # seminal-analysis — constraint-blame localization
//!
//! SEMINAL treats the type checker as a black box and probes the AST
//! uniformly. But the failure itself carries localization signal: the
//! recorded constraint system of a failing inference run
//! ([`seminal_typeck::record`]) admits *minimal unsatisfiable cores*
//! (which constraints conflict) and *minimal correction subsets* (which
//! deletions restore satisfiability) — the two views Pavlinovic et al.'s
//! SMT-based localization and Goanna's Haskell error resolution rank
//! error sources by. Because our oracle is in-process, both are computed
//! by cheap replay ([`seminal_typeck::ConstraintTrace::subset_sat`]):
//! no re-parse, no oracle round-trip.
//!
//! Every replay runs inside the
//! [replay universe](seminal_typeck::ConstraintTrace::replay_universe),
//! the failing constraint's connected component. Components share no
//! type variables, so for any subset S, sat(S) = sat(S ∩ comp) ∧
//! sat(S ∖ comp); once the complement of the component replays
//! satisfiable, S ∖ comp lies inside a satisfiable set and sat(S) =
//! sat(S ∩ comp). Cores and correction subsets are therefore exactly the
//! whole-list ones, found in replays over a handful of constraints
//! rather than the hundreds a paper-sized file records.
//!
//! The result is a per-span **blame score** in `(0, 1]`:
//!
//! * constraints in the deletion-shrunk core share `1/|core|` each;
//! * constraints whose deletion (alone, or in a bounded set of small
//!   correction subsets) restores satisfiability earn `1/|subset|`;
//! * scores aggregate by inducing span and normalize so the top span
//!   scores 1.0.
//!
//! Two consumers: `seminal-core` uses scores to order and prune its
//! search (visit high-blame subtrees first, defer enumeration at
//! zero-blame sites), and the `seminal analyze` CLI prints the report
//! directly as a standalone type-error linter.
//!
//! Since PR 6 the crate hosts a *second*, oracle-free backend next to
//! blame analysis: the weighted **MCS** enumerator ([`mcs`]), which
//! lowers the recorded constraints into weighted soft/hard clauses
//! ([`weights`]) and enumerates ranked alternative minimal correction
//! subsets by a grow-and-block loop over the same replay primitive.
//! [`localize`] runs either one, selected by [`BackendKind`]
//! (`seminal analyze --backend`, or `SearchConfig::guidance_backend` for
//! the search).

pub mod backend;
pub mod blame;
pub mod mcs;
pub mod report;
pub mod weights;

pub use backend::{localize, BackendKind, Localization};
pub use blame::{analyze, analyze_trace, BlameAnalysis, SpanBlame};
pub use mcs::{analyze_mcs, analyze_mcs_trace, CorrectionSubset, McsAnalysis, McsMember};
pub use report::{render_mcs_report, render_report};
pub use weights::constraint_weights;
