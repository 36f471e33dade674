//! # seminal-testkit — the property-fuzzing harness
//!
//! The search system's core promise (§2 of the paper) is that every
//! suggestion it emits comes from a variant the type-checker oracle
//! *accepted*. After blame guidance, the incremental oracle, memoized
//! verdicts, budgets, and chaos injection, that promise — and the
//! determinism and accounting identities around it — has an interaction
//! surface no hand-written suite covers. This crate keeps it honest
//! mechanically:
//!
//! * [`gen`] — a deterministic, seed-driven generator of *adversarial*
//!   ill-typed Caml-subset programs: deep nesting straddling the parser
//!   and inference depth guards, shadowing chains, polymorphic-recursion
//!   attempts, wide `match` arms, raw mutation chains over the
//!   corpus templates (which, unlike [`seminal_corpus::mutate()`], may be
//!   *vacuous* — still well-typed — and are counted rather than hidden),
//!   and checkpoint-stress programs that plant the error in the first,
//!   middle, or last of many declarations around let-polymorphic
//!   generalization sites;
//! * [`oracles`] — the differential invariant catalog checked on every
//!   case: suggestions re-typecheck under a fresh oracle, pretty-print →
//!   reparse is a fixpoint, blame-guided vs unguided agreement,
//!   localization-backend agreement, `Completion` consistency with the
//!   run's stats, incremental-vs-scratch oracle identity (payloads,
//!   ranks, and probe accounting must not depend on the checkpointed
//!   fast path), and a warm shared memo answering a layout twin as a
//!   cold one;
//! * [`shrink`](mod@shrink) — a delta-debugging shrinker that minimizes a failing
//!   program while preserving the violated invariant, validating every
//!   candidate through the same render→reparse pipeline the harness
//!   uses (so minimized regressions never trip the parser's depth
//!   guard);
//! * [`harness`] — the `seminal fuzz` driver: seeded case loop, vacuous
//!   and parse-reject accounting, JSONL failure artifacts;
//! * [`cppfuzz`] — a smaller index-keyed loop for the C++ prototype;
//! * [`golden`] — the checked-in corpus of previously-shrunk regressions
//!   replayed by tier-1 tests.
//!
//! Everything is a pure function of the seed: `fuzz --seed S --cases N`
//! reproduces byte-identical failures, and each failure record carries
//! the per-case seed so one case can be replayed alone.

pub mod cppfuzz;
pub mod gen;
pub mod golden;
pub mod harness;
pub mod oracles;
pub mod shrink;

pub use cppfuzz::{run_cpp_fuzz, CppFuzzConfig, CppFuzzSummary};
pub use gen::{case_seed, generate_case, Family, GeneratedCase};
pub use golden::{load_corpus, GoldenCorpus, GoldenEntry, GoldenKind};
pub use harness::{run_fuzz, FuzzConfig, FuzzFailure, FuzzSummary};
pub use oracles::{InvariantSuite, Violation};
pub use shrink::{candidates, shrink, ShrinkOutcome};
