//! # seminal-core — searching for type-error messages
//!
//! The primary contribution of Lerner, Flower, Grossman & Chambers,
//! *Searching for Type-Error Messages* (PLDI 2007): a search procedure
//! that produces type-error messages **without modifying the
//! type-checker**. The checker is a black-box [`Oracle`]; the changer
//! builds nearby program variants, keeps the ones that type-check, and a
//! ranker orders them into messages such as
//!
//! ```text
//! Try replacing fun (x, y) -> x + y with fun x y -> x + y
//! of type int -> int -> int
//! within context let lst = map2 (fun x y -> x + y) [1;2;3] [4;5;6]
//! ```
//!
//! The four stages of the paper's §2 map onto this crate as:
//!
//! * top-down removal (§2.1) — [`SearchSession::search`]'s recursive descent;
//! * constructive changes (§2.2) — [`enumerate::changes_for`];
//! * adaptation to context (§2.3) — `adapt e` probes in the searcher;
//! * triage for multiple errors (§2.4) — sibling-wildcarding and the
//!   three match phases in the searcher.
//!
//! ```
//! use seminal_core::{SearchSession, message};
//! use seminal_ml::parser::parse_program;
//! use seminal_typeck::TypeCheckOracle;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "let lst = List.map (fun (x, y) -> x + y) (List.combine [1] [2])";
//! let prog = parse_program(src)?;
//! let session = SearchSession::builder(TypeCheckOracle::new()).build()?;
//! let report = session.search(&prog);
//! assert!(report.best().is_none()); // this one type-checks
//! # Ok(())
//! # }
//! ```
//!
//! Searches run sequentially by default; `.threads(n)` on the builder
//! turns on the parallel probe engine (see [`engine`]), which drains
//! each enumeration frontier through a work-stealing worker pool into a
//! sharded memo without changing the suggestion set.

pub mod budget;
pub mod change;
pub mod config;
pub mod engine;
pub mod enumerate;
pub mod memo;
pub mod message;
pub mod rank;
pub mod search;
pub mod session;

pub use budget::{Budget, SearchHandle, StopReason};
pub use change::{Candidate, ChangeKind, Focus, Probe, Suggestion};
pub use config::{ConfigError, SearchConfig};
pub use memo::{MemoLookup, SharedMemoOracle, VerdictMemo, DEFAULT_CROSS_MEMO_CAPACITY};
pub use search::{CustomChange, Outcome, SearchReport, SearchStats};
pub use session::{SearchSession, SearchSessionBuilder};

// Re-export the oracle trait so downstream users need one import, and
// the fault-tolerance vocabulary search reports speak.
pub use seminal_obs::Completion;
pub use seminal_typeck::{Oracle, ProbeOutcome, TypeCheckOracle};

// Re-export the localization-backend selector so configuring
// `SearchConfig::guidance_backend` needs no direct `seminal-analysis`
// dependency downstream.
pub use seminal_analysis::BackendKind;

// Re-export the observability layer the search reports through, so
// downstream users can consume `SearchReport::records`/`metrics` and
// attach sinks with one import.
pub use seminal_obs as obs;
