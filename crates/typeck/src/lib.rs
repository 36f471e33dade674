//! # seminal-typeck — the Hindley–Milner oracle
//!
//! A complete type checker for the Caml subset of `seminal-ml`:
//! Algorithm-W inference with let-polymorphism (value-restricted),
//! user-declared variants/records/exceptions, and OCaml-style first-error
//! messages.
//!
//! Two roles, per the paper:
//!
//! 1. **Oracle** ([`oracle::Oracle`]) — the search system asks only "does
//!    this program type-check?". No error-message machinery was added for
//!    its benefit; the wildcard `[[...]]` types exactly like `raise Foo`.
//! 2. **Baseline** — [`TypeError`]s rendered via [`TypeError::render`] are
//!    the conventional messages the evaluation (§3) compares against.
//!
//! ```
//! use seminal_ml::parser::parse_program;
//! use seminal_typeck::check_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let good = parse_program("let xs = List.map (fun x -> x + 1) [1; 2]")?;
//! assert!(check_program(&good).is_ok());
//!
//! let bad = parse_program("let xs = List.map (fun x -> x + 1) [true]")?;
//! let err = check_program(&bad).unwrap_err();
//! assert!(err.message().contains("has type"));
//! # Ok(())
//! # }
//! ```

pub mod chaos;
pub mod env;
pub mod error;
pub mod fingerprint;
pub mod incremental;
pub mod infer;
pub mod oracle;
pub mod record;
pub mod stdlib;
pub mod types;
pub mod unify;

pub use chaos::ChaosConfig;
pub use error::{TypeError, TypeErrorKind};
pub use fingerprint::program_fingerprint;
pub use incremental::CheckpointedOracle;
pub use infer::{check_program, check_program_types, trace_program, InferState};
pub use oracle::{
    guarded_check, guarded_probe, CountingOracle, IncrementalStats, Oracle, ProbeOutcome,
    TypeCheckOracle,
};
pub use record::{Constraint, ConstraintGraph, ConstraintTrace, GraphNode};
pub use types::{pretty, Scheme, TvId, Ty};
