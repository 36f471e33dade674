//! # seminal-corpus — the synthesized student-program corpus
//!
//! The paper evaluated on 1075 ill-typed files automatically collected
//! from 10 students across 5 homework assignments (§3.1). That data is
//! private, so this crate *generates* an equivalent corpus (DESIGN.md §2,
//! substitution 3):
//!
//! * [`templates`] — well-typed homework-style programs per assignment;
//! * [`mod@mutate`] — injectors for the paper's observed error classes, each
//!   recording a [`mutate::GroundTruth`] so message quality can be judged
//!   mechanically instead of manually;
//! * [`mod@generate`] — the 10 × 5 corpus with per-programmer error biases;
//! * [`session`] — the recompile-session model that yields Figure 6's
//!   same-problem group sizes.
//!
//! ```
//! use seminal_corpus::generate::{generate, small_config};
//!
//! let files = generate(&small_config(42));
//! assert!(!files.is_empty());
//! assert!(files.iter().all(|f| !f.truths.is_empty()));
//! ```

pub mod generate;
pub mod mutate;
pub mod path;
pub mod session;
pub mod templates;

pub use generate::{generate, CorpusConfig, CorpusFile};
pub use mutate::{mutate, mutate_chain, GroundTruth, Mutant, MutationKind, ALL_KINDS};
pub use templates::{Template, TEMPLATES};
