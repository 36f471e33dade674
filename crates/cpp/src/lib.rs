//! # seminal-cpp — the C++ template-function prototype (§4)
//!
//! A self-contained mini-C++ with implicit template-function
//! instantiation, an STL-slice prelude (`vector`, `transform`,
//! `compose1`, `bind1st`, `multiplies`, `ptr_fun`, `labs`), gcc-style
//! cascading diagnostics with "instantiated from here" chains, and the
//! adapted search procedure: `magicFun`-based removal/adaptation with
//! C++'s partial-inference limitation modeled, statement deletion,
//! argument hoisting, and STL-specific constructive changes.
//!
//! ```
//! use seminal_cpp::{check, parse_cpp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let good = parse_cpp("void f(vector<long>& v) { v.push_back(3); }")?;
//! assert!(check(&good).is_empty());
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod check;
pub mod edit;
pub mod parser;
pub mod prelude;
pub mod search;
pub mod types;

pub use ast::{CExpr, CExprKind, CFn, CId, CProgram, CStmt, CStmtKind};
pub use check::{check, CppError};
pub use parser::{parse_cpp, CppParseError};
pub use search::{
    search_cpp, CppChangeKind, CppChaos, CppConfigError, CppReport, CppSearchSession,
    CppSearchSessionBuilder, CppSuggestion,
};
pub use types::CType;
