//! Content fingerprints for programs.
//!
//! The verdict memo — the serve daemon's process-lifetime cache — keys
//! on [`program_fingerprint`]. The key must be stable across processes and
//! across re-parses of the same text: `NodeId`s are neither (the parser
//! hands them out in visit order), so the key folds each declaration's
//! [content key](seminal_ml::Decl::content_key), which [`Decl::new`]
//! computes from the tree's kinds, names and literals while it walks
//! the declaration for its id bounds. Nothing here prints a
//! declaration, and a probe's key costs one FNV step per declaration
//! word.
//!
//! The key ignores layout by design: a comment-only resubmission keys
//! like its original. That is sound because a memo caches only the
//! probe outcome — pass or fail — which layout cannot change; nothing
//! that carries a span is ever cached under it. Two programs collide
//! only if their trees are equal up to ids and spans or their keys
//! collide under FNV-1a 64; for a cache of probe outcomes the second is
//! an accepted risk (a collision can at worst replay another program's
//! outcome — about n²/2⁶⁵ for n keys — and the differential suites
//! would catch a systematic one).
//!
//! [`Decl::new`]: seminal_ml::Decl::new

use seminal_ml::ast::Program;
use seminal_obs::hash::{fnv1a_extend, FNV_OFFSET};

/// Fingerprint of a whole program: the declarations' content keys
/// folded through FNV-1a, so a shared prefix of declarations
/// contributes the same partial state regardless of what follows.
#[must_use]
pub fn program_fingerprint(prog: &Program) -> u64 {
    prog.decls.iter().fold(FNV_OFFSET, |hash, d| fnv1a_extend(hash, &d.content_key().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;

    #[test]
    fn identical_text_identical_fingerprint() {
        let a = parse_program("let x = 1 + true\nlet y = x").unwrap();
        let b = parse_program("let x = 1 + true\nlet y = x").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn different_programs_differ() {
        let a = parse_program("let x = 1 + true").unwrap();
        let b = parse_program("let x = 1 + 2").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn shared_prefix_shares_decl_keys() {
        let a = parse_program("let x = 1\nlet y = true").unwrap();
        let b = parse_program("let x = 1\nlet y = false").unwrap();
        assert_eq!(a.decls[0].content_key(), b.decls[0].content_key());
        assert_ne!(a.decls[1].content_key(), b.decls[1].content_key());
    }

    #[test]
    fn key_values_are_pinned() {
        // Every memo tier keys on these values; pin them so that a
        // change to the hash is a deliberate one.
        let p = parse_program("let x = 1 + true\nlet y = x").unwrap();
        assert_eq!(program_fingerprint(&p), 0x5f47_fddf_729e_9ea1);
        assert_eq!(p.decls[0].span_key(), 0x84dc_d56c_020d_9e2c);
    }
}
