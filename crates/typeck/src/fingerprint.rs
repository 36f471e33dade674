//! Content fingerprints for programs and their top-level subtrees.
//!
//! Every verdict memo — one search's, the parallel engine's and the
//! serve daemon's process-lifetime tier alike — keys on
//! [`program_fingerprint`]. The key must be stable across processes and
//! across re-parses of the same text: `NodeId`s are neither (the parser
//! hands them out in visit order), so the key is an FNV-1a hash over
//! the **pretty-printed** subtree, compressed to a `u64` so millions of
//! outcomes fit in memory. It ignores layout by design: a comment-only
//! resubmission keys like its original. That is sound because a memo
//! caches only the probe outcome — pass or fail — which layout cannot
//! change; nothing that carries a span is ever cached under it.
//!
//! Printing is the expensive part, and a probe shares every declaration
//! but its edited one with the base program by `Arc`. A
//! [`FingerprintCache`] of the base therefore prints only the
//! declarations a probe rebuilt, and its keys are bit-identical to
//! [`program_fingerprint`]'s: the key's value never depends on which
//! path built it.
//!
//! Two programs collide only if their printed forms collide under
//! FNV-1a 64; for a cache of probe outcomes that is an accepted risk
//! (a collision can at worst replay another program's outcome — about
//! n²/2⁶⁵ for n keys — and the differential suites would catch a
//! systematic one).

use seminal_ml::ast::{Decl, DeclKind, Program};
use seminal_ml::pretty::decl_to_string;
use seminal_obs::hash::{fnv1a, fnv1a_extend, FNV_OFFSET};
use std::sync::Arc;

/// Fingerprint of one top-level declaration subtree: FNV-1a over its
/// pretty-printed text.
#[must_use]
pub fn decl_fingerprints(prog: &Program) -> Vec<u64> {
    prog.decls.iter().map(|d| decl_fingerprint(d)).collect()
}

fn decl_fingerprint(d: &Decl) -> u64 {
    fnv1a(decl_to_string(d).as_bytes())
}

/// Fingerprint of one declaration including its source spans: the
/// pretty-printed text folded together with every node span.
///
/// The incremental oracle uses this — not the text-only hash — to decide
/// that two declarations are interchangeable as a checked prefix. Text
/// equality alone is not enough there: type errors carry spans, so two
/// declarations that print identically but sit at different source
/// offsets must *not* be treated as the same prefix (the cached
/// `TypeError` would point at the wrong place). Node ids are deliberately
/// excluded — they never influence inference or its errors.
#[must_use]
pub fn decl_fingerprint_spanned(d: &Decl) -> u64 {
    let mut hash = fnv1a(decl_to_string(d).as_bytes());
    let mut mix = |start: u32, end: u32| {
        hash = fnv1a_extend(hash, &start.to_le_bytes());
        hash = fnv1a_extend(hash, &end.to_le_bytes());
    };
    mix(d.span.start, d.span.end);
    d.for_each_expr(&mut |e| mix(e.span.start, e.span.end));
    if let DeclKind::Let { bindings, .. } = &d.kind {
        for b in bindings {
            b.pat.walk(&mut |p| mix(p.span.start, p.span.end));
            for param in &b.params {
                param.walk(&mut |p| mix(p.span.start, p.span.end));
            }
        }
    }
    hash
}

/// Fingerprint of a whole program: the per-declaration subtree hashes
/// folded through FNV-1a again (rather than hashing the concatenated
/// text) so that a shared prefix of declarations contributes the same
/// partial state regardless of what follows — the property
/// [`FingerprintCache`] builds on.
#[must_use]
pub fn program_fingerprint(prog: &Program) -> u64 {
    fold(decl_fingerprints(prog))
}

/// Folds per-declaration fingerprints into a program fingerprint.
fn fold(decl_fps: impl IntoIterator<Item = u64>) -> u64 {
    decl_fps.into_iter().fold(FNV_OFFSET, |hash, sub| fnv1a_extend(hash, &sub.to_le_bytes()))
}

/// The per-declaration fingerprints of one base program, kept with its
/// declaration `Arc`s. An `Arc`-shared declaration has the same text,
/// so [`FingerprintCache::program_fingerprint`] prints only the
/// declarations a probe rebuilt: O(edit) per probe, and bit-identical
/// to [`program_fingerprint`] for every program, sharing or not.
#[derive(Debug, Clone)]
pub struct FingerprintCache {
    decls: Vec<Arc<Decl>>,
    fps: Vec<u64>,
}

impl FingerprintCache {
    /// Fingerprints every declaration of `base`.
    #[must_use]
    pub fn new(base: &Program) -> FingerprintCache {
        FingerprintCache { decls: base.decls.clone(), fps: decl_fingerprints(base) }
    }

    /// [`program_fingerprint`] of `prog`, reusing the base's fingerprint
    /// for every declaration that is the same `Arc` at the same index.
    #[must_use]
    pub fn program_fingerprint(&self, prog: &Program) -> u64 {
        fold(prog.decls.iter().enumerate().map(|(i, d)| match self.decls.get(i) {
            Some(base) if Arc::ptr_eq(base, d) => self.fps[i],
            _ => decl_fingerprint(d),
        }))
    }
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
    fn whitespace_normalizes_through_pretty() {
        // The key is the printed form, not the source text.
        let a = parse_program("let x = 1 + true").unwrap();
        let b = parse_program("let x =  1   + true").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn different_programs_differ() {
        let a = parse_program("let x = 1 + true").unwrap();
        let b = parse_program("let x = 1 + 2").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn shared_prefix_shares_decl_hashes() {
        let a = parse_program("let x = 1\nlet y = true").unwrap();
        let b = parse_program("let x = 1\nlet y = false").unwrap();
        let (fa, fb) = (decl_fingerprints(&a), decl_fingerprints(&b));
        assert_eq!(fa[0], fb[0]);
        assert_ne!(fa[1], fb[1]);
    }

    #[test]
    fn cached_keys_equal_program_fingerprint() {
        let src = "let x = 1\nlet y = x + 1\nlet z = y + true";
        let base = parse_program(src).unwrap();
        let cache = FingerprintCache::new(&base);
        let mut ids = Vec::new();
        base.decls[1].for_each_expr(&mut |e| ids.push(e.id));
        let mut longer = base.clone();
        longer.decls.push(parse_program("let w = z").unwrap().decls[0].clone());
        // The base, an Arc-sharing probe, a shorter prefix, a longer
        // program, and a re-parse sharing no Arcs.
        let probes = [
            base.clone(),
            seminal_ml::edit::remove_expr(&base, ids[0]),
            base.prefix(2),
            longer,
            parse_program(src).unwrap(),
        ];
        assert!(Arc::ptr_eq(&probes[1].decls[2], &base.decls[2]));
        assert!(!Arc::ptr_eq(&probes[4].decls[0], &base.decls[0]));
        for p in &probes {
            assert_eq!(cache.program_fingerprint(p), program_fingerprint(p));
        }
    }

    #[test]
    fn key_values_are_pinned() {
        // Every memo tier keys on these values; pin them so that a
        // change to the hash is a deliberate one.
        let p = parse_program("let x = 1 + true\nlet y = x").unwrap();
        assert_eq!(program_fingerprint(&p), 0xe0db_1852_7f92_88e3);
        assert_eq!(decl_fingerprint_spanned(&p.decls[0]), 0x75da_4335_bcbd_97dd);
    }

    #[test]
    fn matches_raw_fnv_of_printed_decls() {
        let p = parse_program("let x = 1").unwrap();
        let subs = decl_fingerprints(&p);
        assert_eq!(subs[0], fnv1a(decl_to_string(&p.decls[0]).as_bytes()));
    }
}
