//! Content fingerprints for programs and their top-level subtrees.
//!
//! The serve daemon's cross-request memo (PR 8) needs a key that is
//! stable across processes and across re-parses of the same text:
//! `NodeId`s are neither (the parser hands them out in visit order), so
//! the key is an FNV-1a hash over the **pretty-printed** subtree — the
//! same canonical text the in-search [`ShardedMemo`] already keys on,
//! compressed to a `u64` so millions of verdicts fit in memory.
//!
//! Printing is the expensive part, and a probe shares every declaration
//! but its edited one with the base program by `Arc`. A
//! [`FingerprintCache`] of the base therefore prints only the
//! declarations a probe rebuilt, and its keys are bit-identical to
//! [`program_fingerprint`]'s: the key's value never depends on which
//! path built it.
//!
//! Two programs collide only if their printed forms collide under
//! FNV-1a 64; for a cache of probe verdicts that is an acceptable risk
//! (a collision can at worst replay a stale verdict, never corrupt the
//! search — and the differential suites would catch a systematic one).
//!
//! [`ShardedMemo`]: ../seminal_core/engine/struct.ShardedMemo.html

use seminal_ml::ast::{Decl, DeclKind, Program};
use seminal_ml::pretty::decl_to_string;
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over raw bytes — the same function the probe engine uses for
/// shard selection, exposed here so every fingerprint in the workspace
/// agrees byte-for-byte.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

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
        for b in start.to_le_bytes().into_iter().chain(end.to_le_bytes()) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
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
    let mut hash = FNV_OFFSET;
    for sub in decl_fps {
        for b in sub.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
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
    fn matches_raw_fnv_of_printed_decls() {
        let p = parse_program("let x = 1").unwrap();
        let subs = decl_fingerprints(&p);
        assert_eq!(subs[0], fnv1a(decl_to_string(&p.decls[0]).as_bytes()));
    }
}
