//! Typing-environment data: constructors, record fields, and named types.

use crate::types::{Scheme, TvId, Ty};
use std::collections::HashMap;
use std::sync::Arc;

/// What is known about a data constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct CtorInfo {
    /// Quantified variables (the type parameters of the defining type).
    pub vars: Vec<TvId>,
    /// Argument type, if the constructor takes one.
    pub arg: Option<Ty>,
    /// Result type, always `Con(type_name, vars)` (or `exn`).
    pub result: Ty,
}

/// What is known about a record field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    /// Quantified variables (the record type's parameters).
    pub vars: Vec<TvId>,
    /// The record type `Con(name, vars)`.
    pub record: Ty,
    /// The field's type.
    pub ty: Ty,
    pub mutable: bool,
}

/// How a named type may be used.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeInfo {
    /// An abstract or variant/builtin type of the given arity.
    Data { arity: usize },
    /// A record type: arity plus its field names (for completeness checks
    /// on record literals).
    Record { arity: usize, fields: Vec<String> },
    /// A transparent alias `type ('a...) t = body`.
    Alias { params: Vec<String>, body: seminal_ml::TypeExpr },
}

impl TypeInfo {
    /// Number of type parameters.
    pub fn arity(&self) -> usize {
        match self {
            TypeInfo::Data { arity } | TypeInfo::Record { arity, .. } => *arity,
            TypeInfo::Alias { params, .. } => params.len(),
        }
    }
}

/// The global (per-check) environment seeded from the standard library and
/// extended by the program's own declarations.
///
/// The four name-keyed maps sit behind [`Arc`]: cloning an `Env` (the
/// shared [`stdlib_env`](crate::stdlib::stdlib_env) seed) or marking a
/// boundary (`InferState::push`) only bumps refcounts, and the rare
/// writers — `type`/`exception` declarations — go through
/// [`Arc::make_mut`], copy-on-write. Reads auto-deref. The standard
/// library's value schemes are never written: user bindings live in
/// `values` and shadow them.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// The program's value bindings, innermost last; lookup scans from
    /// the end.
    pub values: Vec<(String, Scheme)>,
    /// The standard library's value schemes, by name. They are closed,
    /// so generalization never reads them.
    pub stdlib: Arc<HashMap<String, Scheme>>,
    pub ctors: Arc<HashMap<String, CtorInfo>>,
    pub fields: Arc<HashMap<String, FieldInfo>>,
    pub types: Arc<HashMap<String, TypeInfo>>,
}

impl Env {
    /// Looks up a value binding: the innermost user binding, else the
    /// standard library's scheme.
    pub fn lookup(&self, name: &str) -> Option<&Scheme> {
        match self.values.iter().rev().find(|(n, _)| n == name) {
            Some((_, s)) => Some(s),
            None => self.stdlib.get(name),
        }
    }

    /// Pushes a binding (shadowing any previous one).
    pub fn push(&mut self, name: impl Into<String>, scheme: Scheme) {
        self.values.push((name.into(), scheme));
    }

    /// Current scope depth marker, for [`Env::truncate`].
    pub fn mark(&self) -> usize {
        self.values.len()
    }

    /// Pops bindings back to a [`Env::mark`].
    pub fn truncate(&mut self, mark: usize) {
        self.values.truncate(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_innermost() {
        let mut env = Env::default();
        env.push("x", Scheme::mono(Ty::int()));
        env.push("x", Scheme::mono(Ty::bool()));
        assert_eq!(env.lookup("x").unwrap().ty, Ty::bool());
    }

    #[test]
    fn user_bindings_shadow_the_stdlib() {
        let mut env = crate::stdlib::stdlib_env().clone();
        let stdlib_fst = env.lookup("fst").cloned().unwrap();
        assert!(!stdlib_fst.vars.is_empty());
        let mark = env.mark();
        env.push("fst", Scheme::mono(Ty::int()));
        assert_eq!(env.lookup("fst").unwrap().ty, Ty::int());
        // A later user binding shadows an earlier one.
        env.push("fst", Scheme::mono(Ty::bool()));
        assert_eq!(env.lookup("fst").unwrap().ty, Ty::bool());
        // Truncating the user bindings restores the stdlib scheme.
        env.truncate(mark);
        assert_eq!(env.lookup("fst"), Some(&stdlib_fst));
    }

    #[test]
    fn truncate_restores_scope() {
        let mut env = Env::default();
        env.push("x", Scheme::mono(Ty::int()));
        let mark = env.mark();
        env.push("y", Scheme::mono(Ty::bool()));
        env.truncate(mark);
        assert!(env.lookup("y").is_none());
        assert!(env.lookup("x").is_some());
    }
}
