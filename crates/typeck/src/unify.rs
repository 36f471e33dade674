//! The unification engine: a mutable store of type variables with
//! occurs-checked unification.
//!
//! The store doubles as a *trail-recording* union-find (the SMT push/pop
//! analogue): while at least one [`Unifier::checkpoint`] is active, every
//! destructive binding write — including path compression — logs the
//! overwritten value on a trail, and [`Unifier::rollback`] replays the
//! trail in reverse to restore the store byte-for-byte. The incremental
//! chain keeps one checkpoint open per clean declaration boundary, so a
//! probe can pop back to any of them and be undone in O(probe) instead
//! of cloning the whole store.
//!
//! Only [`Unifier::shallow_resolve`] compresses paths, and
//! [`Unifier::resolve`] and [`Unifier::subst`] through it. The occurs
//! check and [`Unifier::mark_occurring`] are read-only walks: they
//! follow bindings without cloning or writing anything. Types share
//! their children (see [`crate::types`]), so the types the store hands
//! out cost refcount bumps, and `subst` rebuilds only the paths that
//! change.

use crate::types::{TvId, Ty};
use std::sync::Arc;

/// Outcome of a failed unification, before blame is attached.
#[derive(Debug, Clone, PartialEq)]
pub enum UnifyError {
    /// The two types cannot be made equal; both are returned fully
    /// resolved for message formatting.
    Mismatch(Ty, Ty),
    /// Occurs-check failure: the variable appears inside the type.
    Infinite(Ty, Ty),
}

/// The variable store. `None` = unbound; `Some(ty)` = bound (possibly to
/// another variable, forming chains that `resolve` compresses).
///
/// With no active checkpoint the trail machinery is dormant and costs one
/// `is_empty` branch per binding write, so the scratch (non-incremental)
/// path pays nothing.
#[derive(Debug, Default, Clone)]
pub struct Unifier {
    bindings: Vec<Option<Ty>>,
    /// Overwritten `(var, previous binding)` pairs, oldest first. Only
    /// populated while `checkpoints` is non-empty.
    trail: Vec<(u32, Option<Ty>)>,
    /// Stack of `(trail length, store length)` marks, innermost last.
    checkpoints: Vec<(usize, usize)>,
}

impl Unifier {
    /// An empty store.
    pub fn new() -> Unifier {
        Unifier::default()
    }

    /// A store with `n` unbound variables pre-allocated — the replay
    /// counterpart of a recorded run whose constraints mention variable
    /// ids up to `n` (see [`crate::record::ConstraintTrace`]).
    pub fn with_vars(n: usize) -> Unifier {
        Unifier { bindings: vec![None; n], trail: Vec::new(), checkpoints: Vec::new() }
    }

    /// Allocates a fresh unbound variable.
    pub fn fresh(&mut self) -> Ty {
        let id = TvId(self.bindings.len() as u32);
        self.bindings.push(None);
        Ty::Var(id)
    }

    /// Overwrites a binding, logging the displaced value when a
    /// checkpoint is active. Every destructive write in this module goes
    /// through here so rollback is exact (path compression included).
    fn set_binding(&mut self, v: u32, value: Option<Ty>) {
        if !self.checkpoints.is_empty() {
            self.trail.push((v, self.bindings[v as usize].clone()));
        }
        self.bindings[v as usize] = value;
    }

    /// Marks the current store state. Until the matching [`rollback`]
    /// every binding write is trailed.
    ///
    /// [`rollback`]: Unifier::rollback
    pub fn checkpoint(&mut self) {
        self.checkpoints.push((self.trail.len(), self.bindings.len()));
    }

    /// Undoes every write since the innermost open checkpoint: trailed
    /// bindings are restored newest-first, then variables allocated since
    /// the mark are deallocated. Checkpoints pop in LIFO order.
    ///
    /// # Panics
    ///
    /// If no checkpoint is open.
    pub fn rollback(&mut self) {
        let (trail_mark, vars_mark) =
            self.checkpoints.pop().expect("rollback without an open checkpoint");
        while self.trail.len() > trail_mark {
            let (v, old) = self.trail.pop().expect("trail shorter than checkpoint mark");
            // Writes to variables allocated after the mark are discarded
            // wholesale by the truncate below.
            if (v as usize) < vars_mark {
                self.bindings[v as usize] = old;
            }
        }
        self.bindings.truncate(vars_mark);
    }

    /// Number of open checkpoints.
    pub fn checkpoint_depth(&self) -> usize {
        self.checkpoints.len()
    }

    /// Number of trailed writes (0 whenever no checkpoint is open).
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Follows variable bindings one level at the root (with path
    /// compression), leaving sub-structure untouched.
    pub fn shallow_resolve(&mut self, ty: &Ty) -> Ty {
        let Ty::Var(v) = ty else { return ty.clone() };
        // Scheme-local variables (ids beyond the store) are always
        // unbound; see `stdlib`.
        let bound = match self.bindings.get(v.0 as usize) {
            Some(Some(bound @ Ty::Var(_))) => bound.clone(),
            Some(Some(bound)) => return bound.clone(),
            _ => return ty.clone(),
        };
        // Only a chain of variables can be compressed; rewriting a
        // binding with its own value would change nothing but still cost
        // a trail entry under a checkpoint.
        let root = self.shallow_resolve(&bound);
        if root != bound {
            self.set_binding(v.0, Some(root.clone()));
        }
        root
    }

    /// Fully substitutes solved variables throughout the type. Subtrees
    /// holding no bound variable are shared with `ty`, not rebuilt.
    pub fn resolve(&mut self, ty: &Ty) -> Ty {
        self.subst(ty, &[])
    }

    /// `ty` with every variable `map` names replaced by its image and
    /// every other variable resolved as [`Unifier::resolve`] does it.
    /// Subtrees holding neither are shared with `ty`, not rebuilt.
    pub fn subst(&mut self, ty: &Ty, map: &[(TvId, Ty)]) -> Ty {
        self.subst_changed(ty, map).unwrap_or_else(|| ty.clone())
    }

    /// [`Unifier::subst`], or `None` when the result is `ty` itself.
    /// Path-compresses at every unmapped variable of the result, left to
    /// right.
    fn subst_changed(&mut self, ty: &Ty, map: &[(TvId, Ty)]) -> Option<Ty> {
        match ty {
            Ty::Var(v) => {
                if let Some((_, image)) = map.iter().find(|(w, _)| w == v) {
                    return Some(image.clone());
                }
                let root = self.shallow_resolve(ty);
                if root == *ty {
                    return None;
                }
                Some(self.subst_changed(&root, map).unwrap_or(root))
            }
            Ty::Con(name, args) => {
                self.subst_all(args, map).map(|args| Ty::Con(name.clone(), args))
            }
            Ty::Tuple(parts) => self.subst_all(parts, map).map(Ty::Tuple),
            Ty::Arrow(a, b) => {
                let sa = self.subst_changed(a, map);
                let sb = self.subst_changed(b, map);
                if sa.is_none() && sb.is_none() {
                    return None;
                }
                let sa = sa.map_or_else(|| a.clone(), Arc::new);
                let sb = sb.map_or_else(|| b.clone(), Arc::new);
                Some(Ty::Arrow(sa, sb))
            }
        }
    }

    /// [`Unifier::subst_changed`] over a list: `None` when no element
    /// changes, else the new list, built in one allocation.
    fn subst_all(&mut self, tys: &[Ty], map: &[(TvId, Ty)]) -> Option<Arc<[Ty]>> {
        let (i, first) =
            tys.iter().enumerate().find_map(|(i, t)| Some((i, self.subst_changed(t, map)?)))?;
        let rest = tys[i + 1..].iter().map(|t| self.subst(t, map));
        Some(tys[..i].iter().cloned().chain(std::iter::once(first)).chain(rest).collect())
    }

    /// The end of `ty`'s chain of bound variables, followed without
    /// path compression.
    fn root<'a>(&'a self, mut ty: &'a Ty) -> &'a Ty {
        while let Ty::Var(v) = ty {
            match self.bindings.get(v.0 as usize) {
                Some(Some(bound)) => ty = bound,
                _ => break,
            }
        }
        ty
    }

    /// Marks `found[i]` for every `candidates[i]` that occurs in the
    /// resolution of `ty`.
    ///
    /// The walk follows bindings without compressing paths, so it
    /// writes nothing and leaves no trail: it marks exactly the
    /// candidates among `self.resolve(ty)`'s variables.
    pub fn mark_occurring(&self, ty: &Ty, candidates: &[TvId], found: &mut [bool]) {
        match self.root(ty) {
            Ty::Var(v) => {
                if let Some(i) = candidates.iter().position(|c| c == v) {
                    found[i] = true;
                }
            }
            Ty::Con(_, args) | Ty::Tuple(args) => {
                for a in args.iter() {
                    self.mark_occurring(a, candidates, found);
                }
            }
            Ty::Arrow(a, b) => {
                self.mark_occurring(a, candidates, found);
                self.mark_occurring(b, candidates, found);
            }
        }
    }

    /// Whether `v` occurs in (the resolution of) `ty`. Like
    /// [`Unifier::mark_occurring`], a read-only walk: it clones nothing
    /// and writes nothing, so it leaves no trail.
    fn occurs(&self, v: TvId, ty: &Ty) -> bool {
        match self.root(ty) {
            Ty::Var(w) => *w == v,
            Ty::Con(_, args) | Ty::Tuple(args) => args.iter().any(|a| self.occurs(v, a)),
            Ty::Arrow(a, b) => self.occurs(v, a) || self.occurs(v, b),
        }
    }

    /// Makes the two types equal or reports why they cannot be.
    ///
    /// # Errors
    ///
    /// [`UnifyError::Mismatch`] for constructor clashes (including arity),
    /// [`UnifyError::Infinite`] when the occurs check fires. On error the
    /// store may retain partial bindings from sub-unifications; the
    /// checker aborts at the first error, so this is never observed.
    pub fn unify(&mut self, a: &Ty, b: &Ty) -> Result<(), UnifyError> {
        let ra = self.shallow_resolve(a);
        let rb = self.shallow_resolve(b);
        match (&ra, &rb) {
            (Ty::Var(x), Ty::Var(y)) if x == y => Ok(()),
            (Ty::Var(x), _) => {
                if self.occurs(*x, &rb) {
                    let full = self.resolve(&rb);
                    return Err(UnifyError::Infinite(ra, full));
                }
                self.set_binding(x.0, Some(rb));
                Ok(())
            }
            (_, Ty::Var(y)) => {
                if self.occurs(*y, &ra) {
                    let full = self.resolve(&ra);
                    return Err(UnifyError::Infinite(rb, full));
                }
                self.set_binding(y.0, Some(ra));
                Ok(())
            }
            (Ty::Con(n1, a1), Ty::Con(n2, a2)) if n1 == n2 && a1.len() == a2.len() => {
                for (x, y) in a1.iter().zip(a2.iter()) {
                    self.unify(x, y).map_err(|e| self.outer_blame(e, &ra, &rb))?;
                }
                Ok(())
            }
            (Ty::Arrow(x1, y1), Ty::Arrow(x2, y2)) => {
                self.unify(x1, x2).map_err(|e| self.outer_blame(e, &ra, &rb))?;
                self.unify(y1, y2).map_err(|e| self.outer_blame(e, &ra, &rb))
            }
            (Ty::Tuple(p1), Ty::Tuple(p2)) if p1.len() == p2.len() => {
                for (x, y) in p1.iter().zip(p2.iter()) {
                    self.unify(x, y).map_err(|e| self.outer_blame(e, &ra, &rb))?;
                }
                Ok(())
            }
            _ => {
                let fa = self.resolve(&ra);
                let fb = self.resolve(&rb);
                Err(UnifyError::Mismatch(fa, fb))
            }
        }
    }

    /// Reports mismatches at the outermost offending pair, the way ocamlc
    /// does ("int list vs bool list", not "int vs bool"), while keeping
    /// infinite-type reports at the inner site.
    fn outer_blame(&mut self, inner: UnifyError, a: &Ty, b: &Ty) -> UnifyError {
        match inner {
            UnifyError::Mismatch(_, _) => UnifyError::Mismatch(self.resolve(a), self.resolve(b)),
            inf @ UnifyError::Infinite(_, _) => inf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::pretty;

    #[test]
    fn unify_var_with_con() {
        let mut u = Unifier::new();
        let v = u.fresh();
        u.unify(&v, &Ty::int()).unwrap();
        assert_eq!(u.resolve(&v), Ty::int());
    }

    #[test]
    fn unify_is_symmetric_on_success() {
        let mut u1 = Unifier::new();
        let a1 = u1.fresh();
        u1.unify(&a1, &Ty::int()).unwrap();
        let mut u2 = Unifier::new();
        let a2 = u2.fresh();
        u2.unify(&Ty::int(), &a2).unwrap();
        assert_eq!(u1.resolve(&a1), u2.resolve(&a2));
    }

    #[test]
    fn transitive_chains_resolve() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        let c = u.fresh();
        u.unify(&a, &b).unwrap();
        u.unify(&b, &c).unwrap();
        u.unify(&c, &Ty::bool()).unwrap();
        assert_eq!(u.resolve(&a), Ty::bool());
    }

    #[test]
    fn mismatch_reports_outer_types() {
        let mut u = Unifier::new();
        let err = u.unify(&Ty::list(Ty::int()), &Ty::list(Ty::bool())).unwrap_err();
        match err {
            UnifyError::Mismatch(a, b) => {
                assert_eq!(pretty(&a), "int list");
                assert_eq!(pretty(&b), "bool list");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arrow_mismatch() {
        let mut u = Unifier::new();
        let err = u.unify(&Ty::arrow(Ty::int(), Ty::int()), &Ty::int()).unwrap_err();
        assert!(matches!(err, UnifyError::Mismatch(_, _)));
    }

    #[test]
    fn occurs_check_fires() {
        let mut u = Unifier::new();
        let v = u.fresh();
        let err = u.unify(&v, &Ty::list(v.clone())).unwrap_err();
        assert!(matches!(err, UnifyError::Infinite(_, _)));
    }

    #[test]
    fn occurs_check_through_chain() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        u.unify(&a, &b).unwrap();
        let err = u.unify(&b, &Ty::arrow(a.clone(), Ty::int())).unwrap_err();
        assert!(matches!(err, UnifyError::Infinite(_, _)));
    }

    #[test]
    fn tuple_arity_mismatch() {
        let mut u = Unifier::new();
        let t2 = Ty::tuple(vec![Ty::int(), Ty::int()]);
        let t3 = Ty::tuple(vec![Ty::int(), Ty::int(), Ty::int()]);
        assert!(matches!(u.unify(&t2, &t3), Err(UnifyError::Mismatch(_, _))));
    }

    #[test]
    fn unify_idempotent() {
        let mut u = Unifier::new();
        let v = u.fresh();
        u.unify(&v, &Ty::int()).unwrap();
        u.unify(&v, &Ty::int()).unwrap();
        assert_eq!(u.resolve(&v), Ty::int());
    }

    #[test]
    fn deep_resolution() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        u.unify(&b, &Ty::int()).unwrap();
        u.unify(&a, &Ty::list(b.clone())).unwrap();
        assert_eq!(pretty(&u.resolve(&a)), "int list");
    }

    /// Fully resolves every allocated variable — the observational state
    /// of the store (binding vectors may differ by path compression).
    fn observe(u: &mut Unifier) -> Vec<Ty> {
        (0..u.len()).map(|i| u.resolve(&Ty::Var(TvId(i as u32)))).collect()
    }

    #[test]
    fn rollback_restores_observational_state() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        let c = u.fresh();
        u.unify(&a, &b).unwrap();
        let before = observe(&mut u);

        u.checkpoint();
        u.unify(&b, &Ty::int()).unwrap();
        u.unify(&c, &Ty::list(a.clone())).unwrap();
        let fresh = u.fresh();
        u.unify(&fresh, &Ty::bool()).unwrap();
        assert_ne!(observe(&mut u)[..3], before[..]);
        u.rollback();

        assert_eq!(observe(&mut u), before);
        assert_eq!(u.len(), 3, "variables allocated under the checkpoint are deallocated");
        assert_eq!(u.trail_len(), 0, "trail must be empty at top level");
        assert_eq!(u.checkpoint_depth(), 0);
    }

    #[test]
    fn rollback_undoes_path_compression() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        let c = u.fresh();
        // Build the chain a -> b -> c; `observe` would compress it, so
        // keep it raw going into the checkpoint.
        u.unify(&a, &b).unwrap();
        u.unify(&b, &c).unwrap();

        u.checkpoint();
        // Resolving `a` path-compresses the chain — destructive writes
        // into *prefix-owned* variables that must be trailed even though
        // no new unification happened.
        let _ = u.resolve(&a);
        u.unify(&c, &Ty::int()).unwrap();
        assert!(u.trail_len() > 0);
        u.rollback();

        assert_eq!(u.trail_len(), 0);
        assert_eq!(u.len(), 3);
        // The chain still links a and b to the (again unbound) root c.
        assert_eq!(observe(&mut u), vec![c.clone(), c.clone(), c]);
    }

    #[test]
    fn occurs_check_trails_nothing() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        let c = u.fresh();
        // The raw chain a -> b -> c, as in the test above.
        u.unify(&a, &b).unwrap();
        u.unify(&b, &c).unwrap();

        u.checkpoint();
        let fresh = u.fresh();
        // The occurs check walks `a list` down the chain without
        // compressing it, so the binding is the only write.
        u.unify(&fresh, &Ty::list(a.clone())).unwrap();
        assert_eq!(u.trail_len(), 1);
        u.rollback();
        assert_eq!(observe(&mut u), vec![c.clone(), c.clone(), c]);
    }

    #[test]
    fn nested_checkpoints_pop_lifo() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();

        u.checkpoint();
        u.unify(&a, &Ty::int()).unwrap();
        let mid = observe(&mut u);

        u.checkpoint();
        u.unify(&b, &Ty::bool()).unwrap();
        assert_eq!(u.checkpoint_depth(), 2);
        u.rollback(); // inner: undoes only the `b` binding

        assert_eq!(observe(&mut u), mid);
        assert_eq!(u.checkpoint_depth(), 1);
        u.rollback(); // outer: undoes the `a` binding too

        assert_eq!(observe(&mut u), vec![a.clone(), b.clone()]);
        assert_eq!(u.trail_len(), 0);
    }

    #[test]
    fn trail_is_dormant_without_checkpoints() {
        let mut u = Unifier::new();
        let a = u.fresh();
        u.unify(&a, &Ty::int()).unwrap();
        assert_eq!(u.trail_len(), 0, "no checkpoint open, nothing may be trailed");
    }

    #[test]
    fn failed_unification_under_checkpoint_rolls_back_partial_bindings() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let before = observe(&mut u);

        u.checkpoint();
        // (a, int) vs (bool, int list): binds a := bool before failing on
        // int vs int list — partial sub-unification bindings are exactly
        // what the trail must clean up after a failed probe.
        let t1 = Ty::tuple(vec![a.clone(), Ty::int()]);
        let t2 = Ty::tuple(vec![Ty::bool(), Ty::list(Ty::int())]);
        assert!(u.unify(&t1, &t2).is_err());
        u.rollback();

        assert_eq!(observe(&mut u), before);
    }

    #[test]
    #[should_panic(expected = "rollback without an open checkpoint")]
    fn rollback_without_checkpoint_panics() {
        Unifier::new().rollback();
    }
}
