//! Constraint recording and replay — the raw material of blame analysis.
//!
//! Inference normally treats unification as fire-and-forget: each
//! [`crate::infer`] site demands `found = expected` and aborts on the
//! first failure. With the recorder enabled, every such demand is logged
//! together with the AST span the checker would blame, producing a
//! [`ConstraintTrace`]: an ordered, span-labeled constraint system whose
//! satisfiability can be re-decided for arbitrary *subsets* by replaying
//! them on a fresh variable store ([`ConstraintTrace::subset_sat`]) —
//! no re-parse, no second inference run.
//!
//! `seminal-analysis` builds on this to shrink minimal unsatisfiable
//! cores and enumerate correction subsets (Pavlinovic et al.'s
//! SMT-localization idea, transplanted to our in-process checker),
//! replaying only the [replay universe](ConstraintTrace::replay_universe)
//! of constraints that can bear on the failure.

use crate::error::TypeError;
use crate::types::{TvId, Ty};
use crate::unify::Unifier;
use seminal_ml::span::Span;

/// One recorded unification demand `found = expected`.
///
/// The types are captured exactly as inference passed them to the
/// unifier: variables reference the recording run's store, so a replay
/// must allocate [`ConstraintTrace::num_vars`] variables up front.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// The span the checker blames if this demand is the one that fails.
    pub span: Span,
    /// The type found at the site.
    pub found: Ty,
    /// The type the context expected.
    pub expected: Ty,
}

/// The recorded constraint system of one inference run.
#[derive(Debug, Clone)]
pub struct ConstraintTrace {
    /// Every unification demand in inference order. Inference aborts at
    /// the first error, so on an ill-typed program the final entry is
    /// the demand that failed (when the failure was a unification
    /// failure at all — naming errors record no failing constraint).
    pub constraints: Vec<Constraint>,
    /// Variable-store size at the end of the recording run.
    pub num_vars: usize,
    /// The run's outcome — `Err` carries the baseline first error.
    pub result: Result<(), TypeError>,
}

impl ConstraintTrace {
    /// Whether the recording run failed with a unification failure (as
    /// opposed to succeeding or failing on a naming/arity error, which
    /// no constraint subset can explain).
    pub fn has_unsat_constraints(&self) -> bool {
        match &self.result {
            Err(e) => e.is_type_mismatch() && !self.constraints.is_empty(),
            Ok(()) => false,
        }
    }

    /// Decides satisfiability of the subset of constraints selected by
    /// `keep`, by replaying them in order on a fresh store.
    ///
    /// Unification is monotone — adding a constraint only shrinks the
    /// solution set — so subsets of a satisfiable set are satisfiable,
    /// which is what makes deletion-based core shrinking sound.
    pub fn subset_sat(&self, keep: &[bool]) -> bool {
        debug_assert_eq!(keep.len(), self.constraints.len());
        let mut uni = Unifier::with_vars(self.num_vars);
        for (c, &k) in self.constraints.iter().zip(keep) {
            if k && uni.unify(&c.found, &c.expected).is_err() {
                return false;
            }
        }
        true
    }

    /// The **replay universe**: the mask of constraints a replay of this
    /// trace needs. It is the failing (final) constraint's component in
    /// [`Self::graph`] once one replay shows that everything outside that
    /// component is satisfiable, and the whole list otherwise.
    ///
    /// Replaying `keep ∧ universe` decides the same verdict as replaying
    /// `keep`, for every mask. Components share no type variables, so
    /// `sat(S) = sat(S ∩ comp) ∧ sat(S ∖ comp)`; once the complement of
    /// `comp` replays satisfiable, every `S ∖ comp` lies inside a
    /// satisfiable set and is satisfiable by monotonicity, leaving
    /// `sat(S) = sat(S ∩ comp)`. Core shrinking and correction search
    /// therefore return exactly their whole-list results while replaying
    /// only the component — a handful of constraints even when the
    /// program records hundreds. The fallback only fires on traces
    /// inference cannot produce (it satisfied every demand before the
    /// failing one), but keeps the method exact on any trace.
    pub fn replay_universe(&self) -> Vec<bool> {
        let graph = self.graph();
        let comp = graph.failing_component();
        let universe: Vec<bool> = graph.nodes.iter().map(|nd| Some(nd.component) == comp).collect();
        let outside: Vec<bool> = universe.iter().map(|&u| !u).collect();
        if self.subset_sat(&outside) {
            universe
        } else {
            vec![true; self.constraints.len()]
        }
    }

    /// Deletion-shrinks the constraints enabled in `enabled` to a minimal
    /// unsatisfiable core *within that universe*: each enabled constraint
    /// is dropped in turn (latest first — the constraints nearest the
    /// failure are the likeliest core members, and removing bulk early
    /// keeps later replays short) and stays dropped whenever the rest
    /// remains unsatisfiable. One replay per enabled constraint.
    ///
    /// Minimality (no proper unsatisfiable subset of the result) follows
    /// from monotonicity of unification. The caller must pass an `enabled`
    /// mask whose selected subset is unsatisfiable. Passing
    /// [`Self::replay_universe`] returns the same core as passing the
    /// whole list, in one replay per universe member instead of one per
    /// recorded constraint; both localization backends shrink that way.
    pub fn shrink_unsat_core(&self, enabled: &[bool]) -> Vec<usize> {
        debug_assert_eq!(enabled.len(), self.constraints.len());
        let mut keep = enabled.to_vec();
        for i in (0..keep.len()).rev() {
            if !keep[i] {
                continue;
            }
            keep[i] = false;
            if self.subset_sat(&keep) {
                keep[i] = true;
            }
        }
        (0..keep.len()).filter(|&i| keep[i]).collect()
    }

    /// Exports the recorded constraint system as a [`ConstraintGraph`]:
    /// one node per constraint carrying its span, softness (whether a
    /// source position can be blamed for it), the type variables it
    /// mentions, and its connected component under variable sharing.
    ///
    /// Constraints in different components cannot interact during replay
    /// — unification only propagates information through shared
    /// variables, and ground constraints are decided in isolation — so
    /// the failing (final) constraint's component is the
    /// [replay universe](Self::replay_universe) every localization
    /// replay runs in. The build runs on every blame pass, so it is
    /// dense: per-variable and per-constraint tables are `Vec`s indexed
    /// by [`TvId`] (every variable is below [`Self::num_vars`]) and by
    /// constraint position.
    pub fn graph(&self) -> ConstraintGraph {
        const NONE: usize = usize::MAX;
        let n = self.constraints.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut vars_of: Vec<Vec<TvId>> = Vec::with_capacity(n);
        // First constraint mentioning each variable.
        let mut owner: Vec<usize> = vec![NONE; self.num_vars];
        for (i, c) in self.constraints.iter().enumerate() {
            let mut vs = Vec::new();
            c.found.vars(&mut vs);
            c.expected.vars(&mut vs);
            for &v in &vs {
                let first = &mut owner[v.0 as usize];
                if *first == NONE {
                    *first = i;
                } else {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, *first));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
            vars_of.push(vs);
        }
        // Densely renumber components in first-appearance order so ids
        // are deterministic and usable as indices; `ids` is keyed by
        // root constraint.
        let mut ids: Vec<usize> = vec![NONE; n];
        let mut num_components = 0;
        let mut nodes = Vec::with_capacity(n);
        for (i, c) in self.constraints.iter().enumerate() {
            let root = find(&mut parent, i);
            if ids[root] == NONE {
                ids[root] = num_components;
                num_components += 1;
            }
            nodes.push(GraphNode {
                index: i,
                span: c.span,
                soft: !c.span.is_empty(),
                vars: std::mem::take(&mut vars_of[i]),
                component: ids[root],
            });
        }
        ConstraintGraph { nodes, num_components }
    }
}

/// One node of the exported constraint graph (see
/// [`ConstraintTrace::graph`]). `index` addresses the constraint in
/// [`ConstraintTrace::constraints`] and in `subset_sat` masks.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Position in the recorded constraint list.
    pub index: usize,
    /// The span the checker would blame for this demand.
    pub span: Span,
    /// Whether the constraint is attributable to a source position —
    /// empty-span (synthesized) constraints are well-formedness demands
    /// no source edit can delete, so localization treats them as hard.
    pub soft: bool,
    /// Type variables the constraint mentions (deduplicated, in order of
    /// first occurrence within `found` then `expected`).
    pub vars: Vec<TvId>,
    /// Connected component under transitive variable sharing; ground
    /// constraints (no variables) form singleton components.
    pub component: usize,
}

/// The variable-sharing view of a [`ConstraintTrace`], for localization
/// backends that need to know which constraints can interact.
#[derive(Debug, Clone)]
pub struct ConstraintGraph {
    /// One node per recorded constraint, in recording order.
    pub nodes: Vec<GraphNode>,
    /// Number of connected components (ids are `0..num_components`).
    pub num_components: usize,
}

impl ConstraintGraph {
    /// Component of the final (failing) constraint, if any constraints
    /// were recorded.
    pub fn failing_component(&self) -> Option<usize> {
        self.nodes.last().map(|n| n.component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TypeErrorKind;

    /// `c0` is a ground demand outside the failing component; `'t0 = int`
    /// then `'t0 = bool` is the failing component.
    fn trace_with_outside_demand(outside: Ty) -> ConstraintTrace {
        let var = || Ty::Var(TvId(0));
        let at = |start| Span::new(start, start + 1);
        ConstraintTrace {
            constraints: vec![
                Constraint { span: at(0), found: outside, expected: Ty::int() },
                Constraint { span: at(2), found: var(), expected: Ty::int() },
                Constraint { span: at(4), found: var(), expected: Ty::bool() },
            ],
            num_vars: 1,
            result: Err(TypeError {
                kind: TypeErrorKind::Mismatch { found: "int".into(), expected: "bool".into() },
                span: at(4),
            }),
        }
    }

    #[test]
    fn replay_universe_is_the_failing_component() {
        let trace = trace_with_outside_demand(Ty::int());
        let graph = trace.graph();
        assert_eq!(graph.num_components, 2);
        assert_eq!(graph.failing_component(), Some(1));
        let universe = trace.replay_universe();
        assert_eq!(universe, vec![false, true, true]);
        assert_eq!(trace.shrink_unsat_core(&universe), vec![1, 2]);
        assert_eq!(trace.shrink_unsat_core(&[true; 3]), vec![1, 2]);
    }

    #[test]
    fn unsatisfiable_outside_component_falls_back_to_the_whole_list() {
        // `bool = int` conflicts on its own, so shrinking only the failing
        // component would miss the core the whole-list scan finds.
        let trace = trace_with_outside_demand(Ty::bool());
        let universe = trace.replay_universe();
        assert_eq!(universe, vec![true; 3]);
        assert_eq!(trace.shrink_unsat_core(&[true; 3]), vec![0]);
        assert_eq!(trace.shrink_unsat_core(&universe), vec![0]);
    }

    #[test]
    fn graph_numbers_components_in_first_appearance_order() {
        let (a, b) = (Ty::Var(TvId(0)), Ty::Var(TvId(1)));
        let demand =
            |found: Ty, expected: Ty| Constraint { span: Span::new(0, 1), found, expected };
        let trace = ConstraintTrace {
            constraints: vec![
                demand(b.clone(), Ty::int()),
                demand(Ty::int(), Ty::int()),
                demand(a.clone(), Ty::list(Ty::bool())),
                demand(Ty::arrow(a, b), Ty::unit()),
            ],
            num_vars: 2,
            result: Ok(()),
        };
        let graph = trace.graph();
        let components: Vec<usize> = graph.nodes.iter().map(|nd| nd.component).collect();
        // `c3` joins `c2`'s variable to `c0`'s, merging them into id 0.
        assert_eq!(components, vec![0, 1, 0, 0]);
        assert_eq!(graph.num_components, 2);
        assert_eq!(graph.nodes[3].vars, vec![TvId(0), TvId(1)]);
    }
}
