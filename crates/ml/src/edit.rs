//! AST surgery: splicing replacement subtrees into a program by [`NodeId`].
//!
//! The changer never mutates the input program; it builds an [`Edit`]
//! (a list of node → replacement substitutions) and [`apply`]s it,
//! receiving a fresh [`Program`] to hand to the type-checker oracle.
//!
//! A variant shares all it can with its base. A clone of an expression
//! is shallow (see [`Expr`]), and `apply` is a path copy: it builds new
//! nodes only from a declaration's root down to each target and reuses
//! the `Arc` of every other subtree and of every declaration that holds
//! no target. Nothing reached through a shared `Arc` may change in place
//! except through [`Arc::make_mut`]; build anything else through
//! `apply`.
//!
//! A replacement is renumbered as it is spliced in: a node carrying
//! [`NodeId::SYNTH`] gets a fresh id, handed out in preorder in the
//! order the targets occur in the program, and a node carrying
//! [`Span::DUMMY`] inherits its parent's span, or the target's at the
//! replacement's root, so suggestions keep pointing at the original
//! source location. A subtree of the replacement that needs neither is
//! shared, not copied.

use crate::ast::*;
use crate::span::Span;
use std::borrow::Borrow;
use std::sync::Arc;

/// A batch of node substitutions to apply atomically.
///
/// Substituting a node replaces its whole subtree; targets nested inside
/// another target's subtree are therefore never reached (callers keep
/// targets disjoint — triage relies on this being well-defined either way).
#[derive(Debug, Clone, Default)]
pub struct Edit {
    // Each sorted by target, with one substitution per target.
    exprs: Vec<(NodeId, Expr)>,
    pats: Vec<(NodeId, Pat)>,
}

impl Edit {
    /// An empty edit.
    pub fn new() -> Edit {
        Edit::default()
    }

    /// Replace the expression `target` with `replacement`.
    pub fn replace_expr(mut self, target: NodeId, replacement: Expr) -> Edit {
        put(&mut self.exprs, target, replacement);
        self
    }

    /// Replace the expression `target` with the wildcard hole `[[...]]`.
    pub fn remove_expr(self, target: NodeId) -> Edit {
        self.replace_expr(target, Expr::hole(Span::DUMMY))
    }

    /// Replace the pattern `target` with `replacement`.
    pub fn replace_pat(mut self, target: NodeId, replacement: Pat) -> Edit {
        put(&mut self.pats, target, replacement);
        self
    }

    /// Whether this edit contains no substitutions.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty() && self.pats.is_empty()
    }

    /// Number of substitutions registered.
    pub fn len(&self) -> usize {
        self.exprs.len() + self.pats.len()
    }
}

/// Sets the substitution for `target`, replacing an earlier one. Triage
/// adds its targets in source order, so most land at the end.
fn put<T>(subs: &mut Vec<(NodeId, T)>, target: NodeId, replacement: T) {
    match subs.binary_search_by_key(&target, |s| s.0) {
        Ok(at) => subs[at].1 = replacement,
        Err(at) => subs.insert(at, (target, replacement)),
    }
}

/// The substitution for `id` in `subs`, which is sorted by target.
fn find<T>(subs: &[(NodeId, T)], id: NodeId) -> Option<&T> {
    subs.binary_search_by_key(&id, |s| s.0).ok().map(|at| &subs[at].1)
}

/// Applies `edit` to `prog`, returning the edited copy.
pub fn apply(prog: &Program, edit: &Edit) -> Program {
    path_copy(prog, &edit.exprs, &edit.pats)
}

/// Convenience: replace one expression node, renumbering straight from
/// the borrowed replacement.
pub fn replace_expr(prog: &Program, target: NodeId, replacement: &Expr) -> Program {
    path_copy(prog, &[(target, replacement)], &[])
}

/// Convenience: replace one expression node with `[[...]]`.
pub fn remove_expr(prog: &Program, target: NodeId) -> Program {
    replace_expr(prog, target, &Expr::hole(Span::DUMMY))
}

/// What a rebuild does at each node it reaches: `None` keeps the node,
/// so its parent reuses its `Arc`; `Some` is the node that takes its
/// place. A node is rebuilt exactly when it or something below it
/// changes.
trait Rebuild {
    fn expr(&mut self, e: &Expr) -> Option<Expr>;
    fn pat(&mut self, p: &Pat) -> Option<Pat>;
}

/// The path copy behind [`apply`].
struct Applier<'a, E> {
    /// The substitutions, each list sorted by target.
    exprs: &'a [(NodeId, E)],
    pats: &'a [(NodeId, Pat)],
    next_id: u32,
    /// Substitutions the declaration being rebuilt may still hold (its
    /// id bounds cover their targets); at 0 the rest of it is shared
    /// without a look.
    left: usize,
}

/// `prog` with the substitutions made, each list sorted by target.
fn path_copy<E: Borrow<Expr>>(
    prog: &Program,
    exprs: &[(NodeId, E)],
    pats: &[(NodeId, Pat)],
) -> Program {
    let mut cx = Applier { exprs, pats, next_id: prog.next_id, left: 0 };
    let decls = prog
        .decls
        .iter()
        .map(|d| {
            let targets = exprs.iter().map(|s| s.0).chain(pats.iter().map(|s| s.0));
            cx.left = targets.filter(|&id| d.may_hold(id)).count();
            cx.decl(d).map_or_else(|| Arc::clone(d), Arc::new)
        })
        .collect();
    Program { decls, next_id: cx.next_id }
}

impl<E: Borrow<Expr>> Applier<'_, E> {
    fn decl(&mut self, d: &Decl) -> Option<Decl> {
        let kind = match d.kind() {
            DeclKind::Let { rec, bindings } => rebuild_vec(bindings, |b| binding(self, b))
                .map(|bindings| DeclKind::Let { rec: *rec, bindings }),
            DeclKind::Expr(e) => child(self, e).map(DeclKind::Expr),
            DeclKind::Type(_) | DeclKind::Exception(_, _) => None,
        }?;
        Some(Decl::new(d.id(), d.span(), kind))
    }

    /// The renumbering of a replacement for a target spanning `span`.
    fn renumber(&mut self, span: Span) -> Renumber<'_> {
        self.left = self.left.saturating_sub(1);
        Renumber { next_id: &mut self.next_id, span }
    }
}

impl<E: Borrow<Expr>> Rebuild for Applier<'_, E> {
    fn expr(&mut self, e: &Expr) -> Option<Expr> {
        if self.left == 0 {
            return None;
        }
        if let Some(replacement) = find(self.exprs, e.id) {
            let replacement = replacement.borrow();
            return Some(
                self.renumber(e.span).expr(replacement).unwrap_or_else(|| replacement.clone()),
            );
        }
        let kind = rebuild_kind(self, &e.kind)?;
        Some(Expr { id: e.id, span: e.span, kind })
    }

    fn pat(&mut self, p: &Pat) -> Option<Pat> {
        if self.left == 0 {
            return None;
        }
        if let Some(replacement) = find(self.pats, p.id) {
            return Some(
                self.renumber(p.span).pat(replacement).unwrap_or_else(|| replacement.clone()),
            );
        }
        let kind = rebuild_pat_kind(self, &p.kind)?;
        Some(Pat { id: p.id, span: p.span, kind })
    }
}

/// Renumbers a replacement: fresh ids for SYNTH nodes, `span` for DUMMY
/// ones directly below.
struct Renumber<'n> {
    next_id: &'n mut u32,
    span: Span,
}

impl Renumber<'_> {
    /// The id a node carrying `id` gets.
    fn id(&mut self, id: NodeId) -> NodeId {
        if id != NodeId::SYNTH {
            return id;
        }
        let fresh = NodeId(*self.next_id);
        *self.next_id += 1;
        fresh
    }

    /// The span a node carrying `span` gets.
    fn span(&self, span: Span) -> Span {
        if span == Span::DUMMY {
            self.span
        } else {
            span
        }
    }
}

impl Rebuild for Renumber<'_> {
    fn expr(&mut self, e: &Expr) -> Option<Expr> {
        let (id, span) = (self.id(e.id), self.span(e.span));
        let kind = rebuild_kind(&mut Renumber { next_id: self.next_id, span }, &e.kind);
        if id == e.id && span == e.span && kind.is_none() {
            return None;
        }
        Some(Expr { id, span, kind: kind.unwrap_or_else(|| e.kind.clone()) })
    }

    fn pat(&mut self, p: &Pat) -> Option<Pat> {
        let (id, span) = (self.id(p.id), self.span(p.span));
        let kind = rebuild_pat_kind(&mut Renumber { next_id: self.next_id, span }, &p.kind);
        if id == p.id && span == p.span && kind.is_none() {
            return None;
        }
        Some(Pat { id, span, kind: kind.unwrap_or_else(|| p.kind.clone()) })
    }
}

/// `new`, or a clone of `old` when the rebuild kept it.
fn keep<T: Clone>(new: Option<T>, old: &T) -> T {
    new.unwrap_or_else(|| old.clone())
}

fn child(r: &mut impl Rebuild, e: &Arc<Expr>) -> Option<Arc<Expr>> {
    r.expr(e).map(Arc::new)
}

/// Rebuilds `items` through `f`, left to right, or `None` when `f`
/// keeps every item.
fn rebuild_vec<T: Clone>(items: &[T], mut f: impl FnMut(&T) -> Option<T>) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        match (f(item), &mut out) {
            (Some(new), Some(done)) => done.push(new),
            (Some(new), None) => {
                let mut done = Vec::with_capacity(items.len());
                done.extend_from_slice(&items[..i]);
                done.push(new);
                out = Some(done);
            }
            (None, Some(done)) => done.push(item.clone()),
            (None, None) => {}
        }
    }
    out
}

fn pair(r: &mut impl Rebuild, a: &Arc<Expr>, b: &Arc<Expr>) -> Option<(Arc<Expr>, Arc<Expr>)> {
    let (new_a, new_b) = (child(r, a), child(r, b));
    (new_a.is_some() || new_b.is_some()).then(|| (keep(new_a, a), keep(new_b, b)))
}

fn binding(r: &mut impl Rebuild, b: &Binding) -> Option<Binding> {
    let pat = r.pat(&b.pat);
    let params = rebuild_vec(&b.params, |p| r.pat(p));
    let body = child(r, &b.body);
    (pat.is_some() || params.is_some() || body.is_some()).then(|| Binding {
        pat: keep(pat, &b.pat),
        params: keep(params, &b.params),
        annot: b.annot.clone(),
        body: keep(body, &b.body),
    })
}

fn arms(r: &mut impl Rebuild, scrut: &Arc<Expr>, arms: &[Arm]) -> Option<(Arc<Expr>, Vec<Arm>)> {
    let new_scrut = child(r, scrut);
    let new_arms = rebuild_vec(arms, |arm| {
        let pat = r.pat(&arm.pat);
        let guard = arm.guard.as_ref().and_then(|g| child(r, g));
        let body = child(r, &arm.body);
        (pat.is_some() || guard.is_some() || body.is_some()).then(|| Arm {
            pat: keep(pat, &arm.pat),
            guard: guard.or_else(|| arm.guard.clone()),
            body: keep(body, &arm.body),
        })
    });
    (new_scrut.is_some() || new_arms.is_some())
        .then(|| (keep(new_scrut, scrut), new_arms.unwrap_or_else(|| arms.to_vec())))
}

/// Rebuilds an expression's kind around the children `r` changes, in
/// the order the ids are handed out: each binding's pattern, parameters
/// and body, then a `let`'s body; a scrutinee, then each arm's pattern,
/// guard and body; otherwise left to right.
///
/// A rebuild recurses once per level of the tree, so the kinds the
/// parser lets nest without bound (left-folded application, operator,
/// sequence and field chains) are rebuilt here, through a small frame,
/// and the rest in [`rebuild_compound`].
fn rebuild_kind(r: &mut impl Rebuild, kind: &ExprKind) -> Option<ExprKind> {
    use ExprKind::*;
    match kind {
        Var(_) | Lit(_) | Hole => None,
        App(f, a) => pair(r, f, a).map(|(f, a)| App(f, a)),
        BinOp(op, a, b) => pair(r, a, b).map(|(a, b)| BinOp(*op, a, b)),
        Seq(a, b) => pair(r, a, b).map(|(a, b)| Seq(a, b)),
        UnOp(op, a) => child(r, a).map(|a| UnOp(*op, a)),
        Field(a, name) => child(r, a).map(|a| Field(a, name.clone())),
        _ => rebuild_compound(r, kind),
    }
}

/// [`rebuild_kind`] for the kinds that nest only as deep as the
/// parser's depth guard allows. Never inlined, so its larger frame stays
/// off the chain recursion.
#[inline(never)]
fn rebuild_compound(r: &mut impl Rebuild, kind: &ExprKind) -> Option<ExprKind> {
    use ExprKind::*;
    match kind {
        Var(_) | Lit(_) | Hole | App(..) | BinOp(..) | Seq(..) | UnOp(..) | Field(..) => {
            unreachable!("rebuild_kind rebuilds leaves and chains")
        }
        Fun(params, body) => {
            let new_params = rebuild_vec(params, |p| r.pat(p));
            let new_body = child(r, body);
            (new_params.is_some() || new_body.is_some())
                .then(|| Fun(keep(new_params, params), keep(new_body, body)))
        }
        Let { rec, bindings, body } => {
            let new_bindings = rebuild_vec(bindings, |b| binding(r, b));
            let new_body = child(r, body);
            (new_bindings.is_some() || new_body.is_some()).then(|| Let {
                rec: *rec,
                bindings: keep(new_bindings, bindings),
                body: keep(new_body, body),
            })
        }
        If(c, t, els) => {
            let (new_c, new_t) = (child(r, c), child(r, t));
            let new_els = els.as_ref().and_then(|e| child(r, e));
            (new_c.is_some() || new_t.is_some() || new_els.is_some())
                .then(|| If(keep(new_c, c), keep(new_t, t), new_els.or_else(|| els.clone())))
        }
        Tuple(es) => rebuild_vec(es, |e| child(r, e)).map(Tuple),
        List(es) => rebuild_vec(es, |e| child(r, e)).map(List),
        Match(scrut, cases) => arms(r, scrut, cases).map(|(s, cases)| Match(s, cases)),
        Try(body, cases) => arms(r, body, cases).map(|(b, cases)| Try(b, cases)),
        Annot(a, ty) => child(r, a).map(|a| Annot(a, ty.clone())),
        Construct(name, arg) => {
            arg.as_ref().and_then(|a| child(r, a)).map(|a| Construct(name.clone(), Some(a)))
        }
        Record(fields) => {
            rebuild_vec(fields, |(name, v)| child(r, v).map(|v| (name.clone(), v))).map(Record)
        }
        SetField(a, name, b) => pair(r, a, b).map(|(a, b)| SetField(a, name.clone(), b)),
        Raise(a) => child(r, a).map(Raise),
        Adapt(a) => child(r, a).map(Adapt),
    }
}

/// [`rebuild_kind`] for patterns, whose children stay boxed.
fn rebuild_pat_kind(r: &mut impl Rebuild, kind: &PatKind) -> Option<PatKind> {
    use PatKind::*;
    let boxed = |p: Option<Pat>| p.map(Box::new);
    match kind {
        Wild | Var(_) | Lit(_) => None,
        Tuple(ps) => rebuild_vec(ps, |p| r.pat(p)).map(Tuple),
        List(ps) => rebuild_vec(ps, |p| r.pat(p)).map(List),
        Cons(h, t) => {
            let (new_h, new_t) = (boxed(r.pat(h)), boxed(r.pat(t)));
            (new_h.is_some() || new_t.is_some()).then(|| Cons(keep(new_h, h), keep(new_t, t)))
        }
        Construct(name, arg) => {
            arg.as_ref().and_then(|a| boxed(r.pat(a))).map(|a| Construct(name.clone(), Some(a)))
        }
        Annot(p, ty) => boxed(r.pat(p)).map(|p| Annot(p, ty.clone())),
    }
}

/// Structural problems [`validate`] can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Two nodes share an id.
    DuplicateId(NodeId),
    /// A node still carries [`NodeId::SYNTH`] (an edit was built but
    /// never applied through [`apply`]).
    SynthId,
    /// A node's id is at or above `Program::next_id`, so a future edit
    /// could collide with it.
    IdBeyondCounter(NodeId),
    /// A node's id lies outside its declaration's id bounds, so lookups
    /// by id would skip it (an in-place edit added it).
    OutsideDeclBounds { id: NodeId, decl: NodeId },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::DuplicateId(id) => write!(f, "duplicate node id {id}"),
            ValidationError::SynthId => write!(f, "unreplaced SYNTH node id"),
            ValidationError::IdBeyondCounter(id) => {
                write!(f, "node id {id} is beyond the program's id counter")
            }
            ValidationError::OutsideDeclBounds { id, decl } => {
                write!(f, "node id {id} lies outside the id bounds of declaration {decl}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks the structural invariants every [`Program`] must satisfy after
/// parsing or editing: node ids unique, no leftover SYNTH ids, all ids
/// below the allocation counter, and every id inside its declaration's
/// id bounds. Every node is checked — each declaration itself, every
/// expression and every pattern, nested ones included — through the
/// walker the bounds are computed with ([`Decl::for_each_id`]).
///
/// # Errors
///
/// The first violation found.
pub fn validate(prog: &Program) -> Result<(), ValidationError> {
    let mut seen = std::collections::HashSet::new();
    for d in &prog.decls {
        let mut result = Ok(());
        d.for_each_id(&mut |id| {
            if result.is_err() {
                return;
            }
            if id == NodeId::SYNTH {
                result = Err(ValidationError::SynthId);
            } else if id.0 >= prog.next_id {
                result = Err(ValidationError::IdBeyondCounter(id));
            } else if !seen.insert(id) {
                result = Err(ValidationError::DuplicateId(id));
            } else if !d.may_hold(id) {
                result = Err(ValidationError::OutsideDeclBounds { id, decl: d.id() });
            }
        });
        result?;
    }
    Ok(())
}

/// Flattens a curried application `((f a) b) c` into `(f, [a, b, c])`.
///
/// Returns the head expression and arguments in source order; a non-
/// application returns itself with no arguments.
pub fn app_chain(e: &Expr) -> (&Expr, Vec<&Arc<Expr>>) {
    let mut args = Vec::new();
    let mut cur = e;
    while let ExprKind::App(f, a) = &cur.kind {
        args.push(a);
        cur = f;
    }
    args.reverse();
    (cur, args)
}

/// Rebuilds a curried application from a head and arguments (synthesized
/// ids, spans merged from the pieces), sharing the pieces.
pub fn build_app(head: Arc<Expr>, args: Vec<Arc<Expr>>) -> Expr {
    let mut args = args.into_iter();
    let Some(first) = args.next() else { return Arc::unwrap_or_clone(head) };
    let app = |f: Arc<Expr>, a: Arc<Expr>| {
        let span = f.span.merge(a.span);
        Expr::synth(ExprKind::App(f, a), span)
    };
    args.fold(app(head, first), |f, a| app(Arc::new(f), a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};
    use crate::pretty::{expr_to_string, program_to_string};

    #[test]
    fn replace_subexpression() {
        let prog = parse_program("let x = 1 + true").unwrap();
        // Find the `true` literal.
        let mut target = None;
        prog.decls[0].for_each_expr(&mut |e| {
            if matches!(e.kind, ExprKind::Lit(Lit::Bool(true))) {
                target = Some(e.id);
            }
        });
        let edited = remove_expr(&prog, target.unwrap());
        assert_eq!(program_to_string(&edited).trim(), "let x = 1 + [[...]]");
        // Original untouched.
        assert_eq!(program_to_string(&prog).trim(), "let x = 1 + true");
    }

    #[test]
    fn replacement_inherits_span() {
        let src = "let x = 1 + true";
        let prog = parse_program(src).unwrap();
        let mut target = None;
        prog.decls[0].for_each_expr(&mut |e| {
            if matches!(e.kind, ExprKind::Lit(Lit::Bool(true))) {
                target = Some((e.id, e.span));
            }
        });
        let (id, span) = target.unwrap();
        let edited = remove_expr(&prog, id);
        let mut hole_span = None;
        edited.decls[0].for_each_expr(&mut |e| {
            if e.is_hole() {
                hole_span = Some(e.span);
            }
        });
        assert_eq!(hole_span.unwrap(), span);
    }

    #[test]
    fn synth_ids_are_renumbered_fresh() {
        let prog = parse_program("let x = f 1 2").unwrap();
        let mut target = None;
        prog.decls[0].for_each_expr(&mut |e| {
            if matches!(e.kind, ExprKind::Lit(Lit::Int(1))) {
                target = Some(e.id);
            }
        });
        let (replacement, _) = parse_expr("g [[...]]").unwrap();
        // Force SYNTH ids on the replacement subtree.
        let mut synth = replacement.clone();
        fn make_synth(e: &mut Expr) {
            e.id = NodeId::SYNTH;
            if let ExprKind::App(f, a) = &mut e.kind {
                make_synth(Arc::make_mut(f));
                make_synth(Arc::make_mut(a));
            }
        }
        make_synth(&mut synth);
        let edited = replace_expr(&prog, target.unwrap(), &synth);
        let mut seen = std::collections::HashSet::new();
        for d in &edited.decls {
            d.for_each_expr(&mut |e| {
                assert_ne!(e.id, NodeId::SYNTH);
                assert!(seen.insert(e.id), "duplicate id {:?}", e.id);
            });
        }
    }

    #[test]
    fn multi_replacement_is_atomic() {
        let prog = parse_program("let x = (1 + true, 2 + false)").unwrap();
        let mut targets = Vec::new();
        prog.decls[0].for_each_expr(&mut |e| {
            if matches!(e.kind, ExprKind::Lit(Lit::Bool(_))) {
                targets.push(e.id);
            }
        });
        assert_eq!(targets.len(), 2);
        let edit = Edit::new().remove_expr(targets[0]).remove_expr(targets[1]);
        let edited = apply(&prog, &edit);
        assert_eq!(program_to_string(&edited).trim(), "let x = 1 + [[...]], 2 + [[...]]");
    }

    #[test]
    fn pattern_replacement() {
        let prog = parse_program("let f = fun (x, y) -> x").unwrap();
        let mut target = None;
        match prog.decls[0].kind() {
            DeclKind::Let { bindings, .. } => {
                if let ExprKind::Fun(params, _) = &bindings[0].body.kind {
                    if let PatKind::Tuple(parts) = &params[0].kind {
                        target = Some(parts[1].id);
                    }
                }
            }
            _ => unreachable!(),
        }
        let edit = Edit::new().replace_pat(target.unwrap(), Pat::wild(Span::DUMMY));
        let edited = apply(&prog, &edit);
        assert_eq!(program_to_string(&edited).trim(), "let f = fun (x, _) -> x");
    }

    #[test]
    fn validate_accepts_parsed_and_edited_programs() {
        let prog = parse_program("let rec go n = if n = 0 then [] else n :: go (n - 1)").unwrap();
        validate(&prog).unwrap();
        let mut target = None;
        prog.decls[0].for_each_expr(&mut |e| {
            if matches!(e.kind, ExprKind::Lit(Lit::Int(0))) {
                target = Some(e.id);
            }
        });
        let edited = remove_expr(&prog, target.unwrap());
        validate(&edited).unwrap();
    }

    #[test]
    fn validate_rejects_duplicates_and_synth() {
        let mut prog = parse_program("let x = 1 + 2").unwrap();
        // Force a duplicate id.
        if let DeclKind::Let { bindings, .. } =
            Arc::make_mut(&mut prog.decls[0]).kind_mut_unchecked()
        {
            if let ExprKind::BinOp(_, l, r) = &mut Arc::make_mut(&mut bindings[0].body).kind {
                Arc::make_mut(r).id = l.id;
            }
        }
        assert!(matches!(validate(&prog), Err(ValidationError::DuplicateId(_))));

        let mut prog = parse_program("let x = 1").unwrap();
        if let DeclKind::Let { bindings, .. } =
            Arc::make_mut(&mut prog.decls[0]).kind_mut_unchecked()
        {
            Arc::make_mut(&mut bindings[0].body).id = NodeId::SYNTH;
        }
        assert_eq!(validate(&prog), Err(ValidationError::SynthId));

        // Patterns nested inside expressions are nodes too: a `fun`
        // parameter left SYNTH ...
        let mut prog = parse_program("let f = fun x -> x").unwrap();
        if let DeclKind::Let { bindings, .. } =
            Arc::make_mut(&mut prog.decls[0]).kind_mut_unchecked()
        {
            if let ExprKind::Fun(params, _) = &mut Arc::make_mut(&mut bindings[0].body).kind {
                params[0].id = NodeId::SYNTH;
            }
        }
        assert_eq!(validate(&prog), Err(ValidationError::SynthId));

        // ... and a match-arm pattern sharing its `match`'s id.
        let mut prog = parse_program("let g y = match y with 0 -> 1 | _ -> 2").unwrap();
        if let DeclKind::Let { bindings, .. } =
            Arc::make_mut(&mut prog.decls[0]).kind_mut_unchecked()
        {
            let match_id = bindings[0].body.id;
            if let ExprKind::Match(_, arms) = &mut Arc::make_mut(&mut bindings[0].body).kind {
                arms[1].pat.id = match_id;
            }
        }
        assert!(matches!(validate(&prog), Err(ValidationError::DuplicateId(_))));
    }

    #[test]
    fn validate_rejects_ids_outside_decl_bounds() {
        let mut prog = parse_program("let x = 1 + 2\nlet y = 3").unwrap();
        // An unused id below the counter, but past the first
        // declaration's bounds: lookups by id would skip the node.
        let stray = NodeId(prog.next_id);
        prog.next_id += 1;
        if let DeclKind::Let { bindings, .. } =
            Arc::make_mut(&mut prog.decls[0]).kind_mut_unchecked()
        {
            Arc::make_mut(&mut bindings[0].body).id = stray;
        }
        let decl = prog.decls[0].id();
        assert_eq!(validate(&prog), Err(ValidationError::OutsideDeclBounds { id: stray, decl }));
        assert!(prog.find_expr(stray).is_none());
    }

    #[test]
    fn bounds_cover_every_node_and_skip_untouched_decls() {
        let prog = parse_program(
            "let a = 1\nlet f = fun (p, q) -> match p with [] -> q | h :: _ -> h\nlet b = 2",
        )
        .unwrap();
        for d in &prog.decls {
            d.for_each_id(&mut |id| assert!(d.may_hold(id)));
        }
        // Bounds are a function of content: a rebuilt copy is equal.
        let d = &prog.decls[1];
        assert_eq!(Decl::new(d.id(), d.span(), d.kind().clone()), **d);

        let mut target = None;
        prog.decls[1].for_each_expr(&mut |e| {
            if matches!(e.kind, ExprKind::Var(ref v) if v == "q") {
                target = Some(e.id);
            }
        });
        let edited = remove_expr(&prog, target.unwrap());
        validate(&edited).unwrap();
        assert!(Arc::ptr_eq(&prog.decls[0], &edited.decls[0]));
        assert!(!Arc::ptr_eq(&prog.decls[1], &edited.decls[1]));
        assert!(Arc::ptr_eq(&prog.decls[2], &edited.decls[2]));
        // The fresh hole id widens the edited declaration's bounds.
        let hole = NodeId(prog.next_id);
        assert!(!prog.decls[1].may_hold(hole) && edited.decls[1].may_hold(hole));
    }

    #[test]
    fn app_chain_flattens() {
        let (e, _) = parse_expr("f a b c").unwrap();
        let (head, args) = app_chain(&e);
        assert_eq!(expr_to_string(head), "f");
        let rendered: Vec<String> = args.iter().map(|a| expr_to_string(a)).collect();
        assert_eq!(rendered, vec!["a", "b", "c"]);
    }

    #[test]
    fn build_app_round_trips_chain() {
        let (e, _) = parse_expr("f a b c").unwrap();
        let (head, args) = app_chain(&e);
        let rebuilt = build_app(Arc::new(head.clone()), args.into_iter().cloned().collect());
        assert_eq!(expr_to_string(&rebuilt), "f a b c");
    }
}
