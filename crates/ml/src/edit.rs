//! AST surgery: splicing replacement subtrees into a program by [`NodeId`].
//!
//! The changer never mutates the input program; it builds an [`Edit`]
//! (a set of node → replacement substitutions) and [`apply`]s it, receiving
//! a fresh [`Program`] to hand to the type-checker oracle. Synthesized
//! nodes (id [`NodeId::SYNTH`]) are renumbered with fresh ids on insertion
//! so node identity stays unique per program.

use crate::ast::*;
use crate::span::Span;
use std::collections::HashMap;
use std::sync::Arc;

/// A batch of node substitutions to apply atomically.
///
/// Substituting a node replaces its whole subtree; targets nested inside
/// another target's subtree are therefore never reached (callers keep
/// targets disjoint — triage relies on this being well-defined either way).
#[derive(Debug, Clone, Default)]
pub struct Edit {
    exprs: HashMap<NodeId, Expr>,
    pats: HashMap<NodeId, Pat>,
}

impl Edit {
    /// An empty edit.
    pub fn new() -> Edit {
        Edit::default()
    }

    /// Replace the expression `target` with `replacement`.
    pub fn replace_expr(mut self, target: NodeId, replacement: Expr) -> Edit {
        self.exprs.insert(target, replacement);
        self
    }

    /// Replace the expression `target` with the wildcard hole `[[...]]`.
    pub fn remove_expr(self, target: NodeId) -> Edit {
        self.replace_expr(target, Expr::hole(Span::DUMMY))
    }

    /// Replace the pattern `target` with `replacement`.
    pub fn replace_pat(mut self, target: NodeId, replacement: Pat) -> Edit {
        self.pats.insert(target, replacement);
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

    /// Whether any substitution target lives inside `p`.
    fn touches_pat(&self, p: &Pat) -> bool {
        if self.pats.contains_key(&p.id) {
            return true;
        }
        let mut hit = false;
        p.for_each_child(&mut |child| hit = hit || self.touches_pat(child));
        hit
    }

    /// Whether any substitution target lives inside `e`, including in
    /// patterns nested under it (fun params, let bindings, match arms).
    fn touches_expr(&self, e: &Expr) -> bool {
        if self.exprs.contains_key(&e.id) {
            return true;
        }
        if !self.pats.is_empty() {
            let pat_hit = match &e.kind {
                ExprKind::Fun(ps, _) => ps.iter().any(|p| self.touches_pat(p)),
                ExprKind::Let { bindings, .. } => bindings.iter().any(|b| {
                    self.touches_pat(&b.pat) || b.params.iter().any(|p| self.touches_pat(p))
                }),
                ExprKind::Match(_, arms) | ExprKind::Try(_, arms) => {
                    arms.iter().any(|arm| self.touches_pat(&arm.pat))
                }
                _ => false,
            };
            if pat_hit {
                return true;
            }
        }
        let mut hit = false;
        e.for_each_child(&mut |child| hit = hit || self.touches_expr(child));
        hit
    }

    /// Whether applying this edit can change `d` at all. Declarations
    /// that contain no target are shared untouched by [`apply`]; one
    /// whose id bounds hold no target is skipped without a walk.
    fn touches_decl(&self, d: &Decl) -> bool {
        if !self.exprs.keys().chain(self.pats.keys()).any(|&id| d.may_hold(id)) {
            return false;
        }
        match d.kind() {
            DeclKind::Let { bindings, .. } => bindings.iter().any(|b| {
                self.touches_pat(&b.pat)
                    || b.params.iter().any(|p| self.touches_pat(p))
                    || self.touches_expr(&b.body)
            }),
            DeclKind::Expr(e) => self.touches_expr(e),
            DeclKind::Type(_) | DeclKind::Exception(_, _) => false,
        }
    }
}

/// Applies `edit` to `prog`, returning the edited copy.
///
/// Replacement subtrees whose nodes carry [`NodeId::SYNTH`] are renumbered
/// with fresh ids; replacements with a [`Span::DUMMY`] span inherit the
/// span of the node they replace, so suggestions keep pointing at the
/// original source location.
pub fn apply(prog: &Program, edit: &Edit) -> Program {
    let mut cx = Applier { edit, next_id: prog.next_id };
    // Structure sharing: a declaration that contains no substitution
    // target is returned as the same `Arc`, so a probe variant deep-copies
    // only the edited declaration. The incremental oracle detects the
    // shared prefix by pointer equality and skips re-inferring it.
    let decls = prog
        .decls
        .iter()
        .map(|d| if edit.touches_decl(d) { Arc::new(cx.decl(d)) } else { Arc::clone(d) })
        .collect();
    Program { decls, next_id: cx.next_id }
}

/// Convenience: replace one expression node.
pub fn replace_expr(prog: &Program, target: NodeId, replacement: Expr) -> Program {
    apply(prog, &Edit::new().replace_expr(target, replacement))
}

/// Convenience: replace one expression node with `[[...]]`.
pub fn remove_expr(prog: &Program, target: NodeId) -> Program {
    apply(prog, &Edit::new().remove_expr(target))
}

struct Applier<'a> {
    edit: &'a Edit,
    next_id: u32,
}

impl Applier<'_> {
    fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Clones `e`, renumbering every SYNTH id.
    fn renumber_expr(&mut self, e: &Expr, default_span: Span) -> Expr {
        let id = if e.id == NodeId::SYNTH { self.fresh() } else { e.id };
        let span = if e.span == Span::DUMMY { default_span } else { e.span };
        let kind = match &e.kind {
            ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Hole => e.kind.clone(),
            ExprKind::App(f, a) => ExprKind::App(
                Box::new(self.renumber_expr(f, span)),
                Box::new(self.renumber_expr(a, span)),
            ),
            ExprKind::Fun(ps, b) => ExprKind::Fun(
                ps.iter().map(|p| self.renumber_pat(p, span)).collect(),
                Box::new(self.renumber_expr(b, span)),
            ),
            ExprKind::Let { rec, bindings, body } => ExprKind::Let {
                rec: *rec,
                bindings: bindings
                    .iter()
                    .map(|b| Binding {
                        pat: self.renumber_pat(&b.pat, span),
                        params: b.params.iter().map(|p| self.renumber_pat(p, span)).collect(),
                        annot: b.annot.clone(),
                        body: self.renumber_expr(&b.body, span),
                    })
                    .collect(),
                body: Box::new(self.renumber_expr(body, span)),
            },
            ExprKind::If(c, t, els) => ExprKind::If(
                Box::new(self.renumber_expr(c, span)),
                Box::new(self.renumber_expr(t, span)),
                els.as_ref().map(|e| Box::new(self.renumber_expr(e, span))),
            ),
            ExprKind::Tuple(es) => {
                ExprKind::Tuple(es.iter().map(|e| self.renumber_expr(e, span)).collect())
            }
            ExprKind::List(es) => {
                ExprKind::List(es.iter().map(|e| self.renumber_expr(e, span)).collect())
            }
            ExprKind::Match(s, arms) => ExprKind::Match(
                Box::new(self.renumber_expr(s, span)),
                arms.iter()
                    .map(|arm| Arm {
                        pat: self.renumber_pat(&arm.pat, span),
                        guard: arm.guard.as_ref().map(|g| self.renumber_expr(g, span)),
                        body: self.renumber_expr(&arm.body, span),
                    })
                    .collect(),
            ),
            ExprKind::BinOp(op, l, r) => ExprKind::BinOp(
                *op,
                Box::new(self.renumber_expr(l, span)),
                Box::new(self.renumber_expr(r, span)),
            ),
            ExprKind::UnOp(op, inner) => {
                ExprKind::UnOp(*op, Box::new(self.renumber_expr(inner, span)))
            }
            ExprKind::Seq(a, b) => ExprKind::Seq(
                Box::new(self.renumber_expr(a, span)),
                Box::new(self.renumber_expr(b, span)),
            ),
            ExprKind::Annot(inner, ty) => {
                ExprKind::Annot(Box::new(self.renumber_expr(inner, span)), ty.clone())
            }
            ExprKind::Construct(name, arg) => ExprKind::Construct(
                name.clone(),
                arg.as_ref().map(|a| Box::new(self.renumber_expr(a, span))),
            ),
            ExprKind::Record(fields) => ExprKind::Record(
                fields.iter().map(|(n, v)| (n.clone(), self.renumber_expr(v, span))).collect(),
            ),
            ExprKind::Field(obj, name) => {
                ExprKind::Field(Box::new(self.renumber_expr(obj, span)), name.clone())
            }
            ExprKind::SetField(obj, name, v) => ExprKind::SetField(
                Box::new(self.renumber_expr(obj, span)),
                name.clone(),
                Box::new(self.renumber_expr(v, span)),
            ),
            ExprKind::Raise(inner) => ExprKind::Raise(Box::new(self.renumber_expr(inner, span))),
            ExprKind::Try(body, arms) => ExprKind::Try(
                Box::new(self.renumber_expr(body, span)),
                arms.iter()
                    .map(|arm| Arm {
                        pat: self.renumber_pat(&arm.pat, span),
                        guard: arm.guard.as_ref().map(|g| self.renumber_expr(g, span)),
                        body: self.renumber_expr(&arm.body, span),
                    })
                    .collect(),
            ),
            ExprKind::Adapt(inner) => ExprKind::Adapt(Box::new(self.renumber_expr(inner, span))),
        };
        Expr { id, span, kind }
    }

    fn renumber_pat(&mut self, p: &Pat, default_span: Span) -> Pat {
        let id = if p.id == NodeId::SYNTH { self.fresh() } else { p.id };
        let span = if p.span == Span::DUMMY { default_span } else { p.span };
        let kind = match &p.kind {
            PatKind::Wild | PatKind::Var(_) | PatKind::Lit(_) => p.kind.clone(),
            PatKind::Tuple(ps) => {
                PatKind::Tuple(ps.iter().map(|q| self.renumber_pat(q, span)).collect())
            }
            PatKind::List(ps) => {
                PatKind::List(ps.iter().map(|q| self.renumber_pat(q, span)).collect())
            }
            PatKind::Cons(h, t) => PatKind::Cons(
                Box::new(self.renumber_pat(h, span)),
                Box::new(self.renumber_pat(t, span)),
            ),
            PatKind::Construct(name, arg) => PatKind::Construct(
                name.clone(),
                arg.as_ref().map(|a| Box::new(self.renumber_pat(a, span))),
            ),
            PatKind::Annot(inner, ty) => {
                PatKind::Annot(Box::new(self.renumber_pat(inner, span)), ty.clone())
            }
        };
        Pat { id, span, kind }
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        if let Some(replacement) = self.edit.exprs.get(&e.id) {
            let replacement = replacement.clone();
            return self.renumber_expr(&replacement, e.span);
        }
        let kind = match &e.kind {
            ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Hole => e.kind.clone(),
            ExprKind::App(f, a) => ExprKind::App(Box::new(self.expr(f)), Box::new(self.expr(a))),
            ExprKind::Fun(ps, b) => {
                ExprKind::Fun(ps.iter().map(|p| self.pat(p)).collect(), Box::new(self.expr(b)))
            }
            ExprKind::Let { rec, bindings, body } => ExprKind::Let {
                rec: *rec,
                bindings: bindings
                    .iter()
                    .map(|b| Binding {
                        pat: self.pat(&b.pat),
                        params: b.params.iter().map(|p| self.pat(p)).collect(),
                        annot: b.annot.clone(),
                        body: self.expr(&b.body),
                    })
                    .collect(),
                body: Box::new(self.expr(body)),
            },
            ExprKind::If(c, t, els) => ExprKind::If(
                Box::new(self.expr(c)),
                Box::new(self.expr(t)),
                els.as_ref().map(|e| Box::new(self.expr(e))),
            ),
            ExprKind::Tuple(es) => ExprKind::Tuple(es.iter().map(|e| self.expr(e)).collect()),
            ExprKind::List(es) => ExprKind::List(es.iter().map(|e| self.expr(e)).collect()),
            ExprKind::Match(s, arms) => ExprKind::Match(
                Box::new(self.expr(s)),
                arms.iter()
                    .map(|arm| Arm {
                        pat: self.pat(&arm.pat),
                        guard: arm.guard.as_ref().map(|g| self.expr(g)),
                        body: self.expr(&arm.body),
                    })
                    .collect(),
            ),
            ExprKind::BinOp(op, l, r) => {
                ExprKind::BinOp(*op, Box::new(self.expr(l)), Box::new(self.expr(r)))
            }
            ExprKind::UnOp(op, inner) => ExprKind::UnOp(*op, Box::new(self.expr(inner))),
            ExprKind::Seq(a, b) => ExprKind::Seq(Box::new(self.expr(a)), Box::new(self.expr(b))),
            ExprKind::Annot(inner, ty) => ExprKind::Annot(Box::new(self.expr(inner)), ty.clone()),
            ExprKind::Construct(name, arg) => {
                ExprKind::Construct(name.clone(), arg.as_ref().map(|a| Box::new(self.expr(a))))
            }
            ExprKind::Record(fields) => {
                ExprKind::Record(fields.iter().map(|(n, v)| (n.clone(), self.expr(v))).collect())
            }
            ExprKind::Field(obj, name) => ExprKind::Field(Box::new(self.expr(obj)), name.clone()),
            ExprKind::SetField(obj, name, v) => {
                ExprKind::SetField(Box::new(self.expr(obj)), name.clone(), Box::new(self.expr(v)))
            }
            ExprKind::Raise(inner) => ExprKind::Raise(Box::new(self.expr(inner))),
            ExprKind::Try(body, arms) => ExprKind::Try(
                Box::new(self.expr(body)),
                arms.iter()
                    .map(|arm| Arm {
                        pat: self.pat(&arm.pat),
                        guard: arm.guard.as_ref().map(|g| self.expr(g)),
                        body: self.expr(&arm.body),
                    })
                    .collect(),
            ),
            ExprKind::Adapt(inner) => ExprKind::Adapt(Box::new(self.expr(inner))),
        };
        Expr { id: e.id, span: e.span, kind }
    }

    fn pat(&mut self, p: &Pat) -> Pat {
        if let Some(replacement) = self.edit.pats.get(&p.id) {
            let replacement = replacement.clone();
            return self.renumber_pat(&replacement, p.span);
        }
        let kind = match &p.kind {
            PatKind::Wild | PatKind::Var(_) | PatKind::Lit(_) => p.kind.clone(),
            PatKind::Tuple(ps) => PatKind::Tuple(ps.iter().map(|q| self.pat(q)).collect()),
            PatKind::List(ps) => PatKind::List(ps.iter().map(|q| self.pat(q)).collect()),
            PatKind::Cons(h, t) => PatKind::Cons(Box::new(self.pat(h)), Box::new(self.pat(t))),
            PatKind::Construct(name, arg) => {
                PatKind::Construct(name.clone(), arg.as_ref().map(|a| Box::new(self.pat(a))))
            }
            PatKind::Annot(inner, ty) => PatKind::Annot(Box::new(self.pat(inner)), ty.clone()),
        };
        Pat { id: p.id, span: p.span, kind }
    }

    fn decl(&mut self, d: &Decl) -> Decl {
        let kind = match d.kind() {
            DeclKind::Let { rec, bindings } => DeclKind::Let {
                rec: *rec,
                bindings: bindings
                    .iter()
                    .map(|b| Binding {
                        pat: self.pat(&b.pat),
                        params: b.params.iter().map(|p| self.pat(p)).collect(),
                        annot: b.annot.clone(),
                        body: self.expr(&b.body),
                    })
                    .collect(),
            },
            DeclKind::Expr(e) => DeclKind::Expr(self.expr(e)),
            DeclKind::Type(_) | DeclKind::Exception(_, _) => d.kind().clone(),
        };
        Decl::new(d.id(), d.span(), kind)
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
pub fn app_chain(e: &Expr) -> (&Expr, Vec<&Expr>) {
    let mut args = Vec::new();
    let mut cur = e;
    while let ExprKind::App(f, a) = &cur.kind {
        args.push(a.as_ref());
        cur = f;
    }
    args.reverse();
    (cur, args)
}

/// Rebuilds a curried application from a head and arguments (synthesized
/// ids, spans merged from the pieces).
pub fn build_app(head: Expr, args: Vec<Expr>) -> Expr {
    let mut cur = head;
    for a in args {
        let span = cur.span.merge(a.span);
        cur = Expr::synth(ExprKind::App(Box::new(cur), Box::new(a)), span);
    }
    cur
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
                make_synth(f);
                make_synth(a);
            }
        }
        make_synth(&mut synth);
        let edited = replace_expr(&prog, target.unwrap(), synth);
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
            if let ExprKind::BinOp(_, l, r) = &mut bindings[0].body.kind {
                r.id = l.id;
            }
        }
        assert!(matches!(validate(&prog), Err(ValidationError::DuplicateId(_))));

        let mut prog = parse_program("let x = 1").unwrap();
        if let DeclKind::Let { bindings, .. } =
            Arc::make_mut(&mut prog.decls[0]).kind_mut_unchecked()
        {
            bindings[0].body.id = NodeId::SYNTH;
        }
        assert_eq!(validate(&prog), Err(ValidationError::SynthId));

        // Patterns nested inside expressions are nodes too: a `fun`
        // parameter left SYNTH ...
        let mut prog = parse_program("let f = fun x -> x").unwrap();
        if let DeclKind::Let { bindings, .. } =
            Arc::make_mut(&mut prog.decls[0]).kind_mut_unchecked()
        {
            if let ExprKind::Fun(params, _) = &mut bindings[0].body.kind {
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
            if let ExprKind::Match(_, arms) = &mut bindings[0].body.kind {
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
            bindings[0].body.id = stray;
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
        let rebuilt = build_app(head.clone(), args.into_iter().cloned().collect());
        assert_eq!(expr_to_string(&rebuilt), "f a b c");
    }
}
