//! Algorithm-W-style type inference with OCaml-like blame placement.
//!
//! The checker pushes expected types *into* function literals, branches,
//! and aggregate literals, so unification failures surface at the same
//! deep, often non-local positions ocamlc blames. Reproducing that blame
//! behaviour matters: it is exactly what the paper's search procedure
//! improves upon (Figure 2's baseline message points at `x + y`).
//!
//! This module is deliberately ignorant of the search system: it neither
//! tracks anything for it nor exposes internals to it. The only interface
//! is "does this program type-check, and if not, what is the first error"
//! — the oracle contract of the paper's architecture (Figure 1). The one
//! extension beyond that contract is the optional constraint recorder
//! ([`trace_program`]): it observes the same run without altering it.

use crate::env::{CtorInfo, Env, FieldInfo, TypeInfo};
use crate::error::{TypeError, TypeErrorKind};
use crate::record::{Constraint, ConstraintTrace};
use crate::stdlib::stdlib_env;
use crate::types::{pretty, pretty_pair, Scheme, TvId, Ty};
use crate::unify::{Unifier, UnifyError};
use seminal_ml::ast::*;
use seminal_ml::span::Span;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Checks a whole program against the standard environment.
///
/// # Errors
///
/// The first [`TypeError`] in inference order (the baseline message the
/// paper compares against).
pub fn check_program(prog: &Program) -> Result<(), TypeError> {
    let mut state = InferState::initial();
    for decl in &prog.decls {
        state.check_decl(decl)?;
    }
    Ok(())
}

/// Inference state at a top-level declaration boundary: the variable
/// store, the environment, and the per-declaration
/// annotation-variable scope, plus a stack of boundary marks to pop
/// back to. Checking a program is exactly `initial()` followed by
/// [`InferState::check_decl`] per declaration ([`check_program`],
/// [`check_program_types`] and [`trace_program`] are implemented that
/// way), and popping restores a marked boundary byte-for-byte, so a
/// state popped back to a boundary continues exactly like a scratch run
/// over the same prefix.
///
/// The type is deliberately not `Clone`: the incremental oracle's
/// chain ([`crate::incremental::CheckpointedOracle`]) keeps one live
/// state and moves it with `push` and `pop`, never with a copy of it.
#[derive(Debug, Default)]
pub struct InferState {
    pub(crate) uni: Unifier,
    pub(crate) env: Env,
    pub(crate) annot_vars: HashMap<String, Ty>,
    /// The constraint recorder, while one runs: every unification
    /// demand of every declaration checked since
    /// [`InferState::record`]. Marks do not cover it, so a pop keeps
    /// what the popped declarations recorded.
    recorder: Option<Vec<Constraint>>,
    /// Open marks, innermost last; each pairs with one open unifier
    /// checkpoint.
    marks: Vec<Mark>,
}

/// What [`InferState::pop`] restores besides the variable store, which
/// keeps a checkpoint of its own per mark. Holding the env map handles
/// bumps their refcounts, so a later `type` or `exception` declaration
/// copies a map on write instead of mutating the marked one.
#[derive(Debug)]
struct Mark {
    values: usize,
    ctors: Arc<HashMap<String, CtorInfo>>,
    fields: Arc<HashMap<String, FieldInfo>>,
    types: Arc<HashMap<String, TypeInfo>>,
    annot_vars: HashMap<String, Ty>,
}

impl InferState {
    /// The state before any declaration: the standard environment and an
    /// empty variable store.
    pub fn initial() -> InferState {
        InferState {
            uni: Unifier::new(),
            env: stdlib_env().clone(),
            annot_vars: HashMap::new(),
            recorder: None,
            marks: Vec::new(),
        }
    }

    /// Checks one top-level declaration, advancing the state past it.
    ///
    /// `annot_vars` deliberately persists across declarations (a `type`
    /// declaration may resolve an annotation variable introduced by the
    /// declaration before it), matching the whole-program checker.
    ///
    /// # Errors
    ///
    /// The first [`TypeError`] in inference order. On error the state is
    /// left with whatever partial bindings inference made — callers that
    /// need to reuse the state pop back to a mark.
    pub fn check_decl(&mut self, d: &Decl) -> Result<(), TypeError> {
        self.check_decl_capturing(d, &mut HashSet::new(), &mut HashMap::new())
    }

    /// [`InferState::check_decl`] that also records, as
    /// [`check_program_types`] does, the type inferred at every node of
    /// `capture` into `captured` (unresolved: resolve once the whole
    /// program has been checked).
    pub(crate) fn check_decl_capturing(
        &mut self,
        d: &Decl,
        capture: &mut HashSet<NodeId>,
        captured: &mut HashMap<NodeId, Ty>,
    ) -> Result<(), TypeError> {
        Infer {
            uni: &mut self.uni,
            depth: 0,
            env: &mut self.env,
            capture,
            captured,
            annot_vars: &mut self.annot_vars,
            recorder: &mut self.recorder,
        }
        .decl(d)
    }

    /// Marks the current state (push): from here on every store write
    /// is trailed, and the env scope is remembered, until the matching
    /// [`InferState::pop`].
    pub(crate) fn push(&mut self) {
        self.uni.checkpoint();
        self.marks.push(Mark {
            values: self.env.values.len(),
            ctors: self.env.ctors.clone(),
            fields: self.env.fields.clone(),
            types: self.env.types.clone(),
            annot_vars: self.annot_vars.clone(),
        });
    }

    /// Restores the state to the innermost mark and closes it (pop).
    /// Marks pop in LIFO order.
    ///
    /// # Panics
    ///
    /// If no mark is open.
    pub(crate) fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop without an open mark");
        self.uni.rollback();
        self.env.values.truncate(mark.values);
        self.env.ctors = mark.ctors;
        self.env.fields = mark.fields;
        self.env.types = mark.types;
        self.annot_vars = mark.annot_vars;
    }

    /// Number of open marks.
    pub(crate) fn depth(&self) -> usize {
        self.marks.len()
    }

    /// Number of type variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.uni.len()
    }

    /// Starts the constraint recorder: from here on every declaration
    /// checked logs its unification demands, as [`trace_program`] does.
    pub(crate) fn record(&mut self) {
        self.recorder = Some(Vec::new());
    }

    /// Stops the recorder, returning what it logged as the trace of a
    /// run that ended with `result`. Call it before popping a failed
    /// declaration: `num_vars` is the store size at this point.
    pub(crate) fn take_trace(&mut self, result: Result<(), TypeError>) -> ConstraintTrace {
        ConstraintTrace {
            constraints: self.recorder.take().unwrap_or_default(),
            num_vars: self.uni.len(),
            result,
        }
    }

    /// Resolves and prints the types [`InferState::check_decl_capturing`]
    /// captured, once the declarations holding them are checked.
    pub(crate) fn resolve_captured(
        &mut self,
        captured: HashMap<NodeId, Ty>,
    ) -> HashMap<NodeId, String> {
        captured.into_iter().map(|(id, ty)| (id, pretty(&self.uni.resolve(&ty)))).collect()
    }
}

/// Checks a whole program with the constraint recorder enabled, returning
/// the span-labeled constraint system alongside the usual outcome. Same
/// inference, same first error — the recorder only observes.
pub fn trace_program(prog: &Program) -> ConstraintTrace {
    let mut state = InferState::initial();
    state.record();
    let result = prog.decls.iter().try_for_each(|d| state.check_decl(d));
    state.take_trace(result)
}

/// Checks a program, additionally reporting the resolved principal types
/// of the requested nodes (used when formatting suggestions: "of type
/// `int -> int -> int`").
///
/// # Errors
///
/// Same as [`check_program`].
pub fn check_program_types(
    prog: &Program,
    wanted: &[NodeId],
) -> Result<HashMap<NodeId, String>, TypeError> {
    let mut state = InferState::initial();
    let mut capture: HashSet<NodeId> = wanted.iter().copied().collect();
    let mut captured = HashMap::new();
    for d in &prog.decls {
        state.check_decl_capturing(d, &mut capture, &mut captured)?;
    }
    Ok(state.resolve_captured(captured))
}

/// Deepest expression nesting inference will follow before reporting a
/// [`TypeErrorKind::TooDeep`] diagnostic instead of risking a stack
/// overflow on adversarial input.
const MAX_DEPTH: usize = 48;

/// Inference of one declaration, advancing the fields of the
/// [`InferState`] it borrows.
struct Infer<'s> {
    uni: &'s mut Unifier,
    /// Current recursion depth across `infer`/`check`.
    depth: usize,
    env: &'s mut Env,
    capture: &'s mut HashSet<NodeId>,
    captured: &'s mut HashMap<NodeId, Ty>,
    /// Map from annotation type-variable names to inference vars, scoped
    /// per top-level declaration.
    annot_vars: &'s mut HashMap<String, Ty>,
    /// When set, every `unify_at` demand is logged before being solved
    /// (see [`trace_program`]); `None` costs nothing on the oracle path.
    recorder: &'s mut Option<Vec<Constraint>>,
}

type Res<T> = Result<T, TypeError>;

impl Infer<'_> {
    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn decl(&mut self, d: &Decl) -> Res<()> {
        match d.kind() {
            DeclKind::Let { rec, bindings } => self.let_bindings(*rec, bindings, d.span()),
            DeclKind::Expr(e) => {
                self.annot_vars.clear();
                self.infer(e)?;
                Ok(())
            }
            DeclKind::Type(defs) => self.type_decl(defs, d.span()),
            DeclKind::Exception(name, arg) => {
                let arg = match arg {
                    Some(t) => Some(self.conv_type(t, d.span())?),
                    None => None,
                };
                std::sync::Arc::make_mut(&mut self.env.ctors)
                    .insert(name.clone(), CtorInfo { vars: Vec::new(), arg, result: Ty::exn() });
                Ok(())
            }
        }
    }

    fn type_decl(&mut self, defs: &[TypeDef], span: Span) -> Res<()> {
        // Register the heads first so mutually recursive variants resolve.
        for def in defs {
            let info = match &def.body {
                TypeDefBody::Alias(body) => {
                    TypeInfo::Alias { params: def.params.clone(), body: body.clone() }
                }
                TypeDefBody::Record(fields) => TypeInfo::Record {
                    arity: def.params.len(),
                    fields: fields.iter().map(|f| f.name.clone()).collect(),
                },
                TypeDefBody::Variant(_) => TypeInfo::Data { arity: def.params.len() },
            };
            std::sync::Arc::make_mut(&mut self.env.types).insert(def.name.clone(), info);
        }
        for def in defs {
            // Allocate scheme variables for the parameters.
            let vars: Vec<TvId> = def
                .params
                .iter()
                .map(|_| match self.uni.fresh() {
                    Ty::Var(v) => v,
                    _ => unreachable!(),
                })
                .collect();
            let param_map: HashMap<String, Ty> =
                def.params.iter().cloned().zip(vars.iter().map(|v| Ty::Var(*v))).collect();
            let result = Ty::apply(&def.name, vars.iter().map(|v| Ty::Var(*v)).collect());
            match &def.body {
                TypeDefBody::Variant(ctors) => {
                    for (cname, carg) in ctors {
                        let arg = match carg {
                            Some(t) => Some(self.conv_type_with(t, &param_map, span)?),
                            None => None,
                        };
                        std::sync::Arc::make_mut(&mut self.env.ctors).insert(
                            cname.clone(),
                            CtorInfo { vars: vars.clone(), arg, result: result.clone() },
                        );
                    }
                }
                TypeDefBody::Record(fields) => {
                    for f in fields {
                        let fty = self.conv_type_with(&f.ty, &param_map, span)?;
                        std::sync::Arc::make_mut(&mut self.env.fields).insert(
                            f.name.clone(),
                            FieldInfo {
                                vars: vars.clone(),
                                record: result.clone(),
                                ty: fty,
                                mutable: f.mutable,
                            },
                        );
                    }
                }
                TypeDefBody::Alias(_) => {}
            }
        }
        Ok(())
    }

    fn let_bindings(&mut self, rec: bool, bindings: &[Binding], span: Span) -> Res<()> {
        self.annot_vars.clear();
        if rec {
            // Pre-bind every name monomorphically.
            let mut pre = Vec::new();
            for b in bindings {
                let PatKind::Var(name) = &b.pat.kind else {
                    return Err(TypeError {
                        kind: TypeErrorKind::DuplicatePatternVar(
                            "only variables are allowed in `let rec`".into(),
                        ),
                        span: b.pat.span,
                    });
                };
                let tv = self.uni.fresh();
                self.env.push(name.clone(), Scheme::mono(tv.clone()));
                pre.push((name.clone(), tv));
            }
            let mark = self.env.mark();
            let mut tys = Vec::new();
            for (b, (_, tv)) in bindings.iter().zip(&pre) {
                let ty = self.binding_type(b, Some(tv))?;
                tys.push(ty);
                self.env.truncate(mark);
            }
            // Replace the monomorphic pre-bindings with generalized ones.
            for _ in &pre {
                self.env.values.pop();
            }
            for (b, ((name, _), ty)) in bindings.iter().zip(pre.iter().zip(&tys)) {
                let scheme = if b.params.is_empty() && !b.body.is_syntactic_value() {
                    Scheme::mono(ty.clone())
                } else {
                    self.generalize(ty)
                };
                self.env.push(name.clone(), scheme);
            }
            Ok(())
        } else {
            let mut results = Vec::new();
            let mark = self.env.mark();
            for b in bindings {
                let ty = self.binding_type(b, None)?;
                self.env.truncate(mark);
                results.push(ty);
            }
            for (b, ty) in bindings.iter().zip(results) {
                self.bind_pattern(b, &ty, span)?;
            }
            Ok(())
        }
    }

    /// Infers the type of one binding's right-hand side (including any
    /// parameters and annotation).
    ///
    /// For `let rec`, `prebound` is the recursive type variable; it is
    /// unified with the function's arrow shape *before* the body is
    /// checked, as ocamlc does, so recursive calls inside the body see
    /// the parameter types the patterns establish. This ordering is what
    /// produces the baseline blame of Figure 9 (the error appears at the
    /// recursive call-site's argument).
    fn binding_type(&mut self, b: &Binding, prebound: Option<&Ty>) -> Res<Ty> {
        let mark = self.env.mark();
        let mut param_tys = Vec::new();
        for _ in &b.params {
            param_tys.push(self.uni.fresh());
        }
        let result_ty = match &b.annot {
            Some(t) => self.conv_type(t, b.body.span)?,
            None => self.uni.fresh(),
        };
        let full = Ty::arrows(param_tys.clone(), result_ty.clone());
        if let Some(tv) = prebound {
            self.unify_at(b.pat.span, &full, tv)?;
        }
        for (p, tv) in b.params.iter().zip(&param_tys) {
            self.check_pat(p, tv)?;
        }
        self.check(&b.body, &result_ty)?;
        self.env.truncate(mark);
        Ok(full)
    }

    /// Extends the environment with the binding's pattern at type `ty`,
    /// generalizing where the value restriction allows.
    fn bind_pattern(&mut self, b: &Binding, ty: &Ty, _span: Span) -> Res<()> {
        if let PatKind::Var(name) = &b.pat.kind {
            let value_like = !b.params.is_empty() || b.body.is_syntactic_value();
            let scheme = if value_like { self.generalize(ty) } else { Scheme::mono(ty.clone()) };
            self.env.push(name.clone(), scheme);
            Ok(())
        } else {
            // Pattern bindings are monomorphic.
            self.check_pat(&b.pat, ty)
        }
    }

    // ------------------------------------------------------------------
    // Generalization / instantiation
    // ------------------------------------------------------------------

    fn generalize(&mut self, ty: &Ty) -> Scheme {
        let resolved = self.uni.resolve(ty);
        let mut vars = Vec::new();
        resolved.vars(&mut vars);
        if vars.is_empty() {
            return Scheme::mono(resolved);
        }
        // Variables free in the user bindings stay monomorphic (stdlib
        // schemes are closed). A read-only walk marks them in place.
        let mut free = vec![false; vars.len()];
        for (_, s) in &self.env.values {
            self.uni.mark_occurring(&s.ty, &vars, &mut free);
            if free.iter().all(|&f| f) {
                break;
            }
        }
        let quantified: Vec<TvId> =
            vars.into_iter().zip(free).filter(|&(_, f)| !f).map(|(v, _)| v).collect();
        Scheme { vars: quantified, ty: resolved }
    }

    // ------------------------------------------------------------------
    // Type-expression conversion
    // ------------------------------------------------------------------

    fn conv_type(&mut self, t: &TypeExpr, span: Span) -> Res<Ty> {
        let map = HashMap::new();
        self.conv_type_with(t, &map, span)
    }

    fn conv_type_with(
        &mut self,
        t: &TypeExpr,
        params: &HashMap<String, Ty>,
        span: Span,
    ) -> Res<Ty> {
        match t {
            TypeExpr::Var(name) => {
                if let Some(ty) = params.get(name) {
                    return Ok(ty.clone());
                }
                if let Some(ty) = self.annot_vars.get(name) {
                    return Ok(ty.clone());
                }
                let fresh = self.uni.fresh();
                self.annot_vars.insert(name.clone(), fresh.clone());
                Ok(fresh)
            }
            TypeExpr::Con(name, args) => {
                let types = Arc::clone(&self.env.types);
                let Some(info) = types.get(name) else {
                    return Err(TypeError { kind: TypeErrorKind::UnboundType(name.clone()), span });
                };
                if info.arity() != args.len() {
                    return Err(TypeError {
                        kind: TypeErrorKind::UnboundType(format!(
                            "{name} (expects {} argument(s), got {})",
                            info.arity(),
                            args.len()
                        )),
                        span,
                    });
                }
                let conv_args: Vec<Ty> = args
                    .iter()
                    .map(|a| self.conv_type_with(a, params, span))
                    .collect::<Res<_>>()?;
                match info {
                    TypeInfo::Alias { params: ps, body } => {
                        let inner: HashMap<String, Ty> =
                            ps.iter().cloned().zip(conv_args).collect();
                        self.conv_type_with(body, &inner, span)
                    }
                    _ => Ok(Ty::apply(name, conv_args)),
                }
            }
            TypeExpr::Arrow(x, y) => Ok(Ty::arrow(
                self.conv_type_with(x, params, span)?,
                self.conv_type_with(y, params, span)?,
            )),
            TypeExpr::Tuple(parts) => Ok(Ty::tuple(
                parts.iter().map(|p| self.conv_type_with(p, params, span)).collect::<Res<_>>()?,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Unification with blame
    // ------------------------------------------------------------------

    fn unify_at(&mut self, span: Span, found: &Ty, expected: &Ty) -> Res<()> {
        if let Some(rec) = &mut self.recorder {
            rec.push(Constraint { span, found: found.clone(), expected: expected.clone() });
        }
        match self.uni.unify(found, expected) {
            Ok(()) => Ok(()),
            Err(UnifyError::Mismatch(_, _)) => {
                let rf = self.uni.resolve(found);
                let re = self.uni.resolve(expected);
                let (f, e) = pretty_pair(&rf, &re);
                Err(TypeError { kind: TypeErrorKind::Mismatch { found: f, expected: e }, span })
            }
            Err(UnifyError::Infinite(v, t)) => {
                let (f, e) = pretty_pair(&v, &t);
                Err(TypeError { kind: TypeErrorKind::Infinite { found: f, expected: e }, span })
            }
        }
    }

    // ------------------------------------------------------------------
    // Patterns
    // ------------------------------------------------------------------

    fn check_pat(&mut self, p: &Pat, expected: &Ty) -> Res<()> {
        // Duplicate-variable check at the top of each pattern.
        let mut seen: Vec<&str> = Vec::new();
        let mut dup = None;
        p.walk(&mut |q| {
            if let PatKind::Var(name) = &q.kind {
                if !seen.contains(&name.as_str()) {
                    seen.push(name);
                } else if dup.is_none() {
                    dup = Some((name.clone(), q.span));
                }
            }
        });
        if let Some((name, span)) = dup {
            return Err(TypeError { kind: TypeErrorKind::DuplicatePatternVar(name), span });
        }
        self.check_pat_inner(p, expected)
    }

    fn check_pat_inner(&mut self, p: &Pat, expected: &Ty) -> Res<()> {
        match &p.kind {
            PatKind::Wild => Ok(()),
            PatKind::Var(name) => {
                self.env.push(name.clone(), Scheme::mono(expected.clone()));
                Ok(())
            }
            PatKind::Lit(l) => {
                let t = lit_type(l);
                self.unify_at(p.span, &t, expected)
            }
            PatKind::Tuple(parts) => {
                let vars: Vec<Ty> = parts.iter().map(|_| self.uni.fresh()).collect();
                self.unify_at(p.span, &Ty::tuple(vars.clone()), expected)?;
                for (part, v) in parts.iter().zip(&vars) {
                    self.check_pat_inner(part, v)?;
                }
                Ok(())
            }
            PatKind::List(parts) => {
                let el = self.uni.fresh();
                self.unify_at(p.span, &Ty::list(el.clone()), expected)?;
                for part in parts {
                    self.check_pat_inner(part, &el)?;
                }
                Ok(())
            }
            PatKind::Cons(h, t) => {
                let el = self.uni.fresh();
                self.unify_at(p.span, &Ty::list(el.clone()), expected)?;
                self.check_pat_inner(h, &el)?;
                self.check_pat_inner(t, &Ty::list(el))
            }
            PatKind::Construct(name, arg) => {
                let ctors = Arc::clone(&self.env.ctors);
                let Some(info) = ctors.get(name) else {
                    return Err(TypeError {
                        kind: TypeErrorKind::UnboundCtor(name.clone()),
                        span: p.span,
                    });
                };
                let map = fresh_for(self.uni, &info.vars);
                let result = self.uni.subst(&info.result, &map);
                self.unify_at(p.span, &result, expected)?;
                match (&info.arg, arg) {
                    (Some(at), Some(ap)) => {
                        let at = self.uni.subst(at, &map);
                        self.check_pat_inner(ap, &at)
                    }
                    (None, None) => Ok(()),
                    (Some(_), None) => Err(TypeError {
                        kind: TypeErrorKind::CtorArity { name: name.clone(), takes_arg: true },
                        span: p.span,
                    }),
                    (None, Some(_)) => Err(TypeError {
                        kind: TypeErrorKind::CtorArity { name: name.clone(), takes_arg: false },
                        span: p.span,
                    }),
                }
            }
            PatKind::Annot(inner, texpr) => {
                let t = self.conv_type(texpr, p.span)?;
                self.unify_at(p.span, &t, expected)?;
                self.check_pat_inner(inner, &t)
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Bumps the recursion depth shared by `infer` and `check`, failing
    /// with a regular diagnostic on pathologically nested input. Paired
    /// with a decrement in those wrappers; an error aborts the whole
    /// check, so the counter need not survive failure.
    fn enter(&mut self, span: Span) -> Res<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(TypeError { kind: TypeErrorKind::TooDeep(MAX_DEPTH), span });
        }
        Ok(())
    }

    fn infer(&mut self, e: &Expr) -> Res<Ty> {
        self.enter(e.span)?;
        let ty = self.infer_kind(e);
        self.depth -= 1;
        let ty = ty?;
        if !self.capture.is_empty() && self.capture.contains(&e.id) {
            self.captured.insert(e.id, ty.clone());
        }
        Ok(ty)
    }

    /// Checks `e` against `expected`, descending into syntactic forms so
    /// blame lands on the deepest mismatching subexpression (as ocamlc's
    /// does).
    fn check(&mut self, e: &Expr, expected: &Ty) -> Res<()> {
        self.enter(e.span)?;
        let result = self.check_inner(e, expected);
        self.depth -= 1;
        result
    }

    fn check_inner(&mut self, e: &Expr, expected: &Ty) -> Res<()> {
        if !self.capture.is_empty() && self.capture.contains(&e.id) {
            self.captured.insert(e.id, expected.clone());
        }
        match &e.kind {
            ExprKind::Hole => Ok(()),
            ExprKind::Fun(params, body) => {
                let mark = self.env.mark();
                let mut rest = self.uni.shallow_resolve(expected);
                let mut pushed = true;
                let mut remaining_params: &[Pat] = params;
                while let Some((first, others)) = remaining_params.split_first() {
                    match rest {
                        Ty::Arrow(dom, cod) => {
                            self.check_pat(first, &dom)?;
                            rest = self.uni.shallow_resolve(&cod);
                            remaining_params = others;
                        }
                        _ => {
                            pushed = false;
                            break;
                        }
                    }
                }
                if pushed {
                    let result = self.check(body, &rest);
                    self.env.truncate(mark);
                    return result;
                }
                self.env.truncate(mark);
                let t = self.infer_kind(e)?;
                self.unify_at(e.span, &t, expected)
            }
            ExprKind::Let { .. } | ExprKind::Seq(_, _) => {
                // Push the expectation into the body/tail.
                match &e.kind {
                    ExprKind::Let { rec, bindings, body } => {
                        let mark = self.env.mark();
                        let saved: HashMap<String, Ty> = self.annot_vars.clone();
                        self.let_bindings(*rec, bindings, e.span)?;
                        let r = self.check(body, expected);
                        *self.annot_vars = saved;
                        self.env.truncate(mark);
                        r
                    }
                    ExprKind::Seq(a, b) => {
                        self.infer(a)?;
                        self.check(b, expected)
                    }
                    _ => unreachable!(),
                }
            }
            ExprKind::If(c, t, Some(els)) => {
                self.check(c, &Ty::bool())?;
                self.check(t, expected)?;
                self.check(els, expected)
            }
            ExprKind::Match(scrut, arms) => {
                let ts = self.infer(scrut)?;
                for arm in arms {
                    let mark = self.env.mark();
                    self.check_pat(&arm.pat, &ts)?;
                    if let Some(g) = &arm.guard {
                        self.check(g, &Ty::bool())?;
                    }
                    self.check(&arm.body, expected)?;
                    self.env.truncate(mark);
                }
                Ok(())
            }
            ExprKind::Tuple(parts) => {
                let want = self.uni.shallow_resolve(expected);
                if let Ty::Tuple(ws) = &want {
                    if ws.len() == parts.len() {
                        for (part, w) in parts.iter().zip(ws.iter()) {
                            self.check(part, w)?;
                        }
                        return Ok(());
                    }
                }
                let t = self.infer_kind(e)?;
                self.unify_at(e.span, &t, expected)
            }
            ExprKind::List(parts) => {
                let want = self.uni.shallow_resolve(expected);
                match &want {
                    Ty::Con(name, args) if &**name == "list" && args.len() == 1 => {
                        for part in parts {
                            self.check(part, &args[0])?;
                        }
                        Ok(())
                    }
                    _ => {
                        let t = self.infer_kind(e)?;
                        self.unify_at(e.span, &t, expected)
                    }
                }
            }
            _ => {
                let t = self.infer_kind(e)?;
                self.unify_at(e.span, &t, expected)
            }
        }
    }

    fn infer_kind(&mut self, e: &Expr) -> Res<Ty> {
        match &e.kind {
            ExprKind::Var(name) => {
                let Some(scheme) = self.env.lookup(name) else {
                    return Err(TypeError {
                        kind: TypeErrorKind::UnboundVar(name.clone()),
                        span: e.span,
                    });
                };
                Ok(instantiate(self.uni, scheme))
            }
            ExprKind::Lit(l) => Ok(lit_type(l)),
            ExprKind::Hole => Ok(self.uni.fresh()),
            ExprKind::Adapt(inner) => {
                self.infer(inner)?;
                Ok(self.uni.fresh())
            }
            ExprKind::Raise(inner) => {
                self.check(inner, &Ty::exn())?;
                Ok(self.uni.fresh())
            }
            ExprKind::App(f, a) => {
                let tf = self.infer(f)?;
                let tf = self.uni.shallow_resolve(&tf);
                match tf {
                    Ty::Arrow(dom, cod) => {
                        self.check(a, &dom)?;
                        Ok(Arc::unwrap_or_clone(cod))
                    }
                    other => {
                        let dom = self.uni.fresh();
                        let cod = self.uni.fresh();
                        self.unify_at(f.span, &other, &Ty::arrow(dom.clone(), cod.clone()))?;
                        self.check(a, &dom)?;
                        Ok(cod)
                    }
                }
            }
            ExprKind::Fun(params, body) => {
                let mark = self.env.mark();
                let mut doms = Vec::new();
                for p in params {
                    let tv = self.uni.fresh();
                    self.check_pat(p, &tv)?;
                    doms.push(tv);
                }
                let tb = self.infer(body)?;
                self.env.truncate(mark);
                Ok(Ty::arrows(doms, tb))
            }
            ExprKind::Let { rec, bindings, body } => {
                let mark = self.env.mark();
                let saved: HashMap<String, Ty> = self.annot_vars.clone();
                self.let_bindings(*rec, bindings, e.span)?;
                let t = self.infer(body)?;
                *self.annot_vars = saved;
                self.env.truncate(mark);
                Ok(t)
            }
            ExprKind::If(c, t, els) => {
                self.check(c, &Ty::bool())?;
                match els {
                    Some(els) => {
                        let tt = self.infer(t)?;
                        self.check(els, &tt)?;
                        Ok(tt)
                    }
                    None => {
                        self.check(t, &Ty::unit())?;
                        Ok(Ty::unit())
                    }
                }
            }
            ExprKind::Tuple(parts) => {
                let tys: Vec<Ty> = parts.iter().map(|p| self.infer(p)).collect::<Res<_>>()?;
                Ok(Ty::tuple(tys))
            }
            ExprKind::List(parts) => {
                let el = self.uni.fresh();
                for p in parts {
                    self.check(p, &el)?;
                }
                Ok(Ty::list(el))
            }
            ExprKind::Match(scrut, arms) => {
                let ts = self.infer(scrut)?;
                let result = self.uni.fresh();
                for arm in arms {
                    let mark = self.env.mark();
                    self.check_pat(&arm.pat, &ts)?;
                    if let Some(g) = &arm.guard {
                        self.check(g, &Ty::bool())?;
                    }
                    self.check(&arm.body, &result)?;
                    self.env.truncate(mark);
                }
                Ok(result)
            }
            ExprKind::Seq(a, b) => {
                self.infer(a)?;
                self.infer(b)
            }
            ExprKind::Try(body, arms) => {
                let result = self.infer(body)?;
                for arm in arms {
                    let mark = self.env.mark();
                    self.check_pat(&arm.pat, &Ty::exn())?;
                    if let Some(g) = &arm.guard {
                        self.check(g, &Ty::bool())?;
                    }
                    self.check(&arm.body, &result)?;
                    self.env.truncate(mark);
                }
                Ok(result)
            }
            ExprKind::Annot(inner, texpr) => {
                let t = self.conv_type(texpr, e.span)?;
                self.check(inner, &t)?;
                Ok(t)
            }
            ExprKind::Construct(name, arg) => {
                let ctors = Arc::clone(&self.env.ctors);
                let Some(info) = ctors.get(name) else {
                    return Err(TypeError {
                        kind: TypeErrorKind::UnboundCtor(name.clone()),
                        span: e.span,
                    });
                };
                let map = fresh_for(self.uni, &info.vars);
                match (&info.arg, arg) {
                    (Some(at), Some(ae)) => {
                        let at = self.uni.subst(at, &map);
                        self.check(ae, &at)?;
                    }
                    (None, None) => {}
                    (Some(_), None) => {
                        return Err(TypeError {
                            kind: TypeErrorKind::CtorArity { name: name.clone(), takes_arg: true },
                            span: e.span,
                        })
                    }
                    (None, Some(_)) => {
                        return Err(TypeError {
                            kind: TypeErrorKind::CtorArity { name: name.clone(), takes_arg: false },
                            span: e.span,
                        })
                    }
                }
                Ok(self.uni.subst(&info.result, &map))
            }
            ExprKind::Record(fields) => {
                let Some((first_name, _)) = fields.first() else {
                    return Err(TypeError {
                        kind: TypeErrorKind::UnboundField("<empty record>".into()),
                        span: e.span,
                    });
                };
                let infos = Arc::clone(&self.env.fields);
                let Some(finfo) = infos.get(first_name) else {
                    return Err(TypeError {
                        kind: TypeErrorKind::UnboundField(first_name.clone()),
                        span: e.span,
                    });
                };
                let Ty::Con(rec_name, _) = &finfo.record else { unreachable!() };
                let map = fresh_for(self.uni, &finfo.vars);
                let record_ty = self.uni.subst(&finfo.record, &map);
                let types = Arc::clone(&self.env.types);
                let declared = match types.get(&**rec_name) {
                    Some(TypeInfo::Record { fields, .. }) => &fields[..],
                    _ => &[],
                };
                for (fname, fval) in fields {
                    let Some(fi) = infos.get(fname) else {
                        return Err(TypeError {
                            kind: TypeErrorKind::UnboundField(fname.clone()),
                            span: e.span,
                        });
                    };
                    let Ty::Con(owner, _) = &fi.record else { unreachable!() };
                    if owner != rec_name {
                        return Err(TypeError {
                            kind: TypeErrorKind::ForeignField {
                                record: rec_name.to_string(),
                                field: fname.clone(),
                            },
                            span: e.span,
                        });
                    }
                    let fty = self.uni.subst(&fi.ty, &map);
                    self.check(fval, &fty)?;
                }
                for want in declared {
                    if !fields.iter().any(|(n, _)| n == want) {
                        return Err(TypeError {
                            kind: TypeErrorKind::MissingField {
                                record: rec_name.to_string(),
                                field: want.clone(),
                            },
                            span: e.span,
                        });
                    }
                }
                Ok(record_ty)
            }
            ExprKind::Field(obj, fname) => {
                let (record_ty, fty, _) = self.field_types(fname, e.span)?;
                let tobj = self.infer(obj)?;
                self.unify_at(obj.span, &tobj, &record_ty)?;
                Ok(fty)
            }
            ExprKind::SetField(obj, fname, value) => {
                let (record_ty, fty, mutable) = self.field_types(fname, e.span)?;
                if !mutable {
                    return Err(TypeError {
                        kind: TypeErrorKind::NotMutable(fname.clone()),
                        span: e.span,
                    });
                }
                let tobj = self.infer(obj)?;
                self.unify_at(obj.span, &tobj, &record_ty)?;
                self.check(value, &fty)?;
                Ok(Ty::unit())
            }
            ExprKind::UnOp(op, inner) => match op {
                UnOp::Neg => {
                    self.check(inner, &Ty::int())?;
                    Ok(Ty::int())
                }
                UnOp::NegF => {
                    self.check(inner, &Ty::float())?;
                    Ok(Ty::float())
                }
                UnOp::Deref => {
                    let v = self.uni.fresh();
                    let t = self.infer(inner)?;
                    self.unify_at(inner.span, &t, &Ty::reference(v.clone()))?;
                    Ok(v)
                }
            },
            ExprKind::BinOp(op, l, r) => self.binop(*op, l, r),
        }
    }

    fn field_types(&mut self, fname: &str, span: Span) -> Res<(Ty, Ty, bool)> {
        let Some(fi) = self.env.fields.get(fname) else {
            return Err(TypeError { kind: TypeErrorKind::UnboundField(fname.to_owned()), span });
        };
        let map = fresh_for(self.uni, &fi.vars);
        let record = self.uni.subst(&fi.record, &map);
        let fty = self.uni.subst(&fi.ty, &map);
        Ok((record, fty, fi.mutable))
    }

    fn binop(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Res<Ty> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Mod => {
                self.check(l, &Ty::int())?;
                self.check(r, &Ty::int())?;
                Ok(Ty::int())
            }
            AddF | SubF | MulF | DivF => {
                self.check(l, &Ty::float())?;
                self.check(r, &Ty::float())?;
                Ok(Ty::float())
            }
            Concat => {
                self.check(l, &Ty::string())?;
                self.check(r, &Ty::string())?;
                Ok(Ty::string())
            }
            Eq | PhysEq | Neq | PhysNeq | Lt | Gt | Le | Ge => {
                let tl = self.infer(l)?;
                self.check(r, &tl)?;
                Ok(Ty::bool())
            }
            And | Or => {
                self.check(l, &Ty::bool())?;
                self.check(r, &Ty::bool())?;
                Ok(Ty::bool())
            }
            Cons => {
                let tl = self.infer(l)?;
                self.check(r, &Ty::list(tl.clone()))?;
                Ok(Ty::list(tl))
            }
            Append => {
                let el = self.uni.fresh();
                let tl = self.infer(l)?;
                self.unify_at(l.span, &tl, &Ty::list(el.clone()))?;
                self.check(r, &Ty::list(el.clone()))?;
                Ok(Ty::list(el))
            }
            Assign => {
                let v = self.uni.fresh();
                let tl = self.infer(l)?;
                self.unify_at(l.span, &tl, &Ty::reference(v.clone()))?;
                self.check(r, &v)?;
                Ok(Ty::unit())
            }
        }
    }
}

/// `scheme`'s type with fresh variables for its quantified ones. A
/// monomorphic scheme's type is returned as it stands, unresolved.
fn instantiate(uni: &mut Unifier, scheme: &Scheme) -> Ty {
    if scheme.vars.is_empty() {
        return scheme.ty.clone();
    }
    let map = fresh_for(uni, &scheme.vars);
    uni.subst(&scheme.ty, &map)
}

/// A fresh variable for each of `vars`, as [`Unifier::subst`] pairs.
fn fresh_for(uni: &mut Unifier, vars: &[TvId]) -> Vec<(TvId, Ty)> {
    vars.iter().map(|v| (*v, uni.fresh())).collect()
}

fn lit_type(l: &Lit) -> Ty {
    match l {
        Lit::Int(_) => Ty::int(),
        Lit::Float(_) => Ty::float(),
        Lit::Str(_) => Ty::string(),
        Lit::Bool(_) => Ty::bool(),
        Lit::Unit => Ty::unit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_states_share_one_stdlib_map() {
        let a = InferState::initial();
        let b = InferState::initial();
        assert!(Arc::ptr_eq(&a.env.stdlib, &b.env.stdlib));
        assert!(Arc::ptr_eq(&a.env.stdlib, &stdlib_env().stdlib));
        assert!(a.env.values.is_empty());
    }
}
