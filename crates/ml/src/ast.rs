//! Untyped abstract syntax for the Caml subset.
//!
//! Every expression and pattern node carries a stable [`NodeId`] assigned at
//! parse time (or when a synthesized replacement is spliced in by
//! [`edit`](crate::edit)) and a [`Span`] into the original source. The
//! search procedure addresses nodes exclusively by `NodeId`, so edits never
//! invalidate outstanding references into unrelated parts of the tree.

use crate::span::Span;
use std::fmt;
use std::sync::Arc;

/// Identity of an AST node, unique within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Placeholder id carried by freshly synthesized nodes until
    /// [`Program::splice`](crate::edit) renumbers them.
    pub const SYNTH: NodeId = NodeId(u32::MAX);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Literal constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Unit,
}

/// Binary operators. The paper's tool treats operators like `:=` as just
/// more syntax worth special-casing in the enumerator, so we keep them as
/// first-class nodes rather than desugaring to applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` on int.
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    /// `+.` on float.
    AddF,
    SubF,
    MulF,
    DivF,
    /// `^` string concatenation.
    Concat,
    /// `=` structural equality.
    Eq,
    /// `==` physical equality.
    PhysEq,
    /// `<>` structural inequality.
    Neq,
    /// `!=` physical inequality.
    PhysNeq,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
    /// `::` list cons.
    Cons,
    /// `@` list append.
    Append,
    /// `:=` reference assignment.
    Assign,
}

impl BinOp {
    /// Concrete spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "mod",
            BinOp::AddF => "+.",
            BinOp::SubF => "-.",
            BinOp::MulF => "*.",
            BinOp::DivF => "/.",
            BinOp::Concat => "^",
            BinOp::Eq => "=",
            BinOp::PhysEq => "==",
            BinOp::Neq => "<>",
            BinOp::PhysNeq => "!=",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Cons => "::",
            BinOp::Append => "@",
            BinOp::Assign => ":=",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation `-`.
    Neg,
    /// Float negation `-.`.
    NegF,
    /// Dereference `!`.
    Deref,
}

impl UnOp {
    /// Concrete spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::NegF => "-.",
            UnOp::Deref => "!",
        }
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub id: NodeId,
    pub span: Span,
    pub kind: ExprKind,
}

/// The shape of an expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Variable reference (possibly qualified, `List.map`).
    Var(String),
    /// Constant.
    Lit(Lit),
    /// Curried application `f x`.
    App(Box<Expr>, Box<Expr>),
    /// `fun p1 p2 -> e`.
    Fun(Vec<Pat>, Box<Expr>),
    /// `let [rec] b1 and b2 in body`.
    Let { rec: bool, bindings: Vec<Binding>, body: Box<Expr> },
    /// `if c then t [else e]`.
    If(Box<Expr>, Box<Expr>, Option<Box<Expr>>),
    /// `(e1, e2, ...)` with at least two components.
    Tuple(Vec<Expr>),
    /// `[e1; e2; ...]`.
    List(Vec<Expr>),
    /// `match e with arms`.
    Match(Box<Expr>, Vec<Arm>),
    /// `e1 op e2`.
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    /// `op e`.
    UnOp(UnOp, Box<Expr>),
    /// `e1; e2`.
    Seq(Box<Expr>, Box<Expr>),
    /// `(e : ty)`.
    Annot(Box<Expr>, TypeExpr),
    /// Constructor use `C` or `C arg`.
    Construct(String, Option<Box<Expr>>),
    /// `{ f1 = e1; ... }`.
    Record(Vec<(String, Expr)>),
    /// `e.f`.
    Field(Box<Expr>, String),
    /// `e.f <- e2`.
    SetField(Box<Expr>, String, Box<Expr>),
    /// `raise e`.
    Raise(Box<Expr>),
    /// `try e with arms` — arms match exceptions.
    Try(Box<Expr>, Vec<Arm>),
    /// The wildcard replacement `[[...]]`. Typed exactly like `raise Foo`:
    /// a fresh, unconstrained type variable (see DESIGN.md §5).
    Hole,
    /// `adapt e`: discards `e`'s result type, keeping its internal
    /// constraints — the paper's `let adapt x = raise Foo` (§2.3).
    Adapt(Box<Expr>),
}

/// One `pattern [when guard] -> expression` arm of a match.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    pub pat: Pat,
    /// Optional boolean guard `when g`.
    pub guard: Option<Expr>,
    pub body: Expr,
}

/// A single binding in a `let`: `name p1 p2 = body` or `pat = body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The bound pattern (a plain variable for function definitions).
    pub pat: Pat,
    /// Function parameters; empty for a value binding.
    pub params: Vec<Pat>,
    /// Optional result annotation `let f x : ty = ...`.
    pub annot: Option<TypeExpr>,
    pub body: Expr,
}

/// A pattern node.
#[derive(Debug, Clone, PartialEq)]
pub struct Pat {
    pub id: NodeId,
    pub span: Span,
    pub kind: PatKind,
}

/// The shape of a pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatKind {
    /// `_`.
    Wild,
    /// Variable binding.
    Var(String),
    /// Literal pattern.
    Lit(Lit),
    /// `(p1, p2, ...)`.
    Tuple(Vec<Pat>),
    /// `[p1; p2]`.
    List(Vec<Pat>),
    /// `p1 :: p2`.
    Cons(Box<Pat>, Box<Pat>),
    /// `C` or `C p`.
    Construct(String, Option<Box<Pat>>),
    /// `(p : ty)`.
    Annot(Box<Pat>, TypeExpr),
}

/// A syntactic type (annotations and `type` declarations).
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// `'a`.
    Var(String),
    /// `int`, `'a list`, `('a, 'b) t`.
    Con(String, Vec<TypeExpr>),
    /// `t1 -> t2`.
    Arrow(Box<TypeExpr>, Box<TypeExpr>),
    /// `t1 * t2 * ...`.
    Tuple(Vec<TypeExpr>),
}

/// The body of a `type` declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDefBody {
    /// `A of t | B | ...`.
    Variant(Vec<(String, Option<TypeExpr>)>),
    /// `{ f : t; mutable g : t }`.
    Record(Vec<FieldDef>),
    /// `= t`.
    Alias(TypeExpr),
}

/// One field of a record type declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    pub name: String,
    pub mutable: bool,
    pub ty: TypeExpr,
}

/// One named type definition `type ('a, 'b) name = body`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDef {
    pub name: String,
    pub params: Vec<String>,
    pub body: TypeDefBody,
}

/// A top-level declaration.
///
/// A declaration also carries the smallest and largest [`NodeId`] it
/// holds — its own, and those of every expression and pattern in it,
/// nested patterns included. [`Decl::new`] computes them from the
/// nodes, so they are a function of the content: equal declarations
/// have equal bounds. Lookups by id ([`Decl::find_expr`],
/// [`Program::decl_of`], [`edit::apply`](crate::edit::apply)) skip any
/// declaration whose bounds cannot hold the id.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub id: NodeId,
    pub span: Span,
    pub kind: DeclKind,
    lo: NodeId,
    hi: NodeId,
}

/// The shape of a top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum DeclKind {
    /// `let [rec] b1 and b2`.
    Let { rec: bool, bindings: Vec<Binding> },
    /// `type d1 and d2`.
    Type(Vec<TypeDef>),
    /// `exception E [of t]`.
    Exception(String, Option<TypeExpr>),
    /// A top-level expression (`;;`-separated), checked at type `unit`-free:
    /// we infer it and discard the result, as ocaml toplevel phrases do.
    Expr(Expr),
}

/// A whole source file: the unit the searcher operates on.
///
/// Declarations are held behind [`Arc`] so that cloning a program — and
/// building probe variants that differ in a single declaration — shares
/// every untouched top-level subtree instead of deep-copying it. The
/// incremental oracle leans on that sharing: two programs whose leading
/// declarations are pointer-equal provably have the same prefix, so the
/// checker can resume from a snapshot instead of re-inferring from
/// scratch. All `Arc`s here are handed out by the parser and by
/// [`edit::apply`](crate::edit::apply), both through [`Decl::new`];
/// mutate one in place only through [`Arc::make_mut`], which unshares
/// exactly the declaration touched.
///
/// An in-place edit must keep the declaration's id bounds true: it may
/// change what a node says (today's in-place edits only flip `rec`), but
/// it must not add a node id outside the bounds [`Decl::new`] computed.
/// Anything that adds or renumbers nodes goes through `edit::apply`,
/// which rebuilds the declaration. [`edit::validate`](crate::edit::validate)
/// reports a node outside its declaration's bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub decls: Vec<Arc<Decl>>,
    /// Next unassigned [`NodeId`]; managed by the parser and by `edit`.
    pub next_id: u32,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program { decls: Vec::new(), next_id: 0 }
    }

    /// Hands out a fresh node id.
    pub fn fresh_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// A copy containing only the first `n` declarations — the prefix
    /// programs the searcher feeds to the oracle to localize the first
    /// ill-typed top-level definition (§2.1). With `Arc`-shared
    /// declarations this is `n` refcount bumps, not a deep copy.
    pub fn prefix(&self, n: usize) -> Program {
        Program { decls: self.decls[..n.min(self.decls.len())].to_vec(), next_id: self.next_id }
    }

    /// Total number of expression nodes, the size metric used by the ranker.
    pub fn size(&self) -> usize {
        let mut n = 0;
        for d in &self.decls {
            d.for_each_expr(&mut |_| n += 1);
        }
        n
    }
}

impl Default for Program {
    fn default() -> Program {
        Program::new()
    }
}

impl Expr {
    /// Builds a synthesized node (id [`NodeId::SYNTH`], given span).
    pub fn synth(kind: ExprKind, span: Span) -> Expr {
        Expr { id: NodeId::SYNTH, span, kind }
    }

    /// The `[[...]]` wildcard carrying the span of whatever it replaces.
    pub fn hole(span: Span) -> Expr {
        Expr::synth(ExprKind::Hole, span)
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>, span: Span) -> Expr {
        Expr::synth(ExprKind::Var(name.into()), span)
    }

    /// Number of expression nodes in this subtree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        let mut best = 0;
        self.for_each_child(&mut |c| best = best.max(c.depth()));
        best + 1
    }

    /// Whether this node is the wildcard hole.
    pub fn is_hole(&self) -> bool {
        matches!(self.kind, ExprKind::Hole)
    }

    /// Whether this expression is a *syntactic value* in the sense of the
    /// value restriction (variables, literals, functions, constructors of
    /// values, tuples/lists of values).
    pub fn is_syntactic_value(&self) -> bool {
        match &self.kind {
            // NOTE: `Hole` is deliberately *not* a value — it stands for
            // `raise Foo`, which the value restriction keeps monomorphic.
            ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Fun(_, _) => true,
            ExprKind::Tuple(es) | ExprKind::List(es) => es.iter().all(Expr::is_syntactic_value),
            ExprKind::Construct(_, arg) => arg.as_ref().is_none_or(|a| a.is_syntactic_value()),
            ExprKind::Annot(e, _) => e.is_syntactic_value(),
            ExprKind::Record(fields) => fields.iter().all(|(_, e)| e.is_syntactic_value()),
            _ => false,
        }
    }

    /// Calls `f` on each direct child expression, left to right.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Hole => {}
            ExprKind::App(a, b) | ExprKind::Seq(a, b) | ExprKind::BinOp(_, a, b) => {
                f(a);
                f(b);
            }
            ExprKind::Fun(_, body) => f(body),
            ExprKind::Let { bindings, body, .. } => {
                for b in bindings {
                    f(&b.body);
                }
                f(body);
            }
            ExprKind::If(c, t, e) => {
                f(c);
                f(t);
                if let Some(e) = e {
                    f(e);
                }
            }
            ExprKind::Tuple(es) | ExprKind::List(es) => {
                for e in es {
                    f(e);
                }
            }
            ExprKind::Match(scrut, arms) | ExprKind::Try(scrut, arms) => {
                f(scrut);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        f(g);
                    }
                    f(&arm.body);
                }
            }
            ExprKind::UnOp(_, e)
            | ExprKind::Annot(e, _)
            | ExprKind::Raise(e)
            | ExprKind::Adapt(e)
            | ExprKind::Field(e, _) => f(e),
            ExprKind::Construct(_, arg) => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            ExprKind::Record(fields) => {
                for (_, e) in fields {
                    f(e);
                }
            }
            ExprKind::SetField(a, _, b) => {
                f(a);
                f(b);
            }
        }
    }

    /// Calls `f` on this node and every descendant, preorder.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(&mut |c| c.walk(f));
    }

    /// Calls `f` on the id of this node and of every expression and
    /// pattern beneath it: `fun` parameters, local `let` bindings and
    /// `match`/`try` arm patterns included. Each node comes before its
    /// patterns and its children.
    fn for_each_id(&self, f: &mut impl FnMut(NodeId)) {
        // An explicit stack, not recursion: hand-built trees can nest
        // deeper than inference's depth guard, and this walk runs first.
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            f(e.id);
            match &e.kind {
                ExprKind::Fun(params, _) => {
                    for p in params {
                        p.walk(&mut |q| f(q.id));
                    }
                }
                ExprKind::Let { bindings, .. } => {
                    for b in bindings {
                        b.pat.walk(&mut |q| f(q.id));
                        for p in &b.params {
                            p.walk(&mut |q| f(q.id));
                        }
                    }
                }
                ExprKind::Match(_, arms) | ExprKind::Try(_, arms) => {
                    for arm in arms {
                        arm.pat.walk(&mut |q| f(q.id));
                    }
                }
                _ => {}
            }
            let at = stack.len();
            e.for_each_child(&mut |c| stack.push(c));
            stack[at..].reverse();
        }
    }

    /// Finds the descendant (or self) with the given id.
    pub fn find(&self, id: NodeId) -> Option<&Expr> {
        if self.id == id {
            return Some(self);
        }
        let mut found = None;
        self.for_each_child(&mut |c| {
            if found.is_none() {
                found = c.find(id);
            }
        });
        found
    }

    /// A short category label for the node, used in diagnostics and stats.
    pub fn kind_name(&self) -> &'static str {
        match &self.kind {
            ExprKind::Var(_) => "variable",
            ExprKind::Lit(_) => "literal",
            ExprKind::App(_, _) => "application",
            ExprKind::Fun(_, _) => "function",
            ExprKind::Let { .. } => "let",
            ExprKind::If(_, _, _) => "if",
            ExprKind::Tuple(_) => "tuple",
            ExprKind::List(_) => "list",
            ExprKind::Match(_, _) => "match",
            ExprKind::BinOp(_, _, _) => "operator",
            ExprKind::UnOp(_, _) => "unary operator",
            ExprKind::Seq(_, _) => "sequence",
            ExprKind::Annot(_, _) => "annotation",
            ExprKind::Construct(_, _) => "constructor",
            ExprKind::Record(_) => "record",
            ExprKind::Field(_, _) => "field access",
            ExprKind::SetField(_, _, _) => "field update",
            ExprKind::Raise(_) => "raise",
            ExprKind::Try(_, _) => "try",
            ExprKind::Hole => "hole",
            ExprKind::Adapt(_) => "adapt",
        }
    }
}

impl Pat {
    /// Builds a synthesized pattern node.
    pub fn synth(kind: PatKind, span: Span) -> Pat {
        Pat { id: NodeId::SYNTH, span, kind }
    }

    /// The wildcard pattern `_`.
    pub fn wild(span: Span) -> Pat {
        Pat::synth(PatKind::Wild, span)
    }

    /// Calls `f` on each direct child pattern.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Pat)) {
        match &self.kind {
            PatKind::Wild | PatKind::Var(_) | PatKind::Lit(_) => {}
            PatKind::Tuple(ps) | PatKind::List(ps) => {
                for p in ps {
                    f(p);
                }
            }
            PatKind::Cons(a, b) => {
                f(a);
                f(b);
            }
            PatKind::Construct(_, arg) => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            PatKind::Annot(p, _) => f(p),
        }
    }

    /// Calls `f` on this pattern and every descendant, preorder.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Pat)) {
        f(self);
        self.for_each_child(&mut |c| c.walk(f));
    }

    /// Names bound by this pattern, in left-to-right order.
    pub fn bound_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let PatKind::Var(name) = &p.kind {
                out.push(name.clone());
            }
        });
        out
    }

    /// Number of pattern nodes in this subtree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

impl Decl {
    /// Builds a declaration, computing its id bounds from its nodes.
    pub fn new(id: NodeId, span: Span, kind: DeclKind) -> Decl {
        let mut d = Decl { id, span, kind, lo: id, hi: id };
        let (mut lo, mut hi) = (id, id);
        d.for_each_id(&mut |n| {
            lo = lo.min(n);
            hi = hi.max(n);
        });
        d.lo = lo;
        d.hi = hi;
        d
    }

    /// Whether `id` lies within this declaration's id bounds — a
    /// necessary condition for the declaration to hold that node.
    pub fn may_hold(&self, id: NodeId) -> bool {
        self.lo <= id && id <= self.hi
    }

    /// Calls `f` on the id of this declaration and of every expression
    /// and pattern in it, nested patterns included: the walker behind
    /// the id bounds and [`edit::validate`](crate::edit::validate).
    pub fn for_each_id(&self, f: &mut impl FnMut(NodeId)) {
        f(self.id);
        match &self.kind {
            DeclKind::Let { bindings, .. } => {
                for b in bindings {
                    b.pat.walk(&mut |q| f(q.id));
                    for p in &b.params {
                        p.walk(&mut |q| f(q.id));
                    }
                    b.body.for_each_id(f);
                }
            }
            DeclKind::Expr(e) => e.for_each_id(f),
            DeclKind::Type(_) | DeclKind::Exception(_, _) => {}
        }
    }

    /// Calls `f` on every expression node in this declaration, preorder.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            DeclKind::Let { bindings, .. } => {
                for b in bindings {
                    b.body.walk(f);
                }
            }
            DeclKind::Expr(e) => e.walk(f),
            DeclKind::Type(_) | DeclKind::Exception(_, _) => {}
        }
    }

    /// Finds the expression with the given id anywhere in this declaration.
    pub fn find_expr(&self, id: NodeId) -> Option<&Expr> {
        if !self.may_hold(id) {
            return None;
        }
        match &self.kind {
            DeclKind::Let { bindings, .. } => bindings.iter().find_map(|b| b.body.find(id)),
            DeclKind::Expr(e) => e.find(id),
            DeclKind::Type(_) | DeclKind::Exception(_, _) => None,
        }
    }

    /// The names this declaration introduces (for prefix diagnostics).
    pub fn names(&self) -> Vec<String> {
        match &self.kind {
            DeclKind::Let { bindings, .. } => {
                bindings.iter().flat_map(|b| b.pat.bound_vars()).collect()
            }
            DeclKind::Type(defs) => defs.iter().map(|d| d.name.clone()).collect(),
            DeclKind::Exception(name, _) => vec![name.clone()],
            DeclKind::Expr(_) => Vec::new(),
        }
    }
}

impl Program {
    /// Finds an expression node anywhere in the program.
    pub fn find_expr(&self, id: NodeId) -> Option<&Expr> {
        self.decls.iter().find_map(|d| d.find_expr(id))
    }

    /// Index of the declaration containing the given expression node.
    pub fn decl_of(&self, id: NodeId) -> Option<usize> {
        self.decls.iter().position(|d| d.find_expr(id).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Expr {
        Expr::synth(ExprKind::Lit(Lit::Int(n)), Span::DUMMY)
    }

    #[test]
    fn size_counts_all_nodes() {
        let e = Expr::synth(
            ExprKind::App(Box::new(Expr::var("f", Span::DUMMY)), Box::new(lit(1))),
            Span::DUMMY,
        );
        assert_eq!(e.size(), 3);
        assert_eq!(e.depth(), 2);
    }

    #[test]
    fn syntactic_values() {
        assert!(lit(1).is_syntactic_value());
        assert!(Expr::var("x", Span::DUMMY).is_syntactic_value());
        let app = Expr::synth(
            ExprKind::App(Box::new(Expr::var("f", Span::DUMMY)), Box::new(lit(1))),
            Span::DUMMY,
        );
        assert!(!app.is_syntactic_value());
        let tup = Expr::synth(ExprKind::Tuple(vec![lit(1), lit(2)]), Span::DUMMY);
        assert!(tup.is_syntactic_value());
    }

    #[test]
    fn bound_vars_in_order() {
        let p = Pat::synth(
            PatKind::Tuple(vec![
                Pat::synth(PatKind::Var("x".into()), Span::DUMMY),
                Pat::synth(
                    PatKind::Cons(
                        Box::new(Pat::synth(PatKind::Var("y".into()), Span::DUMMY)),
                        Box::new(Pat::wild(Span::DUMMY)),
                    ),
                    Span::DUMMY,
                ),
            ]),
            Span::DUMMY,
        );
        assert_eq!(p.bound_vars(), vec!["x".to_owned(), "y".to_owned()]);
    }

    #[test]
    fn find_locates_nested_node() {
        let mut inner = lit(7);
        inner.id = NodeId(42);
        let e = Expr::synth(
            ExprKind::If(Box::new(Expr::var("b", Span::DUMMY)), Box::new(inner), None),
            Span::DUMMY,
        );
        assert!(matches!(e.find(NodeId(42)).unwrap().kind, ExprKind::Lit(Lit::Int(7))));
        assert!(e.find(NodeId(43)).is_none());
    }
}
