//! Untyped abstract syntax for the Caml subset.
//!
//! Every expression and pattern node carries a stable [`NodeId`] assigned at
//! parse time (or when a synthesized replacement is spliced in by
//! [`edit`](crate::edit)) and a [`Span`] into the original source. The
//! search procedure addresses nodes exclusively by `NodeId`, so edits never
//! invalidate outstanding references into unrelated parts of the tree.

use crate::span::Span;
use seminal_obs::hash::{fnv1a_extend, FNV_OFFSET};
use std::cell::{Cell, RefCell};
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
///
/// Every child expression — in [`ExprKind`], a [`Binding`], an [`Arm`]
/// or [`DeclKind::Expr`] — is held behind an [`Arc`], so a clone is
/// shallow: it copies the node's own fields (its id, span, names,
/// literals, child lists) and bumps the children's reference counts.
/// Programs share subtrees freely, a probe variant with its base above
/// all, so a node reached through a shared `Arc` is changed only through
/// [`Arc::make_mut`], which unshares just that node, or by building a
/// new tree through [`edit::apply`](crate::edit::apply).
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
    App(Arc<Expr>, Arc<Expr>),
    /// `fun p1 p2 -> e`.
    Fun(Vec<Pat>, Arc<Expr>),
    /// `let [rec] b1 and b2 in body`.
    Let { rec: bool, bindings: Vec<Binding>, body: Arc<Expr> },
    /// `if c then t [else e]`.
    If(Arc<Expr>, Arc<Expr>, Option<Arc<Expr>>),
    /// `(e1, e2, ...)` with at least two components.
    Tuple(Vec<Arc<Expr>>),
    /// `[e1; e2; ...]`.
    List(Vec<Arc<Expr>>),
    /// `match e with arms`.
    Match(Arc<Expr>, Vec<Arm>),
    /// `e1 op e2`.
    BinOp(BinOp, Arc<Expr>, Arc<Expr>),
    /// `op e`.
    UnOp(UnOp, Arc<Expr>),
    /// `e1; e2`.
    Seq(Arc<Expr>, Arc<Expr>),
    /// `(e : ty)`.
    Annot(Arc<Expr>, TypeExpr),
    /// Constructor use `C` or `C arg`.
    Construct(String, Option<Arc<Expr>>),
    /// `{ f1 = e1; ... }`.
    Record(Vec<(String, Arc<Expr>)>),
    /// `e.f`.
    Field(Arc<Expr>, String),
    /// `e.f <- e2`.
    SetField(Arc<Expr>, String, Arc<Expr>),
    /// `raise e`.
    Raise(Arc<Expr>),
    /// `try e with arms` — arms match exceptions.
    Try(Arc<Expr>, Vec<Arm>),
    /// The wildcard replacement `[[...]]`. Typed exactly like `raise Foo`:
    /// a fresh, unconstrained type variable (see DESIGN.md §5).
    Hole,
    /// `adapt e`: discards `e`'s result type, keeping its internal
    /// constraints — the paper's `let adapt x = raise Foo` (§2.3).
    Adapt(Arc<Expr>),
}

/// One `pattern [when guard] -> expression` arm of a match.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    pub pat: Pat,
    /// Optional boolean guard `when g`.
    pub guard: Option<Arc<Expr>>,
    pub body: Arc<Expr>,
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
    pub body: Arc<Expr>,
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
/// A declaration also carries what [`Decl::new`] derives from its nodes
/// in one walk, so each is a function of the content:
///
/// - the smallest and largest [`NodeId`] it holds — its own, and those
///   of every expression and pattern in it, nested patterns included.
///   Lookups by id ([`Decl::find_expr`], [`Program::decl_of`],
///   [`edit::apply`](crate::edit::apply)) skip any declaration whose
///   bounds cannot hold the id;
/// - its [content key](Decl::content_key) and its
///   [span key](Decl::span_key), the memo keys.
///
/// The fields are private, so nothing can change a declaration without
/// refreshing them: a declaration is built by [`Decl::new`] and changed
/// in place only through [`Decl::update_kind`].
#[derive(Clone, PartialEq)]
pub struct Decl {
    id: NodeId,
    span: Span,
    kind: DeclKind,
    lo: NodeId,
    hi: NodeId,
    content_key: u64,
    span_key: u64,
}

impl fmt::Debug for Decl {
    /// The nodes and the id bounds; the keys are a function of them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decl")
            .field("id", &self.id)
            .field("span", &self.span)
            .field("kind", &self.kind)
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .finish()
    }
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
    Expr(Arc<Expr>),
}

/// A whole source file: the unit the searcher operates on.
///
/// Declarations are held behind [`Arc`], as every child expression is
/// (see [`Expr`]), so a clone of a program is shallow: it copies the
/// declaration list and shares every declaration. A probe variant shares
/// every declaration its edit leaves alone, and inside the edited one
/// every subtree off the path to each target. The incremental oracle
/// leans on that sharing: two programs whose leading declarations are
/// pointer-equal provably have the same prefix, so the checker can
/// resume from a snapshot instead of re-inferring from scratch. All
/// `Arc<Decl>`s here are handed out by the parser and by
/// [`edit::apply`](crate::edit::apply), both through [`Decl::new`];
/// change one in place only through [`Arc::make_mut`], which unshares
/// exactly the declaration touched, and [`Decl::update_kind`], which
/// refreshes its id bounds and keys (today's in-place edits only flip
/// `rec`). Anything that adds or renumbers nodes goes through
/// `edit::apply`, which rebuilds the path from the declaration down to
/// each node it replaces.
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

/// Nested expression drops a thread recurses through before it queues
/// the rest of a tree instead.
const DROP_DEPTH_LIMIT: usize = 256;

thread_local! {
    /// Expression drops in progress on this thread, outermost first.
    static DROP_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Children of nodes dropped at [`DROP_DEPTH_LIMIT`], left for the
    /// outermost drop to finish.
    static DROP_QUEUE: RefCell<Vec<Arc<Expr>>> = const { RefCell::new(Vec::new()) };
}

impl Drop for Expr {
    /// Drops the subtree in bounded stack: recursively through at most
    /// `DROP_DEPTH_LIMIT` (256) nested drops, below which the children are
    /// queued and dropped by the outermost drop once it has unwound. A
    /// tree nests as deep as its longest operator or application chain,
    /// and each level of a recursive drop takes several frames (the
    /// `Arc`'s, the node's and its kind's).
    fn drop(&mut self) {
        if matches!(self.kind, ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Hole) {
            return;
        }
        let kind = self.take_kind();
        let depth = DROP_DEPTH.get();
        if depth == DROP_DEPTH_LIMIT {
            // Past thread-local teardown the queue is gone, and `kind`
            // drops here instead.
            let _ = DROP_QUEUE.try_with(move |queue| kind.into_children(&mut queue.borrow_mut()));
            return;
        }
        DROP_DEPTH.set(depth + 1);
        drop(kind);
        if depth == 0 {
            while let Some(child) = DROP_QUEUE.try_with(|q| q.borrow_mut().pop()).ok().flatten() {
                drop(child);
            }
        }
        DROP_DEPTH.set(depth);
    }
}

impl ExprKind {
    /// Moves the child expressions into `out`, dropping the rest (names,
    /// literals, patterns, types), none of which holds an expression.
    fn into_children(self, out: &mut Vec<Arc<Expr>>) {
        match self {
            ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Hole => {}
            ExprKind::App(a, b)
            | ExprKind::Seq(a, b)
            | ExprKind::BinOp(_, a, b)
            | ExprKind::SetField(a, _, b) => out.extend([a, b]),
            ExprKind::Fun(_, a)
            | ExprKind::UnOp(_, a)
            | ExprKind::Annot(a, _)
            | ExprKind::Field(a, _)
            | ExprKind::Raise(a)
            | ExprKind::Adapt(a) => out.push(a),
            ExprKind::Let { bindings, body, .. } => {
                out.extend(bindings.into_iter().map(|b| b.body));
                out.push(body);
            }
            ExprKind::If(c, t, e) => out.extend([c, t].into_iter().chain(e)),
            ExprKind::Tuple(es) | ExprKind::List(es) => out.extend(es),
            ExprKind::Match(a, arms) | ExprKind::Try(a, arms) => {
                out.push(a);
                for arm in arms {
                    out.extend(arm.guard);
                    out.push(arm.body);
                }
            }
            ExprKind::Construct(_, a) => out.extend(a),
            ExprKind::Record(fields) => out.extend(fields.into_iter().map(|(_, v)| v)),
        }
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

    /// Moves the kind out, leaving a hole (an expression cannot be
    /// destructured by value, since it has a destructor).
    pub(crate) fn take_kind(&mut self) -> ExprKind {
        std::mem::replace(&mut self.kind, ExprKind::Hole)
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
            ExprKind::Tuple(es) | ExprKind::List(es) => es.iter().all(|e| e.is_syntactic_value()),
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
    /// Builds a declaration, computing its id bounds and keys from its
    /// nodes.
    pub fn new(id: NodeId, span: Span, kind: DeclKind) -> Decl {
        let mut d = Decl { id, span, kind, lo: id, hi: id, content_key: 0, span_key: 0 };
        d.summarize();
        d
    }

    /// The declaration's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The source span of the whole declaration.
    pub fn span(&self) -> Span {
        self.span
    }

    /// What the declaration declares.
    pub fn kind(&self) -> &DeclKind {
        &self.kind
    }

    /// Changes the declaration in place through `f` — on a shared
    /// declaration, after [`Arc::make_mut`] — and recomputes its id
    /// bounds and keys. `f` may change what nodes say (the search flips
    /// `rec`); nodes it adds must carry fresh ids, as
    /// [`edit::apply`](crate::edit::apply) hands out.
    pub fn update_kind(&mut self, f: impl FnOnce(&mut DeclKind)) {
        f(&mut self.kind);
        self.summarize();
    }

    /// The kind, for tests that corrupt a declaration on purpose: its
    /// bounds and keys are not refreshed.
    #[cfg(test)]
    pub(crate) fn kind_mut_unchecked(&mut self) -> &mut DeclKind {
        &mut self.kind
    }

    /// The content key: FNV-1a over the declaration's node kinds,
    /// names, literals, operators, `rec` flags, annotations and type
    /// definitions, in walk order with every count and name length, so
    /// that two declarations share it only if their trees are equal up
    /// to node ids and spans (or their hashes collide). Layout twins
    /// share it — comments, whitespace, redundant parentheses and
    /// `begin … end` leave no trace in the tree — and it is stable
    /// across processes and re-parses.
    pub fn content_key(&self) -> u64 {
        self.content_key
    }

    /// The span key: the content key extended with the hash of every
    /// node's span in walk order — the declaration's own, then each
    /// expression's and each pattern's. Two declarations that share it
    /// infer alike and report their type errors at the same places.
    pub fn span_key(&self) -> u64 {
        self.span_key
    }

    /// Whether `id` lies within this declaration's id bounds — a
    /// necessary condition for the declaration to hold that node.
    pub fn may_hold(&self, id: NodeId) -> bool {
        self.lo <= id && id <= self.hi
    }

    /// Calls `f` on the id of this declaration and of every expression
    /// and pattern in it, nested patterns included, each node before
    /// its children: the walk behind the id bounds and
    /// [`edit::validate`](crate::edit::validate).
    pub fn for_each_id(&self, f: &mut impl FnMut(NodeId)) {
        f(self.id);
        self.walk(|id, _| f(id));
    }

    /// Recomputes the id bounds and keys in one walk.
    fn summarize(&mut self) {
        let (mut lo, mut hi) = (self.id, self.id);
        let mut spans = Key::new();
        spans.span(self.span);
        let content = self.walk(|id, span| {
            lo = lo.min(id);
            hi = hi.max(id);
            spans.span(span);
        });
        self.lo = lo;
        self.hi = hi;
        self.content_key = content;
        self.span_key = fnv1a_extend(content, &spans.0.to_le_bytes());
    }

    /// Visits every node of the declaration in preorder, calling
    /// `visit` with the id and span of each expression and pattern, and
    /// returns the content key. The walk keeps its own stack instead of
    /// recursing: hand-built trees can nest deeper than inference's
    /// depth guard, and this walk runs first.
    fn walk(&self, mut visit: impl FnMut(NodeId, Span)) -> u64 {
        let mut key = Key::new();
        // Room for a typical declaration's pending siblings, so the walk
        // allocates once.
        let mut stack = Vec::with_capacity(32);
        match &self.kind {
            DeclKind::Let { rec, bindings } => {
                key.tag(0);
                key.flag(*rec);
                key.count(bindings.len());
                stack.extend(bindings.iter().map(Node::Binding));
            }
            DeclKind::Type(defs) => {
                key.tag(1);
                key.count(defs.len());
                for def in defs {
                    key.name(&def.name);
                    key.count(def.params.len());
                    for param in &def.params {
                        key.name(param);
                    }
                    match &def.body {
                        TypeDefBody::Variant(ctors) => {
                            key.tag(0);
                            key.count(ctors.len());
                            for (name, arg) in ctors {
                                key.name(name);
                                key.flag(arg.is_some());
                                stack.extend(arg.iter().map(Node::Type));
                            }
                        }
                        TypeDefBody::Record(fields) => {
                            key.tag(1);
                            key.count(fields.len());
                            for field in fields {
                                key.name(&field.name);
                                key.flag(field.mutable);
                                stack.push(Node::Type(&field.ty));
                            }
                        }
                        TypeDefBody::Alias(ty) => {
                            key.tag(2);
                            stack.push(Node::Type(ty));
                        }
                    }
                }
            }
            DeclKind::Exception(name, arg) => {
                key.tag(2);
                key.name(name);
                key.flag(arg.is_some());
                stack.extend(arg.iter().map(Node::Type));
            }
            DeclKind::Expr(e) => {
                key.tag(3);
                stack.push(Node::Expr(e));
            }
        }
        stack.reverse();
        while let Some(node) = stack.pop() {
            match node {
                Node::Expr(e) => visit(e.id, e.span),
                Node::Pat(p) => visit(p.id, p.span),
                _ => {}
            }
            let at = stack.len();
            node.expand(&mut key, &mut stack);
            stack[at..].reverse();
        }
        key.0
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

/// A node of the walk behind [`Decl::new`].
#[derive(Clone, Copy)]
enum Node<'a> {
    Expr(&'a Expr),
    Pat(&'a Pat),
    Binding(&'a Binding),
    Arm(&'a Arm),
    Type(&'a TypeExpr),
}

impl<'a> Node<'a> {
    /// Feeds what this node says into `key` — its kind, names,
    /// literals, operators, flags and child counts, never its id, span
    /// or children — and pushes its children onto `stack` in order.
    fn expand(self, key: &mut Key, stack: &mut Vec<Node<'a>>) {
        match self {
            Node::Expr(e) => match &e.kind {
                ExprKind::Var(name) => {
                    key.tag(0);
                    key.name(name);
                }
                ExprKind::Lit(lit) => {
                    key.tag(1);
                    key.lit(lit);
                }
                ExprKind::App(f, a) => {
                    key.tag(2);
                    stack.extend([Node::Expr(f), Node::Expr(a)]);
                }
                ExprKind::Fun(params, body) => {
                    key.tag(3);
                    key.count(params.len());
                    stack.extend(params.iter().map(Node::Pat));
                    stack.push(Node::Expr(body));
                }
                ExprKind::Let { rec, bindings, body } => {
                    key.tag(4);
                    key.flag(*rec);
                    key.count(bindings.len());
                    stack.extend(bindings.iter().map(Node::Binding));
                    stack.push(Node::Expr(body));
                }
                ExprKind::If(c, t, els) => {
                    key.tag(5);
                    key.flag(els.is_some());
                    stack.extend([Node::Expr(c), Node::Expr(t)]);
                    stack.extend(els.as_deref().map(Node::Expr));
                }
                ExprKind::Tuple(es) => {
                    key.tag(6);
                    key.count(es.len());
                    stack.extend(es.iter().map(|e| Node::Expr(e)));
                }
                ExprKind::List(es) => {
                    key.tag(7);
                    key.count(es.len());
                    stack.extend(es.iter().map(|e| Node::Expr(e)));
                }
                ExprKind::Match(scrut, arms) => {
                    key.tag(8);
                    key.count(arms.len());
                    stack.push(Node::Expr(scrut));
                    stack.extend(arms.iter().map(Node::Arm));
                }
                ExprKind::BinOp(op, a, b) => {
                    key.tag(9);
                    key.tag(*op as u8);
                    stack.extend([Node::Expr(a), Node::Expr(b)]);
                }
                ExprKind::UnOp(op, a) => {
                    key.tag(10);
                    key.tag(*op as u8);
                    stack.push(Node::Expr(a));
                }
                ExprKind::Seq(a, b) => {
                    key.tag(11);
                    stack.extend([Node::Expr(a), Node::Expr(b)]);
                }
                ExprKind::Annot(a, ty) => {
                    key.tag(12);
                    stack.extend([Node::Expr(a), Node::Type(ty)]);
                }
                ExprKind::Construct(name, arg) => {
                    key.tag(13);
                    key.name(name);
                    key.flag(arg.is_some());
                    stack.extend(arg.as_deref().map(Node::Expr));
                }
                ExprKind::Record(fields) => {
                    key.tag(14);
                    key.count(fields.len());
                    for (name, value) in fields {
                        key.name(name);
                        stack.push(Node::Expr(value));
                    }
                }
                ExprKind::Field(a, name) => {
                    key.tag(15);
                    key.name(name);
                    stack.push(Node::Expr(a));
                }
                ExprKind::SetField(a, name, b) => {
                    key.tag(16);
                    key.name(name);
                    stack.extend([Node::Expr(a), Node::Expr(b)]);
                }
                ExprKind::Raise(a) => {
                    key.tag(17);
                    stack.push(Node::Expr(a));
                }
                ExprKind::Try(body, arms) => {
                    key.tag(18);
                    key.count(arms.len());
                    stack.push(Node::Expr(body));
                    stack.extend(arms.iter().map(Node::Arm));
                }
                ExprKind::Hole => key.tag(19),
                ExprKind::Adapt(a) => {
                    key.tag(20);
                    stack.push(Node::Expr(a));
                }
            },
            Node::Pat(p) => match &p.kind {
                PatKind::Wild => key.tag(0),
                PatKind::Var(name) => {
                    key.tag(1);
                    key.name(name);
                }
                PatKind::Lit(lit) => {
                    key.tag(2);
                    key.lit(lit);
                }
                PatKind::Tuple(ps) => {
                    key.tag(3);
                    key.count(ps.len());
                    stack.extend(ps.iter().map(Node::Pat));
                }
                PatKind::List(ps) => {
                    key.tag(4);
                    key.count(ps.len());
                    stack.extend(ps.iter().map(Node::Pat));
                }
                PatKind::Cons(a, b) => {
                    key.tag(5);
                    stack.extend([Node::Pat(a), Node::Pat(b)]);
                }
                PatKind::Construct(name, arg) => {
                    key.tag(6);
                    key.name(name);
                    key.flag(arg.is_some());
                    stack.extend(arg.as_deref().map(Node::Pat));
                }
                PatKind::Annot(a, ty) => {
                    key.tag(7);
                    stack.extend([Node::Pat(a), Node::Type(ty)]);
                }
            },
            Node::Binding(b) => {
                key.count(b.params.len());
                key.flag(b.annot.is_some());
                stack.push(Node::Pat(&b.pat));
                stack.extend(b.params.iter().map(Node::Pat));
                stack.extend(b.annot.iter().map(Node::Type));
                stack.push(Node::Expr(&b.body));
            }
            Node::Arm(arm) => {
                key.flag(arm.guard.is_some());
                stack.push(Node::Pat(&arm.pat));
                stack.extend(arm.guard.as_deref().map(Node::Expr));
                stack.push(Node::Expr(&arm.body));
            }
            Node::Type(ty) => match ty {
                TypeExpr::Var(name) => {
                    key.tag(0);
                    key.name(name);
                }
                TypeExpr::Con(name, args) => {
                    key.tag(1);
                    key.name(name);
                    key.count(args.len());
                    stack.extend(args.iter().map(Node::Type));
                }
                TypeExpr::Arrow(a, b) => {
                    key.tag(2);
                    stack.extend([Node::Type(a), Node::Type(b)]);
                }
                TypeExpr::Tuple(ts) => {
                    key.tag(3);
                    key.count(ts.len());
                    stack.extend(ts.iter().map(Node::Type));
                }
            },
        }
    }
}

/// A running FNV-1a hash ([`seminal_obs::hash`]) over a declaration's
/// walk. Every count and name length goes in, so the byte stream
/// determines the tree.
struct Key(u64);

impl Key {
    fn new() -> Key {
        Key(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    fn tag(&mut self, tag: u8) {
        self.bytes(&[tag]);
    }

    fn flag(&mut self, flag: bool) {
        self.tag(u8::from(flag));
    }

    /// A count or length; counts past `u32::MAX` saturate, which can
    /// only add collisions.
    fn count(&mut self, n: usize) {
        self.bytes(&u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes());
    }

    fn name(&mut self, name: &str) {
        self.count(name.len());
        self.bytes(name.as_bytes());
    }

    fn lit(&mut self, lit: &Lit) {
        match lit {
            Lit::Int(n) => {
                self.tag(0);
                self.bytes(&n.to_le_bytes());
            }
            Lit::Float(x) => {
                self.tag(1);
                self.bytes(&x.to_bits().to_le_bytes());
            }
            Lit::Str(s) => {
                self.tag(2);
                self.name(s);
            }
            Lit::Bool(b) => {
                self.tag(3);
                self.flag(*b);
            }
            Lit::Unit => self.tag(4),
        }
    }

    fn span(&mut self, span: Span) {
        self.bytes(&span.start.to_le_bytes());
        self.bytes(&span.end.to_le_bytes());
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
            ExprKind::App(Arc::new(Expr::var("f", Span::DUMMY)), Arc::new(lit(1))),
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
            ExprKind::App(Arc::new(Expr::var("f", Span::DUMMY)), Arc::new(lit(1))),
            Span::DUMMY,
        );
        assert!(!app.is_syntactic_value());
        let tup =
            Expr::synth(ExprKind::Tuple(vec![Arc::new(lit(1)), Arc::new(lit(2))]), Span::DUMMY);
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
            ExprKind::If(Arc::new(Expr::var("b", Span::DUMMY)), Arc::new(inner), None),
            Span::DUMMY,
        );
        assert!(matches!(e.find(NodeId(42)).unwrap().kind, ExprKind::Lit(Lit::Int(7))));
        assert!(e.find(NodeId(43)).is_none());
    }
}
