//! Structural addresses for AST nodes.
//!
//! Mutations need to locate "the same node" across pretty-print → reparse
//! (which renumbers `NodeId`s). A [`NodePath`] is a print-stable address:
//! declaration index, root index within the declaration (binding number),
//! and the chain of child indexes below that root.

use seminal_ml::ast::{Decl, DeclKind, Expr, NodeId, Program};

/// A structural address of an expression node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodePath {
    /// Index of the containing top-level declaration.
    pub decl: usize,
    /// Which root expression within the declaration: binding index for
    /// `let`, 0 for an expression declaration.
    pub root: usize,
    /// Child indexes (in [`Expr::for_each_child`] order) from the root.
    pub steps: Vec<usize>,
}

impl NodePath {
    /// Whether two paths address overlapping subtrees (one contains the
    /// other, or they are equal). Disjoint faults must not overlap.
    pub fn overlaps(&self, other: &NodePath) -> bool {
        if self.decl != other.decl || self.root != other.root {
            return false;
        }
        let n = self.steps.len().min(other.steps.len());
        self.steps[..n] == other.steps[..n]
    }
}

/// Finds the path of `id` within `prog`.
pub fn path_of_expr(prog: &Program, id: NodeId) -> Option<NodePath> {
    for (di, decl) in prog.decls.iter().enumerate() {
        for (ri, root) in decl_roots(decl).into_iter().enumerate() {
            let mut steps = Vec::new();
            if find_in(root, id, &mut steps) {
                return Some(NodePath { decl: di, root: ri, steps });
            }
        }
    }
    None
}

/// Resolves a path back to a node.
pub fn expr_at_path<'p>(prog: &'p Program, path: &NodePath) -> Option<&'p Expr> {
    let decl = prog.decls.get(path.decl)?;
    let roots = decl_roots(decl);
    let mut cur = *roots.get(path.root)?;
    for &step in &path.steps {
        let mut children = Vec::new();
        cur.for_each_child(&mut |c| children.push(c));
        cur = children.get(step)?;
    }
    Some(cur)
}

/// The root expressions of a declaration, in order.
fn decl_roots(decl: &Decl) -> Vec<&Expr> {
    match decl.kind() {
        DeclKind::Let { bindings, .. } => bindings.iter().map(|b| &*b.body).collect(),
        DeclKind::Expr(e) => vec![e],
        DeclKind::Type(_) | DeclKind::Exception(_, _) => Vec::new(),
    }
}

fn find_in(e: &Expr, id: NodeId, steps: &mut Vec<usize>) -> bool {
    if e.id == id {
        return true;
    }
    let mut children = Vec::new();
    e.for_each_child(&mut |c| children.push(c));
    for (i, c) in children.into_iter().enumerate() {
        steps.push(i);
        if find_in(c, id, steps) {
            return true;
        }
        steps.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_ml::parser::parse_program;
    use seminal_ml::pretty::{expr_to_string, program_to_string};

    #[test]
    fn round_trip_path() {
        let src = "let f x = if x > 0 then x + 1 else x - 1";
        let prog = parse_program(src).unwrap();
        let mut target = None;
        prog.decls[0].for_each_expr(&mut |e| {
            if expr_to_string(e) == "x + 1" {
                target = Some(e.id);
            }
        });
        let path = path_of_expr(&prog, target.unwrap()).unwrap();
        let found = expr_at_path(&prog, &path).unwrap();
        assert_eq!(expr_to_string(found), "x + 1");
    }

    #[test]
    fn path_survives_print_reparse() {
        let src =
            "let rec go n acc = if n = 0 then acc else go (n - 1) (n :: acc)\nlet out = go 3 []";
        let prog = parse_program(src).unwrap();
        let mut target = None;
        prog.decls[0].for_each_expr(&mut |e| {
            if expr_to_string(e) == "n - 1" {
                target = Some(e.id);
            }
        });
        let path = path_of_expr(&prog, target.unwrap()).unwrap();
        let reparsed = parse_program(&program_to_string(&prog)).unwrap();
        let found = expr_at_path(&reparsed, &path).unwrap();
        assert_eq!(expr_to_string(found), "n - 1");
    }

    #[test]
    fn missing_node_gives_none() {
        let prog = parse_program("let x = 1").unwrap();
        assert!(path_of_expr(&prog, NodeId(9_999)).is_none());
    }
}
