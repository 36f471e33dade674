//! `edit::apply` allocates along the path from a declaration's root to
//! the node it replaces, not for the whole declaration: every subtree
//! off that path is shared with the base program.
//!
//! The binary installs a global allocator that counts the allocations
//! each thread makes, so the count is not disturbed by tests running
//! alongside on other threads.

#![allow(unsafe_code)]

use seminal_ml::ast::{ExprKind, Lit, NodeId, Program};
use seminal_ml::edit::{self, validate};
use seminal_ml::parser::parse_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Past thread-local teardown the count is simply not kept.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to the system allocator
// unchanged, so it upholds `GlobalAlloc`'s contract exactly as `System`
// does; the counter is a const-initialized thread-local that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` hold unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` hold unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Terms in the chain below: the declaration holds `2 * TERMS - 1`
/// expressions, and its leftmost leaf lies `TERMS` nodes deep.
const TERMS: usize = 200;

/// Allocations an edit may make beyond one per node on the path: the
/// program's declaration list, the rebuilt declaration and binding
/// list, and the walk `Decl::new` keys the declaration with.
const SLACK: u64 = 16;

/// `let x = 1 + 1 + … + 1`: a left-leaning spine of `TERMS - 1`
/// additions, each with a leaf on its right.
fn chain() -> Program {
    let source = format!("let x = {}", vec!["1"; TERMS].join(" + "));
    parse_program(&source).unwrap()
}

/// The ids of the chain's leaves, deepest first.
fn leaves(prog: &Program) -> Vec<NodeId> {
    let mut out = Vec::new();
    prog.decls[0].for_each_expr(&mut |e| {
        if matches!(e.kind, ExprKind::Lit(Lit::Int(1))) {
            out.push(e.id);
        }
    });
    out
}

#[test]
fn removing_a_leaf_allocates_along_its_path_only() {
    let prog = chain();
    let leaves = leaves(&prog);
    assert_eq!(leaves.len(), TERMS);
    // The deepest leaf sits under every addition; the last one under
    // the root alone.
    for (leaf, path) in [(leaves[0], TERMS as u64), (leaves[TERMS - 1], 2)] {
        let (variant, made) = allocations(|| edit::remove_expr(&prog, leaf));
        validate(&variant).unwrap();
        assert!(variant.find_expr(leaf).is_none());
        assert!(
            made <= path + SLACK,
            "removing a leaf on a path of {path} nodes in a declaration of {} \
             expressions made {made} allocations",
            prog.size()
        );
    }
}
