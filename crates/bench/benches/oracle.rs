//! Wall-clock bench: raw oracle cost — one full type-check of each
//! corpus template. The paper's efficiency argument (§1, advantage 1)
//! rests on the checker being fast for well-typed code; search cost is
//! roughly `oracle_cost × oracle_calls`, so this is the unit price.
//!
//! The front end every request pays once sits beside it: lexing,
//! parsing and the memo key of a paper-sized file (the paper's files ran
//! 100–200 lines; perfbench's paper-sized ones are about 5.6 KB). So does
//! the price of building each probe variant: `edit` removes, then wraps
//! in `adapt` (the search's adaptation probe), each expression of that
//! file's largest declaration in turn, dropping every variant before the
//! next; divide the mean by the expression count for one edit.

use seminal_bench::timing::Group;
use seminal_corpus::templates::TEMPLATES;
use seminal_ml::ast::{Decl, Expr, ExprKind, Program};
use seminal_ml::edit;
use seminal_ml::lexer::lex;
use seminal_ml::parser::parse_program;
use seminal_ml::span::Span;
use seminal_typeck::{check_program, program_fingerprint};
use std::sync::Arc;

/// Bytes of a paper-sized source file.
const PAPER_BYTES: usize = 5_600;

fn main() {
    let progs: Vec<(&str, Program)> =
        TEMPLATES.iter().map(|t| (t.name, parse_program(t.source).unwrap())).collect();
    let mut group = Group::new("oracle");
    group.bench("check_all_templates", || {
        progs.iter().filter(|(_, p)| check_program(p).is_ok()).count()
    });
    // Parsing cost, for the compiler-pipeline picture.
    group.bench("parse_all_templates", || {
        for t in TEMPLATES {
            parse_program(t.source).unwrap();
        }
    });

    // The templates back to back until the file is paper-sized.
    let mut paper = String::new();
    for t in TEMPLATES.iter().cycle() {
        if paper.len() >= PAPER_BYTES {
            break;
        }
        paper.push_str(t.source);
        paper.push('\n');
    }
    let parsed = parse_program(&paper).unwrap();
    let mut front = Group::new("front_end");
    front.bench("lex_paper_sized", || lex(&paper).unwrap().len());
    front.bench("parse_paper_sized", || parse_program(&paper).unwrap().decls.len());
    front.bench("fingerprint_paper_sized", || program_fingerprint(&parsed));

    let expressions = |d: &Decl| {
        let mut n = 0usize;
        d.for_each_expr(&mut |_| n += 1);
        n
    };
    let largest = parsed.decls.iter().max_by_key(|d| expressions(d)).unwrap();
    let mut adapted = Vec::new();
    largest.for_each_expr(&mut |e| {
        let wrapped = Expr::synth(ExprKind::Adapt(Arc::new(e.clone())), Span::DUMMY);
        adapted.push((e.id, wrapped));
    });
    let mut edits = Group::new(format!("edit ({} expressions)", adapted.len()));
    edits.bench("remove_each_expr_of_largest_decl", || {
        adapted.iter().map(|(id, _)| edit::remove_expr(&parsed, *id).next_id).sum::<u32>()
    });
    edits.bench("adapt_each_expr_of_largest_decl", || {
        adapted.iter().map(|(id, r)| edit::replace_expr(&parsed, *id, r).next_id).sum::<u32>()
    });
}
