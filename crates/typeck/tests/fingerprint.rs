//! What a memo key means: [`program_fingerprint`] is equal for layout
//! twins and different for any change to the tree, and a declaration's
//! span key follows every node's span, patterns included.

use seminal_corpus::templates::TEMPLATES;
use seminal_ml::ast::{DeclKind, Expr, ExprKind, Lit, PatKind, Program};
use seminal_ml::edit::replace_expr;
use seminal_ml::lexer::lex;
use seminal_ml::parser::parse_program;
use seminal_ml::pretty::program_to_string;
use seminal_ml::span::Span;
use seminal_ml::token::Token;
use seminal_typeck::{check_program, program_fingerprint};
use std::sync::Arc;

fn fingerprint(src: &str) -> u64 {
    program_fingerprint(&parse_program(src).unwrap_or_else(|e| panic!("{src:?}: {e}")))
}

#[test]
fn layout_twins_share_a_fingerprint() {
    let base = "let f x = x + 1 * 2\nlet g = f 3\n";
    for twin in [
        "(* a comment *)\nlet f x = x + 1 * 2\nlet g = f 3\n",
        "let f x = x + (* inline *) 1 * 2\nlet g = f 3 (* trailing *)\n",
        "let  f  x  =\n    x + 1 * 2\n\n\nlet g =\tf 3",
        "let f x = (x + (1 * 2))\nlet g = ((f) (3))\n",
        "let f x = begin x + 1 * 2 end\nlet g = begin f (3) end\n",
    ] {
        assert_eq!(fingerprint(twin), fingerprint(base), "{twin:?}");
    }
}

/// Another spelling of `token` (whose source text is `text`) that
/// changes what the program says, if the token has one.
fn respelled(token: Token, text: &str) -> Option<String> {
    Some(match token {
        Token::Lident | Token::Uident | Token::TyVar => format!("{text}z"),
        Token::Int(n) => (n + 1).to_string(),
        Token::Float(x) => format!("{:?}", x + 1.0),
        Token::Str => format!("\"z{}", &text[1..]),
        Token::Rec => " ".repeat(text.len()),
        other => {
            let swapped = [
                (Token::True, Token::False),
                (Token::Plus, Token::Minus),
                (Token::Star, Token::Slash),
                (Token::Mod, Token::Star),
                (Token::PlusDot, Token::MinusDot),
                (Token::StarDot, Token::SlashDot),
                (Token::Caret, Token::At),
                (Token::ColonColon, Token::At),
                (Token::Lt, Token::Gt),
                (Token::Le, Token::Ge),
                (Token::EqEq, Token::BangEq),
                (Token::LtGt, Token::Eq),
                (Token::AmpAmp, Token::BarBar),
            ];
            let partner = swapped.iter().find_map(|&(a, b)| {
                if other == a {
                    Some(b)
                } else if other == b {
                    Some(a)
                } else {
                    None
                }
            })?;
            partner.lexeme().to_owned()
        }
    })
}

#[test]
fn changing_any_one_token_of_a_template_changes_the_fingerprint() {
    let mut changed = 0;
    for t in TEMPLATES {
        let base = fingerprint(t.source);
        let mut per_template = 0;
        for tok in lex(t.source).unwrap() {
            let text = tok.span.text(t.source);
            let Some(spelling) = respelled(tok.token, text) else { continue };
            let (start, end) = (tok.span.start as usize, tok.span.end as usize);
            let variant = format!("{}{spelling}{}", &t.source[..start], &t.source[end..]);
            // A spelling that breaks the grammar here is no program.
            let Ok(prog) = parse_program(&variant) else { continue };
            assert_ne!(
                program_fingerprint(&prog),
                base,
                "template {}: `{text}` -> `{spelling}` at {}",
                t.name,
                tok.span
            );
            per_template += 1;
        }
        assert!(per_template > 0, "template {} changed no token", t.name);
        changed += per_template;
    }
    assert!(changed >= 10 * TEMPLATES.len(), "only {changed} variants checked");
}

#[test]
fn an_adaptation_probe_and_a_user_call_of_adapt_differ() {
    // Both print as `adapt 1 ^ "a"`; only the user's call is ill-typed.
    let user = parse_program("let adapt x = x\nlet z = adapt 1 ^ \"a\"").unwrap();
    let base = parse_program("let adapt x = x\nlet z = 1 ^ \"a\"").unwrap();
    let mut one = None;
    base.decls[1].for_each_expr(&mut |e| {
        if matches!(e.kind, ExprKind::Lit(Lit::Int(1))) {
            one = Some(e.clone());
        }
    });
    let one = one.unwrap();
    let probe =
        replace_expr(&base, one.id, &Expr::synth(ExprKind::Adapt(Arc::new(one)), Span::DUMMY));
    assert_eq!(program_to_string(&probe), program_to_string(&user));
    assert!(check_program(&user).is_err());
    assert!(check_program(&probe).is_ok());
    assert_ne!(program_fingerprint(&probe), program_fingerprint(&user));
}

/// The content and span keys of `src`'s first declaration, before and
/// after `f` changes it in place.
fn moved(src: &str, f: impl FnOnce(&mut DeclKind)) -> (u64, u64, u64, u64) {
    let prog: Program = parse_program(src).unwrap();
    let mut decl = (*prog.decls[0]).clone();
    decl.update_kind(f);
    let d = &prog.decls[0];
    (d.content_key(), decl.content_key(), d.span_key(), decl.span_key())
}

#[test]
fn moving_only_a_pattern_span_changes_the_span_key() {
    let shift = |span: &mut Span| *span = Span::new(span.start + 100, span.end + 100);
    // A `fun` parameter ...
    let (content, moved_content, spans, moved_spans) =
        moved("let f = fun x -> x", |kind| match kind {
            DeclKind::Let { bindings, .. } => {
                match &mut Arc::make_mut(&mut bindings[0].body).kind {
                    ExprKind::Fun(params, _) => shift(&mut params[0].span),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        });
    assert_eq!(content, moved_content);
    assert_ne!(spans, moved_spans);

    // ... and a `match` arm's nested pattern.
    let (content, moved_content, spans, moved_spans) =
        moved("let g y = match y with Some z -> z | None -> 0", |kind| match kind {
            DeclKind::Let { bindings, .. } => {
                match &mut Arc::make_mut(&mut bindings[0].body).kind {
                    ExprKind::Match(_, arms) => match &mut arms[0].pat.kind {
                        PatKind::Construct(_, Some(arg)) => shift(&mut arg.span),
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        });
    assert_eq!(content, moved_content);
    assert_ne!(spans, moved_spans);
}

#[test]
fn flipping_rec_in_place_keys_like_parsing_let_rec() {
    // Four spaces stand where `rec ` will be, so every span matches.
    let plain = parse_program("let     f x = f x").unwrap();
    let parsed = parse_program("let rec f x = f x").unwrap();
    let mut flipped = (*plain.decls[0]).clone();
    flipped.update_kind(|kind| {
        if let DeclKind::Let { rec, .. } = kind {
            *rec = true;
        }
    });
    assert_ne!(plain.decls[0].content_key(), flipped.content_key());
    assert_eq!(flipped.content_key(), parsed.decls[0].content_key());
    assert_eq!(flipped.span_key(), parsed.decls[0].span_key());
    assert_eq!(flipped, *parsed.decls[0]);
}
