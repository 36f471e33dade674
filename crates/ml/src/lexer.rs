//! Hand-written lexer for the Caml subset.
//!
//! Produces a vector of spanned [`Token`]s, its one allocation unless a
//! number has `_` separators: a token is a kind and a span, its text is
//! `&source[span]`. Keywords
//! are matched on the byte slice, numbers are parsed from it (copied
//! only to drop `_` separators), and string literals are validated here
//! and unescaped by `unescape` when the parser builds the literal.
//! Comments `(* ... *)` nest, as in OCaml; the corpus collector of the
//! paper obfuscated comment contents, so nothing downstream ever looks
//! inside them.

use crate::span::Span;
use crate::token::{keyword, Token};
use std::borrow::Cow;
use std::fmt;

/// A token together with the source bytes it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned {
    pub token: Token,
    pub span: Span,
}

/// An error encountered while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `source` in full, in one allocation: every token but the
/// final [`Token::Eof`] covers at least one byte, so the output never
/// outgrows `source.len() + 1` entries.
///
/// # Errors
///
/// Returns the first [`LexError`] (unterminated comment or string, illegal
/// character, malformed number).
pub fn lex(source: &str) -> Result<Vec<Spanned>, LexError> {
    Lexer {
        text: source,
        src: source.as_bytes(),
        pos: 0,
        out: Vec::with_capacity(source.len() + 1),
    }
    .run()
}

/// The value of a string literal's body (the text between its quotes),
/// with its escapes decoded. The lexer has already rejected unknown
/// escapes.
pub(crate) fn unescape(body: &str) -> String {
    let mut value = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            value.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => value.push('\n'),
            Some('t') => value.push('\t'),
            Some('r') => value.push('\r'),
            Some(other) => value.push(other),
            None => {}
        }
    }
    value
}

struct Lexer<'s> {
    text: &'s str,
    src: &'s [u8],
    pos: usize,
    out: Vec<Spanned>,
}

impl Lexer<'_> {
    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    fn peek2(&self) -> u8 {
        self.src.get(self.pos + 1).copied().unwrap_or(0)
    }

    fn peek3(&self) -> u8 {
        self.src.get(self.pos + 2).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    /// The whole character starting at byte `at` (a character
    /// boundary), moving past it.
    fn bump_char(&mut self, at: usize) -> char {
        let c = self.text[at..].chars().next().unwrap_or('\0');
        self.pos = at + c.len_utf8();
        c
    }

    fn error(&self, start: usize, message: impl Into<String>) -> LexError {
        LexError { message: message.into(), span: Span::new(start as u32, self.pos as u32) }
    }

    fn emit(&mut self, start: usize, token: Token) {
        self.out.push(Spanned { token, span: Span::new(start as u32, self.pos as u32) });
    }

    fn ident_tail(&mut self) {
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' || self.peek() == b'\'' {
            self.bump();
        }
    }

    fn run(mut self) -> Result<Vec<Spanned>, LexError> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let b = self.peek();
            if b == 0 && self.pos >= self.src.len() {
                self.emit(start, Token::Eof);
                return Ok(self.out);
            }
            match b {
                b'0'..=b'9' => self.number(start)?,
                b'"' => self.string(start)?,
                b'\'' => self.tyvar(start)?,
                b'a'..=b'z' => self.lower_ident(start),
                b'A'..=b'Z' => self.upper_ident(start),
                b'_' => {
                    self.bump();
                    if self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
                        // `_foo` is an ordinary (ignorable) identifier.
                        self.ident_tail();
                        self.emit(start, Token::Lident);
                    } else {
                        self.emit(start, Token::Underscore);
                    }
                }
                _ => self.symbol(start)?,
            }
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'(' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    let mut depth = 1usize;
                    while depth > 0 {
                        if self.pos >= self.src.len() {
                            return Err(self.error(start, "unterminated comment"));
                        }
                        if self.peek() == b'(' && self.peek2() == b'*' {
                            depth += 1;
                            self.pos += 2;
                        } else if self.peek() == b'*' && self.peek2() == b')' {
                            depth -= 1;
                            self.pos += 2;
                        } else {
                            self.pos += 1;
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self, start: usize) -> Result<(), LexError> {
        while self.peek().is_ascii_digit() || self.peek() == b'_' {
            self.bump();
        }
        let mut is_float = false;
        // A float needs `.` not followed by another `.` (no ranges in this
        // language) and is allowed a fractional part and exponent.
        if self.peek() == b'.' && !self.peek2().is_ascii_punctuation() {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() || self.peek() == b'_' {
                self.bump();
            }
        }
        if matches!(self.peek(), b'e' | b'E')
            && (self.peek2().is_ascii_digit()
                || (matches!(self.peek2(), b'+' | b'-') && self.peek3().is_ascii_digit()))
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), b'+' | b'-') {
                self.bump();
            }
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        let raw = &self.text[start..self.pos];
        let text: Cow<'_, str> =
            if raw.contains('_') { raw.replace('_', "").into() } else { raw.into() };
        let token = if is_float {
            Token::Float(
                text.parse().map_err(|_| self.error(start, format!("bad float `{text}`")))?,
            )
        } else {
            Token::Int(
                text.parse().map_err(|_| self.error(start, format!("bad integer `{text}`")))?,
            )
        };
        self.emit(start, token);
        Ok(())
    }

    fn string(&mut self, start: usize) -> Result<(), LexError> {
        self.bump(); // opening quote
        loop {
            if self.pos >= self.src.len() {
                return Err(self.error(start, "unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => {
                    // A backslash ending the input reads a NUL one past
                    // the end.
                    let esc = if self.pos < self.src.len() {
                        self.bump_char(self.pos)
                    } else {
                        self.pos += 1;
                        '\0'
                    };
                    if !matches!(esc, 'n' | 't' | 'r' | '\\' | '"') {
                        return Err(self.error(start, format!("unknown escape `\\{esc}`")));
                    }
                }
                _ => {}
            }
        }
        self.emit(start, Token::Str);
        Ok(())
    }

    fn tyvar(&mut self, start: usize) -> Result<(), LexError> {
        self.bump(); // the quote
        if !self.peek().is_ascii_lowercase() {
            return Err(self.error(start, "expected type variable after `'`"));
        }
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.bump();
        }
        self.emit(start, Token::TyVar);
        Ok(())
    }

    fn lower_ident(&mut self, start: usize) {
        self.ident_tail();
        let token = keyword(&self.src[start..self.pos]).unwrap_or(Token::Lident);
        self.emit(start, token);
    }

    /// Upper-case identifier; a following `.lident` run folds into a
    /// qualified lower identifier (`List.map`), matching how the parser
    /// wants to see module paths.
    fn upper_ident(&mut self, start: usize) {
        self.ident_tail();
        // Qualified path: `Mod.name` — only when a lowercase ident follows
        // the dot; `Mod.Ctor` keeps constructors unqualified for simplicity.
        if self.peek() == b'.' && self.peek2().is_ascii_lowercase() {
            self.bump(); // dot
            self.ident_tail();
            self.emit(start, Token::Lident);
            return;
        }
        self.emit(start, Token::Uident);
    }

    fn symbol(&mut self, start: usize) -> Result<(), LexError> {
        let b = self.bump();
        let tok = match b {
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b'[' => {
                if self.peek() == b'[' {
                    // `[[...]]` hole literal.
                    let save = self.pos;
                    self.bump();
                    if self.peek() == b'.' && self.peek2() == b'.' && self.peek3() == b'.' {
                        self.pos += 3;
                        if self.peek() == b']' && self.peek2() == b']' {
                            self.pos += 2;
                            Token::Hole
                        } else {
                            return Err(self.error(start, "malformed hole, expected `[[...]]`"));
                        }
                    } else {
                        self.pos = save;
                        Token::LBracket
                    }
                } else {
                    Token::LBracket
                }
            }
            b']' => Token::RBracket,
            b'{' => Token::LBrace,
            b'}' => Token::RBrace,
            b';' => {
                if self.peek() == b';' {
                    self.bump();
                    Token::SemiSemi
                } else {
                    Token::Semi
                }
            }
            b':' => match self.peek() {
                b':' => {
                    self.bump();
                    Token::ColonColon
                }
                b'=' => {
                    self.bump();
                    Token::ColonEq
                }
                _ => Token::Colon,
            },
            b',' => Token::Comma,
            b'-' => match self.peek() {
                b'>' => {
                    self.bump();
                    Token::Arrow
                }
                b'.' => {
                    self.bump();
                    Token::MinusDot
                }
                _ => Token::Minus,
            },
            b'<' => match self.peek() {
                b'-' => {
                    self.bump();
                    Token::LeftArrow
                }
                b'=' => {
                    self.bump();
                    Token::Le
                }
                b'>' => {
                    self.bump();
                    Token::LtGt
                }
                _ => Token::Lt,
            },
            b'>' => {
                if self.peek() == b'=' {
                    self.bump();
                    Token::Ge
                } else {
                    Token::Gt
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    Token::BarBar
                } else {
                    Token::Bar
                }
            }
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    Token::EqEq
                } else {
                    Token::Eq
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.bump();
                    Token::BangEq
                } else {
                    Token::Bang
                }
            }
            b'+' => {
                if self.peek() == b'.' {
                    self.bump();
                    Token::PlusDot
                } else {
                    Token::Plus
                }
            }
            b'*' => {
                if self.peek() == b'.' {
                    self.bump();
                    Token::StarDot
                } else {
                    Token::Star
                }
            }
            b'/' => {
                if self.peek() == b'.' {
                    self.bump();
                    Token::SlashDot
                } else {
                    Token::Slash
                }
            }
            b'^' => Token::Caret,
            b'@' => Token::At,
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    Token::AmpAmp
                } else {
                    return Err(self.error(start, "single `&` is not an operator here"));
                }
            }
            b'.' => Token::Dot,
            other => {
                let c = if other.is_ascii() { char::from(other) } else { self.bump_char(start) };
                return Err(self.error(start, format!("unexpected character `{c}`")));
            }
        };
        self.emit(start, tok);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token with its source text.
    fn toks(src: &str) -> Vec<(Token, &str)> {
        lex(src).unwrap().into_iter().map(|s| (s.token, s.span.text(src))).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("let rec foo = fun x -> x"),
            vec![
                (Token::Let, "let"),
                (Token::Rec, "rec"),
                (Token::Lident, "foo"),
                (Token::Eq, "="),
                (Token::Fun, "fun"),
                (Token::Lident, "x"),
                (Token::Arrow, "->"),
                (Token::Lident, "x"),
                (Token::Eof, "")
            ]
        );
    }

    #[test]
    fn qualified_names_fold() {
        assert_eq!(
            toks("List.map f xs"),
            vec![
                (Token::Lident, "List.map"),
                (Token::Lident, "f"),
                (Token::Lident, "xs"),
                (Token::Eof, "")
            ]
        );
    }

    #[test]
    fn constructor_stays_upper() {
        assert_eq!(toks("For"), vec![(Token::Uident, "For"), (Token::Eof, "")]);
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 2.75 1e3 1_000"),
            vec![
                (Token::Int(42), "42"),
                (Token::Float(2.75), "2.75"),
                (Token::Float(1000.0), "1e3"),
                (Token::Int(1000), "1_000"),
                (Token::Eof, "")
            ]
        );
    }

    #[test]
    fn float_then_int_ops() {
        assert_eq!(
            toks("1 +. 2.0"),
            vec![
                (Token::Int(1), "1"),
                (Token::PlusDot, "+."),
                (Token::Float(2.0), "2.0"),
                (Token::Eof, "")
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let src = r#""hi\n\"there\"""#;
        assert_eq!(toks(src), vec![(Token::Str, src), (Token::Eof, "")]);
        assert_eq!(unescape(&src[1..src.len() - 1]), "hi\n\"there\"");
    }

    #[test]
    fn strings_are_utf8() {
        let src = "\"h\u{e9}llo\\t\"";
        assert_eq!(toks(src), vec![(Token::Str, src), (Token::Eof, "")]);
        assert_eq!(unescape(&src[1..src.len() - 1]), "h\u{e9}llo\t");
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn nested_comments() {
        assert_eq!(
            toks("1 (* a (* b *) c *) 2"),
            vec![(Token::Int(1), "1"), (Token::Int(2), "2"), (Token::Eof, "")]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            toks(":= :: <- -> <> == != <= >= && || ;;"),
            vec![
                (Token::ColonEq, ":="),
                (Token::ColonColon, "::"),
                (Token::LeftArrow, "<-"),
                (Token::Arrow, "->"),
                (Token::LtGt, "<>"),
                (Token::EqEq, "=="),
                (Token::BangEq, "!="),
                (Token::Le, "<="),
                (Token::Ge, ">="),
                (Token::AmpAmp, "&&"),
                (Token::BarBar, "||"),
                (Token::SemiSemi, ";;"),
                (Token::Eof, "")
            ]
        );
    }

    #[test]
    fn hole_literal() {
        assert_eq!(toks("[[...]]"), vec![(Token::Hole, "[[...]]"), (Token::Eof, "")]);
        // `[[` not followed by dots is two list brackets.
        assert_eq!(
            toks("[[1]]"),
            vec![
                (Token::LBracket, "["),
                (Token::LBracket, "["),
                (Token::Int(1), "1"),
                (Token::RBracket, "]"),
                (Token::RBracket, "]"),
                (Token::Eof, "")
            ]
        );
    }

    #[test]
    fn tyvars() {
        assert_eq!(toks("'a"), vec![(Token::TyVar, "'a"), (Token::Eof, "")]);
    }

    #[test]
    fn spans_are_tight() {
        let ts = lex("let x").unwrap();
        assert_eq!(ts[0].span, Span::new(0, 3));
        assert_eq!(ts[1].span, Span::new(4, 5));
    }

    #[test]
    fn prime_in_identifier() {
        assert_eq!(
            toks("x' e1"),
            vec![(Token::Lident, "x'"), (Token::Lident, "e1"), (Token::Eof, "")]
        );
    }

    #[test]
    fn an_unexpected_character_is_reported_whole() {
        let err = lex("let x = \u{e9}").unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.span),
            ("unexpected character `\u{e9}`", Span::new(8, 10))
        );
    }
}
