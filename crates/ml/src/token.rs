//! Tokens produced by the [`lexer`](crate::lexer).
//!
//! A token is a kind; its text is the source slice under its span. The
//! parser copies a name out of the source once, when it builds the AST
//! node that holds it.

use crate::lexer::unescape;

/// A lexical token of the Caml subset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token {
    /// Lower-case identifier or qualified path such as `List.map`.
    Lident,
    /// Upper-case identifier (constructor or module prefix without a path).
    Uident,
    /// Type variable such as `'a`; its text includes the quote.
    TyVar,
    /// Integer literal.
    Int(i64),
    /// Floating-point literal (must contain `.` in source).
    Float(f64),
    /// String literal; its text is the quoted source, escapes and all.
    Str,

    // Keywords.
    Let,
    Rec,
    And,
    In,
    Fun,
    Function,
    If,
    Then,
    Else,
    Match,
    With,
    Type,
    Of,
    Exception,
    Raise,
    Try,
    Begin,
    End,
    True,
    False,
    Mutable,
    Mod,
    When,

    // Punctuation and operators.
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    /// `[[...]]` — the printed form of the wildcard hole, accepted on input
    /// so pretty-printed suggestions re-parse.
    Hole,
    Semi,
    SemiSemi,
    Colon,
    Comma,
    Arrow,
    LeftArrow,
    Bar,
    ColonColon,
    Eq,
    EqEq,
    BangEq,
    LtGt,
    Lt,
    Gt,
    Le,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    PlusDot,
    MinusDot,
    StarDot,
    SlashDot,
    Caret,
    At,
    ColonEq,
    Bang,
    AmpAmp,
    BarBar,
    Underscore,
    Dot,

    /// End of input.
    Eof,
}

impl Token {
    /// Human-readable name used in parse-error messages; `text` is the
    /// token's source text.
    pub fn describe(&self, text: &str) -> String {
        match self {
            Token::Lident | Token::Uident => format!("identifier `{text}`"),
            Token::TyVar => format!("type variable `{text}`"),
            Token::Int(n) => format!("integer `{n}`"),
            Token::Float(x) => format!("float `{x}`"),
            Token::Str => format!("string {:?}", unescape(&text[1..text.len() - 1])),
            Token::Eof => "end of input".to_owned(),
            other => format!("`{}`", other.lexeme()),
        }
    }

    /// The concrete spelling of a fixed token (empty for variable tokens).
    pub fn lexeme(&self) -> &'static str {
        match self {
            Token::Let => "let",
            Token::Rec => "rec",
            Token::And => "and",
            Token::In => "in",
            Token::Fun => "fun",
            Token::Function => "function",
            Token::If => "if",
            Token::Then => "then",
            Token::Else => "else",
            Token::Match => "match",
            Token::With => "with",
            Token::Type => "type",
            Token::Of => "of",
            Token::Exception => "exception",
            Token::Raise => "raise",
            Token::Try => "try",
            Token::Begin => "begin",
            Token::End => "end",
            Token::True => "true",
            Token::False => "false",
            Token::Mutable => "mutable",
            Token::Mod => "mod",
            Token::When => "when",
            Token::LParen => "(",
            Token::RParen => ")",
            Token::LBracket => "[",
            Token::RBracket => "]",
            Token::LBrace => "{",
            Token::RBrace => "}",
            Token::Hole => "[[...]]",
            Token::Semi => ";",
            Token::SemiSemi => ";;",
            Token::Colon => ":",
            Token::Comma => ",",
            Token::Arrow => "->",
            Token::LeftArrow => "<-",
            Token::Bar => "|",
            Token::ColonColon => "::",
            Token::Eq => "=",
            Token::EqEq => "==",
            Token::BangEq => "!=",
            Token::LtGt => "<>",
            Token::Lt => "<",
            Token::Gt => ">",
            Token::Le => "<=",
            Token::Ge => ">=",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Star => "*",
            Token::Slash => "/",
            Token::PlusDot => "+.",
            Token::MinusDot => "-.",
            Token::StarDot => "*.",
            Token::SlashDot => "/.",
            Token::Caret => "^",
            Token::At => "@",
            Token::ColonEq => ":=",
            Token::Bang => "!",
            Token::AmpAmp => "&&",
            Token::BarBar => "||",
            Token::Underscore => "_",
            Token::Dot => ".",
            _ => "",
        }
    }
}

/// Looks up the keyword for an identifier spelling, if any.
pub fn keyword(ident: &[u8]) -> Option<Token> {
    Some(match ident {
        b"let" => Token::Let,
        b"rec" => Token::Rec,
        b"and" => Token::And,
        b"in" => Token::In,
        b"fun" => Token::Fun,
        b"function" => Token::Function,
        b"if" => Token::If,
        b"then" => Token::Then,
        b"else" => Token::Else,
        b"match" => Token::Match,
        b"with" => Token::With,
        b"type" => Token::Type,
        b"of" => Token::Of,
        b"exception" => Token::Exception,
        b"raise" => Token::Raise,
        b"try" => Token::Try,
        b"begin" => Token::Begin,
        b"end" => Token::End,
        b"true" => Token::True,
        b"false" => Token::False,
        b"mutable" => Token::Mutable,
        b"mod" => Token::Mod,
        b"when" => Token::When,
        _ => return None,
    })
}
