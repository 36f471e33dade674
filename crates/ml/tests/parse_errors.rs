//! Parse errors are user-visible: `seminal check` prints the message and
//! the span. This table pins both, byte for byte, for a malformed input
//! of every kind the front end reports: a `found …` for every token
//! class, each lexical error, `<-` without a field, and nesting one
//! level past the parser's depth guard (with the level below it still
//! accepted).

use seminal_ml::parser::parse_program;

/// `(source, message, span start, span end)`.
const CASES: &[(&str, &str, u32, u32)] = &[
    // `found …` for every token class.
    ("exception foo", "expected exception name, found identifier `foo`", 10, 13),
    ("exception List.map", "expected exception name, found identifier `List.map`", 10, 18),
    ("type Foo = int", "expected identifier, found identifier `Foo`", 5, 8),
    ("let 'a = 1", "expected pattern, found type variable `'a`", 4, 6),
    ("exception 42", "expected exception name, found integer `42`", 10, 12),
    ("exception 1_000", "expected exception name, found integer `1000`", 10, 15),
    ("exception 2.50", "expected exception name, found float `2.5`", 10, 14),
    ("exception 1e3", "expected exception name, found float `1000`", 10, 13),
    (r#"exception "a\n\"b\t\\""#, r#"expected exception name, found string "a\n\"b\t\\""#, 10, 22),
    ("let in = 1", "expected pattern, found `in`", 4, 6),
    ("let x = * 2", "expected expression, found `*`", 8, 9),
    ("let f = fun -> 1", "expected pattern, found `->`", 12, 14),
    ("let x = 1 ;; )", "expected expression, found `)`", 13, 14),
    ("let x = f (+", "expected expression, found `+`", 11, 12),
    ("let x = 1.2.3", "expected expression, found `.`", 11, 12),
    ("let x = y.Foo", "expected expression, found `.`", 9, 10),
    ("type ('a, b) t = int", "expected type variable, found identifier `b`", 10, 11),
    ("let (x : ) = 1", "expected type, found `)`", 9, 10),
    ("let x =", "expected expression, found end of input", 7, 7),
    ("let x = -", "expected expression, found end of input", 9, 9),
    ("let x = 1 +", "expected expression, found end of input", 11, 11),
    ("let x = if a then", "expected expression, found end of input", 17, 17),
    ("let x = match y with", "expected pattern, found end of input", 20, 20),
    ("type t = A of", "expected type, found end of input", 13, 13),
    ("exception Foo of", "expected type, found end of input", 16, 16),
    ("let x = (1, 2", "expected `)`, found end of input", 13, 13),
    ("let x = [1; 2", "expected `]`, found end of input", 13, 13),
    ("let x = { a = 1", "expected `}`, found end of input", 15, 15),
    ("type t = { x : int", "expected `}`, found end of input", 18, 18),
    ("let x = begin 1", "expected `end`, found end of input", 15, 15),
    ("let x = let y = 1", "expected `in`, found end of input", 17, 17),
    ("let x = try 1", "expected `with`, found end of input", 13, 13),
    // Lexical errors.
    ("let x = 1 (* oops", "unterminated comment", 10, 17),
    ("let x = 1 (* a (* b *)", "unterminated comment", 10, 22),
    ("let s = \"abc", "unterminated string literal", 8, 12),
    (r#"let s = "a\q""#, "unknown escape `\\q`", 8, 12),
    // A backslash ending the input: the escape reads as NUL, one past
    // the end.
    ("let s = \"a\\", "unknown escape `\\\0`", 8, 12),
    ("let b = true & false", "single `&` is not an operator here", 13, 14),
    ("let h = [[...]", "malformed hole, expected `[[...]]`", 8, 13),
    ("let h = [[..]]", "expected expression, found `.`", 10, 11),
    ("let x = 'A", "expected type variable after `'`", 8, 9),
    ("let x = 99999999999999999999", "bad integer `99999999999999999999`", 8, 28),
    ("let x = \0", "unexpected character `\0`", 8, 9),
    ("let x = `a", "unexpected character ```", 8, 9),
    ("let x = ~", "unexpected character `~`", 8, 9),
    // `<-` without a field on its left.
    ("let r = x <- 1", "`<-` requires a field access on its left", 10, 12),
    ("let r = f x <- 1", "`<-` requires a field access on its left", 12, 14),
];

#[test]
fn malformed_inputs_keep_their_message_and_span() {
    for &(src, message, start, end) in CASES {
        let err = parse_program(src).expect_err(src);
        assert_eq!(
            (err.message.as_str(), err.span.start, err.span.end),
            (message, start, end),
            "{src:?}"
        );
    }
}

/// One nesting family: the source at `k` levels, the first `k` the
/// depth guard rejects, and the span it reports there.
struct Nesting {
    name: &'static str,
    source: fn(usize) -> String,
    first_rejected: usize,
    span: (u32, u32),
}

const NESTING: &[Nesting] = &[
    Nesting {
        name: "parentheses",
        source: |k| format!("let x = {}1{}", "(".repeat(k), ")".repeat(k)),
        first_rejected: 32,
        span: (40, 41),
    },
    Nesting {
        name: "negation",
        source: |k| format!("let x = {}1", "- ".repeat(k)),
        first_rejected: 63,
        span: (134, 135),
    },
    Nesting {
        name: "pattern parentheses",
        source: |k| format!("let {}x{} = 1", "(".repeat(k), ")".repeat(k)),
        first_rejected: 65,
        span: (69, 70),
    },
    Nesting {
        name: "type parentheses",
        source: |k| format!("let (x : {}int{}) = 1", "(".repeat(k), ")".repeat(k)),
        first_rejected: 64,
        span: (73, 76),
    },
    Nesting {
        name: "if",
        source: |k| format!("let x = {}1", "if a then ".repeat(k)),
        first_rejected: 63,
        span: (631, 632),
    },
    Nesting {
        name: "lists",
        source: |k| format!("let x = {}1{}", "[".repeat(k), "]".repeat(k)),
        first_rejected: 32,
        span: (40, 41),
    },
    Nesting {
        name: "fun",
        source: |k| format!("let x = {}1", "fun y -> ".repeat(k)),
        first_rejected: 63,
        span: (575, 576),
    },
    Nesting {
        name: "operands in parentheses",
        source: |k| format!("let x = {}1{}", "2 * (".repeat(k), ")".repeat(k)),
        first_rejected: 32,
        span: (168, 169),
    },
    Nesting {
        name: "constructor arguments",
        source: |k| format!("let x = {}1{}", "A (".repeat(k), ")".repeat(k)),
        first_rejected: 21,
        span: (71, 72),
    },
    Nesting {
        name: "raise",
        source: |k| format!("let x = {}e", "raise ".repeat(k)),
        first_rejected: 63,
        span: (386, 387),
    },
    Nesting {
        name: "dereference",
        source: |k| format!("let x = {}r", "!".repeat(k)),
        first_rejected: 63,
        span: (71, 72),
    },
    Nesting {
        name: "list patterns",
        source: |k| format!("let f {}x{} = 1", "[".repeat(k), "]".repeat(k)),
        first_rejected: 65,
        span: (71, 72),
    },
    Nesting {
        name: "cons patterns",
        source: |k| format!("let f l = match l with {}[] -> 1 | _ -> 2", "x :: ".repeat(k)),
        first_rejected: 62,
        span: (334, 335),
    },
];

#[test]
fn nesting_one_level_past_the_guard_is_rejected_where_it_was() {
    for n in NESTING {
        let below = (n.source)(n.first_rejected - 1);
        assert!(parse_program(&below).is_ok(), "{}: one level less must parse", n.name);
        let err = parse_program(&(n.source)(n.first_rejected)).expect_err(n.name);
        assert_eq!(
            (err.message.as_str(), err.span.start, err.span.end),
            ("nesting exceeds the supported depth (64)", n.span.0, n.span.1),
            "{}",
            n.name
        );
    }
}
