//! End-to-end inference tests, including reproductions of the baseline
//! (ocamlc-style) behaviour on the paper's examples.

use seminal_ml::ast::{DeclKind, ExprKind, Lit};
use seminal_ml::parser::parse_program;
use seminal_typeck::{check_program, check_program_types, TypeErrorKind};

fn ok(src: &str) {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse `{src}`: {e}"));
    if let Err(err) = check_program(&prog) {
        panic!("expected `{src}` to type-check, got: {}", err.render(src));
    }
}

fn bad(src: &str) -> seminal_typeck::TypeError {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse `{src}`: {e}"));
    match check_program(&prog) {
        Ok(()) => panic!("expected `{src}` to fail type-checking"),
        Err(err) => err,
    }
}

// ---------------------------------------------------------------------
// Well-typed programs
// ---------------------------------------------------------------------

#[test]
fn literals_and_arith() {
    ok("let x = 1 + 2 * 3");
    ok("let y = 1.5 +. 2.0");
    ok("let s = \"a\" ^ \"b\"");
    ok("let b = 1 < 2 && true");
}

#[test]
fn map_filter_combine() {
    ok("let xs = List.map (fun x -> x + 1) [1; 2; 3]");
    ok("let xs = List.filter (fun x -> x > 0) [1; 2]");
    ok("let ps = List.combine [1; 2] [\"a\"; \"b\"]");
}

#[test]
fn figure2_map2_correct_version() {
    // The fixed version of the paper's Figure 2 program.
    ok("let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
        let lst = map2 (fun x y -> x + y) [1;2;3] [4;5;6]\n\
        let ans = List.filter (fun x -> x == 0) lst");
}

#[test]
fn let_polymorphism() {
    ok("let id = fun x -> x\nlet a = id 1\nlet b = id \"s\"");
    ok("let pair x = (x, x)\nlet a = pair 1\nlet b = pair true");
}

#[test]
fn value_restriction_blocks_generalization() {
    // `ref []` must not be polymorphic.
    bad("let r = ref []\nlet _ = r := [1]\nlet _ = r := [true]");
    // But using it at one type is fine.
    ok("let r = ref []\nlet _ = r := [1]\nlet _ = r := [2]");
    // A function generalized after a monomorphic binding keeps the
    // variables that binding makes free: `push` is not polymorphic.
    bad("let r = ref []\nlet push x = r := [x]; x\nlet a = push 1\nlet b = push true");
    ok("let r = ref []\nlet push x = r := [x]; x\nlet a = push 1\nlet b = push 2");
}

#[test]
fn recursion_and_let_rec() {
    ok("let rec fact n = if n = 0 then 1 else n * fact (n - 1)");
    ok("let rec even n = if n = 0 then true else odd (n - 1) and odd n = if n = 0 then false else even (n - 1)");
}

#[test]
fn recursion_requires_rec() {
    let err = bad("let fact n = if n = 0 then 1 else n * fact (n - 1)");
    assert!(matches!(err.kind, TypeErrorKind::UnboundVar(ref n) if n == "fact"));
}

#[test]
fn match_on_lists() {
    ok("let rec len xs = match xs with [] -> 0 | _ :: t -> 1 + len t");
    ok("let head_or xs d = match xs with [] -> d | x :: _ -> x");
}

#[test]
fn user_variants() {
    ok("type move = For of int * move list | Rot of int | Stop\n\
        let rec count m = match m with For (n, ms) -> n + List.fold_left (fun a m2 -> a + count m2) 0 ms | Rot _ -> 1 | Stop -> 0");
}

#[test]
fn user_records() {
    ok("type point = { x : int; mutable y : int }\n\
        let p = { x = 1; y = 2 }\n\
        let _ = p.y <- p.x + 3\n\
        let d = p.x + p.y");
}

#[test]
fn record_not_mutable() {
    let err = bad(
        "type point = { x : int; mutable y : int }\nlet p = { x = 1; y = 2 }\nlet _ = p.x <- 3",
    );
    assert!(matches!(err.kind, TypeErrorKind::NotMutable(_)));
}

#[test]
fn record_missing_field() {
    let err = bad("type point = { x : int; y : int }\nlet p = { x = 1 }");
    assert!(matches!(err.kind, TypeErrorKind::MissingField { .. }));
}

#[test]
fn polymorphic_variants_generalize() {
    ok("type 'a tree = Leaf | Node of 'a tree * 'a * 'a tree\n\
        let rec size t = match t with Leaf -> 0 | Node (l, _, r) -> 1 + size l + size r\n\
        let a = size (Node (Leaf, 1, Leaf))\n\
        let b = size (Node (Leaf, \"s\", Leaf))");
}

#[test]
fn aliases_expand() {
    ok("type point = int * int\nlet dist (p : point) = fst p + snd p");
}

#[test]
fn exceptions_and_raise() {
    ok("exception Bad of string\nlet f x = if x < 0 then raise (Bad \"neg\") else x");
    ok("let f x = if x < 0 then raise Not_found else x");
}

#[test]
fn raise_has_any_type() {
    // `raise Foo` in any context, per the paper's wildcard trick.
    ok("let x = 1 + raise Foo");
    ok("let f = List.map (raise Foo) (raise Foo)");
    ok("let g b = if b then raise Foo else \"s\"");
}

#[test]
fn hole_types_like_raise_foo() {
    ok("let x = 1 + [[...]]");
    ok("let f = List.map [[...]] [[...]]");
    ok("let g = [[...]] [[...]] [[...]]");
}

#[test]
fn adapt_discards_result_type() {
    ok("let f g x = if adapt (g x) then 1 else 2");
    ok("let x = (adapt 3) ^ \"s\"");
}

#[test]
fn sequences_do_not_constrain_lhs() {
    ok("let f x = print_int x; x + 1");
    ok("let g x = x; ()");
}

#[test]
fn annotations_check() {
    ok("let f (x : int) : int = x + 1");
    ok("let g : int -> int = fun x -> x");
    bad("let f (x : int) = x ^ \"s\"");
}

#[test]
fn option_type() {
    ok("let f x = match x with Some n -> n + 1 | None -> 0");
}

#[test]
fn refs_work() {
    ok("let counter = ref 0\nlet bump () = counter := !counter + 1; !counter");
}

#[test]
fn shadowing() {
    ok("let x = 1\nlet x = \"now a string\"\nlet y = x ^ \"!\"");
}

// ---------------------------------------------------------------------
// Ill-typed programs: baseline blame behaviour (the paper's §1-2 setup)
// ---------------------------------------------------------------------

#[test]
fn figure2_baseline_blames_x_plus_y() {
    // The key example: the checker must blame `x + y` with
    // "has type int but is here used with type 'a -> 'b".
    let src =
        "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
               let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
               let ans = List.filter (fun x -> x == 0) lst";
    let err = bad(src);
    let blamed = err.span.text(src);
    assert_eq!(blamed, "x + y", "baseline should blame the addition, got `{blamed}`");
    match &err.kind {
        TypeErrorKind::Mismatch { found, expected } => {
            assert_eq!(found, "int");
            assert_eq!(expected, "'a -> 'b");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn figure8_baseline_blames_swapped_arg() {
    // add : 'a -> 'a list -> 'a list used as `add vList1 s`.
    let src = "let add str lst = if List.mem str lst then lst else str :: lst\n\
               let vList1 = [\"a\"]\n\
               let s = \"b\"\n\
               let r = add vList1 s";
    let err = bad(src);
    let blamed = err.span.text(src);
    assert_eq!(blamed, "s");
    match &err.kind {
        TypeErrorKind::Mismatch { found, expected } => {
            assert_eq!(found, "string");
            assert_eq!(expected, "string list list");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn multiple_errors_reports_first() {
    let src = "let x = 3 + true\nlet y = 4 + \"hi\"";
    let err = bad(src);
    assert_eq!(err.span.text(src), "true");
}

#[test]
fn unbound_value() {
    let err = bad("let x = prnt \"hi\"");
    assert!(matches!(err.kind, TypeErrorKind::UnboundVar(ref n) if n == "prnt"));
}

#[test]
fn unbound_constructor() {
    let err = bad("let x = Bogus 3");
    assert!(matches!(err.kind, TypeErrorKind::UnboundCtor(_)));
}

#[test]
fn branch_mismatch_blames_else() {
    let src = "let f b = if b then 1 else \"s\"";
    let err = bad(src);
    assert_eq!(err.span.text(src), "\"s\"");
}

#[test]
fn occurs_check() {
    let err = bad("let rec f x = f");
    assert!(matches!(err.kind, TypeErrorKind::Infinite { .. }));
}

#[test]
fn list_vs_tuple_brackets() {
    // `[1, 2, 3]` is a singleton list of a triple; using it as int list fails.
    let err = bad("let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]");
    assert!(matches!(err.kind, TypeErrorKind::Mismatch { .. }));
}

#[test]
fn float_int_operator_confusion() {
    bad("let x = 1.5 + 2.0");
    bad("let x = 1 +. 2");
}

#[test]
fn duplicate_pattern_var() {
    let err = bad("let f = fun (x, x) -> x");
    assert!(matches!(err.kind, TypeErrorKind::DuplicatePatternVar(_)));
}

#[test]
fn ctor_arity_errors() {
    bad("type t = A of int\nlet x = A");
    bad("type t = A\nlet x = A 3");
}

#[test]
fn match_arm_mismatch_blamed_at_later_arm() {
    let src = "let f xs = match xs with [] -> 0 | x :: _ -> \"s\"";
    let err = bad(src);
    assert_eq!(err.span.text(src), "\"s\"");
}

#[test]
fn figure9_baseline_blames_call_site_not_definition() {
    // finalLst returns (int -> move) list due to partial application of
    // List.nth; the checker errors only where the result meets `loop`.
    let src = "type move = For of int * move list | Other\n\
let rec loop movelist x acc =\n\
  match movelist with\n\
    [] -> acc\n\
  | For (moves, lst) :: tl ->\n\
      let rec finalLst index searchLst = if index = (moves - 1) then [] else (List.nth searchLst) :: (finalLst (index + 1) searchLst) in\n\
      loop (finalLst 0 lst) x acc\n\
  | Other :: tl -> loop tl x acc";
    let err = bad(src);
    let blamed = err.span.text(src);
    // The baseline blames the use of finalLst's result (or the whole call),
    // far from the actual missing argument.
    assert!(
        blamed.contains("finalLst 0 lst"),
        "baseline blamed `{blamed}` — expected the loop call-site"
    );
}

// ---------------------------------------------------------------------
// Captured node types
// ---------------------------------------------------------------------

#[test]
fn capture_reports_principal_types() {
    let src = "let f = fun x y -> x + y";
    let prog = parse_program(src).unwrap();
    // Find the Fun node.
    let mut fun_id = None;
    prog.decls[0].for_each_expr(&mut |e| {
        if matches!(e.kind, ExprKind::Fun(_, _)) && fun_id.is_none() {
            fun_id = Some(e.id);
        }
    });
    let types = check_program_types(&prog, &[fun_id.unwrap()]).unwrap();
    assert_eq!(types[&fun_id.unwrap()], "int -> int -> int");
}

#[test]
fn capture_polymorphic_type() {
    let src = "let id = fun x -> x";
    let prog = parse_program(src).unwrap();
    let mut fun_id = None;
    prog.decls[0].for_each_expr(&mut |e| {
        if matches!(e.kind, ExprKind::Fun(_, _)) && fun_id.is_none() {
            fun_id = Some(e.id);
        }
    });
    let types = check_program_types(&prog, &[fun_id.unwrap()]).unwrap();
    assert_eq!(types[&fun_id.unwrap()], "'a -> 'a");
}

#[test]
fn prefix_programs_check_independently() {
    let src = "let a = 1\nlet b = a + true\nlet c = b * 2";
    let prog = parse_program(src).unwrap();
    assert!(check_program(&prog.prefix(1)).is_ok());
    assert!(check_program(&prog.prefix(2)).is_err());
    assert!(check_program(&prog.prefix(3)).is_err());
}

#[test]
fn top_level_expression_decl() {
    let prog = parse_program("let x = 1 in print_int x").unwrap();
    assert!(matches!(prog.decls[0].kind(), DeclKind::Expr(_)));
    assert!(check_program(&prog).is_ok());
}

#[test]
fn negative_literals() {
    let prog = parse_program("let x = f (-1)");
    // f unbound, but parse must succeed and produce Int(-1).
    let prog = prog.unwrap();
    let mut found = false;
    prog.decls[0].for_each_expr(&mut |e| {
        if let ExprKind::UnOp(seminal_ml::UnOp::Neg, inner) = &e.kind {
            if matches!(inner.kind, ExprKind::Lit(Lit::Int(1))) {
                found = true;
            }
        }
    });
    assert!(found, "expected negation of 1");
}

// ---------------------------------------------------------------------
// try ... with
// ---------------------------------------------------------------------

#[test]
fn try_with_unifies_body_and_handlers() {
    ok("let lookup k env = try List.assoc k env with Not_found -> 0");
    ok("let f x = try x / 0 with Division_by_zero -> -1 | Failure _ -> -2");
    bad("let f x = try x / 0 with Division_by_zero -> \"oops\"");
}

#[test]
fn try_handlers_match_exceptions_only() {
    // Matching a non-exception pattern against exn fails.
    let err = bad("let f x = try x with 0 -> 1");
    assert!(matches!(err.kind, TypeErrorKind::Mismatch { .. }));
}

#[test]
fn try_with_payload_binding() {
    ok("let f g = try g () with Failure msg -> String.length msg");
}

#[test]
fn try_is_not_a_syntactic_value() {
    // `let r = try ref [] with Not_found -> ref []` must stay mono.
    bad("let r = try ref [] with Not_found -> ref []\nlet _ = r := [1]\nlet _ = r := [true]");
}

#[test]
fn when_guards_must_be_bool() {
    ok("let f n = match n with x when x > 0 -> x | _ -> 0");
    let err = bad("let f n = match n with x when x + 1 -> x | _ -> 0");
    assert!(matches!(err.kind, TypeErrorKind::Mismatch { .. }));
}

#[test]
fn guard_sees_pattern_bindings() {
    ok("let classify xs = match xs with x :: _ when x > 10 -> \"big\" | _ :: _ -> \"small\" | [] -> \"empty\"");
}

// ---------------------------------------------------------------------
// Edge cases: records, aliases, generalization, scoping
// ---------------------------------------------------------------------

#[test]
fn two_record_types_share_no_fields() {
    let err = bad("type a = { x : int }\ntype b = { y : string }\nlet r = { x = 1; y = \"s\" }");
    assert!(matches!(err.kind, TypeErrorKind::ForeignField { .. }));
}

#[test]
fn later_record_shadows_field_label() {
    // Like OCaml, the most recent declaration owns the label.
    ok("type a = { x : int }\ntype b = { x : string }\nlet r = { x = \"s\" }\nlet s = r.x ^ \"!\"");
}

#[test]
fn alias_arity_checked() {
    let err = bad("type pair = int * int\nlet f (p : (int, int) pair) = p");
    assert!(matches!(err.kind, TypeErrorKind::UnboundType(_)));
}

#[test]
fn unknown_type_in_annotation() {
    let err = bad("let f (x : widget) = x");
    assert!(matches!(err.kind, TypeErrorKind::UnboundType(_)));
}

#[test]
fn parametric_alias() {
    ok("type 'a pair = 'a * 'a\nlet swap (p : int pair) = (snd p, fst p)");
}

#[test]
fn polymorphic_function_used_at_two_types_in_one_decl() {
    ok("let both f = (f 1, f 2)\nlet r = both (fun x -> x + 1)");
    // But a lambda-bound function is monomorphic (rank-1 only).
    bad("let apply f = (f 1, f \"s\")\nlet r = apply (fun x -> x)");
}

#[test]
fn nested_let_shadowing_scopes() {
    ok("let x = 1\nlet y = let x = \"s\" in String.length x\nlet z = x + y");
}

#[test]
fn generalization_inside_let_in() {
    ok("let go () = let id = fun x -> x in (id 1, id \"s\")");
}

#[test]
fn annotation_variables_unify_within_a_decl() {
    // Both 'a occurrences refer to the same variable.
    ok("let pair (x : 'a) (y : 'a) = [x; y]\nlet p = pair 1 2");
    bad("let pair (x : 'a) (y : 'a) = [x; y]\nlet p = pair 1 \"s\"");
}

#[test]
fn exception_payload_checked() {
    bad("exception Bad of string\nlet f () = raise (Bad 3)");
    ok("exception Bad of string\nlet f () = raise (Bad \"x\")");
}

#[test]
fn deref_requires_ref() {
    let src = "let f x = !x + 1\nlet g = f 3";
    let err = bad(src);
    assert!(matches!(err.kind, TypeErrorKind::Mismatch { .. }));
}

#[test]
fn assign_requires_ref_on_left() {
    let src = "let f = 3 := 4";
    let err = bad(src);
    assert_eq!(err.span.text(src), "3");
}

#[test]
fn list_elements_must_agree_blames_offender() {
    let src = "let xs = [1; 2; \"three\"; 4]";
    let err = bad(src);
    assert_eq!(err.span.text(src), "\"three\"");
}

#[test]
fn tuple_arity_mismatch_in_pattern() {
    bad("let f p = match p with (a, b, c) -> a + b + c\nlet r = f (1, 2)");
}

#[test]
fn hole_in_pattern_position_is_not_a_thing_but_wild_is() {
    ok("let f p = match p with _ -> 0");
}

#[test]
fn field_access_infers_record_type() {
    ok("type point = { x : int; y : int }\nlet norm1 p = abs p.x + abs p.y");
    // And constrains it: using the same value as another type fails.
    bad("type point = { x : int; y : int }\nlet f p = p.x + String.length p");
}

#[test]
fn mutual_recursion_through_and() {
    ok("let rec ping n = if n = 0 then \"done\" else pong (n - 1)\n\
        and pong n = if n = 0 then \"gone\" else ping (n - 1)");
}

#[test]
fn deeply_nested_generalization() {
    ok("let outer =\n\
          let mk = fun x -> fun y -> (x, y) in\n\
          let a = mk 1 \"s\" in\n\
          let b = mk true 2.0 in\n\
          (fst a + String.length (snd a), if fst b then 1 else 0)");
}

#[test]
fn operator_sections_type_check() {
    ok("let total = List.fold_left (+) 0 [1; 2; 3]");
    ok("let cat = List.fold_left (^) \"\" [\"a\"; \"b\"]");
    ok("let all = List.fold_left (&&) true [true; false]");
    bad("let nope = List.fold_left (+) \"s\" [1]");
}

#[test]
fn function_keyword_type_checks() {
    ok("let rec len = function [] -> 0 | _ :: t -> 1 + len t\nlet n = len [1; 2]");
    bad("let f = function 0 -> \"zero\" | n -> n");
}

// ---------------------------------------------------------------------
// Principal types of stdlib uses (instantiate + generalize + pretty)
// ---------------------------------------------------------------------

fn principal_type_of(src: &str) -> String {
    let prog = parse_program(src).unwrap();
    let mut target = None;
    // The last declaration's binding body.
    if let DeclKind::Let { bindings, .. } = prog.decls.last().unwrap().kind() {
        target = Some(bindings[0].body.id);
    }
    let types = check_program_types(&prog, &[target.unwrap()]).unwrap();
    types[&target.unwrap()].clone()
}

#[test]
fn stdlib_signatures_round_trip_through_inference() {
    assert_eq!(principal_type_of("let f = List.map"), "('a -> 'b) -> 'a list -> 'b list");
    assert_eq!(principal_type_of("let f = List.combine"), "'a list -> 'b list -> ('a * 'b) list");
    assert_eq!(
        principal_type_of("let f = List.fold_left"),
        "('a -> 'b -> 'a) -> 'a -> 'b list -> 'a"
    );
    assert_eq!(principal_type_of("let f = fst"), "'a * 'b -> 'a");
    assert_eq!(principal_type_of("let f = adapt"), "'a -> 'b");
}

#[test]
fn partial_applications_have_expected_types() {
    assert_eq!(principal_type_of("let f = List.map succ"), "int list -> int list");
    assert_eq!(principal_type_of("let f = (+) 1"), "int -> int");
    assert_eq!(principal_type_of("let f = List.fold_left (^) \"\""), "string list -> string");
}

#[test]
fn user_polymorphism_pretty_names_in_order() {
    assert_eq!(
        principal_type_of("let rot = fun (a, b, c) -> (b, c, a)"),
        "'a * 'b * 'c -> 'b * 'c * 'a"
    );
}

#[test]
fn option_and_list_composites() {
    assert_eq!(principal_type_of("let f = fun x -> Some [x]"), "'a -> 'a list option");
}

#[test]
fn pathological_nesting_is_a_too_deep_diagnostic_not_an_overflow() {
    // The parser's own guard caps nesting below inference's, so only a
    // hand-built AST reaches this path (the searcher builds variants
    // programmatically). The checker must answer, not blow the stack.
    use seminal_ml::ast::{Decl, Expr, NodeId, Program, UnOp};
    use seminal_ml::span::Span;
    let mut e = Expr::synth(ExprKind::Lit(Lit::Int(1)), Span::DUMMY);
    for _ in 0..3_000 {
        e = Expr::synth(ExprKind::UnOp(UnOp::Neg, std::sync::Arc::new(e)), Span::DUMMY);
    }
    let prog = Program {
        decls: vec![std::sync::Arc::new(Decl::new(
            NodeId::SYNTH,
            Span::DUMMY,
            DeclKind::Expr(std::sync::Arc::new(e)),
        ))],
        next_id: 0,
    };
    let err = check_program(&prog).expect_err("the guard must fire before the stack overflows");
    assert!(matches!(err.kind, TypeErrorKind::TooDeep(_)), "got {:?}", err.kind);
}
