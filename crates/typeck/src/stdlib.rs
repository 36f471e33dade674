//! The initial typing environment: a slice of OCaml's `Pervasives`,
//! `List`, and `String` big enough for every program in the paper and in
//! the synthesized corpus.

use crate::env::{CtorInfo, Env, TypeInfo};
use crate::types::{Scheme, TvId, Ty};
use std::sync::OnceLock;

/// Scheme-local type variables. These ids are far above anything a
/// unifier store will allocate; they only ever appear quantified, so they
/// are substituted away at instantiation.
const A: TvId = TvId(1 << 30);
const B: TvId = TvId((1 << 30) + 1);

fn a() -> Ty {
    Ty::Var(A)
}

fn b() -> Ty {
    Ty::Var(B)
}

fn poly1(ty: Ty) -> Scheme {
    Scheme { vars: vec![A], ty }
}

fn poly2(ty: Ty) -> Scheme {
    Scheme { vars: vec![A, B], ty }
}

fn mono(ty: Ty) -> Scheme {
    Scheme::mono(ty)
}

fn arrows(params: Vec<Ty>, ret: Ty) -> Ty {
    Ty::arrows(params, ret)
}

/// Builds the standard environment. Prefer [`stdlib_env`], which builds
/// it once per process.
pub fn build_stdlib() -> Env {
    let mut env = Env::default();

    // --- Named types -----------------------------------------------------
    for (name, arity) in [
        ("int", 0),
        ("float", 0),
        ("string", 0),
        ("bool", 0),
        ("unit", 0),
        ("exn", 0),
        ("list", 1),
        ("ref", 1),
        ("option", 1),
    ] {
        std::sync::Arc::make_mut(&mut env.types).insert(name.to_owned(), TypeInfo::Data { arity });
    }

    // --- Built-in constructors -------------------------------------------
    std::sync::Arc::make_mut(&mut env.ctors)
        .insert("None".to_owned(), CtorInfo { vars: vec![A], arg: None, result: Ty::option(a()) });
    std::sync::Arc::make_mut(&mut env.ctors).insert(
        "Some".to_owned(),
        CtorInfo { vars: vec![A], arg: Some(a()), result: Ty::option(a()) },
    );
    for (name, arg) in [
        ("Not_found", None),
        ("Exit", None),
        // The paper's wildcard exception (`raise Foo`).
        ("Foo", None),
        ("Failure", Some(Ty::string())),
        ("Invalid_argument", Some(Ty::string())),
        ("Division_by_zero", None),
    ] {
        std::sync::Arc::make_mut(&mut env.ctors)
            .insert(name.to_owned(), CtorInfo { vars: Vec::new(), arg, result: Ty::exn() });
    }

    // --- List ------------------------------------------------------------
    let entries = [
        ("List.map", poly2(arrows(vec![Ty::arrow(a(), b()), Ty::list(a())], Ty::list(b())))),
        (
            "List.map2",
            poly2(arrows(
                vec![Ty::arrows(vec![a(), a()], b()), Ty::list(a()), Ty::list(a())],
                Ty::list(b()),
            )),
        ),
        (
            "List.combine",
            poly2(arrows(vec![Ty::list(a()), Ty::list(b())], Ty::list(Ty::tuple(vec![a(), b()])))),
        ),
        (
            "List.filter",
            poly1(arrows(vec![Ty::arrow(a(), Ty::bool()), Ty::list(a())], Ty::list(a()))),
        ),
        ("List.mem", poly1(arrows(vec![a(), Ty::list(a())], Ty::bool()))),
        ("List.nth", poly1(arrows(vec![Ty::list(a()), Ty::int()], a()))),
        ("List.length", poly1(Ty::arrow(Ty::list(a()), Ty::int()))),
        ("List.rev", poly1(Ty::arrow(Ty::list(a()), Ty::list(a())))),
        ("List.append", poly1(arrows(vec![Ty::list(a()), Ty::list(a())], Ty::list(a())))),
        ("List.hd", poly1(Ty::arrow(Ty::list(a()), a()))),
        ("List.tl", poly1(Ty::arrow(Ty::list(a()), Ty::list(a())))),
        (
            "List.fold_left",
            poly2(arrows(vec![Ty::arrows(vec![a(), b()], a()), a(), Ty::list(b())], a())),
        ),
        (
            "List.fold_right",
            poly2(arrows(vec![Ty::arrows(vec![a(), b()], b()), Ty::list(a()), b()], b())),
        ),
        ("List.iter", poly1(arrows(vec![Ty::arrow(a(), Ty::unit()), Ty::list(a())], Ty::unit()))),
        ("List.assoc", poly2(arrows(vec![a(), Ty::list(Ty::tuple(vec![a(), b()]))], b()))),
        ("List.exists", poly1(arrows(vec![Ty::arrow(a(), Ty::bool()), Ty::list(a())], Ty::bool()))),
        (
            "List.for_all",
            poly1(arrows(vec![Ty::arrow(a(), Ty::bool()), Ty::list(a())], Ty::bool())),
        ),
        (
            "List.split",
            poly2(Ty::arrow(
                Ty::list(Ty::tuple(vec![a(), b()])),
                Ty::tuple(vec![Ty::list(a()), Ty::list(b())]),
            )),
        ),
        ("List.concat", poly1(Ty::arrow(Ty::list(Ty::list(a())), Ty::list(a())))),
        ("List.flatten", poly1(Ty::arrow(Ty::list(Ty::list(a())), Ty::list(a())))),
        (
            "List.sort",
            poly1(arrows(
                vec![Ty::arrows(vec![a(), a()], Ty::int()), Ty::list(a())],
                Ty::list(a()),
            )),
        ),
        // --- printing ------------------------------------------------
        ("print_string", mono(Ty::arrow(Ty::string(), Ty::unit()))),
        ("print_endline", mono(Ty::arrow(Ty::string(), Ty::unit()))),
        ("print_int", mono(Ty::arrow(Ty::int(), Ty::unit()))),
        ("print_float", mono(Ty::arrow(Ty::float(), Ty::unit()))),
        ("print_newline", mono(Ty::arrow(Ty::unit(), Ty::unit()))),
        // --- conversions ----------------------------------------------
        ("string_of_int", mono(Ty::arrow(Ty::int(), Ty::string()))),
        ("int_of_string", mono(Ty::arrow(Ty::string(), Ty::int()))),
        ("string_of_float", mono(Ty::arrow(Ty::float(), Ty::string()))),
        ("float_of_string", mono(Ty::arrow(Ty::string(), Ty::float()))),
        ("string_of_bool", mono(Ty::arrow(Ty::bool(), Ty::string()))),
        ("float_of_int", mono(Ty::arrow(Ty::int(), Ty::float()))),
        ("int_of_float", mono(Ty::arrow(Ty::float(), Ty::int()))),
        // --- String ----------------------------------------------------
        ("String.length", mono(Ty::arrow(Ty::string(), Ty::int()))),
        ("String.sub", mono(arrows(vec![Ty::string(), Ty::int(), Ty::int()], Ty::string()))),
        ("String.concat", mono(arrows(vec![Ty::string(), Ty::list(Ty::string())], Ty::string()))),
        ("String.uppercase", mono(Ty::arrow(Ty::string(), Ty::string()))),
        ("String.lowercase", mono(Ty::arrow(Ty::string(), Ty::string()))),
        // --- refs ------------------------------------------------------
        ("ref", poly1(Ty::arrow(a(), Ty::reference(a())))),
        ("incr", mono(Ty::arrow(Ty::reference(Ty::int()), Ty::unit()))),
        ("decr", mono(Ty::arrow(Ty::reference(Ty::int()), Ty::unit()))),
        // --- misc pervasives --------------------------------------------
        ("fst", poly2(Ty::arrow(Ty::tuple(vec![a(), b()]), a()))),
        ("snd", poly2(Ty::arrow(Ty::tuple(vec![a(), b()]), b()))),
        ("not", mono(Ty::arrow(Ty::bool(), Ty::bool()))),
        ("ignore", poly1(Ty::arrow(a(), Ty::unit()))),
        ("failwith", poly1(Ty::arrow(Ty::string(), a()))),
        ("invalid_arg", poly1(Ty::arrow(Ty::string(), a()))),
        ("compare", poly1(arrows(vec![a(), a()], Ty::int()))),
        ("min", poly1(arrows(vec![a(), a()], a()))),
        ("max", poly1(arrows(vec![a(), a()], a()))),
        ("abs", mono(Ty::arrow(Ty::int(), Ty::int()))),
        ("succ", mono(Ty::arrow(Ty::int(), Ty::int()))),
        ("pred", mono(Ty::arrow(Ty::int(), Ty::int()))),
        ("sqrt", mono(Ty::arrow(Ty::float(), Ty::float()))),
        ("floor", mono(Ty::arrow(Ty::float(), Ty::float()))),
        ("ceil", mono(Ty::arrow(Ty::float(), Ty::float()))),
        ("max_int", mono(Ty::int())),
        ("min_int", mono(Ty::int())),
        // Operator sections `(+)`, `(^)`, … — first-class operator values.
        ("+", mono(arrows(vec![Ty::int(), Ty::int()], Ty::int()))),
        ("-", mono(arrows(vec![Ty::int(), Ty::int()], Ty::int()))),
        ("*", mono(arrows(vec![Ty::int(), Ty::int()], Ty::int()))),
        ("/", mono(arrows(vec![Ty::int(), Ty::int()], Ty::int()))),
        ("mod", mono(arrows(vec![Ty::int(), Ty::int()], Ty::int()))),
        ("+.", mono(arrows(vec![Ty::float(), Ty::float()], Ty::float()))),
        ("-.", mono(arrows(vec![Ty::float(), Ty::float()], Ty::float()))),
        ("*.", mono(arrows(vec![Ty::float(), Ty::float()], Ty::float()))),
        ("/.", mono(arrows(vec![Ty::float(), Ty::float()], Ty::float()))),
        ("^", mono(arrows(vec![Ty::string(), Ty::string()], Ty::string()))),
        ("@", poly1(arrows(vec![Ty::list(a()), Ty::list(a())], Ty::list(a())))),
        ("=", poly1(arrows(vec![a(), a()], Ty::bool()))),
        ("<>", poly1(arrows(vec![a(), a()], Ty::bool()))),
        ("<", poly1(arrows(vec![a(), a()], Ty::bool()))),
        (">", poly1(arrows(vec![a(), a()], Ty::bool()))),
        ("<=", poly1(arrows(vec![a(), a()], Ty::bool()))),
        (">=", poly1(arrows(vec![a(), a()], Ty::bool()))),
        ("&&", mono(arrows(vec![Ty::bool(), Ty::bool()], Ty::bool()))),
        ("||", mono(arrows(vec![Ty::bool(), Ty::bool()], Ty::bool()))),
        // The paper's adaptation helper (§2.3): `let adapt x = raise Foo`.
        ("adapt", poly2(Ty::arrow(a(), b()))),
    ];
    env.stdlib = std::sync::Arc::new(
        entries.into_iter().map(|(name, scheme)| (name.to_owned(), scheme)).collect(),
    );
    env
}

/// The standard environment, built once per process. Every inference
/// state starts from a clone of it, which shares its maps: four
/// refcount bumps, no copying.
pub fn stdlib_env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(build_stdlib)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdlib_has_paper_functions() {
        let env = stdlib_env();
        for name in ["List.map", "List.combine", "List.filter", "List.mem", "List.nth", "adapt"] {
            assert!(env.lookup(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn stdlib_schemes_are_closed() {
        // Every free variable of a stdlib scheme must be quantified.
        let env = stdlib_env();
        assert!(env.values.is_empty(), "stdlib values live in the shared map");
        for (name, scheme) in env.stdlib.iter() {
            let mut vars = Vec::new();
            scheme.ty.vars(&mut vars);
            for v in vars {
                assert!(scheme.vars.contains(&v), "{name} has unquantified var {v:?}");
            }
        }
    }

    #[test]
    fn exn_constructors_present() {
        let env = stdlib_env();
        assert!(env.ctors.contains_key("Foo"));
        assert!(env.ctors.contains_key("Not_found"));
        assert_eq!(env.ctors["Failure"].arg, Some(Ty::string()));
    }

    #[test]
    fn option_is_polymorphic() {
        let env = stdlib_env();
        assert_eq!(env.ctors["Some"].vars.len(), 1);
    }
}
