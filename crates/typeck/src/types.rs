//! Semantic types for Hindley–Milner inference.
//!
//! A [`Ty`] is a persistent tree: constructor names are `Arc<str>`,
//! argument lists `Arc<[Ty]>` and arrow halves `Arc<Ty>`, so a clone is a
//! few refcount bumps and copies no tree. The unifier hands out types on
//! every read and the constraint recorder keeps every demand, which is
//! why that matters. The builtin types (`int`, `float`, `string`, `bool`,
//! `unit`, `exn`) and the names `list`, `ref` and `option` are built once
//! per process and handed out by the constructors below; an empty
//! argument list is one shared allocation. Other names are not interned:
//! each declaration or annotation gets its own `Arc<str>`, freed with the
//! last type naming it, so nothing grows with the programs a daemon
//! checks. `Arc`, not `Rc`: traces and the stdlib cross threads.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An inference type variable, an index into the unifier's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TvId(pub u32);

impl fmt::Display for TvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'t{}", self.0)
    }
}

/// A (possibly partially solved) type. Cloning shares every child.
#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    /// Unification variable.
    Var(TvId),
    /// Applied constructor: `int`, `'a list`, `('a, 'b) result`, `exn`, …
    Con(Arc<str>, Arc<[Ty]>),
    /// `t1 -> t2`.
    Arrow(Arc<Ty>, Arc<Ty>),
    /// `t1 * t2 * ...`.
    Tuple(Arc<[Ty]>),
}

/// The builtin types, built once per process.
struct Builtins {
    int: Ty,
    float: Ty,
    string: Ty,
    bool: Ty,
    unit: Ty,
    exn: Ty,
    list: Arc<str>,
    reference: Arc<str>,
    option: Arc<str>,
    /// Every nullary constructor's argument list.
    no_args: Arc<[Ty]>,
}

impl Builtins {
    fn get() -> &'static Builtins {
        static BUILTINS: OnceLock<Builtins> = OnceLock::new();
        BUILTINS.get_or_init(|| {
            let no_args: Arc<[Ty]> = Arc::new([]);
            let con = |name: &str| Ty::Con(Arc::from(name), no_args.clone());
            Builtins {
                int: con("int"),
                float: con("float"),
                string: con("string"),
                bool: con("bool"),
                unit: con("unit"),
                exn: con("exn"),
                list: Arc::from("list"),
                reference: Arc::from("ref"),
                option: Arc::from("option"),
                no_args,
            }
        })
    }

    /// The shared nullary builtin called `name`, if there is one.
    fn nullary(&self, name: &str) -> Option<&Ty> {
        Some(match name {
            "int" => &self.int,
            "float" => &self.float,
            "string" => &self.string,
            "bool" => &self.bool,
            "unit" => &self.unit,
            "exn" => &self.exn,
            _ => return None,
        })
    }

    /// `name` as a constructor name: the shared one for a builtin, a
    /// fresh one otherwise.
    fn name(&self, name: &str) -> Arc<str> {
        match name {
            "list" => self.list.clone(),
            "ref" => self.reference.clone(),
            "option" => self.option.clone(),
            _ => match self.nullary(name) {
                Some(Ty::Con(shared, _)) => shared.clone(),
                _ => Arc::from(name),
            },
        }
    }
}

impl Ty {
    /// Nullary constructor shorthand. A builtin name yields the shared
    /// type; any other name gets a name of its own.
    pub fn con(name: &str) -> Ty {
        Ty::apply(name, Vec::new())
    }

    /// Applied constructor `(args) name`.
    pub fn apply(name: &str, args: Vec<Ty>) -> Ty {
        let b = Builtins::get();
        if !args.is_empty() {
            return Ty::Con(b.name(name), args.into());
        }
        match b.nullary(name) {
            Some(shared) => shared.clone(),
            None => Ty::Con(b.name(name), b.no_args.clone()),
        }
    }

    pub fn int() -> Ty {
        Builtins::get().int.clone()
    }

    pub fn float() -> Ty {
        Builtins::get().float.clone()
    }

    pub fn string() -> Ty {
        Builtins::get().string.clone()
    }

    pub fn bool() -> Ty {
        Builtins::get().bool.clone()
    }

    pub fn unit() -> Ty {
        Builtins::get().unit.clone()
    }

    pub fn exn() -> Ty {
        Builtins::get().exn.clone()
    }

    /// `t list`.
    pub fn list(elem: Ty) -> Ty {
        Ty::Con(Builtins::get().list.clone(), Arc::new([elem]))
    }

    /// `t ref`.
    pub fn reference(inner: Ty) -> Ty {
        Ty::Con(Builtins::get().reference.clone(), Arc::new([inner]))
    }

    /// `t option`.
    pub fn option(inner: Ty) -> Ty {
        Ty::Con(Builtins::get().option.clone(), Arc::new([inner]))
    }

    /// `a -> b`.
    pub fn arrow(a: Ty, b: Ty) -> Ty {
        Ty::Arrow(Arc::new(a), Arc::new(b))
    }

    /// `a1 -> a2 -> ... -> r`, right associated.
    pub fn arrows(params: Vec<Ty>, ret: Ty) -> Ty {
        params.into_iter().rev().fold(ret, |acc, p| Ty::arrow(p, acc))
    }

    /// `p1 * p2 * ...`.
    pub fn tuple(parts: Vec<Ty>) -> Ty {
        Ty::Tuple(parts.into())
    }

    /// Collects every variable occurring in the type (unresolved view).
    pub fn vars(&self, out: &mut Vec<TvId>) {
        match self {
            Ty::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Ty::Con(_, args) | Ty::Tuple(args) => {
                for a in args.iter() {
                    a.vars(out);
                }
            }
            Ty::Arrow(a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }
}

/// A polymorphic type scheme `∀ vars. ty`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    /// Quantified variables (indices are private to the scheme).
    pub vars: Vec<TvId>,
    pub ty: Ty,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: Ty) -> Scheme {
        Scheme { vars: Vec::new(), ty }
    }
}

/// Pretty-prints a *fully resolved* type OCaml-style, naming variables
/// `'a`, `'b`, … in order of first appearance.
pub fn pretty(ty: &Ty) -> String {
    let mut names = HashMap::new();
    let mut out = String::new();
    go(ty, 0, &mut names, &mut out);
    out
}

fn var_name(idx: usize) -> String {
    // a, b, ..., z, a1, b1, ...
    let letter = (b'a' + (idx % 26) as u8) as char;
    let suffix = idx / 26;
    if suffix == 0 {
        format!("'{letter}")
    } else {
        format!("'{letter}{suffix}")
    }
}

/// `ctx`: 0 = top, 1 = tuple component, 2 = constructor argument / arrow lhs.
fn go(ty: &Ty, ctx: u8, names: &mut HashMap<TvId, String>, out: &mut String) {
    match ty {
        Ty::Var(v) => {
            let n = names.len();
            let name = names.entry(*v).or_insert_with(|| var_name(n));
            out.push_str(name);
        }
        Ty::Con(name, args) => match args.len() {
            0 => out.push_str(name),
            1 => {
                go(&args[0], 2, names, out);
                out.push(' ');
                out.push_str(name);
            }
            _ => {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    go(a, 0, names, out);
                }
                out.push_str(") ");
                out.push_str(name);
            }
        },
        Ty::Arrow(a, b) => {
            let parens = ctx >= 1;
            if parens {
                out.push('(');
            }
            // ctx 1 on the left: nested arrows get parens, tuples do not
            // (`'a * 'b -> 'a`, as ocamlc prints it).
            go(a, 1, names, out);
            out.push_str(" -> ");
            go(b, 0, names, out);
            if parens {
                out.push(')');
            }
        }
        Ty::Tuple(parts) => {
            // Tuples bind tighter than arrows: `'a * 'b -> 'a` needs no
            // parens on the left; only constructor-argument position does.
            let parens = ctx >= 2;
            if parens {
                out.push('(');
            }
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" * ");
                }
                go(p, 2, names, out);
            }
            if parens {
                out.push(')');
            }
        }
    }
}

/// Pretty-prints a pair of types with a *shared* variable naming, so the
/// "has type … but is here used with type …" message uses consistent names.
pub fn pretty_pair(a: &Ty, b: &Ty) -> (String, String) {
    let mut names = HashMap::new();
    let mut sa = String::new();
    go(a, 0, &mut names, &mut sa);
    let mut sb = String::new();
    go(b, 0, &mut names, &mut sb);
    (sa, sb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_simple() {
        assert_eq!(pretty(&Ty::int()), "int");
        assert_eq!(pretty(&Ty::list(Ty::int())), "int list");
        assert_eq!(pretty(&Ty::arrow(Ty::int(), Ty::bool())), "int -> bool");
    }

    #[test]
    fn pretty_nested_arrows() {
        let t = Ty::arrows(vec![Ty::arrow(Ty::Var(TvId(0)), Ty::Var(TvId(1)))], Ty::Var(TvId(1)));
        assert_eq!(pretty(&t), "('a -> 'b) -> 'b");
    }

    #[test]
    fn pretty_map_type() {
        // ('a -> 'b) -> 'a list -> 'b list
        let a = Ty::Var(TvId(10));
        let b = Ty::Var(TvId(20));
        let t = Ty::arrows(
            vec![Ty::arrow(a.clone(), b.clone()), Ty::list(a.clone())],
            Ty::list(b.clone()),
        );
        assert_eq!(pretty(&t), "('a -> 'b) -> 'a list -> 'b list");
    }

    #[test]
    fn pretty_tuple_in_list() {
        let t = Ty::list(Ty::tuple(vec![Ty::int(), Ty::bool()]));
        assert_eq!(pretty(&t), "(int * bool) list");
    }

    #[test]
    fn pretty_multi_arg_con() {
        let t = Ty::apply("result", vec![Ty::int(), Ty::string()]);
        assert_eq!(pretty(&t), "(int, string) result");
    }

    #[test]
    fn pretty_pair_shares_names() {
        let (a, b) = pretty_pair(&Ty::Var(TvId(3)), &Ty::list(Ty::Var(TvId(3))));
        assert_eq!(a, "'a");
        assert_eq!(b, "'a list");
    }

    #[test]
    fn arrows_builder() {
        let t = Ty::arrows(vec![Ty::int(), Ty::bool()], Ty::string());
        assert_eq!(pretty(&t), "int -> bool -> string");
    }

    #[test]
    fn clones_share_their_children() {
        let t = Ty::arrow(Ty::list(Ty::int()), Ty::tuple(vec![Ty::bool(), Ty::Var(TvId(0))]));
        let (Ty::Arrow(a1, b1), Ty::Arrow(a2, b2)) = (&t, &t.clone()) else { unreachable!() };
        assert!(Arc::ptr_eq(a1, a2) && Arc::ptr_eq(b1, b2));
        let (Ty::Tuple(p1), Ty::Tuple(p2)) = (&**b1, &**b2) else { unreachable!() };
        assert!(Arc::ptr_eq(p1, p2));
    }

    #[test]
    fn builtins_are_shared_and_user_names_are_not() {
        let (Ty::Con(n1, args1), Ty::Con(n2, args2)) = (Ty::int(), Ty::int()) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&n1, &n2) && Arc::ptr_eq(&args1, &args2));
        let (Ty::Con(l1, _), Ty::Con(l2, _)) = (Ty::list(Ty::int()), Ty::con("list")) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&l1, &l2), "`list` by name is the builtin name");
        assert_eq!(Ty::con("int"), Ty::int());

        let (Ty::Con(t1, targs), Ty::Con(t2, _)) = (Ty::con("t"), Ty::con("t")) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&targs, &args1), "every empty argument list is the shared one");
        assert!(!Arc::ptr_eq(&t1, &t2), "user names are not interned");
        assert_eq!(Arc::strong_count(&t1), 1);
        assert_eq!(Arc::strong_count(&t2), 1);
    }

    #[test]
    fn var_names_wrap() {
        assert_eq!(var_name(0), "'a");
        assert_eq!(var_name(25), "'z");
        assert_eq!(var_name(26), "'a1");
    }
}
