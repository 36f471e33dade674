"""Seeded generator of ill-typed homework programs, with ground truth.

The benchmark owns its inputs: the templates below are well-typed
programs in the styles of the paper's five homework assignments, and
every fault is a hand-written rewrite known to make its declaration
ill-typed: the declarations before it still type-check, the edited one
does not. Nothing here comes from the program under test, so the
expected verdict of every generated program (ill-typed, or well-typed
for a session's final fix) is an independent reference.

Template syntax:
  $name  a program-local identifier, renamed per instance (`$Leaf` ->
         `Leaf_k3`), so concatenated instances never shadow each other;
  #12    an int literal whose value is drawn per instance, so programs
         drawn from one template and fault are still distinct sources.
A fault is (declaration index, old text, new text); `old` must occur in
that declaration of the template.
"""

import copy
import random
import re

TEMPLATES = [
    ("stats", [
        "let rec $sum xs = match xs with [] -> 0 | x :: t -> x + $sum t",
        "let rec $count xs = match xs with [] -> 0 | _ :: t -> 1 + $count t",
        "let $average xs = if $count xs = 0 then 0 else $sum xs / $count xs",
        "let $scores = [#72; #85; #90; #64]",
        "let $report = print_endline (\"avg \" ^ string_of_int ($average $scores))",
    ], [
        (0, "x + $sum t", "x +. $sum t"),
        (2, "$sum xs / $count xs", "$sum xs /. $count xs"),
        (3, "#90; #64]", "#90.5; #64]"),
        (4, "string_of_int ($average $scores)", "string_of_int $average $scores"),
        (4, "\"avg \" ^", "\"avg \" +"),
    ]),
    ("dedup", [
        "let $add s lst = if List.mem s lst then lst else s :: lst",
        "let rec $dedup xs = match xs with [] -> [] | x :: t -> $add x ($dedup t)",
        "let $names = $dedup [\"ann\"; \"bob\"; \"ann\"; \"cy\"]",
        "let $line = String.concat \", \" $names",
        "let $main = print_endline $line",
    ], [
        (0, "s :: lst", "s @ lst"),
        (1, "$add x ($dedup t)", "$add ($dedup t) x"),
        (3, "String.concat \", \" $names", "String.concat $names \", \""),
        (4, "print_endline $line", "print_int $line"),
    ]),
    ("map2", [
        "let $map2 f xs ys = List.map (fun (a, b) -> f a b) (List.combine xs ys)",
        "let $sums = $map2 (fun x y -> x + y) [#1; #2; #3] [#4; #5; #6]",
        "let $zeros = List.filter (fun x -> x = 0) $sums",
        "let $main = print_int (List.length $zeros)",
    ], [
        (1, "(fun x y -> x + y)", "(fun (x, y) -> x + y)"),
        (2, "x = 0", "x = 0.0"),
        (3, "print_int (List.length $zeros)", "print_int $zeros"),
    ]),
    ("pipeline", [
        "let $compose f g = fun x -> f (g x)",
        "let $double n = n * 2",
        "let $bump n = n + #7",
        "let $both = $compose $double $bump",
        "let $evens xs = List.filter (fun x -> x mod 2 = 0) xs",
        "let $staged = List.map $both ($evens [#1; #2; #3; #4; #5; #6])",
        "let $main = print_int (List.fold_left (fun a b -> a + b) 0 $staged)",
    ], [
        (1, "n * 2", "n * 2.0"),
        (4, "x mod 2 = 0", "x mod 2 = \"0\""),
        (5, "List.map $both", "List.map $evens"),
        (6, "(fun a b -> a + b) 0", "(fun a b -> a ^ b) 0"),
    ]),
    ("floats", [
        "let rec $sumf xs = match xs with [] -> 0.0 | x :: t -> x +. $sumf t",
        "let $mean xs = $sumf xs /. float_of_int (List.length xs)",
        "let $area r = 3.14159 *. r *. r",
        "let $radii = [1.5; 2.5; 4.0]",
        "let $areas = List.map $area $radii",
        "let $main = print_float ($mean $areas)",
    ], [
        (0, "[] -> 0.0", "[] -> 0"),
        (1, "float_of_int (List.length xs)", "List.length xs"),
        (2, "3.14159 *. r", "3.14159 * r"),
        (5, "print_float", "print_int"),
    ]),
    ("tree", [
        "type 'a $tree = $Leaf | $Node of 'a $tree * 'a * 'a $tree",
        "let rec $size t = match t with $Leaf -> 0 | $Node (l, _, r) -> 1 + $size l + $size r",
        "let rec $insert x t =\n"
        "  match t with\n"
        "    $Leaf -> $Node ($Leaf, x, $Leaf)\n"
        "  | $Node (l, v, r) -> if x < v then $Node ($insert x l, v, r) else $Node (l, v, $insert x r)",
        "let rec $flatten t = match t with $Leaf -> [] | $Node (l, v, r) -> $flatten l @ (v :: $flatten r)",
        "let $built = $insert #4 ($insert #1 ($insert #3 $Leaf))",
        "let $main = print_int ($size $built + List.length ($flatten $built))",
    ], [
        (2, "$Node ($Leaf, x, $Leaf)", "$Node ($Leaf, $Leaf, x)"),
        (3, "$flatten l @ (v", "$flatten l :: (v"),
        (4, "$insert #4", "$insert \"4\""),
        (5, "$size $built +", "$size $built ^"),
    ]),
    ("shapes", [
        "type $shape = $Circle of float | $Rect of float * float | $Dot",
        "let $area s =\n"
        "  match s with\n"
        "    $Circle r -> 3.14159 *. r *. r\n"
        "  | $Rect (w, h) -> w *. h\n"
        "  | $Dot -> 0.0",
        "let rec $total shapes = match shapes with [] -> 0.0 | s :: rest -> $area s +. $total rest",
        "let $gallery = [$Circle 1.0; $Rect (2.0, 3.5); $Dot]",
        "let $main = print_float ($total $gallery)",
    ], [
        (1, "$Dot -> 0.0", "$Dot -> 0"),
        (2, "$area s +. $total rest", "$area s + $total rest"),
        (3, "$Rect (2.0, 3.5)", "$Rect 2.0 3.5"),
        (3, "$Circle 1.0", "$Circle 1"),
    ]),
    ("find", [
        "let $or_default d o = match o with None -> d | Some v -> v",
        "let rec $find p xs =\n"
        "  match xs with\n"
        "    [] -> None\n"
        "  | x :: t -> if p x then Some x else $find p t",
        "let $first_even = $find (fun x -> x mod 2 = 0) [#1; #3; #6; #7]",
        "let $main = print_int ($or_default 0 $first_even)",
    ], [
        (1, "else $find p t", "else $find t p"),
        (2, "$find (fun x -> x mod 2 = 0) [#1; #3; #6; #7]",
         "$find [#1; #3; #6; #7] (fun x -> x mod 2 = 0)"),
        (3, "$or_default 0 $first_even", "$or_default $first_even 0"),
    ]),
    ("interp", [
        "type $expr = $Num of int | $Add of $expr * $expr | $Mul of $expr * $expr | $Var of string",
        "let rec $eval env e =\n"
        "  match e with\n"
        "    $Num n -> n\n"
        "  | $Add (a, b) -> $eval env a + $eval env b\n"
        "  | $Mul (a, b) -> $eval env a * $eval env b\n"
        "  | $Var x -> List.assoc x env",
        "let $env0 = [(\"x\", #3); (\"y\", #4)]",
        "let $prog = $Add ($Mul ($Var \"x\", $Num 2), $Var \"y\")",
        "let $main = print_int ($eval $env0 $prog)",
    ], [
        (1, "$eval env a + $eval env b", "$eval a env + $eval env b"),
        (1, "$Var x -> List.assoc x env", "$Var x -> x"),
        (2, "(\"y\", #4)", "(#4, \"y\")"),
        (3, "$Num 2", "$Num \"2\""),
        (4, "$eval $env0 $prog", "$eval $prog $env0"),
    ]),
    ("moves", [
        "type $move = $Fwd of int | $Turn of int | $Rep of int * $move list",
        "let rec $steps m =\n"
        "  match m with\n"
        "    $Fwd n -> n\n"
        "  | $Turn _ -> 0\n"
        "  | $Rep (k, ms) -> k * List.fold_left (fun acc m2 -> acc + $steps m2) 0 ms",
        "let rec $run ms acc = match ms with [] -> acc | m :: rest -> $run rest (acc + $steps m)",
        "let $routine = [$Fwd #10; $Rep (#3, [$Turn #90; $Fwd #5]); $Turn #45]",
        "let $main = print_int ($run $routine 0)",
    ], [
        (1, "(fun acc m2 -> acc + $steps m2) 0 ms", "(fun acc m2 -> acc + $steps m2) ms 0"),
        (2, "$run rest (acc + $steps m)", "$run (acc + $steps m) rest"),
        (3, "$Rep (#3, [$Turn #90; $Fwd #5])", "$Rep (#3, $Turn #90)"),
        (4, "$run $routine 0", "$run 0 $routine"),
    ]),
    ("accounts", [
        "type $account = { $owner : string; mutable $balance : int }",
        "let $deposit a amount = a.$balance <- a.$balance + amount",
        "let $open_acct name = { $owner = name; $balance = 0 }",
        "let $alice = $open_acct \"alice\"",
        "let $setup = $deposit $alice #100; $deposit $alice #50",
        "let $summary = $alice.$owner ^ \": \" ^ string_of_int $alice.$balance",
        "let $main = print_endline $summary",
    ], [
        (1, "a.$balance <- a.$balance", "a.$balance := a.$balance"),
        (2, "$balance = 0", "$balance = \"0\""),
        (4, "$deposit $alice #100", "$deposit #100 $alice"),
        (5, "string_of_int $alice.$balance", "$alice.$balance"),
    ]),
    ("stack", [
        "let $stack = ref []",
        "let $push x = $stack := x :: !$stack",
        "let $pop () =\n"
        "  match !$stack with\n"
        "    [] -> None\n"
        "  | x :: rest -> $stack := rest; Some x",
        "let $init = $push #1; $push #2; $push #3",
        "let $top = match $pop () with None -> 0 | Some v -> v",
        "let $main = print_int $top",
    ], [
        (1, "$stack := x", "$stack = x"),
        (3, "$push #1", "$push \"1\""),
        (4, "match $pop () with", "match $pop with"),
        (5, "print_int $top", "print_string $top"),
    ]),
    ("grades", [
        "let $band score =\n"
        "  match score with\n"
        "    s when s >= #90 -> \"A\"\n"
        "  | s when s >= #80 -> \"B\"\n"
        "  | s when s >= #70 -> \"C\"\n"
        "  | _ -> \"F\"",
        "let rec $bands xs = match xs with [] -> [] | s :: rest -> $band s :: $bands rest",
        "let $report = String.concat \" \" ($bands [#95; #83; #61])",
        "let $main = print_endline $report",
    ], [
        (0, "| _ -> \"F\"", "| _ -> 0"),
        (1, "$band s :: $bands rest", "$band s @ $bands rest"),
        (2, "($bands [#95; #83; #61])", "$bands [#95; #83; #61]"),
        (3, "print_endline $report", "print_endline $band"),
    ]),
    ("lookup", [
        "let $table = [(\"x\", #10); (\"y\", #20)]",
        "let $lookup name = try List.assoc name $table with Not_found -> 0",
        "let $parse s = try int_of_string s with Failure _ -> 0",
        "let $total = $lookup \"x\" + $lookup \"z\" + $parse \"7\" + $parse \"oops\"",
        "let $main = print_int $total",
    ], [
        (1, "Not_found -> 0", "Not_found -> \"0\""),
        (2, "int_of_string s", "string_of_int s"),
        (3, "$parse \"7\"", "$parse 7"),
        (3, "$lookup \"z\"", "$lookup \"z\" \"w\""),
    ]),
    ("words", [
        "let rec $join sep xs =\n"
        "  match xs with\n"
        "    [] -> \"\"\n"
        "  | [w] -> w\n"
        "  | w :: rest -> w ^ sep ^ $join sep rest",
        "let $sentence = $join \" \" [\"the\"; \"quick\"; \"brown\"; \"fox\"]",
        "let $shout s = String.uppercase s ^ \"!\"",
        "let $main = print_endline ($shout $sentence)",
    ], [
        (0, "$join sep rest", "$join rest sep"),
        (0, "[] -> \"\"", "[] -> []"),
        (2, "String.uppercase s ^", "String.uppercase s +"),
        (3, "print_endline ($shout $sentence)", "print_endline $shout $sentence"),
    ]),
    ("counter", [
        "let $counter = ref 0",
        "let $bump () = $counter := !$counter + 1; !$counter",
        "let rec $bump_n n = if n = 0 then () else (ignore ($bump ()); $bump_n (n - 1))",
        "let $run = $bump_n #5",
        "let $label = \"count=\" ^ string_of_int !$counter",
        "let $main = print_endline $label",
    ], [
        (1, "!$counter + 1", "$counter + 1"),
        (2, "$bump_n (n - 1)", "$bump_n n - 1"),
        (3, "$bump_n #5", "$bump_n \"5\""),
        (4, "string_of_int !$counter", "string_of_int $counter"),
    ]),
]

_NAME = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")
_INT = re.compile(r"#(\d+)")


class Instance:
    """One template instance: its declarations with faults applied but
    placeholders still in place, and the per-declaration literal draws."""

    def __init__(self, template, tag, faults, rng):
        name, decls, table = TEMPLATES[template]
        self.index = template
        self.template = name
        self.tag = tag
        self.decls = list(decls)
        self.faulty = set()
        for index in faults:
            d, old, new = table[index]
            assert old in self.decls[d], (name, old)
            self.decls[d] = self.decls[d].replace(old, new, 1)
            self.faulty.add(d)
        self.literals = [self._draw(rng, decl) for decl in self.decls]

    @staticmethod
    def _draw(rng, decl):
        return [rng.randrange(1, 100) for _ in _INT.findall(decl)]

    def fixed(self):
        """The same instance with every fault removed: the student's fix."""
        clone = copy.copy(self)
        clone.decls = list(TEMPLATES[self.index][1])
        clone.faulty = set()
        return clone

    def redraw(self, rng, decl):
        """An edit unrelated to the fault: new literal values in one decl."""
        clone = copy.copy(self)
        clone.literals = list(self.literals)
        clone.literals[decl] = self._draw(rng, self.decls[decl])
        return clone

    def render(self, d):
        # A fault or its fix may change a declaration's literal count;
        # literals beyond the drawn ones read 1.
        draws = iter(self.literals[d])
        text = _INT.sub(lambda m: str(next(draws, 1)), self.decls[d])
        return _NAME.sub(lambda m: f"{m.group(1)}_{self.tag}", text)


class Program:
    """A generated source file: template instances plus ground truth."""

    def __init__(self, instances, header=""):
        self.instances = instances
        self.header = header

    @property
    def ill_typed(self):
        return any(inst.faulty for inst in self.instances)

    def render(self):
        """Returns (source, faulty line ranges as 1-based inclusive pairs,
        body): the body is the source without its header comment, so two
        programs with one body differ only in layout."""
        lines, faults = [], []
        if self.header:
            lines.append(self.header)
        for k, inst in enumerate(self.instances):
            if len(self.instances) > 1:
                lines.append("")
                lines.append(f"(* part {k + 1}: {inst.template} *)")
            for d in range(len(inst.decls)):
                text = inst.render(d).split("\n")
                first = len(lines) + 1
                lines.extend(text)
                if d in inst.faulty:
                    faults.append((first, len(lines)))
        source = "\n".join(lines) + "\n"
        return source, faults, source.partition("\n")[2] if self.header else source


FAULTS = [(t, f) for t, (_, _, table) in enumerate(TEMPLATES) for f in range(len(table))]
# The corpus model's share of files with two independent faults
# (crates/corpus/src/generate.rs, `multi_error_rate`).
DOUBLE = [True] + [False] * 3
# Figure 6's group sizes as the corpus model draws them
# (crates/corpus/src/session.rs): geometric with p = 1/2, here as a deck
# of 256 holding each size in proportion (the 1/256 of mass from size 9
# up on 9). The model's tail (1.5% of groups multiplied by 10-39) is
# left out: the paper's own totals, 2122 files in 1075 groups (1.97 a
# group), match the geometric part's mean of 2, not the 2.7 the tail
# makes; and the tail holds about a quarter of all files in a few
# groups, so the handful a run reaches would set its figures by which
# programs they repeat.
GROUP_SIZES = [s for s, n in zip(range(1, 10), [128, 64, 32, 16, 8, 4, 2, 1, 1]) for _ in range(n)]
# Assumptions; the paper only says a group's files are time-adjacent
# and share a fault. Resubmissions are identical (as the repo's load
# generator replays them), comment-only, or an edit away from the
# fault, equally often give or take; most groups end in the fix.
RESUBMISSIONS = ["same"] * 4 + ["comment"] * 3 + ["edit"] * 3
FIXED = [True] * 7 + [False] * 3


class Generator:
    """Deterministic program stream for one seed.

    Every choice that sets a program's cost (which fault, where in the
    file, how many faults, session length, kind of resubmission) is
    dealt from a deck the seed shuffles, refilled when empty, so every
    seed yields the same mix and runs differ in order and detail, not in
    proportions."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.serial = 0
        self.decks = {}

    def _tag(self):
        self.serial += 1
        return f"k{self.serial:x}"

    def _deal(self, name, cards):
        deck = self.decks.setdefault(name, [])
        if not deck:
            deck.extend(cards)
            self.rng.shuffle(deck)
        return deck.pop()

    def _faulty_instance(self, second_fault, template=None):
        """The fault is dealt from all templates' faults, or from
        `template`'s own when it is given."""
        if template is None:
            t, f = self._deal("fault", FAULTS)
        else:
            t, f = template, self._deal(("fault", template), range(len(TEMPLATES[template][2])))
        faults = [f]
        table = TEMPLATES[t][2]
        if second_fault:
            others = [g for g in range(len(table)) if table[g][0] != table[f][0]]
            faults.append(self.rng.choice(others))
        return Instance(t, self._tag(), faults, self.rng)

    def small(self):
        """One homework problem: a single template, one fault, or two
        independent faults a quarter of the time (what triage is for)."""
        return Program([self._faulty_instance(self._deal("double", DOUBLE))])

    def paper_sized(self, parts):
        """A whole homework file of `parts` problems (the paper's files
        ran 100-200 lines) with one faulty problem, or two a quarter of
        the time. A search's cost grows tenfold from a first fault in the
        first problem to one in the last, and depends on the faulty
        problem's template, so both are dealt: the first fault's position
        from a deck per count of faults, and each faulty position's
        template from a deck of its own, so a run's few hundred files
        pair positions with templates in nearly the same proportions on
        every seed. A second fault goes anywhere after the first."""
        if self._deal("double", DOUBLE):
            first = self._deal("position2", range(parts - 1))
            faulty = {first, self.rng.randrange(first + 1, parts)}
        else:
            first = self._deal("position", range(parts))
            faulty = {first}
        templates = range(len(TEMPLATES))
        instances = [self._faulty_instance(False, self._deal(("template", len(faulty), k), templates))
                     if k in faulty
                     else Instance(self._deal("filler", templates), self._tag(), [], self.rng)
                     for k in range(parts)]
        return Program(instances, header="(* homework submission *)")

    def session(self):
        """One Figure 6 recompile session over a small problem: the
        first submission, then resubmissions that are identical (40%),
        differ only in comments (30%), or edit a literal in an unrelated
        declaration (30%); 70% of sessions end with the student's fix."""
        prog = self.small()
        out = [prog]
        for k in range(1, self._deal("size", GROUP_SIZES)):
            kind = self._deal("resubmit", RESUBMISSIONS)
            inst = prog.instances[0]
            clean = [d for d in range(len(inst.decls)) if d not in inst.faulty and inst.literals[d]]
            if kind == "comment":
                prog = Program(prog.instances, header=f"(* attempt {k + 1} *)")
            elif kind == "edit" and clean:
                prog = Program([inst.redraw(self.rng, self.rng.choice(clean))], prog.header)
            out.append(prog)
        if self._deal("fix", FIXED):
            out.append(Program([prog.instances[0].fixed()], prog.header))
        return out
