"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random

from herbrand import sat
from herbrand.arith import S, ZERO, peel, validate
from herbrand.expansion import FiniteStructure
from herbrand.sat import atom_key
from herbrand.syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PREDICATE,
    QUANT,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    children,
    expand_iff,
    formula_symbols,
    free_vars,
    parse,
    print_formula,
    subformulas,
    term_vars,
    with_children,
)

P1 = Symbol("P", 1, PREDICATE)
Q1 = Symbol("Q", 1, PREDICATE)
R2 = Symbol("R", 2, PREDICATE)
CONST_A = Symbol("a", 0)
CONST_B = Symbol("b", 0)
FUN_F = Symbol("f", 1)
FUN_G = Symbol("g", 2)


def random_term(rng: random.Random, vars_: list[str], depth: int,
                funcs=(CONST_A, CONST_B, FUN_F)) -> Term:
    choices = ["var"] * len(vars_) + ["fn"]
    if depth == 0:
        nullary = [f for f in funcs if f.arity == 0]
        if vars_ and (not nullary or rng.random() < 0.6):
            return Var(rng.choice(vars_))
        return App(rng.choice(nullary))
    kind = rng.choice(choices)
    if kind == "var" and vars_:
        return Var(rng.choice(vars_))
    sym = rng.choice(list(funcs))
    return App(sym, tuple(random_term(rng, vars_, depth - 1, funcs)
                          for _ in range(sym.arity)))


def random_clause(rng: random.Random, vars_: list[str], size: int,
                  preds=(P1, Q1, R2), funcs=(CONST_A, CONST_B, FUN_F)) -> frozenset:
    """Up to `size` signed atoms (sign, Atom) over shallow random terms."""
    literals = set()
    for _ in range(size):
        pred = rng.choice(list(preds))
        args = tuple(random_term(rng, vars_, rng.randrange(0, 3), funcs)
                     for _ in range(pred.arity))
        literals.add((rng.random() < 0.5, Atom(pred, args)))
    return frozenset(literals)


def random_formula(
    rng: random.Random,
    depth: int,
    vars_: list[str],
    preds=(P1, Q1),
    funcs=(CONST_A,),
    allow_iff: bool = False,
) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        pred = rng.choice(list(preds))
        args = tuple(random_term(rng, vars_, 1, funcs) for _ in range(pred.arity))
        return Atom(pred, args)
    kinds = ["not", "and", "or", "imp", "all", "ex"]
    if allow_iff:
        kinds.append("iff")
    kind = rng.choice(kinds)
    if kind == "not":
        return Not(random_formula(rng, depth - 1, vars_, preds, funcs, allow_iff))
    if kind in ("and", "or", "imp", "iff"):
        ctor = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[kind]
        return ctor(
            random_formula(rng, depth - 1, vars_, preds, funcs, allow_iff),
            random_formula(rng, depth - 1, vars_, preds, funcs, allow_iff),
        )
    v = f"q{len(vars_)}"
    ctor = Forall if kind == "all" else Exists
    return ctor(v, random_formula(rng, depth - 1, vars_ + [v], preds, funcs, allow_iff))


# atoms that print alike must be one propositional variable, whatever
# object carries them; P(x) holds a free variable
QF_ATOMS = ("P(a)", "P(f(b))", "P(x)", "Q(a)", "R(a, f(a))", "R(f(a), a)")


def random_qf(rng: random.Random, depth: int) -> Formula:
    """Random quantifier-free formula with every connective, Iff and
    Implies included, over a few atoms.  Each occurrence of an atom is a
    new object (equal to the others, not identical) unless it reuses the
    one before it, which happens one time in four."""
    made: dict = {}

    def leaf() -> Formula:
        text = rng.choice(QF_ATOMS)
        if text not in made or rng.random() >= 0.25:
            made[text] = parse(text, frees={"x"})
        return made[text]

    def go(d: int) -> Formula:
        if d == 0 or rng.random() < 0.25:
            return leaf()
        kind = rng.randrange(5)
        if kind == 0:
            return Not(go(d - 1))
        ctor = (And, Or, Implies, Iff)[kind - 1]
        return ctor(go(d - 1), go(d - 1))

    return go(depth)


def iff_tree(leaves: tuple[str, str, str], depth: int) -> str:
    """`?x.` over a balanced Iff tree of the given depth, leaf i the atom
    `leaves[i mod 3]`, as formula text.  At depth 4 the cnf of its
    negated matrix multiplies out to 14,868,736 clauses."""
    atoms = [parse(t) for t in leaves]

    def tree(depth: int, i: int = 0) -> Formula:
        if depth == 0:
            return atoms[i % 3]
        return Iff(tree(depth - 1, 2 * i), tree(depth - 1, 2 * i + 1))

    return f"?x. ({print_formula(tree(depth))})"


def reference_nnf(f: Formula, sign: bool) -> Formula:
    """Negation normal form with Iff expanded, out of And/Or/Not-atom: the
    NNF pass of the clausifiers that `sat._clauses` replaced."""
    if isinstance(f, Atom):
        return f if sign else Not(f)
    if isinstance(f, Not):
        return reference_nnf(f.body, not sign)
    if isinstance(f, Iff):
        return reference_nnf(
            And(Implies(f.left, f.right), Implies(f.right, f.left)), sign
        )
    if isinstance(f, Implies):
        f = Or(Not(f.left), f.right)
    if isinstance(f, Or):
        ctor = Or if sign else And
        return ctor(reference_nnf(f.left, sign), reference_nnf(f.right, sign))
    if isinstance(f, And):
        ctor = And if sign else Or
        return ctor(reference_nnf(f.left, sign), reference_nnf(f.right, sign))
    raise TypeError(f"not quantifier-free: {f!r}")


def multiplied_out(f: Formula, sign: bool = True) -> list[list]:
    """The cnf clauses of f (of ~f when sign is False) by distribution
    over `reference_nnf`, literals as (sign, Atom), nothing dropped: the
    clauses that `sat._clauses` gave before it pruned."""

    def go(g: Formula) -> list[list]:
        if isinstance(g, Atom):
            return [[(True, g)]]
        if isinstance(g, Not):
            return [[(False, g.body)]]
        left, right = go(g.left), go(g.right)
        if isinstance(g, Or):
            return [a + b for a in left for b in right]
        return left + right

    return go(reference_nnf(f, sign))


def truth_table_tautology(f: Formula) -> bool:
    """Independent truth-table oracle over the atom keys."""
    atoms = sorted({atom_key(g) for g in _atoms(f)})

    def ev(g: Formula, row: dict) -> bool:
        if isinstance(g, Atom):
            return row[atom_key(g)]
        if isinstance(g, Not):
            return not ev(g.body, row)
        if isinstance(g, And):
            return ev(g.left, row) and ev(g.right, row)
        if isinstance(g, Or):
            return ev(g.left, row) or ev(g.right, row)
        if isinstance(g, Implies):
            return (not ev(g.left, row)) or ev(g.right, row)
        if isinstance(g, Iff):
            return ev(g.left, row) == ev(g.right, row)
        raise TypeError(g)

    for bits in itertools.product((False, True), repeat=len(atoms)):
        if not ev(f, dict(zip(atoms, bits))):
            return False
    return True


def eval_standard(f: Formula, bound: int, env: dict | None = None) -> bool:
    """Truth of a 0/S/= formula over the naturals with every quantifier
    bounded by 0..bound: a flat-bound oracle, blind to witnesses above
    the bound (see `eval_nat` for the exact evaluator)."""

    def term_value(t: Term, e: dict) -> int:
        k, base = peel(t)
        return k if base is None else k + e[base]

    def go(g: Formula, e: dict) -> bool:
        if isinstance(g, Atom):
            return term_value(g.args[0], e) == term_value(g.args[1], e)
        if isinstance(g, Not):
            return not go(g.body, e)
        if isinstance(g, And):
            return go(g.left, e) and go(g.right, e)
        if isinstance(g, Or):
            return go(g.left, e) or go(g.right, e)
        if isinstance(g, Implies):
            return (not go(g.left, e)) or go(g.right, e)
        if isinstance(g, Iff):
            return go(g.left, e) == go(g.right, e)
        if isinstance(g, Forall):
            return all(go(g.body, {**e, g.var: n}) for n in range(bound + 1))
        if isinstance(g, Exists):
            return any(go(g.body, {**e, g.var: n}) for n in range(bound + 1))
        raise TypeError(f"not a formula: {g!r}")

    return go(f, dict(env or {}))


def _atoms(f: Formula):
    if isinstance(f, Atom):
        yield f
        return
    for k in children(f):
        yield from _atoms(k)


def random_structure(
    rng: random.Random, f: Formula, size: int
) -> FiniteStructure:
    """A random total structure interpreting every symbol of f."""
    domain = tuple(f"e{i}" for i in range(size))
    fn_tables: dict = {}
    pred_tables: dict = {}
    for sym in sorted(formula_symbols(f), key=lambda s: (s.name, s.arity)):
        if sym.kind == PREDICATE:
            table = {
                args: rng.random() < 0.5
                for args in itertools.product(domain, repeat=sym.arity)
            }
            pred_tables[(sym.name, sym.arity)] = table
        else:
            table = {
                args: rng.choice(domain)
                for args in itertools.product(domain, repeat=sym.arity)
            }
            fn_tables[(sym.name, sym.arity)] = table
    var_env = {v: rng.choice(domain) for v in free_vars(f) | {"l"}}
    return FiniteStructure(domain, fn_tables, pred_tables, var_env)


def all_structures(f: Formula, size: int):
    """Every structure of the given size for f's (small) signature.

    Only practical for a couple of unary predicates and constants; used
    for exhaustive semantic-equivalence checks.
    """
    domain = tuple(f"e{i}" for i in range(size))
    preds = sorted(
        (s for s in formula_symbols(f) if s.kind == PREDICATE),
        key=lambda s: (s.name, s.arity),
    )
    funcs = sorted(
        (s for s in formula_symbols(f) if s.kind != PREDICATE),
        key=lambda s: (s.name, s.arity),
    )
    frees = sorted(free_vars(f))

    pred_spaces = []
    for sym in preds:
        cells = list(itertools.product(domain, repeat=sym.arity))
        tables = [
            dict(zip(cells, bits))
            for bits in itertools.product((False, True), repeat=len(cells))
        ]
        pred_spaces.append(tables)
    fn_spaces = []
    for sym in funcs:
        cells = list(itertools.product(domain, repeat=sym.arity))
        tables = [
            dict(zip(cells, values))
            for values in itertools.product(domain, repeat=len(cells))
        ]
        fn_spaces.append(tables)
    env_space = [dict(zip(frees, values))
                 for values in itertools.product(domain, repeat=len(frees))]

    for pred_choice in itertools.product(*pred_spaces) if pred_spaces else [()]:
        for fn_choice in itertools.product(*fn_spaces) if fn_spaces else [()]:
            for env in env_space or [{}]:
                yield FiniteStructure(
                    domain,
                    {
                        (sym.name, sym.arity): table
                        for sym, table in zip(funcs, fn_choice)
                    },
                    {
                        (sym.name, sym.arity): table
                        for sym, table in zip(preds, pred_choice)
                    },
                    dict(env),
                )


# ---------------------------------------------------------------------------
# helpers that only the tests use


def dnf(f: Formula) -> sat.ClauseSet:
    """The dnf of a quantifier-free formula, its clauses read as
    conjunctions: the cnf of ~f with every literal negated."""
    cs = sat.cnf_of_negation(f)
    return sat.ClauseSet(
        tuple(sorted(tuple(sorted(lit ^ 1 for lit in c)) for c in cs.clauses)), cs.names
    )


def keyed(clauses, names=None) -> list:
    """Numbered clauses read back as frozensets of (key, sign) literals,
    in the order given: a `sat.ClauseSet`'s, or `clauses` numbered over
    the atoms `names` (as `ground_clauses` returns them, say)."""
    if names is None:
        clauses, names = clauses.clauses, clauses.names
    names = tuple(names)
    return [frozenset((names[lit >> 1], not (lit & 1)) for lit in c) for c in clauses]


def formula_size(f: Formula) -> int:
    """Node count of the formula tree including term nodes."""

    def term_nodes(t: Term) -> int:
        if isinstance(t, Var):
            return 1
        return 1 + sum(term_nodes(a) for a in t.args)

    if isinstance(f, Atom):
        return 1 + sum(term_nodes(t) for t in f.args)
    return 1 + sum(formula_size(k) for k in children(f))


def is_idempotent(sigma: Subst) -> bool:
    """No variable bound by sigma occurs in a term it binds."""
    bound = {v for v, _ in sigma.items()}
    return all(not (term_vars(t) & bound) for _, t in sigma.items())


def is_prenex(f: Formula) -> bool:
    g = f
    while isinstance(g, QUANT):
        g = g.body
    return all(not isinstance(sub, QUANT) for _, sub in subformulas(g))


def to_primitive(f: Formula) -> Formula:
    """Rewrite ->, & and <-> in terms of ~ and |; quantifiers stay."""
    f = expand_iff(f)

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return g
        if isinstance(g, Implies):
            return Or(Not(go(g.left)), go(g.right))
        if isinstance(g, And):
            return Not(Or(Not(go(g.left)), Not(go(g.right))))
        return with_children(g, tuple(go(k) for k in children(g)))

    return go(f)


def induction_instance(body: Formula, var: str) -> Formula:
    """The structural-induction scheme instantiated with a
    quantifier-free formula: body(0) and every step implies all of body.
    """
    validate(body)
    for _, g in subformulas(body):
        if isinstance(g, QUANT):
            raise ValueError("the scheme takes a quantifier-free formula")
    base = apply(Subst({var: App(ZERO)}), body)
    fresh = "y" if var != "y" else "y0"
    stepped = apply(Subst({var: App(S, (Var(fresh),))}), body)
    hypothesis = apply(Subst({var: Var(fresh)}), body)
    step = Forall(fresh, Implies(hypothesis, stepped))
    return Implies(And(base, step), Forall(var, body))


def eval_nat(f: Formula, slack: int = 0, env: dict | None = None) -> bool:
    """Exact truth over the naturals by bounded evaluation with
    value-relative quantifier ranges.

    A flat bound on every quantifier cannot decide this theory (for
    every B, `!x. ?y. y = S(x)` fails at x = B although it holds on the
    naturals).  Instead each quantifier ranges up to max(values in the
    environment, offsets in the formula) + delta, where delta exceeds
    every successor offset: any larger witness is indistinguishable from
    that one, so the evaluation is a decision procedure.  `slack` widens
    every range, which lets tests validate stability.
    """
    validate(f)
    delta = 1 + max(
        (peel(t)[0] for _, g in subformulas(f) if isinstance(g, Atom) for t in g.args),
        default=0,
    )

    def go(g: Formula, e: dict) -> bool:
        if isinstance(g, Atom):
            return _value(g.args[0], e) == _value(g.args[1], e)
        if isinstance(g, Not):
            return not go(g.body, e)
        if isinstance(g, And):
            return go(g.left, e) and go(g.right, e)
        if isinstance(g, Or):
            return go(g.left, e) or go(g.right, e)
        if isinstance(g, Implies):
            return (not go(g.left, e)) or go(g.right, e)
        if isinstance(g, Iff):
            return go(g.left, e) == go(g.right, e)
        if isinstance(g, (Forall, Exists)):
            top = max([delta] + list(e.values())) + delta + slack
            values = range(top + 1)
            if isinstance(g, Forall):
                return all(go(g.body, {**e, g.var: v}) for v in values)
            return any(go(g.body, {**e, g.var: v}) for v in values)
        raise TypeError(f"not a formula: {g!r}")

    def _value(t: Term, e: dict) -> int:
        k, base = peel(t)
        return k if base is None else k + e[base]

    return go(f, dict(env or {}))
