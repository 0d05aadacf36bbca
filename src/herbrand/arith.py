"""Decision procedure for the first-order theory of zero, successor and
equality: quantifier elimination into a quantifier-free normal form, and
the derivability criterion "the normal form of the negation is 0 != 0".

Terms over this signature always have the shape S^k(0) or S^k(x), which
the whole module exploits: a literal is a pair of (offset, base) sides.
"""

from __future__ import annotations

from typing import Optional

from . import sat
from .syntax import (
    And,
    App,
    Atom,
    EQ,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PLAIN_FUNCTION,
    QUANT,
    Symbol,
    Term,
    Var,
    ZERO,
    children,
    free_vars,
    subformulas,
    with_children,
    _joined,
)

S = Symbol("S", 1, PLAIN_FUNCTION)


class NotArithmeticError(Exception):
    """A symbol outside the 0/S/= signature."""


class FreeVariableError(Exception):
    """decide needs a closed sentence."""


TRUE = Atom(EQ, (App(ZERO), App(ZERO)))
FALSE = Not(TRUE)


def s_term(k: int, base: Optional[str]) -> Term:
    t: Term = Var(base) if base is not None else App(ZERO)
    for _ in range(k):
        t = App(S, (t,))
    return t


def peel(t: Term) -> tuple[int, Optional[str]]:
    """Decompose S^k(0) or S^k(x) into (k, base); base None for 0."""
    k = 0
    while isinstance(t, App) and t.sym == S:
        k += 1
        t = t.args[0]
    if isinstance(t, Var):
        return k, t.name
    if isinstance(t, App) and t.sym == ZERO:
        return k, None
    head = t.sym.name if isinstance(t, App) else t
    raise NotArithmeticError(f"term head {head!r} outside the 0/S signature")


def validate(f: Formula) -> None:
    for _, g in subformulas(f):
        if isinstance(g, Atom):
            if g.pred != EQ:
                raise NotArithmeticError(
                    f"predicate {g.pred.name!r} outside the 0/S/= signature"
                )
            for t in g.args:
                peel(t)


# literals are ((a, u), (b, v), positive): S^a(u) = / != S^b(v)
Side = tuple[int, Optional[str]]
Lit = tuple[Side, Side, bool]


def _norm_lit(lit: Lit) -> object:
    """Cancel successors and decide the trivial cases.

    Returns True, False, or a canonically oriented literal.  After
    cancellation, same-base sides are decided by the offsets (this
    covers S^k(0) = 0 and S^k(x) = x), and a variable side with a
    positive offset never equals zero.
    """
    (a, u), (b, v), pos = lit
    cancel = min(a, b)
    a, b = a - cancel, b - cancel
    if u == v:
        return (a == b) == pos
    if u is None and a == 0 and b > 0:
        return not pos  # 0 = S^b(v) with v a variable
    if v is None and b == 0 and a > 0:
        return not pos  # S^a(u) = 0 with u a variable
    left, right = (a, u), (b, v)
    if _side_key(left) > _side_key(right):
        left, right = right, left
    return (left, right, pos)


def _side_key(side: Side):
    k, base = side
    return (base is None, base or "", k)


def _lit_formula(lit: Lit) -> Formula:
    (a, u), (b, v), pos = lit
    atom = Atom(EQ, (s_term(a, u), s_term(b, v)))
    return atom if pos else Not(atom)


def _dnf_lits(f: Formula, sign: bool = True) -> list[list[Lit]]:
    """DNF of a quantifier-free formula (of ~f when sign is False) as
    literal lists: the ⊆-minimal cnf clauses of its negation, each sign
    flipped (a conjunct that contains another is absorbed by it)."""
    return [
        [(peel(a.args[0]), peel(a.args[1]), not s) for s, a in c]
        for c in sat._clauses(f, not sign)
    ]


def _eliminate_exists(var: str, conjunct: list[Lit]) -> Optional[list[Lit]]:
    """Literals equivalent to ?var over the conjunct, or None when the
    conjunct is contradictory."""
    work: list[Lit] = []
    for lit in conjunct:
        n = _norm_lit(lit)
        if n is True:
            continue
        if n is False:
            return None
        work.append(n)

    def mentions(lit: Lit) -> bool:
        return lit[0][1] == var or lit[1][1] == var

    pivot = next((l for l in work if mentions(l) and l[2]), None)
    if pivot is None:
        # only disequations constrain var: an infinite domain always has
        # a value avoiding finitely many exclusions
        return [l for l in work if not mentions(l)]

    work.remove(pivot)
    (a, u), (b, v), _ = pivot
    if u == var:
        d, (c, other) = a, (b, v)
    else:
        d, (c, other) = b, (a, u)

    out: list[Lit] = []
    # the pivot S^d(var) = S^c(other) itself: solvable for var exactly
    # when the other side reaches offset d
    if c < d:
        if other is None:
            return None  # S^d(var) = S^c(0) with c < d has no solution
        for j in range(d - c):
            out.append(((0, other), (j, None), False))
    # rewrite every other literal mentioning var: pad both sides of the
    # literal or of the pivot until the var occurrences coincide, then
    # substitute the pivot's other side (normalized literals never carry
    # var on both sides)
    for lit in work:
        if not mentions(lit):
            out.append(lit)
            continue
        (la, lu), (lb, lv), pos = lit
        if lu == var:
            e, rest = la, (lb, lv)
        else:
            e, rest = lb, (la, lu)
        if e <= d:
            new = ((c, other), (rest[0] + (d - e), rest[1]), pos)
        else:
            new = ((c + (e - d), other), rest, pos)
        n = _norm_lit(new)
        if n is True:
            continue
        if n is False:
            return None
        out.append(n)
    return out


def _dnf_formula(conjuncts: list[list[Lit]]) -> Formula:
    """The disjunction of the conjunctions, each nested to the right:
    0 != 0 when there is no conjunct, 0 = 0 for an empty one."""
    disjuncts = [_joined(And, [_lit_formula(l) for l in c]) if c else TRUE for c in conjuncts]
    return _joined(Or, disjuncts) if disjuncts else FALSE


def _clean(conjuncts: list[list[Lit]]) -> list[list[Lit]]:
    """Normalize literals, drop refuted conjuncts, dedupe, sort."""
    def key(lit: Lit):
        return _side_key(lit[0]), _side_key(lit[1]), lit[2]

    out = {}  # each conjunct's sorted literals, kept once
    for c in conjuncts:
        lits = []
        for lit in c:
            n = _norm_lit(lit)
            if n is False:
                break
            if n is not True and n not in lits:
                lits.append(n)
        else:
            lits.sort(key=key)
            out.setdefault(tuple(lits), lits)
    return sorted(out.values(), key=lambda c: [key(l) for l in c])


def eliminate_quantifiers(f: Formula) -> Formula:
    """An equivalent quantifier-free formula with the same free
    variables, by innermost quantifier elimination."""
    validate(f)

    def neg(g: Formula) -> Formula:
        if g == TRUE:
            return FALSE
        if isinstance(g, Not):  # FALSE included
            return g.body
        return Not(g)

    def qe(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return g
        if isinstance(g, Not):
            return neg(qe(g.body))
        if isinstance(g, (And, Or, Implies, Iff)):
            return with_children(g, tuple(qe(k) for k in children(g)))
        if isinstance(g, Exists):
            return _exists(g.var, qe(g.body))
        if isinstance(g, Forall):
            return neg(_exists(g.var, neg(qe(g.body))))
        raise TypeError(f"not a formula: {g!r}")

    def _exists(var: str, body: Formula) -> Formula:
        eliminated = (_eliminate_exists(var, c) for c in _dnf_lits(body))
        return _dnf_formula(_clean([e for e in eliminated if e is not None]))

    return qe(f)


def _conjunct_satisfiable(conjunct: list[Lit]) -> bool:
    """Satisfiability over the naturals of a conjunction of literals:
    its variables are eliminated one at a time, in sorted order, and the
    ground literals left decide; complete for this signature."""
    work: Optional[list[Lit]] = conjunct
    variables = {base for lit in conjunct for _, base in lit[:2] if base is not None}
    for var in sorted(variables):
        work = _eliminate_exists(var, work)
        if work is None:
            return False
    return all(_norm_lit(lit) is True for lit in work)


def qf_normal_form(f: Formula) -> Formula:
    """Canonical disjunctive normal form of a quantifier-free formula:
    contradictory input collapses to 0 != 0 and valid input to 0 = 0.
    """
    validate(f)
    for _, g in subformulas(f):
        if isinstance(g, QUANT):
            raise ValueError("qf_normal_form expects a quantifier-free formula")
    conjuncts = _clean([c for c in _dnf_lits(f) if _conjunct_satisfiable(c)])
    if not conjuncts:
        return FALSE
    if not any(map(_conjunct_satisfiable, _dnf_lits(f, sign=False))):
        return TRUE
    return _dnf_formula(conjuncts)


def decide(sentence: Formula) -> str:
    """\"derivable\" or \"refutable\" for a closed sentence: derivable
    exactly when the eliminated sentence, which is ground, is true, that
    is, when some conjunct of its dnf has only true literals."""
    eliminated = eliminate_quantifiers(sentence)  # validates first
    if free_vars(sentence):
        raise FreeVariableError(
            f"decide needs a closed sentence; free: {sorted(free_vars(sentence))}"
        )
    conjuncts = _dnf_lits(eliminated)
    if any(all(_norm_lit(lit) is True for lit in c) for c in conjuncts):
        return "derivable"
    return "refutable"


# ---------------------------------------------------------------------------
# axioms and the bounded standard-model oracle


def axiom(tag: str) -> Formula:
    """Universal closures of the equality and successor axioms by tag:
    eq-refl, eq-sym, eq-trans, eq-subst, nat_1, nat_2, nat_3, and nat_k
    for k >= 4 meaning S^{k-3}(x) != x."""
    x, y, z = Var("x"), Var("y"), Var("z")

    def eq(a, b):
        return Atom(EQ, (a, b))

    if tag == "eq-refl":
        return Forall("x", eq(x, x))
    if tag == "eq-sym":
        return Forall("x", Forall("y", Implies(eq(x, y), eq(y, x))))
    if tag == "eq-trans":
        return Forall(
            "x",
            Forall(
                "y", Forall("z", Implies(And(eq(x, y), eq(y, z)), eq(x, z)))
            ),
        )
    if tag == "eq-subst":
        return Forall(
            "x", Forall("y", Implies(eq(x, y), eq(App(S, (x,)), App(S, (y,)))))
        )
    if tag == "nat_1":
        return Forall("x", Or(eq(x, App(ZERO)), Exists("y", eq(x, App(S, (y,))))))
    if tag == "nat_2":
        return Forall("x", Not(eq(App(S, (x,)), App(ZERO))))
    if tag == "nat_3":
        return Forall(
            "x",
            Forall("y", Implies(eq(App(S, (x,)), App(S, (y,))), eq(x, y))),
        )
    if tag.startswith("nat_"):
        k = int(tag[len("nat_"):])
        if k >= 4:
            return Forall("x", Not(eq(s_term(k - 3, "x"), x)))
    raise ValueError(f"unknown axiom tag {tag!r}")
