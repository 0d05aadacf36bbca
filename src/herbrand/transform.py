"""Formula-to-formula transformations: quantifier classification, Rules
of Passage, prenex and anti-prenex forms, relativization, and the outer
and inner Skolemized forms.

All operations are pure functions over rectified formulas.  Skolem
argument order is fixed left to right by binder occurrence so results
are reproducible.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    And,
    App,
    Atom,
    DELTA,
    Exists,
    Forall,
    Formula,
    GAMMA,
    Iff,
    Implies,
    Not,
    Or,
    PREDICATE,
    Position,
    QUANT,
    SKOLEM_CONSTANT,
    SKOLEM_FUNCTION,
    Subst,
    Symbol,
    Var,
    apply,
    children,
    expand_iff,
    formula_symbols,
    free_vars,
    fresh_name,
    is_rectified,
    polarity_at,
    print_formula,
    rectify,
    replace_at,
    subformula_at,
    subformulas,
    with_children,
    _IDENT_RE,
    _components,
    _print_symbol_name,
)


class PassageError(Exception):
    """The addressed subformula does not match the chosen equivalence."""


class GuardError(Exception):
    """Relativization guard is unusable for the given formula."""


def classify(f: Formula, at: Position) -> str:
    """Uniform-notation class of the node at `at`: alpha, beta, gamma or
    delta, determined by the connective and the position's polarity.
    """
    g = subformula_at(f, at)
    cls = _components(g, polarity_at(f, at))[0]
    if cls is None:
        raise ValueError(f"no classification for {print_formula(g)} at {at}")
    return cls


def is_gamma(q: Formula, sign: int) -> bool:
    return _components(q, sign)[0] == GAMMA


def is_delta(q: Formula, sign: int) -> bool:
    return _components(q, sign)[0] == DELTA


# ---------------------------------------------------------------------------
# Rules of Passage
#
#   (1)  ~!x. A        <->  ?x. ~A
#   (2)  ~?x. A        <->  !x. ~A
#   (3)  (!x. A) | B   <->  !x. (A | B)
#   (4)  B | !x. A     <->  !x. (B | A)
#   (5)  (?x. A) | B   <->  ?x. (A | B)
#   (6)  B | ?x. A     <->  ?x. (B | A)
#
# x must not occur free in B; when it does, the bound occurrences are
# renamed first.  Rules 3-6 also match the dual conjunction nodes, which
# are the images of the disjunction rules under the defined connectives.

PRENEX, ANTIPRENEX = "prenex", "anti-prenex"


def _contains_skolem(f: Formula) -> bool:
    return any(s.is_skolem for s in formula_symbols(f))


def passage(f: Formula, at: Position, rule: int, direction: str) -> Formula:
    """Rewrite the subformula at `at` by Rule of Passage 1..6.

    `direction` is "prenex" (left to right as listed) or "anti-prenex".
    The result is rectified.  Passage on formulas containing Skolem
    symbols is rejected: the variable side conditions lose their meaning
    below Skolem applications.
    """
    if not 1 <= rule <= 6:
        raise PassageError(f"rule index {rule} out of range 1..6")
    if direction not in (PRENEX, ANTIPRENEX):
        raise PassageError(f"direction must be {PRENEX!r} or {ANTIPRENEX!r}")
    if _contains_skolem(f):
        raise PassageError("Rules of Passage are not applied to Skolemized formulas")
    g = subformula_at(f, at)
    new = _passage_once(g, rule, direction)
    if new is None:
        raise PassageError(
            f"rule {rule} ({direction}) does not match {print_formula(g)}"
        )
    return rectify(replace_at(f, at, new))


def _passage_once(g: Formula, rule: int, direction: str):
    quant = (Forall, Exists, Forall, Forall, Exists, Exists)[rule - 1]
    if direction == PRENEX:
        if rule in (1, 2):
            if isinstance(g, Not) and isinstance(g.body, quant):
                q = g.body
                dual = Exists if isinstance(q, Forall) else Forall
                return dual(q.var, Not(q.body))
            return None
        if not isinstance(g, (Or, And)):
            return None
        side = 0 if rule in (3, 5) else 1
        qf = children(g)[side]
        other = children(g)[1 - side]
        if not isinstance(qf, quant):
            return None
        var, body = qf.var, qf.body
        if var in free_vars(other):
            var, body = _rename_binder(var, body, free_vars(g))
        pair = (body, other) if side == 0 else (other, body)
        return type(qf)(var, type(g)(*pair))
    # anti-prenex: right-to-left
    if rule in (1, 2):
        dual = Exists if rule == 1 else Forall
        if isinstance(g, dual) and isinstance(g.body, Not):
            ctor = Forall if rule == 1 else Exists
            return Not(ctor(g.var, g.body.body))
        return None
    if not isinstance(g, quant) or not isinstance(g.body, (Or, And)):
        return None
    side = 0 if rule in (3, 5) else 1
    kept = children(g.body)[side]
    other = children(g.body)[1 - side]
    var = g.var
    if var in free_vars(other):
        return None  # the variable is used by the unchanged operand
    if any(isinstance(q, QUANT) and q.var == var for _, q in subformulas(other)):
        # only a name collision with a binder inside the other operand:
        # rename the extracted quantifier for hygiene
        var, kept = _rename_binder(var, kept, free_vars(g.body) | {var})
    pair = (type(g)(var, kept), other) if side == 0 else (other, type(g)(var, kept))
    return type(g.body)(*pair)


def _rename_binder(var: str, body: Formula, avoid: set[str]):
    new = fresh_name(var, avoid | free_vars(body))
    return new, apply(Subst({var: Var(new)}), body)


def _first_applicable(f: Formula, direction: str):
    """Leftmost-outermost node where some rule applies; lowest rule first.
    The preorder of `subformulas` is the lexicographic order of positions."""
    for pos, g in subformulas(f):
        for rule in range(1, 7):
            if _passage_once(g, rule, direction) is not None:
                return pos, rule
    return None


def _passage_loop(f: Formula, direction: str) -> Formula:
    f = rectify(f)
    while True:
        hit = _first_applicable(f, direction)
        if hit is None:
            return f
        pos, rule = hit
        f = passage(f, pos, rule, direction)


def to_prenex(f: Formula) -> Formula:
    """Move all quantifiers to the front by repeatedly applying the
    leftmost-outermost applicable Rule of Passage in prenex direction.

    Expects a rectified formula over the primitive connectives; on
    inputs without applicable rules it is the identity.
    """
    return _passage_loop(f, PRENEX)


def to_antiprenex(f: Formula) -> Formula:
    """Move quantifiers inwards until no Rule of Passage applies in
    anti-prenex direction."""
    return _passage_loop(f, ANTIPRENEX)


# ---------------------------------------------------------------------------
# Skolemized forms


def _skolem_name(base: str, taken: set[str]) -> str:
    name = base + "*"
    k = 0
    while name in taken:
        k += 1
        name = f"{base}*{k}"
    taken.add(name)
    return name


def iff_expanded(f: Formula) -> Formula:
    """f as the Skolemizations read it: with its biconditionals expanded
    and the result rectified, or f itself when it has none.  Called on
    rectify(f), it names the binders as the prover's witnesses do."""
    if any(isinstance(g, Iff) for _, g in subformulas(f)):
        return rectify(expand_iff(f))
    return f


def _skolemize(f: Formula, inner: bool, table: Optional[dict] = None) -> Formula:
    f = iff_expanded(f)
    if not is_rectified(f):
        raise ValueError("skolemization expects a rectified formula")
    taken = {s.name for s in formula_symbols(f)}

    def go(g: Formula, sign: int, gammas: tuple[str, ...], sub: Subst) -> Formula:
        cls, parts = _components(g, sign)
        if cls is None:  # an atom: the biconditionals are expanded
            return apply(sub, g)
        if cls == DELTA:
            args = gammas
            if inner:
                scope_frees = free_vars(apply(sub, g.body))
                args = tuple(y for y in gammas if y in scope_frees)
            name = _skolem_name(g.var, taken)
            kind = SKOLEM_CONSTANT if not args else SKOLEM_FUNCTION
            sym = Symbol(name, len(args), kind)
            term = App(sym, tuple(Var(y) for y in args))
            if table is not None:
                table[g.var] = (sym, args)
            return go(g.body, sign, gammas, sub.bind(g.var, term))
        if cls == GAMMA:
            gammas += (g.var,)
        kids = []
        for k, s in parts:  # a loop, not a comprehension: one frame a level
            kids.append(go(k, s, gammas, sub))
        return with_children(g, tuple(kids))

    return go(f, 1, (), Subst())


def skolemize_outer(f: Formula, table: Optional[dict] = None) -> Formula:
    """Remove every delta-quantifier, replacing its bound variable x by
    x*(y1..ym) where y1..ym are all enclosing gamma-variables in left to
    right binding order.  Gamma-quantifiers are untouched.

    A `table` given is filled in the same pass: each delta-bound
    variable maps to its (Skolem symbol, gamma-argument names).
    """
    return _skolemize(f, inner=False, table=table)


def skolemize_inner(f: Formula) -> Formula:
    """Like skolemize_outer, but each Skolem term only takes the
    enclosing gamma-variables that actually occur in the quantifier's
    scope (outermost delta first, so Skolem terms introduced higher up
    count as occurrences).
    """
    return _skolemize(f, inner=True)


def relativize(f: Formula, guard: Symbol) -> Formula:
    """Restrict every quantifier to `guard`: !x. A becomes
    !x. (guard(x) -> A) and ?x. A becomes ?x. (guard(x) & A).
    """
    if guard.kind != PREDICATE or guard.arity != 1:
        raise GuardError("the guard must be a unary predicate")
    if not _IDENT_RE.fullmatch(guard.name):
        raise GuardError(f"guard {guard.name!r} is not an identifier")
    # by spelling: a symbol of another arity or kind would not re-read
    if guard.name in {_print_symbol_name(s) for s in formula_symbols(f)}:
        raise GuardError(f"guard {guard.name} already occurs in the formula")

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return g
        if isinstance(g, Forall):
            return Forall(g.var, Implies(Atom(guard, (Var(g.var),)), go(g.body)))
        if isinstance(g, Exists):
            return Exists(g.var, And(Atom(guard, (Var(g.var),)), go(g.body)))
        return with_children(g, tuple(go(k) for k in children(g)))

    return go(f)
