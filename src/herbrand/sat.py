"""Sentential cores: the one clausifier, the multiplication method, and
DPLL.

A quantifier-free first-order formula is read propositionally by keying
every atomic subformula on its canonical printed form; two atoms are the
same propositional variable exactly when they print identically.  Terms
headed by Skolem functions need no special treatment under this reading:
they are just part of the atom's spelling.

Literals are (key, sign) pairs; a clause is a frozenset of literals and a
ClauseSet is a cnf: a conjunction of such clauses.  `_clauses`, the one
clausifier of the package, works on (sign, Atom) literals before keying,
so `engine` and `arith` build their first-order clauses with it too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    print_formula,
)

Literal = tuple[str, bool]
Clause = frozenset  # of Literal


DEFAULT_BUDGET = 10**6


class QuantifierPresentError(Exception):
    """Raised when a sentential operation meets a quantifier."""


class BudgetExceededError(Exception):
    """The instance budget was hit; explicitly not a verdict."""


def atom_key(a: Atom) -> str:
    """The propositional variable of an atom: its printed form.  Nothing
    is kept between calls; `ground_clauses` keys each ground atom once."""
    return print_formula(a)


@dataclass(frozen=True)
class ClauseSet:
    clauses: frozenset  # of Clause, read as their conjunction


def _clauses(f: Formula, sign: bool = True, prune: bool = False) -> list[tuple]:
    """Cnf clauses of f (of ~f when sign is False) by naive distribution,
    literals as (sign, Atom), duplicates kept.

    The one clausifier of the package.  A conjunctive node lists its
    left side's clauses, then its right side's; a disjunctive node gives
    the product, left side major.  Iff is read as a conjunction of two
    implications, and A -> B as ~A | B.

    With `prune`, each product keeps only its ⊆-minimal clauses, each
    once: that keeps nested disjunctions over repeated atoms from
    multiplying out in full, and leaves the ⊆-minimal set at the root
    the same.  Conjunctions only concatenate, so pruning them would
    repeat work that one pruning at the root does.
    """
    if isinstance(f, Atom):
        return [((sign, f),)]
    if isinstance(f, Not):
        return _clauses(f.body, not sign, prune)
    if isinstance(f, Iff):
        both = And(Implies(f.left, f.right), Implies(f.right, f.left))
        return _clauses(both, sign, prune)
    if isinstance(f, Implies):
        left, right = _clauses(f.left, not sign, prune), _clauses(f.right, sign, prune)
        conjunctive = not sign
    elif isinstance(f, (And, Or)):
        left, right = _clauses(f.left, sign, prune), _clauses(f.right, sign, prune)
        conjunctive = isinstance(f, And) == sign
    else:
        raise QuantifierPresentError(
            f"not sentential: quantifier ?/! in {print_formula(f)}"
        )
    if conjunctive:
        return left + right
    product = [a + b for a in left for b in right]
    if prune and len(product) > 1:
        return [tuple(c) for c in _prune({frozenset(c) for c in product})]
    return product


def _keyed(clauses: list[tuple]) -> frozenset:
    """The ⊆-minimal clauses over atom keys."""
    return frozenset(_prune({frozenset((atom_key(a), s) for s, a in c) for c in clauses}))


def _prune(clauses: set[Clause]) -> set[Clause]:
    """The ⊆-minimal clauses, a unique set whatever the order of ties.

    Only a strictly shorter clause can subsume a distinct one, and it
    subsumes only clauses that contain the literal it is filed under;
    so each clause is tested only against the shorter kept clauses
    filed under one of its own literals.
    """
    if frozenset() in clauses:
        return {frozenset()}
    out = set()
    index: dict[Literal, list[Clause]] = {}
    same_length: list[Clause] = []  # kept, filed once a longer clause comes
    for c in sorted(clauses, key=len):
        if same_length and len(same_length[0]) < len(c):
            for kept in same_length:
                index.setdefault(next(iter(kept)), []).append(kept)
            same_length = []
        if not any(kept <= c for lit in c for kept in index.get(lit, ())):
            out.add(c)
            same_length.append(c)
    return out


def cnf(f: Formula) -> ClauseSet:
    return ClauseSet(_keyed(_clauses(f, prune=True)))


def cnf_of_negation(f: Formula) -> ClauseSet:
    return ClauseSet(_keyed(_clauses(f, False, prune=True)))


# ---------------------------------------------------------------------------
# the multiplication method


def _open_path(conjuncts: list[list[Literal]], budget: int) -> Optional[dict]:
    """A path through the conjuncts, one literal from each, without a
    complementary pair, as a dict of its literals; None when every path
    is closed.

    Depth first, shortest conjuncts first (ties by their literals, which
    `decide_negation` sorts), with an explicit cursor per conjunct, its
    literals in the given order.  A literal whose complement is on the
    path closes it and is passed over; a conjunct with a literal already
    on the path is absorbed, x(x + y) = x, and passed without branching,
    since any other pick only adds literals.  Each literal put on the
    path and each absorbed conjunct count one node against `budget`,
    past which BudgetExceededError is raised.
    """
    conjuncts = sorted(conjuncts, key=lambda c: (len(c), c))
    path: dict[str, bool] = {}
    tried = [0] * len(conjuncts)  # per conjunct: literals tried so far
    added: list = [None] * len(conjuncts)  # per conjunct: key it put on the path
    depth = nodes = 0
    while depth < len(conjuncts):
        literals = conjuncts[depth]
        i = tried[depth]
        if not i and any(path.get(key) == sign for key, sign in literals):
            tried[depth], added[depth] = len(literals), None  # absorbed
        else:
            while i < len(literals) and path.get(literals[i][0], literals[i][1]) != literals[i][1]:
                i += 1
            if i == len(literals):  # every pick here closes: back up one conjunct
                tried[depth] = 0
                depth -= 1
                if depth < 0:
                    return None
                if added[depth] is not None:
                    del path[added[depth]]
                continue
            key, sign = literals[i]
            path[key] = sign
            tried[depth], added[depth] = i + 1, key
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"path search exceeded the budget of {budget} nodes")
        depth += 1
    return path


# ---------------------------------------------------------------------------
# DPLL


def dpll(cs: ClauseSet) -> tuple[bool, Optional[dict[str, bool]]]:
    """Satisfiability of a cnf clause set.

    Unit propagation, pure-literal elimination, then splitting on the
    lowest atom key, positive branch first.  Deterministic: identical
    inputs give identical models.  Atoms left unconstrained are fixed to
    False so the model is total over the input's atoms.
    """
    if frozenset() in cs.clauses:
        return False, None
    keys = sorted({key for c in cs.clauses for key, _ in c})
    # the i-th lowest key is atom i: literal 2i when true, 2i + 1 when false
    number = {key: 2 * i for i, key in enumerate(keys)}
    values = _search(
        [[number[key] + (not sign) for key, sign in c] for c in cs.clauses],
        len(keys),
    )
    if values is None:
        return False, None
    return True, {key: value is True for key, value in zip(keys, values)}


def _search(clauses: list[list[int]], n: int) -> Optional[list]:
    """DPLL over atoms 0..n-1 (Davis, Logemann & Loveland), with counters
    and a trail of assigned literals instead of copied clause lists.

    Per clause it counts the true literals and the literals not false;
    per literal, the unsatisfied clauses containing it, which decides
    purity.  Units are propagated to fixpoint (confluent, so the queue
    order does not matter); then the lowest pure atom is set; then the
    lowest open atom is split on, True first, and a conflict undoes the
    trail to the last split whose False branch is untried.  The search
    stops as soon as every clause is satisfied.  Returns each atom's
    value (None when unassigned), or None when unsatisfiable.  No clause
    may be empty.
    """
    occurs: list[list[int]] = [[] for _ in range(2 * n)]
    for i, c in enumerate(clauses):
        for lit in c:
            occurs[lit].append(i)
    live = [len(o) for o in occurs]  # unsatisfied clauses containing a literal
    free = [len(c) for c in clauses]  # literals not false
    true = [0] * len(clauses)
    value: list = [None] * n
    trail: list[int] = []
    unsatisfied = len(clauses)
    units = [c[0] for c in clauses if len(c) == 1]

    def assign(lit: int) -> bool:
        """Make lit true and queue the units it leaves; True on conflict."""
        nonlocal unsatisfied
        value[lit >> 1] = not (lit & 1)
        trail.append(lit)
        for i in occurs[lit]:
            true[i] += 1
            if true[i] == 1:
                unsatisfied -= 1
                for other in clauses[i]:
                    live[other] -= 1
        conflict = False
        for i in occurs[lit ^ 1]:
            free[i] -= 1
            if not true[i]:
                if free[i] == 1:
                    units.append(next(x for x in clauses[i] if value[x >> 1] is None))
                elif not free[i]:
                    conflict = True
        return conflict

    def undo(length: int) -> None:
        nonlocal unsatisfied
        while len(trail) > length:
            lit = trail.pop()
            value[lit >> 1] = None
            for i in occurs[lit ^ 1]:
                free[i] += 1
            for i in occurs[lit]:
                true[i] -= 1
                if not true[i]:
                    unsatisfied += 1
                    for other in clauses[i]:
                        live[other] += 1

    splits: list[tuple[int, int]] = []  # (trail length, atom), False untried
    conflict = False
    while True:
        while units and not conflict:
            lit = units.pop()
            if value[lit >> 1] is None:
                conflict = assign(lit)
        if conflict:
            units.clear()
            if not splits:
                return None
            length, atom = splits.pop()
            undo(length)
            conflict = assign(2 * atom + 1)
            continue
        if not unsatisfied:
            return value
        # setting a pure atom only satisfies clauses, which may make
        # lower atoms pure: those join the heap
        pure = [
            v for v in range(n)
            if value[v] is None and (not live[2 * v]) != (not live[2 * v + 1])
        ]
        while pure:
            atom = heapq.heappop(pure)
            if value[atom] is not None or (not live[2 * atom]) == (not live[2 * atom + 1]):
                continue
            lit = 2 * atom + (not live[2 * atom])
            assign(lit)
            if not unsatisfied:
                return value
            for i in occurs[lit]:
                if true[i] == 1:
                    for other in clauses[i]:
                        if not live[other]:
                            heapq.heappush(pure, other >> 1)
        atom = next(v for v in range(n) if value[v] is None and live[2 * v])
        splits.append((len(trail), atom))
        conflict = assign(2 * atom)


# ---------------------------------------------------------------------------
# tautology entry point


def is_tautology(
    f: Formula, engine: str = "dpll"
) -> tuple[bool, Optional[dict[str, bool]]]:
    """Truth-functional validity of a quantifier-free formula.

    Returns (verdict, falsifying assignment when the verdict is False).
    The assignment maps atom keys, in sorted order, to truth values.
    """
    return decide_negation(cnf_of_negation(f).clauses, engine)


def decide_negation(
    clauses, engine: str = "dpll", budget: int = DEFAULT_BUDGET
) -> tuple[bool, Optional[dict[str, bool]]]:
    """Is the formula whose negation has the keyed cnf `clauses` a
    sentential tautology?  The one decision step of the package.

    The clauses are pruned to the ⊆-minimal ones here, once.  The dpll
    engine refutes them; the multiplication method searches the paths
    through the formula's dnf, whose conjuncts are the clauses with every
    literal negated, within `budget` nodes (`_open_path`).  Returns
    (verdict, falsifying assignment when the verdict is False), the
    assignment keyed as `is_tautology`'s; the multiplication method's
    falsifies the first open path found, and sets atoms off it False.
    """
    if engine not in ("dpll", "multiplication"):
        raise ValueError(f"unknown engine {engine!r}")
    clauses = _prune(set(clauses))
    if engine == "dpll":
        satisfiable, model = dpll(ClauseSet(frozenset(clauses)))
        return (False, model) if satisfiable else (True, None)
    path = _open_path([sorted((key, not sign) for key, sign in c) for c in clauses], budget)
    if path is None:
        return True, None
    atoms = sorted({key for c in clauses for key, _ in c})
    return False, {key: not path.get(key, True) for key in atoms}
