"""Sentential cores: the one clausifier, the multiplication method, and
DPLL.

A quantifier-free first-order formula is read propositionally by keying
every atomic subformula on its canonical printed form; two atoms are the
same propositional variable exactly when they print identically.  Terms
headed by Skolem functions need no special treatment under this reading:
they are just part of the atom's spelling.

Atom i of a clause set is the i-th lowest key, and a literal is an int:
2i when atom i is true, 2i + 1 when it is false, so `lit ^ 1` is its
complement (MiniSat's encoding); a clause is a sorted tuple of distinct
literals.  `_clauses`, the one clausifier of the package, works on
(sign, Atom) literals before keying, so `engine` and `arith` build their
first-order clauses with it too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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

Clause = tuple  # of int literals, ascending, each once


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
    """A cnf: the conjunction of its clauses, over the atoms `names`."""

    clauses: tuple  # of Clause
    names: tuple  # of str


def numbered(clauses: Iterable[Iterable[tuple[str, bool]]]) -> ClauseSet:
    """The clause set of clauses of (key, sign) literals, its clauses
    distinct and in ascending order."""
    clauses = [set(c) for c in clauses]
    names = tuple(sorted({key for c in clauses for key, _ in c}))
    number = {key: 2 * i for i, key in enumerate(names)}
    return ClauseSet(tuple(sorted({
        tuple(sorted(number[key] + (not sign) for key, sign in c)) for c in clauses
    })), names)


def _clauses(f: Formula, sign: bool = True) -> list[tuple]:
    """The ⊆-minimal cnf clauses of f (of ~f when sign is False), each
    once with its literals once, literals as (sign, Atom), clauses and
    literals in the order first met, so that the result does not follow
    the hash seed.

    The one clausifier of the package, by distribution: a conjunctive
    node lists its left side's clauses, then its right side's; a
    disjunctive node gives the product, left side major.  Iff is read as
    a conjunction of two implications, and A -> B as ~A | B.  Every
    product is pruned as it is formed, which keeps nested disjunctions
    over repeated atoms from multiplying out in full; conjunctions only
    concatenate, and one pruning at the root covers them.
    """
    clauses = _distributed(f, sign)
    # a literal's lone unit clause is minimal as it is; not hashing its
    # atom matters to arith, which clausifies many single atoms
    return clauses if len(clauses) == 1 == len(clauses[0]) else _first_minimal(clauses)


def _distributed(f: Formula, sign: bool) -> list[tuple]:
    """`_clauses` before the root is pruned."""
    if isinstance(f, Atom):
        return [((sign, f),)]
    if isinstance(f, Not):
        return _distributed(f.body, not sign)
    if isinstance(f, Iff):
        return _distributed(And(Implies(f.left, f.right), Implies(f.right, f.left)), sign)
    if isinstance(f, Implies):
        left, right = _distributed(f.left, not sign), _distributed(f.right, sign)
        conjunctive = not sign
    elif isinstance(f, (And, Or)):
        left, right = _distributed(f.left, sign), _distributed(f.right, sign)
        conjunctive = isinstance(f, And) == sign
    else:
        raise QuantifierPresentError(
            f"not sentential: quantifier ?/! in {print_formula(f)}"
        )
    if conjunctive:
        return left + right
    product = [a + b for a in left for b in right]
    return _first_minimal(product) if len(product) > 1 else product


def _first_minimal(clauses: list[tuple]) -> list[tuple]:
    """The ⊆-minimal clauses, each once with its literals once, clauses
    and literals in the order first met."""
    firsts: dict = {}  # each distinct literal set, to its first clause
    for c in clauses:
        firsts.setdefault(frozenset(c), c)
    minimal = _prune(firsts)
    return [c if len(c) == len(whole) else tuple(dict.fromkeys(c))
            for whole, c in firsts.items() if whole in minimal]


def _prune(clauses: Iterable) -> set:
    """The ⊆-minimal clauses, a unique set whatever the order of ties;
    each is a frozenset or a tuple of distinct literals, returned as is.

    Only a strictly shorter clause can subsume a distinct one, and it
    subsumes only clauses that contain the literal it is filed under;
    so each clause is tested only against the shorter kept clauses
    filed under one of its own literals.
    """
    out = set()
    index: dict = {}
    same_length: list = []  # kept, filed once a longer clause comes
    for c in sorted(clauses, key=len):
        if not c:
            return {c}
        if same_length and len(same_length[0]) < len(c):
            for kept in same_length:
                index.setdefault(next(iter(kept)), []).append(kept)
            same_length = []
        whole = frozenset(c)  # c itself when c is a frozenset
        if not any(whole.issuperset(kept) for lit in c for kept in index.get(lit, ())):
            out.add(c)
            same_length.append(c)
    return out


# ---------------------------------------------------------------------------
# the multiplication method


def _open_path(clauses: Iterable[Clause], budget: int) -> Optional[set]:
    """A path through the clauses, one literal from each, without a
    complementary pair, as the set of its literals; None when every path
    is closed.  Made true, its literals falsify the formula whose dnf has
    the clauses, every literal negated, as conjuncts.

    Depth first, shortest clauses first (ties by their literals), with an
    explicit cursor per clause.  A literal whose complement `lit ^ 1` is
    on the path closes it and is passed over; a clause with a literal
    already on the path is absorbed, x(x + y) = x, and passed without
    branching, since any other pick only adds literals.  Each literal put
    on the path and each absorbed clause count one node against `budget`,
    past which BudgetExceededError is raised.
    """
    clauses = sorted(clauses, key=lambda c: (len(c), c))
    path: set[int] = set()
    tried = [0] * len(clauses)  # per clause: literals tried so far
    added: list = [None] * len(clauses)  # per clause: literal it put on the path
    depth = nodes = 0
    while depth < len(clauses):
        literals = clauses[depth]
        i = tried[depth]
        if not i and not path.isdisjoint(literals):
            tried[depth], added[depth] = len(literals), None  # absorbed
        else:
            while i < len(literals) and literals[i] ^ 1 in path:
                i += 1
            if i == len(literals):  # every pick here closes: back up one clause
                tried[depth] = 0
                depth -= 1
                if depth < 0:
                    return None
                if added[depth] is not None:
                    path.remove(added[depth])
                continue
            path.add(literals[i])
            tried[depth], added[depth] = i + 1, literals[i]
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
    inputs give identical models.  The model maps each atom's name, in
    key order, to its value; atoms left unconstrained are False.
    """
    values = None if () in cs.clauses else _search(cs.clauses, len(cs.names))
    if values is None:
        return False, None
    return True, {name: value is True for name, value in zip(cs.names, values)}


def _search(clauses: Sequence[Clause], n: int) -> Optional[list]:
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
    cs = numbered([(atom_key(a), s) for s, a in c] for c in _clauses(f, False))
    return decide_negation(cs.clauses, cs.names, engine)


def decide_negation(
    clauses, names, engine: str = "dpll", budget: int = DEFAULT_BUDGET
) -> tuple[bool, Optional[dict[str, bool]]]:
    """Is the formula whose negation has the cnf `clauses`, over the
    atoms `names` in key order, a sentential tautology?  The one decision
    step of the package.

    The clauses are pruned to the ⊆-minimal ones here, once.  The dpll
    engine refutes them; the multiplication method searches the paths
    through the formula's dnf within `budget` nodes (`_open_path`).
    Returns (verdict, falsifying assignment when the verdict is False),
    the assignment keyed as `is_tautology`'s; the multiplication
    method's falsifies the first open path found, and sets atoms off it
    False.
    """
    if engine not in ("dpll", "multiplication"):
        raise ValueError(f"unknown engine {engine!r}")
    clauses, names = _prune(clauses), tuple(names)
    if engine == "dpll":
        satisfiable, model = dpll(ClauseSet(tuple(clauses), names))
        return (False, model) if satisfiable else (True, None)
    path = _open_path(clauses, budget)
    if path is None:
        return True, None
    return False, {name: 2 * v in path for v, name in enumerate(names)}
