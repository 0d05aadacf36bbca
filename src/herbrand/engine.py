"""Unification and the classic semi-decision procedures: the expansion
loop with the multiplication method, the same loop with a DPLL core, and
resolution with a given-clause saturation, plus the unification-guided
instance search backing Herbrand-complexity queries.

Resolution is positive resolution with negative selection, the binary
form of Robinson's positive hyperresolution ("Automatic deduction with
hyper-resolution", 1965): a clause with a negative literal resolves
only on one selected negative literal, so every resolvent has one
all-positive premise, and only all-positive clauses are factored.  With
tautology deletion and forward subsumption it is refutationally
complete (Bachmair & Ganzinger, "Resolution Theorem Proving", Handbook
of Automated Reasoning, 2001).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from . import sat
from .expansion import (
    BudgetExceededError,
    Grounding,
    HerbrandDisjunction,
    ground_clauses,
)
from .syntax import (
    App,
    Atom,
    LEXICON,
    Subst,
    Symbol,
    Term,
    Var,
    apply_term,
    apply,
    compose,
    height,
    print_formula,
    print_term,
    term_vars,
)

# ---------------------------------------------------------------------------
# unification by equation transformation


@dataclass(frozen=True)
class Unifier:
    status: str  # "success" | "clash" | "occurs"
    substitution: Subst = field(default_factory=Subst)
    offending: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.status == "success"


def unify(s, t, under: Optional[Subst] = None) -> Unifier:
    """Most general unifier of two terms or two atoms.

    Equation-transformation method: decompose applications, eliminate
    the first variable equation, swap so the variable is on the left,
    fail on symbol clash or occurs check.  The result is idempotent.
    `under` pre-applies an existing substitution to both sides.
    """
    if isinstance(s, Atom) or isinstance(t, Atom):
        if not (isinstance(s, Atom) and isinstance(t, Atom)):
            raise TypeError("cannot unify an atom with a term")
        if s.pred != t.pred:
            return Unifier("clash", offending=(s.pred.name, t.pred.name))
        eqs = list(zip(reversed(s.args), reversed(t.args)))
    else:
        eqs = [(s, t)]
    # a stack kept in reverse, so equations are still handled left to right
    sigma = under or Subst()
    if sigma:
        eqs = [(apply_term(sigma, a), apply_term(sigma, b)) for a, b in eqs]
    while eqs:
        a, b = eqs.pop()
        if a == b:
            continue
        if isinstance(a, App) and isinstance(b, App):
            if a.sym != b.sym:
                return Unifier("clash", offending=(a.sym.name, b.sym.name))
            eqs.extend(zip(reversed(a.args), reversed(b.args)))
            continue
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        # a is a variable
        if isinstance(b, App) and a.name in term_vars(b):
            return Unifier("occurs", offending=(a.name, print_term(b)))
        binding = Subst({a.name: b})
        sigma = compose(sigma, binding)
        eqs = [(apply_term(binding, x), apply_term(binding, y)) for x, y in eqs]
    return Unifier("success", sigma)


# ---------------------------------------------------------------------------
# clauses

Literal = tuple[bool, Atom]  # (sign, atom)

# Resolution gives up on a clause with a term higher than this.  Negative
# selection can build an f(f(...)) chain within a small step budget, and
# `apply_term`, `term_vars`, `_thaw` and the dataclass equality and
# hashing of terms recurse on term height.
TERM_HEIGHT_LIMIT = 64


@dataclass(frozen=True, eq=False)
class Clause:
    """A set of signed atoms with variables, plus a record of how it was
    made: an initial clause keeps its index, a renamed or factored
    clause its parent and substitution, a resolvent both parents and
    their most general unifier.  The provenance needed to read a
    Herbrand witness out of a refutation (one substitution of the
    original gamma-variables per initial-clause copy in the derivation
    tree) is rebuilt from these records by `rebuild_provenance`, only
    for the empty clause.  Equality is identity."""

    literals: frozenset
    index: Optional[int] = None  # of an initial clause
    parents: tuple = field(default=(), repr=False)
    sub: Subst = field(default_factory=Subst, repr=False)

    def __len__(self):
        return len(self.literals)

    def is_empty(self) -> bool:
        return not self.literals

    def variables(self) -> set[str]:
        out: set[str] = set()
        for _, atom in self.literals:
            for t in atom.args:
                out |= term_vars(t)
        return out

    def apply_sub(self, sub: Subst) -> "Clause":
        lits = frozenset((sign, apply(sub, atom)) for sign, atom in self.literals)
        return Clause(lits, parents=(self,), sub=sub)

    def is_tautology(self) -> bool:
        """Whether two of its literals print as an atom and its
        complement, the test of `sat.atom_key`."""
        printed = {(sign, print_formula(atom)) for sign, atom in self.literals}
        return any((not sign, p) in printed for sign, p in printed)

    def pretty(self, dual: bool = False) -> str:
        """The clause as a disjunction, or in the dual presentation as a
        conjunction of the literal complements."""
        if not self.literals:
            return "#" if dual else "[]"
        parts = sorted(
            ("~" if sign == dual else "") + print_formula(atom) for sign, atom in self.literals
        )
        return (" & " if dual else " | ").join(parts)


def standardize_apart(c: Clause, counter: Iterator[int]) -> Clause:
    # '@' keeps the fresh names outside the identifier grammar, so they
    # can never collide with user variables
    batch = next(counter)
    return c.apply_sub(Subst({
        v: Var(f"{v.split('@')[0]}@{batch}.{i}") for i, v in enumerate(sorted(c.variables()))
    }))


def resolve(c1: Clause, c2: Clause, l1: Literal, l2: Literal) -> Optional[Clause]:
    """Resolvent on the chosen literals, or None when they do not unify.

    The literals must be of opposite sign over the same predicate and
    the clauses standardized apart.
    """
    sign1, a1 = l1
    sign2, a2 = l2
    if sign1 == sign2 or a1.pred != a2.pred:
        raise ValueError("resolution needs opposite-sign literals of one predicate")
    u = unify(a1, a2)
    if not u.ok:
        return None
    sub = u.substitution
    # drop by equality: the chosen literals need not be the very objects
    rest = [l for l in c1.literals if l != l1] + [l for l in c2.literals if l != l2]
    lits = frozenset([(s, apply(sub, a)) for s, a in rest])
    return Clause(lits, parents=(c1, c2), sub=sub)


def factor(c: Clause, l1: Literal, l2: Literal) -> Optional[Clause]:
    """Binary factor collapsing two same-sign literals, or None."""
    sign1, a1 = l1
    sign2, a2 = l2
    if sign1 != sign2 or a1.pred != a2.pred or l1 == l2:
        raise ValueError("factoring needs two distinct same-sign literals")
    u = unify(a1, a2)
    if not u.ok:
        return None
    return c.apply_sub(u.substitution)


def _profile(c: Clause) -> Counter:
    """How many literals `c` has of each sign and predicate."""
    return Counter((sign, atom.pred) for sign, atom in c.literals)


def _subsumes(c: Clause, c_profile: Counter, d: Clause, d_profile: Counter) -> bool:
    """Whether some substitution of `c`'s variables maps every literal of
    `c` into `d` (θ-subsumption), where `c` has no more literals than `d`
    of any sign and predicate.  `d`'s variables stay fixed, so the two
    clauses may share variable names."""
    if len(c) > len(d) or any(d_profile[k] < n for k, n in c_profile.items()):
        return False
    targets: dict = {}
    for sign, atom in d.literals:
        targets.setdefault((sign, atom.pred), []).append(atom.args)
    todo = list(c.literals)
    # depth-first over one candidate image per literal, without recursion
    stack = [(0, {})]
    while stack:
        i, binding = stack.pop()
        if i == len(todo):
            return True
        sign, atom = todo[i]
        for args in targets[(sign, atom.pred)]:
            extended = _match(atom.args, args, binding)
            if extended is not None:
                stack.append((i + 1, extended))
    return False


def _match(pattern: tuple, target: tuple, binding: dict) -> Optional[dict]:
    """`binding` extended so that it maps the `pattern` terms onto the
    `target` terms, binding only pattern variables, or None."""
    binding = dict(binding)
    pairs = list(zip(pattern, target))
    while pairs:
        p, t = pairs.pop()
        if isinstance(p, Var):
            if binding.setdefault(p.name, t) != t:
                return None
        elif isinstance(t, App) and p.sym == t.sym:
            pairs.extend(zip(p.args, t.args))
        else:
            return None
    return binding


def _too_high(c: Clause) -> bool:
    """Whether some term of `c` is higher than TERM_HEIGHT_LIMIT."""
    return any(height(t) > TERM_HEIGHT_LIMIT for _, atom in c.literals for t in atom.args)


def rebuild_provenance(c: Clause) -> tuple:
    """The (initial_index, Subst over gamma vars) pairs of `c`'s
    derivation tree, rebuilt from the parent records.

    An initial clause contributes `(index, {})`; a derived clause
    composes every pair of its parents, in parent order, with its own
    substitution.  Each clause of the derivation DAG is visited once,
    with an explicit stack, so a deep derivation needs no recursion.
    """
    done: dict[int, tuple] = {}  # by clause identity
    stack = [c]
    while stack:
        top = stack[-1]
        if id(top) in done:
            stack.pop()
            continue
        if top.index is not None:
            done[id(top)] = ((top.index, Subst()),)
            stack.pop()
            continue
        pending = [p for p in top.parents if id(p) not in done]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        done[id(top)] = tuple(
            (idx, compose(theta, top.sub))
            for p in top.parents
            for idx, theta in done[id(p)]
        )
    return done[id(c)]


# ---------------------------------------------------------------------------
# proof attempt results


@dataclass(frozen=True)
class ProofResult:
    """A prover's verdict.  The order loop that ran out of orders also
    leaves its last order's `grounding`, which the falsifying structure
    reads."""

    found: bool
    method: str
    order: Optional[int] = None
    steps: int = 0
    witness: tuple = ()
    reason: str = ""
    trace: tuple = ()  # (kind, Clause or note) events
    grounding: Optional[Grounding] = field(default=None, compare=False, repr=False)

    @property
    def gave_up(self) -> bool:
        return not self.found


def _filled(image: Term, filler: Term) -> Term:
    """`image` with every variable replaced by `filler`."""
    return apply_term(Subst({v: filler for v in term_vars(image)}), image)


def _ground_residuals(sub: Subst, gamma_vars: Sequence[str]) -> Subst:
    """`sub` on the gamma-variables, each variable left (or unbound
    gamma-variable) grounded with the lexicon."""
    filler = Var(LEXICON)
    return Subst({y: _filled(sub.get(y) or Var(y), filler) for y in gamma_vars})


def prove_resolution(
    d: HerbrandDisjunction, step_budget: int = 2000, trace: bool = False
) -> ProofResult:
    """Refutation-side resolution with a fair given-clause loop.

    Starts from the clauses of the negated Skolemized matrix of `d`, a
    formula's Herbrand analysis at any order (no champ fini of it is read),
    its ⊆-minimal ones in the order first met; on reaching the empty
    clause, extracts one substitution of the gamma-variables per
    initial-clause copy from the provenance, grounds residual variables
    with the lexicon, and returns them as a Property C style witness.

    The calculus is positive resolution with negative selection.  In a
    clause with a negative literal only the first negative literal in
    resolution order (atoms by print, then sign) may resolve; an
    all-positive clause may resolve on every literal, and only such a
    clause is factored.  A clause's eligible literals are chosen once,
    when it is given, so each clause has one fixed selection, and every
    resolvent has an all-positive premise.  A new clause is dropped when
    it is a tautology or θ-subsumed by a kept clause (an initial or
    pushed one) with no more literals of any sign and predicate, which
    drops every renamed copy of a kept or dropped clause; nothing kept
    is ever deleted.
    Selection with positive factoring, tautology deletion and
    subsumption is refutationally complete, and the FIFO queue makes the
    loop fair, so every unsatisfiable clause set is refuted within some
    budget.

    `steps` counts resolution and factoring attempts: each pair of
    eligible literals of opposite sign (resolution) or of the same sign
    (factoring) over one predicate is one step, whether or not it
    unifies, and `step_budget` bounds them.  Exhausting the budget, a
    saturated clause set, or a new clause with a term higher than
    `TERM_HEIGHT_LIMIT` means gave-up, never invalid.  With `trace` the
    result's trace holds `(kind, payload)` events, each payload a Clause
    or a note.
    """
    gamma = d.gamma_vars
    # variables other than the gamma-variables (declared free ones) are
    # constants of the champ fini: frozen into constants of the same
    # spelling, neither renaming apart nor unification moves them; the
    # witness thaws them
    rigid = d.variables
    freeze = Subst({v: App(Symbol(v, 0)) for v in rigid})
    atoms = [apply(freeze, a) for a in d.atoms]
    initial = [
        Clause(frozenset((s, atoms[slot]) for s, slot, _ in literals), index=i)
        for i, (_, literals) in enumerate(d.plans)
    ]
    events = []

    def log(kind: str, payload) -> None:
        if trace:
            events.append((kind, payload))

    # propositional fast path: the clause set may already be unsat when
    # atoms are read as printed, a gamma-variable `y` as the boxed `[#y]`
    # that no constant spells; then one lexicon-grounding suffices
    opaque = Subst({y: Var(f"#{y}") for y in gamma})
    if sat.decide_negation(*ground_clauses(d, [opaque]))[0]:
        witness = (_ground_residuals(Subst(), gamma),)
        log("verdict", "proof-found 0 steps (propositionally closed)")
        return ProofResult(True, "resolution", steps=0, witness=witness, trace=tuple(events))

    counter = itertools.count()
    seq = itertools.count()
    # FIFO over the iteration a clause was produced in, clause size as
    # the tiebreak within one iteration: fair and deterministic
    passive: list[tuple[int, int, int, Clause]] = []
    # every initial or pushed clause, with its profile, for forward
    # subsumption; nothing is ever deleted from it
    kept: list[tuple[Clause, Counter]] = []
    for c in initial:
        heapq.heappush(passive, (0, len(c), next(seq), c))
        kept.append((c, _profile(c)))
        log("clause", c)
    # each given clause with its eligible literals in resolution order
    processed: list[tuple[Clause, list[Literal]]] = []
    steps = 0
    iteration = 0

    def gave_up(reason: str, note: str) -> ProofResult:
        log("verdict", f"gave-up ({note})")
        return ProofResult(False, "resolution", steps=steps, reason=reason, trace=tuple(events))

    while passive:
        iteration += 1
        _, _, _, given = heapq.heappop(passive)
        given = standardize_apart(given, counter)
        given_lits = sorted(given.literals, key=lambda l: (print_formula(l[1]), l[0]))
        negative = [l for l in given_lits if not l[0]]
        # selection: only the first negative literal, if there is one
        eligible = negative[:1] or given_lits

        # each attempt is (kind, premises): resolution against every
        # processed clause, then factoring, of an all-positive clause only
        resolutions = (("resolvent", (given, right, l1, l2))
                       for right, right_lits in processed for l1 in eligible for l2 in right_lits
                       if l1[0] != l2[0] and l1[1].pred == l2[1].pred)
        factorings = (("factor", (given, l1, l2))
                      for i, l1 in enumerate(() if negative else given_lits)
                      for l2 in given_lits[i + 1:] if l1[1].pred == l2[1].pred)
        new: list[Clause] = []
        for kind, premises in itertools.chain(resolutions, factorings):
            if steps >= step_budget:
                return gave_up("step budget exhausted", "budget")
            steps += 1
            c = (resolve if kind == "resolvent" else factor)(*premises)
            if c is None:
                continue
            if _too_high(c):
                return gave_up("term height limit", "term height")
            log(kind, c)
            if c.is_empty():
                witness = _extract_witness(c, gamma, rigid)
                log("verdict", f"proof-found {steps} steps")
                return ProofResult(
                    True, "resolution", steps=steps, witness=witness, trace=tuple(events)
                )
            new.append(c)
        processed.append((given, eligible))
        for c in new:
            if c.is_tautology():
                continue  # sound to drop: a tautologous clause never helps
            profile = _profile(c)
            if any(_subsumes(k, kp, c, profile) for k, kp in kept):
                continue
            heapq.heappush(passive, (iteration, len(c), next(seq), c))
            kept.append((c, profile))
    return gave_up("saturated without refutation", "saturated")


def _extract_witness(empty: Clause, gamma: Sequence[str], rigid: frozenset) -> tuple:
    subs = []
    for _idx, theta in rebuild_provenance(empty):
        grounded = _ground_residuals(theta, gamma)
        if grounded not in subs:
            subs.append(grounded)
    return tuple(Subst({y: _thaw(t, rigid) for y, t in s.items()}) for s in subs)


def _thaw(t: Term, rigid: frozenset) -> Term:
    """`t` with each constant named after a rigid variable made that
    variable again."""
    if isinstance(t, Var):
        return t
    if not t.args:
        return Var(t.sym.name) if t.sym.name in rigid else t
    return App(t.sym, tuple(_thaw(a, rigid) for a in t.args))


def prove_gilmore(d: HerbrandDisjunction, n_max: int, budget: int = 10**6) -> ProofResult:
    """Test Property C at orders 1..n_max of the analysis `d` with the
    multiplication method; report the first succeeding order."""
    return _order_loop(d, n_max, budget, "gilmore", "multiplication")


def prove_dp(d: HerbrandDisjunction, n_max: int, budget: int = 10**6) -> ProofResult:
    """The same order loop with the tautology test replaced by DPLL on
    the clause form of the negation.  Both decide the same order-n clause
    sets, so a multiplication-method proof is a DPLL proof at the same
    order."""
    return _order_loop(d, n_max, budget, "dp", "dpll")


def _order_loop(analysis, n_max, budget, method, engine) -> ProofResult:
    """Property C at orders 1..n_max, from one Herbrand analysis.  An
    order whose family has more than `budget` members, or whose champ
    fini has more than `budget` terms, ends the loop before its champ
    fini is built.  The witness is the family's first-producer cover:
    for each ground clause the odometer-first member yielding it, in
    odometer order.  It yields the family's clauses, and minimization
    keeps from it what it keeps from the family.  Running out of orders
    leaves the last order's grounding, with the DPLL model when the
    engine is DPLL."""

    def gave_up(reason: str, grounding: Optional[Grounding] = None) -> ProofResult:
        return ProofResult(False, method, reason=reason, grounding=grounding)

    def decided(n: int) -> tuple[bool, Grounding]:
        # a function of its own, so no local of the loop keeps the clauses
        d = analysis.at_order(n, budget)
        clauses, atoms = ground_clauses(d, budget=budget)
        verdict, model = sat.decide_negation(clauses, atoms, engine, budget)
        return verdict, Grounding(d, clauses, atoms, model if engine == "dpll" else None)

    grounding = None
    for n in range(1, n_max + 1):
        grounding = None  # order n - 1's: nothing reads it once order n starts
        try:
            verdict, grounding = decided(n)
        except BudgetExceededError as e:
            return gave_up(str(e))
        if verdict:
            firsts = sorted(set(grounding.clauses.values()))
            witness = tuple(map(grounding.disjunction.member, firsts))
            return ProofResult(True, method, order=n, witness=witness)
    return gave_up(f"no proof up to order {n_max}", grounding)


def minimize_witness(d: HerbrandDisjunction, sigmas: Sequence[Subst]) -> tuple:
    """Verify a family of substitutions of the gamma-variables of the
    Herbrand analysis `d`, then prune it.

    Returns () when the instance disjunction is not a sentential
    tautology; a verified family is never empty.  Otherwise it keeps
    what dropping entries one at a time, last first, keeps: an entry
    goes when the disjunction over the entries before it and the kept
    entries after it is still tautological.  Whether a family is
    tautological is monotone in its entries (more entries, more clauses
    to refute), so a run of entries that can all go together is dropped
    with one decision, and one that cannot is split in two, the later
    half first (deletion by bisection, as in Junker's QuickXplain,
    2004).  The pruned family cannot lose another entry.  Each
    substitution is grounded once; the check and every trial decide the
    clauses of the entries they keep."""
    clauses, atoms = ground_clauses(d, sigmas)
    if not sat.decide_negation(clauses, atoms)[0]:
        return ()

    def tautological(members: set) -> bool:
        return sat.decide_negation(
            (c for c, positions in clauses.items() if not members.isdisjoint(positions)), atoms
        )[0]

    kept: list[int] = []  # kept entries after the run in hand, descending
    # half-open runs still to prune, the last one next; a lower half
    # carries how many entries were kept when its whole run could not
    # go: if its upper half went entirely, it faces that same family
    runs = [(0, len(sigmas), None)]
    while runs:
        lo, hi, failed_at = runs.pop()
        # every entry before the run is still there; an empty family is
        # no tautology
        if (lo or kept) and failed_at != len(kept) and tautological({*range(lo), *kept}):
            continue
        if hi - lo == 1:
            kept.append(lo)
            continue
        mid = (lo + hi) // 2
        runs += [(lo, mid, len(kept)), (mid, hi, None)]
    return tuple(sigmas[p] for p in reversed(kept))


# ---------------------------------------------------------------------------
# unification-guided instance search (connection-style matings)


def find_tautological_instances(
    d: HerbrandDisjunction, n: int, k: int, budget: int = 10**6
) -> Optional[tuple]:
    """Search for k substitutions of the gamma-variables of the analysis
    `d` into its champ fini of order n whose instance disjunction is a
    sentential tautology.

    Connection-method search over k renamed copies of the matrix: every
    path through the combined matrix must contain a complementary pair
    under one simultaneous most general unifier whose minimal grounding
    stays inside the champ fini.  Complete for the given k; returns the
    grounded substitutions or None.  Of the champ fini only the order
    and the first term, which fills unbound variables, are read; that
    term is the same at every order from 2 up, so no champ fini above
    order 2 is built.
    """
    filler = d.at_order(min(n, 2)).champ.terms[0]

    # the paths through a matrix are its cnf clauses: one literal from
    # every disjunct, branching over conjuncts.  Only the ⊆-minimal ones
    # are kept: a substitution that closes a path closes every path
    # containing it
    per_copy = sat._clauses(d.matrix)
    if len(per_copy) ** k > budget:
        raise BudgetExceededError(
            f"{len(per_copy)}^{k} paths exceed the search budget {budget}"
        )
    combined_paths: list[tuple[Literal, ...]] = [()]
    for i in range(k):
        ren = Subst({y: Var(f"{y}@{i}") for y in d.gamma_vars})
        renamed = {a: apply(ren, a) for a in d.atoms}
        copy = [tuple([(s, renamed[a]) for s, a in path]) for path in per_copy]
        combined_paths = [p + q for p in combined_paths for q in copy]

    def grounded_ok(sub: Subst) -> bool:
        return all(height(_filled(image, filler)) < n for _v, image in sub.items())

    def closing(path: tuple[Literal, ...], sub: Subst) -> Iterator[Subst]:
        """The extensions of `sub` to try for a path: `sub` alone when it
        already closes the path, else each complementary pair's unifier
        under `sub` that stays inside the champ fini."""
        seen: dict[str, bool] = {}
        for sign, atom in path:
            key = sat.atom_key(apply(sub, atom))
            if seen.get(key, sign) != sign:
                yield sub
                return
            seen[key] = sign
        for (s1, a1), (s2, a2) in itertools.combinations(path, 2):
            if s1 == s2 or a1.pred != a2.pred:
                continue
            u = unify(a1, a2, under=sub)
            if u.ok and grounded_ok(u.substitution):
                yield u.substitution

    # depth-first over the paths in order, without recursion: the stack
    # holds one iterator of extensions per path on the way down, and each
    # substitution entered counts one node against the budget
    nodes = 0
    stack: list[Iterator[Subst]] = []
    sub: Optional[Subst] = Subst()
    while sub is not None:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("instance search budget exhausted")
        if len(stack) == len(combined_paths):
            break
        stack.append(closing(combined_paths[len(stack)], sub))
        sub = None
        while stack and sub is None:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
    solution = sub

    if solution is None:
        return None
    out = []
    for i in range(k):
        sub = Subst({y: _filled(solution.get(f"{y}@{i}") or Var(f"{y}@{i}"), filler)
                     for y in d.gamma_vars})
        if sub not in out:
            out.append(sub)
    return tuple(out)
