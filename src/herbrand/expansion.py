"""Champs finis, Herbrand expansions and disjunctions, Property C and B,
Herbrand complexity, the order bound for a Rule of Passage step, finite
structures with evaluation, and falsifying-structure extraction.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from . import sat
from .arith import S
from .sat import DEFAULT_BUDGET, BudgetExceededError
from .syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    LEXICON,
    Not,
    Or,
    PREDICATE,
    QUANT,
    Subst,
    Symbol,
    Term,
    Var,
    ZERO,
    apply,
    children,
    height,
    print_formula,
    print_term,
    rectify,
    subformulas,
    term_symbols,
    term_vars,
    with_children,
    _joined,
)
from .transform import iff_expanded, skolemize_outer, to_antiprenex

class UninterpretedSymbolError(Exception):
    """A symbol of the formula has no table in the structure."""


# ---------------------------------------------------------------------------
# champs finis


@dataclass(frozen=True)
class ChampFini:
    """The set of all terms of height < order over a signature.

    `terms` is deterministically ordered: by height, then by printed
    form.  The lexicon variable is included exactly when the set would
    otherwise be empty (or when forced by always_lexicon).
    """

    order: int
    signature: frozenset[Symbol]
    variables: frozenset[str]
    terms: tuple[Term, ...]

    def __len__(self) -> int:
        return len(self.terms)


def champ_fini(
    signature: Iterable[Symbol],
    free_variables: Iterable[str] = (),
    n: int = 1,
    always_lexicon: bool = False,
) -> ChampFini:
    """All terms of height < n over the function symbols and free
    variables given; n must be >= 1.
    """
    if n < 1:
        raise ValueError("the order of a champ fini is a positive natural number")
    funcs = sorted(
        {s for s in signature if s.kind != PREDICATE}, key=lambda s: (s.name, s.arity)
    )
    variables = set(free_variables)
    if always_lexicon:
        variables.add(LEXICON)

    def build(var_names: set[str]) -> set[Term]:
        # T_1 = V, T_{h+1} = V ∪ {f(t̄) : t̄ ∈ T_h}
        terms = base = {Var(v) for v in var_names}
        for _ in range(1, n):
            terms = base | {App(f, args) for f in funcs
                            for args in itertools.product(terms, repeat=f.arity)}
        return terms

    terms = build(variables)
    if not terms:
        variables.add(LEXICON)
        terms = build(variables)
    terms = sorted(terms, key=lambda t: (height(t), print_term(t)))
    return ChampFini(n, frozenset(funcs), frozenset(variables), tuple(terms))


def champ_size(signature: Iterable[Symbol], variables: int, n: int) -> int | float:
    """|T_n| over the function symbols `signature` and that many
    variables, unbuilt: N_1 = V, N_{h+1} = V + Σ_f N_h^arity (a constant
    adds 1), V gaining the lexicon when N_n would be 0, as in
    `champ_fini`; over 2**64 terms, too many to build, is infinite."""
    arities = [s.arity for s in signature]

    def size(v: int) -> int | float:
        total = v
        for _ in range(1, n):
            total = v + sum(total**a for a in arities)
            if total > 2**64:
                return float("inf")
        return total

    return size(variables) or size(1)


# ---------------------------------------------------------------------------
# expansion and disjunction


def expand(f: Formula, terms: Sequence[Term]) -> Formula:
    """Herbrand expansion over a finite term set: ? becomes a
    disjunction, ! a conjunction, recursing outside in; connectives map
    through unchanged; quantifier-free formulas are fixpoints.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("expansion needs a nonempty term set")

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return g
        if isinstance(g, QUANT):
            inner = go(g.body)
            instances = [apply(Subst({g.var: t}), inner) for t in terms]
            return _joined(Or if isinstance(g, Exists) else And, instances)
        return with_children(g, tuple(go(k) for k in children(g)))

    return go(f)


def strip_gamma_quantifiers(f: Formula) -> tuple[Formula, list[str]]:
    """Drop every quantifier of a Skolemized form, returning the matrix
    and the bound (gamma-) variables in binding order."""
    order: list[str] = []

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return g
        if isinstance(g, Not):  # one frame per level, so deep negations fit
            return Not(go(g.body))
        if isinstance(g, QUANT):
            order.append(g.var)
            return go(g.body)
        return with_children(g, tuple(go(k) for k in children(g)))

    return go(f), order


@dataclass(frozen=True)
class HerbrandDisjunction:
    """The Herbrand analysis of a formula at one order: its outer
    Skolemized form, the matrix with its gamma-variables, the champ fini
    of that order, and what grounding needs, worked out once.

    `prepared` is the formula Skolemized, `iff_expanded(rectify(f))`,
    whose binders name the gamma-variables; `skolem` maps each of its
    delta-bound variables to its (Skolem symbol, gamma-argument names).
    `variables` are the free variables of the Skolemized form, with the
    lexicon when it is forced, which with the champ's signature give the
    champ fini of any order (`at_order`).  `atoms` are the
    matrix's atoms, an atom's index being its slot, and `atom_own` per
    slot the ascending positions among `gamma_vars` of the atom's
    gamma-variables.  `plans` holds each clause of the negated matrix
    (`sat._clauses(matrix, False)`, the ⊆-minimal ones: a pruned clause
    contains a kept one, and so do their groundings) as the positions of
    its own gamma-variables and, per literal, the sign, the slot and
    where the atom's gamma-variables sit among the clause's.
    """

    matrix: Formula
    gamma_vars: tuple[str, ...]
    champ: ChampFini
    skolemized: Formula
    prepared: Formula = field(compare=False, repr=False)
    skolem: dict = field(compare=False, repr=False)
    variables: frozenset = field(compare=False, repr=False)
    atoms: tuple = field(compare=False, repr=False)
    atom_own: tuple = field(compare=False, repr=False)
    plans: tuple = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.champ) ** len(self.gamma_vars)

    def count_at(self, n: int) -> int | float:
        """`at_order(n).count`, the champ fini unbuilt."""
        return self._size_at(n) ** len(self.gamma_vars)

    def _size_at(self, n: int) -> int | float:
        return champ_size(self.champ.signature, len(self.variables), n)

    def at_order(self, n: int, budget: Optional[int] = None) -> "HerbrandDisjunction":
        """The same analysis over the champ fini of order n.  A family of
        more than `budget` members, or a champ fini of more than `budget`
        terms, raises BudgetExceededError before the champ is built."""
        if budget is not None:
            size = self._size_at(n)
            _check_budget(f"order-{n} disjunction", size ** len(self.gamma_vars), "instances",
                          budget)
            _check_budget(f"order-{n} champ fini", size, "terms", budget)
        champ = champ_fini(self.champ.signature, self.variables, n)
        return dataclasses.replace(self, champ=champ)

    def substitutions(self) -> Iterator[Subst]:
        """All maps from the gamma-variables into the champ fini, the
        family's members in odometer order."""
        return map(self.member, range(self.count))

    def member(self, position: int) -> Subst:
        """The family's member at `position` in deterministic odometer
        order (last variable fastest)."""
        images = []
        for _ in self.gamma_vars:
            position, i = divmod(position, len(self.champ))
            images.append(self.champ.terms[i])
        return Subst(dict(zip(self.gamma_vars, reversed(images))))

    def instance(self, sigma: Subst) -> Formula:
        return apply(sigma, self.matrix)


def herbrand_disjunction(
    f: Formula, n: int, always_lexicon: bool = False
) -> HerbrandDisjunction:
    """The Herbrand analysis of f at order n, from one Skolemization.

    The champ fini is formed over the function and free-variable symbols
    occurring in the outer Skolemized form; `always_lexicon` adds the
    lexicon to those variables, so every order's champ fini has it.
    """
    skolem: dict = {}
    prepared = iff_expanded(rectify(f))
    skolemized = skolemize_outer(prepared, skolem)
    matrix, gamma = strip_gamma_quantifiers(skolemized)
    where = {v: i for i, v in enumerate(gamma)}
    atoms = tuple(dict.fromkeys(g for _, g in subformulas(matrix) if isinstance(g, Atom)))
    slots = {a: i for i, a in enumerate(atoms)}
    atom_vars = [set().union(*map(term_vars, a.args)) for a in atoms]
    atom_own = tuple(tuple(sorted(where[v] for v in vs if v in where)) for vs in atom_vars)
    plans = []
    for c in sat._clauses(matrix, False):
        literals = [(s, slots[a]) for s, a in c]
        own = sorted({p for _, slot in literals for p in atom_own[slot]})
        plans.append((tuple(own), tuple(
            (s, slot, tuple(own.index(p) for p in atom_own[slot])) for s, slot in literals
        )))
    # the gamma-quantifiers were the only binders left, each binding
    # its own name
    variables = frozenset().union(*atom_vars) - set(gamma)
    if always_lexicon:
        variables |= {LEXICON}
    functions = {s for a in atoms for t in a.args for s in term_symbols(t)}
    champ = champ_fini(functions, variables, n)
    return HerbrandDisjunction(
        matrix, tuple(gamma), champ, skolemized, prepared, skolem, variables, atoms, atom_own,
        tuple(plans),
    )


def _check_budget(what: str, count: int | float, unit: str, budget: int) -> None:
    """Raise BudgetExceededError if `what` has more than `budget` `unit`."""
    if count > budget:
        raise BudgetExceededError(f"{what} has {count} {unit}, budget is {budget}")


@dataclass(frozen=True)
class PropertyCWitness:
    order: int
    substitutions: tuple[Subst, ...]


@dataclass(frozen=True)
class Grounding:
    """The ground clauses of a whole order-n family, numbered over its
    ground atoms in key order (`ground_clauses`), and a DPLL model of
    them, keyed by atom, when one was found."""

    disjunction: HerbrandDisjunction
    clauses: dict
    atoms: dict
    model: Optional[dict] = None


def check_instances(
    f: Formula, sigmas: Sequence[Subst], engine: str = "dpll"
) -> tuple[bool, Optional[dict]]:
    """Is the disjunction of the given matrix instances a sentential
    tautology?  The tractable entry point when the full expansion is out
    of reach.  Every substitution must be total on the gamma-variables.
    """
    if not sigmas:
        return False, None
    return sat.decide_negation(*ground_clauses(herbrand_disjunction(f, 1), sigmas), engine)


def ground_clauses(
    d: HerbrandDisjunction,
    sigmas: Optional[Sequence[Subst]] = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[dict[tuple, int | list[int]], dict[str, Atom]]:
    """The cnf clauses of the negated matrix instances under `sigmas`,
    or under the whole family `d.substitutions()` when `sigmas` is None
    (more than `budget` members raise BudgetExceededError): the
    package's one grounding of a matrix.

    Each of `d.plans` is grounded over the images of its own
    gamma-variables only; substitutions must be total on them.  Returns
    each distinct ground clause with the substitutions yielding it, and
    every ground atom of the instances by key, in key order: the
    clauses' atoms, numbered as in `sat`.  For `sigmas` a clause maps to
    the ascending list of its producers' positions in `sigmas`; for the
    family, too large to list, to the odometer position of its first
    producer, an int.
    """
    gamma = d.gamma_vars
    if sigmas is None:
        _check_budget(f"order-{d.champ.order} disjunction", d.count, "instances", budget)
        terms = d.champ.terms
    else:
        for s in sigmas:
            missing = set(gamma) - s.domain()
            if missing:
                raise ValueError(
                    f"substitution not total on the gamma-variables: missing {sorted(missing)}"
                )
        # a row holds a substitution's images as indices into `terms`
        number: dict[Term, int] = {}
        rows = [[number.setdefault(s.get(v), len(number)) for v in gamma] for s in sigmas]
        terms = list(number)

    # every ground atom of the instances, keyed once per tuple of images
    # of its own gamma-variables
    keys: list[dict[tuple, str]] = [{} for _ in d.atoms]
    table: dict[str, Atom] = {}
    for slot, own in enumerate(d.atom_own):
        for at in (itertools.product(range(len(terms)), repeat=len(own)) if sigmas is None
                   else (tuple([row[p] for p in own]) for row in rows)):
            if at not in keys[slot]:
                atom = apply(Subst({gamma[p]: terms[i] for p, i in zip(own, at)}), d.atoms[slot])
                keys[slot][at] = k = sat.atom_key(atom)
                table[k] = atom
    # atom i is the i-th lowest key; each atom's two literals are made once
    table = dict(sorted(table.items()))
    codes = {k: (2 * i + 1, 2 * i) for i, k in enumerate(table)}
    lits = [{at: codes[k] for at, k in images.items()} for images in keys]

    def ground(literals: tuple, images: tuple) -> tuple:
        return tuple(sorted({
            lits[slot][tuple([images[j] for j in picks])][s] for s, slot, picks in literals
        }))

    found: dict[tuple, int | list[int]] = {}
    if sigmas is None:
        for own, literals in d.plans:
            # the odometer-first member yielding an instance maps the
            # clause's other gamma-variables to the first term
            weights = [len(terms) ** (len(gamma) - 1 - p) for p in own]
            for images in itertools.product(range(len(terms)), repeat=len(own)):
                first = sum(map(mul, weights, images))
                clause = ground(literals, images)
                if first < found.setdefault(clause, first):
                    found[clause] = first
    else:
        for position, row in enumerate(rows):
            for own, literals in d.plans:
                clause = ground(literals, tuple([row[p] for p in own]))
                positions = found.setdefault(clause, [])
                if not positions or positions[-1] != position:
                    positions.append(position)
    return found, table


def property_c(
    f: Formula,
    n: int,
    budget: int = DEFAULT_BUDGET,
    always_lexicon: bool = False,
    engine: str = "dpll",
) -> tuple[bool, Optional[PropertyCWitness]]:
    """Property C of order n: the full Herbrand disjunction over T_n is
    a sentential tautology.  Returns the witnessing substitution family
    when true.  Exceeding the instance budget raises, it never reports a
    silent False.
    """
    if n < 1:
        raise ValueError("Property C orders are positive natural numbers")
    d = herbrand_disjunction(f, n, always_lexicon)
    verdict, _ = sat.decide_negation(*ground_clauses(d, budget=budget), engine, budget)
    if not verdict:
        return False, None
    return True, PropertyCWitness(n, tuple(d.substitutions()))


def property_b(
    f: Formula,
    n: int,
    budget: int = DEFAULT_BUDGET,
    always_lexicon: bool = False,
) -> tuple[bool, Optional[PropertyCWitness]]:
    """Property C of the anti-prenex normal form."""
    return property_c(to_antiprenex(rectify(f)), n, budget, always_lexicon)


def herbrand_complexity(
    f: Formula,
    n: int,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
) -> Optional[int]:
    """Smallest k <= k_max such that some k instances of the matrix over
    T_n disjoin to a sentential tautology; None when no k suffices.

    Candidate instance families come from a unification-guided search
    (engine module); each candidate is verified on the same analysis,
    without Skolemizing again.
    """
    from .engine import find_tautological_instances

    if n < 1 or k_max < 1:
        raise ValueError("order and instance bound are positive naturals")
    d = herbrand_disjunction(f, 1)
    for k in range(1, k_max + 1):
        found = find_tautological_instances(d, n, k, budget)
        if found is not None:
            if not sat.decide_negation(*ground_clauses(d, found))[0]:
                raise AssertionError("candidate witness failed verification")
            return k
    return None


def godel_dreben_order(n: int, r: int, N: int) -> int:
    """Order bound n * (N**r + 1) ** n restoring Property C invariance
    under one Rule of Passage, in exact integer arithmetic."""
    if n < 1 or N < 1 or r < 0:
        raise ValueError("need n, N >= 1 and r >= 0")
    return n * (N**r + 1) ** n


# ---------------------------------------------------------------------------
# finite structures


@dataclass(frozen=True)
class FiniteStructure:
    """A finite structure: total function tables, boolean predicate
    tables, and an assignment for the free variables."""

    domain: tuple[str, ...]
    fn_tables: dict
    pred_tables: dict
    var_env: dict

    def __post_init__(self):
        if not self.domain:
            raise ValueError("the domain must be nonempty")


def eval_in_structure(s: FiniteStructure, f: Formula) -> bool:
    """Standard Tarskian truth value, quantifiers ranging over the
    domain."""

    def go(g: Formula, env: dict) -> bool:
        if isinstance(g, Atom):
            table = s.pred_tables.get((g.pred.name, g.pred.arity))
            if table is None:
                raise UninterpretedSymbolError(f"predicate {g.pred.name} uninterpreted")
            args = tuple(_eval_term(t, env) for t in g.args)
            return bool(table.get(args, False))
        if isinstance(g, Not):
            return not go(g.body, env)
        if isinstance(g, And):
            return go(g.left, env) and go(g.right, env)
        if isinstance(g, Or):
            return go(g.left, env) or go(g.right, env)
        if isinstance(g, Implies):
            return (not go(g.left, env)) or go(g.right, env)
        if isinstance(g, Iff):
            return go(g.left, env) == go(g.right, env)
        if isinstance(g, Forall):
            return all(go(g.body, {**env, g.var: e}) for e in s.domain)
        if isinstance(g, Exists):
            return any(go(g.body, {**env, g.var: e}) for e in s.domain)
        raise TypeError(f"not a formula: {g!r}")

    def _eval_term(t: Term, env: dict):
        if isinstance(t, Var):
            if t.name in env:
                return env[t.name]
            raise UninterpretedSymbolError(f"free variable {t.name} unassigned")
        table = s.fn_tables.get((t.sym.name, t.sym.arity))
        if table is None:
            raise UninterpretedSymbolError(f"function {t.sym.name} uninterpreted")
        args = tuple(_eval_term(a, env) for a in t.args)
        if args not in table:
            raise UninterpretedSymbolError(
                f"function {t.sym.name} has no value at ({', '.join(args)})"
            )
        return table[args]

    return go(f, dict(s.var_env))


def falsifying_structure(
    grounding: Grounding, budget: int = DEFAULT_BUDGET
) -> Optional[FiniteStructure]:
    """When the grounded order-p family (p the order of its champ fini)
    lacks Property C, build a finite structure over the term domain
    T_{p+m} (m the maximal term height of the Skolemized form) in which
    the order-p expansion evaluates to false; None when Property C
    holds.

    Functions are interpreted as term constructors, truncated at the
    height bound by a designated sink element (the enumeration-maximal
    term), and each free variable denotes its own term, spelled as
    `print_term` spells it.  Predicate tables come from the grounding's
    DPLL model, or from one found here, over its ground atoms.  The
    domain's champ fini has the variables of the grounding's, the
    lexicon among them when that one has it.  A domain and function
    tables of more than `budget` terms in all raise BudgetExceededError
    before either is built.
    """
    d, atoms, assignment = grounding.disjunction, grounding.atoms, grounding.model
    if assignment is None:
        verdict, assignment = sat.decide_negation(grounding.clauses, atoms)
        if verdict:
            return None

    order = d.champ.order + max((height(t) for a in d.atoms for t in a.args), default=0)
    size = champ_size(d.champ.signature, len(d.champ.variables), order)
    entries = size + sum(size**s.arity for s in d.champ.signature)
    _check_budget(f"order-{order} structure", entries, "terms and table entries", budget)
    dom_champ = champ_fini(d.champ.signature, d.champ.variables, order)
    domain = tuple(print_term(t) for t in dom_champ.terms)
    index = set(domain)
    sink = domain[-1]

    fn_tables: dict = {}
    for sym in sorted(dom_champ.signature, key=lambda s: (s.name, s.arity)):
        table = {}
        for args in itertools.product(dom_champ.terms, repeat=sym.arity):
            image = print_term(App(sym, args))
            table[tuple(print_term(a) for a in args)] = (
                image if image in index else sink
            )
        fn_tables[(sym.name, sym.arity)] = table

    pred_tables: dict = {}
    for key, atom in atoms.items():
        args = tuple(print_term(t) for t in atom.args)
        pred_tables.setdefault((atom.pred.name, atom.pred.arity), {})[args] = (
            assignment.get(key, False)
        )
    for sym in {a.pred for a in d.atoms}:
        pred_tables.setdefault((sym.name, sym.arity), {})

    var_env = {v: print_term(Var(v)) for v in dom_champ.variables}
    return FiniteStructure(domain, fn_tables, pred_tables, var_env)


# ---------------------------------------------------------------------------
# finite substructures of successor arithmetic


def arith_substructure_witness(axioms: Sequence[Formula], n: int) -> FiniteStructure:
    """A finite substructure of arithmetic over {0..H+1} (H the maximal
    height in T_n) with capped successor and identity equality, in which
    every given axiom holds for all instances over T_n.

    This certifies that the negation of the axioms' conjunction lacks
    Property C of order n.
    """
    if n < 1:
        raise ValueError("n is a positive natural number")
    champ = champ_fini([ZERO, S], (), n)
    H = max(height(t) for t in champ.terms)
    top = H + 1
    domain = tuple(str(i) for i in range(top + 1))

    succ = {(str(i),): str(min(i + 1, top)) for i in range(top + 1)}
    fn_tables = {("0", 0): {(): "0"}, ("S", 1): succ}
    eq = {
        (str(i), str(j)): (i == j) for i in range(top + 1) for j in range(top + 1)
    }
    pred_tables = {("=", 2): eq}
    var_env = {v: "0" for v in champ.variables}
    structure = FiniteStructure(domain, fn_tables, pred_tables, var_env)

    for axiom in axioms:
        for instance in _axiom_instances(axiom, champ):
            if not eval_in_structure(structure, instance):
                raise AssertionError(
                    f"substructure fails instance {print_formula(instance)}"
                )
    return structure


def _axiom_instances(axiom: Formula, champ: ChampFini) -> Iterator[Formula]:
    """Strip the universal closure and instantiate over the champ fini."""
    vars_: list[str] = []
    body = axiom
    while isinstance(body, Forall):
        vars_.append(body.var)
        body = body.body
    for images in itertools.product(champ.terms, repeat=len(vars_)):
        yield apply(Subst(dict(zip(vars_, images))), body)


# ---------------------------------------------------------------------------
# structure serialization (line-oriented text)


def dump_structure(s: FiniteStructure) -> str:
    lines = ["domain: " + " ".join(s.domain)]
    for v in sorted(s.var_env):
        lines.append(f"var {v}: {s.var_env[v]}")
    for (name, _arity), table in sorted(s.fn_tables.items()):
        for args in sorted(table):
            lines.append(f"fn {name}: ({' '.join(args)})->{table[args]}")
    for (name, _arity), table in sorted(s.pred_tables.items()):
        for args in sorted(table):
            value = "T" if table[args] else "F"
            lines.append(f"pred {name}: ({' '.join(args)})->{value}")
    return "\n".join(lines) + "\n"


def load_structure(text: str) -> FiniteStructure:
    domain: tuple[str, ...] = ()
    fn_tables: dict = {}
    pred_tables: dict = {}
    var_env: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("domain:"):
            domain = tuple(line[len("domain:"):].split())
        elif line.startswith("var "):
            head, _, value = line[len("var "):].partition(":")
            var_env[head.strip()] = value.strip()
        elif line.startswith(("fn ", "pred ")):
            is_fn = line.startswith("fn ")
            rest = line[3:] if is_fn else line[5:]
            name, _, mapping = rest.partition(":")
            args_part, _, value = mapping.strip().partition("->")
            args = tuple(args_part.strip().lstrip("(").rstrip(")").split())
            if is_fn:
                fn_tables.setdefault((name.strip(), len(args)), {})[args] = value.strip()
            else:
                pred_tables.setdefault((name.strip(), len(args)), {})[args] = (
                    value.strip() == "T"
                )
        else:
            raise ValueError(f"unrecognized structure line: {raw!r}")
    outside = [f"fn {name}: {value}" for (name, _), table in fn_tables.items()
               for value in table.values() if value not in domain]
    outside += [f"var {v}: {value}" for v, value in var_env.items() if value not in domain]
    if outside:
        raise ValueError(f"value outside the domain: {outside[0]}")
    return FiniteStructure(domain, fn_tables, pred_tables, var_env)
