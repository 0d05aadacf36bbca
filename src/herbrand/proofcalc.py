"""Proof objects for the quantifier calculus, a step checker, the
positive-position monotone-replacement derived rule, and the
construction of modus-ponens-free derivations from Property C
witnesses.

A derivation is a list of steps, each carrying the full formula, its
rule tag, premise indices, and the instantiation data the rule needs.
Formulas are compared up to renaming of bound variables throughout: a
bound delta-variable may be spelled as the opaque boxed name of its
Skolem term, and the final theorem is reached up to that renaming.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from . import sat, syntax
from .expansion import HerbrandDisjunction, ground_clauses
from .syntax import (
    And,
    App,
    Atom,
    Formula,
    Implies,
    Or,
    Position,
    QUANT,
    Subst,
    Term,
    Var,
    alpha_eq,
    apply,
    bound_vars,
    children,
    formula_symbols,
    free_vars,
    parse,
    parse_term,
    polarity_at,
    print_formula,
    print_term,
    replace_at,
    subformula_at,
    subformulas,
    term_vars,
    _components,
    _joined,
)
from .transform import _passage_once, is_delta, is_gamma

T_AXIOM = "SententialTautologyAxiom"
MP = "ModusPonens"
GEN_GAMMA = "GenGammaQuant"
GEN_DELTA = "GenDeltaQuant"
GAMMA = "GammaQuant"
DELTA = "DeltaQuant"
GEN_SIMP = "GenSimplification"
GEN_GAMMA_SIMP = "GenGammaSimplification"
SIMP = "Simplification"
PASSAGE = "Passage"
MONO = "MonotoneReplace"

RULES = (
    T_AXIOM, MP, GEN_GAMMA, GEN_DELTA, GAMMA, DELTA,
    GEN_SIMP, GEN_GAMMA_SIMP, SIMP, PASSAGE, MONO,
)


@dataclass(frozen=True)
class Step:
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()
    at: Optional[Position] = None
    term: Optional[Term] = None
    passage_rule: Optional[int] = None
    direction: Optional[str] = None
    renamings: Optional[tuple] = None  # two dicts: conclusion binders -> copies


@dataclass(frozen=True)
class Derivation:
    steps: tuple[Step, ...]

    @property
    def final(self) -> Formula:
        return self.steps[-1].formula

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class Violation:
    index: int
    rule: str
    message: str

    def __str__(self):
        return f"step {self.index} ({self.rule}): {self.message}"


class WitnessError(Exception):
    """The supplied Property C witness does not verify."""


# ---------------------------------------------------------------------------
# the checker


def _quantifier_free_above(f: Formula, pos: Position) -> bool:
    g = f
    for i in pos:
        if isinstance(g, QUANT):
            return False
        g = children(g)[i]
    return True


def _occurs_outside(f: Formula, pos: Position, name: str) -> bool:
    """Does `name` occur (free, bound, or as a binder) outside the
    subformula at pos?"""
    return any(
        (isinstance(g, QUANT) and g.var == name)
        or (isinstance(g, Atom) and any(name in term_vars(t) for t in g.args))
        for here, g in subformulas(f)
        if here[:len(pos)] != pos
    )


def check_step(d: Derivation, i: int) -> Optional[Violation]:
    """Verify that step i is exactly its rule's conclusion from its
    premises under the recorded instantiation, side conditions included.
    """
    step = d.steps[i]

    def bad(msg: str) -> Violation:
        return Violation(i, step.rule, msg)

    if any(p >= i or p < 0 for p in step.premises):
        return bad("premise indices must point strictly backward")
    prem = [d.steps[p].formula for p in step.premises]

    if step.rule == T_AXIOM:
        if prem:
            return bad("the tautology axiom takes no premises")
        try:
            verdict, _ = sat.is_tautology(step.formula)
        except sat.QuantifierPresentError:
            return bad("the tautology axiom requires a quantifier-free formula")
        if not verdict:
            return bad("not a sentential tautology")
        return None

    if step.rule == MP:
        if len(prem) != 2:
            return bad("modus ponens takes two premises: A and A -> B")
        minor, major = prem
        if not isinstance(major, Implies):
            return bad("the second premise must be an implication")
        if not alpha_eq(major.left, minor):
            return bad("the implication's antecedent must match the first premise")
        if not alpha_eq(major.right, step.formula):
            return bad("the conclusion must be the implication's consequent")
        return None

    if step.rule in (GEN_GAMMA, GAMMA, GEN_DELTA, DELTA):
        if len(prem) != 1:
            return bad("quantification rules take one premise")
        if step.at is None:
            return bad("missing position")
        pos = step.at
        if step.rule in (GAMMA, DELTA) and pos != ():
            return bad("the non-generalized rule requires an empty context")
        try:
            g = subformula_at(step.formula, pos)
            sign = polarity_at(step.formula, pos)
        except (IndexError, ValueError) as e:
            return bad(str(e))
        if not isinstance(g, QUANT):
            return bad("the position must address a quantifier of the conclusion")
        if not _quantifier_free_above(step.formula, pos):
            return bad("the context must not put the position in the scope of any quantifier")
        if step.rule in (GEN_GAMMA, GAMMA):
            if not is_gamma(g, sign):
                return bad("the quantifier is not a gamma occurrence at this polarity")
            if step.term is None:
                return bad("missing substituted term")
            bound_below = {q.var for _, q in subformulas(g.body) if isinstance(q, QUANT)}
            captured = term_vars(step.term) & bound_below
            if captured:
                return bad(
                    "free variables of the substituted term must not be bound by "
                    f"quantifiers in the scope: {sorted(captured)}"
                )
            inst = apply(Subst({g.var: step.term}), g.body)
            expected = replace_at(step.formula, pos, inst)
            if not alpha_eq(expected, prem[0]):
                return bad("premise is not the conclusion with the quantifier instantiated")
            return None
        # delta rules
        if not is_delta(g, sign):
            return bad("the quantifier is not a delta occurrence at this polarity")
        if _occurs_outside(step.formula, pos, g.var):
            return bad(
                f"the quantified variable {g.var} must not occur in the context"
            )
        expected = replace_at(step.formula, pos, g.body)
        if not alpha_eq(expected, prem[0]):
            return bad("premise is not the conclusion with the quantifier dropped")
        return None

    if step.rule in (GEN_SIMP, GEN_GAMMA_SIMP, SIMP):
        if len(prem) != 1:
            return bad("simplification takes one premise")
        pos = step.at if step.at is not None else ()
        if step.rule == SIMP and pos != ():
            return bad("the non-generalized rule requires an empty context")
        try:
            pair = subformula_at(prem[0], pos)
            sign = polarity_at(prem[0], pos)
        except (IndexError, ValueError) as e:
            return bad(str(e))
        want = Or if sign > 0 else And
        if not isinstance(pair, want):
            return bad(
                "simplification needs a disjunction at a positive position "
                "or a conjunction at a negative one"
            )
        merged = subformula_at(step.formula, pos)
        if not alpha_eq(merged, pair.left) or not alpha_eq(merged, pair.right):
            return bad("the two merged occurrences must be equal up to bound renaming")
        if replace_at(prem[0], pos, merged) != step.formula:
            return bad("the context must be unchanged")
        if step.rule == GEN_GAMMA_SIMP and not is_gamma(merged, sign):
            return bad("gamma-simplification merges a gamma-quantified formula")
        return None

    if step.rule == PASSAGE:
        if len(prem) != 1:
            return bad("passage takes one premise")
        if step.passage_rule not in range(1, 7) or step.direction is None:
            return bad("missing passage rule index (1 to 6) or direction")
        pos = step.at if step.at is not None else ()
        try:
            g = subformula_at(prem[0], pos)
        except IndexError as e:
            return bad(str(e))
        rewritten = _passage_once(g, step.passage_rule, step.direction)
        if rewritten is None:
            return bad("the addressed subformula does not match the equivalence")
        if not alpha_eq(replace_at(prem[0], pos, rewritten), step.formula):
            return bad("conclusion is not the premise rewritten by the equivalence")
        return None

    if step.rule == MONO:
        if len(prem) != 1:
            return bad("monotone replacement takes one premise")
        if not isinstance(prem[0], Implies):
            return bad("the premise must be an implication B -> C")
        if not isinstance(step.formula, Implies):
            return bad("the conclusion must be an implication")
        pos = step.at if step.at is not None else ()
        left, right = step.formula.left, step.formula.right
        try:
            sign = polarity_at(left, pos)
            hole = subformula_at(left, pos)
        except (IndexError, ValueError) as e:
            return bad(str(e))
        if sign <= 0:
            return bad(
                "replacement is only monotone at positive positions; "
                "a negative position is rejected"
            )
        if not alpha_eq(hole, prem[0].left):
            return bad("the left side must carry B at the position")
        if not alpha_eq(replace_at(left, pos, prem[0].right), right):
            return bad("the right side must be the left with C at the position")
        return None

    return bad(f"unknown rule {step.rule!r}")


def check(d: Derivation) -> Optional[Violation]:
    """First violation in the derivation, or None when every step is a
    valid rule application."""
    if not d.steps:
        return Violation(0, "", "empty derivation")
    for i in range(len(d.steps)):
        v = check_step(d, i)
        if v is not None:
            return v
    return None


# ---------------------------------------------------------------------------
# monotone replacement as a derived rule


def monotone_replace(d: Derivation, context: Formula, at: Position) -> Derivation:
    """Extend a derivation of B -> C to one of A[B] -> A[C], where A is
    `context` with its hole at `at`.  Negative positions are rejected:
    the corresponding formula-level implication is invalid.
    """
    v = check(d)
    if v is not None:
        raise ValueError(f"premise derivation does not check: {v}")
    if not isinstance(d.final, Implies):
        raise ValueError("the premise derivation must prove an implication")
    if polarity_at(context, at) <= 0:
        raise ValueError(
            "replacement is only monotone at positive positions; "
            "a negative position is rejected"
        )
    left = replace_at(context, at, d.final.left)
    right = replace_at(context, at, d.final.right)
    step = Step(Implies(left, right), MONO, (len(d.steps) - 1,), at=at)
    return Derivation(d.steps + (step,))


# ---------------------------------------------------------------------------
# modus ponens elimination
#
# Reductive plan: group the witness substitutions at every gamma
# quantifier by the value they give its variable; each group becomes one
# copy of the quantified subformula.  Delta quantifiers bind the boxed
# name of their Skolem term under the group's ground values.  The
# emitted derivation runs in phases: the starting tautology, then the
# Generalized Quantification rules (innermost first, and any gamma step
# consuming a boxed name before the delta step that binds it), then the
# Generalized gamma-Simplifications that merge the copies back, deepest
# first.


@dataclass
class _Leaf:
    atom: Atom
    binders: dict  # var -> its binder: a _Group or a _DeltaN


@dataclass
class _Conn:
    ctor: type
    kids: list


@dataclass(eq=False)
class _Group:
    """One copy of a gamma node's subformula: the substitutions giving
    its variable one value."""

    boxed: Term
    owner: "_GammaN"
    index: int
    child: object = None
    introduced: bool = False


@dataclass(eq=False)
class _GammaN:
    quant: type
    var: str
    sign: int
    groups: list
    copy_names: list
    original: Formula
    outer_binders: dict
    merged_suffix: int = 0
    preorder: int = 0


@dataclass(eq=False)
class _DeltaN:
    quant: type
    var: str
    name: str
    child: object = None
    introduced: bool = False
    preorder: int = 0


def _walk(node):
    """Every skeleton node of the tree under `node`, itself included,
    children first; a gamma node's groups are nodes of their own."""
    if isinstance(node, _Conn):
        kids = node.kids
    elif isinstance(node, _GammaN):
        kids = node.groups
    elif isinstance(node, (_DeltaN, _Group)):
        kids = (node.child,)
    else:
        kids = ()
    for kid in kids:
        yield from _walk(kid)
    yield node


def _events(node) -> list:
    """The quantifier introductions under `node`, children first: one
    per gamma group and one per delta node."""
    return [n for n in _walk(node) if isinstance(n, (_Group, _DeltaN))]


def _box_term(t: Term) -> Term:
    if isinstance(t, Var):
        return t
    if t.sym.is_skolem:
        return Var(print_term(t))
    return App(t.sym, tuple(_box_term(a) for a in t.args))


def mp_eliminate(analysis: HerbrandDisjunction, sigmas: Sequence[Subst]) -> Derivation:
    """A derivation of the formula f analysed by `analysis`
    (`herbrand_disjunction(f, n)`), up to bound renaming, from a
    sentential tautology, with no modus ponens step: tautology, then
    Generalized gamma/delta-Quantification, then Generalized
    gamma-Simplification.

    The substitutions `sigmas` of the gamma-variables must make the
    matrix instances disjoin to a sentential tautology; any sufficient
    family is accepted.  The derivation proves the analysis' prepared
    formula, f rectified with its biconditionals expanded, and the
    analysis' Skolem table names the delta nodes.
    """
    f_work = analysis.prepared
    sk = analysis.skolem
    if not sat.decide_negation(*ground_clauses(analysis, sigmas))[0]:
        raise WitnessError("the witness instances do not disjoin to a tautology")
    sigmas = list(dict.fromkeys(sigmas))

    used_names = set(bound_vars(f_work)) | free_vars(f_work)
    used_names |= {s.name for s in formula_symbols(f_work)}
    preorder = itertools.count()

    def build(g: Formula, sign: int, subs: list, ground: dict, binders: dict):
        cls, parts = _components(g, sign)
        if cls is None:  # an atom: the biconditionals are expanded
            return _Leaf(g, dict(binders))
        if cls == syntax.GAMMA:
            node = _GammaN(
                type(g), g.var, sign, [], [], g, dict(binders),
                preorder=next(preorder),
            )
            if g.var in free_vars(g.body):
                grouped: dict[Term, list] = {}
                for s in subs:
                    value = s.get(g.var)
                    if value is None:
                        raise WitnessError(
                            f"witness substitution misses gamma-variable {g.var}"
                        )
                    grouped.setdefault(value, []).append(s)
            else:
                grouped = {sigmas[0].get(g.var) or Var(g.var): list(subs)}
            for j, (value, bucket) in enumerate(grouped.items()):
                group = _Group(_box_term(value), node, j)
                group.child = build(
                    g.body,
                    sign,
                    bucket,
                    {**ground, g.var: value},
                    {**binders, g.var: group},
                )
                node.groups.append(group)
            if len(node.groups) == 1:
                node.copy_names.append(g.var)
            else:
                for j in range(len(node.groups)):
                    name = f"{g.var}_c{j + 1}"
                    k = 0
                    while name in used_names:
                        k += 1
                        name = f"{g.var}_c{j + 1}_{k}"
                    used_names.add(name)
                    node.copy_names.append(name)
            return node
        if cls == syntax.DELTA:
            sym, argvars = sk[g.var]
            ground_term = App(sym, tuple(ground[a] for a in argvars))
            node = _DeltaN(
                type(g), g.var, print_term(ground_term), preorder=next(preorder)
            )
            node.child = build(
                g.body,
                sign,
                subs,
                {**ground, g.var: ground_term},
                {**binders, g.var: node},
            )
            return node
        return _Conn(type(g), [build(k, k_sign, subs, ground, binders) for k, k_sign in parts])

    root = build(f_work, 1, sigmas, {}, {})

    # -- rendering the current whole formula ------------------------------

    def leaf_image(binder) -> Term:
        if isinstance(binder, _DeltaN):
            return Var(binder.name)
        if binder.introduced:
            return Var(binder.owner.copy_names[binder.index])
        return binder.boxed

    # where the last render put each delta node and gamma group, and each
    # gamma node's join of its last two pieces, where the next merge acts
    at: dict = {}

    def render(node, here: Position) -> Formula:
        if isinstance(node, _Leaf):
            sub = Subst({v: leaf_image(e) for v, e in node.binders.items()})
            return apply(sub, node.atom)
        if isinstance(node, _Conn):
            return node.ctor(*[render(k, here + (i,)) for i, k in enumerate(node.kids)])
        if isinstance(node, _DeltaN):
            at[node] = here
            if node.introduced:
                return node.quant(node.name, render(node.child, here + (0,)))
            return render(node.child, here)
        # a gamma node: its live copies, then the merged-back one, joined
        # right-nested, so piece j sits at 1^j, followed by 0 unless last
        live = len(node.groups) - node.merged_suffix
        count = live + (1 if node.merged_suffix else 0)
        at[node] = here + (1,) * (count - 2)
        pieces = []
        for j, group in enumerate(node.groups[:live]):
            piece = at[group] = here + (1,) * j + ((0,) if j < count - 1 else ())
            if group.introduced:
                body = render(group.child, piece + (0,))
                pieces.append(node.quant(node.copy_names[j], body))
            else:
                pieces.append(render(group.child, piece))
        if node.merged_suffix:
            # the merged-back canonical copy: the original subformula
            # with enclosing binder occurrences spelled by their current
            # names
            outer = Subst(
                {v: leaf_image(e) for v, e in node.outer_binders.items()}
            )
            pieces.append(apply(outer, node.original))
        return _joined(Or if node.sign > 0 else And, pieces)

    # -- intro events, topologically ordered -------------------------------

    # an event waits for every event below it; a delta node also waits
    # for each gamma group whose term uses its boxed name
    events = _events(root)
    deps = {e: set(_events(e.child)) for e in events}
    delta_by_name: dict[str, list] = {}
    for e in events:
        if isinstance(e, _DeltaN):
            delta_by_name.setdefault(e.name, []).append(e)
    for e in events:
        if isinstance(e, _Group):
            for name in term_vars(e.boxed):
                for delta in delta_by_name.get(name, ()):
                    deps[delta].add(e)

    def rank(e) -> tuple:
        if isinstance(e, _Group):
            return (e.owner.preorder, e.index, "gamma")
        return (e.preorder, 0, "delta")

    emitted: set = set()
    order: list = []
    pending = set(events)
    while pending:
        ready = [e for e in pending if not (deps[e] - emitted)]
        if not ready:
            raise AssertionError("cyclic quantifier dependencies")
        e = min(ready, key=rank)
        pending.remove(e)
        emitted.add(e)
        order.append(e)

    # -- emit the derivation -----------------------------------------------

    steps = [Step(render(root, ()), T_AXIOM)]  # check tests the tautology

    for e in order:
        e.introduced = True
        conclusion = render(root, ())
        if isinstance(e, _Group):
            steps.append(
                Step(conclusion, GEN_GAMMA, (len(steps) - 1,), at=at[e], term=e.boxed)
            )
        else:
            steps.append(Step(conclusion, GEN_DELTA, (len(steps) - 1,), at=at[e]))

    # merge each gamma node's copies back, deepest first
    for node in _walk(root):
        if not isinstance(node, _GammaN):
            continue
        d = len(node.groups)
        while node.merged_suffix < d and d > 1:
            pos = at[node]
            premise = steps[-1].formula
            copy1 = subformula_at(premise, pos + (0,))
            copy2 = subformula_at(premise, pos + (1,))
            node.merged_suffix += 1 if node.merged_suffix else 2
            conclusion = render(root, ())
            merged = subformula_at(conclusion, pos)
            steps.append(
                Step(
                    conclusion,
                    GEN_GAMMA_SIMP,
                    (len(steps) - 1,),
                    at=pos,
                    renamings=(
                        _binder_renaming(merged, copy1),
                        _binder_renaming(merged, copy2),
                    ),
                )
            )

    derivation = Derivation(tuple(steps))
    violation = check(derivation)
    if violation is not None:
        raise AssertionError(f"constructed derivation does not check: {violation}")
    if not alpha_eq(derivation.final, f_work):
        raise AssertionError("constructed derivation does not prove the goal")
    return derivation


def _binder_renaming(canonical: Formula, copy: Formula) -> dict:
    """Pair up binder names of two alpha-equal formulas, whose preorders
    line up."""
    return {
        a.var: b.var
        for (_, a), (_, b) in zip(subformulas(canonical), subformulas(copy))
        if isinstance(a, QUANT)
    }


def count_rule(d: Derivation, rule: str) -> int:
    return sum(1 for s in d.steps if s.rule == rule)


# ---------------------------------------------------------------------------
# serialization: one step per line


def dump_derivation(d: Derivation, frees: tuple[str, ...] = ()) -> str:
    lines = []
    if frees:
        lines.append("frees: " + " ".join(sorted(frees)))
    for i, s in enumerate(d.steps):
        data = {}
        if s.term is not None:
            data["term"] = print_term(s.term)
        if s.passage_rule is not None:
            data["passage_rule"] = s.passage_rule
        if s.direction is not None:
            data["direction"] = s.direction
        if s.renamings is not None:
            data["renamings"] = list(s.renamings)
        at = ".".join(str(x) for x in s.at) if s.at is not None else "-"
        premises = ",".join(str(p) for p in s.premises) or "-"
        lines.append(
            f"{i} | {s.rule} | premises={premises} | at={at or 'root'} | "
            f"data={json.dumps(data, sort_keys=True)} | {print_formula(s.formula)}"
        )
    return "\n".join(lines) + "\n"


def load_derivation(text: str) -> tuple[Derivation, tuple[str, ...]]:
    steps = []
    frees: tuple[str, ...] = ()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("frees:"):
            frees = tuple(line[len("frees:"):].split())
            continue
        fields = [p.strip() for p in line.split(" | ", 5)]
        if len(fields) != 6:
            raise ValueError(f"malformed derivation line: {raw!r}")
        _idx, rule, premises_f, at_f, data_f, formula_f = fields
        if rule not in RULES:
            raise ValueError(f"unknown rule tag {rule!r}")
        premises_s = premises_f[len("premises="):]
        premises = (
            tuple(int(x) for x in premises_s.split(",")) if premises_s != "-" else ()
        )
        at_s = at_f[len("at="):]
        at: Optional[Position]
        if at_s == "-":
            at = None
        elif at_s in ("", "root"):
            at = ()
        else:
            at = tuple(int(x) for x in at_s.split("."))
        data = json.loads(data_f[len("data="):])
        # an object; term and direction strings, passage_rule an int,
        # renamings a list of string-to-string objects, each optional
        renamings = data.get("renamings", []) if isinstance(data, dict) else None
        if not (isinstance(renamings, list) and type(data.get("passage_rule", 0)) is int
                and all(isinstance(data.get(k, ""), str) for k in ("term", "direction"))
                and all(isinstance(r, dict) and all(isinstance(x, str) for x in [*r, *r.values()])
                        for r in renamings)):
            raise ValueError(f"malformed data in derivation line: {raw!r}")
        term = parse_term(data["term"], set(frees)) if "term" in data else None
        renamings = tuple(map(dict, renamings)) if "renamings" in data else None
        steps.append(
            Step(
                parse(formula_f, set(frees)),
                rule,
                premises,
                at=at,
                term=term,
                passage_rule=data.get("passage_rule"),
                direction=data.get("direction"),
                renamings=renamings,
            )
        )
    return Derivation(tuple(steps)), frees
