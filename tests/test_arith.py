import random

import pytest

from herbrand import arith
from herbrand.arith import (
    FALSE,
    FreeVariableError,
    NotArithmeticError,
    TRUE,
    axiom,
    decide,
    eliminate_quantifiers,
    qf_normal_form,
    s_term,
)
from herbrand.syntax import (
    Atom,
    EQ,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    And,
    Or,
    free_vars,
    parse,
    print_formula,
)

from util import eval_nat, eval_standard, formula_size, induction_instance


def test_quantifier_elimination_examples():
    got = eliminate_quantifiers(parse("?y. x = S(y)", frees={"x"}))
    assert print_formula(got) == "x != 0"
    assert eliminate_quantifiers(parse("?x. x = 0")) == TRUE
    assert eliminate_quantifiers(parse("!x. (x = 0 | ?y. x = S(y))")) == TRUE


def test_quantifier_elimination_keeps_free_variables():
    rng = random.Random(12)
    for _ in range(200):
        f = _random_arith(rng, rng.randrange(1, 4), [])
        out = eliminate_quantifiers(f)
        assert free_vars(out) <= free_vars(f)
        from herbrand.syntax import QUANT, subformulas

        assert all(not isinstance(g, QUANT) for _, g in subformulas(out))


def test_qf_normal_form_examples():
    assert qf_normal_form(parse("~(0 = 0)")) == FALSE
    assert qf_normal_form(parse("S(S(0)) = S(0)")) == FALSE
    got = qf_normal_form(parse("S(x) = S(y)", frees={"x", "y"}))
    assert print_formula(got) == "x = y"
    assert qf_normal_form(parse("x = 0 | x != 0", frees={"x"})) == TRUE
    with pytest.raises(ValueError):
        qf_normal_form(parse("?x. x = 0"))


def test_qf_normal_form_never_kills_satisfiable():
    rng = random.Random(21)
    for _ in range(300):
        f = _random_arith_qf(rng, rng.randrange(1, 4), ["x", "y"])
        nf = qf_normal_form(f)
        bound = 2 * formula_size(f) + 2
        satisfiable = any(
            eval_standard(f, bound, {"x": i, "y": j})
            for i in range(bound)
            for j in range(bound)
        )
        if satisfiable:
            assert nf != FALSE
        else:
            assert nf == FALSE


def test_decide_examples():
    assert decide(parse("!x. S(x) != 0")) == "derivable"
    assert decide(parse("?x. S(x) = x")) == "refutable"
    assert decide(parse("0 = 0")) == "derivable"
    assert decide(parse("0 != 0")) == "refutable"
    assert decide(parse("!x. (x = 0 | ?y. x = S(y))")) == "derivable"
    assert decide(parse("!x,y. (S(x) = S(y) -> x = y)")) == "derivable"
    assert decide(parse("!x. S(S(S(x))) != x")) == "derivable"


def test_decide_requires_closed_arith():
    with pytest.raises(FreeVariableError):
        decide(parse("x = 0", frees={"x"}))
    with pytest.raises(NotArithmeticError):
        decide(parse("!x. P(x)"))


def test_decide_symmetry():
    # refutable sentences have derivable negations and vice versa
    rng = random.Random(33)
    for _ in range(120):
        f = _closed_arith(rng)
        verdict = decide(f)
        dual = decide(Not(f))
        assert {verdict, dual} == {"derivable", "refutable"}


def test_decide_agrees_with_bounded_oracle():
    rng = random.Random(99)
    for _ in range(300):
        f = _closed_arith(rng)
        oracle = eval_nat(f)
        assert oracle == eval_nat(f, slack=1) == eval_nat(f, slack=2)
        assert (decide(f) == "derivable") == oracle


def test_eval_nat_fixes_flat_bound_blind_spot():
    # true on the naturals, but false under every flat quantifier bound
    f = parse("!x. ?y. y = S(x)")
    assert eval_nat(f)
    assert not eval_standard(f, 2 * formula_size(f))
    assert decide(f) == "derivable"


def test_induction_instances_are_derivable():
    p = parse("x != S(x)", frees={"x"})
    inst = induction_instance(p, "x")
    assert decide(inst) == "derivable"
    q = parse("x = 0 | x != 0", frees={"x"})
    assert decide(induction_instance(q, "x")) == "derivable"
    with pytest.raises(ValueError):
        induction_instance(parse("?y. x = y", frees={"x"}), "x")


def test_axioms():
    assert print_formula(axiom("nat_2")) == "!x. S(x) != 0"
    assert print_formula(axiom("nat_3")) == "!x. !y. S(x) = S(y) -> x = y"
    assert print_formula(axiom("nat_4")) == "!x. S(x) != x"
    assert print_formula(axiom("nat_6")) == "!x. S(S(S(x))) != x"
    for tag in ("eq-refl", "eq-sym", "eq-trans", "eq-subst", "nat_1"):
        assert decide(axiom(tag)) == "derivable"
    assert decide(axiom("nat_2")) == "derivable"
    assert decide(axiom("nat_5")) == "derivable"
    with pytest.raises(ValueError):
        axiom("nat_0")


def _random_arith_term(rng, vars_):
    return s_term(rng.randrange(0, 3), rng.choice([None] + vars_))


def _random_arith_qf(rng, depth, vars_, binary=(And, Or, Implies)):
    if depth == 0 or rng.random() < 0.35:
        return Atom(EQ, (_random_arith_term(rng, vars_),
                         _random_arith_term(rng, vars_)))
    kind = rng.randrange(len(binary) + 1)
    if kind == 0:
        return Not(_random_arith_qf(rng, depth - 1, vars_, binary))
    return binary[kind - 1](
        _random_arith_qf(rng, depth - 1, vars_, binary),
        _random_arith_qf(rng, depth - 1, vars_, binary),
    )


def _random_arith(rng, depth, vars_, binary=(And, Or, Implies)):
    if depth == 0 or rng.random() < 0.3:
        return Atom(EQ, (_random_arith_term(rng, vars_),
                         _random_arith_term(rng, vars_)))
    kind = rng.randrange(len(binary) + 3)
    if kind == 0:
        return Not(_random_arith(rng, depth - 1, vars_, binary))
    if kind <= len(binary):
        return binary[kind - 1](
            _random_arith(rng, depth - 1, vars_, binary),
            _random_arith(rng, depth - 1, vars_, binary),
        )
    v = f"v{len(vars_)}"
    ctor = Forall if kind == len(binary) + 1 else Exists
    return ctor(v, _random_arith(rng, depth - 1, vars_ + [v], binary))


def _closed_arith(rng):
    while True:
        f = _random_arith(rng, rng.randrange(1, 5), [])
        if not free_vars(f):
            return f


# ---------------------------------------------------------------------------
# the NNF pass and DNF reader that `sat._clauses` replaced, kept as the
# reference: `_dnf_lits` gives its ⊆-minimal literal lists, in order


def _reference_nnf(f, sign=True):
    if isinstance(f, Atom):
        return f if sign else Not(f)
    if isinstance(f, Not):
        return _reference_nnf(f.body, not sign)
    if isinstance(f, Iff):
        both = And(Implies(f.left, f.right), Implies(f.right, f.left))
        return _reference_nnf(both, sign)
    if isinstance(f, Implies):
        return _reference_nnf(Or(Not(f.left), f.right), sign)
    if isinstance(f, (And, Or)):
        flip = {And: Or, Or: And}[type(f)]
        ctor = type(f) if sign else flip
        return ctor(_reference_nnf(f.left, sign), _reference_nnf(f.right, sign))
    raise TypeError(f)


def _reference_dnf_lits(f):
    if isinstance(f, Atom):
        return [[(arith.peel(f.args[0]), arith.peel(f.args[1]), True)]]
    if isinstance(f, Not):
        inner = f.body
        return [[(arith.peel(inner.args[0]), arith.peel(inner.args[1]), False)]]
    if isinstance(f, Or):
        return _reference_dnf_lits(f.left) + _reference_dnf_lits(f.right)
    if isinstance(f, And):
        return [a + b for a in _reference_dnf_lits(f.left) for b in _reference_dnf_lits(f.right)]
    raise TypeError(f)


def _first_minimal(conjuncts):
    """The ⊆-minimal conjuncts, each once with its literals once, in the
    order first met."""
    wholes = [frozenset(c) for c in conjuncts]
    out, seen = [], set()
    for c, whole in zip(conjuncts, wholes):
        if whole not in seen and not any(o < whole for o in wholes):
            seen.add(whole)
            out.append(list(dict.fromkeys(c)))
    return out


_ALL_BINARY = (And, Or, Implies, Iff)


def test_dnf_lits_match_the_reference():
    # the conjuncts of the reference dnf that contain no other one, as the
    # absorption A | (A & B) = A leaves them
    rng = random.Random(47)
    for _ in range(500):
        f = _random_arith_qf(rng, rng.randrange(1, 5), ["x", "y"], _ALL_BINARY)
        for sign in (True, False):
            reference = _reference_dnf_lits(_reference_nnf(f, sign))
            assert arith._dnf_lits(f, sign) == _first_minimal(reference)


def test_elimination_matches_the_reference(monkeypatch):
    rng = random.Random(53)
    sentences = [_closed_arith_with(rng, _ALL_BINARY) for _ in range(300)]
    qf = [_random_arith_qf(rng, rng.randrange(1, 4), ["x", "y"], _ALL_BINARY)
          for _ in range(200)]

    def outcomes():
        return (
            [print_formula(eliminate_quantifiers(f)) for f in sentences],
            [decide(f) for f in sentences],
            [print_formula(qf_normal_form(f)) for f in qf],
        )

    got = outcomes()
    monkeypatch.setattr(
        arith, "_dnf_lits", lambda f, sign=True: _reference_dnf_lits(_reference_nnf(f, sign))
    )
    assert got == outcomes()


def _closed_arith_with(rng, binary):
    while True:
        f = _random_arith(rng, rng.randrange(1, 4), [], binary)
        if not free_vars(f):
            return f


def _reference_conjunct_satisfiable(conjunct):
    """The solved-form substitution solver `arith` used before it solved
    conjuncts by eliminating their variables."""

    def subst_side(side, var, image):
        k, base = side
        if base != var:
            return side
        j, new_base = image
        return (k + j, new_base)

    def subst_lit(lit, var, image):
        (a, u), (b, v), pos = lit
        return (subst_side((a, u), var, image), subst_side((b, v), var, image), pos)

    work = list(conjunct)
    while True:
        normalized = []
        for lit in work:
            n = arith._norm_lit(lit)
            if n is False:
                return False
            if n is not True:
                normalized.append(n)
        work = normalized
        eq = next(
            (l for l in work if l[2] and (l[0][1] is not None or l[1][1] is not None)),
            None,
        )
        if eq is None:
            return True
        (a, u), (b, v), _ = eq
        work.remove(eq)
        if u is not None:
            d, c, other = a, b, v
            var = u
        else:
            d, c, other = b, a, u
            var = v
        if c < d and other is None:
            return False
        if c >= d:
            work = [subst_lit(l, var, (c - d, other)) for l in work]
        else:
            work = [subst_lit(l, other, (d - c, var)) for l in work]


def test_conjunct_solver_matches_the_reference():
    # offsets 0-3 over four variables and 0, up to six literals
    rng = random.Random(59)
    bases = [None, "w", "x", "y", "z"]
    verdicts = set()
    for _ in range(20000):
        conjunct = [
            ((rng.randrange(4), rng.choice(bases)), (rng.randrange(4), rng.choice(bases)),
             rng.random() < 0.6)
            for _ in range(rng.randrange(7))
        ]
        want = _reference_conjunct_satisfiable(conjunct)
        assert arith._conjunct_satisfiable(conjunct) == want, conjunct
        verdicts.add(want)
    assert verdicts == {True, False}
