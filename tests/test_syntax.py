import gc
import importlib
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from herbrand.syntax import (
    App,
    Atom,
    CaptureError,
    Exists,
    Forall,
    Not,
    Or,
    PREDICATE,
    SKOLEM_CONSTANT,
    Subst,
    Symbol,
    SyntaxError_,
    Var,
    alpha_eq,
    apply,
    apply_term,
    bound_vars,
    compose,
    free_vars,
    height,
    is_rectified,
    parse,
    parse_term,
    polarity_at,
    print_formula,
    print_term,
    rectify,
    subformula_at,
    subformulas,
    term_vars,
)

from util import CONST_A, CONST_B, FUN_F, FUN_G, random_formula, random_term

P = Symbol("P", 1, PREDICATE)


def test_parse_forall_disjunction():
    f = parse("!x. (P(x) | ~P(x))")
    assert f == Forall("x", Or(Atom(P, (Var("x"),)), Not(Atom(P, (Var("x"),)))))


def test_parse_quantifier_nesting():
    f = parse("?y. !x. Q(x,y)")
    assert isinstance(f, Exists) and isinstance(f.body, Forall)
    assert print_formula(f) == "?y. !x. Q(x, y)"


def test_parse_error_position():
    with pytest.raises(SyntaxError_) as e:
        parse("P(x")
    assert e.value.col == 4


def test_arity_mismatch():
    from herbrand.syntax import ArityMismatchError

    with pytest.raises(ArityMismatchError):
        parse("P(a) & P(a, b)")


def test_lexicon_reserved():
    with pytest.raises(ValueError):
        parse("P(l)", frees={"l"})
    # but it parses as a variable without declaration
    f = parse("P(l)")
    assert f.args[0] == Var("l")


def test_heights():
    assert height(Var("x")) == 0
    assert height(App(Symbol("y*", 0, SKOLEM_CONSTANT))) == 1
    assert height(parse_term("m_star(u_star, m_star(v_star, w_star))")) == 3


def test_apply_examples():
    f = parse("P(x, y)", frees={"x", "y"})
    # P here is binary; build the substitution {x -> a}
    got = apply(Subst({"x": parse_term("a")}), f)
    assert print_formula(got) == "P(a, y)"
    assert apply(Subst(), f) == f
    atom = parse("prec(x, m_star(x, y))", frees={"x", "y"})
    got = apply(Subst({"x": parse_term("v_star"), "y": parse_term("w_star")}), atom)
    assert got == parse("prec(v_star, m_star(v_star, w_star))")


def test_subst_drops_only_identity_bindings():
    a = App(CONST_A)
    s = Subst({"x": Var("x"), "y": Var("z"), "z": a})
    assert s.domain() == {"y", "z"}
    assert s.get("y") == Var("z") and s.get("z") is a
    assert Subst({"x": Var("x")}) == Subst() and not Subst({"x": Var("x")})


def _rebuilt(s: Subst, t):
    if isinstance(t, Var):
        return s.get(t.name) or t
    return App(t.sym, tuple(_rebuilt(s, a) for a in t.args))


def _assert_shared(s: Subst, t, got):
    """Every subterm of t with no bound variable comes back as itself."""
    if not (term_vars(t) & s.domain()):
        assert got is t
    elif isinstance(t, App):
        for a, b in zip(t.args, got.args):
            _assert_shared(s, a, b)


def test_apply_term_shares_unbound_subterms():
    rng = random.Random(23)
    funcs = (CONST_A, CONST_B, FUN_F, FUN_G)
    R = Symbol("R", 2, PREDICATE)
    for _ in range(400):
        t = random_term(rng, ["x", "y", "z"], rng.randrange(0, 4), funcs)
        bound = rng.sample(["x", "y", "z", "w"], rng.randrange(0, 3))
        s = Subst({v: random_term(rng, ["x", "u"], rng.randrange(0, 3), funcs) for v in bound})
        got = apply_term(s, t)
        assert got == _rebuilt(s, t)
        _assert_shared(s, t, got)
        atom = Atom(R, (t, App(CONST_B)))
        applied = apply(s, atom)
        assert applied == Atom(R, (_rebuilt(s, t), App(CONST_B)))
        assert (applied is atom) == (got is t)


def test_apply_capture():
    f = parse("?y. Q(x, y)", frees={"x"})
    with pytest.raises(CaptureError):
        apply(Subst({"x": Var("y")}), f)


def test_rectify_examples():
    f = parse("(!x. P(x)) | (!x. Q(x))")
    assert print_formula(rectify(f)) == "(!x1. P(x1)) | (!x2. Q(x2))"
    g = parse("(!x1. P(x1)) | (!x2. Q(x2))")
    assert rectify(g) == g
    h = parse("!x. (P(x) | ?x. Q(x))")
    assert print_formula(rectify(h)) == "!x1. P(x1) | (?x2. Q(x2))"


def test_rectify_invariant_random():
    rng = random.Random(11)
    for _ in range(300):
        f = random_formula(rng, rng.randrange(1, 5), ["w"], allow_iff=True)
        r = rectify(f)
        binders = bound_vars(r)
        assert len(binders) == len(set(binders))
        assert not (set(binders) & free_vars(r))
        assert alpha_eq(rectify(r), r)


def test_polarity_against_negation_count():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, rng.randrange(1, 5), [])
        for pos, _ in subformulas(f):
            try:
                sign = polarity_at(f, pos)
            except ValueError:
                continue
            # independent count: walk the path, counting flips
            g, flips = f, 0
            for i in pos:
                if isinstance(g, Not):
                    flips += 1
                from herbrand.syntax import Implies

                if isinstance(g, Implies) and i == 0:
                    flips += 1
                from herbrand.syntax import children

                g = children(g)[i]
            assert sign == (1 if flips % 2 == 0 else -1)


def test_compose_law():
    rng = random.Random(3)
    for _ in range(200):
        t = random_term(rng, ["x", "y", "z"], 2)
        s1 = Subst({"x": random_term(rng, ["y"], 1)})
        s2 = Subst({"y": random_term(rng, [], 1), "z": random_term(rng, [], 1)})
        from herbrand.syntax import apply_term

        assert apply_term(compose(s1, s2), t) == apply_term(s2, apply_term(s1, t))


def test_height_bound_under_substitution():
    rng = random.Random(9)
    for _ in range(300):
        t = random_term(rng, ["x", "y"], rng.randrange(0, 3))
        s = Subst(
            {
                "x": random_term(rng, [], rng.randrange(0, 3)),
                "y": random_term(rng, [], rng.randrange(0, 3)),
            }
        )
        from herbrand.syntax import apply_term

        images = [height(v) for _, v in s.items()] or [0]
        assert height(apply_term(s, t)) <= height(t) + max(images)


@st.composite
def formulas(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    return random_formula(rng, rng.randrange(0, 5), ["u", "v"], allow_iff=True)


@settings(max_examples=1000, deadline=None)
@given(formulas())
def test_print_parse_round_trip(f):
    text = print_formula(f)
    again = parse(text, frees=free_vars(f))
    assert again == f
    assert print_formula(again) == text


def test_subformula_positions():
    f = parse("(P(a) & Q(b)) -> ~R(a, b)")
    assert print_formula(subformula_at(f, (0, 1))) == "Q(b)"
    assert print_formula(subformula_at(f, (1, 0))) == "R(a, b)"
    with pytest.raises(IndexError):
        subformula_at(f, (2,))


def test_skolem_symbol_round_trip():
    t = parse_term("y_star2")
    assert isinstance(t, App) and t.sym.name == "y*2" and t.sym.is_skolem
    assert print_term(t) == "y_star2"


def test_boxed_variable_round_trip():
    f = parse("?[m_star(v_star, w_star)]. prec(x, [m_star(v_star, w_star)])",
              frees={"x"})
    assert isinstance(f, Exists) and f.var == "m_star(v_star, w_star)"
    assert parse(print_formula(f), frees={"x"}) == f


def test_reimported_package_is_released():
    saved = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "herbrand"}

    def fresh_syntax():
        for name in [n for n in sys.modules if n.partition(".")[0] == "herbrand"]:
            del sys.modules[name]
        return importlib.import_module("herbrand.syntax")

    try:
        old = weakref.ref(fresh_syntax().App)
        fresh_syntax()
        gc.collect()
        assert old() is None
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "herbrand"]:
            del sys.modules[name]
        sys.modules.update(saved)
