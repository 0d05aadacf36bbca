import random

import pytest

from herbrand.expansion import eval_in_structure, property_c
from herbrand.syntax import (
    PREDICATE,
    SKOLEM_FUNCTION,
    Symbol,
    alpha_eq,
    formula_symbols,
    parse,
    print_formula,
    rectify,
    subformulas,
)
from herbrand.transform import (
    GuardError,
    PassageError,
    classify,
    passage,
    relativize,
    skolemize_inner,
    skolemize_outer,
    to_antiprenex,
    to_prenex,
)

from util import all_structures, is_prenex, random_formula, to_primitive


def test_classify_table():
    f = rectify(parse("?y. A1(y)"))
    assert classify(f, ()) == "gamma"
    g = rectify(parse("~(!y. A1(y))"))
    assert classify(g, (0,)) == "gamma"
    h = rectify(parse("!x. A1(x)"))
    assert classify(h, ()) == "delta"
    assert classify(parse("P(a) | Q(a)"), ()) == "alpha"
    assert classify(parse("P(a) & Q(a)"), ()) == "beta"
    assert classify(parse("~(P(a) & Q(a))"), (0,)) == "alpha"
    assert classify(parse("~(P(a) | Q(a))"), (0,)) == "beta"
    assert classify(parse("P(a) -> Q(a)"), ()) == "alpha"
    assert classify(parse("?x. P(x)"), ()) == "gamma"
    assert classify(parse("~(?x. P(x))"), (0,)) == "delta"


def test_passage_rows():
    assert passage(parse("~(!x. A1(x))"), (), 1, "prenex") == parse("?x. ~A1(x)")
    assert passage(parse("(?x. A1(x)) | B1"), (), 5, "prenex") == parse(
        "?x. (A1(x) | B1)"
    )
    assert passage(parse("~(?x. A1(x))"), (), 2, "prenex") == parse("!x. ~A1(x)")
    assert passage(parse("(!x. A1(x)) | B1"), (), 3, "prenex") == parse(
        "!x. (A1(x) | B1)"
    )
    assert passage(parse("B1 | (!x. A1(x))"), (), 4, "prenex") == parse(
        "!x. (B1 | A1(x))"
    )
    assert passage(parse("B1 | (?x. A1(x))"), (), 6, "prenex") == parse(
        "?x. (B1 | A1(x))"
    )
    # anti-prenex direction
    assert passage(parse("?x. (A1(x) | B1)"), (), 5, "anti-prenex") == parse(
        "(?x. A1(x)) | B1"
    )


def test_passage_errors():
    with pytest.raises(PassageError):
        passage(parse("P(a) | Q(a)"), (), 5, "prenex")
    with pytest.raises(PassageError):
        passage(parse("~(!x. P(x))"), (), 7, "prenex")
    with pytest.raises(PassageError):
        passage(parse("(?x. P(x)) | ~P(y_star)"), (), 5, "prenex")


def test_passage_renames_on_variable_condition():
    f = rectify(parse("!x. (B1(y) | A1(x))", frees={"y"}))
    out = passage(f, (), 4, "anti-prenex")
    assert print_formula(out) == "B1(y) | (!x. A1(x))"
    # the variable occurring free in the unchanged operand blocks the rule
    g = rectify(parse("!x. (B1(x) | A1(x))"))
    with pytest.raises(PassageError):
        passage(g, (), 4, "anti-prenex")
    # a binder of the same name inside the other operand only forces a
    # rename of the extracted quantifier
    h = parse("!x. ((?x. B1(x)) | A1(x))")
    out = passage(h, (), 4, "anti-prenex")
    assert print_formula(out) == "(?x. B1(x)) | (!x1. A1(x1))"


def test_passage_preserves_semantics_exhaustively():
    rng = random.Random(101)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 3000:
        attempts += 1
        f = rectify(random_formula(rng, rng.randrange(2, 5), ["y"]))
        hits = []
        for pos, _ in sorted(subformulas(f), key=lambda pg: pg[0]):
            for rule in range(1, 7):
                for direction in ("prenex", "anti-prenex"):
                    try:
                        hits.append(passage(f, pos, rule, direction))
                    except PassageError:
                        continue
        if not hits:
            continue
        checked += 1
        out = hits[checked % len(hits)]
        for size in (1, 2, 3):
            for s in all_structures(f, size):
                assert eval_in_structure(s, f) == eval_in_structure(s, out)
    assert checked == 200


def test_prenex_examples():
    f = parse("P(a) | ~P(a)")
    assert to_prenex(f) == f
    g = rectify(parse("(?x. P(x)) | ~(?y. P(y))"))
    out = to_prenex(g)
    assert print_formula(out) == "?x. !y. P(x) | ~P(y)"
    assert is_prenex(out)
    h = parse("?x. (P(x) | Q(a))")
    assert print_formula(to_antiprenex(h)) == "(?x. P(x)) | Q(a)"
    assert to_antiprenex(parse("(?x. P(x)) | ~(?y. P(y))")) == parse(
        "(?x. P(x)) | ~(?y. P(y))"
    )


def test_prenex_shape_on_corpus():
    rng = random.Random(55)
    for _ in range(150):
        f = rectify(to_primitive(random_formula(rng, rng.randrange(1, 4), [])))
        assert is_prenex(to_prenex(f))


def test_skolemize_outer_examples():
    f = parse("(?x. P(x)) | ~(?y. P(y))")
    assert skolemize_outer(f) == parse("(?x. P(x)) | ~P(y_star)")
    moved = parse("?x. (P(x) | ~(?y. P(y)))")
    assert skolemize_outer(moved) == parse("?x. (P(x) | ~P(y_star(x)))")


def test_skolemize_running_example():
    A = parse(
        "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
        " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
    )
    F = skolemize_outer(A)
    want = parse(
        "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. (prec(x,m_star(x,y)) & prec(y,m_star(x,y))))"
        " -> (?n. (prec(u_star,n) & prec(v_star,n) & prec(w_star,n)))"
    )
    assert alpha_eq(F, want)
    m = next(s for s in formula_symbols(F) if s.name == "m*")
    assert m.kind == SKOLEM_FUNCTION and m.arity == 2


def test_skolemize_inner_examples():
    f = parse("(?y1. !z1. Q(y1, z1)) | (?y2. !z2. Q(y2, z2))")
    want = parse("(?y1. Q(y1, z1_star(y1))) | (?y2. Q(y2, z2_star(y2)))")
    assert skolemize_inner(f) == want
    g = parse("?y. !x. P(x)")
    assert skolemize_inner(g) == parse("?y. P(x_star)")
    closed = parse("?x. P(x)")
    assert skolemize_inner(closed) == closed


def test_skolemize_agree_on_prenex_full_scope():
    # prenex input whose gamma-prefix variables all occur in the scope
    f = parse("?x. !z. R(x, z)")
    assert skolemize_outer(f) == skolemize_inner(f)
    rng = random.Random(19)
    for _ in range(50):
        # a random prenex prefix over a matrix using every variable
        names = [f"v{i}" for i in range(rng.randrange(1, 5))]
        pred = Symbol(f"M{len(names)}", len(names), PREDICATE)
        from herbrand.syntax import Atom, Exists, Forall, Var

        body = Atom(pred, tuple(Var(v) for v in names))
        for v in reversed(names):
            body = (Forall if rng.random() < 0.5 else Exists)(v, body)
        assert skolemize_outer(body) == skolemize_inner(body)


def test_inner_arities_bounded_by_outer():
    rng = random.Random(77)
    for _ in range(200):
        f = rectify(random_formula(rng, rng.randrange(1, 5), []))
        outer = {
            s.name: s.arity for s in formula_symbols(skolemize_outer(f)) if s.is_skolem
        }
        inner = {
            s.name: s.arity for s in formula_symbols(skolemize_inner(f)) if s.is_skolem
        }
        for name, arity in inner.items():
            assert arity <= outer[name]


def test_relativize():
    guard = Symbol("G", 1, PREDICATE)
    assert relativize(parse("!x. Q(x)"), guard) == parse("!x. (G(x) -> Q(x))")
    assert relativize(parse("?x. Q(x)"), guard) == parse("?x. (G(x) & Q(x))")
    qfree = parse("P(a) & Q(b)")
    assert relativize(qfree, guard) == qfree
    with pytest.raises(GuardError):
        relativize(parse("G(a)"), guard)
    with pytest.raises(GuardError):
        relativize(parse("P(a)"), Symbol("R", 2, PREDICATE))


def test_false_lemma_regression():
    G = parse("((?x. P(x)) & (!y. Q(y))) | ~(?x. P(x)) | ~(!y. Q(y))")
    before, _ = property_c(G, 2)
    assert before is True
    moved = passage(G, (0, 0), 5, "prenex")
    after, _ = property_c(moved, 2)
    assert after is False
