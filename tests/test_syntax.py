import gc
import importlib
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from herbrand.syntax import (
    EQ,
    LEXICON,
    PLAIN_FUNCTION,
    ZERO,
    And,
    App,
    ArityMismatchError,
    Atom,
    CaptureError,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    PREDICATE,
    SKOLEM_CONSTANT,
    Subst,
    Symbol,
    SyntaxError_,
    Var,
    _Parser,
    _skolem_symbol_for,
    alpha_eq,
    apply,
    apply_term,
    bound_vars,
    children,
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
    with_children,
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
    with pytest.raises(ArityMismatchError):
        parse("P(a) & P(a, b)")


def test_arity_mismatch_of_an_equation_head_names_the_printed_symbol():
    with pytest.raises(ArityMismatchError, match=r"\Ay_star used with inconsistent arity\Z"):
        parse("y_star(a) = b & y_star(a, b) = c")


class _TwoPassParser(_Parser):
    """The two-pass reading `parse` replaced, kept as the reference: the
    head of an equation's left side is built with a provisional symbol,
    and `_intern_symbols` commits it on a second walk of the tree."""

    def primary(self, bound):
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.formula(bound)
            self.expect(")")
            return f
        if t.kind in ("ident", "zero", "boxed"):
            term, head = self.term(bound, allow_predicate=True)
            nxt = self.peek().text
            if nxt == "=":
                self.next()
                rhs, _ = self.term(bound)
                self.lookup("=", 2, PREDICATE)
                return Atom(EQ, (term, rhs))
            if nxt == "!=":
                self.next()
                rhs, _ = self.term(bound)
                self.lookup("=", 2, PREDICATE)
                return Not(Atom(EQ, (term, rhs)))
            if head is None:
                raise self.error("a variable is not a formula")
            name, args = head
            pred = self.lookup(name, len(args), PREDICATE)
            if pred.kind != PREDICATE:
                raise self.error(f"{name} is used both as function and predicate")
            return Atom(pred, args)
        raise self.error("expected a formula")

    def term(self, bound, allow_predicate=False):
        t = self.peek()
        if t.kind == "zero":
            self.next()
            self.lookup("0", 0, PLAIN_FUNCTION)
            return App(ZERO), None
        if t.kind == "boxed":
            return Var(self.next().text[1:-1]), None
        if t.kind != "ident":
            raise self.error("expected a term")
        name = self.next().text
        if self.peek().text == "(":
            self.next()
            args = [self.term(bound)[0]]
            while self.peek().text == ",":
                self.next()
                args.append(self.term(bound)[0])
            self.expect(")")
            args_t = tuple(args)
            if allow_predicate:
                return (
                    self._function_app(name, args_t, defer=True),
                    (name, args_t),
                )
            sym = self.lookup(name, len(args_t), PLAIN_FUNCTION)
            return App(sym, args_t), None
        if name in bound or name in self.frees or name == LEXICON:
            return Var(name), None
        if allow_predicate:
            return self._function_app(name, (), defer=True), (name, ())
        sym = self.lookup(name, 0, PLAIN_FUNCTION)
        return App(sym), None

    def _function_app(self, name, args, defer=False):
        if defer:
            existing = self.symbols.get(name)
            sk = _skolem_symbol_for(name, len(args))
            if sk is not None:
                existing = self.symbols.get(sk.name)
            if existing is not None and existing.kind != PREDICATE:
                return App(existing, args)
            sym = (
                sk
                if sk is not None
                else Symbol(name, len(args), PLAIN_FUNCTION)
            )
            return App(sym, args)
        sym = self.lookup(name, len(args), PLAIN_FUNCTION)
        return App(sym, args)


def _intern_symbols(f, parser):
    def fix_term(t):
        if isinstance(t, Var):
            return t
        sym = parser.lookup(t.sym.name, t.sym.arity, t.sym.kind)
        return App(sym, tuple(fix_term(a) for a in t.args))

    def go(g):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(fix_term(t) for t in g.args))
        return with_children(g, tuple(go(k) for k in children(g)))

    return go(f)


def _two_pass_parse(text, frees):
    p = _TwoPassParser(text, frozenset(frees))
    f = p.formula(frozenset())
    p.end()
    return _intern_symbols(f, p)


# symbol names with their usual arity; the Skolem-shaped predicate name
# and the names shared by predicates and functions make kind clashes
# possible, and an arity off by one makes an arity clash
_PREDICATES = {"P": 1, "Q": 2, "R": 0, "p_star": 1, "f": 1}
_FUNCTIONS = {"f": 1, "g": 2, "a": 0, "b": 0, "m_star": 2, "y_star": 1, "u_star2": 0, "R": 0}


def _random_parse_input(rng: random.Random):
    """Formula text in the input syntax, full of equations, applied,
    0-ary and Skolem-shaped function heads, with a clash now and then."""
    bound: list[str] = []

    def application(table, depth):
        name = rng.choice(sorted(table))
        n = table[name] + (rng.random() < 0.02)
        if not n:
            return name
        return f"{name}({', '.join(term(depth + 1) for _ in range(n))})"

    def term(depth=0):
        r = rng.random()
        if depth > 3 or r < 0.35:
            return rng.choice(bound + ["[m_star(a, b)]", "z", LEXICON, "0", "a"])
        if r < 0.37:
            return application(_PREDICATES, depth)  # a predicate where a term goes
        return application(_FUNCTIONS, depth)

    def formula(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            if rng.random() < 0.5:
                return f"{term()} {rng.choice(['=', '!='])} {term()}"
            return application(_PREDICATES, 0)
        if r < 0.4:
            return f"~{formula(depth - 1)}"
        if r < 0.55:
            var = rng.choice(["x", "y", "w"])
            bound.append(var)
            body = formula(depth - 1)
            bound.pop()
            return f"({rng.choice('!?')}{var}. {body})"
        op = rng.choice(["&", "|", "->", "<->"])
        return f"({formula(depth - 1)} {op} {formula(depth - 1)})"

    return formula(rng.randrange(0, 5))


def _outcome(read, text):
    try:
        return read(text, {"z"})
    except (SyntaxError_, ArityMismatchError) as e:
        return type(e)


def test_one_pass_parse_matches_the_two_pass_reference():
    rng = random.Random(11)
    clashes = equations = 0
    for _ in range(3000):
        text = _random_parse_input(rng)
        want = _outcome(_two_pass_parse, text)
        assert _outcome(parse, text) == want, text
        clashes += want is ArityMismatchError
        equations += "=" in text and not isinstance(want, type)
    assert clashes > 200 and equations > 1000


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
    # a binder spelled like a constant is renamed apart from it
    c = parse("(?x. ~P(x)) | P(x) | Q(x1, f(x2))")
    assert print_formula(rectify(c)) == "(?x3. ~P(x3)) | P(x) | Q(x1, f(x2))"
    assert rectify(parse("?y. P(y, f(x))")) == parse("?y. P(y, f(x))")


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


_CONNECTIVES = {"<->": Iff, "->": Implies, "|": Or, "&": And}

# how `A op1 B op2 C` groups, worked out by hand from the grammar in the
# module docstring (~ binds tightest, then &, |, -> and <->; | and &
# group to the left, -> and <-> to the right): "left" is
# (A op1 B) op2 C and "right" is A op1 (B op2 C)
_GROUPING = {
    ("<->", "<->"): "right", ("<->", "->"): "right", ("<->", "|"): "right", ("<->", "&"): "right",
    ("->", "<->"): "left", ("->", "->"): "right", ("->", "|"): "right", ("->", "&"): "right",
    ("|", "<->"): "left", ("|", "->"): "left", ("|", "|"): "left", ("|", "&"): "right",
    ("&", "<->"): "left", ("&", "->"): "left", ("&", "|"): "left", ("&", "&"): "left",
}


def _letter(name):
    return Atom(Symbol(name, 0, PREDICATE))


@pytest.mark.parametrize("op1, op2", sorted(_GROUPING))
def test_two_binary_connectives_group_as_documented(op1, op2):
    a, b, c = map(_letter, "ABC")
    first, second = _CONNECTIVES[op1], _CONNECTIVES[op2]
    if _GROUPING[op1, op2] == "left":
        want = second(first(a, b), c)
    else:
        want = first(a, second(b, c))
    assert parse(f"A {op1} B {op2} C") == want


@pytest.mark.parametrize("op", sorted(_CONNECTIVES))
def test_negation_binds_tighter_and_a_quantifier_body_extends_right(op):
    a, b = _letter("A"), _letter("B")
    assert parse(f"~A {op} B") == _CONNECTIVES[op](Not(a), b)
    px, qx = Atom(P, (Var("x"),)), Atom(Symbol("Q", 1, PREDICATE), (Var("x"),))
    assert parse(f"!x. P(x) {op} Q(x)") == Forall("x", _CONNECTIVES[op](px, qx))


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
    # a boxed variable may begin an equation, as derivations print them
    g = parse("[y_star] = a | [y_star] != a")
    assert print_formula(g) == "[y_star] = a | [y_star] != a"
    assert parse(print_formula(g)) == g
    with pytest.raises(SyntaxError_, match="a variable is not a formula"):
        parse("[y_star] | P(a)")


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
