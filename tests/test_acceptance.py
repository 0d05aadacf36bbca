"""Acceptance suite: one test per criterion, each printing a pass line
and holding its stated time budget.  Run with `pytest -s` to see the
per-criterion lines."""

import itertools
import random
import time

import pytest

from herbrand.arith import decide, s_term
from herbrand.engine import (
    minimize_witness,
    prove_dp,
    prove_gilmore,
    prove_resolution,
    unify,
)
from herbrand.expansion import (
    PropertyCWitness,
    champ_fini,
    check_instances,
    eval_in_structure,
    godel_dreben_order,
    herbrand_complexity,
    herbrand_disjunction,
    property_c,
)
from herbrand.proofcalc import (
    MP,
    _box_term,
    check,
    count_rule,
    mp_eliminate,
)
from herbrand.syntax import (
    App,
    Atom,
    EQ,
    Exists,
    Forall,
    Iff,
    Implies,
    And,
    Not,
    Or,
    SKOLEM_CONSTANT,
    SKOLEM_FUNCTION,
    Subst,
    Symbol,
    Var,
    alpha_eq,
    apply_term,
    children,
    free_vars,
    height,
    parse,
    parse_term,
    print_term,
    rectify,
    subformulas,
    term_vars,
    with_children,
)
from herbrand.transform import classify, passage, skolemize_outer

from util import dnf, eval_nat, is_idempotent, keyed, random_structure, random_term

RUNNING_EXAMPLE = (
    "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
)


def two_instance_witness_substitutions():
    t1 = parse_term("m_star(v_star, w_star)")
    t2 = parse_term("m_star(u_star, m_star(v_star, w_star))")
    vs, ws, us = (
        parse_term("v_star"),
        parse_term("w_star"),
        parse_term("u_star"),
    )
    s1 = Subst({"a": vs, "b": t1, "c": t2, "x": vs, "y": ws, "n": t2})
    s2 = Subst({"a": ws, "b": t1, "c": t2, "x": us, "y": t1, "n": t2})
    return s1, s2


def expected_dnf_set_c():
    """The seven conjunctions of the normalized two-instance witness."""
    t1 = "m_star(v_star, w_star)"
    t2 = "m_star(u_star, m_star(v_star, w_star))"

    def lit(a, b, sign):
        return (f"prec({a}, {b})", sign)

    return frozenset(
        frozenset(c)
        for c in [
            [lit("v_star", t1, True), lit(t1, t2, True), lit("v_star", t2, False)],
            [lit("w_star", t1, True), lit(t1, t2, True), lit("w_star", t2, False)],
            [lit("v_star", t1, False)],
            [lit("w_star", t1, False)],
            [lit("u_star", t2, False)],
            [lit(t1, t2, False)],
            [lit("u_star", t2, True), lit("v_star", t2, True),
             lit("w_star", t2, True)],
        ]
    )


def test_criterion_1_running_example_reproduction():
    t0 = time.monotonic()
    A = parse(RUNNING_EXAMPLE)

    # (a) the outer Skolemized form, up to naming
    F = skolemize_outer(rectify(A))
    want = parse(
        "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. (prec(x,m_star(x,y)) & prec(y,m_star(x,y))))"
        " -> (?n. (prec(u_star,n) & prec(v_star,n) & prec(w_star,n)))"
    )
    assert alpha_eq(F, want)

    # (b) the two recorded substitutions are a witness whose normalized
    # disjunctive form is exactly the expected seven-conjunct set
    s1, s2 = two_instance_witness_substitutions()
    verdict, _ = check_instances(A, [s1, s2])
    assert verdict is True
    d = herbrand_disjunction(A, 4)
    disjunction = Or(d.instance(s1), d.instance(s2))
    assert set(keyed(dnf(disjunction))) == expected_dnf_set_c()

    # (c) minimal instance count at order 4 is exactly two
    assert herbrand_complexity(A, 4, 3) == 2

    # (d) a checkable modus-ponens-free derivation
    witness = PropertyCWitness(4, (s1, s2))
    derivation = mp_eliminate(herbrand_disjunction(A, 1), witness.substitutions)
    assert check(derivation) is None
    assert count_rule(derivation, MP) == 0
    assert alpha_eq(derivation.final, rectify(A))

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 1 (running example reproduction): PASS in {elapsed:.2f}s")


def test_criterion_2_false_lemma_regression():
    t0 = time.monotonic()

    # first counterexample candidate: witness {x -> y*} at order 2, and
    # the order does not flip after moving the quantifier out
    f = parse("(?x. P(x)) | ~(?y. P(y))")
    ok, witness = property_c(f, 2)
    assert ok is True
    sigma = Subst({"x": parse_term("y_star")})
    assert sigma in witness.substitutions
    assert check_instances(f, [sigma])[0] is True
    moved = passage(f, (), 5, "prenex")
    assert property_c(moved, 2)[0] is True

    # second counterexample: Property C of order 2 flips under a single
    # Rule of Passage application
    G = parse("((?x. P(x)) & (!y. Q(y))) | ~(?x. P(x)) | ~(!y. Q(y))")
    assert property_c(G, 2)[0] is True
    moved_g = passage(G, (0, 0), 5, "prenex")
    assert property_c(moved_g, 2)[0] is False

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 2 (false lemma regression): PASS in {elapsed:.2f}s")


def test_criterion_3_champ_fini_cardinality():
    t0 = time.monotonic()
    signature = [
        Symbol("u*", 0, SKOLEM_CONSTANT),
        Symbol("v*", 0, SKOLEM_CONSTANT),
        Symbol("w*", 0, SKOLEM_CONSTANT),
        Symbol("m*", 2, SKOLEM_FUNCTION),
    ]
    got = champ_fini(signature, (), 4)

    # independent oracle: fixed-point closure
    oracle = {App(s) for s in signature if s.arity == 0}
    changed = True
    while changed:
        changed = False
        pool = [t for t in oracle if height(t) < 3]
        for args in itertools.product(pool, repeat=2):
            t = App(signature[3], args)
            if height(t) < 4 and t not in oracle:
                oracle.add(t)
                changed = True
    assert len(oracle) == 147
    assert set(got.terms) == oracle
    assert len(got) == 147
    # the closed form 3 + 3^2 + (3 + 3^2)^2 = 156 would double count the
    # nine height-two terms inside the final square
    assert len(got) == 3 + 9 + (12**2 - 9)

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 3 (champ fini cardinality): PASS in {elapsed:.2f}s")


def test_criterion_4_membership_and_soundness():
    t0 = time.monotonic()
    A = parse(RUNNING_EXAMPLE)
    s1, s2 = two_instance_witness_substitutions()
    d = herbrand_disjunction(A, 4)
    witness = PropertyCWitness(4, (s1, s2))
    derivation = mp_eliminate(herbrand_disjunction(A, 1), witness.substitutions)

    # per-conjunct membership: every conjunct of the starting
    # tautology's normal form appears in some recorded instance's normal
    # form (Skolem-headed terms read as atoms); the full order-4
    # disjunction is never materialized
    def box_formula(g):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(_box_term(t) for t in g.args))
        return with_children(g, tuple(box_formula(k) for k in children(g)))

    instance_dnfs = [
        set(keyed(dnf(box_formula(d.instance(s))))) for s in (s1, s2)
    ]
    start_dnf = keyed(dnf(derivation.steps[0].formula))
    for conjunct in start_dnf:
        assert any(conjunct in clauses for clauses in instance_dnfs)

    # Property C soundness: whenever it holds, random finite structures
    # of size <= 4 satisfy the formula; zero violations allowed
    rng = random.Random(1234)
    valids = [
        parse("P(c) | ~P(c)"),
        parse("(?x. P(x)) | ~(?y. P(y))"),
        parse("(!x. P(x)) -> P(c)"),
        parse("?x. (P(x) -> (!y. P(y)))"),
        parse("(!x. (P(x) -> Q(x))) & P(c) -> Q(c)"),
        parse("P(c) -> (?x. P(x))"),
        parse("((?x. P(x)) & (!y. Q(y))) | ~(?x. P(x)) | ~(!y. Q(y))"),
        parse("(!x. P(x)) | ~(!y. P(y))"),
    ]
    structures = 0
    for f in valids:
        order = 1
        while not property_c(f, order)[0]:
            order += 1
            assert order <= 3, "corpus formula should hold by order 3"
        for _ in range(125):
            s = random_structure(rng, f, rng.randrange(1, 5))
            assert eval_in_structure(s, f), "Property C held but a structure fails"
            structures += 1
    assert structures == 1000

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 4 (membership + soundness suite): PASS in {elapsed:.2f}s")


def _closed_arith_formulas(max_size):
    """Every closed formula over 0/S/= up to the given node count."""

    def terms(size, vars_):
        if size < 1:
            return []
        out = [s_term(size - 1, None)]
        out += [s_term(size - 1, v) for v in vars_]
        return out

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def formulas(size, vars_):
        vars_list = list(vars_)
        out = []
        for left_size in range(1, size - 1):
            for t1 in terms(left_size, vars_list):
                for t2 in terms(size - 1 - left_size, vars_list):
                    out.append(Atom(EQ, (t1, t2)))
        if size >= 2:
            out += [Not(b) for b in formulas(size - 1, vars_)]
            fresh = f"v{len(vars_list)}"
            for ctor in (Forall, Exists):
                out += [
                    ctor(fresh, b)
                    for b in formulas(size - 1, tuple(vars_list + [fresh]))
                ]
        for left_size in range(1, size - 1):
            for ctor in (And, Or, Implies, Iff):
                out += [
                    ctor(l, r)
                    for l in formulas(left_size, vars_)
                    for r in formulas(size - 1 - left_size, vars_)
                ]
        return out

    seen = []
    for size in range(1, max_size + 1):
        for f in formulas(size, ()):
            if not free_vars(f):
                seen.append(f)
    return seen


def test_criterion_5_arithmetic_decider():
    t0 = time.monotonic()

    corpus = _closed_arith_formulas(7)
    assert len(corpus) > 500
    disagreements = 0
    for f in corpus:
        if (decide(f) == "derivable") != eval_nat(f):
            disagreements += 1
    assert disagreements == 0

    rng = random.Random(77)
    randoms = 0
    while randoms < 500:
        f = _random_arith_sentence(rng, 4)
        randoms += 1
        oracle = eval_nat(f)
        assert oracle == eval_nat(f, slack=1) == eval_nat(f, slack=2)
        assert (decide(f) == "derivable") == oracle

    assert decide(parse("!x. (x = 0 | ?y. x = S(y))")) == "derivable"
    assert decide(parse("!x. S(x) != 0")) == "derivable"
    assert decide(parse("?x. S(x) = x")) == "refutable"
    assert decide(parse("0 != 0")) == "refutable"

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 5 (arithmetic decider, {len(corpus)} exhaustive + 500 random):"
          f" PASS in {elapsed:.2f}s")


def _random_arith_sentence(rng, depth):
    def term(vars_):
        return s_term(rng.randrange(0, 3), rng.choice([None] + vars_))

    def go(d, vars_):
        if d == 0 or (vars_ and rng.random() < 0.3):
            return Atom(EQ, (term(vars_), term(vars_)))
        kind = rng.choice(["not", "and", "or", "imp", "all", "ex"])
        if kind == "not":
            return Not(go(d - 1, vars_))
        if kind in ("and", "or", "imp"):
            ctor = {"and": And, "or": Or, "imp": Implies}[kind]
            return ctor(go(d - 1, vars_), go(d - 1, vars_))
        v = f"v{len(vars_)}"
        return (Forall if kind == "all" else Exists)(v, go(d - 1, vars_ + [v]))

    while True:
        f = go(depth, [])
        if not free_vars(f):
            return f


def test_criterion_6_unification():
    t0 = time.monotonic()
    u = unify(
        parse_term("Pr(x, f(a, y))", {"x", "y"}),
        parse_term("Pr(a, f(z, b))", {"z"}),
    )
    assert u.ok
    assert u.substitution == Subst(
        {"x": parse_term("a"), "z": parse_term("a"), "y": parse_term("b")}
    )

    const_a = Symbol("a", 0)
    fun_f = Symbol("f", 1)
    fun_h = Symbol("h", 2)
    pool = [
        App(const_a),
        Var("u0"),
        App(fun_f, (App(const_a),)),
        App(fun_f, (Var("u0"),)),
        App(fun_h, (App(const_a), Var("u0"))),
    ]
    assert all(height(t) <= 2 for t in pool)

    def match(pattern, target, binding):
        if isinstance(pattern, Var):
            if pattern.name in binding:
                return binding[pattern.name] == target
            binding[pattern.name] = target
            return True
        if isinstance(target, Var) or pattern.sym != target.sym:
            return False
        return all(match(p, t, binding)
                   for p, t in zip(pattern.args, target.args))

    rng = random.Random(31337)
    pairs = 0
    violations = 0
    while pairs < 1000:
        s = random_term(rng, ["x", "y", "z"][: rng.randrange(1, 4)],
                        rng.randrange(0, 3), (const_a, fun_f, fun_h))
        t = random_term(rng, ["x", "y", "z"][: rng.randrange(1, 4)],
                        rng.randrange(0, 3), (const_a, fun_f, fun_h))
        pairs += 1
        result = unify(s, t)
        if not result.ok:
            continue
        sigma = result.substitution
        if apply_term(sigma, s) != apply_term(sigma, t):
            violations += 1
        if not is_idempotent(sigma):
            violations += 1
        vars_ = sorted(term_vars(s) | term_vars(t))
        if len(vars_) > 3:
            continue
        for images in itertools.product(pool, repeat=len(vars_)):
            theta = Subst(dict(zip(vars_, images)))
            if apply_term(theta, s) != apply_term(theta, t):
                continue
            binding: dict = {}
            if not all(
                match(apply_term(sigma, Var(v)), apply_term(theta, Var(v)), binding)
                for v in vars_
            ):
                violations += 1
    assert violations == 0

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 6 (unification laws on 1000 pairs): PASS in {elapsed:.2f}s")


VALID_CORPUS = [
    "P{i}(c) | ~P{i}(c)",
    "(?x. P{i}(x)) | ~(?y. P{i}(y))",
    "(!x. P{i}(x)) -> P{i}(c)",
    "?x. (P{i}(x) -> (!y. P{i}(y)))",
    "(!x. (P{i}(x) -> Q{i}(x))) & P{i}(c) -> Q{i}(c)",
    "P{i}(c) -> (?x. P{i}(x))",
    "(!x. P{i}(x)) | ~(!y. P{i}(y))",
    "((?x. P{i}(x)) & (!y. Q{i}(y))) | ~(?x. P{i}(x)) | ~(!y. Q{i}(y))",
    "(!x. (P{i}(x) & Q{i}(x))) -> (!y. P{i}(y))",
    "(?x. (P{i}(x) | Q{i}(x))) | ~(?y. P{i}(y))",
]

INVALID_CORPUS = [
    "?x. P0(x)",
    "P0(c)",
    "!x. P0(x)",
    "P0(c) -> Q0(c)",
    "(?x. P0(x)) -> (!y. P0(y))",
    "(!x. (P0(x) | Q0(x))) -> (!y. P0(y))",
    "?x. (P0(x) & ~P0(x))",
    "(?x. P0(x)) & (?y. ~P0(y))",
    "~(P0(c) | ~P0(c)) | P1(c)",
    "P0(c) <-> ~P0(c)",
]


def test_criterion_7_procedure_agreement():
    t0 = time.monotonic()
    formulas = [
        parse(template.format(i=i))
        for template in VALID_CORPUS
        for i in range(3)
    ]
    assert len(formulas) == 30
    for f in formulas:
        g = prove_gilmore(herbrand_disjunction(f, 1), 3)
        d = prove_dp(herbrand_disjunction(f, 1), 3)
        r = prove_resolution(herbrand_disjunction(f, 1), 5000)
        assert g.found and d.found and r.found
        assert g.order == d.order
        verified, _ = check_instances(f, list(r.witness))
        assert verified

    for text in INVALID_CORPUS:
        f = parse(text)
        assert prove_gilmore(herbrand_disjunction(f, 1), 3).gave_up
        assert prove_dp(herbrand_disjunction(f, 1), 3).gave_up
        assert prove_resolution(herbrand_disjunction(f, 1), 2000).gave_up

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 7 (procedure agreement on 40 problems): PASS in {elapsed:.2f}s")


def test_criterion_8_order_bound():
    t0 = time.monotonic()

    rng = random.Random(271828)
    for _ in range(100):
        n = rng.randrange(1, 8)
        r = rng.randrange(0, 5)
        N = rng.randrange(1, 30)
        # independent slow computation with explicit big-integer loops
        power = 1
        for _ in range(r):
            power *= N
        base = power + 1
        want = n
        for _ in range(n):
            want *= base
        assert godel_dreben_order(n, r, N) == want

    # micro-scale sanity: Property C at order n plus one Passage step
    # implies Property C at some order within the bound
    cases = []
    for i in range(5):
        cases.append((parse(f"(?x. A{i}(x)) | ~(?y. A{i}(y))"), ()))
        cases.append(
            (
                parse(
                    f"((?x. B{i}(x)) & (!y. C{i}(y)))"
                    f" | ~(?x. B{i}(x)) | ~(!y. C{i}(y))"
                ),
                (0, 0),
            )
        )
    assert len(cases) == 10
    for f, position in cases:
        n = 1
        while not property_c(f, n)[0]:
            n += 1
            assert n <= 3
        skolemized = skolemize_outer(rectify(f))
        N = len(herbrand_disjunction(f, n).champ)
        r = _enclosing_gamma_count(f, position)
        bound = godel_dreben_order(n, r, N)
        moved = passage(f, position, 5, "prenex")
        found = None
        for order in range(1, min(bound, 6) + 1):
            if property_c(moved, order)[0]:
                found = order
                break
        assert found is not None and found <= bound

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 8 (order bound): PASS in {elapsed:.2f}s")


def _enclosing_gamma_count(f, position):
    count = 0
    for k in range(len(position)):
        prefix = position[:k]
        g = None
        from herbrand.syntax import subformula_at, QUANT

        g = subformula_at(f, prefix)
        if isinstance(g, QUANT) and classify(rectify(f), prefix) == "gamma":
            count += 1
    return count
