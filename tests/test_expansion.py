import dataclasses
import itertools
import random

import pytest

from herbrand.expansion import (
    BudgetExceededError,
    arith_substructure_witness,
    champ_fini,
    check_instances,
    dump_structure,
    eval_in_structure,
    expand,
    falsifying_structure,
    godel_dreben_order,
    ground_clauses,
    herbrand_complexity,
    herbrand_disjunction,
    load_structure,
    property_b,
    property_c,
)
from herbrand.syntax import (
    App,
    Atom,
    QUANT,
    SKOLEM_CONSTANT,
    SKOLEM_FUNCTION,
    Subst,
    Symbol,
    Var,
    apply,
    formula_symbols,
    height,
    parse,
    parse_term,
    print_formula,
    print_term,
    rectify,
    subformulas,
)
from herbrand.transform import skolemize_outer

from util import (
    CONST_A, FUN_F, P1, Q1, R2, keyed, multiplied_out, random_formula, random_structure,
)

RUNNING_EXAMPLE = (
    "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
)


def brute_force_terms(signature, variables, n):
    """Independent oracle: fixed-point closure instead of level lists."""
    terms = {Var(v) for v in variables}
    funcs = [s for s in signature if s.kind != "predicate"]
    changed = True
    while changed:
        changed = False
        argpool = [t for t in terms if height(t) < n - 1]
        for sym in funcs:
            for args in itertools.product(argpool, repeat=sym.arity):
                t = App(sym, args)
                if height(t) < n and t not in terms:
                    terms.add(t)
                    changed = True
    return terms


def test_champ_fini_examples():
    c = champ_fini([Symbol("a", 0), Symbol("f", 1)], (), 2)
    assert [print_term(t) for t in c.terms] == ["a"]
    c = champ_fini([], (), 1)
    assert [print_term(t) for t in c.terms] == ["l"]
    sig = [
        Symbol("u*", 0, SKOLEM_CONSTANT),
        Symbol("v*", 0, SKOLEM_CONSTANT),
        Symbol("w*", 0, SKOLEM_CONSTANT),
        Symbol("m*", 2, SKOLEM_FUNCTION),
    ]
    c4 = champ_fini(sig, (), 4)
    assert len(c4) == 147
    assert set(c4.terms) == brute_force_terms(sig, (), 4)


def test_champ_fini_matches_brute_force_randomly():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        syms = []
        for i in range(rng.randrange(1, 4)):
            syms.append(Symbol(f"g{i}", rng.randrange(0, 3)))
        variables = [f"x{i}" for i in range(rng.randrange(0, 3))]
        n = rng.randrange(1, 5)
        got = champ_fini(syms, variables, n)
        if len(got) > 800:
            continue
        checked += 1
        want = brute_force_terms(syms, variables, n)
        if not want:
            want = brute_force_terms(syms, list(variables) + ["l"], n)
            if not want:
                want = {Var("l")}
        assert set(got.terms) == want
        assert len(got.terms) == len(set(got.terms))
        # deterministic order: by height then printed form
        keys = [(height(t), print_term(t)) for t in got.terms]
        assert keys == sorted(keys)


def test_expand_examples():
    A = parse("!x. (x = 0 | ?y. x = S(y))")
    T = [parse_term("S(S(S(0)))"), parse_term("S(S(z))", {"z"})]
    got = expand(A, T)
    want = parse(
        "(S(S(S(0))) = 0 | S(S(S(0))) = S(S(S(S(0)))) | S(S(S(0))) = S(S(S(z))))"
        " & (S(S(z)) = 0 | S(S(z)) = S(S(S(S(0)))) | S(S(z)) = S(S(S(z))))",
        {"z"},
    )
    from herbrand.sat import cnf

    assert cnf(got) == cnf(want)
    qfree = parse("P(a) & ~Q(b)")
    assert expand(qfree, T) == qfree
    assert expand(parse("?x. P(x)"), [parse_term("a")]) == parse("P(a)")
    with pytest.raises(ValueError):
        expand(parse("?x. P(x)"), [])


def test_expansion_is_quantifier_free_over_t():
    rng = random.Random(3)
    for _ in range(100):
        f = rectify(random_formula(rng, rng.randrange(1, 4), []))
        d = herbrand_disjunction(f, 2)
        expanded = expand(d.skolemized, d.champ.terms)
        assert all(not isinstance(g, QUANT) for _, g in subformulas(expanded))
        allowed = set(d.champ.terms)
        for _, g in subformulas(expanded):
            if isinstance(g, Atom):
                for t in g.args:
                    for v in _vars_of(t):
                        assert Var(v) in allowed or v == "l"


def _vars_of(t):
    from herbrand.syntax import term_vars

    return term_vars(t)


def test_herbrand_disjunction_examples():
    d = herbrand_disjunction(parse("P(a)"), 1)
    assert d.matrix == parse("P(a)")
    assert d.gamma_vars == ()
    assert list(d.substitutions()) == [Subst()]

    A = parse(RUNNING_EXAMPLE)
    d = herbrand_disjunction(A, 4)
    assert len(d.gamma_vars) == 6
    want_matrix = parse(
        "(prec(a,b) & prec(b,c) -> prec(a,c))"
        " & (prec(x,m_star(x,y)) & prec(y,m_star(x,y)))"
        " -> (prec(u_star,n) & prec(v_star,n) & prec(w_star,n))",
        frees={"a", "b", "c", "x", "y", "n"},
    )
    assert d.matrix == want_matrix
    assert len(d.champ) == 147
    assert d.count == 147**6
    assert d.count > 10**13

    ex = parse("(?x. P(x)) | ~(?y. P(y))")
    d = herbrand_disjunction(ex, 2, always_lexicon=True)
    assert d.matrix == parse("P(x) | ~P(y_star)", frees={"x"})
    subs = list(d.substitutions())
    assert Subst({"x": parse_term("y_star")}) in subs
    assert Subst({"x": Var("l")}) in subs


def test_property_c_examples():
    assert property_c(parse("P(a) | ~P(a)"), 1)[0]
    assert not property_c(parse("P(a)"), 2)[0]
    ok, witness = property_c(parse("(?x. P(x)) | ~(?y. P(y))"), 2)
    assert ok and witness is not None
    assert Subst({"x": parse_term("y_star")}) in witness.substitutions
    assert not property_c(parse("(?x. P(x)) | ~(?y. P(y))"), 1)[0]


def test_property_c_budget():
    with pytest.raises(BudgetExceededError):
        property_c(parse(RUNNING_EXAMPLE), 4, budget=10**5)


def test_check_instances_examples():
    A = parse(RUNNING_EXAMPLE)
    s1, s2 = two_instance_witness_substitutions()
    assert check_instances(A, [s1, s2])[0]
    assert not check_instances(A, [s1])[0]
    assert not check_instances(A, [])[0]
    with pytest.raises(ValueError):
        check_instances(A, [Subst({"a": parse_term("u_star")})])


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


def test_check_instances_agrees_with_property_c():
    rng = random.Random(29)
    agree = 0
    for _ in range(60):
        f = rectify(random_formula(rng, rng.randrange(1, 4), []))
        d = herbrand_disjunction(f, 2)
        if d.count > 10**4:
            continue
        full = list(d.substitutions())
        got = check_instances(f, full)[0] if full else False
        want = property_c(f, 2)[0]
        assert got == want
        agree += 1
    assert agree >= 30


def test_property_c_monotone():
    rng = random.Random(31)
    checked = 0
    for _ in range(100):
        f = rectify(random_formula(rng, rng.randrange(1, 4), []))
        try:
            first = property_c(f, 1, budget=10**4)[0]
            second = property_c(f, 2, budget=10**4)[0]
        except BudgetExceededError:
            continue
        if first:
            assert second
        checked += 1
    assert checked >= 60


def test_herbrand_complexity_examples():
    assert herbrand_complexity(parse("P(a) | ~P(a)"), 1, 2) == 1
    assert herbrand_complexity(parse("(?x. P(x)) | ~(?y. P(y))"), 2, 2) == 1
    assert herbrand_complexity(parse(RUNNING_EXAMPLE), 4, 3) == 2
    assert herbrand_complexity(parse("P(a)"), 1, 2) is None


def brute_force_complexity(f, n, k_max):
    """Independent oracle: try every k-subset of the full substitution
    family, smallest k first."""
    d = herbrand_disjunction(f, n)
    subs = list(d.substitutions())
    for k in range(1, k_max + 1):
        for subset in itertools.combinations(subs, k):
            if check_instances(f, list(subset))[0]:
                return k
    return None


def test_herbrand_complexity_matches_brute_force():
    rng = random.Random(4242)
    cases = []
    while len(cases) < 40:
        f = rectify(random_formula(rng, rng.randrange(1, 4), []))
        d = herbrand_disjunction(f, 2)
        if 1 <= len(d.gamma_vars) <= 2 and len(d.champ) <= 4:
            cases.append((f, 2))
    # constructed families that genuinely need several instances
    cases += [
        (parse("?x. (~A(x) | (A(c1) & A(c2)))"), 2),
        (parse("?x. (~A(x) | (A(c1) & A(c2) & A(c3)))"), 2),
        (parse("?x. (A(x) -> A(f(x)))"), 3),
        (parse("?x. (A(x) -> A(f(f(x))))"), 3),
        (parse("?x. ?y. ((A(x) & A(y)) -> (A(c1) & A(c2)))"), 2),
    ]
    seen_counts = set()
    for f, order in cases:
        want = brute_force_complexity(f, order, 3)
        got = herbrand_complexity(f, order, 3)
        assert got == want, print_formula(f)
        seen_counts.add(want)
    assert {1, 2, 3, None} <= seen_counts


def test_property_b_examples():
    assert property_b(parse("P(a) | ~P(a)"), 1)[0]
    assert property_b(parse("(?x. P(x)) | ~(?y. P(y))"), 2)[0]
    assert not property_b(parse("P(a)"), 2)[0]


def test_godel_dreben_order():
    assert godel_dreben_order(1, 0, 5) == 2
    assert godel_dreben_order(2, 1, 3) == 32
    assert godel_dreben_order(2, 2, 4) == 578
    with pytest.raises(ValueError):
        godel_dreben_order(0, 1, 1)


def test_eval_in_structure():
    from herbrand.expansion import FiniteStructure

    s = FiniteStructure(("0",), {}, {("P", 1): {("0",): True}}, {})
    assert eval_in_structure(s, parse("!x. P(x)"))
    s2 = FiniteStructure(
        ("0", "1"), {}, {("P", 1): {("0",): True, ("1",): False}}, {}
    )
    assert not eval_in_structure(s2, parse("!x. P(x)"))
    assert eval_in_structure(s2, parse("?x. P(x)"))


def test_running_example_is_valid_in_structures():
    # the two-element strict order satisfies the (valid) running example
    A = parse(RUNNING_EXAMPLE)
    from herbrand.expansion import FiniteStructure

    strict = FiniteStructure(
        ("0", "1"),
        {},
        {("prec", 2): {("0", "0"): False, ("0", "1"): True,
                       ("1", "0"): False, ("1", "1"): False}},
        {},
    )
    assert eval_in_structure(strict, A)
    # and so does every random structure
    rng = random.Random(7)
    for _ in range(50):
        s = random_structure(rng, A, rng.randrange(1, 4))
        assert eval_in_structure(s, A)


def test_falsifying_structure():
    s = falsifying_structure(parse("P(a)"), 1)
    assert s is not None
    assert not eval_in_structure(s, parse("P(a)"))

    f = parse("(!x. P(x)) | (!x. ~P(x))")
    s = falsifying_structure(f, 1)
    assert s is not None
    d = herbrand_disjunction(f, 1)
    expansion_formula = expand(d.skolemized, d.champ.terms)
    assert not eval_in_structure(s, expansion_formula)

    assert falsifying_structure(parse("P(a) | ~P(a)"), 1) is None


def test_falsifying_structure_random():
    rng = random.Random(59)
    hits = 0
    for _ in range(80):
        f = rectify(random_formula(rng, rng.randrange(1, 4), []))
        try:
            s = falsifying_structure(f, 1, budget=10**4)
        except BudgetExceededError:
            continue
        if s is None:
            continue
        hits += 1
        d = herbrand_disjunction(f, 1)
        expanded = expand(d.skolemized, d.champ.terms)
        assert not eval_in_structure(s, expanded)
    assert hits >= 20


def test_arith_substructure_witness():
    from herbrand.arith import axiom

    s = arith_substructure_witness([axiom("nat_2")], 1)
    assert s.domain == ("0", "1")
    assert s.fn_tables[("S", 1)][("0",)] == "1"
    assert s.fn_tables[("S", 1)][("1",)] == "1"

    s = arith_substructure_witness([axiom("nat_2"), axiom("nat_3")], 2)
    assert s.domain == ("0", "1", "2")

    s = arith_substructure_witness([], 1)
    assert len(s.domain) >= 1

    tags = ["eq-refl", "eq-sym", "eq-trans", "eq-subst", "nat_2", "nat_3", "nat_4",
            "nat_6"]
    s = arith_substructure_witness([axiom(t) for t in tags], 3)
    assert s.domain == ("0", "1", "2", "3")


def test_structure_serialization_round_trip():
    f = parse("(!x. P(x)) | (!x. ~P(x))")
    s = falsifying_structure(f, 1)
    text = dump_structure(s)
    again = load_structure(text)
    assert again.domain == s.domain
    assert again.fn_tables == s.fn_tables
    assert again.pred_tables == s.pred_tables
    assert again.var_env == s.var_env


def test_property_c_soundness_sample():
    # whenever Property C holds, the formula is valid: every structure
    # satisfies it
    rng = random.Random(67)
    valids = [
        parse("P(a) | ~P(a)"),
        parse("(?x. P(x)) | ~(?y. P(y))"),
        parse("(!x. P(x)) -> P(a)"),
        parse("?x. (P(x) -> (!y. P(y)))"),
    ]
    for f in valids:
        n = 1
        while not property_c(f, n)[0]:
            n += 1
            assert n <= 3
        for _ in range(100):
            s = random_structure(rng, f, rng.randrange(1, 5))
            assert eval_in_structure(s, f)


def _reference_grounding(d, sigmas, prune=False):
    """Per substitution: apply it to each clause of the negated matrix,
    multiplied out in full (only the ⊆-minimal ones with `prune`), and
    key the atoms.  Returns each substitution's clauses and the atoms of
    the instances."""
    from herbrand import sat

    base = [frozenset(c) for c in multiplied_out(d.matrix, False)]
    if prune:
        base = [c for c in base if not any(o < c for o in base)]
    per, atoms = [], {}
    for sigma in sigmas:
        per.append({
            frozenset((sat.atom_key(apply(sigma, a)), s) for s, a in c) for c in base
        })
        atoms.update((sat.atom_key(g), g) for _, g in subformulas(apply(sigma, d.matrix))
                     if isinstance(g, Atom))
    return per, atoms


def _assert_numbered(clauses, table):
    """The atom table is in key order, and each clause a sorted tuple of
    distinct literals over it."""
    assert list(table) == sorted(table)
    for clause in clauses:
        assert list(clause) == sorted(set(clause))
        assert all(type(lit) is int and 0 <= lit < 2 * len(table) for lit in clause)


def test_ground_clauses_match_per_substitution_grounding():
    # the grounder against grounding the negated matrix's ⊆-minimal
    # clauses under each substitution; the ⊆-minimal ground clauses are
    # those of grounding every clause, and the table has every ground atom
    from herbrand.sat import _prune

    rng = random.Random(31)
    families = explicit = pruned = 0
    while families < 60 or explicit < 60:
        f = rectify(random_formula(
            rng, 4, [], preds=(P1, Q1, R2), funcs=(CONST_A, FUN_F)
        ))
        d = herbrand_disjunction(f, rng.randrange(1, 4))
        if not d.gamma_vars or d.count > 2000:
            continue
        # the full family: every clause, its odometer-first producer
        family = list(d.substitutions())
        per, atoms = _reference_grounding(d, family, prune=True)
        every, _ = _reference_grounding(d, family)
        clauses, table = ground_clauses(d)
        _assert_numbered(clauses, table)
        clauses = dict(zip(keyed(clauses, table), clauses.values()))
        assert set(clauses) == set().union(*per)
        assert _prune(set(clauses)) == _prune(set().union(*every))
        pruned += set(clauses) != set().union(*every)
        for clause, first in clauses.items():
            assert type(first) is int
            assert first == min(p for p, cs in enumerate(per) if clause in cs)
            assert d.member(first) == family[first]
        assert table == atoms
        families += 1
        # an explicit list, repeats and equal copies of images included:
        # every clause with every producer
        sigmas = []
        for _ in range(rng.randrange(1, 12)):
            sigma = rng.choice(family)
            if rng.random() < 0.3:
                sigma = Subst({v: dataclasses.replace(t) for v, t in sigma.items()})
            sigmas.append(sigma)
        per, atoms = _reference_grounding(d, sigmas, prune=True)
        every, _ = _reference_grounding(d, sigmas)
        clauses, table = ground_clauses(d, sigmas)
        _assert_numbered(clauses, table)
        clauses = dict(zip(keyed(clauses, table), clauses.values()))
        assert clauses == {
            clause: [p for p, cs in enumerate(per) if clause in cs]
            for clause in set().union(*per)
        }
        assert _prune(set(clauses)) == _prune(set().union(*every))
        assert table == atoms
        explicit += 1
    assert pruned


def test_ground_clauses_budget():
    d = herbrand_disjunction(parse(RUNNING_EXAMPLE), 4)
    with pytest.raises(BudgetExceededError):
        ground_clauses(d, budget=d.count - 1)
    assert ground_clauses(d, [], budget=0) == ({}, {})
