import itertools
import random
import sys
from collections import Counter

import pytest

from herbrand import sat
from herbrand.engine import (
    Clause,
    ProofResult,
    factor,
    find_tautological_instances,
    minimize_witness,
    prove_dp,
    prove_gilmore,
    prove_resolution,
    rebuild_provenance,
    resolve,
    standardize_apart,
    unify,
)
from herbrand.expansion import (
    check_instances,
    ground_clauses,
    herbrand_disjunction,
    property_c,
)
from herbrand.sat import atom_key
from herbrand.syntax import (
    And,
    App,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    PREDICATE,
    Subst,
    Symbol,
    Term,
    Var,
    apply,
    apply_term,
    parse,
    parse_term,
    print_formula,
    print_term,
    term_vars,
)

from util import (
    all_structures,
    grounding,
    iff_tree,
    is_idempotent,
    keyed,
    random_clause,
    random_qf,
    random_term,
    reference_nnf,
)

CONST_A = Symbol("a", 0)
FUN_F = Symbol("f", 1)
FUN_H = Symbol("h", 2)
PRED = Symbol("R", 2, PREDICATE)


def small_term(rng, depth):
    return random_term(rng, ["x", "y", "z"], depth, funcs=(CONST_A, FUN_F, FUN_H))


def enumerate_ground_subs(vars_):
    """All substitutions of the pair's variables into terms of height
    <= 2 over the small signature."""
    pool = [App(CONST_A), Var("u0")]
    pool += [App(FUN_F, (t,)) for t in list(pool)]
    pool += [
        App(FUN_H, (s, t))
        for s in [App(CONST_A), Var("u0")]
        for t in [App(CONST_A), Var("u0")]
    ]
    pool = [t for t in pool if _height(t) <= 2]
    for images in itertools.product(pool, repeat=len(vars_)):
        yield Subst(dict(zip(vars_, images)))


def _height(t):
    from herbrand.syntax import height

    return height(t)


def match_terms(pattern: Term, target: Term, binding: dict) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding[pattern.name] == target
        binding[pattern.name] = target
        return True
    if isinstance(target, Var) or pattern.sym != target.sym:
        return False
    return all(match_terms(p, t, binding) for p, t in zip(pattern.args, target.args))


def test_unify_textbook_pair():
    u = unify(
        parse_term("Pt(x, f(a, y))", {"x", "y"}),
        parse_term("Pt(a, f(z, b))", {"z"}),
    )
    assert u.ok
    assert u.substitution == Subst(
        {"x": parse_term("a"), "z": parse_term("a"), "y": parse_term("b")}
    )


def test_unify_trivia():
    assert unify(Var("x"), Var("x")) == unify(Var("x"), Var("x"))
    u = unify(Var("x"), Var("x"))
    assert u.ok and not u.substitution
    occ = unify(Var("x"), parse_term("f(x)", {"x"}))
    assert occ.status == "occurs"
    clash = unify(parse_term("f(a)"), parse_term("g(a)"))
    assert clash.status == "clash"
    # equations are handled left to right: the first variable pair binds
    x, y = Var("x"), Var("y")
    assert unify(App(FUN_H, (x, y)), App(FUN_H, (y, x))).substitution == Subst({"x": y})
    assert unify(Atom(PRED, (x, y)), Atom(PRED, (y, x))).substitution == Subst({"x": y})


def test_mgu_laws():
    rng = random.Random(2024)
    pairs = 0
    brute_checked = 0
    while pairs < 1000:
        s = small_term(rng, rng.randrange(0, 3))
        t = small_term(rng, rng.randrange(0, 3))
        pairs += 1
        u = unify(s, t)
        if not u.ok:
            continue
        sigma = u.substitution
        # (a) unifies
        assert apply_term(sigma, s) == apply_term(sigma, t)
        # (b) idempotent
        assert is_idempotent(sigma)
        for v, image in sigma.items():
            assert apply_term(sigma, image) == image
        # (c) most general against brute-force unifiers
        vars_ = sorted(term_vars(s) | term_vars(t))
        if len(vars_) > 2 or brute_checked >= 120:
            continue
        brute_checked += 1
        for theta in enumerate_ground_subs(vars_):
            if apply_term(theta, s) != apply_term(theta, t):
                continue
            binding: dict = {}
            ok = all(
                match_terms(apply_term(sigma, Var(v)), apply_term(theta, Var(v)),
                            binding)
                for v in vars_
            )
            assert ok, f"{print_term(s)} =? {print_term(t)}: {theta} not an instance"
    assert brute_checked >= 60


def test_unify_symmetry_up_to_renaming():
    rng = random.Random(4)
    for _ in range(300):
        s = small_term(rng, rng.randrange(0, 3))
        t = small_term(rng, rng.randrange(0, 3))
        u1 = unify(s, t)
        u2 = unify(t, s)
        assert u1.ok == u2.ok
        if u1.ok:
            a1 = apply_term(u1.substitution, s)
            a2 = apply_term(u2.substitution, s)
            b: dict = {}
            assert match_terms(a1, a2, b) or match_terms(a2, a1, {})


def test_resolve_examples():
    P = Symbol("P0", 0, PREDICATE)
    Q = Symbol("Q0", 0, PREDICATE)
    R = Symbol("R0", 0, PREDICATE)
    c1 = Clause(frozenset([(True, Atom(P)), (True, Atom(Q))]))
    c2 = Clause(frozenset([(False, Atom(P)), (True, Atom(R))]))
    r = resolve(c1, c2, (True, Atom(P)), (False, Atom(P)))
    assert r is not None and r.literals == frozenset(
        [(True, Atom(Q)), (True, Atom(R))]
    )

    S1 = Symbol("S1", 1, PREDICATE)
    Pt = Symbol("Pt", 2, PREDICATE)
    a1 = Atom(Pt, (Var("x"), parse_term("f(a, y)", {"y"})))
    a2 = Atom(Pt, (App(CONST_A), parse_term("f(z, b)", {"z"})))
    c1 = Clause(frozenset([(True, a1)]))
    c2 = Clause(frozenset([(False, a2), (True, Atom(S1, (Var("z"),)))]))
    r = resolve(c1, c2, (True, a1), (False, a2))
    assert r is not None
    assert r.literals == frozenset([(True, Atom(S1, (App(CONST_A),)))])

    with pytest.raises(ValueError):
        resolve(c1, c2, (True, a1), (True, Atom(S1, (Var("z"),))))


def test_resolvent_is_entailed_semantically():
    # every resolvent is entailed by its parents in all small structures
    rng = random.Random(88)
    P1 = Symbol("P", 1, PREDICATE)
    checked = 0
    while checked < 40:
        lits1 = frozenset(
            (rng.random() < 0.5, Atom(P1, (random_term(rng, ["x"], 1,
                                                        (CONST_A, FUN_F)),)))
            for _ in range(rng.randrange(1, 3))
        )
        lits2 = frozenset(
            (rng.random() < 0.5, Atom(P1, (random_term(rng, ["y"], 1,
                                                        (CONST_A, FUN_F)),)))
            for _ in range(rng.randrange(1, 3))
        )
        c1, c2 = Clause(lits1), Clause(lits2)
        pair = next(
            (
                (l1, l2)
                for l1 in lits1
                for l2 in lits2
                if l1[0] != l2[0] and l1[1].pred == l2[1].pred
            ),
            None,
        )
        if pair is None:
            continue
        r = resolve(c1, c2, *pair)
        if r is None:
            continue
        checked += 1
        signature_probe = _closure(Clause(c1.literals | c2.literals))
        for size in (1, 2, 3):
            for s in all_structures(signature_probe, size):
                if eval_closure(s, c1) and eval_closure(s, c2):
                    assert eval_closure(s, r)


def _clause_formula(literals):
    from herbrand.syntax import Or

    lits = [Atom(a.pred, a.args) if sign else Not(Atom(a.pred, a.args))
            for sign, a in literals]
    out = lits[0]
    for l in lits[1:]:
        out = Or(out, l)
    return out


def _closure(clause):
    from herbrand.syntax import Forall, free_vars

    f = _clause_formula(clause.literals)
    for v in sorted(free_vars(f)):
        f = Forall(v, f)
    return f


def eval_closure(s, clause):
    """Truth of the clause's universal closure in the structure."""
    from herbrand.expansion import eval_in_structure

    if clause.is_empty():
        return False
    return eval_in_structure(s, _closure(clause))


def test_resolve_drops_literals_equal_but_not_identical():
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        c1 = Clause(random_clause(rng, ["x", "y"], 3))
        c2 = Clause(random_clause(rng, ["z"], 3))
        for l1 in c1.literals:
            for l2 in c2.literals:
                if l1[0] == l2[0] or l1[1].pred != l2[1].pred:
                    continue
                u = unify(l1[1], l2[1])
                if not u.ok:
                    continue
                # copies: equal to the clauses' literals, other objects
                k1 = (l1[0], Atom(l1[1].pred, l1[1].args))
                k2 = (l2[0], Atom(l2[1].pred, l2[1].args))
                assert k1 == l1 and k1[1] is not l1[1]
                r = resolve(c1, c2, k1, k2)
                rest = (c1.literals - {l1}) | (c2.literals - {l2})
                sub = u.substitution
                assert r.literals == frozenset((s, apply(sub, a)) for s, a in rest)
                checked += 1
    assert checked > 50


def _tautologous_by_atom_keys(c: Clause) -> bool:
    keys = {(s, atom_key(a)) for s, a in c.literals}
    return any((not s, k) in keys for s, k in keys)


# a constant spelled like a variable name
CONST_V0 = Symbol("v0", 0)


def _random_clauses(seed: int, count: int) -> list[Clause]:
    """Random clauses, each next to a copy with its variable names
    permuted."""
    rng = random.Random(seed)
    names = ["x", "y", "x@3.1", "x@3.10", "y@12.0"]
    out = []
    for _ in range(count):
        c = Clause(random_clause(rng, rng.sample(names, 2), rng.randrange(1, 5),
                                 funcs=(CONST_A, CONST_V0, FUN_F)))
        out.append(c)
        out.append(c.apply_sub(Subst(dict(zip(names, map(Var, rng.sample(names, len(names))))))))
    return out


def test_renamed_copies_subsume_each_other():
    # the given-clause loop drops a renamed copy of a kept clause by
    # θ-subsumption alone
    from herbrand.engine import _profile, _subsumes

    clauses = _random_clauses(5, 600)
    for c, copy in zip(clauses[::2], clauses[1::2]):
        assert _subsumes(c, _profile(c), copy, _profile(copy)), (c, copy)
        assert _subsumes(copy, _profile(copy), c, _profile(c)), (c, copy)
    # a variable renamed to v0 is not the constant v0
    R = Symbol("R", 2, PREDICATE)
    x = Var("x")
    c1 = Clause(frozenset([(True, Atom(R, (x, App(CONST_V0))))]))
    c2 = Clause(frozenset([(True, Atom(R, (x, x)))]))
    assert not _subsumes(c1, _profile(c1), c2, _profile(c2))
    assert not _subsumes(c2, _profile(c2), c1, _profile(c1))


def test_clause_tautology_test_matches_atom_keys():
    clauses = _random_clauses(6, 600)
    flags = [_tautologous_by_atom_keys(c) for c in clauses]
    assert [c.is_tautology() for c in clauses] == flags
    assert any(flags) and not all(flags)


def test_factor():
    P1 = Symbol("P", 1, PREDICATE)
    c = Clause(frozenset([(True, Atom(P1, (Var("x"),))),
                          (True, Atom(P1, (App(CONST_A),)))]))
    lits = sorted(c.literals, key=str)
    fc = factor(c, lits[0], lits[1])
    assert fc is not None and len(fc.literals) == 1


def _reference_subsumes(c, d):
    """θ-subsumption by unification against a frozen copy of `d`, trying
    every image of every literal of `c`; `c` may not have more literals
    than `d` of any sign and predicate."""
    def kinds(clause):
        return Counter((sign, atom.pred) for sign, atom in clause)

    if kinds(c) - kinds(d):
        return False
    freeze = Subst({v: App(Symbol(f"#{v}", 0))
                    for _, atom in d for t in atom.args for v in term_vars(t)})
    frozen = [(sign, apply(freeze, atom)) for sign, atom in d]
    images = [[b for s, b in frozen if s == sign and b.pred == a.pred] for sign, a in c]
    for choice in itertools.product(*images):
        sigma = Subst()
        for (_, a), b in zip(c, choice):
            u = unify(a, b, under=sigma)
            if not u.ok:
                break
            sigma = u.substitution
        else:
            return True
    return False


def test_forward_subsumption_matches_the_reference():
    from herbrand.engine import _profile, _subsumes

    rng = random.Random(8)
    agree = Counter()
    for _ in range(2000):
        c = Clause(random_clause(rng, ["x", "y"], rng.randrange(1, 4)))
        if rng.random() < 0.5:
            # an instance of c, over variables that share c's names, plus
            # more literals: subsumed unless theta merges two of c's literals
            theta = Subst({v: random_term(rng, ["x", "z"], 1) for v in ("x", "y")})
            extra = random_clause(rng, ["x", "z"], rng.randrange(0, 3))
            d = Clause(frozenset((s, apply(theta, a)) for s, a in c.literals) | extra)
        else:
            d = Clause(random_clause(rng, ["x", "z"], rng.randrange(1, 5)))
        want = _reference_subsumes(list(c.literals), list(d.literals))
        assert _subsumes(c, _profile(c), d, _profile(d)) == want, (c, d)
        agree[want] += 1
    assert agree[True] > 500 and agree[False] > 500
    # no clause subsumes a clause with fewer literals, its own factor
    # included
    P = Symbol("P", 1, PREDICATE)
    c = Clause(frozenset([(True, Atom(P, (Var("x"),))), (True, Atom(P, (App(CONST_A),)))]))
    d = Clause(frozenset([(True, Atom(P, (App(CONST_A),)))]))
    assert not _subsumes(c, _profile(c), d, _profile(d))
    assert _subsumes(d, _profile(d), c, _profile(c))


def test_prove_resolution_examples():
    r = prove_resolution(herbrand_disjunction(parse("P(a) | ~P(a)"), 1))
    assert r.found and r.steps == 0
    assert check_instances(parse("P(a) | ~P(a)"), list(r.witness))[0]

    r = prove_resolution(herbrand_disjunction(parse("P(a)"), 1), 100)
    assert r.gave_up

    f = parse("(?x. P(x)) | ~(?y. P(y))")
    r = prove_resolution(herbrand_disjunction(f, 1))
    assert r.found
    assert check_instances(f, list(r.witness))[0]


def test_lazy_provenance_matches_eager_composition():
    P1 = Symbol("P", 1, PREDICATE)
    Q1 = Symbol("Q", 1, PREDICATE)
    a = App(CONST_A)
    x, y, z = Var("x"), Var("y"), Var("z")
    c0 = Clause(frozenset([(True, Atom(P1, (x,))), (True, Atom(P1, (a,)))]), index=0)
    c1 = Clause(frozenset([(False, Atom(P1, (y,))), (True, Atom(Q1, (y,)))]), index=1)
    c2 = Clause(frozenset([(False, Atom(Q1, (z,)))]), index=2)
    counter = itertools.count()

    f0 = factor(c0, (True, Atom(P1, (x,))), (True, Atom(P1, (a,))))  # {x -> a}
    s1 = standardize_apart(c1, counter)  # {y -> y@0.0}
    y0 = Var("y@0.0")
    r1 = resolve(f0, s1, (True, Atom(P1, (a,))), (False, Atom(P1, (y0,))))
    s2 = standardize_apart(c2, counter)  # {z -> z@1.0}
    z1 = Var("z@1.0")
    empty = resolve(r1, s2, (True, Atom(Q1, (a,))), (False, Atom(Q1, (z1,))))
    assert empty is not None and empty.is_empty()

    # the eager rule: each clause composes its parents' pairs, in parent
    # order, with its own substitution
    assert rebuild_provenance(c0) == ((0, Subst()),)
    assert rebuild_provenance(f0) == ((0, Subst({"x": a})),)
    assert rebuild_provenance(s1) == ((1, Subst({"y": y0})),)
    assert rebuild_provenance(r1) == (
        (0, Subst({"x": a, "y@0.0": a})),
        (1, Subst({"y": a, "y@0.0": a})),
    )
    assert rebuild_provenance(empty) == (
        (0, Subst({"x": a, "y@0.0": a, "z@1.0": a})),
        (1, Subst({"y": a, "y@0.0": a, "z@1.0": a})),
        (2, Subst({"z": a, "z@1.0": a})),
    )
    # a clause built without a record has no provenance
    assert rebuild_provenance(Clause(c0.literals)) == ()


def test_lazy_provenance_of_a_deep_derivation():
    # budgets, not the recursion limit, bound the work
    depth = sys.getrecursionlimit() + 100
    c = Clause(frozenset([(True, Atom(Symbol("P", 1, PREDICATE), (Var("x"),)))]),
               index=0)
    counter = itertools.count()
    for _ in range(depth):
        c = standardize_apart(c, counter)
    ((idx, theta),) = rebuild_provenance(c)
    assert idx == 0 and theta.get("x") == Var(f"x@{depth - 1}.0")


def _witness(*rows):
    """Witness substitutions of the gamma-variables a, b, c, n, x, y; a
    variable a row leaves out is mapped to the lexicon variable l."""
    return tuple(
        Subst({v: parse_term(row.get(v, "l"), {"l"}) for v in "abcnxy"})
        for row in rows
    )


RUNNING_EXAMPLE = (
    "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
)


def _running_example_witness():
    vw = "m_star(v_star, w_star)"
    vwu = f"m_star({vw}, u_star)"
    return _witness(
        {"a": "v_star", "b": vw, "c": vwu},
        {"x": "v_star", "y": "w_star"},
        {"x": vw, "y": "u_star"},
        {"n": vwu},
        {"a": "w_star", "b": vw, "c": vwu},
    )


def test_prove_resolution_running_example():
    A = parse(RUNNING_EXAMPLE)
    r = prove_resolution(herbrand_disjunction(A, 1), 100000)
    assert r.found
    assert check_instances(A, list(r.witness))[0]
    # pinned: any change to the loop order or the provenance shows here
    assert r.steps == 69
    assert r.witness == _running_example_witness()


def test_prove_resolution_running_example_within_a_small_budget():
    # negative selection and forward subsumption refute the running
    # example in well under a thousand inferences
    r = prove_resolution(herbrand_disjunction(parse(RUNNING_EXAMPLE), 1), 1000)
    assert r.found and r.witness == _running_example_witness()


def test_prove_resolution_counts_factoring_steps():
    # the refutation takes 6 resolution and 4 factoring attempts, and the
    # budget bounds both
    f = parse("?x,y,z. ~((P(x) | P(y) | P(z)) & ~P(a))")
    r = prove_resolution(herbrand_disjunction(f, 1))
    assert r.found and r.steps == 10
    assert check_instances(f, list(r.witness))[0]
    r = prove_resolution(herbrand_disjunction(f, 1), 9)
    assert r.gave_up and r.steps == 9 and r.reason == "step budget exhausted"


def test_prove_resolution_two_goal_variant():
    A = parse(
        "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
        " -> (!u,v. ?n. (prec(u,n) & prec(v,n)))"
    )
    r = prove_resolution(herbrand_disjunction(A, 1), 100000)
    assert r.found
    assert check_instances(A, list(r.witness))[0]
    assert r.steps == 6
    assert r.witness == _witness(
        {"n": "m_star(u_star, v_star)"},
        {"x": "u_star", "y": "v_star"},
    )


def test_prove_gilmore_and_dp():
    f = parse("(?x. P(x)) | ~(?y. P(y))")
    g = prove_gilmore(herbrand_disjunction(f, 1), 3)
    d = prove_dp(herbrand_disjunction(f, 1), 3)
    assert g.found and g.order == 2
    assert d.found and d.order == 2

    taut = parse("P(a) | ~P(a)")
    assert prove_gilmore(herbrand_disjunction(taut, 1), 3).order == 1
    assert prove_dp(herbrand_disjunction(taut, 1), 3).order == 1

    invalid = parse("?x. P(x)")
    assert prove_gilmore(herbrand_disjunction(invalid, 1), 3).gave_up
    assert prove_dp(herbrand_disjunction(invalid, 1), 3).gave_up


def test_gilmore_dp_agree_on_corpus():
    rng = random.Random(404)
    from util import random_formula
    from herbrand.syntax import rectify

    agree = 0
    while agree < 40:
        f = rectify(random_formula(rng, rng.randrange(1, 4), []))
        try:
            g = prove_gilmore(herbrand_disjunction(f, 1), 2, budget=10**4)
            d = prove_dp(herbrand_disjunction(f, 1), 2, budget=10**4)
        except Exception:
            continue
        if "budget" in g.reason or "budget" in d.reason:
            continue
        assert g.found == d.found
        if g.found:
            assert g.order == d.order
        agree += 1


def test_gilmore_and_dp_give_the_same_answer_and_witness():
    # the order loop and the witness cover are shared, so wherever
    # neither search stops on a budget the two engines must agree.  Half
    # the draws are g | ~g, its binders renamed apart: about half the
    # formulas are valid, some 40 of them first at order 2 or 3
    from util import random_formula, P1, Q1, R2, CONST_A, FUN_F
    from herbrand.syntax import rectify

    rng = random.Random(505)
    compared = proved = 0
    while compared < 200:
        f = random_formula(rng, rng.randrange(2, 6), [], preds=(P1, Q1, R2),
                           funcs=(CONST_A, FUN_F), allow_iff=True)
        f = rectify(Or(f, Not(f)) if rng.random() < 0.5 else f)
        g = prove_gilmore(herbrand_disjunction(f, 1), 3, budget=10**4)
        d = prove_dp(herbrand_disjunction(f, 1), 3, budget=10**4)
        if "budget" in g.reason or "budget" in d.reason:
            continue
        assert (g.found, g.order, g.witness) == (d.found, d.order, d.witness)
        compared += 1
        proved += d.found
    assert proved > 80


def test_resolution_witness_bridge():
    # proof-found implies the extracted witness passes check_instances
    corpus = [
        "(?x. P(x)) | ~(?y. P(y))",
        "(!x. P(x)) -> P(a)",
        "(!x. (P(x) -> Q(x))) & P(a) -> Q(a)",
        "?x. (P(x) -> (!y. P(y)))",
        "P(a) -> (?x. P(x))",
    ]
    for text in corpus:
        f = parse(text)
        r = prove_resolution(herbrand_disjunction(f, 1), 5000)
        assert r.found, text
        assert check_instances(f, list(r.witness))[0], text


def test_resolution_proves_what_dp_proves():
    # negative selection and forward subsumption lose no proof that the
    # order loop finds at order 2, and every witness they read out holds
    from util import random_formula
    from herbrand.syntax import rectify

    rng = random.Random(5)
    by_dp = 0
    for _ in range(300):
        f = rectify(random_formula(rng, rng.randrange(3, 8), []))
        r = prove_resolution(herbrand_disjunction(f, 1), 2000)
        if r.found:
            assert check_instances(f, list(r.witness))[0], f
        if prove_dp(herbrand_disjunction(f, 1), 2).found:
            by_dp += 1
            assert r.found, f
    assert by_dp >= 20


def test_minimize_witness():
    f = parse("(?x. P(x)) | ~(?y. P(y))")
    sigma = Subst({"x": parse_term("y_star")})
    extra = Subst({"x": Var("l")})
    kept = minimize_witness(herbrand_disjunction(f, 1), [extra, sigma])
    assert list(kept) == [sigma]


def test_minimize_witness_skolemizes_once(monkeypatch):
    from herbrand import expansion

    f = parse("?x. (P(x) -> (!y. P(y)))")
    witness = property_c(f, 3)[1].substitutions
    # the greedy pruning as it was, one check_instances per trial
    kept = list(witness)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept) - 1, -1, -1):
            if len(kept) == 1:
                break
            trial = kept[:i] + kept[i + 1:]
            if check_instances(f, trial)[0]:
                kept, changed = trial, True

    calls = []
    skolemize = expansion.skolemize_outer

    def counted(g, *rest):
        calls.append(g)
        return skolemize(g, *rest)

    monkeypatch.setattr(expansion, "skolemize_outer", counted)
    assert minimize_witness(herbrand_disjunction(f, 1), witness) == tuple(kept)
    assert len(witness) == 3 and len(calls) == 1


def test_first_producer_cover_minimizes_like_the_family():
    from util import random_formula
    from herbrand.syntax import rectify

    rng = random.Random(808)
    fixed = [
        parse("?x. (P(x) -> (!y. P(y)))"),
        parse("?x. (A(x) -> A(f(x)))"),
        parse("?x. (A(x) -> A(f(f(x))))"),
        parse("(?x. P(x)) | ~(?y. P(y))"),
        parse("?x,y. ((A(x) & A(y)) -> (A(c1) & A(c2)))"),
    ]
    orders, shrunk = set(), 0
    while len(orders) < 3 or shrunk < 5 or fixed:
        f = fixed.pop() if fixed else rectify(random_formula(rng, rng.randrange(1, 5), []))
        r = prove_dp(herbrand_disjunction(f, 1), 3, budget=100)
        if not r.found:
            continue
        d = herbrand_disjunction(f, r.order)
        family = list(d.substitutions())
        cover = r.witness
        assert [family.index(s) for s in cover] == sorted(map(family.index, cover))
        assert set(keyed(*ground_clauses(d, cover))) == set(keyed(*ground_clauses(d, family)))
        analysis = herbrand_disjunction(f, 1)
        assert minimize_witness(analysis, cover) == minimize_witness(analysis, family)
        assert prove_gilmore(herbrand_disjunction(f, 1), 3, budget=100).witness == cover
        orders.add(r.order)
        shrunk += len(cover) < len(family)
    assert orders == {1, 2, 3}


# the greedy pruning that minimize_witness made before deletion by
# bisection, kept as the reference: drop entries one at a time, last
# first, and sweep again until none goes


def _reference_minimize(f, sigmas):
    clauses, atoms = ground_clauses(herbrand_disjunction(f, 1), sigmas)
    verdict, _ = sat.decide_negation(clauses, atoms)
    if not verdict:
        return ()
    kept = list(range(len(sigmas)))
    changed = True
    while changed:
        changed = False
        for i in range(len(kept) - 1, -1, -1):
            if len(kept) == 1:
                break
            trial = kept[:i] + kept[i + 1:]
            members = set(trial)
            verdict, _ = sat.decide_negation(
                (c for c, positions in clauses.items() if not members.isdisjoint(positions)),
                atoms,
            )
            if verdict:
                kept = trial
                changed = True
    return tuple(sigmas[p] for p in kept)


def test_minimization_matches_the_greedy_reference():
    from util import CONST_A, FUN_F, random_formula
    from herbrand.syntax import rectify

    # a prover's witness among random members of the order-3 family,
    # shuffled; a quarter of the families are cut short, so that some
    # do not verify
    rng = random.Random(4242)
    families = pruned = 0
    while families < 200:
        f = rectify(random_formula(rng, rng.randrange(2, 6), [], funcs=(CONST_A, FUN_F)))
        d = herbrand_disjunction(f, 3)
        if not d.gamma_vars:
            continue
        r = prove_dp(herbrand_disjunction(f, 1), 3, budget=200)
        if not r.found:
            continue
        family = list(r.witness) + [d.member(rng.randrange(d.count)) for _ in range(rng.randrange(12))]
        rng.shuffle(family)
        if rng.random() < 0.25:
            family = family[:rng.randrange(1, len(family) + 1)]
        got = minimize_witness(herbrand_disjunction(f, 1), family)
        assert got == _reference_minimize(f, family), print_formula(f)
        families += 1
        pruned += 0 < len(got) < len(family)
    assert pruned >= 150


def _count_decisions(monkeypatch):
    calls = []
    dpll = sat.dpll

    def counted(cs):
        calls.append(len(cs.clauses))
        return dpll(cs)

    monkeypatch.setattr(sat, "dpll", counted)
    return calls


def test_minimization_decides_few_families(monkeypatch):
    # the two-goal variant's order-3 cover has 256 entries, of which two
    # are kept; dropping one entry at a time took 259 decisions
    f = parse(
        "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
        " -> (!u,v. ?n. (prec(u,n) & prec(v,n)))"
    )
    cover = prove_dp(herbrand_disjunction(f, 1), 3).witness
    calls = _count_decisions(monkeypatch)
    want = _reference_minimize(f, cover)
    assert len(cover) == 256 and len(want) == 2 and len(calls) == 259
    calls.clear()
    assert minimize_witness(herbrand_disjunction(f, 1), cover) == want
    assert len(calls) <= 20


def test_find_tautological_instances_respects_order():
    # the needed instance has height 2, so it exists at order 3, not 2
    f = parse("?x. (P(x) | ~(?y. P(y)))")
    d2 = herbrand_disjunction(f, 2)
    d3 = herbrand_disjunction(f, 3)
    assert find_tautological_instances(d2, 2, 1) is None
    found2 = find_tautological_instances(d2, 2, 2)
    assert found2 is not None  # {x -> l} with {x -> y*(l)} works at order 2
    found3 = find_tautological_instances(d3, 3, 2)
    assert found3 is not None


@pytest.mark.parametrize(
    "text, frees, n_max",
    [
        ("?x,y,z. (P(f(x),g(y)) & ~P(z,z))", set(), 3),
        ("?x,y. ((R(x,y) -> R(y,c)) & ~R(w,f(x)))", {"w"}, 3),
        # its base clauses use different subsets of the gamma-variables
        ("(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
         " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
         " -> (!u,v. ?n. (prec(u,n) & prec(v,n)))", set(), 2),
    ],
)
def test_prove_dp_clause_sets_match_per_substitution_grounding(
    monkeypatch, text, frees, n_max
):
    # both engines: the grounder's clauses against grounding the negated
    # matrix under every substitution, ⊆-minimal ones alike, and dpll's
    # input pruned once
    from herbrand import engine, sat

    grounded, refuted = [], []
    ground, dpll = engine.ground_clauses, sat.dpll

    def recorded_ground(*args, **kwargs):
        out = ground(*args, **kwargs)
        grounded.append(keyed(*out))
        return out

    def recorded_dpll(cs):
        refuted.append(cs)
        return dpll(cs)

    monkeypatch.setattr(engine, "ground_clauses", recorded_ground)
    monkeypatch.setattr(sat, "dpll", recorded_dpll)
    f = parse(text, frees=frees)
    for prove in (prove_dp, prove_gilmore):
        grounded.clear()
        refuted.clear()
        assert prove(herbrand_disjunction(f, 1), n_max).reason == f"no proof up to order {n_max}"
        assert len(grounded) == n_max
        assert len(refuted) == (n_max if prove is prove_dp else 0)
        for n, clauses in enumerate(grounded, 1):
            d = herbrand_disjunction(f, n)
            expected = {
                frozenset((sat.atom_key(apply(sigma, a)), s) for s, a in c)
                for sigma in d.substitutions()
                for c in _reference_formula_clauses(Not(d.matrix))
            }
            assert sat._prune(set(clauses)) == sat._prune(expected)
            if refuted:
                assert set(keyed(refuted[n - 1])) == sat._prune(expected)


@pytest.mark.parametrize("prove", [prove_dp, prove_gilmore])
def test_order_four_grounding_stays_small(prove):
    # the scaling family at order 4 grounds to 3,375 clauses over 240
    # atoms; as sorted tuples of int literals, one pair of ints made per
    # ground atom, each clause's first producer kept as an int, and
    # decided without re-keying, its order loop and gave-up structure
    # peak at 1.0-1.1 MB under tracemalloc.  Frozensets of (key, sign)
    # pairs, copied into the solver's own form, took 2.9-3.0 MB; the
    # bound sits between the two.
    import tracemalloc

    from herbrand.expansion import falsifying_structure

    f = parse("?x,y,z. (P(f(x),g(y)) & ~P(z,z))")
    tracemalloc.start()
    try:
        result = prove(herbrand_disjunction(f, 1), 4)
        structure = falsifying_structure(result.grounding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.reason == "no proof up to order 4" and structure is not None
    assert peak < 1_600_000


def test_grounding_keeps_an_iff_matrix_small(monkeypatch):
    # ?x. <a balanced Iff tree over three atoms>, leaf i the atom i mod 3:
    # at depth 4 the cnf of the negated matrix multiplies out to
    # 14,868,736 clauses.  The order loop, the witness check and the
    # gave-up structure ground it pruned at every product, as at depth 3,
    # which is checked first so that a grounder that stops pruning fails
    # there (2,704 clauses) instead of filling memory at depth 4.
    from herbrand.expansion import eval_in_structure, expand, falsifying_structure

    def sentence(leaves, depth):
        return parse(iff_tree(leaves, depth))

    # every node of the clausifier's recursion, the root before pruning
    clausify = sat._distributed
    sizes = []

    def recorded(*args, **kwargs):
        out = clausify(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(sat, "_distributed", recorded)
    ground_clauses(herbrand_disjunction(sentence(("P(x)", "P(a)", "P(b)"), 3), 1))
    assert sizes and max(sizes) <= 64
    monkeypatch.undo()

    # the tree reads P(x) <-> P(b), valid at x = b ...
    valid = sentence(("P(a)", "P(x)", "P(b)"), 4)
    for prove in (prove_dp, prove_gilmore):
        result = prove(herbrand_disjunction(valid, 1), 2)
        assert result.found
        assert check_instances(valid, result.witness) == (True, None)
    at = {t: Subst({"x": parse_term(t)}) for t in ("a", "b")}
    for engine in ("dpll", "multiplication"):
        assert check_instances(valid, [at["b"]], engine) == (True, None)
        assert not check_instances(valid, [at["a"]], engine)[0]
    assert minimize_witness(herbrand_disjunction(valid, 1), [at["a"], at["b"]]) == (at["b"],)
    # ... and here P(a) <-> P(b), which a two-element structure falsifies
    invalid = sentence(("P(x)", "P(a)", "P(b)"), 4)
    for prove in (prove_dp, prove_gilmore):
        assert prove(herbrand_disjunction(invalid, 1), 2).reason == "no proof up to order 2"
    structure = falsifying_structure(grounding(invalid, 2))
    d = herbrand_disjunction(invalid, 2)
    assert not eval_in_structure(structure, expand(d.skolemized, d.champ.terms))


def test_resolution_starts_from_the_pruned_clauses_of_an_iff_matrix():
    # resolution reads the analysis' ⊆-minimal clauses of the negated
    # matrix, so the depth-4 tree, whose naive cnf has 14,868,736
    # clauses, is proved within a small peak; at depth 3 the naive cnf
    # holds clauses that contain others, and starting without them the
    # proof takes 590 steps instead of 1,070
    import tracemalloc

    depth3 = herbrand_disjunction(parse(iff_tree(("P(a)", "P(x)", "P(b)"), 3)), 1)
    assert prove_resolution(depth3).steps == 590
    f = parse(iff_tree(("P(a)", "P(x)", "P(b)"), 4))
    tracemalloc.start()
    try:
        result = prove_resolution(herbrand_disjunction(f, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.found and check_instances(f, result.witness) == (True, None)
    assert peak < 1_000_000


def test_prove_dp_skolemizes_once(monkeypatch):
    from herbrand import expansion

    calls = []
    skolemize = expansion.skolemize_outer

    def counted(g, *rest):
        calls.append(g)
        return skolemize(g, *rest)

    monkeypatch.setattr(expansion, "skolemize_outer", counted)
    proved = prove_dp(herbrand_disjunction(parse("?x. (P(x) -> (!y. P(y)))"), 1), 3)
    assert proved.found and proved.order == 2 and len(calls) == 1
    calls.clear()
    gave_up = prove_dp(herbrand_disjunction(parse("?x,y,z. (P(f(x),g(y)) & ~P(z,z))"), 1), 3)
    assert not gave_up.found and len(calls) == 1


def test_prove_resolution_holds_free_variables_rigid():
    # the free x is a constant of the champ fini: it is neither renamed
    # nor bound, and the witness names the variable, as the order loop does
    f = parse("(?x. ~P(x)) | P(x)", frees={"x"})
    r = prove_resolution(herbrand_disjunction(f, 1))
    sigma = Subst({"x1": Var("x")})
    assert r.found and r.steps == 1 and sigma in r.witness
    analysis = herbrand_disjunction(f, 1)
    assert minimize_witness(analysis, r.witness) == prove_dp(analysis, 1).witness == (sigma,)


# ---------------------------------------------------------------------------
# the clausifier and path enumerator that `sat._clauses` replaced, kept as
# references, pruned as `sat._clauses` prunes: the same lists in the same
# order


def _first_minimal(clauses):
    """The ⊆-minimal ones of dict-ordered literal sets, each once, in the
    order first met."""
    return [c for i, c in enumerate(clauses)
            if c not in clauses[:i] and not any(o.keys() < c.keys() for o in clauses)]


def _reference_formula_clauses(f, prune=False):
    """The clauses of f by naive distribution, each distinct one once in
    the order first met; with `prune`, the ⊆-minimal ones of every
    product and of the root instead, as tuples of their literals in the
    order first met."""
    def go(g, sign):
        if isinstance(g, Atom):
            return [{(sign, g): None}]
        if isinstance(g, Not):
            return go(g.body, not sign)
        if isinstance(g, Iff):
            return go(And(Implies(g.left, g.right), Implies(g.right, g.left)), sign)
        if isinstance(g, Implies):
            return go(Or(Not(g.left), g.right), sign)
        conjunctive = (isinstance(g, And) and sign) or (isinstance(g, Or) and not sign)
        left, right = go(g.left, sign), go(g.right, sign)
        if conjunctive:
            return left + right
        product = [a | b for a in left for b in right]
        return _first_minimal(product) if prune else product

    if prune:
        return [tuple(c) for c in _first_minimal(go(f, True))]
    out = []
    for c in go(f, True):
        if frozenset(c) not in out:
            out.append(frozenset(c))
    return out


def _reference_paths(f):
    """The paths through f's NNF, the ⊆-minimal ones of every product and
    of the root, as tuples of their literals in the order first met."""
    def go(h):
        if isinstance(h, Atom):
            return [{(True, h): None}]
        if isinstance(h, Not):
            return [{(False, h.body): None}]
        if isinstance(h, Or):
            return _first_minimal([a | b for a in go(h.left) for b in go(h.right)])
        if isinstance(h, And):
            return go(h.left) + go(h.right)
        raise TypeError(h)

    return [tuple(p) for p in _first_minimal(go(reference_nnf(f, True)))]


def test_clauses_and_paths_match_the_references():
    rng = random.Random(83)
    for _ in range(600):
        f = random_qf(rng, rng.randrange(1, 5))
        # the analysis' plans, resolution's initial clauses, are the
        # ⊆-minimal clauses of the negated matrix, in the order of
        # pruning every product and the root; that order can differ from
        # their first-met order in the unpruned list, where a product's
        # clause may first come from a factor that pruning drops
        d = herbrand_disjunction(f, 1)
        plans = [tuple((s, d.atoms[slot]) for s, slot, _ in literals)
                 for _, literals in d.plans]
        naive = _reference_formula_clauses(Not(d.matrix))
        assert {frozenset(c) for c in plans} == {
            c for c in naive if not any(o < c for o in naive)
        }
        assert plans == _reference_formula_clauses(Not(d.matrix), prune=True)
        assert sat._clauses(f) == _reference_paths(f)
