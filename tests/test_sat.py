import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import herbrand
from herbrand import sat
from herbrand.sat import (
    QuantifierPresentError,
    _clauses,
    _open_path,
    _prune,
    _search,
    atom_key,
    cnf,
    cnf_of_negation,
    decide_negation,
    dpll,
    is_tautology,
    numbered,
)
from herbrand.syntax import And, Atom, Iff, Not, Or, PREDICATE, Symbol, parse

from util import (
    dnf, iff_tree, keyed, multiplied_out, random_qf, reference_nnf, truth_table_tautology,
)


def qf(rng):
    """Random quantifier-free formula over a handful of atoms."""
    preds = [Symbol(f"A{i}", 0, PREDICATE) for i in range(rng.randrange(1, 13))]
    atoms = [Atom(p) for p in preds]

    def go(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        kind = rng.randrange(4)
        from herbrand.syntax import And, Iff, Implies

        if kind == 0:
            return Not(go(depth - 1))
        ctor = (And, Or, Implies)[kind - 1] if kind < 4 else Iff
        return ctor(go(depth - 1), go(depth - 1))

    return go(rng.randrange(1, 6))


def test_tautology_examples():
    assert is_tautology(parse("P(a) | ~P(a)"))[0]
    verdict, assignment = is_tautology(parse("P(a)"))
    assert not verdict and assignment == {"P(a)": False}
    assert is_tautology(parse("((A1 -> A2) & A1) -> A2"))[0]


def test_engines_agree_with_truth_table():
    rng = random.Random(42)
    for _ in range(500):
        f = qf(rng)
        expected = truth_table_tautology(f)
        got_dpll, model = is_tautology(f, "dpll")
        got_mult, model2 = is_tautology(f, "multiplication")
        assert got_dpll == got_mult == expected
        sat_, _ = dpll(cnf_of_negation(f))
        assert (not sat_) == expected
        for verdict, assignment in ((got_dpll, model), (got_mult, model2)):
            if not verdict:
                assert not _eval_keys(f, assignment)


def _eval_keys(f, row):
    from herbrand.syntax import And, Iff, Implies

    if isinstance(f, Atom):
        return row.get(atom_key(f), False)
    if isinstance(f, Not):
        return not _eval_keys(f.body, row)
    if isinstance(f, And):
        return _eval_keys(f.left, row) and _eval_keys(f.right, row)
    if isinstance(f, Or):
        return _eval_keys(f.left, row) or _eval_keys(f.right, row)
    if isinstance(f, Implies):
        return (not _eval_keys(f.left, row)) or _eval_keys(f.right, row)
    if isinstance(f, Iff):
        return _eval_keys(f.left, row) == _eval_keys(f.right, row)
    raise TypeError(f)


def test_gilmore_examples():
    # p | ~p: the one path, through ~p and p, is closed
    assert is_tautology(parse("A1 | ~A1"), "multiplication") == (True, None)
    # (p & q) | ~p | ~q is closed only once multiplied out
    assert is_tautology(parse("(A1 & A2) | ~A1 | ~A2"), "multiplication") == (True, None)
    assert is_tautology(parse("(A1 & A2) | ~A1"), "multiplication") == (
        False, {"A1": True, "A2": False}
    )


def _search_paths(conjuncts: list, picked: dict, absorb: bool):
    """Recursive path search through the conjuncts in the given order: a
    pair-free path (as an assignment dict) or None.  Without `absorb` it
    is the search `_open_path` replaced."""
    if not conjuncts:
        return dict(picked)
    first, rest = conjuncts[0], conjuncts[1:]
    if absorb and any(picked.get(key) == sign for key, sign in first):
        return _search_paths(rest, picked, absorb)
    for key, sign in sorted(first):
        if picked.get(key, sign) != sign:
            continue  # this pick closes the path; try another literal
        fresh = key not in picked
        picked[key] = sign
        result = _search_paths(rest, picked, absorb)
        if result is not None:
            return result
        if fresh:
            del picked[key]
    return None


def _all_paths_closed(conjuncts: list):
    """The rule `_open_path` follows, kept as the reference: shortest
    conjuncts first, ties broken by their sorted literals, and a
    conjunct with a literal already on the path passed without
    branching."""
    ordered = sorted((sorted(c) for c in conjuncts), key=lambda c: (len(c), c))
    return _search_paths(ordered, {}, absorb=True)


def _keyed_open_path(conjuncts: list, budget: int):
    """The path search over (key, sign) literals that `_open_path`
    replaced, kept as its reference: conjuncts of the dnf, a path as a
    dict from key to sign, each literal's complement looked up by key."""
    conjuncts = sorted(conjuncts, key=lambda c: (len(c), c))
    path = {}
    tried = [0] * len(conjuncts)
    added = [None] * len(conjuncts)
    depth = nodes = 0
    while depth < len(conjuncts):
        literals = conjuncts[depth]
        i = tried[depth]
        if not i and any(path.get(key) == sign for key, sign in literals):
            tried[depth], added[depth] = len(literals), None
        else:
            while i < len(literals) and path.get(literals[i][0], literals[i][1]) != literals[i][1]:
                i += 1
            if i == len(literals):
                tried[depth] = 0
                depth -= 1
                if depth < 0:
                    return None
                if added[depth] is not None:
                    del path[added[depth]]
                continue
            key, sign = literals[i]
            path[key] = sign
            tried[depth], added[depth] = i + 1, key
        nodes += 1
        if nodes > budget:
            raise sat.BudgetExceededError(f"path search exceeded the budget of {budget} nodes")
        depth += 1
    return path


def _numbered_open_path(conjuncts: list, budget: int):
    """`_open_path` on dnf conjuncts of (key, sign) literals: numbered as
    the clauses of the negation, their literals negated, and the path
    read back as the dnf literals it makes false, key to sign."""
    cs = numbered([(key, not sign) for key, sign in c] for c in conjuncts)
    path = _open_path(cs.clauses, budget)
    return None if path is None else {cs.names[lit >> 1]: bool(lit & 1) for lit in path}


def _keyed_decide_multiplication(clauses: set, budget: int = 10**6):
    """The multiplication method of `decide_negation` over (key, sign)
    literals, as it was before numbering: the reference for the verdict
    and the falsifying assignment."""
    clauses = _prune(clauses)
    path = _keyed_open_path([sorted((key, not sign) for key, sign in c) for c in clauses], budget)
    if path is None:
        return True, None
    atoms = sorted({key for c in clauses for key, _ in c})
    return False, {key: not path.get(key, True) for key in atoms}


def test_open_path_matches_the_recursive_reference():
    rng = random.Random(71)
    closed = 0
    for _ in range(2000):
        keys = [f"p{i}" for i in range(rng.randrange(1, 6))]
        conjuncts = sorted({
            frozenset((rng.choice(keys), rng.random() < 0.5)
                      for _ in range(rng.randrange(1, 4)))
            for _ in range(rng.randrange(0, 9))
        }, key=sorted)
        want = _all_paths_closed(conjuncts)
        got = _numbered_open_path(conjuncts, 10**6)
        assert got == want == _keyed_open_path([sorted(c) for c in conjuncts], 10**6)
        # the search before ordering and absorption, as the verdict oracle
        assert (got is None) == (_search_paths(conjuncts, {}, absorb=False) is None)
        closed += want is None
    assert 200 < closed < 1800


def test_an_absorbed_conjunct_counts_one_node():
    # q goes on the path first (shortest conjunct); each a_i | q is then
    # absorbed, one node and no branch, so every path through the closed
    # pigeon pattern over x, y is tried once (6 nodes), not once per pick
    # from the a_i | q
    pigeon = [[("x", s1), ("y", s2)] for s1 in (True, False) for s2 in (True, False)]
    for k in (0, 10):
        conjuncts = [[("q", True)]] + [[(f"a{i}", True), ("q", True)] for i in range(k)]
        assert _numbered_open_path(conjuncts + pigeon, 7 + k) is None
        with pytest.raises(sat.BudgetExceededError, match=f"budget of {6 + k} nodes"):
            _numbered_open_path(conjuncts + pigeon, 6 + k)


def test_open_path_is_bounded_by_the_budget_not_the_stack():
    # a path through more conjuncts than the recursion limit allows frames;
    # the keys are padded so that each conjunct lists its literals in
    # ascending order, the order the numbered search takes them in
    deep = [[(f"p{i:06}", True), (f"p{i + 1:06}", False)]
            for i in range(5 * sys.getrecursionlimit())]
    path = _numbered_open_path(deep, 10**6)
    assert path is not None and all(path.values())
    assert path == _keyed_open_path(deep, 10**6)
    # every path closed: p or q, p or ~q, ~p or q, ~p or ~q, then chaff the
    # search multiplies out before it meets the clash
    chaff = [[(f"c{i}", True), (f"c{i}", False)] for i in range(20)]
    pigeon = [[("p", s1), ("q", s2)] for s1 in (True, False) for s2 in (True, False)]
    assert _numbered_open_path(pigeon, 100) is None
    with pytest.raises(sat.BudgetExceededError):
        _numbered_open_path(chaff + pigeon, 10**4)


def test_dpll_examples():
    unsat = numbered([[("p", True)], [("p", False)]])
    assert unsat.clauses == ((0,), (1,)) and unsat.names == ("p",)
    assert dpll(unsat) == (False, None)
    assert dpll(numbered([])) == (True, {})


def test_dpll_model_satisfies_clauses():
    rng = random.Random(17)
    for _ in range(300):
        f = qf(rng)
        cs = cnf(f)
        sat_, model = dpll(cs)
        if sat_:
            for clause in keyed(cs):
                assert any(model[key] == sign for key, sign in clause)


def test_determinism():
    rng = random.Random(23)
    cases = [qf(rng) for _ in range(50)]
    first = [is_tautology(f) for f in cases]
    second = [is_tautology(f) for f in cases]
    assert first == second


# ---------------------------------------------------------------------------
# the distribution that `_clauses` replaced, pruning at every node, kept
# as the reference for cnf, dnf and cnf_of_negation: the same sets


def _reference_distribute(f, join):
    outer = And if join is Or else Or

    def go(g):
        if isinstance(g, Atom):
            return {frozenset([(atom_key(g), True)])}
        if isinstance(g, Not):
            return {frozenset([(atom_key(g.body), False)])}
        if isinstance(g, outer):
            return _prune(go(g.left) | go(g.right))
        if isinstance(g, join):
            left, right = go(g.left), go(g.right)
            return _prune({a | b for a in left for b in right})
        raise TypeError(g)

    return frozenset(go(f))


def test_clause_sets_match_the_distribution_reference():
    rng = random.Random(61)
    for _ in range(600):
        f = random_qf(rng, rng.randrange(1, 5))
        assert set(keyed(cnf(f))) == _reference_distribute(reference_nnf(f, True), Or)
        assert set(keyed(dnf(f))) == _reference_distribute(reference_nnf(f, True), And)
        assert set(keyed(cnf_of_negation(f))) == _reference_distribute(
            reference_nnf(f, False), Or
        )


def test_clause_sets_prune_every_product(monkeypatch):
    # a balanced Iff tree of depth 3 over three atoms: multiplied out in
    # full, its cnf has 1,152 clauses of 8 literals and the cnf of its
    # negation 2,704; at depth 4 the latter has 14,868,736
    atoms = [parse(t) for t in ("P(a)", "P(b)", "P(c)")]

    def tree(depth, i=0):
        if depth == 0:
            return atoms[i % 3]
        return Iff(tree(depth - 1, 2 * i), tree(depth - 1, 2 * i + 1))

    f = tree(3)
    assert (len(multiplied_out(f)), len(multiplied_out(f, False))) == (1152, 2704)
    assert (len(_clauses(f)), len(_clauses(f, False))) == (12, 14)
    numbering = sat._keyed
    sizes = []

    def recorded(clauses):
        sizes.append(len(clauses))
        return numbering(clauses)

    monkeypatch.setattr(sat, "_keyed", recorded)
    for run in (cnf, dnf, cnf_of_negation):
        sizes.clear()
        assert set(keyed(run(f))) == _reference_distribute(
            reference_nnf(f, run is not cnf_of_negation), And if run is dnf else Or
        )
        assert sizes and max(sizes) <= 64


@pytest.mark.parametrize(
    "text", ["P(a) <-> (?x. P(x))", "(!x. P(x)) -> P(a)", "P(a) -> (Q(a) <-> !x. Q(x))",
             "(?x. P(x)) | ~(?x. P(x))"]
)
def test_quantifiers_are_rejected(text):
    f = parse(text)
    for run in (cnf, dnf, cnf_of_negation, is_tautology,
                lambda g: is_tautology(g, "multiplication")):
        with pytest.raises(QuantifierPresentError, match="quantifier"):
            run(f)


def test_falsifying_assignments_do_not_depend_on_the_hash_seed(tmp_path):
    # the atoms a falsifying path leaves unconstrained come in key order
    # too, not in set order, which follows PYTHONHASHSEED; and the
    # scaling family's order-4 grounding, numbered and decided by either
    # engine, gives the pinned gave-up report under every seed
    script = (
        "from herbrand.sat import is_tautology\n"
        "from herbrand.syntax import parse\n"
        "f = parse('(P(a) & Q(b) & U(f)) | (R(c) & ~S(d) & V(g)) | (T(e) & W(h))')\n"
        "for engine in ('dpll', 'multiplication'):\n"
        "    verdict, model = is_tautology(f, engine)\n"
        "    print(verdict, list(model))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(herbrand.__file__)))
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        outputs.append(done.stdout)
    keys = ["P(a)", "Q(b)", "R(c)", "S(d)", "T(e)", "U(f)", "V(g)", "W(h)"]
    assert outputs == [f"False {keys}\n" * 2] * 3
    problem = tmp_path / "scaling.prob"
    problem.write_text("formula: ?x,y,z. (P(f(x),g(y)) & ~P(z,z))\n", encoding="utf-8")
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    with open(os.path.join(data, "scaling_dp_n4.out"), encoding="utf-8") as handle:
        pinned = handle.read()

    def report(text):
        return [line for line in text.splitlines(True) if not line.startswith("method:")]

    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for method in ("dp", "gilmore"):
            done = subprocess.run(
                [sys.executable, "-m", "herbrand", "prove", str(problem),
                 "--method", method, "--max-order", "4"],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 1, done.stderr
            assert report(done.stdout) == report(pinned)
    # resolution starts from the pruned clauses, kept in the order first
    # met, and the instance search clausifies the matrix once for all its
    # copies: neither follows the seed.  Pruned in set order, the running
    # example's clauses change resolution's proof between seeds 1 and 2
    iff = tmp_path / "iff.prob"
    iff.write_text(f"formula: {iff_tree(('P(a)', 'P(x)', 'P(b)'), 3)}\n", encoding="utf-8")
    running = tmp_path / "running.prob"
    running.write_text(
        "formula: (!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
        " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))\n",
        encoding="utf-8",
    )
    for argv in (["prove", str(iff), "--method", "resolution"],
                 ["prove", str(running), "--method", "resolution"],
                 ["complexity", str(running), "-n", "4", "--max-instances", "3"]):
        stdouts = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "herbrand", *argv], env=env, capture_output=True,
                text=True,
            )
            assert done.returncode == 0, done.stderr
            stdouts.add(done.stdout)
        assert len(stdouts) == 1, stdouts


def _quadratic_prune(clauses):
    """Reference: keep a clause unless another one is a proper subset."""
    return {c for c in clauses if not any(d < c for d in clauses)}


_literals = st.tuples(st.sampled_from("pqrst"), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.sets(st.frozensets(_literals, max_size=4), max_size=30))
def test_indexed_prune_matches_quadratic_prune(clauses):
    assert _prune(clauses) == _quadratic_prune(clauses)
    # and on the same clauses numbered, each a tuple kept as given
    cs = numbered(clauses)
    pruned = _prune(cs.clauses)
    assert pruned <= set(cs.clauses)
    assert set(keyed(pruned, cs.names)) == _quadratic_prune(clauses)


def test_prune_keeps_only_the_empty_clause():
    clauses = {frozenset(), frozenset([("p", True)]), frozenset([("q", False)])}
    assert _prune(clauses) == {frozenset()} == _quadratic_prune(clauses)


# ---------------------------------------------------------------------------
# the DPLL that copied its clause list after every assignment, kept as the
# reference for the counter-and-trail solver: same verdicts, same models


def _reference_dpll(clauses):
    atoms = sorted({key for c in clauses for key, _ in c})
    model = _reference_search([set(c) for c in clauses], {})
    if model is None:
        return False, None
    for key in atoms:
        model.setdefault(key, False)
    return True, model


def _reference_search(clauses, assign):
    clauses = [set(c) for c in clauses]
    while True:
        clauses = _reference_simplify(clauses, assign)
        if clauses is None:
            return None
        if not clauses:
            return assign
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is not None:
            key, sign = next(iter(unit))
            assign[key] = sign
            continue
        pure = _reference_pure_literal(clauses)
        if pure is not None:
            assign[pure[0]] = pure[1]
            continue
        break
    key = min(k for c in clauses for k, _ in c)
    for sign in (True, False):
        trial = dict(assign)
        trial[key] = sign
        result = _reference_search(clauses, trial)
        if result is not None:
            return result
    return None


def _reference_simplify(clauses, assign):
    out = []
    for c in clauses:
        reduced = set()
        satisfied = False
        for key, sign in c:
            if key in assign:
                if assign[key] == sign:
                    satisfied = True
                    break
            else:
                reduced.add((key, sign))
        if satisfied:
            continue
        if not reduced:
            return None  # empty clause: conflict
        out.append(reduced)
    return out


def _reference_pure_literal(clauses):
    polarity = {}
    for c in clauses:
        for key, sign in c:
            polarity.setdefault(key, set()).add(sign)
    for key in sorted(polarity):
        signs = polarity[key]
        if len(signs) == 1:
            return key, next(iter(signs))
    return None


# listed so that their sorted order is not the order they are drawn in
_KEYS = ["q", "P(b)", "P(a)", "a10", "a9", "Z", "R(f(x), y)", "R(x, y)"]
_key_literals = st.tuples(st.sampled_from(_KEYS), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.sets(st.frozensets(_key_literals, max_size=4), max_size=24))
def test_dpll_matches_the_copying_reference(clauses):
    # the empty clause, tautological clauses {p, ~p}, conflicting and
    # shared units and pure literals all occur among the drawn sets
    assert dpll(numbered(clauses)) == _reference_dpll(clauses)


def test_dpll_matches_the_copying_reference_on_larger_sets():
    # near the satisfiability threshold, so that splits are undone deep
    rng = random.Random(5)
    keys = [f"A{i}" for i in rng.sample(range(60), 40)]
    outcomes = set()
    for _ in range(60):
        clauses = frozenset(
            frozenset((rng.choice(keys), rng.random() < 0.5) for _ in range(rng.choice((2, 3, 3, 4))))
            for _ in range(rng.randrange(60, 200))
        )
        got = dpll(numbered(clauses))
        assert got == _reference_dpll(clauses)
        outcomes.add(got[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "clauses, expected",
    [
        # a tautological clause is open until its atom is set: split, True
        ([[("p", True), ("p", False)]], (True, {"p": True})),
        # both units propagate; the pure q is never needed
        ([[("b", True)], [("a", False)], [("a", True), ("q", True)]],
         (True, {"a": False, "b": True, "q": True})),
        ([[("p", True)], [("p", True), ("q", False)], [("p", False)]], (False, None)),
        # the lowest pure atom first; setting it satisfies everything, so
        # the other pure atom is left False
        ([[("b", True), ("a", True)], [("b", False), ("a", True)]],
         (True, {"a": True, "b": False})),
        ([[], [("p", True)]], (False, None)),
    ],
)
def test_dpll_models(clauses, expected):
    assert dpll(numbered(clauses)) == _reference_dpll(clauses) == expected


# ---------------------------------------------------------------------------
# the keyed forms that numbering replaced, kept as references: a clause
# set keyed by (key, sign) literals, numbered inside dpll, and the path
# search over such literals (`_keyed_open_path` above)


def _keyed_dpll(clauses):
    """`dpll` as it was on keyed clauses: atoms numbered in key order on
    every call, then the same search."""
    if frozenset() in clauses:
        return False, None
    keys = sorted({key for c in clauses for key, _ in c})
    number = {key: 2 * i for i, key in enumerate(keys)}
    values = _search([[number[key] + (not sign) for key, sign in c] for c in clauses], len(keys))
    if values is None:
        return False, None
    return True, {key: value is True for key, value in zip(keys, values)}


def _random_keyed_sets(rng, count):
    """Random keyed clause sets, some with the empty clause or with
    tautological clauses, then the ⊆-minimal cnfs of random
    quantifier-free formulas, built by the distribution reference."""
    keys = ["q", "P(b)", "P(a)", "a10", "a9", "Z", "R(f(x), y)", "R(x, y)"]
    for _ in range(count):
        yield {
            frozenset((rng.choice(keys), rng.random() < 0.5) for _ in range(rng.randrange(5)))
            for _ in range(rng.randrange(25))
        }
    for _ in range(count):
        f = random_qf(rng, rng.randrange(1, 5))
        yield set(_reference_distribute(reference_nnf(f, rng.random() < 0.5), Or))


def test_numbered_dpll_matches_the_keyed_dpll():
    rng = random.Random(1818)
    outcomes = set()
    for clauses in _random_keyed_sets(rng, 400):
        cs = numbered(clauses)
        got = dpll(cs)
        assert got == _keyed_dpll(clauses)
        outcomes.add(got[0])
        # over a grounder's atom table, which may name atoms in no clause:
        # those are False, and the search is unchanged
        wider = dpll(sat.ClauseSet(cs.clauses, cs.names + ("~unused",)))
        assert wider == (got if not got[0] else (True, {**got[1], "~unused": False}))
    assert outcomes == {True, False}


def test_numbered_path_search_matches_the_keyed_one():
    rng = random.Random(1819)
    outcomes = set()
    for clauses in _random_keyed_sets(rng, 400):
        cs = numbered(_prune(clauses))
        got = decide_negation(cs.clauses, cs.names, "multiplication")
        assert got == _keyed_decide_multiplication(clauses)
        assert got[0] == decide_negation(cs.clauses, cs.names)[0]
        outcomes.add(got[0])
    assert outcomes == {True, False}
