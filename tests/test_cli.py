import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import herbrand
from herbrand.cli import COMMANDS, METHODS, SELFTEST, build_parser, main
from herbrand.expansion import load_structure
from herbrand.proofcalc import check, load_derivation
from herbrand.syntax import parse, print_formula
from util import grounding, iff_tree

DATA = os.path.join(os.path.dirname(__file__), "data")
SCALING = "formula: ?x,y,z. (P(f(x),g(y)) & ~P(z,z))\n"


def write_problem(tmp_path, text, name="problem.prob"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_dp(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    code, out, _ = run(capsys, ["prove", path, "--method", "dp", "--max-order", "3"])
    assert code == 0
    assert "verdict: proof-found" in out
    assert "order: 2" in out
    assert "witness-verified: true" in out


def test_prove_invalid_prints_falsifying_structure(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: ?x. P(x)\n")
    code, out, _ = run(capsys, ["prove", path, "--method", "dp", "--max-order", "2"])
    assert code == 1
    assert "verdict: gave-up" in out
    assert "domain:" in out
    assert "pred P:" in out
    # -n is --max-order; the reason names the order, so the default 3 would differ
    assert run(capsys, ["prove", path, "--method", "dp", "-n", "2"])[:2] == (1, out)


def test_prove_malformed_file(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: P(x\n")
    code, _, err = run(capsys, ["prove", path])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text, message", [
    ("formula: P(a)\nformula: P(b)\n", "a problem file holds one formula"),
    ("formula: P(a) | ~P(a)\nbogus line\n", "unrecognized line: bogus line"),
    ("free: x\n", "missing `formula:` line"),
    ("formula: P([y]) | ~P(a)\n", "undeclared free variables: ['y']"),
    (None, "[Errno 2] No such file or directory: {path!r}"),
], ids=["two-formulas", "unrecognized", "no-formula", "undeclared", "missing-file"])
def test_problem_file_errors(tmp_path, capsys, text, message):
    path = str(tmp_path / "absent.prob") if text is None else write_problem(tmp_path, text)
    assert run(capsys, ["prove", path]) == (2, "", f"error: {message.format(path=path)}\n")


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    from herbrand import engine

    def overflow(*_args, **_kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(engine, "prove_dp", overflow)
    path = write_problem(tmp_path, "formula: P(a) | ~P(a)\n")
    for method in ("dp", "race"):
        code, out, err = run(capsys, ["prove", path, "--method", method])
        assert code == 2 and out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_free_declaration_convention(tmp_path, capsys):
    # undeclared identifiers are constants; declared ones are variables
    path = write_problem(tmp_path, "formula: P(x) | ~P(x)\n")
    code, out, _ = run(capsys, ["prove", path])
    assert code == 0
    path = write_problem(tmp_path, "free: x\nformula: P(x) | ~P(x)\n")
    code, out, _ = run(capsys, ["prove", path, "--method", "gilmore"])
    assert code == 0


def test_prove_proof_out_checks(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: (!x. P(x)) -> P(c)\n")
    drv = str(tmp_path / "proof.drv")
    code, out, _ = run(
        capsys,
        ["prove", path, "--method", "resolution", "--proof-out", drv],
    )
    assert code == 0 and f"proof-out: {drv}" in out
    with open(drv, encoding="utf-8") as handle:
        d, _ = load_derivation(handle.read())
    assert check(d) is None

    code, out, _ = run(capsys, ["check", drv])
    assert code == 0 and "ok" in out


def test_prove_json_mode(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: P(c) | ~P(c)\n")
    code, out, _ = run(capsys, ["prove", path, "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "proof-found"


def test_prove_race(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    code, out, _ = run(capsys, ["prove", path, "--method", "race"])
    assert code == 0 and "verdict: proof-found" in out


def test_deterministic_output(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    argv = ["prove", path, "--method", "dp", "--max-order", "3"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_transform_passes(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    code, out, _ = run(capsys, ["transform", path, "--pass", "skolem-outer"])
    assert code == 0 and out.strip() == "(?x. P(x)) | ~P(y_star)"
    code, out, _ = run(capsys, ["transform", path, "--pass", "prenex"])
    assert code == 0 and out.strip() == "?x. !y. P(x) | ~P(y)"
    qfree = write_problem(tmp_path, "formula: P(c) -> Q(c)\n", "q.prob")
    code, out, _ = run(capsys, ["transform", qfree, "--pass", "prenex"])
    assert code == 0 and out.strip() == "P(c) -> Q(c)"
    code, _, err = run(capsys, ["transform", path, "--pass", "relativize"])
    assert code == 2 and "guard" in err
    code, out, _ = run(
        capsys, ["transform", path, "--pass", "relativize", "--guard", "D"]
    )
    assert code == 0 and "D(" in out


@pytest.mark.parametrize("formula, guard, message", [
    ("!x. P(x)", "P", "guard P already occurs in the formula"),
    ("!x. P(x)", "1x", "guard '1x' is not an identifier"),
    ("!x. P(x, f(x))", "f", "guard f already occurs in the formula"),
    ("!x. P(x, c)", "c", "guard c already occurs in the formula"),
])
def test_relativize_rejects_a_guard_that_would_not_re_read(tmp_path, capsys, formula, guard,
                                                           message):
    path = write_problem(tmp_path, f"formula: {formula}\n")
    argv = ["transform", path, "--pass", "relativize", "--guard", guard]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_expand_command(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    code, out, _ = run(capsys, ["expand", path, "-n", "2"])
    assert code == 0
    assert "champ: y_star" in out
    assert "expansion: P(y_star) | ~P(y_star)" in out


def test_complexity_command(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    code, out, _ = run(capsys, ["complexity", path, "-n", "2"])
    assert code == 0 and "complexity: 1" in out
    invalid = write_problem(tmp_path, "formula: ?x. P(x)\n", "inv.prob")
    code, out, _ = run(capsys, ["complexity", invalid, "-n", "2"])
    assert code == 1 and "complexity: none" in out


@pytest.mark.parametrize("depth", [3, 4])
def test_iff_trees_are_decided_from_their_minimal_clauses(tmp_path, capsys, depth):
    # T a balanced Iff tree: multiplied out in full, the cnf of the matrix
    # T | ~T has 3,115,008 clauses at depth 3, and the cnf of the ground
    # tree's negation 14,868,736 at depth 4.  The instance search and the
    # arithmetic decision read only their ⊆-minimal clauses
    tree = print_formula(parse(iff_tree(("P(x)", "P(a)", "P(b)"), depth)).body)
    path = write_problem(tmp_path, f"formula: ?x. ({tree}) | ~({tree})\n")
    ground = parse(iff_tree(("S(0) = 0", "0 = 0", "S(S(0)) = S(0)"), depth)).body
    for argv, expected in (
        (["complexity", path, "-n", "1", "--max-instances", "2"], "complexity: 1\n"),
        (["arith", "decide", print_formula(ground)], "refutable\n"),
    ):
        tracemalloc.start()
        try:
            outcome = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == (0, expected, "")
        assert peak < 1_000_000


@pytest.mark.parametrize("argv, problem", [
    pytest.param(["arith", "decide", "S(" * 1200 + "0" + ")" * 1200 + " = 0"], None, id="term"),
    pytest.param(["prove"], "formula: " + "(" * 1000 + "P(a)" + ")" * 1000 + "\n", id="parentheses"),
])
def test_input_nested_too_deeply_is_an_error(tmp_path, capsys, argv, problem):
    if problem is not None:
        argv = argv + [write_problem(tmp_path, problem)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: nested too deeply (line 1, col ")


def test_nesting_within_the_recursion_limit_still_parses(tmp_path, capsys):
    code, out, _ = run(capsys, ["arith", "decide", "S(" * 400 + "0" + ")" * 400 + " != 0"])
    assert (code, out) == (0, "derivable\n")
    path = write_problem(tmp_path, "formula: " + "(" * 100 + "P(a) | ~P(a)" + ")" * 100 + "\n")
    code, out, _ = run(capsys, ["prove", path])
    assert code == 0 and "verdict: proof-found" in out


@pytest.mark.parametrize("method", ["dp", "gilmore", "resolution"])
def test_deep_parentheses_prove_with_a_derivation_that_checks(tmp_path, capsys, method):
    path = write_problem(tmp_path, "formula: " + "(" * 300 + "P(a) | ~P(a)" + ")" * 300 + "\n")
    drv = str(tmp_path / "proof.drv")
    code, out, _ = run(capsys, ["prove", path, "--method", method, "--proof-out", drv])
    assert code == 0 and "verdict: proof-found" in out
    assert run(capsys, ["check", drv])[0] == 0


@pytest.mark.parametrize("method", ["dp", "gilmore", "resolution"])
def test_prove_reads_deep_negation(tmp_path, capsys, method):
    path = write_problem(tmp_path, "formula: " + "~" * 600 + "(P(a) | ~P(a))\n")
    code, out, _ = run(capsys, ["prove", path, "--method", method])
    assert code == 0 and "verdict: proof-found" in out


def test_unify_command(capsys):
    code, out, _ = run(
        capsys,
        ["unify", "Pq(x, f(a, y))", "Pq(a, f(z, b))", "--frees", "x y z"],
    )
    assert code == 0
    assert "status: success" in out
    assert "x -> a" in out and "y -> b" in out and "z -> a" in out
    code, out, _ = run(capsys, ["unify", "x", "f(x)", "--frees", "x"])
    assert code == 1 and "status: occurs" in out


def test_unify_writes_no_partial_report(capsys):
    # terms print by an explicit stack, so the depth-400 answer is
    # written whole, not cut off by the recursion limit
    deep = "S(" * 400 + "0" + ")" * 400
    code, out, _ = run(capsys, ["unify", f"f(x,{deep})", f"f({deep},y)", "--frees", "x y"])
    assert (code, out) == (0, f"status: success\nx -> {deep}\ny -> {deep}\n")


def test_arith_command(capsys):
    code, out, _ = run(capsys, ["arith", "decide", "!x. S(x) != 0"])
    assert code == 0 and out.strip() == "derivable"
    code, out, _ = run(capsys, ["arith", "decide", "?x. S(x) = x"])
    assert code == 0 and out.strip() == "refutable"
    code, _, err = run(capsys, ["arith", "decide", "!x. P(x)"])
    assert code == 2


def test_eval_consumes_structure_files(tmp_path, capsys):
    # produce a falsifying structure with prove, feed it back through eval
    prob = write_problem(tmp_path, "formula: ?x. P(x)\n")
    code, out, _ = run(capsys, ["prove", prob, "--method", "dp", "--max-order", "2"])
    assert code == 1
    structure_text = out.split("falsifying-structure: \n", 1)[1]
    struct_path = tmp_path / "falsifier.struct"
    struct_path.write_text(structure_text, encoding="utf-8")
    code, out, _ = run(capsys, ["eval", str(struct_path), prob])
    assert code == 0 and out.strip() == "false"

    taut = write_problem(tmp_path, "formula: P(c) | ~P(c)\n", "t.prob")
    struct2 = tmp_path / "one.struct"
    struct2.write_text(
        "domain: e0\nfn c: ()->e0\npred P: (e0)->T\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, ["eval", str(struct2), taut])
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("method", ["dp", "gilmore", "resolution"])
def test_free_variable_spelled_like_a_skolem_constant_keeps_its_own_element(
    tmp_path, capsys, method
):
    # the declared free variable x_star prints boxed, [x_star]; the bare
    # x_star is the Skolem constant of !x, a different domain element
    prob = write_problem(tmp_path, "free: x_star\nformula: (!x. P(x)) | ~P(x_star)\n")
    code, out, _ = run(capsys, ["prove", prob, "--method", method, "-n", "1"])
    structure = out.split("falsifying-structure: \n", 1)[1]
    assert code == 1 and structure == (
        "domain: [x_star] x_star\n"
        "var x_star: [x_star]\n"
        "fn x*: ()->x_star\n"
        "pred P: ([x_star])->T\n"
        "pred P: (x_star)->F\n"
    )
    struct_path = tmp_path / "falsifier.struct"
    struct_path.write_text(structure, encoding="utf-8")
    assert run(capsys, ["eval", str(struct_path), prob]) == (0, "false\n", "")


@pytest.mark.parametrize("structure, message", [
    ("domain: e0\nfn a: ()->e9\nfn f: (e0)->e0\npred P: (e0)->T\n",
     "value outside the domain: fn a: e9"),
    ("domain: e0\nfn a: ()->e0\nfn f: (e0)->e0\npred P: (e0)->T\nvar z: e1\n",
     "value outside the domain: var z: e1"),
    ("domain: e0 e1\nfn a: ()->e1\nfn f: (e0)->e0\npred P: (e0)->T\n",
     "function f has no value at (e1)"),
])
def test_eval_rejects_a_structure_that_cannot_evaluate(tmp_path, capsys, structure, message):
    # an image or value outside the domain, or a missing table entry
    prob = write_problem(tmp_path, "formula: P(f(a))\n")
    struct = tmp_path / "bad.struct"
    struct.write_text(structure, encoding="utf-8")
    assert run(capsys, ["eval", str(struct), prob]) == (2, "", f"error: {message}\n")


def test_expectation_annotation(tmp_path, capsys):
    ok = write_problem(
        tmp_path, "formula: P(c) | ~P(c)\nexpect: proof-found\n", "ok.prob"
    )
    code, _, _ = run(capsys, ["prove", ok])
    assert code == 0
    wrong = write_problem(
        tmp_path, "formula: P(c) | ~P(c)\nexpect: gave-up\n", "wrong.prob"
    )
    code, _, err = run(capsys, ["prove", wrong])
    assert code == 2 and "expectation failed" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert out.splitlines() == [f"PASS {row[0]}" for row in SELFTEST] + ["all checks passed"]


def test_selftest_reports_a_failing_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = list(SELFTEST)
    rows[3] = rows[3][:4] + ("something else\n",)
    monkeypatch.setattr("herbrand.cli.SELFTEST", tuple(rows))
    want = [f"PASS {row[0]}" for row in rows] + ["1 failures"]
    want[3] = f"FAIL {rows[3][0]}"
    code, out, _ = run(capsys, ["selftest"])
    assert (code, out.splitlines()) == (2, want)
    assert os.getcwd() == str(tmp_path) and os.listdir(tmp_path) == []


def usage_error(capsys, argv):
    """Exit code, stdout and last stderr line of a request that argparse
    rejects."""
    with pytest.raises(SystemExit) as got:
        main(argv)
    captured = capsys.readouterr()
    return got.value.code, captured.out, captured.err.splitlines()[-1]


@pytest.mark.parametrize("method", ["gilmore", "dp", "resolution", "race"])
def test_max_order_below_one_is_rejected_before_any_prover_runs(
    tmp_path, capsys, monkeypatch, method
):
    from herbrand import engine

    for name in ("dp", "gilmore", "resolution"):
        monkeypatch.setattr(engine, f"prove_{name}", None)
    path = write_problem(tmp_path, "formula: P(a) | ~P(a)\n")
    assert usage_error(capsys, ["prove", path, "--method", method, "-n", "0"]) == (
        2, "", "herbrand prove: error: argument --max-order/-n/--order:"
        " must be at least 1, got 0")


ORDER = "argument -n/--order"
MAX_ORDER = "argument --max-order/-n/--order"
BELOW_ONE = "must be at least 1, got"


@pytest.mark.parametrize("argv, message", [
    (["expand", "-n", "0"], f"{ORDER}: {BELOW_ONE} 0"),
    (["expand", "-n", "2", "--budget", "0"], f"argument --budget: {BELOW_ONE} 0"),
    (["complexity", "-n", "0"], f"{ORDER}: {BELOW_ONE} 0"),
    (["complexity", "-n", "2", "--max-instances", "0"],
     f"argument --max-instances: {BELOW_ONE} 0"),
    (["complexity", "-n", "2", "--budget", "-1"], f"argument --budget: {BELOW_ONE} -1"),
    *[(["prove", "--method", m, "--budget", "-5"], f"argument --budget: {BELOW_ONE} -5")
      for m in METHODS],
    *[(["prove", "--method", m, "-n", "-1"], f"{MAX_ORDER}: {BELOW_ONE} -1") for m in METHODS],
    # a count that is no integer keeps argparse's wording
    (["prove", "-n", "x"], f"{MAX_ORDER}: invalid int value: 'x'"),
    (["expand", "-n", "x"], f"{ORDER}: invalid int value: 'x'"),
    (["complexity", "-n", "x"], f"{ORDER}: invalid int value: 'x'"),
], ids=" ".join)
def test_bad_counts_are_usage_errors(tmp_path, capsys, monkeypatch, argv, message):
    from herbrand import engine, expansion

    for name in ("prove_dp", "prove_gilmore", "prove_resolution"):
        monkeypatch.setattr(engine, name, None)
    monkeypatch.setattr(expansion, "herbrand_disjunction", None)
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    assert usage_error(capsys, [argv[0], path, *argv[1:]]) == (
        2, "", f"herbrand {argv[0]}: error: {message}")


@pytest.mark.parametrize("budget, message", [
    ("abc", "invalid int value: 'abc'"), ("-3", "must be at least 1, got -3"),
])
def test_herbrand_budget_is_checked_only_by_commands_that_take_a_budget(
    tmp_path, budget, message
):
    path = write_problem(tmp_path, "formula: P(a) | ~P(a)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(herbrand.__file__)))
    env = dict(os.environ, HERBRAND_BUDGET=budget, PYTHONPATH=src)

    def herbrand_cli(*argv):
        done = subprocess.run([sys.executable, "-m", "herbrand", *argv], env=env,
                              capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    assert herbrand_cli("unify", "a", "a") == (0, "status: success\n", "")
    code, out, err = herbrand_cli("prove", path)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"herbrand prove: error: argument --budget: {message}"
    assert "Traceback" not in err
    # an explicit --budget is what the command reads
    assert herbrand_cli("prove", path, "--budget", "9")[:2] == (
        0, "verdict: proof-found\nmethod: dp\norder: 1\nwitness-verified: true\nwitness: {}\n")


@pytest.mark.parametrize("argv, message", [
    (["expand", "-n", "3", "--budget", "2"], "order-3 disjunction has 9 instances, budget is 2"),
    (["complexity", "-n", "3", "--budget", "2"], "2^2 paths exceed the search budget 2"),
])
def test_budget_exhaustion_is_one_error_line(tmp_path, capsys, argv, message):
    path = write_problem(tmp_path, "formula: ?x,y. ((P(x) | P(y)) -> P(f(x)))\n")
    assert run(capsys, [argv[0], path, *argv[1:]]) == (2, "", f"budget exceeded: {message}\n")


G_OF_X_X = "formula: ?x. P(g(x,x))\n"
OVER_BUDGET_AT_ORDER_4 = (
    "verdict: gave-up\nreason: order-4 disjunction has 26 instances, budget is 10\n"
    "falsifying-structure: not computed (budget)\n"
)


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    pytest.param(["prove", "-n", "6"], 1, OVER_BUDGET_AT_ORDER_4, "", id="prove-n6"),
    pytest.param(["prove", "-n", "7"], 1, OVER_BUDGET_AT_ORDER_4, "", id="prove-n7"),
    pytest.param(["prove", "-n", "7", "--method", "resolution"], 1,
                 "verdict: gave-up\nreason: saturated without refutation\n"
                 "falsifying-structure: not computed (budget)\n", "", id="resolution-n7"),
    pytest.param(["prove", "-n", "7", "--method", "race"], 1,
                 "verdict: gave-up\nfalsifying-structure: not computed (budget)\n", "",
                 id="race-n7"),
    pytest.param(["expand", "-n", "7"], 2, "",
                 "budget exceeded: order-7 disjunction has 210066388901 instances, budget is 10\n",
                 id="expand-n7"),
    pytest.param(["complexity", "-n", "7"], 1, "complexity: none\n", "", id="complexity-n7"),
])
def test_budget_is_compared_before_a_champ_fini_is_built(
    tmp_path, capsys, argv, code, stdout, stderr
):
    # ?x. P(g(x,x)) has a champ fini of 458,330 terms at order 6 and
    # 210,066,388,901 at order 7; building the order-6 one took some 25 s
    path = write_problem(tmp_path, G_OF_X_X)
    t0 = time.monotonic()
    got, out, err = run(capsys, [argv[0], path, *argv[1:], "--budget", "10"])
    assert time.monotonic() - t0 < 2
    assert (got, out) == (code, stdout)
    assert "".join(line for line in err.splitlines(True) if not line.startswith("time:")) == stderr


@pytest.mark.parametrize("order", range(3, 8))
def test_prove_budgets_every_term_domain_it_builds(tmp_path, capsys, order):
    # P(g(a,a)) has one member at every order, but its champ fini has 26
    # terms at order 5, and the falsifying structure of order n is read
    # over T_{n+2}: at order 4, T_6's 677 terms, whose table for g has
    # 458,329 entries
    path = write_problem(tmp_path, "formula: P(g(a,a))\n")
    t0 = time.monotonic()
    got = run(capsys, ["prove", path, "-n", str(order), "--budget", "10"])
    assert time.monotonic() - t0 < 1
    reason = (f"no proof up to order {order}" if order < 5
              else "order-5 champ fini has 26 terms, budget is 10")
    assert got[:2] == (1, f"verdict: gave-up\nreason: {reason}\n"
                          "falsifying-structure: not computed (budget)\n")


@pytest.mark.parametrize("method, order", [("dp", 4), ("gilmore", 3), ("gilmore", 4)])
def test_prove_scaling_family_stdout(tmp_path, capsys, method, order):
    # the gave-up report does not depend on the engine, so one file pins
    # both at order 4; the multiplication method's path search goes
    # through 3,375 conjuncts there, under the default recursion limit
    path = write_problem(tmp_path, SCALING)
    code, out, _ = run(
        capsys, ["prove", path, "--method", method, "--max-order", str(order)]
    )
    with open(os.path.join(DATA, f"scaling_{method if order == 3 else 'dp'}_n{order}.out"),
              encoding="utf-8") as handle:
        expected = handle.read()
    assert code == 1
    assert out == expected


VARIANT = (
    "formula: (!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v. ?n. (prec(u,n) & prec(v,n)))\n"
)


RUNNING = (
    "formula: (!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))\n"
)


@pytest.mark.parametrize("text, provers", [
    pytest.param(VARIANT, ["dp"], id="dp-proves"),
    # the order-3 family is over the budget, so dp gives up at order 3
    pytest.param(RUNNING, ["dp", "resolution"], id="dp-gives-up"),
])
def test_race_runs_dp_then_resolution(tmp_path, capsys, monkeypatch, text, provers):
    # a multiplication-method proof is a DPLL proof at the same order, so
    # race never runs gilmore, and it runs resolution only once dp gave
    # up; its derivation is the one the last prover writes on its own
    from herbrand import engine

    calls = []

    def recorded(name):
        prover = getattr(engine, f"prove_{name}")

        def record(*args, **kwargs):
            result = prover(*args, **kwargs)
            calls.append((name, result.found))
            return result

        return record

    for name in ("dp", "gilmore", "resolution"):
        monkeypatch.setattr(engine, f"prove_{name}", recorded(name))
    path = write_problem(tmp_path, text)
    derivations = []
    for method in ("race", provers[-1]):
        drv = tmp_path / f"{method}.drv"
        argv = ["prove", path, "--method", method, "--max-order", "3", "--proof-out", str(drv)]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.startswith("verdict: proof-found\n")
        derivations.append(drv.read_text(encoding="utf-8"))
        if method == "race":
            assert calls == [(name, name == provers[-1]) for name in provers]
    assert derivations[0] == derivations[1]


def test_prove_dp_variant_at_order_3(tmp_path, capsys):
    path = write_problem(tmp_path, VARIANT)
    code, out, _ = run(capsys, ["prove", path, "--method", "dp", "--max-order", "3"])
    assert code == 0
    assert "order: 3\n" in out and "witness-verified: true\n" in out


def test_prove_gilmore_variant_at_order_3(tmp_path, capsys):
    # every path through the 250 conjuncts is closed; multiplied shortest
    # first with absorption, the search takes 112 nodes (over 10^6 before)
    path = write_problem(tmp_path, VARIANT)
    outs = {}
    for method in ("gilmore", "dp"):
        code, out, _ = run(capsys, [
            "prove", path, "--method", method, "--max-order", "3", "--budget", "100000",
        ])
        assert code == 0
        outs[method] = out.splitlines()
    assert outs["gilmore"][1] == "method: gilmore"
    assert outs["gilmore"][:1] + outs["gilmore"][2:] == outs["dp"][:1] + outs["dp"][2:]


def test_prove_gilmore_pigeonhole_stops_on_the_budget(tmp_path, capsys):
    # PHP(5,4) over 0-ary atoms: five pigeons in four holes put two in
    # one hole.  Every path is closed, the multiplication method is
    # exponential here, and the budget bounds its search
    hyp = " & ".join(
        "(" + " | ".join(f"H_{i}_{j}" for j in range(1, 5)) + ")" for i in range(1, 6)
    )
    con = " | ".join(
        f"(H_{i}_{j} & H_{k}_{j})"
        for j in range(1, 5) for i in range(1, 6) for k in range(i + 1, 6)
    )
    path = write_problem(tmp_path, f"formula: ({hyp}) -> ({con})\n")
    argv = ["prove", path, "--budget", "100000", "--method"]
    code, out, _ = run(capsys, argv + ["gilmore"])
    assert code == 1
    # dpll refutes the grounded clauses, so no falsifying structure exists
    assert out.splitlines() == [
        "verdict: gave-up",
        "reason: path search exceeded the budget of 100000 nodes",
        "falsifying-structure: none (Property C holds at order 3)",
    ]
    code, out, _ = run(capsys, argv + ["gilmore", "--json"])
    assert code == 1
    assert json.loads(out)["falsifying-structure"] == "none (Property C holds at order 3)"
    code, out, _ = run(capsys, argv + ["dp"])
    assert code == 0 and "verdict: proof-found" in out


def test_prove_resolution_stops_at_the_term_height_limit(tmp_path, capsys):
    # negative selection builds an f(f(...)) chain here within the budget;
    # the loop gives up on its height before the recursive printer meets it
    path = write_problem(
        tmp_path,
        "formula: ~(!q0. (!q1. R(q1, f(q0))) | Q(a) & Q(a)"
        " | P(q0) & (R(f(q0), q0) -> R(f(a), a)))\n",
    )
    start = time.perf_counter()
    code, out, _ = run(capsys, ["prove", path, "--method", "resolution", "--budget", "2000"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out.splitlines()[:2] == ["verdict: gave-up", "reason: term height limit"]


@pytest.mark.parametrize("method", ["dp", "race"])
def test_proof_out_minimizes_the_witness_once(tmp_path, capsys, monkeypatch, method):
    from herbrand import engine

    calls = []
    minimize = engine.minimize_witness

    def counted(f, sigmas, *rest):
        calls.append(len(sigmas))
        return minimize(f, sigmas, *rest)

    monkeypatch.setattr(engine, "minimize_witness", counted)
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    drv = str(tmp_path / "proof.drv")
    code, _, _ = run(
        capsys,
        ["prove", path, "--method", method, "--max-order", "3", "--proof-out", drv],
    )
    assert code == 0 and os.path.exists(drv)
    assert len(calls) == 1


def test_prove_resolution_proof_out_pinned(tmp_path, capsys, monkeypatch):
    # stdout and derivation of the two-goal variant, captured before the
    # given-clause loop keyed new clauses from one print
    path = write_problem(
        tmp_path,
        "formula: (!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
        " -> (!u,v. ?n. (prec(u,n) & prec(v,n)))\n",
        "variant.prob",
    )
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, ["prove", path, "--method", "resolution", "--proof-out", "proof.drv"]
    )
    assert code == 0
    for produced, pinned in ((out, "two_goal_resolution.out"),
                             ((tmp_path / "proof.drv").read_text(encoding="utf-8"),
                              "two_goal_resolution.drv")):
        with open(os.path.join(DATA, pinned), encoding="utf-8") as handle:
            assert produced == handle.read()


@pytest.mark.parametrize(
    "text, witness",
    [
        # the bound x is renamed apart from the free x; resolution must not
        # rename or bind the free x, which is a constant of the champ fini
        ("free: x\nformula: (?x. ~P(x)) | P(x)\n", "witness: {x1 -> x}"),
        # the second x is a constant, and the bound x is renamed apart from
        # it, so the witness does not read {x -> x}
        ("formula: (?x. ~P(x)) | P(x)\n", "witness: {x1 -> x}"),
    ],
    ids=["free-variable", "constant"],
)
def test_every_method_gives_the_same_witness(tmp_path, capsys, text, witness):
    path = write_problem(tmp_path, text)
    witnesses = set()
    for method in ("dp", "gilmore", "resolution"):
        code, out, _ = run(capsys, ["prove", path, "--method", method])
        assert code == 0, method
        assert "witness-verified: true" in out
        witnesses |= {line for line in out.splitlines() if line.startswith("witness:")}
    assert witnesses == {witness}


# stdout of `prove` captured before the trace was rendered in the CLI and
# the report got one epilogue: a proof with a factor step, and a gave-up
# report whose falsifying structure comes before the trace lines
TRACED_PROOF = "formula: ?x,y. ((P(x) | P(y)) -> P(f(x)))\n"
TRACED_GAVE_UP = "formula: ?x. (P(x) -> Q(f(x)))\n"
PROOF_REPORT = """\
verdict: proof-found
method: resolution
steps: 4
witness-verified: true
witness: {x -> f(l), y -> f(l)}
witness: {x -> l, y -> l}
"""
GAVE_UP_STRUCTURE = """\
domain: l f(l)
var l: l
fn f: (f(l))->f(l)
fn f: (l)->f(l)
pred P: (l)->T
pred Q: (f(l))->F
"""
GAVE_UP_TRACE = """\
trace: clause P(x)
trace: clause ~Q(f(x))
trace: verdict gave-up (saturated)
"""
GAVE_UP_JSON = (
    '{"falsifying-structure": ["domain: l f(l)", "var l: l", "fn f: (f(l))->f(l)",'
    ' "fn f: (l)->f(l)", "pred P: (l)->T", "pred Q: (f(l))->F"],'
    ' "reason": "saturated without refutation", "verdict": "gave-up"}\n'
)
GAVE_UP_JSON_TRACE = (
    '{"falsifying-structure": ["domain: l f(l)", "var l: l", "fn f: (f(l))->f(l)",'
    ' "fn f: (l)->f(l)", "pred P: (l)->T", "pred Q: (f(l))->F"],'
    ' "reason": "saturated without refutation", "trace": ["clause P(x)",'
    ' "clause ~Q(f(x))", "verdict gave-up (saturated)"], "verdict": "gave-up"}\n'
)


@pytest.mark.parametrize(
    "text, flags, expected",
    [
        (TRACED_PROOF, ["--trace"], PROOF_REPORT + """\
trace: clause P(x) | P(y)
trace: clause ~P(f(x))
trace: resolvent P([y@1.1])
trace: resolvent P([x@1.0])
trace: factor P([y@1.1])
trace: resolvent []
trace: verdict proof-found 4 steps
"""),
        (TRACED_PROOF, ["--trace", "--dual"], PROOF_REPORT + """\
trace: clause ~P(x) & ~P(y)
trace: clause P(f(x))
trace: resolvent ~P([y@1.1])
trace: resolvent ~P([x@1.0])
trace: factor ~P([y@1.1])
trace: resolvent #
trace: verdict proof-found 4 steps
"""),
        (TRACED_PROOF, ["--trace", "--json"],
         '{"method": "resolution", "steps": 4, "trace": ["clause P(x) | P(y)",'
         ' "clause ~P(f(x))", "resolvent P([y@1.1])", "resolvent P([x@1.0])",'
         ' "factor P([y@1.1])", "resolvent []", "verdict proof-found 4 steps"],'
         ' "verdict": "proof-found", "witness": ["{x -> f(l), y -> f(l)}",'
         ' "{x -> l, y -> l}"], "witness-verified": "true"}\n'),
        (TRACED_GAVE_UP, ["--max-order", "1", "--trace"],
         "verdict: gave-up\nreason: saturated without refutation\n"
         "falsifying-structure: \n" + GAVE_UP_STRUCTURE + GAVE_UP_TRACE),
        (TRACED_GAVE_UP, ["--max-order", "1", "--json"], GAVE_UP_JSON),
        (TRACED_GAVE_UP, ["--max-order", "1", "--json", "--trace"], GAVE_UP_JSON_TRACE),
    ],
    ids=["trace", "dual", "trace-json", "gave-up-trace", "gave-up-json", "gave-up-json-trace"],
)
def test_prove_output_shapes_pinned(tmp_path, capsys, text, flags, expected):
    path = write_problem(tmp_path, text)
    code, out, _ = run(capsys, ["prove", path, "--method", "resolution", *flags])
    assert code == (0 if text == TRACED_PROOF else 1)
    assert out == expected


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("problem, verdict", [
    ("formula: (?x. P(x)) | ~(?y. P(y))\n", "proof-found"), (TRACED_GAVE_UP, "gave-up"),
], ids=["found", "gave-up"])
@pytest.mark.parametrize("flags", [[], ["--trace"], ["--proof-out", "p.drv"],
                                   ["--trace", "--proof-out", "p.drv"]], ids=" ".join)
def test_prove_json_is_one_document(tmp_path, capsys, monkeypatch, method, problem, verdict,
                                    flags):
    monkeypatch.chdir(tmp_path)
    argv = ["prove", write_problem(tmp_path, problem), "--method", method, "-n", "2", *flags]
    code, out, _ = run(capsys, [*argv, "--json"])
    document = json.loads(out)
    assert (code, document["verdict"], out.count("\n")) == (verdict == "gave-up", verdict, 1)
    text_code, text, _ = run(capsys, argv)
    assert text_code == code
    if code:
        # text mode prints the structure's lines under the key, then the trace
        block = text.split("falsifying-structure: \n", 1)[1].split("trace: ", 1)[0]
        assert document["falsifying-structure"] == block.splitlines()
        assert load_structure("\n".join(document["falsifying-structure"])) == load_structure(
            block)


def test_prove_rejects_a_witness_that_does_not_verify(tmp_path, capsys, monkeypatch):
    from herbrand import engine
    from herbrand.syntax import Subst, parse_term

    def unsound(f, *_args, **_kwargs):
        return engine.ProofResult(
            True, "dp", order=1, witness=(Subst({"x": parse_term("a")}),)
        )

    monkeypatch.setattr(engine, "prove_dp", unsound)
    path = write_problem(tmp_path, "formula: ?x. P(x)\n")
    drv = str(tmp_path / "proof.drv")
    code, out, err = run(capsys, ["prove", path, "--method", "dp", "--proof-out", drv])
    assert code == 2 and out == ""
    assert err == "internal error: witness failed re-verification\n"
    assert not os.path.exists(drv)


def test_prove_reports_a_derivation_that_does_not_check(tmp_path, capsys, monkeypatch):
    from herbrand import proofcalc

    def rejecting(_derivation):
        return proofcalc.Violation(0, proofcalc.T_AXIOM, "rejected")

    monkeypatch.setattr(proofcalc, "check", rejecting)
    path = write_problem(tmp_path, "formula: (?x. P(x)) | ~(?y. P(y))\n")
    drv = str(tmp_path / "proof.drv")
    code, out, err = run(capsys, ["prove", path, "--method", "dp", "--proof-out", drv])
    assert code == 2 and out == ""
    assert err == (
        "internal error: AssertionError: constructed derivation does not check:"
        " step 0 (SententialTautologyAxiom): rejected\n"
    )
    assert not os.path.exists(drv)


def test_prove_rejects_inconsistent_arities_of_an_equation_head(tmp_path, capsys):
    path = write_problem(tmp_path, "formula: y_star(a) = b & y_star(a, b) = c\n")
    code, out, err = run(capsys, ["prove", path])
    assert (code, out) == (2, "")
    assert err == "error: y_star used with inconsistent arity\n"


COMPLEXITY_ELEVEN = (
    "formula: ?x. ((P1(x) & P2(x) & P3(x) & P4(x) & P5(x) & P6(x) & P7(x)"
    " & P8(x) & P9(x) & P10(x) & P11(x)) -> (P1(b) & P2(b) & P3(b) & P4(b)"
    " & P5(b) & P6(b) & P7(b) & P8(b) & P9(b) & P10(b) & P11(f(b))))\n"
)


def test_complexity_search_runs_under_the_default_recursion_limit(tmp_path, capsys):
    # 11^3 = 1,331 combined paths: the search must not recurse once per path
    path = write_problem(tmp_path, COMPLEXITY_ELEVEN)
    code, out, err = run(capsys, ["complexity", path, "-n", "2", "--max-instances", "3"])
    assert (code, out, err) == (1, "complexity: none\n", "")


_RENAMINGS = '"renamings": [{"x": "x_c1"}, {"x": "x_c2"}]'


@pytest.mark.parametrize("line, field, tampered", [
    (0, "data={}", "data=[]"),
    (1, '"term": "c1"', '"term": 5'),
    (4, _RENAMINGS, '"renamings": 3'),
    (4, _RENAMINGS, '"renamings": [["x", "x_c1"]]'),
    (4, _RENAMINGS, '"renamings": [{"x": 1}]'),
    (3, "data={}", 'data={"passage_rule": "1"}'),
    (3, "data={}", 'data={"passage_rule": true}'),
    (3, "data={}", 'data={"direction": 1}'),
])
def test_check_rejects_data_of_the_wrong_type(tmp_path, capsys, line, field, tampered):
    with open(os.path.join(DATA, "merge_below_quantifier.drv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert field in lines[line]
    lines[line] = lines[line].replace(field, tampered, 1)
    path = tmp_path / "tampered.drv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"error: malformed data in derivation line: {lines[line]!r}\n"
    assert run(capsys, ["check", str(path)]) == (2, "", message)


def test_proof_of_an_equation_on_a_boxed_variable_checks(tmp_path, capsys):
    # the derivation writes the equation `[y_star] = a`, and `check`
    # must read it back
    path = write_problem(tmp_path, "formula: (?x. x = a) | ~(?y. y = a)\n")
    drv = str(tmp_path / "eq.drv")
    code, _, _ = run(capsys, ["prove", path, "--proof-out", drv])
    assert code == 0
    with open(drv, encoding="utf-8") as handle:
        assert "[y_star] = a | [y_star] != a" in handle.read()
    code, out, err = run(capsys, ["check", drv])
    assert (code, err) == (0, "") and out.startswith("ok\n")


# ---------------------------------------------------------------------------
# one Herbrand analysis per prove request


def _counted(monkeypatch, module, name):
    """Calls of `module.name`, counted at every module attribute of the
    package bound to it (the modules import each other's functions by
    name)."""
    import sys

    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("herbrand")]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


DRINKER = "formula: ?x. (P(x) -> (!y. P(y)))\n"


@pytest.mark.parametrize("method", ["dp", "gilmore", "resolution", "race"])
@pytest.mark.parametrize("text, flags, code", [
    pytest.param(DRINKER, [], 0, id="proved"),
    pytest.param(DRINKER, ["--proof-out", "proof.drv"], 0, id="proof-out"),
    pytest.param(SCALING, ["--max-order", "2"], 1, id="gave-up"),
    pytest.param(SCALING, ["--max-order", "3", "--budget", "100"], 1, id="budget"),
])
def test_one_skolemization_per_prove_request(
    tmp_path, capsys, monkeypatch, method, text, flags, code
):
    from herbrand import transform

    monkeypatch.chdir(tmp_path)
    path = write_problem(tmp_path, text)
    calls = _counted(monkeypatch, transform, "_skolemize")
    got, out, _ = run(capsys, ["prove", path, "--method", method, *flags])
    assert got == code
    if "--budget" in flags and method in ("dp", "gilmore"):
        assert "budget is 100" in out
    assert len(calls) == 1


@pytest.mark.parametrize("text, complexity", [
    pytest.param("formula: (?x. P(x)) | ~(?y. P(y))\n", "1", id="one"),
    pytest.param(DRINKER, "2", id="drinker"),
    pytest.param(SCALING, "none", id="none"),
])
def test_one_skolemization_per_complexity_request(
    tmp_path, capsys, monkeypatch, text, complexity
):
    # each candidate is verified on the order-n analysis the search ran on
    from herbrand import transform

    path = write_problem(tmp_path, text)
    calls = _counted(monkeypatch, transform, "_skolemize")
    _, out, _ = run(capsys, ["complexity", path, "-n", "3"])
    assert out == f"complexity: {complexity}\n"
    assert len(calls) == 1


RENAMED_VALID = [
    "{P}({c}) | ~{P}({c})",
    "(?x. {P}(x)) | ~(?y. {P}(y))",
    "(!x. {P}(x)) -> {P}({c})",
    "?x. ({P}(x) -> (!y. {P}(y)))",
    "(!x. ({P}(x) -> {Q}(x))) & {P}({c}) -> {Q}({c})",
    "{P}({c}) -> (?x. {P}(x))",
    "(!x. {P}(x)) | ~(!y. {P}(y))",
    "((?x. {P}(x)) & (!y. {Q}(y))) | ~(?x. {P}(x)) | ~(!y. {Q}(y))",
    "(!x. ({P}(x) & {Q}(x))) -> (!y. {P}(y))",
    "(?x. ({P}(x) | {Q}(x))) | ~(?y. {P}(y))",
]


def test_prove_requests_keep_nothing_between_them(tmp_path):
    # every atom a request keys, with its term tree, is garbage once the
    # request returns: the memory retained after 60 more requests on
    # fresh names stays within a fixed slack
    import contextlib
    import gc
    import io
    import sys
    import tracemalloc

    paths = [
        write_problem(tmp_path, "formula: " + RENAMED_VALID[i % len(RENAMED_VALID)].format(
            P=f"P{i}", Q=f"Q{i}", c=f"c{i}") + "\n", f"p{i}.prob")
        for i in range(90)
    ]
    # the interpreter's attribute cache holds recently looked-up names, a
    # bounded table that is not the program's; its frame caches (Python
    # 3.10 keeps about 11 KB more over these requests) are the slack
    clear_caches = getattr(sys, "_clear_internal_caches", None) or sys._clear_type_cache

    def retained() -> int:
        clear_caches()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        for i, path in enumerate(paths):
            if i == 30:  # every template under every method has run
                before = retained()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(["prove", path, "--method", ("dp", "gilmore", "resolution")[i % 3]]) == 0
        growth = retained() - before
    finally:
        tracemalloc.stop()
    assert growth < 32_000


@pytest.mark.parametrize("text", [
    pytest.param("?x. P(x)", id="lexicon-only"),
    pytest.param("?x,y,z. (P(f(x),g(y)) & ~P(z,z))", id="scaling"),
])
@pytest.mark.parametrize("method", ["dp", "gilmore", "resolution", "race"])
@pytest.mark.parametrize("lexicon", [False, True])
def test_gave_up_structure_is_the_one_computed_afresh(
    tmp_path, capsys, text, method, lexicon
):
    from herbrand.expansion import dump_structure, falsifying_structure

    path = write_problem(tmp_path, f"formula: {text}\n")
    flags = ["--always-lexicon"] if lexicon else []
    code, out, _ = run(capsys, ["prove", path, "--method", method, "--max-order", "2", *flags])
    fresh = falsifying_structure(grounding(parse(text), 2, always_lexicon=lexicon))
    assert code == 1 and out.endswith("falsifying-structure: \n" + dump_structure(fresh))


@pytest.mark.parametrize("method, decisions", [("dp", 3), ("gilmore", 1), ("race", 4)])
def test_gave_up_reads_the_structure_off_the_last_order(
    tmp_path, capsys, monkeypatch, method, decisions
):
    # each order is grounded once; dp's structure comes from the model
    # its last order's DPLL call found, gilmore's from one DPLL call on
    # the clauses its last order grounded, and race's from dp's, after
    # resolution's one propositional grounding and DPLL call
    from herbrand import expansion, sat

    path = write_problem(tmp_path, SCALING)
    groundings = _counted(monkeypatch, expansion, "ground_clauses")
    dpll_calls = _counted(monkeypatch, sat, "dpll")
    code, out, _ = run(capsys, ["prove", path, "--method", method, "--max-order", "3"])
    assert code == 1 and "falsifying-structure: \ndomain: " in out
    assert (len(groundings), len(dpll_calls)) == (3 + (method == "race"), decisions)


# ---------------------------------------------------------------------------
# a parser with the arguments of the subcommand being run only

TYPICAL_ARGVS = [
    ["prove", "x.p", "--method", "race", "-n", "2", "--budget", "9", "--proof-out",
     "o.drv", "--trace", "--always-lexicon", "--dual", "--json"],
    ["transform", "f.p", "--pass", "relativize", "--guard", "G"],
    ["expand", "f.p", "-n", "2", "--always-lexicon"],
    ["complexity", "f.p", "--order", "3", "--max-instances", "2", "--budget", "50"],
    ["unify", "f(x)", "f(a)", "--frees", "x"],
    ["check", "p.drv"],
    ["arith", "decide", "S(0) = 0"],
    ["eval", "s.struct", "f.p"],
    ["selftest"],
]


def test_every_subcommand_has_a_typical_argv():
    assert [argv[0] for argv in TYPICAL_ARGVS] == [name for name, *_ in COMMANDS]


@pytest.mark.parametrize("argv", TYPICAL_ARGVS + [["prove", "x.p"]], ids=" ".join)
def test_per_command_parser_parses_as_the_whole_one(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"],
    ["prove"], ["prove", "x.p", "--bogus"], ["prove", "x.p", "--method", "nope"],
    ["prove", "-h"], ["transform", "-h"], ["expand", "-h"], ["complexity", "-h"],
    ["unify", "-h"], ["check", "-h"], ["eval", "-h"], ["selftest", "-h"],
    ["arith"], ["arith", "-h"], ["arith", "decide", "-h"],
    ["transform", "f.p"], ["expand", "f.p"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_usage_errors_and_help_read_as_from_the_whole_parser(capsys, argv):
    with pytest.raises(SystemExit) as got:
        main(argv)
    got_out, got_err = capsys.readouterr()
    with pytest.raises(SystemExit) as want:
        build_parser().parse_args(argv)
    want_out, want_err = capsys.readouterr()
    assert (got.value.code, got_out, got_err) == (want.value.code, want_out, want_err)
    assert got_out or got_err


def test_main_reads_the_process_arguments(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["herbrand", "unify", "f(x)", "f(a)", "--frees", "x"])
    assert main() == 0
    assert capsys.readouterr().out == "status: success\nx -> a\n"
