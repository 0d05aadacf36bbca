"""Batch command-line front end.

Subcommands wrap the library operations one to one; every report is
plain deterministic text on stdout (timing goes to stderr), and the
prove family follows the exit-code contract 0 = proof found, 1 = gave
up, 2 = error.  A problem file is line oriented::

    # comment
    free: x y
    formula: !x. (P(x) -> P(x))
    expect: proof-found

The `free:` line declares which identifiers are free variables; every
other bare identifier is a constant.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
import time

from . import arith as arith_mod
from . import engine, expansion, proofcalc, transform
from .expansion import BudgetExceededError
from .syntax import (
    PREDICATE,
    SyntaxError_,
    ArityMismatchError,
    Symbol,
    free_vars,
    parse,
    parse_term,
    print_formula,
    print_term,
    rectify,
)

EXIT_FOUND = 0
EXIT_GAVE_UP = 1
EXIT_ERROR = 2

DEFAULT_BUDGET = int(os.environ.get("HERBRAND_BUDGET", str(expansion.DEFAULT_BUDGET)))


class ProblemError(Exception):
    pass


def read_problem(path: str):
    """Parse a problem file into (formula, frees, expect)."""
    frees: set[str] = set()
    formula_text = None
    expect = None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("free:"):
                    frees |= set(line[len("free:"):].split())
                elif line.startswith("formula:"):
                    if formula_text is not None:
                        raise ProblemError("a problem file holds one formula")
                    formula_text = line[len("formula:"):].strip()
                elif line.startswith("expect:"):
                    expect = line[len("expect:"):].strip()
                else:
                    raise ProblemError(f"unrecognized line: {raw.rstrip()}")
    except OSError as e:
        raise ProblemError(str(e))
    if formula_text is None:
        raise ProblemError("missing `formula:` line")
    formula = parse(formula_text, frees)
    undeclared = free_vars(formula) - frees - {"l"}
    if undeclared:
        raise ProblemError(f"undeclared free variables: {sorted(undeclared)}")
    return formula, tuple(sorted(frees)), expect


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, list):
            for item in value:
                print(f"{key}: {item}")
        else:
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args) -> int:
    if args.max_order < 1:
        raise ValueError(f"--max-order must be at least 1, got {args.max_order}")
    formula, frees, expect = read_problem(args.file)
    budget = args.budget
    n_max = args.max_order
    t0 = time.monotonic()
    result = METHODS[args.method](formula, args)

    report: dict = {}
    code = EXIT_GAVE_UP
    structure = None
    if result.found:
        code = EXIT_FOUND
        report["verdict"] = "proof-found"
        if args.method != "race":
            report["method"] = result.method
            if result.order is not None:
                report["order"] = result.order
            if result.method == "resolution":
                report["steps"] = result.steps
        minimized = engine.minimize_witness(formula, result.witness, result.analysis)
        if not minimized:
            print("internal error: witness failed re-verification", file=sys.stderr)
            return EXIT_ERROR
        report["witness-verified"] = "true"
        if args.method != "race":
            report["witness"] = [str(s) for s in minimized]
    else:
        report["verdict"] = "gave-up"
        if args.method != "race":
            report["reason"] = result.reason
        try:
            structure = expansion.falsifying_structure(
                formula, n_max, budget, args.always_lexicon, result.analysis,
                result.grounding,
            )
        except BudgetExceededError:
            report["falsifying-structure"] = "not computed (budget)"
        else:
            report["falsifying-structure"] = (
                [""] if structure is not None
                else f"none (Property C holds at order {n_max})"
            )

    trace = []
    if args.trace:
        for kind, payload in result.trace:
            if isinstance(payload, engine.Clause):
                payload = payload.pretty(args.dual)
            trace.append(f"{kind} {payload}")
    if trace and structure is None:
        report["trace"] = trace

    if args.proof_out and result.found:
        order = result.order if result.order is not None else 1
        # mp_eliminate checks the derivation it builds
        derivation = proofcalc.mp_eliminate(
            formula, expansion.PropertyCWitness(order, minimized), result.analysis
        )
        with open(args.proof_out, "w", encoding="utf-8") as handle:
            handle.write(proofcalc.dump_derivation(derivation, frees))
        report["proof-out"] = args.proof_out

    _emit(report, args.json)
    if structure is not None:
        sys.stdout.write(expansion.dump_structure(structure))
        for line in trace:
            print(f"trace: {line}")
    print(f"time: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    if expect is not None and expect != report["verdict"]:
        print(
            f"expectation failed: annotated {expect}, got {report['verdict']}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    return code


def _race(formula, args):
    """dp, then resolution with the same budget if dp gave up.  The
    multiplication method decides the same order-n clause sets as DPLL,
    so it could add no proof.  Returns the proof either found, else dp's
    gave-up result, whose analysis and last grounding the falsifying
    structure reuses.  Resolution starts from that analysis, so the
    formula is Skolemized once.  Only the verdict is reported."""
    result = engine.prove_dp(formula, args.max_order, args.budget, args.always_lexicon)
    if result.found:
        return result
    proof = engine.prove_resolution(formula, args.budget, analysis=result.analysis)
    return proof if proof.found else result


# each `prove --method`, from the formula and the parsed arguments
METHODS = {
    "gilmore": lambda f, a: engine.prove_gilmore(f, a.max_order, a.budget, a.always_lexicon),
    "dp": lambda f, a: engine.prove_dp(f, a.max_order, a.budget, a.always_lexicon),
    "resolution": lambda f, a: engine.prove_resolution(f, a.budget, trace=a.trace),
    "race": _race,
}


# ---------------------------------------------------------------------------
# transforms and expansions


# each `transform --pass`, from the problem's formula and the parsed arguments
PASSES = {
    "prenex": lambda f, _a: transform.to_prenex(rectify(f)),
    "antiprenex": lambda f, _a: transform.to_antiprenex(rectify(f)),
    "skolem-outer": lambda f, _a: transform.skolemize_outer(rectify(f)),
    "skolem-inner": lambda f, _a: transform.skolemize_inner(rectify(f)),
    "relativize": lambda f, a: transform.relativize(f, Symbol(a.guard, 1, PREDICATE)),
    "rectify": lambda f, _a: rectify(f),
}


def cmd_transform(args) -> int:
    formula, _frees, _ = read_problem(args.file)
    if args.passname == "relativize" and not args.guard:
        print("usage error: relativize needs --guard PRED", file=sys.stderr)
        return EXIT_ERROR
    print(print_formula(PASSES[args.passname](formula, args)))
    return EXIT_FOUND


def cmd_expand(args) -> int:
    formula, _frees, _ = read_problem(args.file)
    d = expansion.herbrand_disjunction(formula, args.order, args.always_lexicon)
    if d.count > args.budget:
        print(f"budget exceeded: {d.count} instances", file=sys.stderr)
        return EXIT_ERROR
    expanded = expansion.expand(d.skolemized, d.champ.terms)
    print(f"order: {args.order}")
    print("champ: " + " ".join(print_term(t) for t in d.champ.terms))
    print("gamma-vars: " + " ".join(d.gamma_vars))
    print(f"instances: {d.count}")
    print("expansion: " + print_formula(expanded))
    return EXIT_FOUND


def cmd_complexity(args) -> int:
    formula, _frees, _ = read_problem(args.file)
    try:
        k = expansion.herbrand_complexity(
            formula, args.order, args.max_instances, args.budget
        )
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_ERROR
    if k is None:
        print("complexity: none")
        return EXIT_GAVE_UP
    print(f"complexity: {k}")
    return EXIT_FOUND


def cmd_unify(args) -> int:
    frees = set(args.frees.split()) if args.frees else set()
    t1 = parse_term(args.term1, frees)
    t2 = parse_term(args.term2, frees)
    u = engine.unify(t1, t2)
    # every line is built before any is written: no partial report on error
    if u.ok:
        lines = [f"{v} -> {print_term(t)}" for v, t in sorted(u.substitution.items())]
    else:
        lines = [f"offending: {u.offending[0]} vs {u.offending[1]}"]
    print("\n".join([f"status: {u.status}", *lines]))
    return EXIT_FOUND if u.ok else EXIT_GAVE_UP


def cmd_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        derivation, _frees = proofcalc.load_derivation(handle.read())
    violation = proofcalc.check(derivation)
    if violation is None:
        proves = print_formula(derivation.final)  # before any line is written
        print(f"ok\nsteps: {len(derivation)}\nproves: {proves}")
        return EXIT_FOUND
    print(f"violation: {violation}")
    return EXIT_GAVE_UP


def cmd_arith(args) -> int:
    sentence = parse(args.sentence)
    print(arith_mod.decide(sentence))
    return EXIT_FOUND


def cmd_eval(args) -> int:
    formula, _frees, _ = read_problem(args.problem)
    with open(args.structure, "r", encoding="utf-8") as handle:
        structure = expansion.load_structure(handle.read())
    value = expansion.eval_in_structure(structure, formula)
    print("true" if value else "false")
    return EXIT_FOUND


# ---------------------------------------------------------------------------
# selftest: the worked examples as a smoke suite

_VALID = {"valid.prob": "formula: (?x. P(x)) | ~(?y. P(y))\n"}
_RUNNING = {"running.prob": "formula: (!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
            " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
            " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))\n"}
_MIXED = {"mixed.prob": "formula: ~(!x. ?y. R(x, y)) | (?z. P(z) -> !w. P(w))\n"}
_SMALL = {"small.prob": "formula: !x. (P(x) | ~P(c))\n"}
_VALID_CHECKED = "ok\nsteps: 3\nproves: (?x. P(x)) | ~(?[y_star]. P([y_star]))\n"

# The worked examples, each a `herbrand` command line: (name, argv, input
# files, exit code, whole stdout).  `selftest` runs them in this order in
# one directory, so a row may read a derivation an earlier row wrote.
SELFTEST = (
    ("parse", "transform q.prob --pass rectify",
     {"q.prob": "formula: ?y. !x. Q(x,y)\n"}, 0, "?y. !x. Q(x, y)\n"),
    ("rules-of-passage", "transform rule1.prob --pass prenex",
     {"rule1.prob": "formula: ~(!x. A1(x))\n"}, 0, "?x. ~A1(x)\n"),
    ("rules-of-passage", "transform rule5.prob --pass prenex",
     {"rule5.prob": "formula: (?x. A1(x)) | B1\n"}, 0, "?x. A1(x) | B1\n"),
    ("skolemize-outer", "transform valid.prob --pass skolem-outer", _VALID, 0,
     "(?x. P(x)) | ~P(y_star)\n"),
    ("skolemize-inner", "transform inner.prob --pass skolem-inner",
     {"inner.prob": "formula: (?y1. !z1. Q(y1, z1)) | (?y2. !z2. Q(y2, z2))\n"}, 0,
     "(?y1. Q(y1, z1_star(y1))) | (?y2. Q(y2, z2_star(y2)))\n"),
    ("relativize", "transform q2.prob --pass relativize --guard G",
     {"q2.prob": "formula: (!x. Q(x)) & (?y. Q(y))\n"}, 0,
     "(!x. G(x) -> Q(x)) & (?y. G(y) & Q(y))\n"),
    ("relativize", "transform small.prob --pass relativize --guard G", _SMALL, 0,
     "!x. G(x) -> P(x) | ~P(c)\n"),
    ("passes-of-a-mixed-formula", "transform mixed.prob --pass prenex", _MIXED, 0,
     "?z. ?x. !y. ~R(x, y) | (P(z) -> (!w. P(w)))\n"),
    ("passes-of-a-mixed-formula", "transform mixed.prob --pass antiprenex", _MIXED, 0,
     "~(!x. ?y. R(x, y)) | (?z. P(z) -> (!w. P(w)))\n"),
    ("passes-of-a-mixed-formula", "transform mixed.prob --pass rectify", _MIXED, 0,
     "~(!x. ?y. R(x, y)) | (?z. P(z) -> (!w. P(w)))\n"),
    ("passes-of-a-mixed-formula", "transform mixed.prob --pass skolem-outer", _MIXED, 0,
     "~(!x. R(x, y_star(x))) | (?z. P(z) -> P(w_star(z)))\n"),
    ("passes-of-a-mixed-formula", "transform mixed.prob --pass skolem-inner", _MIXED, 0,
     "~(!x. R(x, y_star(x))) | (?z. P(z) -> P(w_star))\n"),
    ("passes-of-a-mixed-formula", "transform mixed.prob --pass relativize --guard G",
     _MIXED, 0, "~(!x. G(x) -> (?y. G(y) & R(x, y)))"
     " | (?z. G(z) & (P(z) -> (!w. G(w) -> P(w))))\n"),
    ("property-c", "prove valid.prob -n 2", _VALID, 0, "verdict: proof-found\n"
     "method: dp\norder: 2\nwitness-verified: true\nwitness: {x -> y_star}\n"),
    ("property-c", "prove taut.prob -n 1", {"taut.prob": "formula: P(a) | ~P(a)\n"}, 0,
     "verdict: proof-found\nmethod: dp\norder: 1\nwitness-verified: true\nwitness: {}\n"),
    ("property-c", "prove atom.prob -n 3", {"atom.prob": "formula: P(a)\n"}, 1,
     "verdict: gave-up\nreason: no proof up to order 3\nfalsifying-structure: \n"
     "domain: a\nfn a: ()->a\npred P: (a)->F\n"),
    ("unification", "unify 'Pf(x, f(a, y))' 'Pf(a, f(z, b))' --frees 'x y z'", {}, 0,
     "status: success\nx -> a\ny -> b\nz -> a\n"),
    ("unification", "unify 'f(x, g(y))' 'f(a, g(b))' --frees 'x y'", {}, 0,
     "status: success\nx -> a\ny -> b\n"),
    ("unification", "unify 'f(x, x)' 'f(a, b)' --frees x", {}, 1,
     "status: clash\noffending: a vs b\n"),
    ("procedures", "prove valid.prob --method dp --proof-out dp.drv", _VALID, 0,
     "verdict: proof-found\nmethod: dp\norder: 2\nwitness-verified: true\n"
     "witness: {x -> y_star}\nproof-out: dp.drv\n"),
    ("procedure-derivations", "check dp.drv", {}, 0, _VALID_CHECKED),
    ("procedures", "prove valid.prob --method gilmore --proof-out gilmore.drv", _VALID, 0,
     "verdict: proof-found\nmethod: gilmore\norder: 2\nwitness-verified: true\n"
     "witness: {x -> y_star}\nproof-out: gilmore.drv\n"),
    ("procedure-derivations", "check gilmore.drv", {}, 0, _VALID_CHECKED),
    ("procedures", "prove valid.prob --method resolution --proof-out resolution.drv",
     _VALID, 0, "verdict: proof-found\nmethod: resolution\nsteps: 1\n"
     "witness-verified: true\nwitness: {x -> y_star}\nproof-out: resolution.drv\n"),
    ("procedure-derivations", "check resolution.drv", {}, 0, _VALID_CHECKED),
    ("procedures", "prove valid.prob --method race --proof-out race.drv", _VALID, 0,
     "verdict: proof-found\nwitness-verified: true\nproof-out: race.drv\n"),
    ("procedure-derivations", "check race.drv", {}, 0, _VALID_CHECKED),
    ("gamma-quantification-step", "check gamma.drv", {"gamma.drv": (
        "0 | SententialTautologyAxiom | premises=- | at=- | data={}"
        " | prec(t0, t0) | ~prec(t0, t0)\n"
        "1 | GenGammaQuant | premises=0 | at=1 | data={\"term\": \"t0\"}"
        " | prec(t0, t0) | (?x. ~prec(x, t0))\n")}, 0,
     "ok\nsteps: 2\nproves: prec(t0, t0) | (?x. ~prec(x, t0))\n"),
    # the gamma step's term spelled as the Skolem constant, not the boxed name
    ("gamma-quantification-step", "check tampered.drv", {"tampered.drv": (
        "0 | SententialTautologyAxiom | premises=- | at=- | data={}"
        " | P([y_star]) | ~P([y_star])\n"
        "1 | GenGammaQuant | premises=0 | at=0 | data={\"term\": \"y_star\"}"
        " | (?x. P(x)) | ~P([y_star])\n"
        "2 | GenDeltaQuant | premises=1 | at=1.0 | data={}"
        " | (?x. P(x)) | ~(?[y_star]. P([y_star]))\n")}, 1,
     "violation: step 1 (GenGammaQuant): premise is not the conclusion with the"
     " quantifier instantiated\n"),
    # the quantified variable occurs in the context
    ("delta-side-condition", "check delta.drv", {"delta.drv": (
        "frees: x\n"
        "0 | SententialTautologyAxiom | premises=- | at=- | data={} | Q(x, x) | ~Q(x, x)\n"
        "1 | GenDeltaQuant | premises=0 | at=0 | data={} | (!x. Q(x, x)) | ~Q(x, x)\n")}, 1,
     "violation: step 1 (GenDeltaQuant): the quantified variable x must not occur in"
     " the context\n"),
    ("successor-arithmetic", "arith decide '!x. S(x) != 0'", {}, 0, "derivable\n"),
    ("successor-arithmetic", "arith decide '?x. S(x) = x'", {}, 0, "refutable\n"),
    ("successor-arithmetic", "arith decide '!x. (x = 0 | ?y. x = S(y))'", {}, 0,
     "derivable\n"),
    ("upper-bound-example-skolemized", "transform running.prob --pass skolem-outer",
     _RUNNING, 0, "(!a. !b. !c. prec(a, b) & prec(b, c) -> prec(a, c))"
     " & (!x. !y. prec(x, m_star(x, y)) & prec(y, m_star(x, y)))"
     " -> (?n. prec(u_star, n) & prec(v_star, n) & prec(w_star, n))\n"),
    ("upper-bound-example-complexity", "complexity running.prob -n 4 --max-instances 3",
     _RUNNING, 0, "complexity: 2\n"),
    ("upper-bound-example-derivation",
     "prove running.prob --method race --proof-out running.drv", _RUNNING, 0,
     "verdict: proof-found\nwitness-verified: true\nproof-out: running.drv\n"),
    ("upper-bound-example-derivation", "check running.drv", {}, 0, "ok\nsteps: 29\n"
     "proves: (!a. !b. !c. prec(a, b) & prec(b, c) -> prec(a, c))"
     " & (!x. !y. ?m. prec(x, m) & prec(y, m))"
     " -> (![u_star]. ![v_star]. ![w_star]. ?n."
     " prec([u_star], n) & prec([v_star], n) & prec([w_star], n))\n"),
    ("lexicon-substitutions", "expand valid.prob -n 2 --always-lexicon", _VALID, 0,
     "order: 2\nchamp: l y_star\ngamma-vars: x\ninstances: 2\n"
     "expansion: P(l) | P(y_star) | ~P(y_star)\n"),
    ("order-2-expansion", "expand valid.prob -n 2", _VALID, 0,
     "order: 2\nchamp: y_star\ngamma-vars: x\ninstances: 1\n"
     "expansion: P(y_star) | ~P(y_star)\n"),
    ("monotone-replacement-counterexample", "eval mono.struct mono.prob", {
        "mono.prob": "free: x\nformula: (T0 -> P(x)) -> ((!x. T0) -> (!x. P(x)))\n",
        "mono.struct": "domain: 0 1\npred T0: ()->T\npred P: (0)->F\npred P: (1)->T\n"
                       "var x: 1\n"}, 0, "false\n"),
    ("structure-evaluation", "eval one.struct small.prob", {
        **_SMALL, "one.struct": "domain: e0\nfn c: ()->e0\npred P: (e0)->T\n"}, 0,
     "true\n"),
)


def cmd_selftest(_args) -> int:
    failures = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv, files, code, stdout in SELFTEST:
                for path, text in files.items():
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                out = io.StringIO()
                # stderr holds the `time:` lines, which differ from run to run
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        got = main(shlex.split(argv))
                    except SystemExit as e:
                        got = e.code
                ok = (got, out.getvalue()) == (code, stdout)
                failures += not ok
                print(f"{'PASS' if ok else 'FAIL'} {name}")
        finally:
            os.chdir(cwd)
    if failures:
        print(f"{failures} failures")
        return EXIT_ERROR
    print("all checks passed")
    return EXIT_FOUND


# ---------------------------------------------------------------------------
# argument wiring


def _prove_arguments(prove):
    prove.add_argument("file")
    prove.add_argument("--method", choices=tuple(METHODS), default="dp")
    prove.add_argument("--max-order", "-n", "--order", type=int, default=3)
    prove.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    prove.add_argument("--proof-out", default=None)
    prove.add_argument("--trace", action="store_true")
    prove.add_argument("--always-lexicon", action="store_true")
    prove.add_argument("--dual", action="store_true",
                       help="print trace clauses as dual conjunctions")
    prove.add_argument("--json", action="store_true")
    prove.set_defaults(fn=cmd_prove)


def _transform_arguments(tr):
    tr.add_argument("file")
    tr.add_argument("--pass", dest="passname", required=True, choices=tuple(PASSES))
    tr.add_argument("--guard", default=None)
    tr.set_defaults(fn=cmd_transform)


def _expand_arguments(ex):
    ex.add_argument("file")
    ex.add_argument("-n", "--order", type=int, required=True)
    ex.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ex.add_argument("--always-lexicon", action="store_true")
    ex.set_defaults(fn=cmd_expand)


def _complexity_arguments(cx):
    cx.add_argument("file")
    cx.add_argument("-n", "--order", type=int, required=True)
    cx.add_argument("--max-instances", type=int, default=4)
    cx.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    cx.set_defaults(fn=cmd_complexity)


def _unify_arguments(un):
    un.add_argument("term1")
    un.add_argument("term2")
    un.add_argument("--frees", default="")
    un.set_defaults(fn=cmd_unify)


def _check_arguments(ck):
    ck.add_argument("file")
    ck.set_defaults(fn=cmd_check)


def _arith_arguments(ar):
    ar_sub = ar.add_subparsers(dest="arith_command", required=True)
    ar_decide = ar_sub.add_parser("decide")
    ar_decide.add_argument("sentence")
    ar_decide.set_defaults(fn=cmd_arith)


def _eval_arguments(ev):
    ev.add_argument("structure")
    ev.add_argument("problem")
    ev.set_defaults(fn=cmd_eval)


# (name, help, add-arguments) per subcommand, in `herbrand -h` order
COMMANDS = (
    ("prove", "run a semi-decision procedure", _prove_arguments),
    ("transform", "apply a formula transformation", _transform_arguments),
    ("expand", "dump the order-n expansion", _expand_arguments),
    ("complexity", "minimal tautological instance count", _complexity_arguments),
    ("unify", "most general unifier of two terms", _unify_arguments),
    ("check", "check a derivation file", _check_arguments),
    ("arith", "decide successor arithmetic", _arith_arguments),
    ("eval", "evaluate a formula in a structure file", _eval_arguments),
    ("selftest", "run the worked-example smoke suite",
     lambda st: st.set_defaults(fn=cmd_selftest)),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with arguments (`-h` included) for `command`
    only when it is given.  Every subcommand keeps its name and help, so
    usage, `herbrand -h` and invalid-choice errors read the same either
    way."""
    p = argparse.ArgumentParser(
        prog="herbrand",
        description="first-order proof workbench: expansion, Property C, "
        "semi-decision procedures, and a successor-arithmetic decider",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in COMMANDS:
        wanted = command in (None, name)
        parser = sub.add_parser(name, help=help_text, add_help=wanted)
        if wanted:
            add_arguments(parser)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # only the subcommand being run needs its arguments
    named = argv[0] if argv and argv[0] in {c[0] for c in COMMANDS} else None
    args = build_parser(named).parse_args(argv)
    try:
        return args.fn(args)
    except (SyntaxError_, ArityMismatchError, ProblemError,
            arith_mod.NotArithmeticError, arith_mod.FreeVariableError,
            expansion.UninterpretedSymbolError, transform.GuardError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:
        # anything else is a defect, never a gave-up verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
