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
import json
import os
import sys
import time

from . import arith as arith_mod
from . import engine, expansion, proofcalc, sat, transform
from .expansion import BudgetExceededError
from .syntax import (
    PREDICATE,
    SyntaxError_,
    ArityMismatchError,
    Subst,
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
    formula, frees, expect = read_problem(args.file)
    budget = args.budget
    n_max = args.max_order
    t0 = time.monotonic()

    if args.method == "race":
        result = _race(formula, n_max, budget, args.always_lexicon)
    else:
        result = _run_method(
            args.method, formula, n_max, budget, args.always_lexicon, args.trace
        )

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


def _run_method(method, formula, n_max, budget, always_lexicon, trace):
    if method == "gilmore":
        return engine.prove_gilmore(formula, n_max, budget, always_lexicon)
    if method == "dp":
        return engine.prove_dp(formula, n_max, budget, always_lexicon)
    if method == "resolution":
        return engine.prove_resolution(formula, budget, trace=trace)
    raise ValueError(f"unknown method {method!r}")


def _race(formula, n_max, budget, always_lexicon):
    """dp, then resolution with the same budget if dp gave up.  The
    multiplication method decides the same order-n clause sets as DPLL,
    so it could add no proof.  Returns the proof either found, else dp's
    gave-up result, whose analysis and last grounding the falsifying
    structure reuses.  Resolution starts from that analysis, so the
    formula is Skolemized once.  Only the verdict is reported."""
    result = engine.prove_dp(formula, n_max, budget, always_lexicon)
    if result.found:
        return result
    proof = engine.prove_resolution(formula, budget, analysis=result.analysis)
    return proof if proof.found else result


# ---------------------------------------------------------------------------
# transforms and expansions


def cmd_transform(args) -> int:
    formula, _frees, _ = read_problem(args.file)
    name = args.passname
    if name == "rectify":
        out = rectify(formula)
    elif name == "prenex":
        out = transform.to_prenex(rectify(formula))
    elif name == "antiprenex":
        out = transform.to_antiprenex(rectify(formula))
    elif name == "skolem-outer":
        out = transform.skolemize_outer(rectify(formula))
    elif name == "skolem-inner":
        out = transform.skolemize_inner(rectify(formula))
    elif name == "relativize":
        if not args.guard:
            print("usage error: relativize needs --guard PRED", file=sys.stderr)
            return EXIT_ERROR
        guard = Symbol(args.guard, 1, PREDICATE)
        out = transform.relativize(formula, guard)
    else:
        print(f"unknown pass {name!r}", file=sys.stderr)
        return EXIT_ERROR
    print(print_formula(out))
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


def _selftest_checks():
    from . import sat
    from .syntax import Subst, alpha_eq, apply, height, rectify

    def check_parse():
        f = parse("?y. !x. Q(x,y)")
        return print_formula(f) == "?y. !x. Q(x, y)"

    def check_height():
        return (
            height(parse_term("x", {"x"})) == 0
            and height(parse_term("y_star")) == 1
            and height(parse_term("m_star(u_star, m_star(v_star, w_star))")) == 3
        )

    def check_apply():
        f = parse("prec(x, m_star(x, y))", frees={"x", "y"})
        got = apply(
            Subst({"x": parse_term("v_star"), "y": parse_term("w_star")}), f
        )
        return got == parse("prec(v_star, m_star(v_star, w_star))")

    def check_classify():
        f = rectify(parse("?y. A1(y)"))
        g = rectify(parse("~(!y. A1(y))"))
        h = rectify(parse("!x. A1(x)"))
        return (
            transform.classify(f, ()) == "gamma"
            and transform.classify(g, (0,)) == "gamma"
            and transform.classify(h, ()) == "delta"
        )

    def check_passage():
        one = transform.passage(parse("~(!x. A1(x))"), (), 1, "prenex")
        five = transform.passage(parse("(?x. A1(x)) | B1"), (), 5, "prenex")
        return one == parse("?x. ~A1(x)") and five == parse("?x. (A1(x) | B1)")

    def check_skolem_outer():
        f = parse("(?x. P(x)) | ~(?y. P(y))")
        return transform.skolemize_outer(f) == parse("(?x. P(x)) | ~P(y_star)")

    def check_skolem_inner():
        f = parse("(?y1. !z1. Q(y1, z1)) | (?y2. !z2. Q(y2, z2))")
        want = parse("(?y1. Q(y1, z1_star(y1))) | (?y2. Q(y2, z2_star(y2)))")
        return transform.skolemize_inner(f) == want

    def check_relativize():
        guard = Symbol("G", 1, PREDICATE)
        return transform.relativize(parse("!x. Q(x)"), guard) == parse(
            "!x. (G(x) -> Q(x))"
        ) and transform.relativize(parse("?x. Q(x)"), guard) == parse(
            "?x. (G(x) & Q(x))"
        )

    def check_expansion_example():
        A = parse("!x. (x = 0 | ?y. x = S(y))")
        T = [parse_term("S(S(S(0)))"), parse_term("S(S(z))", {"z"})]
        got = expansion.expand(A, T)
        want = parse(
            "(S(S(S(0))) = 0 | S(S(S(0))) = S(S(S(S(0)))) | S(S(S(0))) = S(S(S(z))))"
            " & (S(S(z)) = 0 | S(S(z)) = S(S(S(S(0)))) | S(S(z)) = S(S(S(z))))",
            {"z"},
        )
        return sat.cnf(got) == sat.cnf(want)

    def check_champ_147():
        sig = [
            Symbol("u*", 0, "skolem-constant"),
            Symbol("v*", 0, "skolem-constant"),
            Symbol("w*", 0, "skolem-constant"),
            Symbol("m*", 2, "skolem-function"),
        ]
        return len(expansion.champ_fini(sig, (), 4)) == 147

    def check_property_c():
        f = parse("(?x. P(x)) | ~(?y. P(y))")
        ok1, _ = expansion.property_c(f, 2)
        ok2, _ = expansion.property_c(parse("P(a) | ~P(a)"), 1)
        ok3, _ = expansion.property_c(parse("P(a)"), 3)
        return ok1 and ok2 and not ok3

    def check_godel_dreben():
        return (
            expansion.godel_dreben_order(1, 0, 5) == 2
            and expansion.godel_dreben_order(2, 1, 3) == 32
            and expansion.godel_dreben_order(2, 2, 4) == 578
        )

    def check_unify():
        u = engine.unify(
            parse_term("Pf(x, f(a, y))", {"x", "y"}),
            parse_term("Pf(a, f(z, b))", {"z"}),
        )
        want = Subst(
            {
                "x": parse_term("a"),
                "z": parse_term("a"),
                "y": parse_term("b"),
            }
        )
        return u.ok and u.substitution == want

    def check_provers():
        f = parse("(?x. P(x)) | ~(?y. P(y))")
        g = engine.prove_gilmore(f, 3)
        d = engine.prove_dp(f, 3)
        r = engine.prove_resolution(f)
        verified, _ = expansion.check_instances(f, list(r.witness))
        return (
            g.found and d.found and g.order == d.order == 2 and r.found and verified
        )

    def check_gamma_step():
        t = parse_term("t0")
        base = parse("(prec(t0, t0)) | ~(prec(t0, t0))")
        conclusion = parse("(prec(t0, t0)) | (?x. ~(prec(x, t0)))")
        d = proofcalc.Derivation(
            (
                proofcalc.Step(base, proofcalc.T_AXIOM),
                proofcalc.Step(
                    conclusion, proofcalc.GEN_GAMMA, (0,), at=(1,), term=t
                ),
            )
        )
        return proofcalc.check(d) is None

    def check_delta_violation():
        # the quantified variable occurs in the context: must be rejected
        premise = parse("Q(x, x)", frees={"x"})
        conclusion = parse("!x. Q(x, x)")
        bad = proofcalc.Derivation(
            (
                proofcalc.Step(parse("Q(x, x) | ~Q(x, x)", frees={"x"}),
                               proofcalc.T_AXIOM),
                proofcalc.Step(
                    parse("(!x. Q(x, x)) | ~Q(x, x)", frees={"x"}),
                    proofcalc.GEN_DELTA,
                    (0,),
                    at=(0,),
                ),
            )
        )
        v = proofcalc.check(bad)
        return v is not None and "must not occur in the context" in v.message

    def check_arith():
        return (
            arith_mod.decide(parse("!x. S(x) != 0")) == "derivable"
            and arith_mod.decide(parse("?x. S(x) = x")) == "refutable"
            and arith_mod.decide(parse("!x. (x = 0 | ?y. x = S(y))")) == "derivable"
        )

    running = (
        "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
        " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
    )

    def running_witness():
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

    def check_running_skolemized():
        f = parse(running)
        want = parse(
            "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
            " & (!x,y. (prec(x,m_star(x,y)) & prec(y,m_star(x,y))))"
            " -> (?n. (prec(u_star,n) & prec(v_star,n) & prec(w_star,n)))"
        )
        return alpha_eq(transform.skolemize_outer(rectify(f)), want)

    def check_running_disjunction():
        d = expansion.herbrand_disjunction(parse(running), 4)
        return len(d.gamma_vars) == 6 and len(d.champ) == 147 and d.count > 10**13

    def check_running_witness():
        s1, s2 = running_witness()
        both, _ = expansion.check_instances(parse(running), [s1, s2])
        one, _ = expansion.check_instances(parse(running), [s1])
        return both and not one

    def check_running_complexity():
        return expansion.herbrand_complexity(parse(running), 4, 3) == 2

    def check_running_derivation():
        f = parse(running)
        s1, s2 = running_witness()
        d = proofcalc.mp_eliminate(f, expansion.PropertyCWitness(4, (s1, s2)))
        return (
            proofcalc.check(d) is None
            and proofcalc.count_rule(d, proofcalc.MP) == 0
        )

    def check_counterexample_substitutions():
        f = parse("(?x. P(x)) | ~(?y. P(y))")
        d = expansion.herbrand_disjunction(f, 2, always_lexicon=True)
        subs = list(d.substitutions())
        return (
            Subst({"x": parse_term("y_star")}) in subs
            and Subst({"x": parse_term("l", {"l"})}) in subs
        )

    def check_sentential_abstraction_is_strict():
        try:
            sat.is_tautology(parse("(?x. P(x)) | ~(?x. P(x))"))
        except sat.QuantifierPresentError:
            return True
        return False

    def check_dpll_core():
        unsat = sat.numbered([[("p", True)], [("p", False)]])
        return sat.dpll(unsat) == (False, None) and sat.dpll(sat.numbered([])) == (True, {})

    def check_resolvent_display():
        lits1 = frozenset(
            [(True, parse("K1(c)")), (True, parse("K2(c)")), (True, parse("L0(c)"))]
        )
        lits2 = frozenset([(False, parse("L0(c)")), (True, parse("M1(c)"))])
        r = engine.resolve(
            engine.Clause(lits1),
            engine.Clause(lits2),
            (True, parse("L0(c)")),
            (False, parse("L0(c)")),
        )
        want = frozenset(
            [(True, parse("K1(c)")), (True, parse("K2(c)")), (True, parse("M1(c)"))]
        )
        if r is None or r.literals != want:
            return False
        a1 = parse("Ps(x, f(a, y))", frees={"x", "y"})
        a2 = parse("Ps(a, f(z, b))", frees={"z"})
        c1 = engine.Clause(frozenset([(True, a1)]))
        c2 = engine.Clause(
            frozenset([(False, a2), (True, parse("S1(z)", frees={"z"}))])
        )
        r = engine.resolve(c1, c2, (True, a1), (False, a2))
        return r is not None and r.literals == frozenset([(True, parse("S1(a)"))])

    def check_arith_witness():
        from .arith import axiom

        s = expansion.arith_substructure_witness([axiom("nat_2")], 1)
        return s.domain == ("0", "1") and s.fn_tables[("S", 1)][("1",)] == "1"

    def check_monotone_counterexample():
        instance = parse(
            "(T0 -> P(x)) -> ((!x. T0) -> (!x. P(x)))", frees={"x"}
        )
        s = expansion.FiniteStructure(
            ("0", "1"),
            {},
            {("T0", 0): {(): True}, ("P", 1): {("0",): False, ("1",): True}},
            {"x": "1"},
        )
        return not expansion.eval_in_structure(s, instance)

    return [
        ("parse", check_parse),
        ("term-height", check_height),
        ("substitution-application", check_apply),
        ("quantifier-classes", check_classify),
        ("rules-of-passage", check_passage),
        ("skolemize-outer", check_skolem_outer),
        ("skolemize-inner", check_skolem_inner),
        ("relativize", check_relativize),
        ("finite-expansion", check_expansion_example),
        ("champ-cardinality", check_champ_147),
        ("property-c", check_property_c),
        ("order-bound", check_godel_dreben),
        ("unification", check_unify),
        ("procedures", check_provers),
        ("gamma-quantification-step", check_gamma_step),
        ("delta-side-condition", check_delta_violation),
        ("successor-arithmetic", check_arith),
        ("upper-bound-example-skolemized", check_running_skolemized),
        ("upper-bound-example-disjunction", check_running_disjunction),
        ("upper-bound-example-witness", check_running_witness),
        ("upper-bound-example-complexity", check_running_complexity),
        ("upper-bound-example-derivation", check_running_derivation),
        ("lexicon-substitutions", check_counterexample_substitutions),
        ("strict-sentential-reading", check_sentential_abstraction_is_strict),
        ("dpll-core", check_dpll_core),
        ("resolvent-shape", check_resolvent_display),
        ("arithmetic-substructure", check_arith_witness),
        ("monotone-replacement-counterexample", check_monotone_counterexample),
    ]


def cmd_selftest(_args) -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            ok = fn()
        except Exception as e:  # a crash is a failure with a reason
            ok = False
            print(f"FAIL {name}: {e}")
            failures += 1
            continue
        if ok:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}")
            failures += 1
    if failures:
        print(f"{failures} failures")
        return EXIT_ERROR
    print("all checks passed")
    return EXIT_FOUND


# ---------------------------------------------------------------------------
# argument wiring


def _prove_arguments(prove):
    prove.add_argument("file")
    prove.add_argument(
        "--method", choices=("gilmore", "dp", "resolution", "race"), default="dp"
    )
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
    tr.add_argument("--pass", dest="passname", required=True, choices=(
        "prenex", "antiprenex", "skolem-outer", "skolem-inner", "relativize", "rectify",
    ))
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
