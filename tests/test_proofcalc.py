import os
import random

import pytest

from herbrand.engine import prove_dp
from herbrand.expansion import (
    PropertyCWitness,
    check_instances,
    eval_in_structure,
    herbrand_complexity,
    herbrand_disjunction,
)
from herbrand.proofcalc import (
    DELTA,
    Derivation,
    GAMMA,
    GEN_DELTA,
    GEN_GAMMA,
    GEN_GAMMA_SIMP,
    GEN_SIMP,
    MONO,
    MP,
    PASSAGE,
    SIMP,
    Step,
    T_AXIOM,
    WitnessError,
    check,
    check_step,
    count_rule,
    dump_derivation,
    load_derivation,
    monotone_replace,
    mp_eliminate,
)
from herbrand.syntax import (
    Subst,
    alpha_eq,
    parse,
    parse_term,
    print_formula,
    rectify,
)

from util import dnf, keyed, random_formula, random_structure

HERE = os.path.dirname(__file__)

RUNNING_EXAMPLE = (
    "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
)


def two_instance_witness():
    A = parse(RUNNING_EXAMPLE)
    t1 = parse_term("m_star(v_star, w_star)")
    t2 = parse_term("m_star(u_star, m_star(v_star, w_star))")
    vs, ws, us = (
        parse_term("v_star"),
        parse_term("w_star"),
        parse_term("u_star"),
    )
    s1 = Subst({"a": vs, "b": t1, "c": t2, "x": vs, "y": ws, "n": t2})
    s2 = Subst({"a": ws, "b": t1, "c": t2, "x": us, "y": t1, "n": t2})
    return A, PropertyCWitness(4, (s1, s2))


# ---------------------------------------------------------------------------
# checker


def test_tautology_axiom_step():
    d = Derivation((Step(parse("P(a) | ~P(a)"), T_AXIOM),))
    assert check(d) is None
    bad = Derivation((Step(parse("P(a)"), T_AXIOM),))
    assert check(bad) is not None
    quantified = Derivation((Step(parse("(?x. P(x)) | ~(?x. P(x))"), T_AXIOM),))
    v = check(quantified)
    assert v is not None and "quantifier-free" in v.message


def test_modus_ponens_step():
    d = Derivation(
        (
            Step(parse("P(a)"), T_AXIOM),  # deliberately not a tautology
            Step(parse("P(a) -> (P(a) | Q(a))"), T_AXIOM),
            Step(parse("P(a) | Q(a)"), MP, (0, 1)),
        )
    )
    # step 0 fails, but step 2 in isolation is a correct modus ponens
    assert check_step(d, 2) is None
    assert check(d) is not None and check(d).index == 0


def test_gamma_quantification_display_example():
    base = parse("prec(t0, t0) | ~prec(t0, t0)")
    d = Derivation(
        (
            Step(base, T_AXIOM),
            Step(
                parse("prec(t0, t0) | (?x. ~prec(x, t0))"),
                GEN_GAMMA,
                (0,),
                at=(1,),
                term=parse_term("t0"),
            ),
        )
    )
    assert check(d) is None
    # the same reduction into the negated-universal form
    d2 = Derivation(
        (
            Step(base, T_AXIOM),
            Step(
                parse("prec(t0, t0) | ~(!x. prec(x, t0))"),
                GEN_GAMMA,
                (0,),
                at=(1, 0),
                term=parse_term("t0"),
            ),
        )
    )
    assert check(d2) is None


def test_gamma_respects_scope_condition():
    # the hole must not sit under a quantifier
    d = Derivation(
        (
            Step(parse("!y. (P(y) | ~P(y))"), T_AXIOM),
            Step(
                parse("!y. ((?x. P(x)) | ~P(y))"),
                GEN_GAMMA,
                (0,),
                at=(0, 0),
                term=parse_term("y", {"y"}),
            ),
        )
    )
    v = check_step(d, 1)
    assert v is not None and "scope of any quantifier" in v.message


def test_delta_side_condition():
    bad = Derivation(
        (
            Step(parse("Q2(x, x)", frees={"x"}), T_AXIOM),
            Step(parse("(!x. Q2(x, x))"), GEN_DELTA, (0,), at=()),
        )
    )
    # step 1 alone: the variable occurs only inside, fine; but make the
    # context mention x
    bad2 = Derivation(
        (
            Step(parse("Q2(x, x) | R1(x)", frees={"x"}), T_AXIOM),
            Step(
                parse("(!x. Q2(x, x)) | R1(x)", frees={"x"}),
                GEN_DELTA,
                (0,),
                at=(0,),
            ),
        )
    )
    v = check_step(bad2, 1)
    assert v is not None and "must not occur in the context" in v.message
    assert check_step(bad, 1) is None


def test_non_generalized_rules_need_root():
    d = Derivation(
        (
            Step(parse("P(a) | P(a)"), T_AXIOM),
            Step(parse("P(a)"), SIMP, (0,), at=()),
        )
    )
    assert check_step(d, 1) is None
    deep = Derivation(
        (
            Step(parse("Q(b) & (P(a) | P(a))"), T_AXIOM),
            Step(parse("Q(b) & P(a)"), SIMP, (0,), at=(1,)),
        )
    )
    v = check_step(deep, 1)
    assert v is not None and "empty context" in v.message
    gamma_root = Derivation(
        (
            Step(parse("P(a)"), T_AXIOM),
            Step(parse("?x. P(x)"), GAMMA, (0,), at=(), term=parse_term("a")),
        )
    )
    assert check_step(gamma_root, 1) is None
    delta_root = Derivation(
        (
            Step(parse("P(y)", frees={"y"}), T_AXIOM),
            Step(parse("!y. P(y)"), DELTA, (0,), at=()),
        )
    )
    assert check_step(delta_root, 1) is None


def test_simplification_polarity():
    neg = Derivation(
        (
            Step(parse("~(P(a) & P(a))"), T_AXIOM),
            Step(parse("~P(a)"), GEN_SIMP, (0,), at=(0,)),
        )
    )
    # conjunction under a negation is the negative-position case
    assert check_step(neg, 1) is None
    wrong = Derivation(
        (
            Step(parse("P(a) & P(a)"), T_AXIOM),
            Step(parse("P(a)"), SIMP, (0,), at=()),
        )
    )
    v = check_step(wrong, 1)
    assert v is not None


def test_passage_step():
    d = Derivation(
        (
            Step(parse("~(!x. P(x))"), T_AXIOM),
            Step(parse("?x. ~P(x)"), PASSAGE, (0,), at=(), passage_rule=1,
                 direction="prenex"),
        )
    )
    assert check_step(d, 1) is None
    bad = Derivation(
        (
            Step(parse("~(!x. P(x))"), T_AXIOM),
            Step(parse("!x. ~P(x)"), PASSAGE, (0,), at=(), passage_rule=1,
                 direction="prenex"),
        )
    )
    assert check_step(bad, 1) is not None
    # rules are numbered 1 to 6; another index is a violation, not a crash
    for rule in (0, 7):
        unknown = Derivation(
            (
                Step(parse("~(!x. P(x))"), T_AXIOM),
                Step(parse("?x. ~P(x)"), PASSAGE, (0,), at=(), passage_rule=rule,
                     direction="prenex"),
            )
        )
        assert "passage rule index" in check_step(unknown, 1).message


def test_forward_reference_rejected():
    d = Derivation(
        (
            Step(parse("P(a)"), MP, (0, 1)),
            Step(parse("P(a) -> P(a)"), T_AXIOM),
        )
    )
    v = check(d)
    assert v is not None and "backward" in v.message


TAUT = "P(a) | ~P(a)"


def _step(text, rule=T_AXIOM, premises=(), **data):
    """A step whose formula is `text`, read with x and y free."""
    return Step(parse(text, {"x", "y"}), rule, premises, **data)


TERM_A, TERM_B, TERM_Y = parse_term("a"), parse_term("b"), parse_term("y", {"y"})


@pytest.mark.parametrize("steps, violation", [
    pytest.param([], "step 0 (): empty derivation", id="empty"),
    pytest.param([_step(TAUT, MP, (1,)), _step(TAUT)],
                 "step 0 (ModusPonens): premise indices must point strictly backward",
                 id="forward-premise"),
    pytest.param([_step(TAUT), _step(TAUT, T_AXIOM, (-1,))],
                 "step 1 (SententialTautologyAxiom): premise indices must point strictly backward",
                 id="negative-premise"),
    pytest.param([_step(TAUT), _step(TAUT, T_AXIOM, (0,))],
                 "step 1 (SententialTautologyAxiom): the tautology axiom takes no premises",
                 id="axiom-premise"),
    pytest.param([_step("(?x. P(x)) | ~(?x. P(x))")],
                 "step 0 (SententialTautologyAxiom): the tautology axiom requires a "
                 "quantifier-free formula", id="axiom-quantified"),
    pytest.param([_step("P(a)")],
                 "step 0 (SententialTautologyAxiom): not a sentential tautology",
                 id="axiom-not-tautology"),
    pytest.param([_step(TAUT), _step("P(a)", MP, (0,))],
                 "step 1 (ModusPonens): modus ponens takes two premises: A and A -> B",
                 id="mp-one-premise"),
    pytest.param([_step(TAUT), _step(TAUT), _step("P(a)", MP, (0, 1))],
                 "step 2 (ModusPonens): the second premise must be an implication",
                 id="mp-no-implication"),
    pytest.param([_step(TAUT), _step("Q(a) | ~Q(a) -> P(a) | ~P(a)"), _step(TAUT, MP, (0, 1))],
                 "step 2 (ModusPonens): the implication's antecedent must match the first "
                 "premise", id="mp-antecedent"),
    pytest.param([_step(TAUT), _step("P(a) | ~P(a) -> Q(a) | ~Q(a)"), _step("P(a)", MP, (0, 1))],
                 "step 2 (ModusPonens): the conclusion must be the implication's consequent",
                 id="mp-consequent"),
    pytest.param([_step("?x. P(x)", GEN_GAMMA, (), at=(), term=TERM_A)],
                 "step 0 (GenGammaQuant): quantification rules take one premise",
                 id="quant-no-premise"),
    pytest.param([_step(TAUT), _step("(?x. P(x)) | ~P(a)", GEN_GAMMA, (0,), term=TERM_A)],
                 "step 1 (GenGammaQuant): missing position", id="quant-no-position"),
    pytest.param([_step(TAUT), _step("(?x. P(x)) | ~P(a)", GAMMA, (0,), at=(0,), term=TERM_A)],
                 "step 1 (GammaQuant): the non-generalized rule requires an empty context",
                 id="gamma-context"),
    pytest.param([_step(TAUT), _step("(?x. P(x)) | ~P(a)", GEN_GAMMA, (0,), at=(2,), term=TERM_A)],
                 "step 1 (GenGammaQuant): position (2,) does not exist in formula",
                 id="quant-no-such-position"),
    pytest.param([_step("P(a) <-> P(a)"),
                  _step("(?x. P(x)) <-> P(a)", GEN_GAMMA, (0,), at=(0,), term=TERM_A)],
                 "step 1 (GenGammaQuant): no polarity below a biconditional; expand it first",
                 id="quant-below-iff"),
    pytest.param([_step(TAUT), _step(TAUT, GEN_GAMMA, (0,), at=(0,), term=TERM_A)],
                 "step 1 (GenGammaQuant): the position must address a quantifier of the "
                 "conclusion", id="quant-not-a-quantifier"),
    pytest.param([_step("P(y) | ~P(y)"), _step("!y. P(y) | ~P(y)", DELTA, (0,), at=()),
                  _step("!y. (?x. P(x)) | ~P(y)", GEN_GAMMA, (1,), at=(0, 0), term=TERM_Y)],
                 "step 2 (GenGammaQuant): the context must not put the position in the scope "
                 "of any quantifier", id="quant-in-scope"),
    pytest.param([_step(TAUT), _step("(!x. P(x)) | ~P(a)", GEN_GAMMA, (0,), at=(0,), term=TERM_A)],
                 "step 1 (GenGammaQuant): the quantifier is not a gamma occurrence at this "
                 "polarity", id="gamma-not-gamma"),
    pytest.param([_step(TAUT), _step("(?x. P(x)) | ~P(a)", GEN_GAMMA, (0,), at=(0,))],
                 "step 1 (GenGammaQuant): missing substituted term", id="gamma-no-term"),
    pytest.param([_step(TAUT), _step("?x. !y. P(x, y)", GEN_GAMMA, (0,), at=(), term=TERM_Y)],
                 "step 1 (GenGammaQuant): free variables of the substituted term must not be "
                 "bound by quantifiers in the scope: ['y']", id="gamma-capture"),
    pytest.param([_step(TAUT), _step("(?x. P(x)) | ~P(a)", GEN_GAMMA, (0,), at=(0,), term=TERM_B)],
                 "step 1 (GenGammaQuant): premise is not the conclusion with the quantifier "
                 "instantiated", id="gamma-premise"),
    pytest.param([_step(TAUT), _step("(?x. P(x)) | ~P(a)", GEN_DELTA, (0,), at=(0,))],
                 "step 1 (GenDeltaQuant): the quantifier is not a delta occurrence at this "
                 "polarity", id="delta-not-delta"),
    pytest.param([_step("P(x) | ~P(x)"), _step("(!x. P(x)) | ~P(x)", GEN_DELTA, (0,), at=(0,))],
                 "step 1 (GenDeltaQuant): the quantified variable x must not occur in the "
                 "context", id="delta-eigenvariable"),
    pytest.param([_step(TAUT), _step("(!x. P(x)) | ~P(a)", GEN_DELTA, (0,), at=(0,))],
                 "step 1 (GenDeltaQuant): premise is not the conclusion with the quantifier "
                 "dropped", id="delta-premise"),
    pytest.param([_step("P(a)", SIMP)],
                 "step 0 (Simplification): simplification takes one premise",
                 id="simp-no-premise"),
    pytest.param([_step("(P(a) | P(a)) | ~P(a)"), _step(TAUT, SIMP, (0,), at=(0,))],
                 "step 1 (Simplification): the non-generalized rule requires an empty context",
                 id="simp-context"),
    pytest.param([_step(TAUT), _step(TAUT, GEN_SIMP, (0,), at=(2,))],
                 "step 1 (GenSimplification): position (2,) does not exist in formula",
                 id="simp-no-such-position"),
    pytest.param([_step("~(P(a) & ~P(a))"), _step("P(a)", SIMP, (0,))],
                 "step 1 (Simplification): simplification needs a disjunction at a positive "
                 "position or a conjunction at a negative one", id="simp-polarity"),
    pytest.param([_step(TAUT), _step("P(a)", SIMP, (0,))],
                 "step 1 (Simplification): the two merged occurrences must be equal up to "
                 "bound renaming", id="simp-unequal"),
    pytest.param([_step("(P(a) | P(a)) | ~P(a)"), _step("P(a) | ~P(b)", GEN_SIMP, (0,), at=(0,))],
                 "step 1 (GenSimplification): the context must be unchanged",
                 id="simp-context-changed"),
    pytest.param([_step("(P(a) | P(a)) | ~P(a)"), _step(TAUT, GEN_GAMMA_SIMP, (0,), at=(0,))],
                 "step 1 (GenGammaSimplification): gamma-simplification merges a "
                 "gamma-quantified formula", id="gamma-simp-not-gamma"),
    pytest.param([_step("?x. ~P(x)", PASSAGE, passage_rule=1, direction="prenex")],
                 "step 0 (Passage): passage takes one premise", id="passage-no-premise"),
    pytest.param([_step(TAUT), _step(TAUT, PASSAGE, (0,), passage_rule=1)],
                 "step 1 (Passage): missing passage rule index (1 to 6) or direction",
                 id="passage-no-direction"),
    pytest.param([_step(TAUT),
                  _step(TAUT, PASSAGE, (0,), at=(2,), passage_rule=1, direction="prenex")],
                 "step 1 (Passage): position (2,) does not exist in formula",
                 id="passage-no-such-position"),
    pytest.param([_step(TAUT), _step(TAUT, PASSAGE, (0,), passage_rule=1, direction="prenex")],
                 "step 1 (Passage): the addressed subformula does not match the equivalence",
                 id="passage-no-match"),
    pytest.param([_step(TAUT), _step("(?x. P(x)) | ~P(a)", GEN_GAMMA, (0,), at=(0,), term=TERM_A),
                  _step("?x. P(x) | ~P(b)", PASSAGE, (1,), passage_rule=5, direction="prenex")],
                 "step 2 (Passage): conclusion is not the premise rewritten by the equivalence",
                 id="passage-wrong-rewrite"),
    pytest.param([_step("P(a) -> P(a)", MONO)],
                 "step 0 (MonotoneReplace): monotone replacement takes one premise",
                 id="mono-no-premise"),
    pytest.param([_step(TAUT), _step("P(a) -> P(a)", MONO, (0,))],
                 "step 1 (MonotoneReplace): the premise must be an implication B -> C",
                 id="mono-premise-not-implication"),
    pytest.param([_step("P(a) -> P(a)"), _step(TAUT, MONO, (0,))],
                 "step 1 (MonotoneReplace): the conclusion must be an implication",
                 id="mono-conclusion-not-implication"),
    pytest.param([_step("P(a) -> P(a)"), _step("(P(a) <-> Q(a)) -> P(a)", MONO, (0,), at=(0,))],
                 "step 1 (MonotoneReplace): no polarity below a biconditional; expand it first",
                 id="mono-below-iff"),
    pytest.param([_step("P(a) -> P(a)"), _step("~P(a) -> ~P(a)", MONO, (0,), at=(0,))],
                 "step 1 (MonotoneReplace): replacement is only monotone at positive positions; "
                 "a negative position is rejected", id="mono-negative"),
    pytest.param([_step("P(a) -> P(a)"), _step("Q(a) | R(a) -> P(a) | R(a)", MONO, (0,), at=(0,))],
                 "step 1 (MonotoneReplace): the left side must carry B at the position",
                 id="mono-left"),
    pytest.param([_step("P(a) -> P(a)"), _step("P(a) | R(a) -> Q(a) | R(a)", MONO, (0,), at=(0,))],
                 "step 1 (MonotoneReplace): the right side must be the left with C at the "
                 "position", id="mono-right"),
    pytest.param([_step(TAUT, "Bogus")], "step 0 (Bogus): unknown rule 'Bogus'",
                 id="unknown-rule"),
])
def test_check_names_the_first_violation(steps, violation):
    # each derivation breaks one condition of the checker, at one step
    # after valid ones
    assert str(check(Derivation(tuple(steps)))) == violation


# ---------------------------------------------------------------------------
# monotone replacement


def test_monotone_replace_positive():
    premise = Derivation((Step(parse("(P(a) & Q(a)) -> P(a)"), T_AXIOM),))
    out = monotone_replace(premise, parse("R(b) | S(b)"), (0,))
    assert check(out) is None
    assert print_formula(out.final) == "P(a) & Q(a) | S(b) -> P(a) | S(b)"


def test_monotone_replace_negative_rejected():
    premise = Derivation((Step(parse("(P(a) & Q(a)) -> P(a)"), T_AXIOM),))
    with pytest.raises(ValueError, match="negative position"):
        monotone_replace(premise, parse("~R(b)"), (0,))


def test_monotone_formula_level_claim_is_invalid():
    # the formula (B -> C) -> (A[B] -> A[C]) with A = !x.[], B true-like,
    # C = P(x) is falsified in a two-element structure
    instance = parse(
        "(T0 -> P(x)) -> ((!x. T0) -> (!x. P(x)))", frees={"x"}
    )
    from herbrand.expansion import FiniteStructure

    s = FiniteStructure(
        ("0", "1"),
        {},
        {("T0", 0): {(): True}, ("P", 1): {("0",): False, ("1",): True}},
        {"x": "1"},
    )
    assert not eval_in_structure(s, instance)


# ---------------------------------------------------------------------------
# modus ponens elimination


def test_mp_eliminate_trivial():
    f = parse("P(a) | ~P(a)")
    w = PropertyCWitness(1, (Subst(),))
    d = mp_eliminate(herbrand_disjunction(f, 1), w.substitutions)
    assert len(d.steps) == 1 and d.steps[0].rule == T_AXIOM
    assert alpha_eq(d.final, f)


def test_mp_eliminate_small():
    f = parse("(?x. P(x)) | ~(?y. P(y))")
    w = PropertyCWitness(
        2,
        (Subst({"x": parse_term("y_star")}),),
    )
    d = mp_eliminate(herbrand_disjunction(f, 1), w.substitutions)
    assert check(d) is None
    assert len(d.steps) == 3
    assert [s.rule for s in d.steps] == [T_AXIOM, GEN_GAMMA, GEN_DELTA]
    assert print_formula(d.steps[0].formula) == "P([y_star]) | ~P([y_star])"
    assert alpha_eq(d.final, f)


def test_mp_eliminate_rejects_bad_witness():
    f = parse("(?x. P(x)) | ~(?y. P(y))")
    w = PropertyCWitness(
        2, (Subst({"x": parse_term("l", {"l"})}),),
    )
    with pytest.raises(WitnessError):
        mp_eliminate(herbrand_disjunction(f, 1), w.substitutions)


def test_mp_eliminate_running_example():
    A, w = two_instance_witness()
    d = mp_eliminate(herbrand_disjunction(A, 1), w.substitutions)
    assert check(d) is None
    assert count_rule(d, MP) == 0
    assert alpha_eq(d.final, rectify(A))
    # phase shape: one tautology, quantifications, then simplifications
    rules = [s.rule for s in d.steps]
    assert rules[0] == T_AXIOM
    quant_part = rules[1:-2]
    assert set(quant_part) == {GEN_GAMMA, GEN_DELTA}
    assert rules[-2:] == [GEN_GAMMA_SIMP, GEN_GAMMA_SIMP]
    # the multiplicity-raised milestone: both lines duplicated (copies
    # join at the duplicated quantifier's own position)
    milestone = parse(
        "((!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        "  & (!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c))))"
        " & ((!x,y. ?m. (prec(x,m) & prec(y,m)))"
        "    & (!x,y. ?m. (prec(x,m) & prec(y,m))))"
        " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
    )
    assert any(alpha_eq(s.formula, rectify(milestone)) for s in d.steps)
    # the boxed milestone with both inner quantifier blocks present
    boxed = parse(
        "((!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
        "  & (!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c))))"
        " & ((!x,y. ?[m_star(v_star, w_star)]."
        "   (prec(x,[m_star(v_star, w_star)]) & prec(y,[m_star(v_star, w_star)])))"
        " & (!x,y. ?[m_star(u_star, m_star(v_star, w_star))]."
        "   (prec(x,[m_star(u_star, m_star(v_star, w_star))])"
        "    & prec(y,[m_star(u_star, m_star(v_star, w_star))]))))"
        " -> (?n. (prec([u_star],n) & prec([v_star],n) & prec([w_star],n)))"
    )
    assert any(alpha_eq(s.formula, rectify(boxed)) for s in d.steps)


def test_mp_eliminate_starting_tautology_is_instance_dnf_reordering():
    # every conjunct of the starting formula's DNF matches a conjunct of
    # some recorded instance's DNF, after reading Skolem-headed terms as
    # atoms; the full disjunction is never materialized
    from herbrand.proofcalc import _box_term
    from herbrand.syntax import Atom, children, with_children

    def box_formula(g):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(_box_term(t) for t in g.args))
        return with_children(g, tuple(box_formula(k) for k in children(g)))

    A, w = two_instance_witness()
    d = mp_eliminate(herbrand_disjunction(A, 1), w.substitutions)
    t0 = d.steps[0].formula
    instance_dnfs = [
        set(keyed(dnf(box_formula(herbrand_disjunction(A, 4).instance(s)))))
        for s in w.substitutions
    ]
    for conjunct in keyed(dnf(t0)):
        assert any(conjunct in clauses for clauses in instance_dnfs)


def read_data(name: str) -> str:
    with open(os.path.join(HERE, "data", name), "r", encoding="utf-8") as handle:
        return handle.read()


def test_golden_derivation_file():
    text = read_data("running_example.drv")
    d, _ = load_derivation(text)
    assert check(d) is None
    assert count_rule(d, MP) == 0
    A, w = two_instance_witness()
    assert alpha_eq(d.final, rectify(A))
    # rebuilding from the witness reproduces the file byte for byte
    assert dump_derivation(mp_eliminate(herbrand_disjunction(A, 1), w.substitutions)) == text


def test_serialization_round_trip():
    A, w = two_instance_witness()
    d = mp_eliminate(herbrand_disjunction(A, 1), w.substitutions)
    text = dump_derivation(d)
    d2, _ = load_derivation(text)
    assert check(d2) is None
    assert len(d2.steps) == len(d.steps)
    assert dump_derivation(d2) == text


def test_derivation_soundness_spot_check():
    # derivations accepted by check prove formulas that hold in random
    # finite structures
    rng = random.Random(2025)
    base = [
        "(?x. {p}(x)) | ~(?y. {p}(y))",
        "(!x. {p}(x)) -> {p}(c0)",
        "(!x. ({p}(x) -> {q}(x))) & {p}(c0) -> {q}(c0)",
        "?x. ({p}(x) -> (!y. {p}(y)))",
        "{p}(c0) -> (?x. {p}(x))",
    ]
    corpus = [
        parse(tpl.format(p=f"P{i}", q=f"Q{i}"))
        for tpl in base
        for i in range(10)
    ]
    assert len(corpus) == 50
    structures_checked = 0
    for f in corpus:
        result = prove_dp(herbrand_disjunction(f, 1), 3)
        assert result.found
        from herbrand.engine import minimize_witness

        witness = minimize_witness(herbrand_disjunction(f, 1), list(result.witness))
        pcw = PropertyCWitness(
            result.order, tuple(witness)
        )
        d = mp_eliminate(herbrand_disjunction(f, 1), pcw.substitutions)
        assert check(d) is None
        for _ in range(4):
            s = random_structure(rng, d.final, rng.randrange(1, 4))
            assert eval_in_structure(s, d.final)
            structures_checked += 1
    assert structures_checked == 200


def test_mp_eliminate_three_fold_multiplicity():
    # the disjunction needs all three instances, so one gamma quantifier
    # is duplicated twice and merged back by two simplifications
    f = parse("?x. (~A(x) | (A(c1) & A(c2) & A(c3)))")
    assert herbrand_complexity(f, 2, 4) == 3
    subs = tuple(
        Subst({"x": parse_term(c)}) for c in ("c1", "c2", "c3")
    )
    w = PropertyCWitness(2, subs)
    d = mp_eliminate(herbrand_disjunction(f, 1), w.substitutions)
    assert check(d) is None
    assert count_rule(d, GEN_GAMMA_SIMP) == 2
    assert alpha_eq(d.final, rectify(f))
    assert dump_derivation(d) == read_data("three_fold_multiplicity.drv")


def test_mp_eliminate_merges_below_a_quantifier():
    # gamma multiplicity nested under a delta quantifier forces the
    # final simplifications to act below an introduced binder
    f = parse("!z. ?x. (~A(x, z) | (A(c1, z) & A(c2, z)))")
    verdict, witness = check_instances(
        f,
        [
            Subst({"x": parse_term("c1")}),
            Subst({"x": parse_term("c2")}),
        ],
    )
    assert verdict
    w = PropertyCWitness(
        2,
        (Subst({"x": parse_term("c1")}), Subst({"x": parse_term("c2")})),
    )
    d = mp_eliminate(herbrand_disjunction(f, 1), w.substitutions)
    assert check(d) is None
    simp = next(s for s in d.steps if s.rule == GEN_GAMMA_SIMP)
    assert simp.at != ()  # the merge happens inside the delta binder
    assert alpha_eq(d.final, rectify(f))
    assert dump_derivation(d) == read_data("merge_below_quantifier.drv")


def test_mp_eliminate_random_valid_corpus():
    # random valid formulas round-trip: prover witness in, checked
    # modus-ponens-free derivation of (an alpha-variant of) the goal out
    rng = random.Random(31415)
    built = 0
    attempts = 0
    while built < 40 and attempts < 1500:
        attempts += 1
        f = rectify(random_formula(rng, rng.randrange(1, 4), []))
        result = prove_dp(herbrand_disjunction(f, 1), 2, budget=10**4)
        if not result.found:
            continue
        from herbrand.engine import minimize_witness

        witness = minimize_witness(herbrand_disjunction(f, 1), list(result.witness))
        pcw = PropertyCWitness(
            result.order, tuple(witness)
        )
        d = mp_eliminate(herbrand_disjunction(f, 1), pcw.substitutions)
        assert check(d) is None
        assert count_rule(d, MP) == 0
        assert alpha_eq(d.final, f)
        built += 1
    assert built == 40


def test_mp_eliminate_skolemizes_once(monkeypatch):
    # the input check grounds the witness over the Skolemized form the
    # delta table comes from
    from herbrand import transform

    calls = []
    skolemize = transform._skolemize

    def counted(g, inner, table=None):
        calls.append(g)
        return skolemize(g, inner, table)

    A, w = two_instance_witness()
    monkeypatch.setattr(transform, "_skolemize", counted)
    assert check(mp_eliminate(herbrand_disjunction(A, 1), w.substitutions)) is None
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text", ["(!x. ?y. R(x, y)) <-> (!x. ?y. R(x, y))", "(?x. P(x)) <-> (?x. P(x))"]
)
def test_mp_eliminate_names_biconditional_binders_as_the_prover(text):
    # binders that clash inside a biconditional: the prover's witness
    # names the gamma-variables of rectify(expand_iff(rectify(f)))
    from herbrand.engine import minimize_witness
    from herbrand.syntax import expand_iff

    f = parse(text)
    analysis = herbrand_disjunction(f, 1)
    result = prove_dp(analysis, 3)
    d = mp_eliminate(analysis, minimize_witness(analysis, list(result.witness)))
    assert check(d) is None
    assert alpha_eq(d.final, expand_iff(f))


def test_mp_eliminate_symbols_stay_within_goal():
    A, w = two_instance_witness()
    d = mp_eliminate(herbrand_disjunction(A, 1), w.substitutions)
    from herbrand.syntax import formula_symbols

    goal_symbols = {
        (s.name, s.arity) for s in formula_symbols(herbrand_disjunction(A, 1).skolemized)
    } | {(s.name, s.arity) for s in formula_symbols(rectify(A))}
    for step in d.steps:
        for sym in formula_symbols(step.formula):
            assert (sym.name, sym.arity) in goal_symbols
