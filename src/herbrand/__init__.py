"""First-order logic workbench built around finite term domains.

Skolemized forms, champs finis and expansions, Property C and Herbrand
complexity, checkable modus-ponens-free derivations, the classic
semi-decision procedures (expansion with the multiplication method or
DPLL, and resolution with unification), and a decision procedure for
the first-order theory of zero, successor and equality.
"""

from .syntax import (
    App,
    Atom,
    And,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Subst,
    Symbol,
    Term,
    Var,
    alpha_eq,
    apply,
    compose,
    free_vars,
    height,
    parse,
    parse_term,
    polarity_at,
    print_formula,
    print_term,
    rectify,
    subformula_at,
)
from .transform import (
    classify,
    passage,
    relativize,
    skolemize_inner,
    skolemize_outer,
    to_antiprenex,
    to_prenex,
)
from .expansion import (
    ChampFini,
    FiniteStructure,
    PropertyCWitness,
    arith_substructure_witness,
    champ_fini,
    check_instances,
    eval_in_structure,
    expand,
    falsifying_structure,
    godel_dreben_order,
    herbrand_complexity,
    herbrand_disjunction,
    property_b,
    property_c,
)
from .sat import ClauseSet, dpll, is_tautology
from .engine import (
    Clause,
    Unifier,
    factor,
    prove_dp,
    prove_gilmore,
    prove_resolution,
    resolve,
    unify,
)
from .proofcalc import (
    Derivation,
    Step,
    check,
    check_step,
    monotone_replace,
    mp_eliminate,
)
from .arith import decide, eliminate_quantifiers, qf_normal_form

__all__ = [name for name in dir() if not name.startswith("_")]
