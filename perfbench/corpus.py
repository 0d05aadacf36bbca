"""Problem corpora and the answers the benchmark expects for them.

Every prove input carries a valid/invalid annotation that holds by
construction, argued in the comments, never by running the program.
Complexity expectations are hand-derived Herbrand complexities.
"""

from __future__ import annotations

import random

# The paper's running example (upper bounds in a directed order) and its
# two-goal variant.  Both are valid: transitivity plus pairwise upper
# bounds give a common upper bound of any two or three elements.  Their
# spelling is fixed because their cost is what the benchmark tracks.
RUNNING = (
    "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v,w. ?n. (prec(u,n) & prec(v,n) & prec(w,n)))"
)
VARIANT = (
    "(!a,b,c. (prec(a,b) & prec(b,c) -> prec(a,c)))"
    " & (!x,y. ?m. (prec(x,m) & prec(y,m)))"
    " -> (!u,v. ?n. (prec(u,n) & prec(v,n)))"
)
# Invalid: the structure where P holds everywhere falsifies ~P(z,z).
SCALING = "?x,y,z. (P(f(x),g(y)) & ~P(z,z))"

# Herbrand complexity of the running example at order 4 (the paper's
# two-instance witness; no single instance is a tautology).
RUNNING_COMPLEXITY = 2

# Valid templates with their Herbrand complexity.  {P}, {Q} are predicate
# and {c} constant slots filled by the seed's renaming.
VALID = [
    ("{P}({c}) | ~{P}({c})", 1),
    ("(?x. {P}(x)) | ~(?y. {P}(y))", 1),
    ("(!x. {P}(x)) -> {P}({c})", 1),
    # the drinker: P(t) -> P(y*(t)) needs t and y*(t) both instantiated
    ("?x. ({P}(x) -> (!y. {P}(y)))", 2),
    ("(!x. ({P}(x) -> {Q}(x))) & {P}({c}) -> {Q}({c})", 1),
    ("{P}({c}) -> (?x. {P}(x))", 1),
    ("(!x. {P}(x)) | ~(!y. {P}(y))", 1),
    ("((?x. {P}(x)) & (!y. {Q}(y))) | ~(?x. {P}(x)) | ~(!y. {Q}(y))", 1),
    ("(!x. ({P}(x) & {Q}(x))) -> (!y. {P}(y))", 1),
    ("(?x. ({P}(x) | {Q}(x))) | ~(?y. {P}(y))", 1),
]

# Invalid templates: each has a one- or two-element countermodel, so a
# "proof-found" answer on any of them is unsound.
INVALID = [
    "?x. {P}(x)",                                  # P empty
    "{P}({c})",                                    # P empty
    "!x. {P}(x)",                                  # P empty
    "{P}({c}) -> {Q}({c})",                        # P full, Q empty
    "(?x. {P}(x)) -> (!y. {P}(y))",                # P = {e0} of {e0, e1}
    "(!x. ({P}(x) | {Q}(x))) -> (!y. {P}(y))",     # P empty, Q full
    "?x. ({P}(x) & ~{P}(x))",                      # contradiction
    "(?x. {P}(x)) & (?y. ~{P}(y))",                # P empty
    "~({P}({c}) | ~{P}({c})) | {R}({c})",          # R empty
    "{P}({c}) <-> ~{P}({c})",                      # contradiction
]

_LETTERS = "bdhjkmnqrtvwz"


class Renamer:
    """Draws fresh predicate and constant names from the seed.

    Names avoid the reserved spellings of the front end: the lexicon
    variable `l`, the arithmetic symbols, `_star` Skolem names and the
    bound variables of the templates.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _fresh(self, head: str) -> str:
        while True:
            name = head + "".join(self.rng.choice(_LETTERS) for _ in range(4))
            if name not in self.used:
                self.used.add(name)
                return name

    def fill(self, template: str) -> str:
        return template.format(
            P=self._fresh("P"), Q=self._fresh("Q"), R=self._fresh("R"),
            c=self._fresh("c"),
        )
