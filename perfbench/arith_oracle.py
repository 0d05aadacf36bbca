"""Sentences of zero, successor and equality, and a truth oracle for them.

Sentences are kept in a small tuple form of the benchmark's own:

    ("eq", (k1, v1), (k2, v2))    S^k1(v1) = S^k2(v2), v None for 0
    ("not", f)
    ("and" | "or" | "imp" | "iff", f, g)
    ("all" | "ex", var, f)

The oracle evaluates in the naturals with every quantifier ranging over
a finite prefix that provably contains a witness when one exists (see
`_threshold`).  It shares no code with the program under test.
"""

from __future__ import annotations

import random
from functools import lru_cache

_BINARY = ("and", "or", "imp", "iff")
_OPS = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def _terms(size: int, vars_: tuple) -> list:
    if size < 1:
        return []
    return [(size - 1, None)] + [(size - 1, v) for v in vars_]


@lru_cache(maxsize=None)
def _sentences_of(size: int, vars_: tuple) -> tuple:
    out = []
    for left in range(1, size - 1):
        for t1 in _terms(left, vars_):
            for t2 in _terms(size - 1 - left, vars_):
                out.append(("eq", t1, t2))
    if size >= 2:
        out += [("not", b) for b in _sentences_of(size - 1, vars_)]
        fresh = f"v{len(vars_)}"
        for q in ("all", "ex"):
            out += [(q, fresh, b) for b in _sentences_of(size - 1, vars_ + (fresh,))]
    for left in range(1, size - 1):
        for op in _BINARY:
            out += [
                (op, a, b)
                for a in _sentences_of(left, vars_)
                for b in _sentences_of(size - 1 - left, vars_)
            ]
    return tuple(out)


def exhaustive(max_size: int) -> list:
    """Every closed sentence with at most max_size nodes.  A term
    S^k(x) counts k + 1 nodes; each connective, quantifier and `=` one.
    Variables are introduced only by quantifiers, so all are closed."""
    out = []
    for size in range(1, max_size + 1):
        out += _sentences_of(size, ())
    return out


def random_sentence(rng: random.Random, depth: int):
    def term(vars_):
        return (rng.randrange(0, 3), rng.choice([None] + vars_))

    def go(d, vars_):
        if d == 0 or (vars_ and rng.random() < 0.3):
            return ("eq", term(vars_), term(vars_))
        kind = rng.choice(["not", "and", "or", "imp", "iff", "all", "ex"])
        if kind == "not":
            return ("not", go(d - 1, vars_))
        if kind in _BINARY:
            return (kind, go(d - 1, vars_), go(d - 1, vars_))
        v = f"v{len(vars_)}"
        return (kind, v, go(d - 1, vars_ + [v]))

    return go(depth, [])


def render(f) -> str:
    """Fully parenthesized surface syntax accepted by `herbrand arith`."""
    tag = f[0]
    if tag == "eq":
        return f"{_render_term(f[1])} = {_render_term(f[2])}"
    if tag == "not":
        return f"~({render(f[1])})"
    if tag in _BINARY:
        return f"({render(f[1])} {_OPS[tag]} {render(f[2])})"
    return f"({'!' if tag == 'all' else '?'}{f[1]}. {render(f[2])})"


def _render_term(t) -> str:
    k, v = t
    return "S(" * k + (v or "0") + ")" * k


def _max_offset(f) -> int:
    if f[0] == "eq":
        return max(f[1][0], f[2][0])
    return max(_max_offset(g) for g in f[1:] if isinstance(g, tuple))


def _depth(f) -> int:
    if f[0] == "eq":
        return 0
    if f[0] in ("all", "ex"):
        return 1 + _depth(f[2])
    return max(_depth(g) for g in f[1:] if isinstance(g, tuple))


def _threshold(m: int, q: int) -> int:
    """Distance beyond which a variable's exact value no longer matters.

    Eliminating the q quantifiers inside a body leaves atoms that relate
    two outer values through a chain of at most q + 1 atoms, each with
    offset at most m, so the quantifier-free equivalent only compares
    differences up to m * (q + 1).  One unit of margin is added."""
    return m * (q + 1) + 1


def truth(f) -> bool:
    """Truth of the closed sentence f in the natural numbers.

    A quantified variable x with body depth q either lies within the
    threshold of 0 or of a value already bound, or is generic; every
    generic value behaves the same, and max(bound values) + D + 1 is
    one.  So 0..max + D + 1 covers every case."""
    m = _max_offset(f)

    def go(g, env: dict) -> bool:
        tag = g[0]
        if tag == "eq":
            (k1, v1), (k2, v2) = g[1], g[2]
            return k1 + (env[v1] if v1 else 0) == k2 + (env[v2] if v2 else 0)
        if tag == "not":
            return not go(g[1], env)
        if tag == "and":
            return go(g[1], env) and go(g[2], env)
        if tag == "or":
            return go(g[1], env) or go(g[2], env)
        if tag == "imp":
            return (not go(g[1], env)) or go(g[2], env)
        if tag == "iff":
            return go(g[1], env) == go(g[2], env)
        var, body = g[1], g[2]
        top = max(env.values(), default=0) + _threshold(m, _depth(body)) + 1
        values = (go(body, {**env, var: x}) for x in range(top + 1))
        return all(values) if tag == "all" else any(values)

    return go(f, {})
