"""Terms, formulas, substitutions, positions, parsing and printing.

The shared vocabulary of every other module.  Everything here is an
immutable value: terms and formulas are frozen dataclasses, substitutions
never mutate their bindings, so values can be shared freely between
concurrent tasks.

ASCII grammar (UTF-8 text)::

    formula  := unary (binary unary)*     grouped as `_BINARY` says
    binary   := '<->' | '->' | '|' | '&'
    unary    := '~' unary | '!' vars '.' formula | '?' vars '.' formula
              | primary
    primary  := '(' formula ')' | term '=' term | term '!=' term | atom
    term     := ident ['(' term (',' term)* ')'] | '0'
    vars     := ident (',' ident)*        sugar for nested quantifiers
    ident    := [A-Za-z][A-Za-z0-9_]*

Precedence: ~  binds tighter than &, then |, then ->, then <->; | and &
group to the left, -> and <-> to the right; a quantifier body extends
maximally to the right.  `t != u` is sugar for `~(t = u)` and `0` is a
nullary function symbol.  The parser and the printer read precedence and
grouping from the one table `_BINARY`.

Identifier conventions (beyond the grammar):

* names bound by an enclosing quantifier are variables;
* names passed in the caller's ``frees`` set are free variables;
* the reserved lexicon name ``l`` is always a variable and may not be
  declared or bound by user input;
* every other bare identifier is a constant, and an applied identifier
  is a function or predicate symbol with arity fixed by usage;
* names of the shape ``<base>_star<k>`` are reserved for Skolem symbols
  and parse back as such (internally they are spelled ``<base>*<k>``).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

LEXICON = "l"

PLAIN_FUNCTION = "plain-function"
SKOLEM_FUNCTION = "skolem-function"
SKOLEM_CONSTANT = "skolem-constant"
PREDICATE = "predicate"

_KINDS = (PLAIN_FUNCTION, SKOLEM_FUNCTION, SKOLEM_CONSTANT, PREDICATE)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SKOLEM_PRINT_RE = re.compile(r"\A(?P<base>[A-Za-z][A-Za-z0-9_]*?)_star(?P<counter>[0-9]*)\Z")


class SyntaxError_(Exception):
    """Parse failure with 1-based line/column information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class ArityMismatchError(Exception):
    """A symbol is used with two different arities (or kinds)."""


class CaptureError(Exception):
    """Substitution would move a free variable under a binder of that name."""


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int
    kind: str = PLAIN_FUNCTION

    def __post_init__(self):
        if not self.name:
            raise ValueError("symbol name must be nonempty")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == SKOLEM_CONSTANT and self.arity != 0:
            raise ValueError("a Skolem constant must be nullary")
        if self.arity < 0:
            raise ValueError("arity must be a natural number")

    @property
    def is_skolem(self) -> bool:
        return self.kind in (SKOLEM_FUNCTION, SKOLEM_CONSTANT)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    sym: Symbol
    args: tuple["Term", ...] = ()

    def __post_init__(self):
        if self.sym.kind == PREDICATE:
            raise ValueError("predicate symbol used as a function")
        if len(self.args) != self.sym.arity:
            raise ArityMismatchError(
                f"{self.sym.name} expects {self.sym.arity} arguments, got {len(self.args)}"
            )


Term = Var | App


@dataclass(frozen=True)
class Atom:
    pred: Symbol
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if self.pred.kind != PREDICATE:
            raise ValueError("atom head must be a predicate symbol")
        if len(self.args) != self.pred.arity:
            raise ArityMismatchError(
                f"{self.pred.name} expects {self.pred.arity} arguments, got {len(self.args)}"
            )


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Atom | Not | Or | And | Implies | Iff | Forall | Exists

BINARY = (Or, And, Implies, Iff)
QUANT = (Forall, Exists)

# each binary connective's spelling -> (connective, precedence, groups to
# the right); `~` binds tighter than all of them
_BINARY = {"<->": (Iff, 1, True), "->": (Implies, 2, True), "|": (Or, 3, False), "&": (And, 4, False)}
_SPELLING = {ctor: (op, prec, right) for op, (ctor, prec, right) in _BINARY.items()}
_UNARY = 5  # the precedence of `~`

# the classes of Smullyan's uniform notation (First-Order Logic, 1968)
ALPHA, BETA, GAMMA, DELTA = "alpha", "beta", "gamma", "delta"

Position = tuple[int, ...]


# ---------------------------------------------------------------------------
# substitutions


class Subst:
    """A finite map from variable names to terms, applied simultaneously.

    Instances are immutable; `compose` and friends return fresh maps.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Optional[Mapping[str, Term]] = None):
        # identity pairs carry no information
        self._map = {
            v: t for v, t in (bindings or {}).items()
            if not (type(t) is Var and t.name == v)
        }

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subst) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __contains__(self, var: str) -> bool:
        return var in self._map

    def __repr__(self):
        inside = ", ".join(f"{v} -> {print_term(t)}" for v, t in sorted(self._map.items()))
        return "{" + inside + "}"

    def get(self, var: str) -> Optional[Term]:
        return self._map.get(var)

    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def items(self):
        return self._map.items()

    def bind(self, var: str, term: Term) -> "Subst":
        m = dict(self._map)
        m[var] = term
        return Subst(m)


def compose(s1: Subst, s2: Subst) -> Subst:
    """apply(compose(s1, s2), x) == apply(s2, apply(s1, x))."""
    m = {v: apply_term(s2, t) for v, t in s1.items()}
    for v, t in s2.items():
        if v not in m:
            m[v] = t
    return Subst(m)


# ---------------------------------------------------------------------------
# basic term traversals


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def term_symbols(t: Term) -> set[Symbol]:
    if isinstance(t, Var):
        return set()
    out = {t.sym}
    for a in t.args:
        out |= term_symbols(a)
    return out


def height(t: Term) -> int:
    """Height of a term: 0 for variables, 1 + max child height otherwise,
    found with an explicit stack, so a term of any height is measured.

    Nullary applications (constants, Skolem constants) have height 1.
    """
    out = 0
    stack = [(t, 1)]  # subterms still to measure, each with its depth
    while stack:
        t, depth = stack.pop()
        if isinstance(t, App):
            if depth > out:
                out = depth
            stack += [(a, depth + 1) for a in t.args]
    return out


def apply_term(s: Subst, t: Term) -> Term:
    """`t` under `s`.  A subterm in which no variable is bound comes back
    as the same object, so unchanged subterms are shared, not rebuilt."""
    if isinstance(t, Var):
        return s._map.get(t.name, t)
    if not t.args:
        return t
    args = tuple([apply_term(s, a) for a in t.args])
    if all(map(operator.is_, args, t.args)):
        return t
    return App(t.sym, args)


# ---------------------------------------------------------------------------
# formula traversals


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, QUANT):
        return (f.body,)
    return (f.left, f.right)


def with_children(f: Formula, kids: tuple[Formula, ...]) -> Formula:
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(kids[0])
    if isinstance(f, Forall):
        return Forall(f.var, kids[0])
    if isinstance(f, Exists):
        return Exists(f.var, kids[0])
    return type(f)(kids[0], kids[1])


def subformulas(f: Formula) -> Iterator[tuple[Position, Formula]]:
    """Preorder traversal yielding (position, subformula) pairs."""
    stack: list[tuple[Position, Formula]] = [((), f)]
    while stack:
        pos, g = stack.pop()
        yield pos, g
        kids = children(g)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((pos + (i,), kids[i]))


def subformula_at(f: Formula, pos: Position) -> Formula:
    g = f
    for i in pos:
        kids = children(g)
        if i >= len(kids):
            raise IndexError(f"position {pos} does not exist in formula")
        g = kids[i]
    return g


def replace_at(f: Formula, pos: Position, new: Formula) -> Formula:
    if not pos:
        return new
    kids = list(children(f))
    kids[pos[0]] = replace_at(kids[pos[0]], pos[1:], new)
    return with_children(f, tuple(kids))


def _joined(ctor: type, parts: list) -> Formula:
    """The nonempty `parts` joined by the binary connective `ctor`,
    nested to the right: ctor(p0, ctor(p1, ... ctor(pk-1, pk)))."""
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ctor(p, out)
    return out


def _components(g: Formula, sign: int) -> tuple:
    """g's uniform-notation class at polarity `sign` (+1 or -1), and its
    immediate subformulas, each with its own polarity.  A positive Or or
    Implies and any Not are alpha, a positive And is beta, a positive
    Exists is gamma and a positive Forall delta; at negative polarity
    the classes swap.  Not and the left side of Implies flip the sign.
    An atom or an Iff has no class and no components: below a
    biconditional no position has a polarity."""
    t = type(g)
    if t is Or or t is And:
        return (ALPHA if (t is Or) == (sign > 0) else BETA), ((g.left, sign), (g.right, sign))
    if t is Implies:
        return (ALPHA if sign > 0 else BETA), ((g.left, -sign), (g.right, sign))
    if t is Not:
        return ALPHA, ((g.body, -sign),)
    if t is Exists or t is Forall:
        return (GAMMA if (t is Exists) == (sign > 0) else DELTA), ((g.body, sign),)
    return None, ()


def polarity_at(f: Formula, pos: Position) -> int:
    """+1 if the position is positive, -1 if negative.

    Iff has no polarity and makes every strictly deeper position
    ambiguous, which is reported as an error.
    """
    sign = 1
    g = f
    for i in pos:
        if isinstance(g, Iff):
            raise ValueError("no polarity below a biconditional; expand it first")
        g, sign = _components(g, sign)[1][i]
    return sign


def free_vars(f: Formula) -> set[str]:
    def go(g: Formula, bound: frozenset[str]) -> set[str]:
        if isinstance(g, Atom):
            out: set[str] = set()
            for t in g.args:
                out |= term_vars(t)
            return out - bound
        if isinstance(g, QUANT):
            return go(g.body, bound | {g.var})
        out = set()
        for k in children(g):
            out |= go(k, bound)
        return out

    return go(f, frozenset())


def bound_vars(f: Formula) -> list[str]:
    """Binder names in preorder, with repetitions."""
    out = []
    for _, g in subformulas(f):
        if isinstance(g, QUANT):
            out.append(g.var)
    return out


def formula_symbols(f: Formula) -> set[Symbol]:
    out: set[Symbol] = set()
    for _, g in subformulas(f):
        if isinstance(g, Atom):
            out.add(g.pred)
            for t in g.args:
                out |= term_symbols(t)
    return out


def apply(s: Subst, f: Formula) -> Formula:
    """Simultaneous substitution of free occurrences.  An atom in which no
    variable is bound comes back as the same object, like a term under
    `apply_term`.

    Raises CaptureError when a binder would capture a free variable of an
    image; callers rectify first.
    """
    if isinstance(f, Atom):
        args = tuple([apply_term(s, t) for t in f.args])
        if all(map(operator.is_, args, f.args)):
            return f
        return Atom(f.pred, args)
    if isinstance(f, QUANT):
        inner = Subst({v: t for v, t in s.items() if v != f.var})
        if not inner:
            return f
        relevant = free_vars(f.body) - {f.var}
        for v, t in inner.items():
            if v in relevant and f.var in term_vars(t):
                raise CaptureError(
                    f"binder {f.var} would capture a variable of {print_term(t)}"
                )
        return with_children(f, (apply(inner, f.body),))
    return with_children(f, tuple(apply(s, k) for k in children(f)))


# ---------------------------------------------------------------------------
# rectification


def is_rectified(f: Formula) -> bool:
    """Every bound variable bound exactly once and never also free."""
    binders = bound_vars(f)
    return len(binders) == len(set(binders)) and not (set(binders) & free_vars(f))


def fresh_name(base: str, used: set[str]) -> str:
    k = 1
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


def rectify(f: Formula) -> Formula:
    """Rename clashing binders so each one is unique and never free.

    A binder spelled like a constant of f clashes too: a witness binding
    it to that constant would read {x -> x}.
    Deterministic: binders are visited left to right and a clashing
    binder named b becomes b<k> for the smallest unused k.  Formulas that
    already satisfy the invariant come back unchanged.
    """
    frees = free_vars(f)
    binders = bound_vars(f)
    constants = {s.name for s in formula_symbols(f) if not s.arity and s.kind != PREDICATE}
    counts: dict[str, int] = {}
    for b in binders:
        counts[b] = counts.get(b, 0) + 1
    clashing = {b for b, c in counts.items() if c > 1} | (set(binders) & (frees | constants))
    if not clashing:
        return f

    used = frees | set(binders) | constants

    def go(g: Formula, ren: dict[str, str]) -> Formula:
        if isinstance(g, Atom):
            sub = Subst({v: Var(n) for v, n in ren.items()})
            return apply(sub, g)
        if isinstance(g, QUANT):
            if g.var in clashing:
                new = fresh_name(g.var, used)
                used.add(new)
            else:
                new = g.var
            inner = dict(ren)
            inner[g.var] = new
            body = go(g.body, inner)
            return Forall(new, body) if isinstance(g, Forall) else Exists(new, body)
        return with_children(g, tuple(go(k, ren) for k in children(g)))

    return go(f, {})


# ---------------------------------------------------------------------------
# alpha equivalence


def _alpha_key(f: Formula, env: dict[str, int], depth: int):
    if isinstance(f, Atom):
        return ("atom", f.pred.name, tuple(_alpha_term(t, env) for t in f.args))
    if isinstance(f, Not):
        return ("not", _alpha_key(f.body, env, depth))
    if isinstance(f, QUANT):
        tag = "all" if isinstance(f, Forall) else "ex"
        inner = dict(env)
        inner[f.var] = depth
        return (tag, _alpha_key(f.body, inner, depth + 1))
    tag = {Or: "or", And: "and", Implies: "imp", Iff: "iff"}[type(f)]
    return (tag, _alpha_key(f.left, env, depth), _alpha_key(f.right, env, depth))


def _alpha_term(t: Term, env: dict[str, int]):
    if isinstance(t, Var):
        return ("bv", env[t.name]) if t.name in env else ("fv", t.name)
    return ("app", t.sym.name, tuple(_alpha_term(a, env) for a in t.args))


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Equality up to renaming of bound variables."""
    return f == g or _alpha_key(f, {}, 0) == _alpha_key(g, {}, 0)


# ---------------------------------------------------------------------------
# connective normalization


def expand_iff(f: Formula) -> Formula:
    """Rewrite every A <-> B into (A -> B) & (B -> A)."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Iff):
        a = expand_iff(f.left)
        b = expand_iff(f.right)
        return And(Implies(a, b), Implies(b, a))
    return with_children(f, tuple(expand_iff(k) for k in children(f)))


# ---------------------------------------------------------------------------
# printing


def _print_symbol_name(sym: Symbol) -> str:
    if sym.is_skolem:
        base, _, counter = sym.name.partition("*")
        return f"{base}_star{counter}"
    return sym.name


def _print_var_name(name: str) -> str:
    # boxed variables (opaque Skolem-term names) print in brackets so
    # the result stays lexable and never rereads as a Skolem symbol
    if _IDENT_RE.fullmatch(name) and not _SKOLEM_PRINT_RE.match(name):
        return name
    return f"[{name}]"


def print_term(t: Term) -> str:
    """t as the parser reads it back, by an explicit stack, so a term of
    any height prints."""
    if isinstance(t, Var):
        return _print_var_name(t.name)
    if not t.args:
        return _print_symbol_name(t.sym)
    parts: list[str] = []
    todo: list = [t]  # terms and separators still to print, last first
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            parts.append(t)
        elif isinstance(t, Var):
            parts.append(_print_var_name(t.name))
        else:
            parts.append(_print_symbol_name(t.sym))
            if t.args:
                todo.append(")")
                for i in range(len(t.args) - 1, -1, -1):
                    todo += (t.args[i], ", " if i else "(")
    return "".join(parts)


def print_formula(f: Formula) -> str:
    def go(g: Formula, level: int) -> str:
        if isinstance(g, Atom):
            if g.pred.name == "=" and len(g.args) == 2:
                return f"{print_term(g.args[0])} = {print_term(g.args[1])}"
            name = _print_symbol_name(g.pred)
            if not g.args:
                return name
            return f"{name}({', '.join(print_term(a) for a in g.args)})"
        if isinstance(g, Not):
            inner = g.body
            if (
                isinstance(inner, Atom)
                and inner.pred.name == "="
                and len(inner.args) == 2
            ):
                return par(
                    f"{print_term(inner.args[0])} != {print_term(inner.args[1])}",
                    _UNARY,
                    level,
                )
            return f"~{go(inner, _UNARY)}"
        if isinstance(g, Forall):
            return par(f"!{_print_var_name(g.var)}. {go(g.body, 0)}", 0, level)
        if isinstance(g, Exists):
            return par(f"?{_print_var_name(g.var)}. {go(g.body, 0)}", 0, level)
        op, prec, right = _SPELLING[type(g)]
        return par(f"{go(g.left, prec + right)} {op} {go(g.right, prec + (not right))}", prec, level)

    def par(s: str, prec: int, level: int) -> str:
        return f"({s})" if prec < level else s

    return go(f, 0)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<boxed>\[[^\[\]]*\])
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<zero>0)
      | (?P<op><->|->|!=|[~&|!?.,()=])
    """,
    re.VERBOSE,
)

EQ = Symbol("=", 2, PREDICATE)
ZERO = Symbol("0", 0, PLAIN_FUNCTION)


def _skolem_symbol_for(printed: str, arity: int) -> Optional[Symbol]:
    m = _SKOLEM_PRINT_RE.match(printed)
    if not m:
        return None
    name = m.group("base") + "*" + m.group("counter")
    kind = SKOLEM_CONSTANT if arity == 0 else SKOLEM_FUNCTION
    return Symbol(name, arity, kind)


def _located(message: str, text: str, offset: int) -> SyntaxError_:
    """The error at `offset` of `text`, its line and column worked out."""
    line = text.count("\n", 0, offset) + 1
    return SyntaxError_(message, line, offset - text.rfind("\n", 0, offset))


@dataclass
class _Token:
    kind: str
    text: str
    offset: int


class _Parser:
    def __init__(self, text: str, frees: frozenset[str]):
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.frees = frees
        self.symbols: dict[str, Symbol] = {}

    @staticmethod
    def _tokenize(text: str) -> list[_Token]:
        out = []
        i = 0
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if not m:
                raise _located(f"unexpected character {text[i]!r}", text, i)
            if m.lastgroup != "ws":
                out.append(_Token(m.lastgroup or "", m.group(), i))
            i = m.end()
        out.append(_Token("eof", "", len(text)))
        return out

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise self.error(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def error(self, msg: str) -> SyntaxError_:
        return _located(msg, self.text, self.peek().offset)

    def end(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise self.error(f"unexpected trailing input {t.text!r}")

    def lookup(self, name: str, arity: int, kind: str) -> Symbol:
        sk = _skolem_symbol_for(name, arity)
        if sk is not None and kind != PREDICATE:
            internal = sk.name
            known = self.symbols.get(internal)
            if known is None:
                self.symbols[internal] = sk
                return sk
            if known.arity != arity or known.kind == PREDICATE:
                raise ArityMismatchError(f"{name} used with inconsistent arity")
            return known
        known = self.symbols.get(name)
        if known is None:
            sym = Symbol(name, arity, kind)
            self.symbols[name] = sym
            return sym
        if known.arity != arity or (known.kind == PREDICATE) != (kind == PREDICATE):
            raise ArityMismatchError(f"{name} used with inconsistent arity")
        return known

    def formula(self, bound: frozenset[str], floor: int = 1) -> Formula:
        """A formula whose binary connectives bind at least as tightly
        as precedence `floor`, by precedence climbing over `_BINARY`."""
        left = self.unary(bound)
        while True:
            entry = _BINARY.get(self.peek().text)
            if entry is None or entry[1] < floor:
                return left
            self.next()
            ctor, prec, right = entry
            left = ctor(left, self.formula(bound, prec if right else prec + 1))

    def unary(self, bound) -> Formula:
        t = self.peek()
        if t.text == "~":
            self.next()
            return Not(self.unary(bound))
        if t.text in ("!", "?"):
            self.next()
            names = [self.ident("quantified variable")]
            while self.peek().text == ",":
                self.next()
                names.append(self.ident("quantified variable"))
            self.expect(".")
            body = self.formula(bound | frozenset(names))
            ctor = Forall if t.text == "!" else Exists
            for name in reversed(names):
                body = ctor(name, body)
            return body
        return self.primary(bound)

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind == "boxed":
            return self.next().text[1:-1]
        if t.kind != "ident":
            raise self.error(f"expected {what}")
        return self.next().text

    def primary(self, bound) -> Formula:
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.formula(bound)
            self.expect(")")
            return f
        if t.kind in ("ident", "zero", "boxed"):
            lhs, head = self.term(bound, allow_predicate=True)
            op = self.peek().text
            if op in ("=", "!="):
                self.next()
                rhs, _ = self.term(bound)
                if head is not None:
                    name, args = head
                    lhs = App(self.lookup(name, len(args), PLAIN_FUNCTION), args)
                self.lookup("=", 2, PREDICATE)
                eq = Atom(EQ, (lhs, rhs))
                return eq if op == "=" else Not(eq)
            if head is None:
                raise self.error("a variable is not a formula")
            name, args = head
            return Atom(self.lookup(name, len(args), PREDICATE), args)
        raise self.error("expected a formula")

    def term(self, bound, allow_predicate=False):
        """Returns (term, None), or with `allow_predicate` and a bare or
        applied identifier that is not a variable, (None, (name, args)):
        the head is undecided until the caller sees whether an equation
        follows."""
        t = self.peek()
        if t.kind == "zero":
            self.next()
            self.lookup("0", 0, PLAIN_FUNCTION)
            return App(ZERO), None
        if t.kind == "boxed":
            # a boxed variable: an opaque name standing for a Skolem term
            return Var(self.next().text[1:-1]), None
        if t.kind != "ident":
            raise self.error("expected a term")
        name = self.next().text
        if self.peek().text == "(":
            self.next()
            args = [self.term(bound)[0]]
            while self.peek().text == ",":
                self.next()
                args.append(self.term(bound)[0])
            self.expect(")")
            args_t = tuple(args)
        elif name in bound or name in self.frees or name == LEXICON:
            return Var(name), None
        else:
            args_t = ()
        if allow_predicate:
            return None, (name, args_t)
        return App(self.lookup(name, len(args_t), PLAIN_FUNCTION), args_t), None


def parse(text: str, frees: Optional[set[str]] = None) -> Formula:
    """Parse a formula; see the module docstring for the grammar.

    `frees` declares which bare identifiers denote free variables.  The
    lexicon `l` cannot be declared: it is always a variable.

    The descent recurses once per level of nesting (three frames per
    parenthesis; one per `~`, quantifier, right-nested `->` or `<->`,
    or term argument), so input nested deeper than the interpreter's
    recursion limit allows is a SyntaxError_ at the token where the
    descent stopped, not a RecursionError; `parse_term` does the same.
    """
    frees = set(frees or ())
    if LEXICON in frees:
        raise ValueError(f"the lexicon {LEXICON!r} is reserved and cannot be declared")
    p = _Parser(text, frozenset(frees))
    try:
        f = p.formula(frozenset())
    except RecursionError:
        raise p.error("nested too deeply") from None
    p.end()
    return f


def parse_term(text: str, frees: Optional[set[str]] = None) -> Term:
    """Parse a single term under the same identifier conventions."""
    frees = set(frees or ())
    p = _Parser(text, frozenset(frees))
    try:
        t, _ = p.term(frozenset())
    except RecursionError:
        raise p.error("nested too deeply") from None
    p.end()
    return t
