"""Span tracing of the herbrand package from outside it.

Each public function of the traced modules is replaced by a wrapper at
every module attribute bound to it, because the modules import each
other's functions by name.  A wrapper records one span (name, start,
end, parent span, request id) and the layer counters listed in `HOOKS`.
It also records when it was entered and when it returned, so that the
tracer's own work around a call is charged to neither the call nor its
caller, but reported apart as `overhead_s`.

While a function's outermost call runs, its attributes are bound back
to the original, so self- and mutual recursion through those names
runs unwrapped: only the outermost call is spanned and recursion gets
no extra stack frames.  A few node-level helpers of `syntax` are called
millions of times per request; they are left unwrapped and their time
counts as self time of their callers.  Generator functions are left
unwrapped too, since a span would cover only the generator's creation.
"""

from __future__ import annotations

import collections
import inspect
import json
import sys
import time
import types
from array import array

MODULES = ("syntax", "transform", "expansion", "sat", "engine", "proofcalc", "arith", "cli")

UNWRAPPED = {
    "syntax": {
        "apply_term", "print_term", "term_vars", "term_symbols", "height",
        "children", "with_children",
    },
}

# Functions whose spans are also reported under a shared name.
GROUPS = {
    "sat.cnf": "sat.clausify",
    "sat.dnf": "sat.clausify",
    "sat.cnf_of_negation": "sat.clausify",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _clauses(a, k, r):
    return {"clauses": len(r.clauses)}


# Counters per call, run after the call returns: hook(args, kwargs, result)
# gives increments of `<name>.<counter>`, `<name>` taken through GROUPS.
HOOKS = {
    "expansion.check_instances": lambda a, k, r: {"instances": len(_arg(a, k, 1, "sigmas"))},
    "expansion.champ_fini": lambda a, k, r: {"terms": len(r)},
    "sat.dpll": lambda a, k, r: {"clauses": len(_arg(a, k, 0, "cs").clauses), "unsat": not r[0]},
    "sat.cnf": _clauses,
    "sat.dnf": _clauses,
    "sat.cnf_of_negation": _clauses,
    "engine.unify": lambda a, k, r: {"ok": bool(r.ok)},
    "engine.resolve": lambda a, k, r: {"ok": r is not None},
    "engine.prove_resolution": lambda a, k, r: {"steps": r.steps or 0},
    "engine.minimize_witness": lambda a, k, r: {"kept": len(r), "given": len(_arg(a, k, 1, "sigmas"))},
    "proofcalc.mp_eliminate": lambda a, k, r: {"steps": len(r)},
    "proofcalc.check": lambda a, k, r: {"steps": len(_arg(a, k, 0, "d"))},
}


PACKAGE = "herbrand"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.enter = array("d")
        self.leave = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.stack: list[int] = []
        self.request = -1
        self.counters: collections.Counter = collections.Counter()
        self.hook_errors = 0
        self.calls: collections.Counter = collections.Counter()
        self.self_s: collections.Counter = collections.Counter()
        self.overhead_s = 0.0
        self._bindings: list = []  # (wrapper, original, sites, active flag)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            skip = UNWRAPPED.get(short, set())
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or attr in skip
                        or not isinstance(fn, types.FunctionType)
                        or inspect.isgeneratorfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                sites = [(m, a) for m in loaded for a, v in vars(m).items() if v is fn]
                self._wrap(f"{short}.{attr}", fn, sites)
        self.rebind()

    def uninstall(self) -> None:
        for _wrapper, orig, sites, _active in self._bindings:
            for mod, attr in sites:
                setattr(mod, attr, orig)
        self._bindings = []

    def rebind(self) -> None:
        """Reinstall every wrapper and forget open spans.  Called after a
        request that raised, so that one which died inside a wrapper (say
        by RecursionError) cannot leave the next one half traced."""
        self.stack.clear()
        for wrapper, _orig, sites, active in self._bindings:
            active[0] = False
            for mod, attr in sites:
                setattr(mod, attr, wrapper)

    def _wrap(self, qualname: str, orig, sites) -> None:
        nid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        prefix = GROUPS.get(qualname, qualname) + "."
        atom_mod = sys.modules[orig.__module__] if qualname == "sat.atom_key" else None
        active = [False]
        tracer = self
        start, end, enter, leave, name, parent, req, stack = (
            self.start, self.end, self.enter, self.leave, self.name, self.parent,
            self.req, self.stack)
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[0]:
                return orig(*args, **kwargs)
            te = clock()
            active[0] = True
            for mod, attr in sites:
                setattr(mod, attr, orig)
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            enter.append(te)
            leave.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(tracer.request)
            stack.append(idx)
            if atom_mod is not None:
                counters["sat.atom_key.hits"] += args[0] in getattr(atom_mod, "_ATOM_KEYS", ())
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                start[idx] = t0
                end[idx] = t1
                leave[idx] = t1  # kept if the call raised
                if stack and stack[-1] == idx:
                    stack.pop()
                for mod, attr in sites:
                    setattr(mod, attr, wrapper)
                active[0] = False
            if hook is not None:
                try:
                    for key, value in hook(args, kwargs, result).items():
                        counters[prefix + key] += value
                except Exception:  # a counter must never change the run
                    tracer.hook_errors += 1
            leave[idx] = clock()
            return result

        self._bindings.append((wrapper, orig, sites, active))

    # -- analysis ---------------------------------------------------------

    def analyse(self) -> None:
        """Set `calls` and `self_s`, per span name, and `overhead_s`.

        Self time is a span's duration minus the time its child spans
        cover.  A child covers its whole wrapper, from entry to return,
        and children of one span are sequential, so that time is a sum.
        The part of a wrapper outside its call is the tracer's own work
        and goes to `overhead_s`, not to the caller's self time."""
        n = len(self.start)
        start, end, enter, leave, parent = (
            self.start, self.end, self.enter, self.leave, self.parent)
        dur = [max(end[i] - start[i], 0.0) for i in range(n)]
        outer = [max(leave[i] - enter[i], dur[i]) for i in range(n)]
        self.overhead_s = sum(outer) - sum(dur)
        cover = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                cover[p] += outer[i]
        calls: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        names, name = self.names, self.name
        for i in range(n):
            key = names[name[i]]
            calls[key] += 1
            self_s[key] += dur[i] - cover[i]
        self.calls, self.self_s = calls, self_s

    def write(self, path_stem) -> None:
        """Spans as one JSON header and one binary file of seven arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["start", "d"], ["end", "d"], ["enter", "d"], ["leave", "d"],
                       ["name", "i"], ["parent", "i"], ["request", "i"]],
            "byteorder": sys.byteorder,
        }
        with open(f"{path_stem}.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(f"{path_stem}.bin", "wb") as handle:
            for arr in (self.start, self.end, self.enter, self.leave, self.name,
                        self.parent, self.req):
                arr.tofile(handle)
