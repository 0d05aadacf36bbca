"""The three workloads: their requests, input files and oracles.

A workload is a list of groups; each group is a short sequence of
`herbrand` command lines issued in order (say prove --proof-out, then
check on the file just written).  The seed draws the symbol renamings
of the template corpora, the random arithmetic sentences and the order
of the groups.  Every request carries its own judge, which knows the
right answer from the benchmark's corpora, never from the program.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import arith_oracle
import corpus

WORKLOADS = ("order-loop", "resolution", "certify")

# Renamed copies of each template per pass.  The few large requests of
# order-loop and resolution take some 20 s together; some 1,200 small
# ones add about 5 s more, so that the latency percentiles sample several
# seconds of a machine whose speed drifts from second to second.
ORDER_LOOP_VALID_COPIES = 45
ORDER_LOOP_INVALID_COPIES = 15
RESOLUTION_VALID_COPIES = 72
RESOLUTION_INVALID_COPIES = 48
CERTIFY_COPIES = 2
RANDOM_SENTENCES = 129


class WrongAnswer(Exception):
    """The program answered a request incorrectly."""


@dataclass
class Request:
    name: str
    argv: list
    judge: Callable[[int, str], None]
    # a prove or complexity request on an input valid by construction
    valid: bool = False
    # benchmark-side preparation run just before the request
    before: Optional[Callable[[], None]] = None


def _expect(cond: bool, request: str, what: str, out: str) -> None:
    if not cond:
        raise WrongAnswer(f"{request}: {what}; output was {out[:300]!r}")


def _prove_judge(name: str, valid: bool, proof_out: Optional[str] = None):
    def judge(code: int, out: str) -> None:
        if code == 0:
            _expect(valid, name, "unsound: proof found for an invalid formula", out)
            _expect("verdict: proof-found" in out and "witness-verified: true" in out,
                    name, "proof reported without a verified witness", out)
            if proof_out is not None:
                _expect(os.path.exists(proof_out), name, "no derivation written", out)
        else:
            _expect(code == 1 and "verdict: gave-up" in out, name,
                    f"unexpected exit {code}", out)
    return judge


def _complexity_judge(name: str, k: int):
    def judge(code: int, out: str) -> None:
        _expect(code == 0 and out == f"complexity: {k}\n", name,
                f"complexity should be {k}", out)
    return judge


def _check_judge(name: str, tampered: bool):
    def judge(code: int, out: str) -> None:
        if tampered:
            _expect(code != 0, name, "unsound: a tampered derivation was accepted", out)
            _expect(code == 1 and out.startswith("violation:"), name,
                    f"unexpected exit {code}", out)
        else:
            _expect(code == 0 and out.startswith("ok\n"), name,
                    "a correct derivation was rejected", out)
    return judge


def _arith_judge(name: str, true: bool):
    want = "derivable\n" if true else "refutable\n"

    def judge(code: int, out: str) -> None:
        _expect(code == 0 and out == want, name, f"expected {want.strip()}", out)
    return judge


def tamper(src: str, dst: str, step: str) -> None:
    """Write a copy of a derivation with one formula negated.

    "first": the first step has no premises, so a sound checker accepts
    it only if its formula is valid; the negation of that valid formula
    is unsatisfiable.  "last": the final formula is the theorem; its
    negation is unsatisfiable, so no sound derivation can end in it.
    Either way a sound `check` must reject the copy.  A missing source
    (its prove failed) leaves no copy, and `check` then reports an error.
    """
    if not os.path.exists(src):
        return
    with open(src, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    steps = [i for i, line in enumerate(lines)
             if line.strip() and not line.startswith(("#", "frees:"))]
    target = steps[0] if step == "first" else steps[-1]
    fields = lines[target].split(" | ", 5)
    fields[5] = f"~({fields[5]})"
    lines[target] = " | ".join(fields)
    with open(dst, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


class Builder:
    """Writes one workload's inputs under `workdir` and lists its groups."""

    def __init__(self, seed: int, workdir: str, root: str):
        self.seed = seed
        self.rng = random.Random(seed)
        self.renamer = corpus.Renamer(self.rng)
        self.workdir = workdir
        self.root = root
        self.groups: list[list[Request]] = []
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def problem(self, name: str, formula: str) -> str:
        path = self.path(name + ".p")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"formula: {formula}\n")
        return path

    def valid_corpus(self, copies: int):
        for j in range(copies):
            for i, (template, k) in enumerate(corpus.VALID):
                yield f"valid{i:02d}-r{j}", self.renamer.fill(template), k

    def invalid_corpus(self, copies: int):
        for j in range(copies):
            for i, template in enumerate(corpus.INVALID):
                yield f"invalid{i:02d}-r{j}", self.renamer.fill(template)

    def prove(self, name: str, path: str, valid: bool, method: str, *extra) -> Request:
        argv = ["prove", path, "--method", method, *extra]
        proof_out = extra[extra.index("--proof-out") + 1] if "--proof-out" in extra else None
        before = None
        if proof_out is not None:  # a stale file must not pass for this run's output
            def before():
                if os.path.exists(proof_out):
                    os.remove(proof_out)
        return Request(f"{method}/{name}", argv, _prove_judge(name, valid, proof_out), valid,
                       before)

    # -- workloads --------------------------------------------------------

    def order_loop(self) -> None:
        scaling = self.problem("scaling", corpus.SCALING)
        inputs = [(f"scaling-n{n}", scaling, False, n) for n in (2, 3, 4)]
        inputs.append(("variant-n3", self.problem("variant", corpus.VARIANT), True, 3))
        for name, formula, _k in self.valid_corpus(ORDER_LOOP_VALID_COPIES):
            inputs.append((name, self.problem(name, formula), True, 3))
        for name, formula in self.invalid_corpus(ORDER_LOOP_INVALID_COPIES):
            inputs.append((name, self.problem(name, formula), False, 3))
        for method in ("dp", "gilmore"):
            for name, path, valid, n in inputs:
                self.groups.append(
                    [self.prove(name, path, valid, method, "--max-order", str(n))])

    def resolution(self) -> None:
        inputs = [
            ("running", corpus.RUNNING, True),
            ("variant", corpus.VARIANT, True),
        ]
        inputs += [(n, f, True) for n, f, _k in self.valid_corpus(RESOLUTION_VALID_COPIES)]
        inputs += [(n, f, False) for n, f in self.invalid_corpus(RESOLUTION_INVALID_COPIES)]
        for name, formula, valid in inputs:
            path = self.problem(name, formula)
            self.groups.append([self.prove(
                name, path, valid, "resolution", "--proof-out", self.path(name + ".drv"))])

    def certify(self) -> None:
        running = self.problem("running", corpus.RUNNING)
        self.groups.append([self._complexity("running", running, corpus.RUNNING_COMPLEXITY)])
        committed = self.path("committed.drv")
        with open(os.path.join(self.root, "tests", "data", "running_example.drv"),
                  encoding="utf-8") as src, open(committed, "w", encoding="utf-8") as dst:
            dst.write(src.read())
        self.groups.append(self._checks("committed", committed))
        for name, formula, k in self.valid_corpus(CERTIFY_COPIES):
            path = self.problem(name, formula)
            self.groups.append([self._complexity(name, path, k)])
            drv = self.path(name + ".drv")
            group = [self.prove(name, path, True, "dp", "--proof-out", drv)]
            self.groups.append(group + self._checks(name, drv))
        for name, text, true in arith_cases(self.seed):
            self.groups.append([Request(name, ["arith", "decide", text],
                                        _arith_judge(name, true))])

    def _complexity(self, name: str, path: str, k: int) -> Request:
        return Request(f"complexity/{name}", ["complexity", path, "-n", "4", "--max-instances", "3"],
                       _complexity_judge(name, k), valid=True)

    def _checks(self, name: str, drv: str) -> list:
        out = [Request(f"check/{name}", ["check", drv], _check_judge(name, False))]
        for step in ("first", "last"):
            bad = f"{drv}.bad-{step}"
            out.append(Request(
                f"check/{name}.bad-{step}", ["check", bad], _check_judge(name, True),
                before=lambda drv=drv, bad=bad, step=step: tamper(drv, bad, step)))
        return out


@lru_cache(maxsize=None)
def arith_cases(seed: int) -> tuple:
    """certify's `arith decide` requests as (name, sentence, true?): every
    closed sentence up to 7 nodes, then the seed's random ones.

    The random sentences have depth 3: about one depth-4 sentence in a
    thousand takes quantifier elimination 0.1 s or more and adds tens of
    MB to the peak, which would make certify's figures depend on the
    seed's draw."""
    rng = random.Random(f"arith-{seed}")
    randoms = [arith_oracle.random_sentence(rng, 3) for _ in range(RANDOM_SENTENCES)]
    return tuple(
        (f"arith/{tag}{i:04d}", arith_oracle.render(s), arith_oracle.truth(s))
        for tag, sentences in (("exh", arith_oracle.exhaustive(7)), ("rnd", randoms))
        for i, s in enumerate(sentences))


def prepare(workload: str, seed: int) -> None:
    """Work out the expected answers that are costly to compute, once per
    process, so that timed set-ups cover only the program's import and
    the writing of the inputs, and are alike."""
    if workload == "certify":
        arith_cases(seed)


def build(workload: str, seed: int, workdir: str, root: str) -> list:
    """Write the inputs of one workload and return its groups in the
    seed's order."""
    b = Builder(seed, workdir, root)
    {"order-loop": b.order_loop, "resolution": b.resolution, "certify": b.certify}[workload]()
    b.rng.shuffle(b.groups)
    return b.groups
