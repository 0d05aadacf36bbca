"""Benchmark of the `herbrand` command-line front end.

    python3 perfbench/run.py --workload order-loop --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload certify --seed 1 --trace 1
    python3 perfbench/run.py --workload resolution --seed 1 --profile resolution/running
    python3 perfbench/run.py --compare base.jsonl new.jsonl

One process, one client, a closed loop: each request is a call of
`herbrand.cli.main(argv)` with stdout and stderr captured, issued after
the previous one returned, because a command-line user waits for each
verdict.  Every answer is checked against the benchmark's own oracles
(see workloads.py); a wrong answer ends the run with exit status 1 and
no result line.  A request that raises or exits 2 counts as failed.

With --trace 0 the run repeats full passes over the workload while the
next pass is expected to end within --seconds, and reports the
end-to-end metrics.  With --trace 1 it makes one untraced and one traced
pass (tracer.py) and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json at the repository root.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 11  # set-ups per run; setup_s is their median
PROFILE_TOP = 25  # functions listed by --profile

import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import GROUPS, MODULES, Tracer  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run or its result would be meaningless."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def forget_program() -> None:
    """Drop the imported program and collect it, so that the next import
    starts with empty module caches (such as the atom-key table of `sat`)
    and memory peaks do not depend on when garbage happened to be freed."""
    for name in [n for n in sys.modules if n == "herbrand" or n.startswith("herbrand.")]:
        del sys.modules[name]
    gc.collect()


def import_program():
    try:
        return importlib.import_module("herbrand.cli")
    except ImportError as e:
        raise BenchError(f"cannot import the herbrand package from {ROOT}/src: {e}") from e


def fresh_import():
    forget_program()
    return import_program()


def setup_once(workload: str, seed: int, workdir: str):
    """Import the program, then generate and write the inputs.  Costly
    expected answers come from `workloads.prepare`, outside the timer."""
    forget_program()
    t0 = time.perf_counter()
    cli = import_program()
    groups = workloads.build(workload, seed, workdir, ROOT)
    return time.perf_counter() - t0, cli, groups


def issue(cli, request) -> tuple[float, tuple]:
    """Run one request; return (seconds, (failure or None, exit code))."""
    if request.before is not None:
        request.before()
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(request.argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash is a failed request, not a wrong answer
        code, failure = None, type(e).__name__
    seconds = time.perf_counter() - t0
    if failure is None and code == 2:
        failure = "exit 2"
    if failure is None:
        request.judge(code, out.getvalue())
    return seconds, (failure, code)


def run_pass(cli, groups, tracer=None) -> tuple[float, list]:
    """One pass over all groups: (wall seconds, [(request, seconds, outcome)]).
    Callers import the program afresh before each pass, so that all
    passes of all runs start from the same cache state."""
    results = []
    t0 = time.perf_counter()
    for group in groups:
        for request in group:
            if tracer is not None:
                tracer.request = len(results)
            seconds, outcome = issue(cli, request)
            if tracer is not None and outcome[0] is not None:
                tracer.rebind()
            results.append((request, seconds, outcome))
    return time.perf_counter() - t0, results


def _metric(spec_entry: dict, value: float, samples: int) -> tuple:
    return spec_entry["name"], value, spec_entry["unit"], samples


def end_to_end(spec, setups, passes, results) -> list:
    latencies = [seconds for _req, seconds, _outcome in results]
    attempted = len(results)
    failed = sum(1 for _r, _s, outcome in results if outcome[0] is not None)
    valid = [(r, o) for r, _s, o in results if r.valid]
    proved = sum(1 for _r, o in valid if o[0] is None and o[1] == 0)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "pass_s": (statistics.median(passes), len(passes)),
        "request_s_p50": (statistics.median(latencies), attempted),
        "request_s_p90": (statistics.quantiles(latencies, n=10)[8], attempted),
        "completed_ratio": ((attempted - failed) / attempted, attempted),
        "proved_ratio": (proved / len(valid) if valid else 1.0, len(valid)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return [_metric(m, *values[m["name"]]) for m in spec["end_to_end"]]


# ratio metric suffix -> (numerator counter, denominator counter or "calls")
RATIOS = {
    "success_ratio": ("ok", "calls"),
    "unsat_ratio": ("unsat", "calls"),
    "hit_ratio": ("hits", "calls"),
    "kept_ratio": ("kept", "given"),
}


def per_layer(spec, tracer: Tracer, sat, untraced_s: float, traced_s: float) -> list:
    calls, self_s = tracer.calls, tracer.self_s
    counters = tracer.counters

    def value(name: str) -> tuple:
        stem, _, measure = name.rpartition(".")
        if name == "trace.overhead_ratio":
            return traced_s / untraced_s, 2
        if name == "trace.self_s":
            return tracer.overhead_s, sum(calls.values())
        if name == "trace.accounted_ratio":
            return (sum(self_s.values()) + tracer.overhead_s) / traced_s, sum(calls.values())
        if name == "sat.atom_cache.entries":
            return len(getattr(sat, "_ATOM_KEYS", ())), 1
        if measure in ("calls", "self_s"):
            table = calls if measure == "calls" else self_s
            if stem in MODULES:  # a whole layer
                keys = [k for k in table if k.startswith(stem + ".")]
            else:  # a function, or a group of them such as sat.clausify
                keys = [k for k in table if k == stem or GROUPS.get(k) == stem]
            return sum(table[k] for k in keys), sum(calls[k] for k in keys)
        if measure in RATIOS:
            num, den = RATIOS[measure]
            den_value = calls[stem] if den == "calls" else counters[f"{stem}.{den}"]
            return (counters[f"{stem}.{num}"] / den_value if den_value else 0.0), calls[stem]
        if stem in tracer.names or stem in GROUPS.values():
            return counters[name], sum(n for k, n in calls.items()
                                       if k == stem or GROUPS.get(k) == stem)
        raise BenchError(f"BENCHMARK.json names an unknown per-layer metric {name!r}")

    return [_metric(m, *value(m["name"])) for m in spec["per_layer"]]


def report(rows: list, results: list) -> dict:
    width = max(len(r[0]) for r in rows)
    for name, value, unit, samples in rows:
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={samples}")
    return {
        "correct": True,
        "attempted": len(results),
        "failed": sum(1 for _r, _s, o in results if o[0] is not None),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _n in rows},
    }


def print_failures(results: list) -> None:
    seen = {}
    for request, seconds, (failure, _code) in results:
        if failure is not None:
            seen.setdefault((request.name, failure), seconds)
    for (name, failure), seconds in sorted(seen.items()):
        print(f"failed: {name}: {failure} after {seconds:.2f}s")


def measure(args, spec, workdir) -> tuple[list, list]:
    workloads.prepare(args.workload, args.seed)
    setups = []
    for _ in range(SETUPS // 2 + 1):
        seconds, cli, groups = setup_once(args.workload, args.seed, workdir)
        setups.append(seconds)
    passes, results = [], []
    t0 = time.perf_counter()
    while True:
        seconds, pass_results = run_pass(cli, groups)
        passes.append(seconds)
        results += pass_results
        # start another pass only if it should end within the budget
        if time.perf_counter() - t0 + seconds > args.seconds:
            break
        cli = fresh_import()
    # the other set-ups come after the passes, so that setup_s samples the
    # machine's speed at both ends of the run
    while len(setups) < SETUPS:
        setups.append(setup_once(args.workload, args.seed, workdir)[0])
    print(f"workload {args.workload}: {len(passes)} passes, {len(results)} requests")
    print_failures(results)
    return end_to_end(spec, setups, passes, results), results


def trace(args, spec, workdir) -> tuple[list, list]:
    _seconds, cli, groups = setup_once(args.workload, args.seed, workdir)
    untraced_s, plain = run_pass(cli, groups)
    cli = fresh_import()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced = run_pass(cli, groups, tracer)
    finally:
        tracer.uninstall()
    for (request, _s, a), (_r, _t, b) in zip(plain, traced):
        if a != b:
            raise BenchError(f"{request.name}: traced outcome {b} differs from untraced {a}")
    if tracer.hook_errors:
        raise BenchError(f"{tracer.hook_errors} counter hooks failed")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}"))
    tracer.analyse()
    rows = per_layer(spec, tracer, sys.modules["herbrand.sat"], untraced_s, traced_s)
    calls, self_s = tracer.calls, tracer.self_s
    print(f"workload {args.workload}: untraced pass {untraced_s:.3f}s, "
          f"traced pass {traced_s:.3f}s, {sum(calls.values())} spans, "
          f"tracer's own time {tracer.overhead_s:.3f}s")
    print_failures(traced)
    print("top self times:")
    for key, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:15]:
        print(f"  {key:<40} {value:10.4f}s  {100 * value / traced_s:5.1f}%  calls={calls[key]}")
    return rows, plain + traced


def profile(args, workdir) -> None:
    import cProfile
    import pstats

    _seconds, cli, groups = setup_once(args.workload, args.seed, workdir)
    for group in groups:
        names = [r.name for r in group]
        if args.profile in names:
            break
    else:
        raise BenchError(f"no request named {args.profile!r} in {args.workload}")
    for request in group[:names.index(args.profile)]:
        issue(cli, request)
    request = group[names.index(args.profile)]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        seconds, outcome = issue(cli, request)
    finally:
        profiler.disable()
    print(f"{request.name}: {' '.join(request.argv)}")
    print(f"outcome {outcome} in {seconds:.3f}s (profiled)")
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(PROFILE_TOP)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result, tagged, to this JSON-lines file")
    p.add_argument("--profile", metavar="REQUEST",
                   help="print a cProfile top list for one named request")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two JSON-lines files written with --out")
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            compare.main(spec, *args.compare)
            return 0
        if args.workload is None:
            p.error("--workload is required")
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "herbrand", "cli.py")):
            raise BenchError(f"no herbrand sources under {src}")
        sys.path.insert(0, src)
        workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
        try:
            if args.profile:
                profile(args, workdir)
                return 0
            rows, results = (trace if args.trace else measure)(args, spec, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, workloads.WrongAnswer) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    result = report(rows, results)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
