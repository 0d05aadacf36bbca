"""The benchmark's per-layer counters read functions the package still has.

`perfbench/run.py --trace` stops on a per-layer metric of
`BENCHMARK.json` whose function the tracer did not wrap; this test
finds such a metric without running the benchmark.  It reads the two
files and changes neither.
"""

import importlib
import importlib.util
import inspect
import json
import os
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# read off a module table by `run.py`'s own branch, not a function's counter
TABLES = {"sat.atom_cache.entries"}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counter_stems() -> list:
    """The function named by each counter metric: every per-layer row but
    calls, self time, ratios, whole modules, the tracer's own rows, the
    GROUPS names and module tables."""
    tracer = _tracer()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        rows = json.load(handle)["per_layer"]
    stems = []
    for row in rows:
        stem, _, measure = row["name"].rpartition(".")
        if (measure in ("calls", "self_s") or row["unit"] == "ratio"
                or stem in tracer.MODULES or stem.startswith("trace")
                or stem in tracer.GROUPS.values() or row["name"] in TABLES):
            continue
        stems.append(stem)
    return stems


def test_every_counter_metric_names_a_public_function_of_the_package():
    stems = counter_stems()
    assert "sat.dpll" in stems and "engine.prove_resolution" in stems
    for stem in stems:
        short, _, attr = stem.partition(".")
        module = importlib.import_module(f"herbrand.{short}")
        fn = getattr(module, attr, None)
        # the functions the tracer wraps, so the ones whose counters it keeps
        assert (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)), stem
