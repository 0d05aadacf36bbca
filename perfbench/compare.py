"""Comparison of two result sets written by `run.py --out`.

Each workload and metric gets its own row with both sides' median and
quartiles.  An end-to-end metric is flagged when the new median is worse
than the base median by more than the metric's bound in BENCHMARK.json,
and reported "unresolved" when either side's run-to-run spread (the
distance between its quartiles, as a share of its median) is wider than
the bound, unless every new run is better than every base run.
Per-layer metrics have no bound and are only listed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} from a JSON-lines file."""
    table: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                for name, metric in row["result"]["metrics"].items():
                    table[(row["workload"], row["trace"])][name].append(metric["value"])
    return table


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list) -> float:
    med, q1, q3 = summary(values)
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(metric: dict, base: list, new: list) -> str:
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    b_med, n_med = summary(base)[0], summary(new)[0]
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if max(spread(base), spread(new)) > bound:
        return "better in every run" if all_better else "unresolved"
    if b_med == 0:
        return "same" if n_med == 0 else "changed"
    worse = (n_med - b_med) / abs(b_med) * (1 if lower else -1)
    if worse > bound:
        return f"REGRESSION (bound {bound:.0%})"
    if worse < -bound:
        return "improved"
    return "within bound"


def main(spec: dict, base_path: str, new_path: str) -> None:
    base, new = load(base_path), load(new_path)
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    print(f"{'workload':<11} {'metric':<40} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        for metric in metrics[trace]:
            name = metric["name"]
            b, n = base[key].get(name), new[key].get(name)
            if not b or not n:
                print(f"{workload:<11} {name:<40} missing on one side")
                continue
            bs, ns = summary(b), summary(n)
            change = (ns[0] - bs[0]) / abs(bs[0]) if bs[0] else 0.0
            text = verdict(metric, b, n) if trace == 0 else ""
            print(f"{workload:<11} {name:<40} {_fmt(bs):>34} {_fmt(ns):>34} "
                  f"{change:>+8.1%}  {text}")


def _fmt(stats: tuple) -> str:
    return f"{stats[0]:.5g} [{stats[1]:.5g}, {stats[2]:.5g}]"
