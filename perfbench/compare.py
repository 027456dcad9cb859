#!/usr/bin/env python3
"""Compares two sets of benchmark results: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the result documents perfbench/run.py wrote (its
--out directory), from runs of identical benchmark code and settings on
the two commits. For every workload and metric the report gives each
side's median and quartiles over its runs and the pairs the change won
(runs paired by seed, or in seed order when the sets share no seed; a
tie counts for neither side).

End-to-end metrics get a verdict against the bounds in BENCHMARK.json:

  improved    the change wins at least 9 in 10 pairs and its median beats
              the parent's by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  neither, and the parent's own spread is wider than the
              bound, unless every change run beats every parent run
  unchanged   otherwise

Per-layer metrics (traced runs) have no bound; they are reported with
medians, quartiles and pairs won only. wKS / mKS are deterministic at a
seed: any difference on a shared seed is reported as a numerics change.

Each workload also gets a line comparing the attempts run.py voided (hung,
crashed or invalid runs it repeated) per result on each side: worse when
the change voided at least twice and more than twice as often as the
parent, improved the other way round, unchanged otherwise.

Exits 1 when any end-to-end metric or voided-attempt rate is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): [doc, ...]} of the result documents in directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if "workload" not in doc or "end_to_end" not in doc:
            continue
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return runs


def values_by_seed(docs, section, name):
    out = {}
    for doc in docs:
        metric = doc.get(section, {}).get(name)
        if metric is not None and metric.get("value") is not None:
            out.setdefault(doc["seed"], []).append(metric["value"])
    return out


def summary(values):
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    return values[0], values[0], values[0]


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def pairs(parent, change, direction):
    """(won, played): runs paired by seed, in run order within a seed; when
    the two sets share no seed, paired in seed order."""
    shared = sorted(set(parent) & set(change))
    if shared:
        matched = [(p, c) for seed in shared
                   for p, c in zip(parent[seed], change[seed])]
    else:
        matched = list(zip([v for s in sorted(parent) for v in parent[s]],
                           [v for s in sorted(change) for v in change[s]]))
    return sum(better(c, p, direction) for p, c in matched), len(matched)


def verdict(parent_values, change_values, won, played, direction, bound):
    p_med, p_q1, p_q3 = summary(parent_values)
    c_med, _, _ = summary(change_values)
    worse_by = (c_med - p_med) / p_med if direction == "lower" else \
        (p_med - c_med) / p_med
    spread = p_q3 - p_q1
    if played and won >= 0.9 * played and better(c_med, p_med, direction) \
            and abs(c_med - p_med) > spread:
        return "improved"
    if worse_by > bound:
        return "worse"
    all_better = all(better(c, p, direction)
                     for c in change_values for p in parent_values)
    if spread / abs(p_med) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def voided(docs):
    """(voided attempts, results) over the result documents `docs`."""
    return sum(len(d.get("voided_attempts", [])) for d in docs), len(docs)


def voided_verdict(parent, change):
    (p_void, p_runs), (c_void, c_runs) = parent, change
    p_rate, c_rate = p_void / p_runs, c_void / c_runs
    if c_void >= 2 and c_rate > 2 * p_rate:
        return "worse"
    if p_void >= 2 and p_rate > 2 * c_rate:
        return "improved"
    return "unchanged"


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("compare: no result documents in one of the directories",
              file=sys.stderr)
        return 2
    versions = {d["benchmark_version"] for docs in (*parent.values(),
                                                    *change.values())
                for d in docs}
    if len(versions) > 1:
        print(f"compare: warning: mixed benchmark versions {sorted(versions)}")

    any_worse = False
    header = (f"{'workload':12s} {'metric':36s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'won':>7s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        rows = [(0, "end_to_end", m) for m in spec["end_to_end"]]
        rows += [(1, "per_layer", m) for m in spec["per_layer"]]
        for trace, section, metric in rows:
            p_docs = parent.get((workload, trace), [])
            c_docs = change.get((workload, trace), [])
            p_seeded = values_by_seed(p_docs, section, metric["name"])
            c_seeded = values_by_seed(c_docs, section, metric["name"])
            p_values = [v for vs in p_seeded.values() for v in vs]
            c_values = [v for vs in c_seeded.values() for v in vs]
            if not p_values or not c_values:
                continue
            won, played = pairs(p_seeded, c_seeded, metric["better"])
            p_med, p_q1, p_q3 = summary(p_values)
            c_med, c_q1, c_q3 = summary(c_values)
            if "bound" in metric:
                result = verdict(p_values, c_values, won, played,
                                 metric["better"], metric["bound"])
                any_worse |= result == "worse"
            else:
                result = "-"
            print(f"{workload:12s} {metric['name']:36s} "
                  f"{fmt(p_med) + ' [' + fmt(p_q1) + ', ' + fmt(p_q3) + ']':34s} "
                  f"{fmt(c_med) + ' [' + fmt(c_q1) + ', ' + fmt(c_q3) + ']':34s} "
                  f"{won:>3d}/{played:<3d}  {result}")
        p_docs = parent.get((workload, 0), []) + parent.get((workload, 1), [])
        c_docs = change.get((workload, 0), []) + change.get((workload, 1), [])
        if p_docs and c_docs:
            (p_void, p_runs), (c_void, c_runs) = voided(p_docs), voided(c_docs)
            result = voided_verdict((p_void, p_runs), (c_void, c_runs))
            any_worse |= result == "worse"
            print(f"{workload:12s} {'voided attempts / results':36s} "
                  f"{f'{p_void} / {p_runs}':34s} {f'{c_void} / {c_runs}':34s} "
                  f"{'':7s}  {result}")
        # Deterministic fairness figures: identical bits at a shared seed.
        for name in ("wks", "mks"):
            p_seeded = values_by_seed(parent.get((workload, 0), []),
                                      "end_to_end", name)
            c_seeded = values_by_seed(change.get((workload, 0), []),
                                      "end_to_end", name)
            moved = [s for s in set(p_seeded) & set(c_seeded)
                     if set(p_seeded[s]) != set(c_seeded[s])]
            if moved:
                print(f"{workload:12s} {name:36s} numerics change at seeds "
                      f"{sorted(moved)}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
