#!/usr/bin/env python3
"""A/B comparison of two sets of e2e benchmark runs (standard library only).

  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds BENCH_e2e.json files (at any depth), one per
`run.py --out DIR` run. Runs pair up by seed. For every workload and
end-to-end metric of BENCHMARK.json this prints each side's median and
quartiles, the pairs the change won, and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  fewer than 10 pairs, pairs not run in alternating order, or a
              side's interquartile range wider than the bound (unless every
              change run beats every parent run);
  no-worse    otherwise.

Exits 1 when any metric regressed.
"""

import glob
import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MIN_PAIRS = 10


def load_runs(directory):
    """Returns {seed: run} for the timed pass of every BENCH_e2e.json."""
    runs = {}
    pattern = os.path.join(directory, "**", "BENCH_e2e.json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        values = {(r["workload"], r["metric"]): r["value"]
                  for r in data["rows"] if r["pass"] == "timed"}
        if data["seed"] in runs:
            sys.exit(f"{path}: seed {data['seed']} appears twice in {directory}")
        runs[data["seed"]] = {"start": data["started_unix"], "values": values}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def alternating(parent, change, seeds):
    """True when consecutive pairs (in time order) swap which side ran first."""
    firsts = [parent[s]["start"] < change[s]["start"]
              for s in sorted(seeds, key=lambda s: min(parent[s]["start"],
                                                       change[s]["start"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def fmt(q):
    return "/".join(f"{x:.4g}" for x in q)


def verdict(p_vals, c_vals, higher_better, bound, ordered):
    """Returns (pairs the change won, verdict)."""
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for p, c in zip(p_vals, c_vals) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    gain = sign * (cm - pm)
    if len(p_vals) < MIN_PAIRS or not ordered:
        return wins, "unresolved"
    if wins >= 0.9 * len(p_vals) and gain > p3 - p1:
        return wins, "improved"
    separated = (min(c_vals) > max(p_vals)) if higher_better else (max(c_vals) < min(p_vals))
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not separated:
        return wins, "unresolved"
    if -gain > bound * abs(pm):
        return wins, "regressed"
    return wins, "no-worse"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parent, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        sys.exit("no seed was run on both sides")
    ordered = alternating(parent, change, seeds)
    print(f"{len(seeds)} pairs (seeds {seeds[0]}..{seeds[-1]}); "
          f"alternating order: {'yes' if ordered else 'NO'}")
    print(f"{'workload':12} {'metric':16} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>6} verdict")
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            pairs = [(parent[s]["values"][key], change[s]["values"][key])
                     for s in seeds
                     if key in parent[s]["values"] and key in change[s]["values"]]
            if not pairs:
                continue
            p_vals = [p for p, _ in pairs]
            c_vals = [c for _, c in pairs]
            wins, v = verdict(p_vals, c_vals, metric["better"] == "higher",
                              metric["bound"], ordered)
            regressed |= v == "regressed"
            print(f"{workload:12} {metric['name']:16} {fmt(quartiles(p_vals)):>32} "
                  f"{fmt(quartiles(c_vals)):>32} {wins:>3}/{len(pairs):<2} {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
