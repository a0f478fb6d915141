"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by ``bench/run.py``
(or one such file). Runs are grouped by workload and trace mode and paired
in the order they were made, so alternate parent and change runs when making
them. One row per workload and metric gives each side's median and
quartiles, the change's share of pair wins, and a verdict:

* ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's quartile
  spread;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (for a metric without a bound, the
  mirror of ``better``);
* ``unresolved``: the parent's own spread is wider than the bound, and not
  every change run beats every parent run (without a bound: the medians
  differ by more than the spread but neither side wins nine tenths);
* ``unchanged``: otherwise.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str):
    """(workload, trace) -> list of result records, oldest first."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    groups = defaultdict(list)
    for name in files:
        with open(name) as fh:
            rec = json.load(fh)
        if "metrics" in rec and "workload" in rec:
            groups[(rec["workload"], rec["trace"])].append(rec)
    for runs in groups.values():
        runs.sort(key=lambda r: r["env"]["started_utc"])
    return groups


def load_bounds():
    """End-to-end metric name -> bound, from BENCHMARK.json if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    """Verdict and win share for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum((p - c) * sign > 0 for p, c in pairs)
    losses = sum((c - p) * sign > 0 for p, c in pairs)
    win_share = wins / len(pairs)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gain = (med_p - med_c) * sign
    spread = q3 - q1
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "better", win_share
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", win_share
        return ("unchanged" if abs(gain) <= spread else "unresolved"), win_share
    scale = abs(med_p) or 1.0
    if -gain > bound * scale:
        return "worse", win_share
    all_better = all((p - c) * sign > 0 for p in parent for c in change)
    if spread > bound * scale and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def compare(parent_groups, change_groups, bounds):
    """Rows of (workload, trace, metric, unit, parent q, change q, share, verdict)."""
    rows = []
    for key in sorted(set(parent_groups) & set(change_groups)):
        p_runs, c_runs = parent_groups[key], change_groups[key]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        for name, meta in p_runs[0]["metric_info"].items():
            if not all(name in r["metrics"] for r in p_runs + c_runs):
                continue
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            bound = bounds.get(name) if key[1] == 0 else None
            v, share = verdict(p, c, meta["better"], bound)
            rows.append(
                (key[0], key[1], name, meta["unit"], quartiles(p), quartiles(c), share, v)
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), load_bounds())
    if not rows:
        sys.exit("no workload has results on both sides")
    print(
        "%-12s %-5s %-52s %-6s %-30s %-30s %5s %s"
        % ("workload", "trace", "metric", "unit", "parent med [q1, q3]",
           "change med [q1, q3]", "wins", "verdict")
    )
    for wl, trace, name, unit, p, c, share, v in rows:
        print(
            "%-12s %-5d %-52s %-6s %-30s %-30s %4.0f%% %s"
            % (wl, trace, name, unit,
               "%.5g [%.5g, %.5g]" % (p[1], p[0], p[2]),
               "%.5g [%.5g, %.5g]" % (c[1], c[0], c[2]),
               100 * share, v)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
