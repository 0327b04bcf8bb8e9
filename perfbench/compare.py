"""Compare two result sets of the benchmark: a parent and a change.

Usage: python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of run records written by run.py
(``--results-dir``), searched recursively; only untraced (--trace 0) runs
are compared.  Make the runs as alternating pairs with identical settings,
for example, from the checkout root of each commit in turn:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 perfbench/run.py --workload W --seed $seed --results-dir ../res/parent)
      (cd change && python3 perfbench/run.py --workload W --seed $seed --results-dir ../res/change)
    done                         # and start with the change on every other pair

Rules, per workload and end-to-end metric (bounds from BENCHMARK.json):

- runs are paired in start order; the report says whether the side that
  ran first alternated;
- GAIN needs the change to win at least 9/10 of the pairs (ties count for
  neither side) and the medians to differ by more than the parent's
  inter-quartile range;
- UNRESOLVED when either side's spread (IQR / median) exceeds the bound,
  unless every change run is better than every parent run;
- REGRESSION when the change's median is worse than the parent's by more
  than the bound; otherwise "no regression";
- a higher failed fraction (failed / attempted) on the change side
  REJECTS the change for that workload.

The exit code is 1 when any workload is rejected or regressed, else 0.
"""

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: str) -> dict:
    """Untraced run records by workload, in start order."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["started"])
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple[str, dict]:
    sign = -1.0 if better == "lower" else 1.0
    n = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent[:n], change[:n]) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    worse = -sign * (cm - pm) / abs(pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    stats = {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
             "pairs": n, "spread": spread, "worse": worse}
    gain = (sign * (cm - pm) > 0 and wins >= math.ceil(0.9 * n)
            and abs(cm - pm) > p3 - p1)
    if spread > bound and not all_better:
        return "UNRESOLVED", stats
    if worse > bound:
        return "REGRESSION", stats
    if gain:
        return "GAIN", stats
    return "no regression", stats


def failed_frac(recs: list) -> float:
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else 1.0


def first_alternates(parent: list, change: list) -> bool:
    firsts = [p["started"] < c["started"] for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent_dir: str, change_dir: str, spec: dict) -> int:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    status = 0
    header = (f"{'workload':<13} {'metric':<16} {'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'wins':>7} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    for w in spec["workloads"]:
        name = w["name"]
        p_recs, c_recs = parent.get(name, []), change.get(name, [])
        if not p_recs or not c_recs:
            print(f"{name:<13} missing runs: parent {len(p_recs)}, change {len(c_recs)}")
            continue
        pf, cf = failed_frac(p_recs), failed_frac(c_recs)
        if cf > pf:
            print(f"{name:<13} REJECT: failed fraction {cf:.4g} (change) > {pf:.4g} (parent)")
            status = 1
        if not first_alternates(p_recs, c_recs):
            print(f"{name:<13} note: the side that ran first did not alternate between pairs")
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in p_recs]
            cv = [r["metrics"][m["name"]]["value"] for r in c_recs]
            v, s = verdict(pv, cv, m["better"], m["bound"])
            if v == "REGRESSION":
                status = 1
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{name:<13} {m['name']:<16} {fmt.format(s['parent'][1], s['parent'][0], s['parent'][2]):<34} "
                  f"{fmt.format(s['change'][1], s['change'][0], s['change'][2]):<34} "
                  f"{s['wins']:>3}/{s['pairs']:<3} {s['spread']:>7.3f} {m['bound']:>6.3f}  {v}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return compare(argv[0], argv[1], spec)


if __name__ == "__main__":
    sys.exit(main())
