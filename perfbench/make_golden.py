"""Record the golden outputs under perfbench/golden/.

Usage, from the checkout root: python3 perfbench/make_golden.py

The goldens were recorded once, at the commit that defined the benchmark.
A change that claims a performance gain never regenerates them: its outputs
must match these to workloads.REL_TOL.

domain_probe.json holds the draws from the full kappa range (down to
1e-12, seed 3) on which pressure_curve raised or returned a non-monotone
curve at that commit; param_scan keeps kappa >= ParamScan.kappa_min and
every traced run re-counts these sets instead.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_program  # noqa: E402
from workloads import (DEFAULT_SEED, GOLDEN_DIR, PARAM_GOLDEN_SETS,  # noqa: E402
                       SCAN_GRID, STEHFEST_N, LaplaceScan, ParamScan, RefCurve,
                       check_series, draw_params)

PROBE_SEED = 3
PROBE_DRAWS = 4000


def write(name: str, payload) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    triporo = import_program()
    GOLDEN_DIR.mkdir(exist_ok=True)
    work = HERE.parent / ".bench_out" / "golden-work"

    ref = RefCurve(triporo, work, DEFAULT_SEED, use_golden=False)
    out = ref.op(ref.next_input())
    ref.check(None, out)
    write("ref_curve", {"p_w": ref.read(out)})

    lap = LaplaceScan(triporo, work, DEFAULT_SEED, use_golden=False)
    out = lap.op(lap.next_input())
    lap.check(None, out)
    write("laplace_scan", {"pw_bar": lap.read(out)[0]})

    scan = ParamScan(triporo, work, DEFAULT_SEED, use_golden=False)
    rng = random.Random(DEFAULT_SEED)
    sets = []
    for _ in range(PARAM_GOLDEN_SETS):
        inp = scan.next_input()
        out = scan.op(inp)
        scan.check(inp, out)
        sets.append({"params": draw_params(rng, scan.kappa_min),
                     "p_w": [pt.p_w for pt in out]})
    write("param_scan", {"seed": DEFAULT_SEED, "sets": sets})

    rng = random.Random(PROBE_SEED)
    grid = triporo.log_time_grid(*SCAN_GRID)
    scheme = triporo.StehfestScheme.of_order(STEHFEST_N)
    failing = []
    for _ in range(PROBE_DRAWS):
        kw = draw_params(rng, 1e-12)
        try:
            pts = triporo.pressure_curve(triporo.TriplePorosityParams(**kw), grid, scheme)
            check_series([pt.p_w for pt in pts])
        except Exception:
            failing.append(kw)
    write("domain_probe", {"seed": PROBE_SEED, "draws": PROBE_DRAWS, "sets": failing})
    return 0


if __name__ == "__main__":
    sys.exit(main())
