"""triporo benchmark: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref_curve --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off: a single
closed-loop client in this process, no extra threads.  ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  ``--workload all``
runs every workload both ways in child processes and prints every metric
by name with its unit.

Each run gates every operation (see workloads.py), prints its metrics one
per line and, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, samples, host calibration) is written under
``.bench_out/results/`` for ``compare.py``.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 7
WARMUP_OPS = 2
CAL_ITERS = 20_000
#: Time of one calibration slice (slice_ms) on the reference host.  Each
#: operation's wall time is reported at reference speed, scaled by
#: CAL_REF_MS over the slice time measured next to it.  The host the
#: benchmark was defined on drifts by 20-60 % over tens of seconds, and the
#: slice follows most of that drift: in a 120 s probe, medians of 10 s
#: windows of ref_curve latency spread 18 % (IQR/median) as wall time and
#: 2 % scaled; in a more volatile hour, 34 % and 9 %.
CAL_REF_MS = 1.5
SPAN_CAP = 400_000           # ~16 MB of span records
ISOLATED_SAMPLES = 32
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import triporo from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "triporo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no triporo source under {src}")
    sys.path.insert(0, str(src))
    import triporo
    import triporo.cli  # noqa: F401  (binds triporo.cli for the workloads)

    if Path(triporo.__file__).resolve().parent != (src / "triporo").resolve():
        raise SystemExit(f"perfbench: imported triporo from {triporo.__file__}, "
                         f"not from {src}")
    return triporo


def slice_ms() -> float:
    """A fixed pure-Python loop; its time follows the host's current speed."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return (time.perf_counter_ns() - t0) / 1e6


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, inp, exc: BaseException) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"op {inp!r:.400}: {type(exc).__name__}: {exc}")


def run_one(wl, tally: Tally, call=None):
    """One gated operation; its wall time in ns, or None when it failed."""
    inp = wl.next_input()
    tally.attempted += 1
    t0 = time.perf_counter_ns()
    try:
        out = call(wl.op, inp) if call else wl.op(inp)
    except Exception as exc:
        tally.fail(inp, exc)
        return None
    dt = time.perf_counter_ns() - t0
    try:
        wl.check(inp, out)
    except Exception as exc:
        tally.fail(inp, exc)
        return None
    return dt


def closed_loop(wl, seconds: float, tally: Tally, call=None,
                stop=lambda: False, min_ops: int = 1) -> tuple[list, list]:
    """Run operations back to back for ``seconds``, a calibration slice
    between each two.  Returns the completed operations' wall times in ns
    and, for each, the lesser of the slice times before and after it."""
    times, slices = [], []
    deadline = time.perf_counter() + seconds
    before = slice_ms()
    done = 0
    while done < min_ops or (time.perf_counter() < deadline and not stop()):
        dt = run_one(wl, tally, call)
        after = slice_ms()
        done += 1
        if dt is not None:
            times.append(dt)
            slices.append(min(before, after))
        before = after
    return times, slices


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_setup(config: Path) -> list:
    """Wall times in s of fresh set-up processes."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which quantizes the measured time.
        subprocess.run([sys.executable, str(probe), str(ROOT), str(config)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup = measure_setup(wl.config_path)
    for _ in range(WARMUP_OPS):
        run_one(wl, tally)
    gc.collect()
    times, slices = closed_loop(wl, seconds, tally)
    if not times:
        raise RuntimeError("no operation completed")
    wall = [t / 1e6 for t in times]
    lat = sorted(t * CAL_REF_MS / s for t, s in zip(wall, slices))
    busy_s = sum(lat) / 1e3
    # Set-up is scaled by the run's median slice: one slice next to a 0.5 s
    # process follows its speed poorly, the run's median follows the drift.
    metrics = {
        "setup_s": statistics.median(setup) * CAL_REF_MS / statistics.median(slices),
        "latency_ms.p50": statistics.median(lat),
        "latency_ms.p90": quantile(lat, 0.9),
        "ops_per_s": len(lat) / busy_s,
        "evals_per_s": len(lat) * wl.evals_per_op / busy_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setup_s": len(setup), "latency_ms.p50": len(lat),
        "latency_ms.p90": len(lat), "ops_per_s": len(lat),
        "evals_per_s": len(lat), "peak_rss_mb": 1,
    }
    wall_sorted = sorted(wall)
    detail = {"samples": samples,
              "p90_tail_samples": len(lat) - math.ceil(0.9 * len(lat)),
              "wall": {"setup_s": statistics.median(setup),
                       "latency_ms.p50": statistics.median(wall_sorted),
                       "latency_ms.p90": quantile(wall_sorted, 0.9)},
              "wall_latency_ms": wall, "slice_ms": slices,
              "setup_s": setup}
    return metrics, detail


def isolated_timings(triporo, workdir: Path) -> tuple[dict, int]:
    """Untraced time per call of each traced function on captured inputs.

    Inputs are captured from one ref_curve operation; functions it never
    calls (the laplace command) take theirs from one laplace_scan operation.
    Also returns the laplace dump's count of non-finite fields.
    """
    from tracing import Capture, isolated_us, sample
    from workloads import LaplaceScan, RefCurve

    ref = RefCurve(triporo, workdir / "capture", 0)
    lap = LaplaceScan(triporo, workdir / "capture", 0)
    with Capture() as cap_ref:
        ref.check(None, ref.op(ref.next_input()))
    with Capture() as cap_lap:
        lap.check(None, lap.op(lap.next_input()))
    out = {}
    for ix, name in enumerate(cap_ref.names):
        calls = cap_ref.calls[ix] or cap_lap.calls[ix]
        if not calls:
            raise RuntimeError(f"{name} was not called by ref_curve or laplace_scan")
        out[f"{name}.isolated_us"] = isolated_us(cap_ref.originals[ix],
                                                 sample(calls, ISOLATED_SAMPLES))
    return out, lap.nonfinite_fields


def domain_probe(triporo) -> tuple[int, int]:
    """Pinned parameter sets that fail at the defining commit: (failed, sets)."""
    from workloads import SCAN_GRID, STEHFEST_N, check_series, load_golden

    sets = load_golden("domain_probe")["sets"]
    grid = triporo.log_time_grid(*SCAN_GRID)
    scheme = triporo.StehfestScheme.of_order(STEHFEST_N)
    failed = 0
    for kw in sets:
        try:
            pts = triporo.pressure_curve(triporo.TriplePorosityParams(**kw), grid, scheme)
            check_series([pt.p_w for pt in pts])
        except Exception:
            failed += 1
    return failed, len(sets)


def per_layer(triporo, wl, seconds: float, tally: Tally,
              workdir: Path, trace_path: Path) -> tuple[dict, dict]:
    from tracing import Tracer, calibrate, layer_metrics

    for _ in range(WARMUP_OPS):
        run_one(wl, tally)
    untraced, _ = closed_loop(wl, 0.25 * seconds, tally, min_ops=3)
    c_in, c_out = calibrate()
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        closed_loop(wl, 0.5 * seconds, tally, call=tracer.run_op,
                    stop=lambda: tracer.span_count >= SPAN_CAP)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    metrics = layer_metrics(tracer, spans, c_in, c_out)
    roots = spans["fn"] == 0
    traced_ns = (spans["end"] - spans["start"])[roots]
    metrics["trace.overhead_frac"] = (float(statistics.median(traced_ns))
                                      / statistics.median(untraced) - 1.0)
    isolated, nonfinite = isolated_timings(triporo, workdir)
    metrics.update(isolated)
    metrics["cli.laplace.nonfinite_fields"] = float(nonfinite)
    probe_failed, probe_sets = domain_probe(triporo)
    metrics["curves.domain_probe.failed"] = float(probe_failed)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(trace_path, spans)
    detail = {"c_in_ns": c_in, "c_out_ns": c_out, "traced_ops": int(roots.sum()),
              "untraced_ops": len(untraced), "spans": int(len(spans["fn"])),
              "domain_probe_sets": probe_sets, "trace_file": str(trace_path)}
    return metrics, detail


def run_workload(args, spec: dict) -> dict:
    from workloads import WORKLOADS

    triporo = import_program()
    stamp = datetime.now(timezone.utc)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started": stamp.isoformat(),
              "environment": environment()}
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](triporo, workdir, args.seed)
        if args.trace:
            values, detail = per_layer(
                triporo, wl, args.seconds, tally, workdir,
                out_dir / "traces" / f"{args.workload}.npz")
            wanted = spec["per_layer"]
        else:
            values, detail = end_to_end(wl, args.seconds, tally)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(detail=detail, cal_ref_ms=CAL_REF_MS,
                  attempted=tally.attempted, failed=tally.failed,
                  failures=tally.reasons, metrics=metrics,
                  finished=datetime.now(timezone.utc).isoformat())
    results = Path(args.results_dir) if args.results_dir else out_dir / "results"
    path = (results / args.workload / f"trace{args.trace}"
            / f"{stamp:%Y%m%dT%H%M%S%f}-seed{args.seed}-{os.getpid()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    samples = detail.get("samples", {})
    for name, m in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{args.workload:<13} {name:<52} {m['value']:>16.6g} {m['unit']}{n}")
    if "wall" in detail:
        sl = detail["slice_ms"]
        print(f"{args.workload:<13} wall time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in detail["wall"].items())
            + f"; calibration slice median {statistics.median(sl):.4g} ms "
              f"(min {min(sl):.4g}, max {max(sl):.4g}, reference {CAL_REF_MS})")
    print(f"{args.workload:<13} attempted {tally.attempted}, failed {tally.failed}; record {path}")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args, spec: dict) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.results_dir:
                cmd += ["--results-dir", args.results_dir]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                combined["metrics"][f"{w['name']}/{name}"] = m
    return combined


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", help="where to write the run record "
                        "(default .bench_out/results)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_all(args, spec) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
