"""Span tracing of triporo's layers from outside the package.

Each traced function is replaced, at every module attribute and class
attribute of the ``triporo`` package that binds it, by a wrapper that
records a span (id, function, parent span, start, end).  Calls made through
imported names (``curves.invert``, ``model.alpha_roots``,
``cli.pressure_curve``, ...) are therefore traced like direct calls.  Spans
stay in memory and are written out once, at the end of the traced run.

Self time is a span's duration minus its children's durations, minus the
wrapper's own cost: ``c_in`` (inside the span's interval) and ``c_out``
(outside it, charged to the parent), both measured by ``calibrate``.
"""

import statistics
import sys
import time
from array import array

import numpy as np

#: The traced functions as (layer, name); the layers are triporo's modules.
TARGETS = (
    ("cli", "main"), ("cli", "cmd_curve"), ("cli", "cmd_laplace"),
    ("curves", "pressure_curve"), ("curves", "bourdet_derivative"),
    ("curves", "write_curve"),
    ("inversion", "invert"), ("inversion", "stehfest_weights"),
    ("model", "laplace_assembly"), ("model", "m_terms"),
    ("model", "characteristic_coefficients"), ("model", "boundary_vectors"),
    ("model", "solve_boundary"), ("model", "LaplaceAssembly.wellbore_pressures"),
    ("model", "wellbore_pressure_laplace"),
    ("roots", "alpha_roots"), ("roots", "solve_cubic_real"),
    ("specfun", "bessel_k0_scaled"), ("specfun", "bessel_k1_scaled"),
)
LAYERS = ("cli", "curves", "inversion", "model", "roots", "specfun")
ROOT = "op"

_clock = time.perf_counter_ns


def _resolve(layer: str, name: str):
    """(owner, attribute) of a target's definition, e.g. a class for a method."""
    owner = sys.modules[f"triporo.{layer}"]
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def binding_sites(func):
    """Every (owner, attribute) in the triporo package that holds ``func``."""
    sites = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "triporo" or modname.startswith("triporo.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is func:
                sites.append((mod, attr))
            elif isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is func:
                        sites.append((value, cattr))
    return sites


class Patch:
    """Replaces each target at all of its binding sites; ``undo`` restores."""

    def __init__(self, make_wrapper, targets=TARGETS):
        self.originals = []
        self._undo = []
        for ix, (layer, name) in enumerate(targets):
            owner, attr = _resolve(layer, name)
            func = vars(owner)[attr]
            self.originals.append(func)
            wrapper = make_wrapper(ix, func)
            for site_owner, site_attr in binding_sites(func):
                setattr(site_owner, site_attr, wrapper)
                self._undo.append((site_owner, site_attr, func))

    def undo(self) -> None:
        for owner, attr, func in reversed(self._undo):
            setattr(owner, attr, func)
        self._undo.clear()


class Tracer:
    """Records one span per call of each target, plus one root span per op.

    Span ids are assigned on entry; records are appended on exit as
    (id, function index, parent id, start ns, end ns).  Function index 0 is
    the root span; targets are 1..len(TARGETS).
    """

    def __init__(self, targets=TARGETS):
        self.names = [ROOT] + [f"{layer}.{name}" for layer, name in targets]
        self.layer_of = [None] + [layer for layer, _ in targets]
        self.records = array("q")
        self.errors = dict.fromkeys(LAYERS, 0)
        self._stack = [-1]
        self._next = [0]
        self._targets = targets
        self._patch = None

    def wrap(self, ix: int, func):
        records, stack, nxt = self.records, self._stack, self._next
        layer = self.layer_of[ix]
        errors = self.errors

        def traced(*args, **kwargs):
            me = nxt[0]
            nxt[0] = me + 1
            parent = stack[-1]
            stack.append(me)
            t0 = _clock()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                if layer is not None:
                    seen = getattr(exc, "_perfbench_layers", None)
                    if seen is None:
                        seen = set()
                        try:
                            exc._perfbench_layers = seen
                        except AttributeError:
                            pass
                    if layer not in seen:
                        seen.add(layer)
                        errors[layer] += 1
                raise
            finally:
                t1 = _clock()
                stack.pop()
                records.extend((me, ix, parent, t0, t1))

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        self._patch = Patch(lambda ix, f: self.wrap(ix + 1, f), self._targets)

    def uninstall(self) -> None:
        if self._patch is not None:
            self._patch.undo()
            self._patch = None

    def run_op(self, func, *args):
        """Call ``func(*args)`` under a root span."""
        return self.wrap(0, func)(*args)

    @property
    def span_count(self) -> int:
        return len(self.records) // 5

    def spans(self) -> dict:
        """The spans as id-ordered numpy columns, with each span's op index."""
        rec = np.frombuffer(self.records, dtype=np.int64).reshape(-1, 5)
        rec = rec[np.argsort(rec[:, 0], kind="stable")]
        fn = rec[:, 1]
        root_ids = rec[fn == 0, 0]
        op = np.searchsorted(root_ids, rec[:, 0], side="right") - 1
        return {"id": rec[:, 0], "fn": fn, "parent": rec[:, 2],
                "start": rec[:, 3], "end": rec[:, 4], "op": op}

    def save(self, path, spans: dict) -> None:
        np.savez(path, names=np.array(self.names), **spans)


def calibrate(n: int = 20000, repeats: int = 7) -> tuple[float, float]:
    """Wrapper cost per span in ns: (c_in, c_out).

    c_in is the part inside the span's own [start, end] interval beyond the
    bare call, c_out the part its parent sees outside that interval.
    """
    def noop():
        return None

    bare, inside, outside = [], [], []
    r = range(n)
    for _ in range(repeats):
        tracer = Tracer(targets=())
        traced = tracer.wrap(0, noop)
        t0 = _clock()
        for _ in r:
            pass
        t1 = _clock()
        for _ in r:
            noop()
        t2 = _clock()
        for _ in r:
            traced()
        t3 = _clock()
        rec = np.frombuffer(tracer.records, dtype=np.int64).reshape(-1, 5)
        dur = float((rec[:, 4] - rec[:, 3]).sum())
        bare.append((t2 - t1) / n - (t1 - t0) / n)
        inside.append(dur / n)
        outside.append((t3 - t2 - dur) / n - (t1 - t0) / n)
    c_in = max(0.0, statistics.median(inside) - statistics.median(bare))
    c_out = max(0.0, statistics.median(outside))
    return c_in, c_out


def layer_metrics(tracer: Tracer, spans: dict, c_in: float, c_out: float) -> dict:
    """Per-function calls per op, median self time, share of traced op time."""
    fn, parent = spans["fn"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    n = len(fn)
    child = np.zeros(n)
    has_parent = parent >= 0
    # Span ids are 0..n-1 in order, so a parent id is also its row index.
    np.add.at(child, parent[has_parent], dur[has_parent] + c_out)
    self_ns = np.maximum(dur - c_in - child, 0.0)
    roots = fn == 0
    n_ops = int(roots.sum())
    op_time = float(dur[roots].sum())
    out = {}
    counts = np.zeros((n_ops, len(tracer.names)), dtype=np.int64)
    np.add.at(counts, (spans["op"], fn), 1)
    for ix, name in enumerate(tracer.names[1:], start=1):
        mask = fn == ix
        calls = float(np.median(counts[:, ix])) if n_ops else 0.0
        self_us = float(np.median(self_ns[mask])) / 1e3 if mask.any() else 0.0
        share = float(self_ns[mask].sum()) / op_time if op_time else 0.0
        out[f"{name}.calls"] = calls
        out[f"{name}.self_us"] = self_us
        out[f"{name}.share"] = share
    traced_spans = int((~roots).sum())
    accounted = float(self_ns[~roots].sum()) + traced_spans * (c_in + c_out)
    out["trace.accounted_frac"] = accounted / op_time if op_time else 0.0
    out["trace.spans_per_op"] = traced_spans / n_ops if n_ops else 0.0
    out["trace.span_ns"] = c_in + c_out
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(tracer.errors[layer])
    return out


class Capture:
    """Records the arguments of every call to each target while installed."""

    def __init__(self, targets=TARGETS):
        self.names = [f"{layer}.{name}" for layer, name in targets]
        self.calls = [[] for _ in targets]
        self.originals = []
        self._targets = targets
        self._patch = None

    def _wrap(self, ix: int, func):
        calls = self.calls[ix]

        def capturing(*args, **kwargs):
            calls.append((args, kwargs))
            return func(*args, **kwargs)

        return capturing

    def __enter__(self):
        self._patch = Patch(self._wrap, self._targets)
        self.originals = self._patch.originals
        return self

    def __exit__(self, *exc):
        self._patch.undo()
        return False


def sample(calls: list, k: int) -> list:
    """Up to k calls spread evenly over the list."""
    if len(calls) <= k:
        return list(calls)
    step = len(calls) / k
    return [calls[int(i * step)] for i in range(k)]


def isolated_us(func, calls: list, budget_ns: float = 2e7, repeats: int = 5) -> float:
    """Median untraced time per call, in µs, over the captured calls."""
    t0 = _clock()
    for args, kwargs in calls:
        func(*args, **kwargs)
    per_pass = max(_clock() - t0, 1)
    loops = max(1, int(budget_ns // per_pass))
    per_call = []
    for _ in range(repeats):
        t0 = _clock()
        for _ in range(loops):
            for args, kwargs in calls:
                func(*args, **kwargs)
        per_call.append((_clock() - t0) / (loops * len(calls)))
    return statistics.median(per_call) / 1e3
