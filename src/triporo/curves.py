"""Time-domain pressure and log-derivative curves, plus CSV/JSON output."""

import json
import math
from dataclasses import dataclass, fields

from .inversion import StehfestScheme, invert
from .model import TriplePorosityParams, wellbore_pressure_laplace


@dataclass(frozen=True)
class CurvePoint:
    """One (t_D, p_w, dp_w/dln t_D) sample; derivative None when undefined."""

    t_D: float
    p_w: float
    dp_w_dlnt: float | None = None


CSV_HEADER = ",".join(f.name for f in fields(CurvePoint))
CURVE_FORMATS = ("csv", "json")


def log_time_grid(t_min: float, t_max: float, points_per_decade: int) -> list[float]:
    """Log-uniform grid from t_min to t_max inclusive."""
    if not (t_min > 0.0 and math.isfinite(t_min)):
        raise ValueError(f"t_min must be positive, got {t_min!r}")
    if not (t_max > t_min and math.isfinite(t_max)):
        raise ValueError(f"t_max must exceed t_min, got {t_max!r}")
    if (points_per_decade < 1 or not math.isfinite(points_per_decade)
            or points_per_decade != int(points_per_decade)):
        raise ValueError(f"points_per_decade must be an integer >= 1, got {points_per_decade!r}")
    lo, hi = math.log10(t_min), math.log10(t_max)
    n = max(1, round((hi - lo) * points_per_decade)) + 1
    # Only interior points are formed: 10.0 ** log10(t_max) can overflow
    # when t_max is within rounding of the largest double.
    return [t_min, *[10.0 ** (lo + (hi - lo) * k / (n - 1)) for k in range(1, n - 1)], t_max]


def bourdet_derivative(grid, values) -> list[float]:
    """Weighted central differences of ``values`` with respect to ln t.

    Interior points combine the slopes to the adjacent points on each side.
    Endpoints are one-sided differences and carry lower quality.
    """
    if len(grid) != len(values):
        raise ValueError(f"grid and values differ in length: {len(grid)} vs {len(values)}")
    if len(grid) < 3:
        raise ValueError(f"need at least 3 points, got {len(grid)}")
    lnt = [math.log(t) for t in grid]
    for a, b in zip(lnt, lnt[1:]):
        if b <= a:
            raise ValueError("time grid must be strictly increasing")
    n = len(grid)
    out = []
    for i in range(n):
        if i == 0:
            out.append((values[1] - values[0]) / (lnt[1] - lnt[0]))
            continue
        if i == n - 1:
            out.append((values[-1] - values[-2]) / (lnt[-1] - lnt[-2]))
            continue
        dl = lnt[i] - lnt[i - 1]
        dr = lnt[i + 1] - lnt[i]
        sl = (values[i] - values[i - 1]) / dl
        sr = (values[i + 1] - values[i]) / dr
        out.append((sl * dr + sr * dl) / (dl + dr))
    return out


def pressure_curve(p: TriplePorosityParams, grid, scheme: StehfestScheme) -> list[CurvePoint]:
    """Invert the wellbore pressure on the grid and attach the derivative.

    The grid must be non-empty, positive, finite and strictly increasing;
    a bad grid raises ValueError before any inversion runs.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("time grid is empty")
    if not (grid[0] > 0.0 and math.isfinite(grid[-1])):
        raise ValueError(f"time grid must be positive and finite, spans "
                         f"{grid[0]!r} -> {grid[-1]!r}")
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError(f"time grid must be strictly increasing ({a!r} -> {b!r})")
    values = [invert(lambda u: wellbore_pressure_laplace(p, u), t, scheme)
              for t in grid]
    if len(grid) >= 3:
        derivs = bourdet_derivative(grid, values)
    else:
        derivs = [None] * len(values)
    return [CurvePoint(t_D=t, p_w=v, dp_w_dlnt=d)
            for t, v, d in zip(grid, values, derivs)]


def write_csv(header: str, columns, destination) -> None:
    """Write a header line and one line per row, from columns of text fields:
    line j joins field j of every column.  Callers render each value in
    round-trip precision (``repr``).

    ``float.__repr__`` is the floor: on the benchmark's 993-row ``laplace``
    dump, 10.6 ms of it against 0.8 ms for the rest of the render and 4.4 ms
    for the batch (best of 40, in-process, shared 2-core x86-64 host)."""
    _write_text("\n".join([header, *map(",".join, zip(*columns)), ""]), destination)


def write_curve(points, fmt: str, destination) -> None:
    """Write points as CSV or JSON; values render in round-trip precision,
    and in CSV a None is an empty field."""
    points = list(points)
    if not points:
        raise ValueError("refusing to write an empty curve")
    if fmt == "csv":
        columns = zip(*(vars(pt).values() for pt in points))
        write_csv(CSV_HEADER, [["" if v is None else repr(float(v)) for v in column]
                               for column in columns], destination)
    elif fmt == "json":
        _write_text(json.dumps([vars(pt) for pt in points], indent=2) + "\n", destination)
    else:
        raise ValueError(f"unknown curve format {fmt!r}")


def _write_text(text: str, destination) -> None:
    """Write text as UTF-8 with LF line endings; an OSError names the path."""
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            # In 64 KiB slices, so that no encoded copy of a whole dump is made.
            for i in range(0, len(text), 1 << 16):
                fh.write(text[i:i + (1 << 16)])
    except OSError as exc:
        raise OSError(f"cannot write {destination!r}: {exc}") from exc
