"""Command-line front end: curve, sweep, laplace and dimensionless runs.

Configuration is an INI-style file with sections [model] or [physical]
(exactly one), plus optional [grid], [inversion], [output], [sweep] and
[laplace] sections; any other section or key is refused.  The [model] keys
are the fields of TriplePorosityParams; the [physical] keys are those of
PhysicalParams plus the orders beta_m/f/v (each optional, default 1.0).

[output] path names the curve and sweep outputs only; the laplace dump
goes to --out, or else laplace.csv, so it never overwrites a curve.

Exit codes: 0 success, 1 configuration error, 2 model error, 3 I/O error.
"""

import argparse
import configparser
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

from .curves import (CURVE_FORMATS, log_time_grid, pressure_curve, write_csv,
                     write_curve)
from .inversion import StehfestScheme, TransformEvaluationError
from .model import (DimensionlessTransform, ModelError, PhysicalParams,
                    TriplePorosityParams, to_dimensionless)

EXIT_OK, EXIT_CONFIG, EXIT_MODEL, EXIT_IO = 0, 1, 2, 3

MODEL_ERRORS = (ModelError, TransformEvaluationError)

LAPLACE_HEADER = ("u,m1,m2,m3,m4,m5,m6,alpha1,alpha2,alpha3,"
                  "A1,A2,A3,B1,B2,B3,D1,D2,D3,pw_bar")

#: The keys read from each config section; [physical] also reads the orders.
_ORDERS = [f for f in dataclasses.fields(TriplePorosityParams)
           if f.default is not dataclasses.MISSING]
_KEYS = {"model": {f.name for f in dataclasses.fields(TriplePorosityParams)},
         "physical": {f.name for f in (*dataclasses.fields(PhysicalParams), *_ORDERS)},
         "grid": {"t_min", "t_max", "points_per_decade"}, "inversion": {"stehfest_n"},
         "output": {"path", "format"}, "sweep": {"triples"},
         "laplace": {"u_values", "u_min", "u_max", "points_per_decade"}}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage errors to the config exit code."""

    def error(self, message):
        raise ConfigError(message)


def _load(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    _check_keys(cfg)
    return cfg


def _check_keys(cfg) -> None:
    """Refuse what no command reads, and u_values mixed with a [laplace] grid."""
    for section in cfg.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg.options(section):  # [DEFAULT] keys included
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            if section == "laplace" and key != "u_values" and "u_values" in cfg[section]:
                raise ConfigError(f"key {key!r} in [laplace] cannot be combined with u_values")


def _get_float(cfg, section: str, key: str, default=None) -> float:
    if not cfg.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    raw = cfg.get(section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} in [{section}] is not a number: {raw!r}") from exc


def _get_int(cfg, section: str, key: str, default: int) -> int:
    value = _get_float(cfg, section, key, default)
    if not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"key {key!r} in [{section}] must be an integer, got {value!r}")
    return int(value)


def _read_fields(cfg, section: str, fields) -> dict[str, float]:
    """Each dataclass field from [section], in field order; one without a default is required."""
    return {f.name: _get_float(cfg, section, f.name,
                               None if f.default is dataclasses.MISSING else f.default)
            for f in fields}


def _parameter_block(cfg) -> str | None:
    """The parameter section of the config, "model" or "physical"; None if neither."""
    has_model = cfg.has_section("model")
    has_phys = cfg.has_section("physical")
    if has_model and has_phys:
        raise ConfigError("config must contain exactly one of [model] or [physical], not both")
    return "model" if has_model else "physical" if has_phys else None


def _build_params(cfg) -> TriplePorosityParams:
    block = _parameter_block(cfg)
    if block is None:
        raise ConfigError("config must contain a [model] or [physical] section")
    if block == "physical":
        return _build_transform(cfg).params
    vals = _read_fields(cfg, "model", dataclasses.fields(TriplePorosityParams))
    try:
        return TriplePorosityParams(**vals)
    except ValueError as exc:
        raise ConfigError(f"invalid [model] parameters: {exc}") from exc


def _build_transform(cfg) -> DimensionlessTransform:
    """The [physical] transform; its params carry the orders of the block."""
    vals = _read_fields(cfg, "physical", dataclasses.fields(PhysicalParams))
    try:
        phys = PhysicalParams(**vals)
    except ValueError as exc:
        raise ConfigError(f"invalid [physical] parameters: {exc}") from exc
    try:
        scales = to_dimensionless(phys)
    except ValueError as exc:
        raise ConfigError(f"invalid derived dimensionless parameters: {exc}") from exc
    try:
        params = dataclasses.replace(scales.params, **_read_fields(cfg, "physical", _ORDERS))
    except ValueError as exc:
        raise ConfigError(f"invalid [physical] parameters: {exc}") from exc
    return dataclasses.replace(scales, params=params)


def _log_grid(cfg, section: str, where: str, lo_key: str, hi_key: str,
              lo=None, hi=None) -> list[float]:
    """Log grid from ``section``; a bound without a default is required."""
    lo = _get_float(cfg, section, lo_key, lo)
    hi = _get_float(cfg, section, hi_key, hi)
    ppd = _get_int(cfg, section, "points_per_decade", 10)
    # log_time_grid names its bounds t_min and t_max; check ours by their keys.
    if not (math.isfinite(lo) and lo > 0.0):
        raise ConfigError(f"invalid {where}: {lo_key} must be positive, got {lo!r}")
    if not (math.isfinite(hi) and hi > lo):
        raise ConfigError(f"invalid {where}: {hi_key} must exceed {lo_key}, got {hi!r}")
    try:
        return log_time_grid(lo, hi, ppd)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _build_scheme(cfg, args) -> StehfestScheme:
    if args.stehfest_n is not None:
        n = args.stehfest_n
    else:
        n = _get_int(cfg, "inversion", "stehfest_n", 12)
    try:
        return StehfestScheme.of_order(n)
    except ValueError as exc:
        raise ConfigError(f"invalid stehfest_n: {exc}") from exc


def _out_path(cfg, args, command: str, fmt: str) -> Path:
    return Path(args.out or cfg.get("output", "path", fallback=f"{command}.{fmt}"))


def _out_format(cfg, args) -> str:
    fmt = args.format or cfg.get("output", "format", fallback="csv")
    if fmt not in CURVE_FORMATS:
        raise ConfigError(f"output format must be {' or '.join(CURVE_FORMATS)}, got {fmt!r}")
    return fmt


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def cmd_curve(args) -> int:
    cfg = _load(args.config)
    params = _build_params(cfg)
    grid = _log_grid(cfg, "grid", "[grid]", "t_min", "t_max", 1e-2, 1e8)
    scheme = _build_scheme(cfg, args)
    fmt = _out_format(cfg, args)
    out = _out_path(cfg, args, "curve", fmt)
    t0 = time.perf_counter()
    points = pressure_curve(params, grid, scheme)
    write_curve(points, fmt, out)
    _say(args, f"curve: wrote {out} ({len(points)} points, stehfest n={scheme.n}, "
               f"{time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def _sweep_triples(cfg) -> list[tuple[float, float, float]]:
    if not cfg.has_option("sweep", "triples"):
        raise ConfigError("missing required key 'triples' in [sweep]")
    triples = []
    for line in cfg.get("sweep", "triples").splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(f"sweep triple must have 3 values, got {line!r}")
        try:
            triples.append(tuple(float(v) for v in parts))
        except ValueError as exc:
            raise ConfigError(f"bad sweep triple {line!r}: {exc}") from exc
    if not triples:
        raise ConfigError("sweep.triples is empty")
    return triples


def cmd_sweep(args) -> int:
    cfg = _load(args.config)
    params = _build_params(cfg)
    grid = _log_grid(cfg, "grid", "[grid]", "t_min", "t_max", 1e-2, 1e8)
    scheme = _build_scheme(cfg, args)
    fmt = _out_format(cfg, args)
    base = _out_path(cfg, args, "sweep", fmt)
    triples = _sweep_triples(cfg)
    if (1.0, 1.0, 1.0) not in triples:
        triples.append((1.0, 1.0, 1.0))
    failed = False
    for bm, bf, bv in triples:
        name = base.with_name(f"{base.stem}_bm{bm}_bf{bf}_bv{bv}{base.suffix}")
        t0 = time.perf_counter()
        try:
            run = params.with_betas(bm, bf, bv)
            points = pressure_curve(run, grid, scheme)
        except (ValueError, *MODEL_ERRORS) as exc:
            print(f"sweep: triple ({bm}, {bf}, {bv}) failed: {exc}", file=sys.stderr)
            failed = True
            continue
        write_curve(points, fmt, name)
        _say(args, f"sweep: wrote {name} ({len(points)} points, stehfest n={scheme.n}, "
                   f"{time.perf_counter() - t0:.2f}s)")
    return EXIT_MODEL if failed else EXIT_OK


def _u_grid(cfg) -> list[float]:
    if cfg.has_option("laplace", "u_values"):
        raw = cfg.get("laplace", "u_values").split()
        try:
            us = [float(v) for v in raw]
        except ValueError as exc:
            raise ConfigError(f"bad u_values entry: {exc}") from exc
        if not us:
            raise ConfigError("[laplace] u_values is empty")
        bad = [u for u in us if not (math.isfinite(u) and u > 0.0)]
        if bad:
            raise ConfigError(f"u grid must be positive and finite, got {bad}")
        return us
    if cfg.has_section("laplace"):
        return _log_grid(cfg, "laplace", "[laplace] grid", "u_min", "u_max")
    raise ConfigError("laplace command needs a [laplace] section "
                      "(u_values or u_min/u_max)")


def cmd_laplace(args) -> int:
    from . import batch  # with numpy, only when a dump is asked for
    cfg = _load(args.config)
    params = _build_params(cfg)
    us = _u_grid(cfg)
    if cfg.get("output", "format", fallback="csv") != "csv":
        raise ConfigError("laplace command writes csv only")
    out = Path(args.out or "laplace.csv")
    t0 = time.perf_counter()
    # A coupling column is one float, so its text is formed once.
    write_csv(LAPLACE_HEADER, [[repr(c)] * len(us) if isinstance(c, float)
                               else map(float.__repr__, c)
                               for c in batch.laplace_columns(params, us)], out)
    _say(args, f"laplace: wrote {out} ({len(us)} rows, {time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def cmd_dimensionless(args) -> int:
    cfg = _load(args.config)
    if _parameter_block(cfg) != "physical":
        raise ConfigError("dimensionless command requires a [physical] section")
    scales = _build_transform(cfg)
    pairs = [(key, getattr(scales.params, key)) for key in (
        "omega_f", "omega_v", "omega_m", "kappa_f", "kappa_v", "kappa_m",
        "lambda_mf", "lambda_mv", "lambda_fv")]
    pairs += [("t_scale", scales.t_scale), ("p_scale", scales.p_scale)]
    for key, val in pairs:
        print(f"{key} = {float(val)!r}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once; main looks cmd_<name> up at call time, so a later rebinding runs."""
    parser = _Parser(
        prog="triporo",
        description="Triple-porosity fractional-diffusion pressure transients")

    flags = {
        "--out": dict(help="output path (curve and sweep: overrides [output] path; "
                           "laplace: default laplace.csv)"),
        "--format": dict(choices=CURVE_FORMATS,
                         help="output format (overrides [output] format)"),
        "--stehfest-n": dict(type=int, dest="stehfest_n",
                             help="Stehfest order, even, 2..20 (overrides [inversion])"),
        "--quiet": dict(action="store_true", help="suppress progress output"),
    }
    curve_flags = ("--out", "--format", "--stehfest-n", "--quiet")

    # Each subcommand takes only the flags it reads; any other is a usage error.
    subs = parser.add_subparsers(dest="command", required=True)
    for name, blurb, names in (
            ("curve", "compute one pressure/derivative curve", curve_flags),
            ("sweep", "compute curves for a list of beta triples", curve_flags),
            ("laplace", "dump the Laplace-space assembly per u (csv)", ("--out", "--quiet")),
            ("dimensionless", "print derived dimensionless groups", ())):
        sub = subs.add_parser(name, help=blurb)
        sub.add_argument("--config", required=True, help="path to the run configuration")
        for flag in names:
            sub.add_argument(flag, **flags[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MODEL_ERRORS as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
