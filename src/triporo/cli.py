"""Command-line front end: curve, sweep, laplace and dimensionless runs.

Configuration is an INI-style file with sections [model] or [physical]
(exactly one), plus optional [grid], [inversion], [output], [sweep] and
[laplace] sections; keys are named after the dimensionless symbols
(omega_f, kappa_v, lambda_mf, beta_m, ...).

Exit codes: 0 success, 1 configuration error, 2 model error, 3 I/O error.
"""

import argparse
import configparser
import math
import sys
import time
from pathlib import Path

from .curves import _write_text, log_time_grid, pressure_curve, write_curve
from .inversion import StehfestScheme, TransformEvaluationError
from .model import (ConsistencyError, DimensionlessTransform, NullSpaceError,
                    PhysicalParams, SingularBoundaryError,
                    TriplePorosityParams, laplace_assembly, to_dimensionless)
from .roots import RootClassificationError

EXIT_OK, EXIT_CONFIG, EXIT_MODEL, EXIT_IO = 0, 1, 2, 3

MODEL_ERRORS = (RootClassificationError, NullSpaceError, SingularBoundaryError,
                ConsistencyError, TransformEvaluationError)

LAPLACE_HEADER = ("u,m1,m2,m3,m4,m5,m6,alpha1,alpha2,alpha3,"
                  "A1,A2,A3,B1,B2,B3,D1,D2,D3,pw_bar")

_MODEL_KEYS = ("omega_f", "omega_v", "kappa_f", "kappa_v",
               "lambda_mf", "lambda_mv", "lambda_fv")
_PHYSICAL_KEYS = ("phi_m", "phi_f", "phi_v", "c_m", "c_f", "c_v",
                  "k_m", "k_f", "k_v", "mu", "a_mf", "a_mv", "a_fv",
                  "r_w", "h", "q0", "b0", "p_i")


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
    return cfg


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


def _betas(cfg, section: str) -> tuple[float, float, float]:
    return (_get_float(cfg, section, "beta_m", 1.0),
            _get_float(cfg, section, "beta_f", 1.0),
            _get_float(cfg, section, "beta_v", 1.0))


def _build_params(cfg) -> TriplePorosityParams:
    has_model = cfg.has_section("model")
    has_phys = cfg.has_section("physical")
    if has_model and has_phys:
        raise ConfigError("config must contain exactly one of [model] or [physical], not both")
    if has_model:
        vals = {k: _get_float(cfg, "model", k) for k in _MODEL_KEYS}
        bm, bf, bv = _betas(cfg, "model")
        try:
            return TriplePorosityParams(**vals, beta_m=bm, beta_f=bf, beta_v=bv)
        except ValueError as exc:
            raise ConfigError(f"invalid [model] parameters: {exc}") from exc
    if has_phys:
        params = _build_transform(cfg).params
        try:
            return params.with_betas(*_betas(cfg, "physical"))
        except ValueError as exc:
            raise ConfigError(f"invalid [physical] parameters: {exc}") from exc
    raise ConfigError("config must contain a [model] or [physical] section")


def _build_transform(cfg) -> DimensionlessTransform:
    vals = {k: _get_float(cfg, "physical", k) for k in _PHYSICAL_KEYS}
    try:
        phys = PhysicalParams(**vals)
    except ValueError as exc:
        raise ConfigError(f"invalid [physical] parameters: {exc}") from exc
    try:
        return to_dimensionless(phys)
    except ValueError as exc:
        raise ConfigError(f"invalid derived dimensionless parameters: {exc}") from exc


def _build_grid(cfg) -> list[float]:
    t_min = _get_float(cfg, "grid", "t_min", 1e-2)
    t_max = _get_float(cfg, "grid", "t_max", 1e8)
    ppd = _get_int(cfg, "grid", "points_per_decade", 10)
    try:
        return log_time_grid(t_min, t_max, ppd)
    except ValueError as exc:
        raise ConfigError(f"invalid [grid]: {exc}") from exc


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
    if args.out:
        return Path(args.out)
    if cfg.has_option("output", "path"):
        return Path(cfg.get("output", "path"))
    return Path(f"{command}.{fmt}")


def _out_format(cfg, args) -> str:
    if args.format:
        fmt = args.format
    elif cfg.has_option("output", "format"):
        fmt = cfg.get("output", "format")
    else:
        fmt = "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {fmt!r}")
    return fmt


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def cmd_curve(args) -> int:
    cfg = _load(args.config)
    params = _build_params(cfg)
    grid = _build_grid(cfg)
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
    grid = _build_grid(cfg)
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
    elif cfg.has_section("laplace"):
        u_min = _get_float(cfg, "laplace", "u_min")
        u_max = _get_float(cfg, "laplace", "u_max")
        ppd = _get_int(cfg, "laplace", "points_per_decade", 10)
        # log_time_grid names its bounds t_min and t_max; check ours first.
        if not (math.isfinite(u_min) and u_min > 0.0):
            raise ConfigError(f"invalid [laplace] grid: u_min must be positive, got {u_min!r}")
        if not (math.isfinite(u_max) and u_max > u_min):
            raise ConfigError(f"invalid [laplace] grid: u_max must exceed u_min, got {u_max!r}")
        try:
            us = log_time_grid(u_min, u_max, ppd)
        except ValueError as exc:
            raise ConfigError(f"invalid [laplace] grid: {exc}") from exc
    else:
        raise ConfigError("laplace command needs a [laplace] section "
                          "(u_values or u_min/u_max)")
    bad = [u for u in us if not (math.isfinite(u) and u > 0.0)]
    if bad:
        raise ConfigError(f"u grid must be positive and finite, got {bad}")
    return us


def cmd_laplace(args) -> int:
    cfg = _load(args.config)
    params = _build_params(cfg)
    us = _u_grid(cfg)
    if cfg.get("output", "format", fallback="csv") != "csv":
        raise ConfigError("laplace command writes csv only")
    out = _out_path(cfg, args, "laplace", "csv")
    lines = [LAPLACE_HEADER]
    t0 = time.perf_counter()
    for u in us:
        asm = laplace_assembly(params, u)
        m = asm.mterms
        _, _, pw = asm.wellbore_pressures()
        row = [u, m.m1, m.m2, m.m3, m.m4, m.m5, m.m6,
               *asm.alpha, *asm.A, *asm.B, *asm.D, pw]
        lines.append(",".join(repr(float(v)) for v in row))
    _write_text("\n".join(lines) + "\n", out)
    _say(args, f"laplace: wrote {out} ({len(us)} rows, {time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def cmd_dimensionless(args) -> int:
    cfg = _load(args.config)
    if not cfg.has_section("physical"):
        raise ConfigError("dimensionless command requires a [physical] section")
    scales = _build_transform(cfg)
    pairs = [(key, getattr(scales.params, key)) for key in (
        "omega_f", "omega_v", "omega_m", "kappa_f", "kappa_v", "kappa_m",
        "lambda_mf", "lambda_mv", "lambda_fv")]
    pairs += [("t_scale", scales.t_scale), ("p_scale", scales.p_scale)]
    for key, val in pairs:
        print(f"{key} = {float(val)!r}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triporo",
        description="Triple-porosity fractional-diffusion pressure transients")

    flags = {
        "--out": dict(help="output path (overrides [output] path)"),
        "--format": dict(choices=("csv", "json"),
                         help="output format (overrides [output] format)"),
        "--stehfest-n": dict(type=int, dest="stehfest_n",
                             help="Stehfest order, even, 2..20 (overrides [inversion])"),
        "--quiet": dict(action="store_true", help="suppress progress output"),
    }
    curve_flags = ("--out", "--format", "--stehfest-n", "--quiet")

    # Each subcommand takes only the flags it reads; any other is a usage error.
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb, names in (
            ("curve", cmd_curve, "compute one pressure/derivative curve", curve_flags),
            ("sweep", cmd_sweep, "compute curves for a list of beta triples", curve_flags),
            ("laplace", cmd_laplace, "dump the Laplace-space assembly per u (csv)",
             ("--out", "--quiet")),
            ("dimensionless", cmd_dimensionless, "print derived dimensionless groups", ())):
        sub = subs.add_parser(name, help=blurb)
        sub.add_argument("--config", required=True, help="path to the run configuration")
        for flag in names:
            sub.add_argument(flag, **flags[flag])
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
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
