import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from triporo.cli import LAPLACE_HEADER, main
from triporo.curves import CSV_HEADER, log_time_grid
from triporo.model import TriplePorosityParams, laplace_assembly

from conftest import (PHYSICAL_KWARGS, REF_KWARGS, SYMMETRIC_KWARGS, ini, laplace_dump_rows,
                      laplace_dump_text, run_laplace)

MODEL_BLOCK = ini("model", REF_KWARGS)
PHYSICAL_BLOCK = ini("physical", PHYSICAL_KWARGS)

SMALL_RUN = """\
[grid]
t_min = 1.0
t_max = 1e4
points_per_decade = 3

[inversion]
stehfest_n = 8
"""


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_curve_happy_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN)
    out = tmp_path / "curve.csv"
    assert main(["curve", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 14  # 4 decades x 3 + 1 points
    assert "wrote" in capsys.readouterr().err


def test_curve_quiet(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN)
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv"),
                 "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_curve_json_format(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN)
    out = tmp_path / "curve.json"
    assert main(["curve", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 13
    assert set(rows[0]) == {"t_D", "p_w", "dp_w_dlnt"}


def test_missing_key_names_it(tmp_path, capsys):
    missing = {k: v for k, v in REF_KWARGS.items() if k != "omega_v"}
    for block, line in (
            (ini("model", missing), "error: missing required key 'omega_v' in [model]\n"),
            (ini("model", dict(REF_KWARGS, omega_f="abc")),
             "error: key 'omega_f' in [model] is not a number: 'abc'\n"),
            (MODEL_BLOCK.replace("[model]", "[model"), "error: malformed config")):
        cfg = write_cfg(tmp_path, block + SMALL_RUN)
        assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err.startswith(line)


def test_invariant_violation_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ini("model", dict(REF_KWARGS, kappa_v=0.30)) + SMALL_RUN)
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    assert "kappa" in capsys.readouterr().err


def test_both_parameter_blocks_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + PHYSICAL_BLOCK + SMALL_RUN)
    for command in (["curve", "--out", str(tmp_path / "c.csv")], ["dimensionless"]):
        assert main([*command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: config must contain exactly one of [model] or [physical], not both\n")


def test_no_parameter_block_rejected(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1


def test_missing_config_file(tmp_path, capsys):
    assert main(["curve", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_usage_error_is_config_exit(capsys):
    assert main(["curve"]) == 1  # missing required --config
    assert "--config" in capsys.readouterr().err


def test_bad_stehfest_order(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN)
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv"),
                 "--stehfest-n", "13"]) == 1


def test_integer_keys_must_be_integers(tmp_path, capsys):
    cases = (("curve", SMALL_RUN.replace("points_per_decade = 3", "points_per_decade = 2.5")),
             ("curve", SMALL_RUN.replace("stehfest_n = 8", "stehfest_n = 12.7")),
             ("curve", SMALL_RUN.replace("stehfest_n = 8", "stehfest_n = inf")),
             ("laplace", "[laplace]\nu_min = 0.1\nu_max = 10\npoints_per_decade = nan\n"))
    for command, run in cases:
        cfg = write_cfg(tmp_path, MODEL_BLOCK + run)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be an integer" in err
    # An integral value written as a float is the same run.
    outs = []
    for n in ("8", "8.0"):
        cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN.replace("stehfest_n = 8",
                                                                   f"stehfest_n = {n}"))
        outs.append(tmp_path / f"n{n}.csv")
        assert main(["curve", "--config", cfg, "--out", str(outs[-1]), "--quiet"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN + "\n[laplace]\nu_values = 1.0\n")
    for command in ("curve", "laplace"):
        out = tmp_path / "missing-dir" / "x.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "x.csv" in err


def test_output_section_and_flags(tmp_path, monkeypatch):
    # [output] path and format apply where --out and --format are absent,
    # and each flag overrides its key.
    conf = tmp_path / "conf.out"
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN +
                    f"\n[output]\npath = {conf}\nformat = json\n")
    assert main(["curve", "--config", cfg, "--quiet"]) == 0
    assert len(json.loads(conf.read_text())) == 13
    flagged = tmp_path / "flagged.out"
    assert main(["curve", "--config", cfg, "--out", str(flagged), "--quiet"]) == 0
    assert len(json.loads(flagged.read_text())) == 13
    assert main(["curve", "--config", cfg, "--format", "csv", "--quiet"]) == 0
    assert conf.read_text().splitlines()[0] == CSV_HEADER
    # With neither, the output is curve.csv in the working directory.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    bare = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN, "bare.ini")
    assert main(["curve", "--config", bare, "--quiet"]) == 0
    assert [p.name for p in work.iterdir()] == ["curve.csv"]
    assert (work / "curve.csv").read_text().splitlines()[0] == CSV_HEADER


def test_output_format_must_be_csv_or_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN + "\n[output]\nformat = xml\n")
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.xml")]) == 1
    assert "output format must be csv or json, got 'xml'" in capsys.readouterr().err
    assert not (tmp_path / "c.xml").exists()


def test_sweep_appends_classic(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN + """
[sweep]
triples =
    0.9 0.8 0.7
    0.77 0.56 0.6
    0.8 0.8 0.8
""")
    base = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(base), "--quiet"]) == 0
    written = sorted(p.name for p in tmp_path.glob("sweep_*.csv"))
    assert written == [
        "sweep_bm0.77_bf0.56_bv0.6.csv",
        "sweep_bm0.8_bf0.8_bv0.8.csv",
        "sweep_bm0.9_bf0.8_bv0.7.csv",
        "sweep_bm1.0_bf1.0_bv1.0.csv",
    ]


def test_sweep_no_duplicate_classic(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN + """
[sweep]
triples =
    1.0 1.0 1.0
    0.9 0.8 0.7
""")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                 "--quiet"]) == 0
    assert len(list(tmp_path.glob("s_*.csv"))) == 2


def test_sweep_invalid_triple_skipped(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN + """
[sweep]
triples =
    1.5 0.8 0.7
    0.9 0.8 0.7
""")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                 "--quiet"]) == 2
    names = {p.name for p in tmp_path.glob("s_*.csv")}
    assert names == {"s_bm0.9_bf0.8_bv0.7.csv", "s_bm1.0_bf1.0_bv1.0.csv"}
    assert "1.5" in capsys.readouterr().err


def test_sweep_requires_triples(tmp_path, capsys):
    for sweep, msg in (
            ("", "missing required key 'triples' in [sweep]"),
            ("[sweep]\ntriples =\n", "sweep.triples is empty"),
            ("[sweep]\ntriples =\n    0.9 0.8\n", "sweep triple must have 3 values, got '0.9 0.8'"),
            ("[sweep]\ntriples =\n    0.9 0.8 x\n",
             "bad sweep triple '0.9 0.8 x': could not convert string to float: 'x'")):
        cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN + "\n" + sweep)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == f"error: {msg}\n"
    assert not list(tmp_path.glob("s*.csv"))


def test_laplace_runs_the_consistency_check(tmp_path, capsys):
    # Each refusal of the Laplace chain that an admissible input reaches is
    # one model error that names the evaluation once: the triple-equality
    # check (three media of equal diffusivity, couplings ~1e-116), the modal
    # null direction (the README set uncoupled, or coupled by lambda_mv alone
    # at u = 1e-20), the roots' arithmetic (u = 1e51) and nearly repeated
    # roots (no matrix storage, u = 1e27).
    equal_diffusivities = dict(omega_f=0.25, omega_v=0.5, kappa_f=0.25, kappa_v=0.5,
                               lambda_mf=1e-116, lambda_mv=3e-116, lambda_fv=2e-116)
    no_matrix_storage = dict(omega_f=0.5, omega_v=0.5, kappa_f=0.3, kappa_v=0.3,
                             lambda_mf=1.0, lambda_mv=1.0, lambda_fv=1.0)
    for kwargs, u, message in (
            (equal_diffusivities, 1e-107, "wellbore pressure triple equality violated"),
            (dict(REF_KWARGS, lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0), 1.0, "decoupled medium"),
            (dict(REF_KWARGS, lambda_mf=0.0, lambda_fv=0.0), 1e-20, "rank < 2"),
            (REF_KWARGS, 1e51, "characteristic equation cannot be solved"),
            (no_matrix_storage, 1e27, "nearly repeated roots")):
        p = TriplePorosityParams(**kwargs)
        assert run_laplace(tmp_path, p, {"u_values": u}) == (2, ""), u
        err = capsys.readouterr().err
        assert err.startswith("model error:") and message in err, u
        assert err.count(f"(u={u!r}, params=") == 1, u


def test_laplace_reports_unsolvable_large_u_as_model_error(tmp_path, capsys):
    # The cubic overflows from u ~ 1.8e50 on this set and has non-finite
    # coefficients from u ~ 1e150; both are model errors naming u, also on a
    # grid up to the largest double.
    for laplace, u in (("u_values = 1.0 1e51", 1e51), ("u_values = 1.0 1e200", 1e200),
                       ("u_min = 1e300\nu_max = 1.7976931348623157e308", 1e300)):
        cfg = write_cfg(tmp_path, MODEL_BLOCK + f"\n[laplace]\n{laplace}\n")
        assert main(["laplace", "--config", cfg, "--out", str(tmp_path / "l.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error:") and f"u={u!r}" in err


def test_curve_whose_inversion_overflows_is_a_model_error(tmp_path, capsys):
    # From t ~ 6e300 on, Stehfest's weighted terms overflow a double.
    cfg = write_cfg(tmp_path, MODEL_BLOCK + "\n[grid]\nt_min = 1e300\n"
                    "t_max = 1.7976931348623157e308\n")
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err.startswith("model error: transform evaluation failed at u=")
    assert not (tmp_path / "c.csv").exists()


def test_laplace_single_u(tmp_path, ref_params):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN + "\n[laplace]\nu_values = 1.0\n")
    out = tmp_path / "lap.csv"
    assert main(["laplace", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    asm = laplace_assembly(ref_params, 1.0)
    _, _, pw = asm.wellbore_pressures()
    fields = (1.0, *asm.mterms, *asm.alpha, *asm.A, *asm.B, *asm.D, pw)
    expected = LAPLACE_HEADER + "\n" + ",".join(repr(float(v)) for v in fields) + "\n"
    assert out.read_bytes() == expected.encode()
    lines = out.read_text().splitlines()
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 20
    assert all(v == v and abs(v) != float("inf") for v in row)  # finite


@pytest.mark.parametrize("betas, lambda_mv, grid", [
    # The benchmark's laplace_scan grid; its D columns hold 127, 8 and 0 inf fields.
    ((1.0, 1.0, 1.0), 1e-8, (1e-10, 1e6, 62)),
    ((0.9, 0.8, 0.7), 1e-8, (1e-10, 1e6, 62)),
    ((0.77, 0.56, 0.6), 1e-8, (1e-10, 1e6, 62)),
    # The parameters accept a coupling of -0.0, and its column keeps the sign.
    ((0.9, 0.8, 0.7), -0.0, (1e-6, 1e3, 62)),
])
def test_laplace_dump_is_the_per_u_rows_in_round_trip_text(tmp_path, betas, lambda_mv, grid):
    p = TriplePorosityParams(**dict(REF_KWARGS, lambda_mv=lambda_mv)).with_betas(*betas)
    u_min, u_max, ppd = grid
    rc, text = run_laplace(tmp_path, p, {"u_min": u_min, "u_max": u_max,
                                         "points_per_decade": ppd})
    assert rc == 0
    assert text == laplace_dump_text(laplace_dump_rows(p, log_time_grid(*grid)))


def test_laplace_rejects_nonpositive_u(tmp_path, capsys):
    for bad, msg in (("-2.0", "u grid must be positive and finite, got [-2.0]"),
                     ("nan", "u grid must be positive and finite, got [nan]"),
                     ("inf", "u grid must be positive and finite, got [inf]"),
                     ("x", "bad u_values entry: could not convert string to float: 'x'")):
        cfg = write_cfg(tmp_path, MODEL_BLOCK + f"\n[laplace]\nu_values = 1.0 {bad}\n")
        assert main(["laplace", "--config", cfg, "--out", str(tmp_path / "l.csv")]) == 1
        assert capsys.readouterr().err == f"error: {msg}\n"


def test_laplace_rejects_empty_u_values(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + "\n[laplace]\nu_values =\n")
    out = tmp_path / "l.csv"
    assert main(["laplace", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "u_values" in err
    assert not out.exists()


def test_laplace_grid_form(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK +
                    "\n[laplace]\nu_min = 0.1\nu_max = 10\npoints_per_decade = 2\n")
    out = tmp_path / "l.csv"
    assert main(["laplace", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(out.read_text().splitlines()) == 6  # header + 5 points


def test_laplace_grid_bounds_are_named(tmp_path, capsys):
    for bounds, msg in (
            ("u_min = -1\nu_max = 10", "u_min must be positive, got -1.0"),
            ("u_min = 1\nu_max = 0.5", "u_max must exceed u_min, got 0.5"),
            ("u_min = 0.1\nu_max = 10\npoints_per_decade = 0",
             "points_per_decade must be an integer >= 1, got 0")):
        cfg = write_cfg(tmp_path, MODEL_BLOCK + f"\n[laplace]\n{bounds}\n")
        assert main(["laplace", "--config", cfg, "--out", str(tmp_path / "l.csv")]) == 1
        assert capsys.readouterr().err == f"error: invalid [laplace] grid: {msg}\n"


def test_time_grid_errors_name_the_key(tmp_path, capsys):
    for grid, msg in (
            ("t_min = -1", "t_min must be positive, got -1.0"),
            ("t_min = 10\nt_max = 1", "t_max must exceed t_min, got 1.0"),
            ("points_per_decade = 0", "points_per_decade must be an integer >= 1, got 0")):
        cfg = write_cfg(tmp_path, MODEL_BLOCK + f"\n[grid]\n{grid}\n")
        assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err == f"error: invalid [grid]: {msg}\n"
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("command, text, named", [
    ("curve", MODEL_BLOCK + "betaf = 0.5\n" + SMALL_RUN, "unknown key 'betaf' in [model]"),
    ("curve", MODEL_BLOCK + "omega_m = 0.5\n" + SMALL_RUN, "unknown key 'omega_m' in [model]"),
    ("curve", MODEL_BLOCK + SMALL_RUN.replace("t_max = 1e4", "tmax = 1e3"),
     "unknown key 'tmax' in [grid]"),
    ("curve", MODEL_BLOCK + SMALL_RUN.replace("[grid]", "[grid]\nstehfest_n = 14"),
     "unknown key 'stehfest_n' in [grid]"),
    ("curve", MODEL_BLOCK + SMALL_RUN.replace("[grid]", "[Grid]"), "unknown section [Grid]"),
    ("laplace", MODEL_BLOCK + "\n[laplace]\nu_values = 1.0\nu_min = 0.1\nu_max = 10\n",
     "key 'u_min' in [laplace] cannot be combined with u_values"),
    # A [DEFAULT] key is a key of every section, so [model] has it too.
    ("curve", "[DEFAULT]\npoints_per_decade = 3\n" + MODEL_BLOCK + SMALL_RUN,
     "unknown key 'points_per_decade' in [model]"),
], ids=["betaf", "omega_m", "tmax", "grid-stehfest_n", "Grid", "u_values-and-grid", "DEFAULT"])
def test_keys_no_command_reads_are_refused(tmp_path, capsys, command, text, named):
    # Each of these ran with a default in place of what the file says.
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def readme_cfg(tmp_path):
    """The README's example config, written to tmp_path."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```ini\n(.*?)```", section, flags=re.S)
    return write_cfg(tmp_path, block)


def test_readme_example_config_runs(tmp_path):
    # The README's example holds every section, so each command must take it.
    cfg = readme_cfg(tmp_path)
    for command in ("curve", "sweep", "laplace"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0, command
    assert (tmp_path / "curve.csv").exists() and (tmp_path / "laplace.csv").exists()
    assert len(list(tmp_path.glob("sweep_*.csv"))) == 3


def test_laplace_without_out_leaves_the_curve_file(tmp_path, monkeypatch):
    # [output] path (curve.csv in the README) names the curve; the laplace
    # dump goes to laplace.csv when --out is absent.
    monkeypatch.chdir(tmp_path)
    cfg = readme_cfg(tmp_path)
    for command in ("curve", "laplace"):
        assert main([command, "--config", cfg, "--quiet"]) == 0, command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "laplace.csv", "run.ini"]
    assert (tmp_path / "curve.csv").read_text().startswith("t_D,p_w,dp_w_dlnt\n")
    assert (tmp_path / "laplace.csv").read_text().startswith(LAPLACE_HEADER + "\n")


def test_laplace_requires_section(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK)
    assert main(["laplace", "--config", cfg, "--out", str(tmp_path / "l.csv")]) == 1


def test_laplace_refuses_json_in_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + "\n[laplace]\nu_values = 1.0\n"
                    "\n[output]\nformat = json\n")
    out = tmp_path / "l.csv"
    assert main(["laplace", "--config", cfg, "--out", str(out)]) == 1
    assert "csv only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("laplace", ["--format", "csv"]),
    ("laplace", ["--stehfest-n", "4"]),
    ("dimensionless", ["--out", "d.txt"]),
    ("dimensionless", ["--format", "json"]),
    ("dimensionless", ["--stehfest-n", "4"]),
    ("dimensionless", ["--quiet"]),
])
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys, command, flag):
    cfg = write_cfg(tmp_path, PHYSICAL_BLOCK + "\n[laplace]\nu_values = 1.0\n")
    assert main([command, "--config", cfg, *flag]) == 1
    err = capsys.readouterr()
    assert "unrecognized arguments" in err.err and err.out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]


def test_dimensionless_symmetric(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ini("physical", SYMMETRIC_KWARGS))
    assert main(["dimensionless", "--config", cfg]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["omega_f"]) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert float(values["kappa_v"]) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert float(values["lambda_mf"]) == 0.0
    assert float(values["t_scale"]) > 0


def test_dimensionless_zero_permeability(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ini("physical", dict(PHYSICAL_KWARGS, k_m=0)))
    assert main(["dimensionless", "--config", cfg]) == 1
    assert "k_m" in capsys.readouterr().err


def test_inadmissible_derived_groups_give_one_message(tmp_path, capsys):
    out = tmp_path / "c.csv"
    for edits, message in (
            # k_m is positive, but kappa_f + kappa_v rounds to 1, so kappa_m = 0.
            (dict(k_m=1e-300, k_f=1e-14, k_v=1e-14), "kappa_f + kappa_v must be < 1, got 1.0"),
            # 1 - kappa_f - kappa_v is rounding noise against k_m / sum k.
            (dict(k_m=1e-300),
             "kappa_m = 2.0816681711721685e-17 by subtraction misses its direct "
             "ratio 1.2195121951219512e-287 by more than 1e-08 relative"),
            # mu r_w^2 storage underflows to 0.
            (dict(mu=1e-300, r_w=1e-10), "t_scale = 8.3e-14 / 0.0 must be finite and > 0"),
            # q0 b0 mu is subnormal, so p_scale would be inf.
            (dict(q0=1e-320), "p_scale = 5.215043804959057e-12 / 1e-323 must be finite and > 0"),
            (dict(r_w=1e200), "r_w**2 overflows for r_w = 1e+200")):
        cfg = write_cfg(tmp_path, ini("physical", dict(PHYSICAL_KWARGS, **edits)))
        assert main(["curve", "--config", cfg, "--out", str(out)]) == 1
        curve = capsys.readouterr()
        assert main(["dimensionless", "--config", cfg]) == 1
        dimensionless = capsys.readouterr()
        assert curve.err == dimensionless.err == (
            f"error: invalid derived dimensionless parameters: {message}\n")
        assert curve.out == dimensionless.out == "" and not out.exists()


def test_physical_betas_are_checked(tmp_path, capsys):
    # dimensionless prints no order, but reads and checks them as curve does.
    for orders, start in (
            (dict(beta_m=1.5), "error: invalid [physical] parameters: beta_m"),
            (dict(beta_m=0), "error: invalid [physical] parameters: beta_m"),
            (dict(beta_v="x"), "error: key 'beta_v' in [physical] is not a number: 'x'\n")):
        cfg = write_cfg(tmp_path, ini("physical", dict(PHYSICAL_KWARGS, **orders)) + SMALL_RUN)
        assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
        curve = capsys.readouterr()
        assert main(["dimensionless", "--config", cfg]) == 1
        dimensionless = capsys.readouterr()
        assert curve.err == dimensionless.err and curve.err.startswith(start)
        assert curve.out == dimensionless.out == ""


def test_dimensionless_requires_physical(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK)
    assert main(["dimensionless", "--config", cfg]) == 1


def test_dimensionless_round_trips_through_curve(tmp_path, capsys):
    phys_cfg = write_cfg(tmp_path, PHYSICAL_BLOCK + SMALL_RUN, "phys.ini")
    out_phys = tmp_path / "phys.csv"
    assert main(["curve", "--config", phys_cfg, "--out", str(out_phys),
                 "--quiet"]) == 0

    assert main(["dimensionless", "--config", phys_cfg]) == 0
    printed = dict(line.split(" = ")
                   for line in capsys.readouterr().out.strip().splitlines())
    model_cfg = write_cfg(tmp_path, ini("model", {k: printed[k] for k in REF_KWARGS})
                          + SMALL_RUN, "model.ini")
    out_model = tmp_path / "model.csv"
    assert main(["curve", "--config", model_cfg, "--out", str(out_model),
                 "--quiet"]) == 0
    assert out_model.read_bytes() == out_phys.read_bytes()


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, MODEL_BLOCK + SMALL_RUN)
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "triporo", "curve", "--config", cfg,
         "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    # The module passes main's exit code through.
    for text, code in ((PHYSICAL_BLOCK, 0), (MODEL_BLOCK, 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "triporo", "dimensionless",
             "--config", write_cfg(tmp_path, text)],
            capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert ("omega_f = " in proc.stdout) == (code == 0)


def test_commands_are_looked_up_when_main_runs(tmp_path, monkeypatch):
    # main builds its parser once; a command rebound afterwards (as a tracer
    # does) must still be the one that runs.
    cfg = write_cfg(tmp_path, PHYSICAL_BLOCK)
    assert main(["dimensionless", "--config", cfg]) == 0
    calls = []
    monkeypatch.setattr("triporo.cli.cmd_dimensionless", lambda args: calls.append(args) or 7)
    assert main(["dimensionless", "--config", cfg]) == 7
    assert [args.config for args in calls] == [cfg]
