import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from heispde import checker, cli, gallery, operators
from heispde.checker import OperatorSpec, Region
from heispde.cli import FIXTURES, main, run_fixture
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_writes_a_report_and_exits_zero(tmp_path):
    out = tmp_path / "rep.json"
    rc = main([
        "verify", "--field", "log_rho", "--d", "2",
        "--rho-min", "0.5", "--rho-max", "4", "--n-samples", "256",
        "--char-eps", "0.05", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    rep = _load(out)
    assert rep["schema"] == "heispde-report-v2"
    assert rep["command"] == "verify"
    assert rep["verdict"] == "pass"
    assert rep["n_evaluated"] + rep["n_excluded"] == rep["n_samples"] == 256
    assert rep["config"]["operator"]["second_order"] == "pucci_min"
    assert not list(tmp_path.glob("*.tmp*"))


def test_failing_inequality_exits_one(tmp_path):
    out = tmp_path / "rep.json"
    rc = main([
        "verify", "--field", "log_rho", "--d", "2", "--sense", "supersolution",
        "--n-samples", "128", "--char-eps", "0.05", "--out", str(out),
    ])
    assert rc == 1
    assert _load(out)["verdict"] == "fail"


def test_vacuous_region_exits_three(tmp_path):
    out = tmp_path / "rep.json"
    rc = main([
        "verify", "--field", "u4", "--Lam", "1.5",
        "--rho-min", "0.9999995", "--rho-max", "1.0000005",
        "--n-samples", "32", "--out", str(out),
    ])
    assert rc == 3
    assert _load(out)["verdict"] == "vacuous"


@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
def test_a_non_finite_kappa_exits_two_before_sampling(kappa, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--field", "power", f"--kappa={kappa}", "--d", "1"]) == 2
    assert "kappa" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["verify"]) == 2  # --field is required
    assert main(["verify", "--field", "power", "--d", "1"]) == 2  # kappa missing
    assert main(["verify", "--field", "u3", "--d", "3"]) == 2  # degenerate exponent
    assert main(["op-eval", "--op", "pucci_max", "--matrix", "[[1,0],[0,1"]) == 2
    assert main(["op-eval", "--op", "pucci_max", "--matrix", "[[1,0,0],[0,1,0]]"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": "log_rho", "no_such_key": 5}))
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"field": "log_rho", "envelope": "sup"}))
    assert main(["verify", "--config", str(cfg)]) == 2  # the CLI builds no Bellman part
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


# A failing check (u4 is a subsolution, so -u4 is not): a bad tolerance
# must not turn it into a pass.
_NEG_U4 = [
    "verify", "--field", "u4", "--negate", "--d", "1", "--lam", "1", "--Lam", "1.5",
    "--rho-min", "0.1", "--rho-max", "5", "--n-samples", "512", "--char-eps", "0.02",
    "--seed", "3",
]


@pytest.mark.parametrize("argv", [
    _NEG_U4 + ["--kink-eps", "nan"],
    _NEG_U4 + ["--kink-eps", "inf"],
    _NEG_U4 + ["--tol", "nan"],
    _NEG_U4 + ["--tol", "-1"],
    _NEG_U4 + ["--tol", "inf"],
    _NEG_U4 + ["--op", "pnorm", "--p", "1"],
    _NEG_U4 + ["--op", "pnorm", "--p", "inf"],
    ["lyapunov", "--fixture", "hou", "--rho-min", "2", "--rho-max", "16", "--tol", "nan"],
    ["lyapunov", "--fixture", "hou", "--rho-min", "2", "--rho-max", "16", "--kink-eps", "nan"],
    ["op-eval", "--op", "pnorm", "--matrix", "[[1, 0], [0, -1]]", "--q", "[1, 1]", "--p", "nan"],
    # Negative numbers given as a separate token reach their option too.
    _NEG_U4 + ["--tol", "-1e-3"],
    _NEG_U4 + ["--rho-min", "-1e-3"],
    ["verify", "--field", "power", "--d", "1", "--kappa", "-inf"],
    ["op-eval", "--op", "pnorm", "--matrix", "[[1, 0], [0, -1]]", "--q", "[1, 1]", "--p", "-1e-3"],
    # Every number is refused if not finite, also where the check does not read it.
    ["verify", "--field", "u4", "--d", "1", "--alpha", "nan"],
    ["lyapunov", "--fixture", "hou", "--rho-min", "2", "--rho-max", "16", "--c0", "inf"],
    ["lyapunov", "--fixture", "ou", "--rho-min", "2", "--rho-max", "16", "--gammas", "1,nan,1"],
    _NEG_U4[:-2] + ["--seed", "inf"],
    _NEG_U4 + ["--n-samples", "nan"],
    _NEG_U4 + ["--n-samples", "1000.5"],
])
def test_bad_numbers_exit_two_without_a_report(argv, tmp_path, capsys):
    # Without --out too: a report refusing a non-finite echo must not be the
    # only thing that stops the run.
    assert main(argv) == 2
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# (option, value, another fixture than the one that reads it, the error): the
# CLI refuses gamma0 and c0, lyapunov_fixture refuses gammas.
_FOREIGN_FIXTURE_OPTIONS = [
    (option, value, fixture, f"{refusal} the {owner} fixture only, not {word} {fixture!r}")
    for option, value, owner, refusal, word in [
        ("gammas", "1,2,3", "ou", "gammas apply to", "to"),
        ("gamma0", "5", "hou", "--gamma0 is read by", "by"),
        ("c0", "7", "schro", "--c0 is read by", "by"),
    ]
    for fixture in cli.OPTIONS["lyapunov"]["fixture"][1].choices
    if fixture != owner
]


@pytest.mark.parametrize("option,value,fixture,message", _FOREIGN_FIXTURE_OPTIONS,
                         ids=[f"{option}-{fixture}" for option, _, fixture, _ in _FOREIGN_FIXTURE_OPTIONS])
def test_a_fixture_option_for_another_fixture_exits_two(option, value, fixture, message, tmp_path, capsys):
    # gamma0 and c0 were dropped: the run passed, and the report kept no trace of the value.
    out = tmp_path / "rep.json"
    argv = ["lyapunov", "--fixture", fixture, "--d", "1", "--rho-min", "2", "--rho-max", "16",
            "--n-samples", "200", f"--{option}", value]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: [1.0, 2.0, 3.0] if option == "gammas" else float(value)}))
    assert main(argv[:-2] + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fixture,option", [("hou", "gamma0"), ("schro", "c0")])
def test_a_fixture_option_left_out_takes_the_library_default(fixture, option, tmp_path, capsys):
    argv = ["lyapunov", "--fixture", fixture, "--d", "1", "--rho-min", "2", "--rho-max", "16", "--n-samples", "200"]
    out = tmp_path / "rep.json"
    left_out = _outcome(argv, out, capsys)
    assert left_out == _outcome(argv + [f"--{option}", "1"], out, capsys)
    assert f'"coefficients": "{fixture}({option}=1.0)"'.encode() in left_out[3]
    assert _outcome(argv + [f"--{option}", "2"], out, capsys)[3] != left_out[3]


@pytest.mark.parametrize("argv,message", [
    (["verify", "--field", "folland", "--d", "1", "--kappa", "3"], "--kappa is read by the power field only"),
    (["verify", "--field", "u4", "--d", "2", "--compare-formula", "--kappa", "3"], "--kappa is read by the power field only"),
    (["gallery", "list", "--d", "1", "--lam", "1"], "gallery list reads --lam and --Lam together, and only with --d"),
    (["gallery", "list", "--lam", "1", "--Lam", "2"], "gallery list reads --lam and --Lam together, and only with --d"),
])
def test_a_flag_nothing_reads_exits_two(argv, message, tmp_path, capsys):
    # Each of these ran and exited 0 with the flag ignored.
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


# Every float option of every command, read from the option table.
_HEADS = {
    "verify": ["verify", "--field", "u4"],
    "lyapunov": ["lyapunov", "--fixture", "ou"],
    "op-eval": ["op-eval", "--op", "pucci_max", "--matrix", "[[1,0],[0,1]]"],
    "gallery": ["gallery", "list", "--d", "1"],
}
_NON_FINITE = [
    (_HEADS[command], name, "1,inf,1" if conv is cli._as_gammas else ("nan", "inf", "-inf")[k % 3])
    for command, options in cli.OPTIONS.items()
    for k, (name, (_, conv)) in enumerate(options.items())
    if conv in (cli._as_float, cli._as_gammas)
]


@pytest.mark.parametrize("argv,name,value", _NON_FINITE, ids=[f"{a[0]}-{n}-{v}" for a, n, v in _NON_FINITE])
def test_a_non_finite_number_is_refused_by_name_as_flag_and_as_config_value(argv, name, value, tmp_path, capsys):
    assert main(argv + [f"--{name.replace('_', '-')}={value}"]) == 2
    assert f"error: flag {name!r}: expected a finite number" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    # json writes nan and inf as NaN and Infinity, which json.load reads back.
    cfg.write_text(json.dumps({name: [float(v) for v in value.split(",")] if name == "gammas" else float(value)}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"error: config key {name!r}: expected a finite number" in capsys.readouterr().err


def test_integers_written_as_floats_read_the_same_as_flag_and_as_config_value(tmp_path, capsys):
    head = ["verify", "--field", "u4", "--d", "1", "--char-eps", "0.05"]
    out = tmp_path / "rep.json"
    flags = _outcome(head + ["--n-samples", "1e3", "--seed", "2.0"], out, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_samples": 1e3, "seed": 2.0}')
    assert flags == _outcome(head + ["--config", str(cfg)], out, capsys)
    assert flags[0] == 0 and b'"n_samples": 1000,' in flags[3]
    # Integers beyond 2^53 are read exactly.
    assert cli._as_int(str(2**53 + 1)) == 2**53 + 1 == cli._as_int(2**53 + 1)


def test_the_bad_number_cases_start_from_a_failing_check(capsys):
    assert main(_NEG_U4) == 1
    capsys.readouterr()


def _outcome(argv, out, capsys):
    """(exit code, stdout, stderr, report bytes without wall_time) of one run; out None writes no report."""
    if out is not None and out.exists():
        out.unlink()
    rc = main(argv + ([] if out is None else ["--out", str(out)]))
    std = capsys.readouterr()
    report = re.sub(rb'\n *"wall_time": [^\n]*', b"", out.read_bytes()) if out is not None and out.exists() else None
    return rc, std.out, std.err, report


@pytest.mark.parametrize("tail,exit_code,shown", [
    (["--kappa", "-1e3"], 0, "verdict=pass"),
    (["--kappa", "-3e0"], 0, "verdict=pass"),
    (["--kappa", "-inf"], 2, "kappa"),
    (["--kappa", "2", "--rho-min", "-1e-3"], 2, "rho_min"),
])
def test_a_spaced_negative_value_is_read_like_the_joined_form(tail, exit_code, shown, tmp_path, capsys):
    # argparse alone reads -1e3, -inf and -1e-3 as flags and exits 2 with
    # "expected one argument"; the value must reach its option either way.
    head = ["verify", "--field", "power", "--d", "1"]
    joined = head + tail[:-2] + [f"{tail[-2]}={tail[-1]}"]
    rc, stdout, stderr, _ = spaced = _outcome(head + tail, None, capsys)
    assert spaced == _outcome(joined, None, capsys)
    out = tmp_path / "rep.json"
    assert _outcome(head + tail, out, capsys) == _outcome(joined, out, capsys)
    assert rc == exit_code
    assert shown in stdout + stderr


def test_the_zero_tol_knob_is_refused(tmp_path, capsys):
    # The Pucci dead zone is the constant operators.ZERO_TOL; a stale
    # zero_tol fails loudly instead of being ignored.
    op_eval = ["op-eval", "--op", "pucci_max", "--matrix", "[[1, 0], [0, -1]]"]
    for argv in (_NEG_U4, op_eval):
        assert main(argv + ["--zero-tol", "0"]) == 2
        assert "unrecognized arguments: --zero-tol" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"zero_tol": 0}')
    assert main(_NEG_U4 + ["--config", str(cfg)]) == 2
    assert "unknown config key 'zero_tol' for verify" in capsys.readouterr().err
    ell = Ellipticity(1.0, 2.0)
    with pytest.raises(TypeError, match="zero_tol"):
        OperatorSpec("pucci_max", ell=ell, zero_tol=0.0)
    with pytest.raises(ValueError, match="zero_tol"):
        operators.evaluate("pucci_max", np.eye(2), {"ell": ell, "zero_tol": 0.0})


def test_report_keys_come_in_report_order(tmp_path, capsys):
    spec = OperatorSpec("pucci_min", ell=Ellipticity(1.0, 2.0))
    region = Region(0.5, 4.0, n_samples=64, char_eps=0.05)
    field = gallery.field_from_profile(gallery.make_profile("log_rho"), HeisDims(1))
    rep = checker.check_inequality(field, spec, region, keep_samples=True)
    keys = [
        "kind", "verdict", "worst_violation", "tol", "n_samples", "n_evaluated", "n_excluded",
        "excluded_by", "witness", "formula_comparison", "scan", "components", "paths", "config",
        "wall_time",
    ]
    assert rep.samples is not None
    assert list(rep.to_dict()) == ["schema"] + keys
    out = tmp_path / "rep.json"
    assert main([
        "verify", "--field", "log_rho", "--d", "1", "--rho-min", "0.5", "--rho-max", "4", "--n-samples", "64",
        "--char-eps", "0.05", "--field-table", str(tmp_path / "t.csv"), "--out", str(out),
    ]) == 0
    assert list(_load(out)) == ["schema", "command"] + keys
    assert capsys.readouterr().out.startswith("verify: verdict=pass ")


def test_unknown_flag_exits_two(capsys):
    assert main(["verify", "--field", "log_rho", "--wat"]) == 2
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "field": "log_rho", "d": 2, "n_samples": 64, "char_eps": 0.05, "seed": 3,
    }))
    out = tmp_path / "rep.json"
    rc = main(["verify", "--config", str(cfg), "--n-samples", "32", "--out", str(out)])
    assert rc == 0
    rep = _load(out)
    assert rep["n_samples"] == 32
    assert rep["config"]["region"]["char_eps"] == 0.05


def test_reports_are_deterministic(tmp_path):
    argv = [
        "verify", "--field", "u_tilde", "--d", "2", "--op", "neg_trace",
        "--rho-min", "0.25", "--rho-max", "4", "--n-samples", "128",
        "--char-eps", "0.05", "--seed", "5",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    da, db = _load(a), _load(b)
    da.pop("wall_time"), db.pop("wall_time")
    assert da == db


def test_compare_formula_flag(tmp_path):
    out = tmp_path / "rep.json"
    rc = main([
        "verify", "--field", "log_rho", "--d", "2", "--compare-formula",
        "--n-samples", "128", "--char-eps", "0.05", "--out", str(out),
    ])
    assert rc == 0
    rep = _load(out)
    assert rep["formula_comparison"]["pass"] is True
    assert rep["formula_comparison"]["max_rel_deviation"] <= 1e-12


@pytest.mark.parametrize("region", [[], ["--rho-min", "0.99999999", "--rho-max", "1.00000001"]])
def test_compare_formula_without_a_reference_exits_two_on_any_region(region, tmp_path, capsys):
    # The second region leaves no admissible point: the pair is refused before sampling.
    out = tmp_path / "rep.json"
    argv = ["verify", "--field", "u4", "--op", "neg_trace", "--compare-formula", "--n-samples", "32"]
    assert main(argv + region + ["--out", str(out)]) == 2
    assert "no closed-form reference registered" in capsys.readouterr().err
    assert not out.exists()


def test_field_table_csv(tmp_path):
    out = tmp_path / "rep.json"
    table = tmp_path / "table.csv"
    rc = main([
        "verify", "--field", "log_rho", "--d", "1", "--n-samples", "64",
        "--char-eps", "0.05", "--out", str(out), "--field-table", str(table),
    ])
    assert rc == 0
    rep = _load(out)
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:2] == ["space", "x1"]
    assert "radius" in header and "total" in header and "alive" in header
    assert len(body) == rep["n_evaluated"]
    # values round-trip as floats
    ri = header.index("radius")
    assert all(0.5 <= float(r[ri]) <= 4.0 for r in body)
    assert not list(tmp_path.glob("*.tmp*"))


@pytest.mark.parametrize("d", [1, 2])
def test_a_vacuous_run_writes_a_header_only_field_table(d, tmp_path, capsys):
    # One sample in the characteristic tube: no admissible point.
    out, table = tmp_path / "rep.json", tmp_path / "t.csv"
    argv = [
        "verify", "--field", "u4", "--d", str(d), "--lam", "1", "--Lam", "1.5", "--n-samples", "1",
        "--char-eps", "0.99999", "--field-table", str(table),
    ]
    assert main(argv) == 3
    assert "verdict=vacuous" in capsys.readouterr().out
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    m = 2 * d
    assert rows == [
        ["space", *(f"x{i + 1}" for i in range(m + 1)), "radius", "tau", "value", "second_order", "first_order",
         "total", "alive", *(f"eig{i + 1}" for i in range(m))]
    ]
    # A run with admissible points writes the same header above its rows.
    full = tmp_path / "full.csv"
    assert main([*argv[:9], "--n-samples", "64", "--field-table", str(full)]) == 0
    with open(full, newline="") as fh:
        full_rows = list(csv.reader(fh))
    assert full_rows[0] == rows[0] and len(full_rows) > 1 and all(len(r) == len(rows[0]) for r in full_rows)
    assert main([*argv, "--out", str(out)]) == 3
    assert _load(out)["verdict"] == "vacuous"
    assert not list(tmp_path.glob("*.tmp*"))


def test_lyapunov_command(tmp_path):
    out = tmp_path / "rep.json"
    rc = main([
        "lyapunov", "--fixture", "zero-coeffs", "--d", "1",
        "--rho-min", "1", "--rho-max", "8", "--n-samples", "128",
        "--seed", "11", "--out", str(out),
    ])
    assert rc == 1
    rep = _load(out)
    assert rep["kind"] == "lyapunov"
    assert rep["verdict"] == "fail"
    assert np.isclose(rep["worst_violation"], 5.0)
    assert main(["lyapunov", "--d", "1"]) == 2  # fixture required


def test_op_eval_prints_values(tmp_path, capsys):
    rc = main(["op-eval", "--op", "pucci_max", "--matrix", "[[1,0],[0,-1]]"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 1.0

    rc = main([
        "op-eval", "--op", "pnorm", "--p", "4",
        "--matrix", "[[2,0],[0,1]]", "--q", "[1,0]",
    ])
    assert rc == 0
    # -(tr + (p-2) q.Mq/|q|^2) = -(3 + 2*2) = -7
    assert float(capsys.readouterr().out.strip()) == -7.0

    out = tmp_path / "ops.json"
    rc = main(["op-eval", "--op", "neg_trace", "--matrix", "[[1,0],[0,2]]",
               "--out", str(out)])
    assert rc == 0
    assert _load(out)["values"] == [-3.0]


def test_a_nan_margin_exits_two_with_and_without_a_report(tmp_path, capsys):
    # hou's margins overflow to NaN at rho near 1e80.  The run printed
    # verdict=fail worst_violation=nan and exited 1, and 2 only with --out,
    # when the report writer refused the NaN.
    argv = ["lyapunov", "--fixture", "hou", "--d", "1", "--rho-min", "1e70", "--rho-max", "1e80",
            "--n-samples", "4096"]
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(argv) == 2
        assert main(argv + ["--out", str(out)]) == 2
    text = capsys.readouterr()
    assert "nan" not in text.out
    assert text.err.count("error: the lyapunov check got NaN at rho = ") == 2
    assert not out.exists()


@pytest.mark.parametrize("rho_min,rho_max,code", [("1e70", "1e80", 2), ("1e-300", "16", 2), ("1e60", "1e76", 0)])
def test_hou_at_extreme_radii_keeps_its_exit_code_and_prints_no_warning(tmp_path, rho_min, rho_max, code):
    # Placed margins go NaN where rho^4 overflows (1e70-1e80) or |x_H|^2
    # underflows (1e-300-16), and |eta|^2 overflows to inf on 1e60-1e76, where
    # the closed form stays finite: so that run writes its report.  numpy's
    # RuntimeWarnings used to reach stderr on all three.
    out = tmp_path / "rep.json"
    proc = _run_module("lyapunov", "--fixture", "hou", "--d", "1", "--rho-min", rho_min, "--rho-max", rho_max,
                       "--n-samples", "4096", "--out", str(out))
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error: the lyapunov check got NaN at rho = ")
        assert proc.stderr.count("\n") == 1 and not out.exists()
    else:
        assert proc.stderr == ""
        assert _load(out)["paths"]["guard"]["n_overflow"] == 256


_STEEP = ["verify", "--field", "power", "--d", "1", "--rho-min", "0.3", "--rho-max", "0.6", "--n-samples", "512",
          "--char-eps", "0.05"]
# Runs at the edges of the double range: each exits 0-3, the same with and
# without --out, and writes nothing to stderr but one error line.
_EDGE_RUNS = {
    "power-1000 tol 0": [*_STEEP, "--kappa", "-1000", "--tol", "0"],
    "power-1000 tol 1e-9": [*_STEEP, "--kappa", "-1000", "--tol", "1e-9"],
    "power-260 tol 0": [*_STEEP, "--kappa", "-260", "--tol", "0"],
    "power-260 pucci_max supersolution": [
        "verify", "--field", "power", "--kappa", "-260", "--d", "1", "--op", "pucci_max", "--sense", "supersolution",
        "--rho-min", "0.2", "--rho-max", "0.25", "--n-samples", "256", "--char-eps", "0.05"],
    **{f"{fixture} d{d} [{lo}, {hi}]": ["lyapunov", "--fixture", fixture, "--d", d, "--rho-min", lo, "--rho-max", hi,
                                        "--n-samples", "256"]
       for fixture, d, lo, hi in [("hou", "1", "1e70", "1e80"), ("hou", "1", "1e-300", "16"),
                                  ("schro", "1", "1e-300", "16"), ("ou", "1", "1e-300", "16"),
                                  ("hou", "4", "1e-200", "1e-190"), ("schro", "1", "1e100", "1e300")]},
    "op-eval pucci_max 1e200": ["op-eval", "--op", "pucci_max", "--matrix", "[[1e200, 1e199], [1e199, -1e200]]"],
    "op-eval pnorm 1e200 q 1e160": ["op-eval", "--op", "pnorm", "--p", "3", "--matrix", "[[1e200, 0.0], [0.0, -1e200]]",
                                    "--q", "[1e160, 3e159]"],
}


@pytest.mark.parametrize("argv", list(_EDGE_RUNS.values()), ids=list(_EDGE_RUNS))
def test_runs_at_the_edges_of_the_double_range_keep_one_exit_code_and_stderr_line(argv, tmp_path, capsys):
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ([], ["--out", str(tmp_path / "rep.json")]):
            codes.append(main(argv + extra))
            err = capsys.readouterr().err
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    assert codes[0] == codes[1] and codes[0] in (0, 1, 2, 3)


def test_the_steep_power_run_under_w_error_exits_two_with_one_line():
    # numpy's overflow warning in the profile's power was an exception under
    # -W error, so the run exited 1 with a traceback.
    proc = _run_python("-W", "error", "-m", "heispde", *_STEEP, "--kappa", "-1000")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the inequality check got NaN at rho = ") and proc.stderr.count("\n") == 1


def test_a_pucci_max_supersolution_whose_squares_overflow_fails(capsys):
    # pucci_max(D^2 rho^k) = rho^(k-2) tau^2 (3 Lam |k| - lam k (k - 1)) < 0 at d = 1.
    # ||M||_F overflowed at rho^-262 ~ 1e183, the dead zone took every
    # eigenvalue, and the run passed with worst_violation = -0.0.
    assert main(_EDGE_RUNS["power-260 pucci_max supersolution"]) == 1
    assert "verdict=fail" in capsys.readouterr().out


def test_a_report_that_cannot_be_written_exits_two_with_and_without_out(tmp_path, monkeypatch, capsys):
    # A check may return a non-finite number (a library family's overflowing
    # margin).  The report used to be serialized only for --out, so such a
    # run exited 0 without it and 2 with it.
    run = checker.check_lyapunov
    monkeypatch.setattr(checker, "check_lyapunov", lambda *a, **k: dataclasses.replace(run(*a, **k), worst_violation=-math.inf))
    out = tmp_path / "rep.json"
    argv = FIXTURES["lyapunov-hou"]["argv"]
    assert main(argv) == 2
    assert main(argv + ["--out", str(out)]) == 2
    text = capsys.readouterr()
    assert text.out == "" and text.err.count("error: ") == 2 and not out.exists()


def test_the_convergence_command_is_gone(capsys):
    # The finite-difference study checked no inequality, and no check read its output.
    assert "convergence" not in cli.OPTIONS
    assert main(["convergence", "--field", "folland", "--d", "1"]) == 2
    assert "invalid choice: 'convergence'" in capsys.readouterr().err


def test_the_sampler_option_is_gone(tmp_path, capsys):
    argv = FIXTURES["verify-u4"]["argv"]
    assert main(argv + ["--sampler", "kronecker"]) == 2
    assert "--sampler" in capsys.readouterr().err
    for command in ("verify", "lyapunov"):
        assert "sampler" not in cli.OPTIONS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": "kronecker"}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "unknown config key 'sampler' for verify" in capsys.readouterr().err


def test_the_lyapunov_alpha_option_is_gone(tmp_path, capsys):
    # No fixture reaches condcor1p, so alpha changed only the report's echo.
    argv = FIXTURES["lyapunov-hou"]["argv"]
    assert "alpha" not in cli.OPTIONS["lyapunov"]
    assert main(argv + ["--alpha", "0.3"]) == 2
    assert "unrecognized arguments: --alpha" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.3}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "unknown config key 'alpha' for lyapunov" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seed", "n_samples"])
def test_an_integer_config_value_beyond_float_range_exits_two(key, tmp_path, capsys):
    # JSON reads 1e400 as inf; int(inf) raises OverflowError, not ValueError.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": 1e400}}')
    assert main(["verify", "--field", "u4", "--d", "1", "--config", str(cfg)]) == 2
    assert f"config key '{key}': cannot convert float infinity to integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "u4", "--d", "1", "--seed", "-1"],
    ["lyapunov", "--fixture", "hou", "--d", "1", "--seed", "-1"],
    ["verify", "--field", "folland", "--d", "2", "--compare-formula", "--seed", "-1"],
])
def test_a_negative_seed_exits_two_naming_the_seed(argv, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -3}')
    assert main(argv[:-2] + ["--config", str(cfg)]) == 2
    assert "seed must be a nonnegative integer, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["lyapunov", "--fixture", "hou", "--d", "1", "--rho-min", "2", "--rho-max", "16"],
    ["verify", "--field", "u4", "--d", "1"],
])
def test_a_sample_count_too_large_to_allocate_exits_two(command, tmp_path, capsys):
    # 10^16 doubles are 80 PB: a 64-bit host refuses the chart at allocation.
    out = tmp_path / "rep.json"
    assert main(command + ["--n-samples", str(10**16), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
    assert not out.exists()


def test_gallery_command(tmp_path, capsys):
    assert main(["gallery", "list", "--d", "1"]) == 0
    text = capsys.readouterr().out
    assert "u_tilde" in text and "log_rho" in text

    out = tmp_path / "gal.json"
    assert main(["gallery", "list", "--d", "1", "--lam", "1", "--Lam", "2",
                 "--json", "--out", str(out)]) == 0
    rep = _load(out)
    assert rep["kind"] == "gallery"
    names = {row["name"] for row in rep["rows"]}
    assert {"u2", "u3", "u_tilde", "u4", "u5", "folland"} <= names
    u2 = next(r for r in rep["rows"] if r["name"] == "u2")
    assert u2["valid"] is False  # bump exponent degenerates in one dimension


def test_fixture_registry_runs_with_expected_exits(tmp_path):
    for name in ("verify-log-rho", "lyapunov-zero-coeffs", "op-eval-pucci"):
        out = tmp_path / f"{name}.json"
        rc = run_fixture(name, out=str(out))
        assert rc == FIXTURES[name]["expected_exit"]
        if name != "op-eval-pucci":
            assert _load(out)["schema"] == "heispde-report-v2"
    with pytest.raises(KeyError):
        run_fixture("no-such-fixture")


def test_float_formatting_rejects_non_finite(tmp_path):
    out = tmp_path / "rep.json"
    for bad in (
        float("nan"), float("inf"), -float("inf"),
        np.float32("nan"), np.float32("inf"), np.float32("-inf"),
        np.array([1.0, np.nan]), np.array([[0.0], [np.inf]]), np.array([-np.inf]),
    ):
        with pytest.raises(ValueError):
            cli.write_json_report(str(out), {"ok": 1.0, "x": bad})
        assert list(tmp_path.iterdir()) == []


def test_reports_round_trip_exactly_and_are_canonical(tmp_path):
    out = tmp_path / "rep.json"
    grid = np.arange(6.0).reshape(2, 3) / 7.0
    cli.write_json_report(str(out), {
        "third": np.float64(1) / 3, "tenth": 0.1, "single": np.float32(0.1),
        "big": np.int64(2**53 + 1), "flag": np.bool_(True), "grid": grid,
    })
    back = _load(out)
    assert back["third"] == 1.0 / 3.0 and back["tenth"] == 0.1
    assert back["single"] == float(np.float32(0.1))
    assert back["big"] == 2**53 + 1 and back["flag"] is True
    assert np.array_equal(np.array(back["grid"]), grid)
    for name in ("verify-log-rho", "gallery-list"):
        report = tmp_path / f"{name}.json"
        assert run_fixture(name, out=str(report)) == FIXTURES[name]["expected_exit"]
        for path in (out, report):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert not list(tmp_path.glob("*.tmp*"))


def test_field_table_leaves_nothing_on_non_finite(tmp_path, monkeypatch, capsys):
    run = checker.check_inequality

    def with_a_nan_value(*args, **kwargs):
        report = run(*args, **kwargs)
        report.samples["value"][-1] = np.nan
        return report

    monkeypatch.setattr(checker, "check_inequality", with_a_nan_value)
    argv = FIXTURES["verify-u4"]["argv"] + ["--field-table", str(tmp_path / "t.csv")]
    for extra in ([], ["--out", str(tmp_path / "rep.json")]):
        assert main(argv + extra) == 2
        assert capsys.readouterr() == ("", "error: refusing to serialize a non-finite number\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", list(FIXTURES))
def test_a_command_writes_all_of_its_outputs_or_none(name, tmp_path, capsys):
    argv = FIXTURES[name]["argv"]
    out = tmp_path / "rep.json"
    # A verify run's --field-table was written before its --out failed.
    side = ["--field-table", str(tmp_path / "t.csv")] if argv[0] == "verify" else []
    unwritable = tmp_path / "missing" / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = main(argv), capsys.readouterr()
        assert (main(argv + ["--out", str(out)]), capsys.readouterr()) == bare
        assert bare[0] == FIXTURES[name]["expected_exit"] and out.exists()
        out.unlink()
        assert main(argv + side + ["--out", str(unwritable)]) == 2
    text = capsys.readouterr()
    assert text.out == "" and text.err.startswith("error: ") and text.err.count("\n") == 1
    # The error names the path asked for, not its temporary file.
    assert f": {str(unwritable)!r}\n" in text.err
    assert list(tmp_path.iterdir()) == []


def test_an_out_that_is_a_directory_leaves_the_field_table_unwritten(tmp_path, capsys):
    # The table was moved into place before the report's move failed.
    (tmp_path / "dir").mkdir()
    argv = FIXTURES["verify-u4"]["argv"] + ["--field-table", str(tmp_path / "t.csv"), "--out", str(tmp_path / "dir")]
    assert main(argv) == 2
    message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path / 'dir')!r}"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"] and not any((tmp_path / "dir").iterdir())


def test_an_op_eval_that_overflows_prints_nothing_with_and_without_out(tmp_path, capsys):
    # Without --out it printed -2.0 before refusing the second value.
    argv = ["op-eval", "--op", "neg_trace", "--matrix", "[[[1.0,0.0],[0.0,1.0]], [[1e308,0.0],[0.0,1e308]]]"]
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ([], ["--out", str(out)]):
            assert main(argv + extra) == 2
            assert capsys.readouterr() == ("", "error: refusing to serialize a non-finite number\n")
    assert not out.exists()


def test_two_outputs_to_one_file_exit_two_and_write_neither(tmp_path, monkeypatch, capsys):
    # The report silently replaced the table.
    monkeypatch.chdir(tmp_path)
    argv = FIXTURES["verify-u4"]["argv"] + ["--field-table", "same.json", "--out", "./same.json"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: two outputs name one file: same.json, ./same.json\n")
    assert list(tmp_path.iterdir()) == []


def test_a_closed_stdout_exits_two(monkeypatch, capsys):
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    assert main(FIXTURES["op-eval-pucci"]["argv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: I/O operation on closed file") and err.count("\n") == 1


def _kind(conv):
    if hasattr(conv, "choices"):
        return "choice"
    return {
        cli._as_float: "float", cli._as_int: "int", cli._as_bool: "bool",
        cli._as_str: "str", cli._as_gammas: "gammas",
        cli._as_matrix: "matrix", cli._as_vector: "vector",
    }[conv]


# kind -> (config value, flag argument, effective value from the flag)
_OVERRIDE = {
    "float": (1.5, "2.5", 2.5),
    "int": (3, "5", 5),
    "bool": (False, None, True),
    "str": ("a.json", "b.json", "b.json"),
    "gammas": ([1.0], "2,3", (2.0, 3.0)),
    "matrix": ([[1, 0], [0, 1]], "[[2,0],[0,2]]", [[[2.0, 0.0], [0.0, 2.0]]]),
    "vector": ([1, 0], "[0,1]", [[0.0, 1.0]]),
}
_BAD = {"float": "x1", "int": "1.5", "choice": "no-such-choice", "matrix": "[[1,0],[0,1"}


@pytest.mark.parametrize(
    "command,name", [(c, n) for c, opts in cli.OPTIONS.items() for n in opts]
)
def test_option_table_is_the_single_source(command, name, tmp_path, capsys):
    default, conv = cli.OPTIONS[command][name]
    kind = _kind(conv)
    head = [command] + (["list"] if command == "gallery" else [])
    flag = "--" + name.replace("_", "-")
    cfg = tmp_path / "cfg.json"

    def with_config(argv, config):
        cfg.write_text(json.dumps(config))
        return argv + ["--config", str(cfg)]

    def settings(argv):
        eff = cli._effective(cli._build_parser().parse_args(head + argv))
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in eff.items()}

    base = settings([])
    assert set(base) == set(cli.OPTIONS[command]) and base[name] == default
    assert settings(with_config([], {name: default})) == base
    if default is not None and kind != "bool":
        assert settings([flag, str(default)]) == base

    if kind == "choice":
        cfg_value, flag_arg = conv.choices[0], conv.choices[-1]
        expected = flag_arg
    else:
        cfg_value, flag_arg, expected = _OVERRIDE[kind]
    argv = [flag] if flag_arg is None else [flag, flag_arg]
    got = settings(with_config(argv, {name: cfg_value}))
    assert got == {**base, name: expected}

    if kind in _BAD:
        assert main(head + [flag, _BAD[kind]]) == 2
        assert main(with_config(list(head), {name: _BAD[kind]})) == 2
    capsys.readouterr()


def _run_python(*args):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def _run_module(*args):
    return _run_python("-m", "heispde", *args)


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_module_entry_point_help_lists_every_option(command):
    proc = _run_module(command, "--help")
    assert proc.returncode == 0, proc.stderr
    flags = {"--" + name.replace("_", "-") for name in cli.OPTIONS[command]}
    assert flags <= set(re.findall(r"--[\w-]+", proc.stdout))


@pytest.mark.parametrize("args", [("-c", "import heispde"), ("-m", "heispde", "--help")])
def test_import_and_help_load_no_scipy(args):
    proc = _run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    loaded = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    ]
    assert "numpy" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_module_entry_point_op_eval():
    proc = _run_module("op-eval", "--op", "pucci_max", "--matrix", "[[1,0],[0,-1]]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.0\n"
