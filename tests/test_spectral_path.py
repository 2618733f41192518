"""The spectral path for radial fields against the dense path."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from heispde import checker, cli, gallery, hgroup, operators
from heispde.checker import OperatorSpec, Region, TabulatedField, check_inequality, check_tabulated
from heispde.gallery import PROFILES, ProfilePiece, RadialProfile, field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients

E15 = Ellipticity(1.0, 1.5)
REGION = Region(0.25, 4.0, n_samples=512, seed=5, char_eps=0.05)
GROUP_PROFILES = [name for name, example in PROFILES.items() if example.kind == "heisenberg"]
CASES = [(name, d) for name in GROUP_PROFILES for d in (1, 2, 4)] + [("u2", 3), ("u3", 4)]


def _points(batch):
    """Every point of a batch, placed in one call."""
    return batch.place(np.arange(batch.radius.shape[0]))


def _field(name, d):
    dims = HeisDims(d)
    return field_from_profile(make_profile(name, E15, dims, kappa=3.0), dims)


def _spec(op, m):
    return OperatorSpec(op, ell=E15, alpha=0.5 / m, p=3.0)


@pytest.mark.parametrize("name,d", CASES)
def test_spectral_path_matches_dense_path(name, d):
    field = _field(name, d)
    m = 2 * d if field.space == "heisenberg" else d
    for f, op in itertools.product((field, -field), operators.OPERATORS):
        spec = _spec(op, m)
        fast = check_inequality(f, spec, REGION, keep_samples=True)
        dense = check_inequality(dataclasses.replace(f, profile=None), spec, REGION, keep_samples=True)
        n = fast.n_evaluated
        assert fast.paths["chart"] == n and fast.paths["placed"] == 0
        assert dense.paths == {"chart": 0, "placed": n, "guard": None}
        assert fast.paths["guard"]["n"] == min(n, 256)
        assert fast.paths["guard"]["max_rel"] <= 1e-12
        got, want = fast.samples["eigs"], dense.samples["eigs"]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (f.name, op)

        got, want = fast.samples["second"], dense.samples["second"]
        scale = np.maximum(1.0, np.abs(want))
        if (name, op) == ("folland", "neg_trace"):
            # The horizontal Laplacian of the Folland solution is zero: the
            # value is a cancelling sum of eigenvalues up to ~1e7 here, so
            # both paths carry rounding relative to that sum.
            scale = np.maximum(scale, np.abs(dense.samples["eigs"]).sum(axis=-1))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (f.name, op)
        assert fast.verdict == dense.verdict, (f.name, op)


@pytest.mark.parametrize("costs", [(0.0,), (1.0,), (1.0, 2.0)])
@pytest.mark.parametrize(
    "name,d,gradient_space",
    [("u5", 1, "horizontal"), ("u5", 1, "euclidean"), ("u5", 4, "horizontal"), ("u5", 4, "euclidean"), ("u2", 3, "euclidean")],
)
def test_a_bellman_part_has_the_same_bits_on_both_paths(name, d, gradient_space, costs):
    # The first-order part reads u and q at the placed point, which both paths
    # take from the field by one rule.
    field = _field(name, d)
    g = hgroup.eta if gradient_space == "horizontal" else (lambda x: x)
    drifts = (lambda x: -g(x), lambda x: 0.5 * g(x))[: len(costs)]
    coeffs = HJBCoefficients(drifts, tuple(lambda x, c=c: np.full(x.shape[:-1], c) for c in costs), gradient_space)
    spec = OperatorSpec("pucci_max", "supersolution", ell=E15, first_order=coeffs)
    fast = check_inequality(field, spec, REGION, keep_samples=True)
    dense = check_inequality(dataclasses.replace(field, profile=None), spec, REGION, keep_samples=True)
    assert fast.paths["chart"] == fast.n_evaluated > 0
    got, want = fast.samples["first"], dense.samples["first"]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _report_bytes(report, path):
    payload = report.to_dict()
    payload.pop("wall_time")
    cli.write_json_report(path, payload)
    return path.read_bytes()


def test_reports_do_not_depend_on_the_thread_count(tmp_path):
    # The checker is single-threaded; each report must be byte-stable.
    table = _table(_field("u4", 2))
    calls = [
        lambda: check_inequality(_field("u4", 2), _spec("pucci_max", 4), REGION),
        lambda: check_inequality(_field("u2", 3), _spec("pucci_min", 3), REGION),
        lambda: check_inequality(
            _field("log_rho", 1), _spec("pucci_min", 2), REGION, mode="formula"
        ),
        lambda: check_inequality(-_field("u5", 2), _spec("pucci_max", 4), REGION),
        lambda: check_inequality(_field("u4", 2), _spec("pnorm", 4), REGION),
        lambda: check_inequality(
            dataclasses.replace(_field("u4", 2), profile=None), _spec("pnorm", 4), REGION
        ),
        lambda: check_tabulated(table, _spec("pucci_max", 4), REGION),
    ]
    for k, call in enumerate(calls):
        seen = [_report_bytes(call(), tmp_path / f"r{k}-{run}.json") for run in range(2)]
        assert seen[0] == seen[1]
        assert b'"paths"' in seen[0]


def _table(field):
    pts = _points(checker.sample_region(REGION, space="heisenberg", dim=field.dim))
    return TabulatedField(pts, field.value(pts), field.gradient(pts), field.hessian(pts))


def _dense_only(report):
    return report.paths == {"chart": 0, "placed": report.n_evaluated, "guard": None}


def _spectral_only(report):
    return report.paths["chart"] == report.n_evaluated > 0 and report.paths["placed"] == 0


def test_negated_and_pnorm_runs_are_spectral_tables_and_bare_fields_dense():
    field = _field("u4", 2)
    spec = _spec("pucci_max", 4)
    assert _spectral_only(check_inequality(field, spec, REGION))
    assert _spectral_only(check_inequality(-field, spec, REGION))
    assert _spectral_only(check_inequality(field, _spec("pnorm", 4), REGION))
    assert _spectral_only(check_inequality(-field, _spec("pnorm", 4), REGION))
    assert _dense_only(check_tabulated(_table(field), spec, REGION))
    assert _dense_only(check_inequality(dataclasses.replace(field, profile=None), spec, REGION))


def _doubled(field):
    hessian = field.hessian
    return dataclasses.replace(field, hessian=lambda x: 2.0 * hessian(x))


def test_disagreeing_paths_raise_instead_of_reporting(monkeypatch, tmp_path, capsys):
    field = _doubled(_field("u4", 1))
    with pytest.raises(ValueError, match="spectral and dense paths disagree"):
        check_inequality(field, _spec("pucci_max", 2), REGION)

    make_field = gallery.field_from_profile
    monkeypatch.setattr(gallery, "field_from_profile", lambda p, dims: _doubled(make_field(p, dims)))
    out = tmp_path / "report.json"
    argv = cli.FIXTURES["verify-u4"]["argv"] + ["--out", str(out)]
    assert cli.main(argv) == 2
    assert "disagree" in capsys.readouterr().err
    assert not out.exists()


def test_zero_gradient_rows_are_excluded_on_both_paths():
    # A constant core glued to rho^2: the gradient vanishes on rho < 1 only.
    pieces = (ProfilePiece(0.0, 1.0, "power", (0.0,)), ProfilePiece(1.0, np.inf, "power", (2.0,)))
    profile = RadialProfile("flat_core", "heisenberg", pieces, {}, bounded=False)
    region = Region(0.25, 4.0, n_samples=256, char_eps=0.0)
    field = field_from_profile(profile, HeisDims(1))
    fast = check_inequality(field, _spec("pnorm", 2), region)
    dense = check_inequality(dataclasses.replace(field, profile=None), _spec("pnorm", 2), region)
    assert fast.paths["chart"] > 0
    assert fast.excluded_by["zero_gradient"] == dense.excluded_by["zero_gradient"] > 0
    assert (fast.n_evaluated, fast.verdict) == (dense.n_evaluated, dense.verdict)
    assert 0 < fast.n_evaluated < fast.paths["chart"]


def test_a_gradient_whose_square_underflows_is_not_a_zero_gradient(tmp_path, capsys):
    # f' = 300 rho^299 vanishes nowhere on [0.05, 0.2], but |q|^2 = f'^2 w
    # underflows on most of it, and the run read every row as q = 0 (exit 3).
    # Only the rows where f' itself underflows stay excluded.
    out = tmp_path / "rep.json"
    argv = ["verify", "--field", "power", "--kappa", "300", "--d", "1", "--op", "pnorm", "--p", "3",
            "--rho-min", "0.05", "--rho-max", "0.2", "--n-samples", "512", "--char-eps", "0.05", "--out", str(out)]
    assert cli.main(argv) == 0
    rep = json.loads(out.read_text())
    region = Region(0.05, 0.2, n_samples=512, char_eps=0.05)
    batch = checker.sample_region(region, space="heisenberg", dim=3)
    fp = make_profile("power", kappa=300.0).deriv(batch.radius[batch.admissible])
    assert rep["excluded_by"]["zero_gradient"] == np.count_nonzero(fp == 0.0) < batch.n_admissible // 2
    assert rep["n_evaluated"] == np.count_nonzero(fp) > 0
    capsys.readouterr()


@pytest.mark.parametrize("name,d", [("u4", 1), ("u2", 3)])
def test_a_wrong_spectral_e_q_makes_the_dense_check_raise(name, d, monkeypatch):
    field = _field(name, d)
    spec = _spec("pnorm", 2 * d if field.space == "heisenberg" else d)
    assert check_inequality(field, spec, REGION).paths["guard"]["max_rel"] <= 1e-12
    spectral_jets = checker._spectral_jets

    def skewed(*args):
        val, eigs, e_q, qq = spectral_jets(*args)
        return val, eigs, e_q * (1.0 + 1e-6), qq

    monkeypatch.setattr(checker, "_spectral_jets", skewed)
    with pytest.raises(ValueError, match="disagree.*e_q"):
        check_inequality(field, spec, REGION)


def test_fixture_reports_carry_the_dense_check(tmp_path, capsys):
    for name in ("verify-log-rho", "verify-log-rho-formula", "verify-u4", "verify-u-tilde"):
        out = tmp_path / f"{name}.json"
        assert cli.run_fixture(name, out=str(out)) == cli.FIXTURES[name]["expected_exit"]
        paths = json.loads(out.read_text())["paths"]
        assert paths["chart"] > 0 and paths["placed"] == 0
        assert paths["guard"]["max_rel"] <= 1e-12
    capsys.readouterr()
