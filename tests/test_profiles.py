"""Tests driven by gallery.PROFILES, and the one symmetry rule for matrix arguments.

Every record's closed forms must hold in formula mode, every record must
pass `heispde verify` under its own (operator, sense), and the command line
lists exactly the records.  Matrices are symmetric when their skew is small
against their own largest entry, on H^d, on R^n and in op-eval alike.
"""

import dataclasses
import json

import numpy as np
import pytest

from heispde import cli, hgroup, operators
from heispde.checker import OperatorSpec, Region, TabulatedField, check_inequality, check_tabulated
from heispde.gallery import PROFILES, ProfileRegimeError, field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

E12 = Ellipticity(1.0, 2.0)
E15 = Ellipticity(1.0, 1.5)
# The deviation is allowed what sense mode allows the excess, relative to the
# eigenvalues (about rho^-Q), also where the reference is 0: folland at d = 4
# reaches 1e8 here, and an allowance of tol * max(1, |reference|) failed it.
FORMULA_REGION = Region(0.25, 4.0, n_samples=1000, seed=3, char_eps=0.05)


def _spec(op, dims):
    """op with the parameter it reads: E15, alpha = 1 / (2m), or p = 3."""
    param = operators.OPERATORS[op].param
    values = {"ell": E15, "alpha": 0.5 / dims.m, "p": 3.0}
    return OperatorSpec(op, **({param: values[param]} if param else {}))


FORMULA_CELLS = [
    (name, op, d)
    for name, example in PROFILES.items()
    for op in example.closed_forms
    for d in ((1, 2, 4) if example.kind == "heisenberg" else (3, 4))
]


@pytest.mark.parametrize("name, op, d", FORMULA_CELLS)
def test_every_closed_form_holds_in_formula_mode(name, op, d):
    dims = HeisDims(d)
    e = E15 if "e" in PROFILES[name].needs else None
    field = field_from_profile(make_profile(name, e, dims, kappa=1.0), dims)
    report = check_inequality(field, _spec(op, dims), FORMULA_REGION, mode="formula")
    fc = report.formula_comparison
    assert report.verdict == "pass" and fc["n_compared"] > 0
    assert fc["max_rel_deviation"] is None or fc["max_rel_deviation"] <= 1e-12


@pytest.mark.parametrize("op", ["pucci_min", "pucci_minus_alpha"])
def test_formula_mode_reads_the_fields_dims_not_the_profiles(op):
    # Built without dims, log_rho's params hold no d or Q.
    dims = HeisDims(2)
    field = field_from_profile(make_profile("log_rho"), dims)
    assert "Q" not in field.profile.params
    report = check_inequality(field, _spec(op, dims), FORMULA_REGION, mode="formula")
    assert report.verdict == "pass"
    assert report.formula_comparison["n_nonzero_reference"] > 0
    assert report.formula_comparison["max_rel_deviation"] <= 1e-12


def test_every_record_passes_verify_under_its_own_claim(capsys):
    # power at kappa = 1, the default lam = 1 and Lam = 2; a record is run at
    # the first d in 1..4 inside its regime.
    skipped, ran = [], {}
    for name, example in PROFILES.items():
        kappa = ["--kappa", "1"] if "kappa" in example.needs else []
        for d in (1, 2, 3, 4):
            try:
                make_profile(name, E12, HeisDims(d), kappa=1.0)
            except ProfileRegimeError:
                skipped.append((name, d))
                continue
            argv = ["verify", "--field", name, "--d", str(d), "--n-samples", "512", *kappa]
            ran[name] = cli.main(argv)
            break
    capsys.readouterr()
    assert ran == {name: 0 for name in PROFILES}
    # u2's exponent 2(d - 1) + 1 and u3's (d - 1) / 2 + 1 must exceed 2.
    assert skipped == [("u2", 1), ("u3", 1), ("u3", 2), ("u3", 3)]


def test_the_records_are_the_fields_the_cli_offers_and_lists(capsys):
    assert sorted(cli.OPTIONS["verify"]["field"][1].choices) == sorted(PROFILES)
    assert cli.main(["gallery", "list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["name"] for row in rows] == list(PROFILES)
    assert cli.main(["gallery", "list"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == list(PROFILES)


def test_a_dilated_folland_hessian_passes_the_relative_symmetry_rule():
    # Entries reach 1.7e5, where the Hessian's skew of 3.6e-12 is below one ulp.
    dims = HeisDims(1)
    folland = field_from_profile(make_profile("folland", None, dims), dims)
    s = np.array([3.0, 3.0, 9.0])
    dilated = dataclasses.replace(
        folland,
        name="folland.dilated",
        value=lambda x: folland.value(x * s),
        gradient=lambda x: folland.gradient(x * s) * s,
        hessian=lambda x: folland.hessian(x * s) * s[:, None] * s,
        profile=None,
    )
    report = check_inequality(
        dilated, OperatorSpec("neg_trace"), Region(0.1, 1.0, n_samples=2000, seed=4, char_eps=0.05)
    )
    assert report.verdict == "pass" and report.n_evaluated > 0


def _table(space, scale, skew):
    """A 50-row jet table of u5 on H^1 or u2 on R^3, Hessians times scale, H[0, 1] raised by skew times each |H|'s largest entry."""
    dims = HeisDims(1 if space == "heisenberg" else 3)
    field = field_from_profile(make_profile("u5" if space == "heisenberg" else "u2", E12, dims), dims)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((50, field.dim))
    r = rng.uniform(1.5, 3.0, 50)
    if space == "heisenberg":
        pts = hgroup.dilate(r / hgroup.hnorm(g), g)
    else:
        pts = g * (r / np.linalg.norm(g, axis=1))[:, None]
    hess = field.hessian(pts) * scale
    hess[:, 0, 1] += skew * np.abs(hess).max(axis=(1, 2))
    return TabulatedField(pts, field.value(pts) * scale, field.gradient(pts) * scale, hess, space=space)


REGION = Region(1.0, 4.0, char_eps=0.02)
SCALES = [2.0**k for k in (-40, -20, 0, 20, 40)]


@pytest.mark.parametrize("space", ["heisenberg", "euclidean"])
def test_an_asymmetric_table_is_refused_on_both_spaces(space):
    table = _table(space, 1.0, 0.0)
    hess = table.hessians.copy()
    hess[:, 0, 1] += 0.5
    skewed = dataclasses.replace(table, hessians=hess)
    assert check_tabulated(table, OperatorSpec("neg_trace"), REGION).n_evaluated == 50
    with pytest.raises(ValueError, match="is not symmetric"):
        check_tabulated(skewed, OperatorSpec("neg_trace"), REGION)


@pytest.mark.parametrize("space", ["heisenberg", "euclidean"])
@pytest.mark.parametrize("scale", SCALES)
def test_the_symmetry_rule_is_relative_to_each_matrix(space, scale):
    with pytest.raises(ValueError, match="is not symmetric"):
        check_tabulated(_table(space, scale, 1e-6), OperatorSpec("neg_trace"), REGION)
    assert check_tabulated(_table(space, scale, 1e-13), OperatorSpec("neg_trace"), REGION).n_evaluated == 50


@pytest.mark.parametrize("scale", SCALES)
def test_op_eval_holds_matrices_to_the_same_rule(scale, capsys):
    def op_eval(skew):
        mat = np.array([[2.0, -1.0 + skew * 2.0], [-1.0, 0.5]]) * scale
        return cli.main(["op-eval", "--op", "neg_trace", "--matrix", json.dumps(mat.tolist())])

    assert op_eval(1e-6) == 2
    assert "error: matrix is not symmetric" in capsys.readouterr().err
    assert op_eval(1e-13) == 0


def test_each_matrix_is_held_to_its_own_scale():
    # A large matrix's skew neither excuses nor condemns a small one in the same batch.
    big = np.array([[1e6, 1e6 + 1e-7], [1e6, 1.0]])
    small = np.array([[1.0, 1e-6], [0.0, 1.0]])
    assert operators.sym_eigenvalues(big).shape == (2,)
    with pytest.raises(ValueError, match=r"max \|M - M\^T\| = 1\.000e-06"):
        operators.sym_eigenvalues(np.stack([big, small]))
    x = np.zeros((2, 3)) + 0.5
    heis = np.zeros((2, 3, 3))
    heis[0] = 1e6
    heis[0, 0, 1] += 1e-7
    heis[1, 0, 1] = 1e-6
    with pytest.raises(ValueError, match=r"max \|H - H\^T\| = 1\.000e-06"):
        hgroup.h_hessian(None, heis, x)
