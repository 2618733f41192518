"""Hessian batches in one batch-last layout: the same bits, no copies on the way.

The gallery builds its Hessians batch-last (entry (i, j) of every matrix
one contiguous row) and returns their (..., n, n) view; h_hessian reads
such a view in place (tests/test_hgroup.py checks its bits in every
layout); check_tabulated gathers a table's rows straight into that
layout.  The gallery keeps the bits of the (..., n, n) einsum formula it
replaced, kept in tests/_oracles.py.
"""

import json
import tracemalloc

import numpy as np
import pytest

from heispde import checker, hgroup, operators
from heispde.checker import OperatorSpec, Region, TabulatedField, check_tabulated
from heispde.gallery import PROFILES, field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

import _oracles

E15 = Ellipticity(1.0, 1.5)
# Every shipped profile on H^d at d = 1, 2 and 4, and the Euclidean ones on R^3 and R^4.
FIELD_CASES = [
    (name, d)
    for name, example in PROFILES.items()
    for d in ((3, 4) if example.kind == "euclidean" else (1, 2, 4))
]


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _field(name, d):
    dims = HeisDims(d)
    return field_from_profile(make_profile(name, E15, dims, kappa=-0.7), dims)


def _points(field, rng, n_random=60):
    """Points at radii on each breakpoint and one ulp either side, on axes and in random directions, then random radii."""
    radii = [r for b in field.singular_radii for r in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))]
    axis = np.zeros((len(radii), field.dim))
    axis[:, 0] = radii  # |x| = rho = r exactly
    radii = np.concatenate([radii, np.exp(rng.uniform(np.log(0.05), np.log(20.0), n_random))])
    g = rng.standard_normal((radii.size, field.dim))
    if field.space == "heisenberg":
        pts = hgroup.dilate(radii / hgroup.hnorm(g), g)
    else:
        pts = g * (radii / np.sqrt(hgroup._rowdot(g, g)))[:, None]
    return np.concatenate([axis, pts])


def _oracle_hessian(field, x):
    if field.space == "heisenberg":
        rho = hgroup.hnorm(x)
        _, fp, fpp = field.profile.jets(rho)
        return _oracles.gauge_radial_hessian(x, rho, hgroup.euclid_grad_rho(x, rho), fp, fpp)
    r = np.sqrt(hgroup._rowdot(x, x))
    _, fp, fpp = field.profile.jets(r)
    return _oracles.euclidean_radial_hessian(x, r, fp, fpp)


@pytest.mark.parametrize("name,d", FIELD_CASES, ids=[f"{name}-{d}" for name, d in FIELD_CASES])
def test_gallery_hessians_match_the_einsum_formula_bit_for_bit(name, d):
    field = _field(name, d)
    rng = np.random.default_rng(d)
    x = _points(field, rng)
    x = np.concatenate([x, x[: (-x.shape[0]) % 6]]).reshape(2, 3, -1, field.dim)
    want = _oracle_hessian(field, x)
    for layout in (x, np.asfortranarray(x)):
        got = field.hessian(layout)
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)
        assert _bits((-field).hessian(layout)) == _bits(-want)
    # Built batch-last: entry (i, j) of every matrix is one contiguous row.
    assert np.moveaxis(got, (-2, -1), (0, 1)).flags.c_contiguous


# ---------------------------------------------------------------------------
# empty batches


@pytest.mark.parametrize("d", [1, 2])
def test_h_hessian_of_an_empty_batch_is_empty(d):
    n = 2 * d + 1
    assert hgroup.h_hessian(None, np.zeros((0, n, n)), np.zeros((0, n))).shape == (0, n - 1, n - 1)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(operators.OPERATORS))
def test_table_operators_on_an_empty_batch_are_empty(name, m):
    params = {"ell": E15, "alpha": 0.1, "p": 3.0}
    params = {k: v for k, v in params.items() if k == operators.OPERATORS[name].param}
    values, eigs = operators.evaluate(name, np.zeros((0, m, m)), params, np.zeros((0, m)))
    assert values.shape == (0,) and eigs.shape == (0, m)
    assert operators.sym_eigenvalues(np.zeros((0, m, m))).shape == (0, m)


def test_op_eval_still_refuses_an_empty_matrix(capsys):
    from heispde.cli import main

    for matrix in ("[]", "[[]]"):
        assert main(["op-eval", "--op", "neg_trace", "--matrix", matrix]) == 2
    assert "square matrix" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tables


def _table(d, rows, batch_last=False):
    field = _field("u4", d)
    rng = np.random.default_rng(d)
    g = rng.standard_normal((rows, field.dim))
    pts = hgroup.dilate(np.exp(rng.uniform(np.log(0.2), np.log(4.0), rows)) / hgroup.hnorm(g), g)
    hess = np.ascontiguousarray(field.hessian(pts))
    if batch_last:
        hess = np.moveaxis(np.ascontiguousarray(np.moveaxis(hess, 0, -1)), -1, 0)
    return TabulatedField(pts, field.value(pts), field.gradient(pts), hess)


def _report_bytes(rep) -> str:
    payload = rep.to_dict()
    payload.pop("wall_time")
    return json.dumps(payload)


@pytest.mark.parametrize("op", ["pucci_max", "pnorm"])
@pytest.mark.parametrize("d", [1, 2])
def test_tables_give_the_same_report_in_either_hessian_layout(op, d, monkeypatch):
    # Small chunks, so the gather runs more than one block per chunk and more than one chunk.
    monkeypatch.setattr(checker, "_CHUNK_ROWS", 1500)
    spec = OperatorSpec(op, ell=E15) if op == "pucci_max" else OperatorSpec(op, p=3.0)
    region = Region(0.1, 5.0, char_eps=0.02)
    reports = [_report_bytes(check_tabulated(_table(d, 4000, bl), spec, region)) for bl in (False, True)]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# memory


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_gallery_hessian_peaks_below_twice_its_output():
    # The (N, n, n) formula peaked at 4.6 times its output here.
    field, rng = _field("u4", 4), np.random.default_rng(4)
    g = rng.standard_normal((8192, field.dim))
    x = np.asfortranarray(hgroup.dilate(np.exp(rng.uniform(np.log(0.1), np.log(5.0), 8192)) / hgroup.hnorm(g), g))
    out = field.hessian(x)
    assert _peak(lambda: field.hessian(x)) <= 2 * out.nbytes


@pytest.mark.parametrize("op", ["pucci_max", "pnorm"])
def test_a_dense_tabulated_chunk_at_d2_peaks_within_its_layout(op, monkeypatch):
    # At the chunk's peak it holds, per row, the gathered batch-last
    # Hessians (n^2 doubles), h_hessian's output (m^2) and its four
    # m-vectors (b, hp, c hp and one row), and about three n-vectors for the
    # placed points, the chart and the row index; pnorm also gathers the
    # gradients (n).  The (N, n, n) gather and h_hessian's transposed copy
    # held 86.2 and 91.2 doubles per row here.
    rows, d = 1 << 14, 2
    n, m = 2 * d + 1, 2 * d
    monkeypatch.setattr(checker, "_CHUNK_ROWS", rows)
    table = _table(d, rows)
    spec = OperatorSpec(op, ell=E15) if op == "pucci_max" else OperatorSpec(op, p=3.0)
    region = Region(0.1, 5.0, char_eps=0.02)
    assert check_tabulated(table, spec, region).n_evaluated > 0.9 * rows
    bound = n * n + m * m + 4 * m + 3 * n + (n if op == "pnorm" else 0)
    per_row = _peak(lambda: check_tabulated(table, spec, region)) / (8 * rows)
    assert per_row <= bound, f"{op}: {per_row:.1f} doubles per row, bound {bound}"
