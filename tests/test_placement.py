"""Points placed on demand, and the sort-free radial spectra."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from heispde import checker, gallery, hgroup
from heispde.checker import (
    OperatorSpec,
    Region,
    TabulatedField,
    check_inequality,
    check_lyapunov,
    check_tabulated,
    convergence_study,
    lyapunov_fixture,
    sample_region,
)
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients

E15 = Ellipticity(1.0, 1.5)
# (space, dim): H^1, H^2, H^4, R^3, R^4.
SPACES = [("heisenberg", 3), ("heisenberg", 5), ("heisenberg", 9), ("euclidean", 3), ("euclidean", 4)]


def _field(name, d):
    dims = HeisDims(d)
    return field_from_profile(make_profile(name, E15, dims), dims)


def _row_sets(n):
    rng = np.random.default_rng(n)
    return {
        "random": rng.choice(n, size=n // 3, replace=False),
        "unsorted": np.arange(n)[::-7],
        "repeated": rng.integers(0, n, size=n // 2),
        "one": np.array([n - 1]),
        "none": np.array([], dtype=np.intp),
    }


@pytest.mark.parametrize("sampler", ["kronecker", "grid"])
@pytest.mark.parametrize("space,dim", SPACES)
def test_place_matches_the_rows_of_points(sampler, space, dim):
    region = Region(0.3, 3.0, n_samples=500, seed=8, sampler=sampler)
    batch = sample_region(region, space=space, dim=dim)
    full = sample_region(region, space=space, dim=dim).points
    for name, rows in _row_sets(500).items():
        placed = batch.place(rows)
        assert placed.shape == (rows.size, dim)
        assert np.array_equal(placed, full[rows]), name


@pytest.mark.parametrize("k", [2, 5, 11])
def test_kronecker_unit_at_indices_matches_the_full_sequence(k):
    n, shift = 1000, checker._kronecker_shift(k, 4)
    full = checker._kronecker_unit(n, shift)
    for rows in _row_sets(n).values():
        for got, col in zip(checker._kronecker_unit(rows, shift), full):
            assert np.array_equal(got, col[rows])
    coords = [k - 1, 0]
    part = checker._kronecker_unit(np.arange(n), shift, coords)
    assert all(np.array_equal(got, full[j]) for got, j in zip(part, coords))


@pytest.mark.parametrize("space,dim", SPACES)
def test_kronecker_points_follow_the_chart(space, dim):
    # The chart built here from the full R_k columns, independently of place.
    region = Region(0.3, 3.0, n_samples=400, seed=6)
    euclid = space == "euclidean"
    m = dim if euclid else dim - 1
    head = 1 if euclid else 3
    k = head + 2 * ((m + 1) // 2)
    u = checker._kronecker_unit(region.n_samples, checker._kronecker_shift(k, region.seed))
    r = region.rho_min * (region.rho_max / region.rho_min) ** u[0]
    g = []
    for a, b in zip(u[head::2], u[head + 1 :: 2]):
        g += [np.sqrt(-2.0 * np.log(a)) * np.cos(2.0 * np.pi * b), np.sqrt(-2.0 * np.log(a)) * np.sin(2.0 * np.pi * b)]
    direction = np.column_stack(g[:m])
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    if euclid:
        want = r[:, None] * direction
    else:
        tau = u[1]
        vert = np.where(u[2] < 0.5, 1.0, -1.0) * r**2 * np.sqrt(1.0 - tau**4)
        want = np.column_stack([(r * tau)[:, None] * direction, vert])
    batch = sample_region(region, space=space, dim=dim)
    assert np.allclose(batch.points, want, rtol=1e-12, atol=1e-14)


@pytest.fixture
def placements(monkeypatch):
    """(batch, rows) for every place call of every batch sample_region returns."""
    calls = []
    real = checker.sample_region

    def counted(*args, **kwargs):
        batch = real(*args, **kwargs)
        place = batch.place

        def counting(rows):
            calls.append((batch, np.array(rows)))
            return place(rows)

        batch.place = counting
        return batch

    monkeypatch.setattr(checker, "sample_region", counted)
    return calls


def _placed_once(calls, rows):
    assert len(calls) == 1
    assert np.array_equal(calls[0][1], rows)


REGION = Region(0.05, 5.0, n_samples=4096, seed=3, char_eps=0.02)


@pytest.mark.parametrize("name,d,mode", [("u4", 2, "sense"), ("log_rho", 4, "formula"), ("u2", 3, "sense")])
def test_spectral_run_places_only_the_dense_check_and_the_witness(placements, name, d, mode):
    field = _field(name, d)
    op = "pucci_min" if name == "log_rho" else "pucci_max"
    rep = check_inequality(field, OperatorSpec(op, ell=E15), REGION, mode=mode)
    assert rep.paths["spectral"] > 257
    assert sum(rows.size for _, rows in placements) <= 257
    assert rep.witness is not None


def test_bellman_and_keep_samples_runs_place_every_admissible_row_once(placements):
    field = _field("u5", 2)
    drift = HJBCoefficients((hgroup.eta,), (lambda x: np.zeros(x.shape[:-1]),), "horizontal")
    runs = [
        (field, OperatorSpec("pucci_max", "supersolution", ell=E15, first_order=drift), False),
        (field, OperatorSpec("pucci_max", "supersolution", ell=E15), True),
        (dataclasses.replace(field, profile=None), OperatorSpec("pucci_max", "supersolution", ell=E15), False),
    ]
    for f, spec, keep in runs:
        placements.clear()
        check_inequality(f, spec, REGION, keep_samples=keep)
        _placed_once(placements, np.flatnonzero(placements[0][0].admissible))


def test_check_lyapunov_places_its_admissible_rows_once(placements):
    cond, data, _ = lyapunov_fixture("hou", HeisDims(1))
    check_lyapunov(cond, data, E15, Region(2.0, 16.0, n_samples=2000, seed=1, char_eps=0.05), HeisDims(1))
    _placed_once(placements, np.flatnonzero(placements[0][0].admissible))


def test_convergence_study_places_only_the_points_it_uses(placements):
    field = _field("folland", 1)
    region = Region(0.8, 2.0, n_samples=64, seed=2)
    res = convergence_study(field, region, h0=1e-2, levels=2, n_points=6)
    assert res.n_points == 6
    _placed_once(placements, np.flatnonzero(placements[0][0].admissible)[:6])


def test_a_table_row_at_the_identity_is_out_of_range_without_a_warning():
    pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 0.1], [0.0, 0.0, 0.5]])
    table = TabulatedField(pts, np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_tabulated(table, OperatorSpec("pucci_max", ell=E15), Region(0.1, 5.0))
    assert rep.excluded_by == {"outside_radius_range": 1, "characteristic_tube": 1}
    assert rep.n_evaluated == 1 and rep.verdict == "pass"


# ---------------------------------------------------------------------------
# sort-free spectra


def _jets_with_ties_and_signed_zeros(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    fp, fpp = rng.standard_normal(n), rng.standard_normal(n)
    w, rho = rng.uniform(0.0, 1.0, n), rng.uniform(0.1, 5.0, n)
    fp[::7], fp[::11], fpp[::5], fpp[::13], w[::17] = 0.0, -0.0, 0.0, -0.0, 0.0
    return fp, fpp, w, rho


def _sorted_stack(parts):
    stacked = np.stack(np.broadcast_arrays(*parts), axis=-1)
    return np.sort(stacked, axis=-1), np.sort(stacked, axis=-1, kind="stable")


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_group_spectrum_is_sorted_without_a_sort(d):
    fp, fpp, w, rho = _jets_with_ties_and_signed_zeros()
    s = hgroup.RadialHessSpectrum.from_jets(fp, fpp, w, rho, d)
    # ties of grad_dir with each of the other two values
    s = dataclasses.replace(s, grad_dir=np.where(np.arange(fp.size) % 19 == 0, s.transverse, s.grad_dir))
    s = dataclasses.replace(s, grad_dir=np.where(np.arange(fp.size) % 23 == 0, s.rotated, s.grad_dir))
    got = s.eigenvalues()
    by_sort, by_stable_sort = _sorted_stack([s.grad_dir, s.rotated] + [s.transverse] * (2 * d - 2))
    assert np.array_equal(got, by_sort)
    assert _same_bits(got, by_stable_sort)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_euclidean_spectrum_is_sorted_without_a_sort(dim):
    fp, fpp, _, r = _jets_with_ties_and_signed_zeros()
    fpp[::19] = (fp / r)[::19]
    s = gallery.EuclidRadialSpectrum.from_jets(fp, fpp, r, dim)
    got = s.eigenvalues()
    by_sort, by_stable_sort = _sorted_stack([s.radial] + [s.tangential] * (dim - 1))
    assert np.array_equal(got, by_sort)
    assert _same_bits(got, by_stable_sort)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_signed_zero_spectra_of_shipped_profiles(d):
    # u_tilde's outer piece has f' < 0 < f'': at w = 0 the spectrum mixes +0
    # and -0, and negation swaps them.
    profile = make_profile("u_tilde", None, HeisDims(d))
    rho = np.linspace(0.2, 3.0, 57)
    for prof in (profile, -profile):
        _, fp, fpp = prof.jets(rho)
        for w in (np.zeros_like(rho), np.linspace(0.0, 1.0, rho.size)):
            s = hgroup.RadialHessSpectrum.from_jets(fp, fpp, w, rho, d)
            parts = [s.grad_dir, s.rotated] + [s.transverse] * (2 * d - 2)
            by_sort, by_stable_sort = _sorted_stack(parts)
            assert np.array_equal(s.eigenvalues(), by_sort)
            assert _same_bits(s.eigenvalues(), by_stable_sort)


def test_grid_run_at_zero_char_eps_reports_signed_zero_spectra():
    # The grid puts tau = 0 rows in the sample; with char_eps = 0 they are evaluated.
    field = field_from_profile(make_profile("u_tilde", None, HeisDims(2)), HeisDims(2))
    region = Region(0.25, 4.0, n_samples=512, char_eps=0.0, sampler="grid")
    for f in (field, -field):
        rep = check_inequality(f, OperatorSpec("neg_trace", "supersolution"), region, keep_samples=True)
        s = rep.samples
        w = s["tau"] ** 2
        _, fp, fpp = f.profile.jets(s["radius"])
        spec = hgroup.RadialHessSpectrum.from_jets(fp, fpp, w, s["radius"], 2)
        _, by_stable_sort = _sorted_stack([spec.grad_dir, spec.rotated] + [spec.transverse] * 2)
        assert np.any(w == 0.0) and np.any(np.signbit(s["eigs"]) & (s["eigs"] == 0.0))
        assert _same_bits(s["eigs"], by_stable_sort)


def test_sorted_columns_handles_scalars_and_broadcasts():
    s = hgroup.RadialHessSpectrum.from_jets(np.float64(2.0), np.array([-1.0, 5.0]), 1.0, 1.0, 2)
    assert np.array_equal(s.eigenvalues(), [[-1.0, 2.0, 2.0, 6.0], [2.0, 2.0, 5.0, 6.0]])
    one = hgroup.RadialHessSpectrum.from_jets(1.0, 1.0, 0.25, 0.5, 1).eigenvalues()
    assert one.shape == (2,) and math.isclose(one[1], 1.5)
