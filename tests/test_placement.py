"""Points placed on demand, and the sort-free radial spectra."""

import dataclasses
import warnings

import numpy as np
import pytest

from heispde import checker, hgroup, operators
from heispde.checker import (
    OperatorSpec,
    Region,
    TabulatedField,
    check_inequality,
    check_lyapunov,
    check_tabulated,
    lyapunov_fixture,
    sample_region,
)
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients

from _oracles import box_muller, sorted_spectrum_rows

E15 = Ellipticity(1.0, 1.5)
# (space, dim): H^1, H^2, H^4, R^3, R^4.
SPACES = [("heisenberg", 3), ("heisenberg", 5), ("heisenberg", 9), ("euclidean", 3), ("euclidean", 4)]


def _points(batch):
    """Every point of a batch, placed in one call."""
    return batch.place(np.arange(batch.radius.shape[0]))


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


@pytest.mark.parametrize("space,dim", SPACES)
def test_place_matches_the_rows_of_points(space, dim):
    region = Region(0.3, 3.0, n_samples=500, seed=8)
    batch = sample_region(region, space=space, dim=dim)
    full = _points(sample_region(region, space=space, dim=dim))
    for name, rows in _row_sets(500).items():
        placed = batch.place(rows)
        assert placed.shape == (rows.size, dim)
        assert np.array_equal(placed, full[rows]), name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("space,dim", SPACES)
def test_placed_points_have_the_charts_radius_and_tau_to_a_few_ulp(space, dim, seed):
    # The dense check reads (rho, tau) from the placed points, the rest of a
    # run from the chart.  Measured over these cases on the AVX512 and AVX2
    # kernels: at most 3 ulp apart in rho and 5 in tau; bound 4 and 6.
    batch = sample_region(Region(0.05, 5.0, n_samples=50000, seed=seed), space=space, dim=dim)
    radius, tau = checker._radius_tau(_points(batch), space)
    assert np.all(np.abs(radius - batch.radius) <= 4 * np.spacing(batch.radius))
    assert (tau is None) == (batch.tau is None)
    if tau is not None:
        assert np.all(np.abs(tau - batch.tau) <= 6 * np.spacing(batch.tau))


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
    direction = box_muller(u[head:], m)
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    if euclid:
        want = r[:, None] * direction
    else:
        tau = u[1]
        vert = np.where(u[2] < 0.5, 1.0, -1.0) * r**2 * np.sqrt(1.0 - tau**4)
        want = np.column_stack([(r * tau)[:, None] * direction, vert])
    batch = sample_region(region, space=space, dim=dim)
    assert np.allclose(_points(batch), want, rtol=1e-12, atol=1e-14)


EPS = np.finfo(float).eps


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_half_angle_directions_match_the_cos_sin_oracle(m):
    # t = tan(pi u) gives (cos, sin) of 2 pi u as (1 - t^2, 2 t) / (1 + t^2).
    # Near cos = 0 that first row is exact to eps absolute, not relative, so
    # after normalizing, a row's error scales with its pair's radius over the
    # vector's norm.  A whole pair's radius is at most the norm; an odd m's
    # lone row, whose sin is dropped, may exceed it.
    n, k = 1 << 16, 2 * ((m + 1) // 2)
    u = checker._kronecker_unit(n, checker._kronecker_shift(k, m))
    out = np.empty((m, n))
    checker._unit_vectors(u, out)
    g = box_muller(u, m)
    norm = np.linalg.norm(g, axis=1)
    scale = np.maximum(1.0, np.sqrt(-2.0 * np.log(u[-2])) / norm) if m % 2 else 1.0
    assert np.all(np.abs(out.T - g / norm[:, None]).max(axis=1) <= 4 * EPS * scale)
    assert np.all(np.abs(np.linalg.norm(out, axis=0) - 1.0) <= 4 * EPS)


@pytest.mark.parametrize("m", [2, 3, 8])
@pytest.mark.parametrize("u_radius", [1.0, 2.0**-54])
def test_the_top_and_bottom_kronecker_cells_give_unit_vectors(m, u_radius):
    # The top cell rounds to exactly 1.0, the bottom one is 2^-54.
    top_and_bottom = np.array([2**64 - 1, 0], dtype=np.uint64)
    assert [col[0] for col in checker._kronecker_unit(1, top_and_bottom)] == [1.0, 2.0**-54]
    angles = np.array([0.3, 2.0**-54, 0.5, 0.75, 1.0])
    u = [np.full(angles.size, u_radius) if j % 2 == 0 else angles for j in range(2 * ((m + 1) // 2))]
    out = np.empty((m, angles.size))
    checker._unit_vectors(u, out)
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(np.linalg.norm(out, axis=0) - 1.0) <= 4 * EPS)


def test_an_angle_next_to_a_half_turn_gives_a_finite_direction():
    # pi * 0.5 is the double nearest pi/2, where tan is largest (about 1.6e16).
    u_angle = np.array([np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)])
    u = [np.full(3, 0.3), u_angle]
    out = np.empty((2, 3))
    checker._unit_vectors(u, out)
    g = box_muller(u, 2)
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out.T - g / np.linalg.norm(g, axis=1)[:, None]) <= 4 * EPS)


@pytest.mark.parametrize("word", [0, 2**63 - 2**11 - 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1])
def test_the_sign_bit_agrees_with_the_sign_coordinate(word, monkeypatch):
    # Point 0 of the sequence is its shift, so the sign word of row 0 is word.
    shift = np.array([2**63, 2**62, word, 2**61, 2**60], dtype=np.uint64)
    monkeypatch.setattr(checker, "_kronecker_shift", lambda k, seed: shift)
    u_sign = checker._kronecker_unit(1, shift)[2][0]
    assert u_sign == (((word >> 11) + 0.5) * 2.0**-53)
    point = sample_region(Region(0.3, 3.0, n_samples=1), space="heisenberg", dim=3).place([0])[0]
    assert point[-1] != 0.0 and (point[-1] > 0.0) == (u_sign < 0.5)


@pytest.mark.parametrize("space,dim", [("heisenberg", 5), ("euclidean", 3)])
def test_the_chart_is_drawn_block_by_block_with_the_same_bits(space, dim, monkeypatch):
    # 2500 samples in blocks of 1000: the last block is short.  The kink
    # tube is hit in the first block, the characteristic tube only later;
    # excluded_by still names the characteristic tube first.
    base = Region(0.3, 3.0, n_samples=2500, seed=2, char_eps=0.0, kink_eps=1e-9)
    whole = sample_region(base, space=space, dim=dim)
    radii = (float(whole.radius[5]), float(whole.radius[2400]))
    region = base
    want = {"kink_tube": 2}
    if space == "heisenberg":
        later = whole.tau[1000:].min()
        assert whole.tau[:1000].min() > later
        region = dataclasses.replace(base, char_eps=float(np.nextafter(later, 1.0)))
        want = {"characteristic_tube": 1, "kink_tube": 2}
    monkeypatch.setattr(checker, "_CHUNK_ROWS", 1 << 14)
    one = sample_region(region, space=space, dim=dim, singular_radii=radii)
    monkeypatch.setattr(checker, "_CHUNK_ROWS", 1000)
    blocks = sample_region(region, space=space, dim=dim, singular_radii=radii)
    assert list(one.excluded_by.items()) == list(blocks.excluded_by.items()) == list(want.items())
    for a, b in ((one.radius, blocks.radius), (one.tau, blocks.tau), (one.admissible, blocks.admissible)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    assert np.array_equal(one.radius, whole.radius)


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


def _placed_once_per_chunk(calls, witness):
    """Every admissible row is placed exactly once, one call per chunk in order.

    A chunk is _CHUNK_ROWS consecutive sample indices, and its call places
    the chunk's admissible rows; a chunk without one places nothing.  The
    witness's point is the point of its row, taken from its chunk's call.
    """
    batch = calls[0][0]
    adm, size = batch.admissible, checker._CHUNK_ROWS
    chunks = [np.flatnonzero(adm[s : s + size]) + s for s in range(0, adm.size, size)]
    chunks = [rows for rows in chunks if rows.size]
    assert all(b is batch for b, _ in calls)
    assert len(calls) == len(chunks)
    for (_, placed), rows in zip(calls, chunks):
        assert np.array_equal(placed, rows)
    assert np.array_equal(np.concatenate([rows for _, rows in calls]), np.flatnonzero(adm))
    row = np.flatnonzero(adm & (batch.radius == witness["radius"]))
    assert row.size == 1 and witness["point"] == batch.place(row)[0].tolist()


def _dense_check_rows(batch):
    """The rows the dense check places after a spectral run: evenly spaced admissible rows."""
    adm = np.flatnonzero(batch.admissible)
    return adm[np.linspace(0, adm.size - 1, min(adm.size, checker._DENSE_CHECK_POINTS)).astype(np.intp)]


REGION = Region(0.05, 5.0, n_samples=4096, seed=3, char_eps=0.02)
# 1000 splits REGION into five chunks (the Lyapunov region into two);
# 1 << 14, the default, leaves one.
CHUNK_SIZES = [1000, 1 << 14]


@pytest.mark.parametrize("name,d,mode", [("u4", 2, "sense"), ("log_rho", 4, "formula"), ("u2", 3, "sense")])
def test_spectral_run_places_only_the_dense_check_and_the_witness(placements, monkeypatch, name, d, mode):
    # One place call, after the chunks: the dense-check rows, then the witness.
    field = _field(name, d)
    op = "pucci_min" if name == "log_rho" else "pucci_max"
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(checker, "_CHUNK_ROWS", chunk)
        placements.clear()
        rep = check_inequality(field, OperatorSpec(op, ell=E15), REGION, mode=mode)
        assert rep.paths["spectral"] > 257
        assert len(placements) == 1
        batch, rows = placements[0]
        assert np.array_equal(rows[:-1], _dense_check_rows(batch))
        assert batch.radius[rows[-1]] == rep.witness["radius"]
        assert rep.witness["point"] == batch.place(rows[-1:])[0].tolist()


def test_bellman_and_keep_samples_runs_place_every_admissible_row_once(placements, monkeypatch):
    field = _field("u5", 2)
    drift = HJBCoefficients((hgroup.eta,), (lambda x: np.zeros(x.shape[:-1]),), "horizontal")
    runs = [
        (field, OperatorSpec("pucci_max", "supersolution", ell=E15, first_order=drift), False),
        (field, OperatorSpec("pucci_max", "supersolution", ell=E15), True),
        (dataclasses.replace(field, profile=None), OperatorSpec("pucci_max", "supersolution", ell=E15), False),
    ]
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(checker, "_CHUNK_ROWS", chunk)
        for f, spec, keep in runs:
            placements.clear()
            rep = check_inequality(f, spec, REGION, keep_samples=keep)
            if f.profile is not None:
                # After the chunks, the dense check places its rows once more.
                batch, rows = placements.pop()
                assert np.array_equal(rows, _dense_check_rows(batch))
            _placed_once_per_chunk(placements, rep.witness)


def test_check_lyapunov_places_its_admissible_rows_once(placements, monkeypatch):
    # ou's margin reads the points; the eta fixtures take the chart path (below).
    cond, data, extra = lyapunov_fixture("ou", HeisDims(1))
    region = Region(2.5, 20.0, n_samples=2000, seed=1, char_eps=0.05)
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(checker, "_CHUNK_ROWS", chunk)
        placements.clear()
        rep = check_lyapunov(cond, data, E15, region, HeisDims(1), gammas=extra["gammas"])
        assert rep.paths is None
        _placed_once_per_chunk(placements, rep.witness)


@pytest.mark.parametrize("d", [1, 4])
def test_a_hou_run_places_only_its_guard_rows_and_the_witness(placements, monkeypatch, d):
    # One place call, after the chunks: the evenly spaced guard rows, then the witness.
    cond, data, _ = lyapunov_fixture("hou", HeisDims(d))
    region = Region(2.0, 16.0, n_samples=2000, seed=1, char_eps=0.05)
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(checker, "_CHUNK_ROWS", chunk)
        placements.clear()
        rep = check_lyapunov(cond, data, E15, region, HeisDims(d))
        assert rep.paths["chart"] == rep.n_evaluated > 257 and rep.paths["placed"] == 0
        assert len(placements) == 1
        batch, rows = placements[0]
        assert np.array_equal(rows[:-1], _dense_check_rows(batch))
        assert rep.paths["placed_check"]["n"] == rows.size - 1 == checker._DENSE_CHECK_POINTS
        assert batch.radius[rows[-1]] == rep.witness["radius"]
        assert rep.witness["point"] == batch.place(rows[-1:])[0].tolist()


def test_a_table_row_at_the_identity_is_out_of_range_without_a_warning():
    pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 0.1], [0.0, 0.0, 0.5]])
    table = TabulatedField(pts, np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_tabulated(table, OperatorSpec("pucci_max", ell=E15), Region(0.1, 5.0))
    assert rep.excluded_by == {"outside_radius_range": 1, "characteristic_tube": 1}
    assert rep.n_evaluated == 1 and rep.verdict == "pass"


# ---------------------------------------------------------------------------
# sorted rows of compact spectra


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


def _group_parts(fp, fpp, w, rho):
    """(lead, rest, rotated) of f(rho(.)) on H^d, with the checker's arithmetic."""
    t = fp * w / rho
    return fpp * w, t, 3.0 * t


def _group_spectrum(lead, rest, rotated, d):
    """The checker's compact spectrum on H^d: on H^1 the rest column is left out."""
    return ((lead, 1), (rotated, 1), (rest, 2 * d - 2))[: 3 if d > 1 else 2]


def _assert_sorted_rows(spectrum, parts):
    got = operators._sorted_rows(spectrum)
    by_sort, by_stable_sort = _sorted_stack(parts)
    assert np.array_equal(got, by_sort)
    assert _same_bits(got, by_stable_sort)
    assert _same_bits(got, sorted_spectrum_rows(spectrum))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_a_group_spectrum_gives_its_sorted_rows(d):
    fp, fpp, w, rho = _jets_with_ties_and_signed_zeros()
    lead, rest, rotated = _group_parts(fp, fpp, w, rho)
    # ties of lead with each of the other two values
    lead = np.where(np.arange(fp.size) % 19 == 0, rest, lead)
    lead = np.where(np.arange(fp.size) % 23 == 0, rotated, lead)
    _assert_sorted_rows(_group_spectrum(lead, rest, rotated, d), [lead, rotated] + [rest] * (2 * d - 2))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_a_euclidean_spectrum_gives_its_sorted_rows(dim):
    fp, fpp, _, r = _jets_with_ties_and_signed_zeros()
    fpp[::19] = (fp / r)[::19]
    _assert_sorted_rows(((fpp, 1), (fp / r, dim - 1)), [fpp] + [fp / r] * (dim - 1))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_signed_zero_spectra_of_shipped_profiles(d):
    # u_tilde's outer piece has f' < 0 < f'': at w = 0 the spectrum mixes +0
    # and -0, and negation swaps them.
    profile = make_profile("u_tilde", None, HeisDims(d))
    rho = np.linspace(0.2, 3.0, 57)
    for prof in (profile, -profile):
        _, fp, fpp = prof.jets(rho)
        for w in (np.zeros_like(rho), np.linspace(0.0, 1.0, rho.size)):
            lead, rest, rotated = _group_parts(fp, fpp, w, rho)
            _assert_sorted_rows(_group_spectrum(lead, rest, rotated, d), [lead, rotated] + [rest] * (2 * d - 2))


@pytest.mark.parametrize("space,d", [("heisenberg", 1), ("heisenberg", 2), ("euclidean", 3)])
def test_constant_field_run_reports_signed_zero_spectra(space, d):
    # rho^0 has f' = +0 and f'' = -0: every spectrum mixes -0 and +0, and
    # negation swaps them.
    dims = HeisDims(d)
    profile = make_profile("power", None, dims, kappa=0.0)
    field = field_from_profile(dataclasses.replace(profile, kind=space), dims)
    region = Region(0.25, 4.0, n_samples=512, seed=4, char_eps=0.0)
    for f in (field, -field):
        rep = check_inequality(f, OperatorSpec("neg_trace", "supersolution"), region, keep_samples=True)
        s = rep.samples
        _, fp, fpp = f.profile.jets(s["radius"])
        if space == "heisenberg":
            lead, rest, rotated = _group_parts(fp, fpp, s["tau"] ** 2, s["radius"])
            parts = [lead, rotated] + [rest] * (2 * d - 2)
        else:
            parts = [fpp] + [fp / s["radius"]] * (d - 1)
        _, by_stable_sort = _sorted_stack(parts)
        assert np.any(np.signbit(s["eigs"]) & (s["eigs"] == 0.0))
        assert np.any(~np.signbit(s["eigs"]) & (s["eigs"] == 0.0))
        assert _same_bits(s["eigs"], by_stable_sort)


def test_sorted_rows_of_a_trimmed_spectrum_and_of_one_row():
    # H^1's spectrum has two columns, and the witness asks for one row by its index.
    lead, rest, rotated = _group_parts(np.array([2.0, -0.0, 1.0]), np.array([-1.0, 0.0, 5.0]), 1.0, 1.0)
    spectrum = _group_spectrum(lead, rest, rotated, 1)
    rows = operators._sorted_rows(spectrum)
    assert len(spectrum) == 2 and rows.shape == (3, 2)
    assert _same_bits(rows, np.array([[-1.0, 6.0], [0.0, -0.0], [3.0, 5.0]]))
    for spectrum in (spectrum, _group_spectrum(lead, rest, rotated, 3)):
        rows = operators._sorted_rows(spectrum)
        for k in range(3):
            one = operators._sorted_rows(spectrum, k)
            assert one.shape == rows.shape[1:] and _same_bits(one, rows[k])
