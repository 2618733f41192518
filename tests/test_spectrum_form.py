"""The operator table on spectra as columns with multiplicities, and profile jets by piece.

A radial spectrum ((lead, 1), [(rotated, 1),] (rest, mult)) must give what
the same operator gives on its sorted rows: the same bits where no column
repeats (H^1, R^2, and eigvalsh's sorted columns), a few ulp of the
magnitude elsewhere, where k v is one product and the order of adds
differs.  RadialProfile.jets must give searchsorted's piece choice bit for
bit.
"""

import numpy as np
import pytest

from _oracles import left_to_right_sum, sorted_row_operator, sorted_spectrum_rows
from heispde import hgroup, operators
from heispde.gallery import PROFILES, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

E15 = Ellipticity(1.0, 1.5)
SPACES = [("heisenberg", d) for d in range(1, 9)] + [("euclidean", n) for n in range(2, 6)]


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


def _params(m):
    return {"ell": E15, "alpha": 0.5 / m, "p": 3.0}


def _compact(space, n, seed=0):
    """A closed-form spectrum and its sorted rows, with ties, signed zeros, f' < 0, dead-zone edges and NaN rows.

    On H^d (n = d) the columns are (lead, 3 rest, rest) with rest of
    multiplicity 2d - 2 (left out at d = 1); on R^n, (lead, rest) with n - 1.  Edge rows hold
    integer columns and a lead exactly at, or one ulp either side of,
    ZERO_TOL times the Frobenius norm, which every order of adds gives alike.
    """
    rng = np.random.default_rng(seed + 100 * n)
    heis = space == "heisenberg"
    mult = 2 * n - 2 if heis else n - 1
    scale = 10.0 ** rng.integers(-3, 4, 400)
    lead, rest = rng.standard_normal(400) * scale, rng.standard_normal(400) * scale
    lead[:40] = rest[:40]  # lead ties rest
    lead[40:80] = 3.0 * rest[40:80]  # lead ties rotated
    lead[80:88] = rest[80:88] = 0.0
    lead[80:84] *= -1.0
    rest[80:88:2] *= -1.0  # signed zeros in every combination
    lead[88:96] = [0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 2.0, -2.0]
    rest[88:96] = [1.0, 1.0, 0.0, -0.0, -1.0, -1.0, -0.0, 0.0]
    rest[96:140] = -np.abs(rest[96:140])  # f' < 0
    fro = np.sqrt(9.0 + mult) if heis else np.sqrt(float(mult))
    edge = operators.ZERO_TOL * fro
    lead[140:150] = [edge, np.nextafter(edge, 1.0), np.nextafter(edge, 0.0), -edge, -np.nextafter(edge, 1.0)] * 2
    rest[140:150] = [1.0] * 5 + [-1.0] * 5
    lead[150:153] = np.nan
    rest[153:156] = np.nan
    rest[156:158] = np.inf
    if heis:
        spectrum = ((lead, 1), (3.0 * rest, 1), (rest, mult))[: 3 if mult else 2]
    else:
        spectrum = ((lead, 1), (rest, mult))
    return spectrum, sorted_spectrum_rows(spectrum)


@pytest.mark.parametrize("op", sorted(operators.OPERATORS))
@pytest.mark.parametrize("space,n", SPACES)
def test_a_compact_spectrum_gives_its_sorted_rows_value(space, n, op):
    spectrum, rows = _compact(space, n)
    m = rows.shape[-1]
    entry = operators.OPERATORS[op]
    e_q = spectrum[0][0]
    with np.errstate(invalid="ignore"):
        got = entry.value(spectrum, e_q, _params(m))
        want = sorted_row_operator(op, rows, e_q, _params(m))
        mag = hgroup._colsum(spectrum, np.abs)
        want_mag = left_to_right_sum(np.abs(rows))
        if m == 2:
            # No column repeats: the same adds in an order that cannot change a bit.
            assert _same_bits(got, want), op
            assert _same_bits(mag, want_mag)
            return
        # Two orders of m adds differ by at most (m - 1) eps times the
        # magnitude factor * sum |e|, plus the roundings of k v and of the
        # operator's own products: m eps bounds it.  Over 20 seeds of these
        # spectra at d = 2..8 and n = 3..5 the largest move was 0.49 of that.
        eps = np.finfo(float).eps
        assert np.array_equal(np.isnan(got), np.isnan(want))
        bound = m * eps * entry.magnitude(_params(m)) * np.nansum(np.abs(rows), axis=-1)
        ok = np.isnan(want) | (got == want) | (np.abs(got - want) <= bound)
        assert ok.all(), (op, np.flatnonzero(~ok)[:5])
        ok = (mag == want_mag) | (np.abs(mag - want_mag) <= m * eps * want_mag)
        assert np.array_equal(np.isnan(mag), np.isnan(want_mag)) and (ok | np.isnan(mag)).all()


def _symmetric_batch(m, rng):
    """Random symmetric matrices, and rows with ties, zeros, signed-zero diagonals and dead-zone edges."""
    mats = rng.standard_normal((300, m, m)) * 10.0 ** rng.integers(-3, 4, (300, 1, 1))
    mats = mats + np.swapaxes(mats, -1, -2)
    mats[:20] = np.eye(m) * rng.standard_normal((20, 1, 1))  # every eigenvalue tied
    mats[20:30] = 0.0
    mats[25:30, 0, 0] = -0.0
    diag = np.arange(1.0, m + 1.0)
    edge = operators.ZERO_TOL * np.sqrt(np.sum(diag[1:] ** 2))
    for i, v in enumerate([edge, np.nextafter(edge, 1.0), np.nextafter(edge, 0.0), -edge, -np.nextafter(edge, 1.0)]):
        mats[30 + i] = np.diag(np.concatenate([[v], -diag[1:] if i % 2 else diag[1:]]))
    return mats


@pytest.mark.parametrize("m", range(1, 9))
def test_sorted_columns_keep_the_bits_of_sorted_rows(m):
    rng = np.random.default_rng(m)
    mats = _symmetric_batch(m, rng)
    q = rng.standard_normal((300, m))
    params = _params(m)
    for op, entry in operators.OPERATORS.items():
        values, eigs = operators.evaluate(op, mats, params, q)
        e_q = operators.rayleigh_quotient(q, mats)[0] if entry.reads_e_q else None
        assert _same_bits(values, sorted_row_operator(op, eigs, e_q, params)), op
    # NaN rows, which no matrix gives, through the table directly.
    eigs[40:44, m // 2] = np.nan
    for op, entry in operators.OPERATORS.items():
        with np.errstate(invalid="ignore"):
            got = entry.value(operators._columns(eigs), eigs[:, 0], params)
            assert _same_bits(got, sorted_row_operator(op, eigs, eigs[:, 0], params)), op


def test_signed_eig_sums_still_reads_sorted_arrays_with_batch_axes():
    rng = np.random.default_rng(7)
    eigs = np.sort(rng.standard_normal((2, 50, 4)), axis=-1)
    eigs[0, :5, 1] = 1e-13
    scale = np.sqrt((eigs**2).sum(axis=-1))
    neg, pos = operators.signed_eig_sums(eigs, scale)
    live = np.abs(eigs) > operators.ZERO_TOL * scale[..., None]
    assert neg.shape == pos.shape == (2, 50)
    assert _same_bits(neg, left_to_right_sum(np.where(live & (eigs < 0.0), eigs, 0.0)))
    assert _same_bits(pos, left_to_right_sum(np.where(live & (eigs > 0.0), eigs, 0.0)))
    assert all(_same_bits(a, b) for a, b in zip((neg, pos), operators.signed_eig_sums(operators._columns(eigs), scale)))


def _searchsorted_jets(profile, r):
    """Each radius's piece by searchsorted (side="right"), evaluated on the gathered radii and scattered back."""
    ra = np.asarray(r, dtype=float)
    idx = np.searchsorted(np.asarray(profile.breakpoints), ra, side="right")
    outs = (np.empty_like(ra), np.empty_like(ra), np.empty_like(ra))
    for k, piece in enumerate(profile.pieces):
        mask = idx == k
        if np.any(mask):
            for out, jet in zip(outs, piece.jets(ra[mask])):
                out[mask] = jet
    return outs


def _profiles():
    for name, example in PROFILES.items():
        for d in (1, 2, 4):
            prof = make_profile(name, E15, HeisDims(d + 2 * (example.kind == "euclidean")), kappa=-2.5)
            yield prof
            yield -prof


@pytest.mark.parametrize("profile", list(_profiles()), ids=lambda p: f"{p.name}.{p.params.get('d')}")
def test_profile_jets_pick_searchsorteds_piece_bit_for_bit(profile):
    rng = np.random.default_rng(3)
    special = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.inf, np.nan, *profile.breakpoints])
    radii = {
        "mixed": np.concatenate([special, np.exp(rng.uniform(-4.0, 3.0, 2000))]),
        "inner": rng.uniform(0.0, 1.0, 500),
        "outer": np.concatenate([[1.0, np.inf, np.nan], 1.0 + np.exp(rng.uniform(-30.0, 5.0, 500))]),
        "one": np.array([1.0]),
        "empty": np.empty(0),
        "grid": np.exp(rng.uniform(-2.0, 2.0, (30, 40))),
        "fortran": np.asfortranarray(np.exp(rng.uniform(-2.0, 2.0, (30, 40)))),
    }
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for label, r in radii.items():
            for got, want in zip(profile.jets(r), _searchsorted_jets(profile, r)):
                assert np.shape(got) == want.shape and _same_bits(got, want), label
