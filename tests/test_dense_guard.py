"""The dense re-check of spectral runs: the Weyl pre-test, column sums and row dots."""

import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from hypothesis.extra.numpy import arrays

import _oracles
from heispde import checker, cli, hgroup, operators
from heispde.checker import OperatorSpec, Region, check_inequality, sample_region
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

E15 = Ellipticity(1.0, 1.5)
# (profile, d): H^1, H^2, H^4, R^3, R^4.
CASES = [("u4", 1), ("u4", 2), ("u4", 4), ("u2", 3), ("u3", 4)]


def _field(name, d):
    dims = HeisDims(d)
    return field_from_profile(make_profile(name, E15, dims), dims)


# ---------------------------------------------------------------------------
# hgroup._colsum and hgroup._rowdot: left to right in every layout

_EDGE = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308])
WIDTHS = [*range(1, 34), 129, 200, 300]


def _same_bits(got, want):
    """Equal bits, NaN where want is NaN (which NaN a sum of NaNs gives is the hardware's)."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    )


def _strided(x):
    """x as a view whose every axis has twice the usual stride."""
    out = np.empty(tuple(2 * n for n in x.shape))
    view = out[tuple(slice(None, None, 2) for _ in x.shape)]
    view[...] = x
    return view


def _reversed(x):
    """x as a view with negative strides on every axis."""
    return np.flip(np.ascontiguousarray(np.flip(x)))


LAYOUTS = (np.ascontiguousarray, np.asfortranarray, _strided, _reversed)


def _rowsum(x):
    """The sum over x's last axis, as hgroup._colsum of its columns, each of multiplicity 1."""
    x = np.asarray(x)
    return hgroup._colsum([(x[..., j], 1) for j in range(x.shape[-1])])


def _wide(rng, m):
    # Terms spread over 30 decades, so any other order of adds shows in the bits.
    return rng.standard_normal((500, m)) * 10.0 ** rng.integers(-15, 15, (500, m))


@seed(11)
@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rowsum_adds_left_to_right_in_every_layout(data):
    m = data.draw(st.integers(1, 33))
    lead = data.draw(st.sampled_from([(), (6,), (2, 3)]))
    x = data.draw(arrays(np.float64, lead + (m,), elements=st.one_of(st.floats(), _EDGE)))
    want = _oracles.left_to_right_sum(x)
    with np.errstate(all="ignore"):
        for layout in LAYOUTS:
            assert _same_bits(_rowsum(layout(x)), want), layout.__name__


@pytest.mark.parametrize("m", WIDTHS)
def test_rowsum_keeps_its_order_on_wide_ranges(m):
    x = _wide(np.random.default_rng(m), m)
    want = _oracles.left_to_right_sum(x)
    for layout in LAYOUTS:
        assert _same_bits(_rowsum(layout(x)), want), layout.__name__
    assert _same_bits(_rowsum(x[7]), want[7])


@seed(12)
@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rowdot_adds_left_to_right_in_every_layout(data):
    m = data.draw(st.integers(1, 33))
    lead = data.draw(st.sampled_from([(), (6,), (2, 3)]))
    a, b = (data.draw(arrays(np.float64, lead + (m,), elements=st.one_of(st.floats(), _EDGE))) for _ in "ab")
    want = _oracles.left_to_right_dot(a, b)
    with np.errstate(all="ignore"):
        for layout in LAYOUTS:
            assert _same_bits(hgroup._rowdot(layout(a), layout(b)), want), layout.__name__


@pytest.mark.parametrize("m", WIDTHS)
def test_rowdot_keeps_its_order_on_wide_ranges(m):
    rng = np.random.default_rng(m)
    a, b = _wide(rng, m), _wide(rng, m)
    want = _oracles.left_to_right_dot(a, b)
    for layout in LAYOUTS:
        assert _same_bits(hgroup._rowdot(layout(a), layout(b)), want), layout.__name__
    assert _same_bits(hgroup._rowdot(a[7], b[7]), want[7])


def test_sums_of_negative_zeros_are_positive_zero():
    x = np.full((4, 5), -0.0)
    assert _same_bits(_rowsum(x), np.zeros(4))
    assert _same_bits(hgroup._rowdot(x, np.ones((4, 5))), np.zeros(4))
    assert _same_bits(_rowsum(x[0]), 0.0)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_row_sums_hold_one_column_at_a_time(layout):
    # Beside the (N,) result, at most one (N,) temporary: never an (N, m) product.
    n, m = 2**15, 8
    a, b = (layout(np.random.default_rng(k).standard_normal((n, m))) for k in (0, 1))
    for call, limit in ((lambda: _rowsum(a), 1), (lambda: hgroup._rowdot(a, b), 2)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * n * 8 + 4096, peak


@pytest.mark.parametrize("m", [2, 3, 4, 8, 9])
def test_rayleigh_quotient_does_not_depend_on_the_layout(m):
    # einsum's order of adds over a matrix follows its layout, so the
    # matrix is read C-contiguous.
    rng = np.random.default_rng(m)
    q = rng.standard_normal((300, m)) * 10.0 ** rng.integers(-8, 8, (300, m))
    mat = rng.standard_normal((300, m, m)) * 10.0 ** rng.integers(-8, 8, (300, m, m))
    mat += np.swapaxes(mat, -1, -2)
    want = operators.rayleigh_quotient(q, mat)
    for lq in (np.ascontiguousarray, np.asfortranarray, _strided, _reversed):
        for lm in (np.asfortranarray, _strided, _reversed):
            got = operators.rayleigh_quotient(lq(q), lm(mat))
            assert all(_same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("name,d", CASES)
def test_the_weyl_bound_does_not_depend_on_the_layout(name, d, monkeypatch):
    field = _field(name, d)
    pts, hess, got = _spectral_rows(field, seed=d)
    mat = _dense_matrix(field.space, hess, pts)
    want = checker._weyl_bound(mat, pts, field.space, got)
    eta = hgroup.eta
    monkeypatch.setattr(hgroup, "eta", lambda x: np.ascontiguousarray(eta(x)))
    for layout in (np.ascontiguousarray, np.asfortranarray, _reversed):
        got_bound = checker._weyl_bound(layout(mat), layout(pts), field.space, got)
        assert all(_same_bits(g, w) for g, w in zip(got_bound, want))


# ---------------------------------------------------------------------------
# the Weyl pre-test against the eigvalsh rule


def _dense_matrix(space, hess, pts):
    if space == "heisenberg":
        return hgroup.h_hessian(np.zeros(pts.shape), hess, pts)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _eigvalsh_rule(space, hess, pts, got, tol, q=None, got_e_q=None):
    """The message of the rule that compares got (and e_q) with eigvalsh, or None if it passes.

    A difference is allowed up to the check's allowance, and never less than
    the rounding budget (2m + 20) eps ||M||_F of two correct paths.
    """
    mat = _dense_matrix(space, hess, pts)
    dense = np.linalg.eigvalsh(mat)
    m = mat.shape[-1]
    budget = (2 * m + 20) * np.finfo(float).eps * np.linalg.norm(mat, axis=(-2, -1))
    what = "eigenvalues"
    if got_e_q is not None:
        what += " and e_q"
        got = np.column_stack([got, got_e_q])
        dense = np.column_stack([dense, operators.rayleigh_quotient(q, mat)[0]])
    bad = np.abs(got - dense) > np.maximum(checker._allowance(tol, np.abs(dense)), budget[:, None])
    if not bad.any():
        return None
    k = int(np.flatnonzero(bad.any(axis=-1))[0])
    return (
        f"spectral and dense paths disagree at point {pts[k].tolist()}: "
        f"{what} {got[k].tolist()} against {dense[k].tolist()}"
    )


def _spectral_rows(field, n=160, seed=0):
    """Points, Euclidean Hessians and spectral-path eigenvalues of n admissible rows."""
    region = Region(0.2, 4.0, n_samples=4 * n, seed=seed, char_eps=0.02)
    batch = sample_region(region, space=field.space, dim=field.dim, singular_radii=field.singular_radii)
    rows = np.flatnonzero(batch.admissible)[:n]
    tau = None if batch.tau is None else batch.tau[rows]
    got = operators._sorted_rows(checker._spectral_jets(field.profile, field.dim, batch.radius[rows], tau, False)[1])
    pts = batch.place(rows)
    return pts, np.asarray(field.hessian(pts)), got


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("name,d", CASES)
def test_the_weyl_guard_raises_exactly_where_the_eigvalsh_rule_does(name, d, tol):
    field = _field(name, d)
    pts, base, got = _spectral_rows(field, seed=d)
    n, m = got.shape
    rng = np.random.default_rng(17 + d)
    smallest = checker._allowance(tol, np.abs(got)).min(axis=-1)
    outcomes = set()
    for trial in range(24):
        # Symmetric perturbations of spectral norm `scale` times each row's
        # smallest allowance: most rows below it, a few around and above.
        scale = rng.choice([0.0, 0.3, 0.9, 0.99], n)
        few = rng.choice(n, size=trial % 4, replace=False)
        scale[few] = rng.choice([0.999, 1.001, 1.05, 2.0], few.size)
        p = rng.standard_normal((n, m, m))
        p += np.swapaxes(p, -1, -2)
        p *= (scale * smallest / np.abs(np.linalg.eigvalsh(p)).max(axis=-1))[:, None, None]
        hess = base.copy()
        hess[:, :m, :m] += p
        wrapped = dataclasses.replace(field, hessian=lambda x, hess=hess: hess)
        want = _eigvalsh_rule(field.space, hess, pts, got, tol)
        if want is None:
            rep = checker._dense_check(wrapped, "horizontal", pts, got, None, tol)
            dense = np.linalg.eigvalsh(_dense_matrix(field.space, hess, pts))
            assert rep["max_abs_bound"] >= np.abs(got - dense).max()
            outcomes.add("pass")
        else:
            with pytest.raises(ValueError) as err:
                checker._dense_check(wrapped, "horizontal", pts, got, None, tol)
            assert str(err.value) == want
            outcomes.add(want)
    assert "pass" in outcomes and len(outcomes) >= 3  # passes and several first rows


@pytest.mark.parametrize("name,d", CASES)
def test_exact_radial_rows_are_cleared_without_eigvalsh(name, d):
    field = _field(name, d)
    pts, hess, got = _spectral_rows(field, seed=d)
    wrapped = dataclasses.replace(field, hessian=lambda x: hess)
    rep = checker._dense_check(wrapped, "horizontal", pts, got, None, 1e-9)
    assert rep["n"] == got.shape[0] and rep["n_eigvalsh"] == 0
    dense = np.linalg.eigvalsh(_dense_matrix(field.space, hess, pts))
    assert rep["max_abs_bound"] >= np.abs(got - dense).max()
    assert rep["max_rel_bound"] <= 1e-12


@pytest.mark.parametrize("space,dim", [("heisenberg", 3), ("heisenberg", 5), ("euclidean", 3)])
def test_rows_without_a_direction_go_to_eigvalsh_without_a_warning(space, dim):
    # eta = 0 (x_H = 0) on H^d and x = 0 on R^n: no closed-form direction.
    # Tier-1 turns a RuntimeWarning into a failure.
    rng = np.random.default_rng(dim)
    pts = rng.standard_normal((4, dim))
    pts[1, : dim - 1 if space == "heisenberg" else dim] = 0.0
    hess = rng.standard_normal((4, dim, dim))
    hess += np.swapaxes(hess, -1, -2)
    got = np.linalg.eigvalsh(_dense_matrix(space, hess, pts))
    field = SimpleNamespace(space=space, hessian=lambda x: hess)
    rep = checker._dense_check(field, "horizontal", pts, got, None, 1e-9)
    assert rep["n_eigvalsh"] >= 1
    assert rep["max_abs_bound"] == 0.0


# ---------------------------------------------------------------------------
# whole runs


def _coupled(field, delta):
    """field with delta (g h^T + h g^T) added to its Hessian's horizontal block.

    g = eta / |eta| and h = g turned by hperp carry two distinct eigenvalues
    of the radial horizontal Hessian, so the coupling moves them by about
    delta^2 / gap but puts sqrt(2) delta into ||M - B||_F.
    """
    hessian, d = field.hessian, (field.dim - 1) // 2

    def perturbed(x):
        g = hgroup.eta(x)
        g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
        h = np.concatenate([g[:, d:], -g[:, :d]], axis=1)
        out = np.array(hessian(x))
        out[:, : 2 * d, : 2 * d] += delta * (g[:, :, None] * h[:, None, :] + h[:, :, None] * g[:, None, :])
        return out

    return dataclasses.replace(field, hessian=perturbed)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_rows_weyl_cannot_clear_fall_back_to_eigvalsh(d):
    field = _field("u4", d)
    spec = OperatorSpec("pucci_max", ell=E15)
    region = Region(0.2, 4.0, n_samples=2000, seed=4, char_eps=0.05)
    plain = check_inequality(field, spec, region)
    # 0.9e-9 is below every allowance at tol 1e-9, and sqrt(2) times it is
    # above the allowance of every eigenvalue with |e| < 1.27.
    coupled = check_inequality(_coupled(field, 0.9e-9), spec, region)
    assert plain.paths["dense_check"]["n_eigvalsh"] == 0
    assert coupled.paths["dense_check"]["n_eigvalsh"] > 0
    assert coupled.paths["dense_check"]["max_rel_bound"] <= 1e-9
    a, b = plain.to_dict(), coupled.to_dict()
    for rep in (a, b):
        rep.pop("wall_time")
        rep["paths"].pop("dense_check")
    assert a == b


def _guard_rows(field, spec, region):
    """(points, eigenvalues, e_q or None) the dense check compares after a run.

    Its rows are evenly spaced among the admissible rows, and the spectral
    path is evaluated at their placed points' own (rho, tau).
    """
    batch = sample_region(region, space=field.space, dim=field.dim, singular_radii=field.singular_radii)
    adm = np.flatnonzero(batch.admissible)
    pts = batch.place(adm[np.linspace(0, adm.size - 1, min(adm.size, checker._DENSE_CHECK_POINTS)).astype(np.intp)])
    radius, tau = checker._radius_tau(pts, field.space)
    reads_e_q = operators.OPERATORS[spec.second_order].reads_e_q
    jets = checker._spectral_jets(field.profile, field.dim, radius, tau, reads_e_q)
    return pts, operators._sorted_rows(jets[1]), jets[2]


def test_a_doubled_hessian_raises_the_eigvalsh_rules_message():
    field = _field("u4", 1)
    spec = OperatorSpec("pucci_max", ell=E15)
    region = Region(0.25, 4.0, n_samples=512, seed=5, char_eps=0.05)
    hessian = field.hessian
    doubled = dataclasses.replace(field, hessian=lambda x: 2.0 * hessian(x))
    pts, got, _ = _guard_rows(field, spec, region)
    want = _eigvalsh_rule("heisenberg", doubled.hessian(pts), pts, got, 1e-9)
    assert want is not None
    with pytest.raises(ValueError) as err:
        check_inequality(doubled, spec, region)
    assert str(err.value) == want


@pytest.mark.parametrize("name,d", [("u4", 1), ("u4", 4), ("u2", 3)])
def test_a_wrong_e_q_raises_the_eigvalsh_rules_message(name, d, monkeypatch):
    # The eigenvalues are right and cleared by Weyl; e_q is off by 1e-6.
    field = _field(name, d)
    m = 2 * d if field.space == "heisenberg" else d
    spec = OperatorSpec("pnorm", p=3.0)
    region = Region(0.25, 4.0, n_samples=512, seed=5, char_eps=0.05)
    pts, got, got_e_q = _guard_rows(field, spec, region)
    grad = field.gradient(pts)
    q = hgroup.h_gradient(grad, pts) if field.space == "heisenberg" else grad
    skew = 1.0 + 1e-6
    want = _eigvalsh_rule(field.space, field.hessian(pts), pts, got, 1e-9, q, got_e_q * skew)
    assert want is not None and m == got.shape[1]
    spectral_jets = checker._spectral_jets

    def skewed(*args):
        val, eigs, e_q, qq = spectral_jets(*args)
        return val, eigs, e_q * skew, qq

    monkeypatch.setattr(checker, "_spectral_jets", skewed)
    with pytest.raises(ValueError) as err:
        check_inequality(field, spec, region)
    assert str(err.value) == want


# ---------------------------------------------------------------------------
# tol = 0


@pytest.mark.parametrize("op", ["pucci_max", "pnorm"])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_tol_0_allows_the_rounding_of_two_correct_paths(d, op):
    # folland's eigenvalues reach about 7e3 in this region, where one ulp is
    # above the 1e-12 floor of the allowance; the two paths differ by 2 ulp.
    dims = HeisDims(d)
    field = field_from_profile(make_profile("folland", None, dims), dims)
    spec = OperatorSpec(op, ell=E15) if op == "pucci_max" else OperatorSpec(op, p=3.0)
    region = Region(0.1, 5.0, n_samples=3000, seed=9, char_eps=0.01)
    rep = check_inequality(field, spec, region, tol=0.0)
    assert rep.verdict in ("pass", "fail") and rep.paths["dense_check"]["n"] == 256
    hessian = field.hessian
    scaled = dataclasses.replace(field, hessian=lambda x: (1.0 + 1e-6) * hessian(x))
    for tol in (0.0, 1e-9):
        with pytest.raises(ValueError, match="spectral and dense paths disagree"):
            check_inequality(scaled, spec, region, tol=tol)


@pytest.mark.parametrize("kappa,d", [*((k, d) for k in (-20, -30, -40) for d in (1, 2, 4)), (-1000, 1)])
def test_steep_power_fields_pass_at_tol_0(kappa, d, capsys):
    # The chart's rho differs from the placed point's by a few ulp, which a
    # steep tail magnifies past the rounding budget, so the guard must read
    # each point's own (rho, tau) on both paths.
    assert cli.main(["verify", "--field", "power", "--kappa", str(kappa), "--d", str(d), "--tol", "0"]) == 0
    assert "verdict=pass" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# entries whose squares overflow


def _steep_rows():
    """power with kappa = -1e3 on H^1 at rho < 0.6: Hessian entries up to about 1e301."""
    dims = HeisDims(1)
    field = field_from_profile(make_profile("power", None, dims, kappa=-1e3), dims)
    region = Region(0.5, 0.6, n_samples=64, seed=2, char_eps=0.05)
    batch = sample_region(region, space=field.space, dim=field.dim, singular_radii=field.singular_radii)
    rows = np.flatnonzero(batch.admissible)[:8]
    got = operators._sorted_rows(checker._spectral_jets(field.profile, field.dim, batch.radius[rows], batch.tau[rows], False)[1])
    return field, batch.place(rows), got


def test_rows_whose_norm_overflows_are_still_compared():
    field, pts, got = _steep_rows()
    hess = np.asarray(field.hessian(pts))
    assert np.isfinite(hess).all() and np.abs(hess).max() > 1e300
    rep = checker._dense_check(field, "horizontal", pts, got, None, 1e-9)
    assert np.isfinite(rep["max_abs_bound"]) and rep["max_rel_bound"] <= 1e-9
    with pytest.raises(ValueError, match="spectral and dense paths disagree"):
        checker._dense_check(field, "horizontal", pts, 1.01 * got, None, 1e-9)


def test_scaling_rows_keeps_the_bits_of_every_bound():
    # Each row is divided by a power of two, which rounds nothing.
    field = _field("u4", 2)
    pts, hess, got = _spectral_rows(field, seed=3)
    mat = _dense_matrix(field.space, hess, pts)
    bound, budget = checker._weyl_bound(mat, pts, field.space, got)
    for k in (-600, 3, 500):
        scaled = checker._weyl_bound(np.ldexp(mat, k), pts, field.space, np.ldexp(got, k))
        assert _same_bits(scaled[0], np.ldexp(bound, k)) and _same_bits(scaled[1], np.ldexp(budget, k))


def test_a_steep_verify_report_can_be_written(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--field", "power", "--kappa", "-1e3", "--d", "1", "--out", str(out)])
    assert code == 0
    bounds = json.loads(out.read_text())["paths"]["dense_check"]
    assert np.isfinite(bounds["max_abs_bound"]) and np.isfinite(bounds["max_rel_bound"])
