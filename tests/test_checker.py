import numpy as np
import pytest

from heispde import checker, gallery, hgroup, operators
from heispde.checker import (
    BarrierBundle,
    OperatorSpec,
    Region,
    TabulatedField,
    check_inequality,
    check_lyapunov,
    check_tabulated,
    convergence_study,
    fd_h_hessian,
    lyapunov_fixture,
    sample_region,
)
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients

E12 = Ellipticity(1.0, 2.0)
D1, D2 = HeisDims(1), HeisDims(2)


def _field(name, e=None, dims=D2, **kw):
    return field_from_profile(make_profile(name, e, dims, **kw), dims)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(2.0, 1.0)
    with pytest.raises(ValueError):
        Region(0.0, 1.0)
    with pytest.raises(ValueError):
        Region(1.0, 2.0, n_samples=0)
    with pytest.raises(ValueError):
        Region(1.0, 2.0, sampler="lattice")
    with pytest.raises(ValueError):
        Region(1.0, 2.0, sampler="sobol")  # renamed to "kronecker"
    with pytest.raises(ValueError):
        Region(1.0, 2.0, char_eps=1.0)


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("kink_eps", [_NAN, _INF, -1e-3])
def test_region_rejects_a_non_finite_kink_tube(kink_eps):
    with pytest.raises(ValueError, match="kink_eps"):
        Region(0.5, 4.0, kink_eps=kink_eps)


@pytest.mark.parametrize("zero_tol", [_INF, _NAN, -1e-12, 1.0])
def test_zero_tol_outside_unit_interval_is_rejected(zero_tol):
    with pytest.raises(ValueError, match="zero_tol"):
        OperatorSpec("pucci_max", ell=E12, zero_tol=zero_tol)
    with pytest.raises(ValueError, match="zero_tol"):
        operators.evaluate("pucci_max", np.eye(2), {"ell": E12, "zero_tol": zero_tol})


@pytest.mark.parametrize("p", [1.0, 0.5, _INF, _NAN])
def test_p_outside_one_to_infinity_is_rejected(p):
    with pytest.raises(ValueError, match="need p"):
        OperatorSpec("pnorm", p=p)
    with pytest.raises(ValueError, match="need p"):
        operators.evaluate("pnorm", np.eye(2), {"p": p}, np.ones(2))


@pytest.mark.parametrize("tol", [_NAN, _INF, -1.0])
def test_every_check_rejects_a_bad_tol(tol):
    region = Region(0.5, 4.0, n_samples=64, char_eps=0.05)
    spec = OperatorSpec("pucci_min", ell=E12)
    field = _field("log_rho")
    with pytest.raises(ValueError, match="tol"):
        check_inequality(field, spec, region, tol)
    pts = sample_region(region, space="heisenberg", dim=field.dim).points
    table = TabulatedField(pts, field.value(pts), field.gradient(pts), field.hessian(pts))
    with pytest.raises(ValueError, match="tol"):
        check_tabulated(table, spec, region, tol)
    cond, data, _ = lyapunov_fixture("hou", D1)
    with pytest.raises(ValueError, match="tol"):
        check_lyapunov(cond, data, E12, Region(2.0, 16.0, n_samples=64), D1, tol=tol)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec("not_an_op")
    with pytest.raises(ValueError):
        OperatorSpec("pucci_max")  # needs ellipticity
    with pytest.raises(ValueError):
        OperatorSpec("pnorm")  # needs p
    with pytest.raises(ValueError):
        OperatorSpec("pucci_min", sense="both", ell=E12)


def test_sampler_respects_region_and_accounts_exclusions():
    region = Region(0.5, 4.0, n_samples=600, seed=0, char_eps=0.2, kink_eps=0.05)
    batch = sample_region(region, space="heisenberg", dim=3, singular_radii=(1.0,))
    assert batch.points.shape == (600, 3)
    assert np.all(batch.radius >= 0.5 - 1e-12)
    assert np.all(batch.radius <= 4.0 + 1e-12)
    # radii agree with the gauge norm of the points
    assert np.allclose(batch.radius, hgroup.hnorm(batch.points), rtol=1e-12)
    assert batch.n_admissible + sum(batch.excluded_by.values()) == 600
    adm = batch.admissible
    assert np.all(batch.tau[adm] >= 0.2)
    assert np.all(np.abs(batch.radius[adm] - 1.0) >= 0.05)
    assert batch.excluded_by.get("characteristic_tube", 0) > 0


def test_grid_sampler_covers_radius_and_angle():
    region = Region(0.5, 4.0, n_samples=512, seed=0, char_eps=0.1, sampler="grid")
    batch = sample_region(region, space="heisenberg", dim=3)
    assert batch.points.shape == (512, 3)
    adm = batch.admissible
    assert batch.tau[adm].max() >= 1.0 - 1e-12
    assert batch.tau[adm].min() >= 0.1
    # both vertical signs appear
    assert (batch.points[:, 2] > 0).any() and (batch.points[:, 2] < 0).any()
    again = sample_region(region, space="heisenberg", dim=3)
    assert np.array_equal(batch.points, again.points)


def test_euclidean_sampler_shapes():
    region = Region(0.5, 2.0, n_samples=128, seed=4)
    batch = sample_region(region, space="euclidean", dim=3)
    assert batch.tau is None
    assert np.allclose(
        batch.radius, np.sqrt(np.einsum("ij,ij->i", batch.points, batch.points))
    )


def test_kronecker_sampling_is_deterministic():
    region = Region(0.5, 4.0, n_samples=256, seed=9)
    assert region.sampler == "kronecker"
    a = sample_region(region, space="heisenberg", dim=5)
    b = sample_region(region, space="heisenberg", dim=5)
    assert np.array_equal(a.points, b.points)
    c = sample_region(Region(0.5, 4.0, n_samples=256, seed=10), space="heisenberg", dim=5)
    assert not np.array_equal(a.points, c.points)


def test_kronecker_steps_are_the_generalized_golden_ratios():
    # phi^(k+1) = phi + 1: the golden ratio for k = 1, the plastic number for k = 2.
    golden, plastic = (1.0 + 5.0**0.5) / 2.0, 1.324717957244746
    assert float(checker._kronecker_steps(1)[0]) / 2.0**64 == pytest.approx(1.0 / golden, abs=1e-15)
    steps = checker._kronecker_steps(2).astype(float) / 2.0**64
    assert steps == pytest.approx([1.0 / plastic, 1.0 / plastic**2], abs=1e-15)


def test_kronecker_unit_matches_integer_reference():
    # x_i = s + i a (mod 2^64), top 53 bits, cell midpoint: numpy's wrapping
    # uint64 arithmetic against Python integers.
    n, k, seed = 300, 5, 11
    shift = np.random.default_rng(seed).integers(0, 2**64, size=k, dtype=np.uint64)
    assert np.array_equal(checker._kronecker_shift(k, seed), shift)
    cols = checker._kronecker_unit(n, shift)
    for s, a, col in zip(shift, checker._kronecker_steps(k), cols):
        ref = [(((int(s) + i * int(a)) % 2**64 >> 11) + 0.5) * 2.0**-53 for i in range(n)]
        assert col.tolist() == ref
        assert 0.0 < col.min() and col.max() < 1.0


def _log_radius_max_gap(radius, rho_min, rho_max):
    lo, hi = np.log(rho_min), np.log(rho_max)
    edges = np.concatenate([[lo], np.sort(np.log(radius)), [hi]])
    return np.diff(edges).max() / (hi - lo)


def test_kronecker_log_radius_gap_shrinks_with_n():
    # The region and seed of acceptance criteria 03/04.
    gaps = {}
    for n in (4096, 65536):
        batch = sample_region(Region(0.05, 5.0, n_samples=n, seed=3), space="heisenberg", dim=3)
        assert batch.radius.min() >= 0.05 and batch.radius.max() <= 5.0
        gaps[n] = _log_radius_max_gap(batch.radius, 0.05, 5.0)
    assert gaps[4096] < 1e-3
    assert gaps[65536] * 8.0 <= gaps[4096]


def test_kronecker_tau_hits_every_tenth():
    batch = sample_region(Region(0.05, 5.0, n_samples=4096, seed=3), space="heisenberg", dim=3)
    counts, _ = np.histogram(batch.tau, bins=10, range=(0.0, 1.0))
    assert counts.min() > 0
    # tau is the chart coordinate of the point it was drawn with
    xh = np.linalg.norm(batch.points[:, :2], axis=1)
    assert np.allclose(batch.tau, xh / batch.radius, rtol=1e-12, atol=1e-15)


def test_check_inequality_report_is_reproducible():
    field = _field("log_rho")
    spec = OperatorSpec("pucci_min", "subsolution", ell=E12)
    region = Region(0.5, 4.0, n_samples=400, seed=3, char_eps=0.05)
    a = check_inequality(field, spec, region).to_dict()
    b = check_inequality(field, spec, region).to_dict()
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_check_inequality_threads_do_not_change_results(monkeypatch):
    field = _field("log_rho")
    spec = OperatorSpec("pucci_min", "subsolution", ell=E12)
    region = Region(0.5, 4.0, n_samples=300, seed=3, char_eps=0.05)
    base = check_inequality(field, spec, region).to_dict()
    # The checker no longer reads the variable; setting it changes nothing.
    monkeypatch.setenv(checker.THREADS_ENV, "3")
    threaded = check_inequality(field, spec, region).to_dict()
    base.pop("wall_time"), threaded.pop("wall_time")
    assert base == threaded


def test_check_tabulated_threads_do_not_change_results():
    # The same points twice, with u4 jets and then -u4 jets: rows must be
    # told apart by position, not by their coordinates.
    e = Ellipticity(1.0, 1.5)
    field = _field("u4", e, D1)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((200, 3))
    r = np.exp(rng.uniform(np.log(0.05), np.log(6.0), 200))
    pts = hgroup.dilate(r / hgroup.hnorm(g), g)
    jets = [field.value(pts), field.gradient(pts), field.hessian(pts)]
    table = TabulatedField(
        np.concatenate([pts, pts]), *(np.concatenate([j, -j]) for j in jets)
    )
    spec = OperatorSpec("pucci_max", "subsolution", ell=e)
    rep = check_tabulated(table, spec, Region(0.1, 5.0, char_eps=0.02))
    assert rep.verdict == "fail"
    assert rep.excluded_by["outside_radius_range"] > 0
    assert rep.n_evaluated < 400


def test_formula_mode_matches_closed_forms():
    field = _field("log_rho")
    spec = OperatorSpec("pucci_min", "subsolution", ell=E12)
    region = Region(0.5, 4.0, n_samples=500, seed=2, char_eps=0.05)
    rep = check_inequality(field, spec, region, mode="formula")
    assert rep.verdict == "pass"
    assert rep.formula_comparison["max_rel_deviation"] <= 1e-12

    tilde = _field("u_tilde")
    rep2 = check_inequality(
        tilde, OperatorSpec("neg_trace", "supersolution"), region, mode="formula"
    )
    assert rep2.verdict == "pass"
    assert rep2.formula_comparison["n_nonzero_reference"] > 0


def test_formula_mode_without_reference_raises():
    field = _field("power", kappa=1.0)
    spec = OperatorSpec("neg_trace", "subsolution")
    with pytest.raises(ValueError):
        check_inequality(field, spec, Region(0.5, 2.0, n_samples=64), mode="formula")


def test_negated_field_satisfies_dual_inequality():
    dims = D1
    field = _field("u5", E12, dims)
    region = Region(0.1, 5.0, n_samples=800, seed=6, char_eps=0.0)
    plus = check_inequality(
        field, OperatorSpec("pucci_max", "supersolution", ell=E12), region
    )
    minus = check_inequality(
        -field, OperatorSpec("pucci_min", "subsolution", ell=E12), region
    )
    assert plus.verdict == "pass" and minus.verdict == "pass"
    # the two runs see the same points, so the duality is exact
    assert abs(plus.worst_violation - minus.worst_violation) <= 1e-12


def test_vacuous_region_never_passes():
    field = _field("u4", Ellipticity(1.0, 1.5), D1)
    region = Region(1.0 - 1e-8, 1.0 + 1e-8, n_samples=32, kink_eps=1e-6)
    rep = check_inequality(field, OperatorSpec("pucci_max", "subsolution", ell=Ellipticity(1.0, 1.5)), region)
    assert rep.verdict == "vacuous"
    assert rep.n_evaluated == 0
    assert rep.worst_violation is None


def test_witness_identifies_the_worst_point():
    field = _field("log_rho")
    spec = OperatorSpec("pucci_min", "supersolution", ell=E12)  # false inequality
    region = Region(0.5, 4.0, n_samples=300, seed=1, char_eps=0.05)
    rep = check_inequality(field, spec, region)
    assert rep.verdict == "fail"
    w = rep.witness
    assert set(w) == {
        "point", "radius", "tau", "value", "eigenvalues",
        "second_order", "first_order", "total", "excess", "allowance",
    }
    # re-evaluate the witness point independently
    x = np.asarray(w["point"])
    mat = hgroup.h_hessian(field.gradient(x), field.hessian(x), x)
    from heispde.operators import pucci_min
    assert np.isclose(float(pucci_min(E12, mat)), w["total"], rtol=1e-12)
    assert np.isclose(-w["total"], w["excess"], rtol=1e-12)
    assert w["excess"] == rep.worst_violation


def test_keep_samples_exposes_per_point_values():
    field = _field("log_rho")
    spec = OperatorSpec("pucci_min", "subsolution", ell=E12)
    region = Region(0.5, 4.0, n_samples=200, seed=3, char_eps=0.05)
    rep = check_inequality(field, spec, region, keep_samples=True)
    s = rep.samples
    assert s["points"].shape[0] == rep.n_evaluated
    assert np.allclose(s["total"], s["second"] + s["first"])


def test_tabulated_field_checks_and_accounting():
    field = _field("log_rho")
    region = Region(0.5, 4.0, n_samples=300, seed=5, char_eps=0.05)
    batch = sample_region(region, space="heisenberg", dim=5)
    pts = batch.points
    table = TabulatedField(
        points=pts,
        values=field.value(pts),
        gradients=field.gradient(pts),
        hessians=field.hessian(pts),
        space="heisenberg",
    )
    spec = OperatorSpec("pucci_min", "subsolution", ell=E12)
    rep = check_tabulated(table, spec, region)
    assert rep.verdict == "pass"
    assert rep.n_samples == 300
    assert rep.n_evaluated + rep.n_excluded == 300

    # rows outside the radius window are excluded and counted
    far = np.array([[10.0, 0.0, 0.0], [0.2, 0.1, 0.0], [1.0, 1.0, 1.0]])
    table2 = TabulatedField(
        points=far,
        values=np.zeros(3),
        gradients=np.zeros((3, 3)),
        hessians=np.zeros((3, 3, 3)),
    )
    rep2 = check_tabulated(table2, OperatorSpec("neg_trace"), Region(0.5, 4.0))
    assert rep2.excluded_by["outside_radius_range"] == 2
    assert rep2.n_evaluated == 1


def test_zero_gradient_rows_are_excluded_for_pnorm():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    grads = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    hessians = np.stack([np.eye(3), np.eye(3)])
    table = TabulatedField(pts, np.zeros(2), grads, hessians)
    spec = OperatorSpec("pnorm", "subsolution", p=3.0)
    rep = check_tabulated(table, spec, Region(0.5, 4.0, char_eps=0.0))
    assert rep.excluded_by.get("zero_gradient") == 1
    assert rep.n_evaluated == 1


def test_pnorm_rejects_a_euclidean_gradient_on_the_group():
    spec = OperatorSpec("pnorm", "subsolution", p=3.0, gradient_space="euclidean")
    with pytest.raises(ValueError, match="pnorm.*horizontal Hessian"):
        check_inequality(_field("log_rho", dims=D1), spec, Region(0.5, 4.0, n_samples=64))
    # also on a region that leaves no admissible point
    vacuous = Region(1.0, 1.0 + 1e-9, n_samples=8, char_eps=0.999)
    with pytest.raises(ValueError, match="pnorm"):
        check_inequality(_field("log_rho", dims=D1), spec, vacuous)
    horizontal = OperatorSpec("pnorm", "subsolution", p=3.0)
    rep = check_inequality(_field("log_rho", dims=D1), horizontal, Region(0.5, 4.0, n_samples=64))
    assert rep.n_evaluated > 0


def test_tabulated_field_validation():
    with pytest.raises(ValueError):
        TabulatedField(np.zeros((2, 4)), np.zeros(2), np.zeros((2, 4)), np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        TabulatedField(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3)), np.zeros((2, 3, 3)))


# ---------------------------------------------------------------------------
# finite differences


def test_fd_h_hessian_matches_analytic_to_second_order():
    field = _field("log_rho", dims=D1)
    x = np.array([0.7, -0.4, 0.9])
    ref = hgroup.h_hessian(field.gradient(x), field.hessian(x), x)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = fd_h_hessian(field.value, x, h, space="heisenberg")
        errs.append(np.abs(fd - ref).max())
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2
    assert errs[2] < errs[0]


def test_fd_h_hessian_shrinks_away_from_gluing_radius():
    e = Ellipticity(1.0, 1.5)
    field = _field("u4", e, D1)
    # a point whose gauge distance to the kink is far smaller than h
    x = hgroup.dilate(1.0 + 1e-4, np.array([1.0, 0.0, 0.0]))
    ref = hgroup.h_hessian(field.gradient(x), field.hessian(x), x)
    fd, info = fd_h_hessian(
        field.value, x, 1e-2, singular_radii=field.singular_radii, return_info=True
    )
    assert info["n_shrinks"] > 0
    assert info["h"] < 1e-2
    assert np.abs(fd - ref).max() <= 1e-3

    # sitting exactly on the kink can never be resolved
    y = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fd_h_hessian(field.value, y, 1e-2, singular_radii=(1.0,), max_shrinks=5)


def test_fd_h_hessian_euclidean_space():
    field = _field("u2", E12, HeisDims(3))
    x = np.array([0.4, 0.5, -0.3])
    ref = field.hessian(x)
    fd = fd_h_hessian(field.value, x, 1e-3, space="euclidean",
                      singular_radii=field.singular_radii)
    assert np.abs(fd - ref).max() <= 1e-5


def test_convergence_study_reports_second_order():
    field = _field("folland", dims=D1)
    region = Region(0.8, 2.0, n_samples=64, seed=2)
    res = convergence_study(field, region, h0=1e-2, levels=3, n_points=6)
    assert len(res.rows) == 3
    assert res.rows[0]["order"] is None
    for row in res.rows[1:]:
        assert row["order"] >= 1.8
    assert res.c_estimate > 0.0
    with pytest.raises(ValueError):
        convergence_study(field, region, levels=1)


# ---------------------------------------------------------------------------
# growth conditions


def test_zero_coefficients_fail_the_drift_condition():
    cond, data, _ = lyapunov_fixture("zero-coeffs", D1)
    region = Region(1.0, 8.0, n_samples=400, seed=11)
    rep = check_lyapunov(cond, data, E12, region, D1)
    assert rep.verdict == "fail"
    # the margin is exactly lam - Lam (Q - 1) everywhere
    assert np.isclose(rep.worst_violation, E12.Lam * (D1.Q - 1) - E12.lam)


def test_inward_drift_threshold_is_sharp():
    # gamma |x|_g^4 must beat Lam (Q-1) - lam at the inner radius
    cond, data, _ = lyapunov_fixture("hou", D1, gamma0=1.0)
    need = (E12.Lam * (D1.Q - 1) - E12.lam) ** 0.25  # = 5^(1/4) ~ 1.495
    fail_region = Region(need * 0.8, need * 4.0, n_samples=600, seed=21)
    assert check_lyapunov(cond, data, E12, fail_region, D1).verdict == "fail"
    pass_region = Region(need * 1.1, need * 4.0, n_samples=600, seed=21)
    assert check_lyapunov(cond, data, E12, pass_region, D1).verdict == "pass"


def test_ou_comparison_threshold_is_sharp():
    cond, data, extra = lyapunov_fixture("ou", D1)
    c1 = E12.Lam * (2 * D1.d + 1) - E12.lam  # = 5
    lo = np.sqrt(c1)
    fail_region = Region(lo * 0.8, lo * 4.0, n_samples=600, seed=23)
    rep = check_lyapunov(cond, data, E12, fail_region, D1, gammas=extra["gammas"])
    assert rep.verdict == "fail"
    assert rep.components["min_proof_margin"] < 0.0
    pass_region = Region(lo * 1.05 + 0.1, lo * 4.0, n_samples=600, seed=23)
    rep2 = check_lyapunov(cond, data, E12, pass_region, D1, gammas=extra["gammas"])
    assert rep2.verdict == "pass"
    assert rep2.components["min_scaled_drift_margin"] >= -1e-9


def test_positive_cost_makes_the_strict_condition_hold():
    cond, data, _ = lyapunov_fixture("schro", D1, c0=1.0)
    region = Region(10.0, 80.0, n_samples=400, seed=13)
    rep = check_lyapunov(cond, data, E12, region, D1)
    assert rep.verdict == "pass"
    assert rep.components["min_margin"] > 0.0


def test_strict_condition_fails_without_cost():
    coeffs = HJBCoefficients(
        drifts=(lambda x: np.zeros(x.shape[:-1] + (2,)),),
        costs=(lambda x: np.zeros(x.shape[:-1]),),
        gradient_space="horizontal",
    )
    region = Region(10.0, 80.0, n_samples=200, seed=13)
    rep = check_lyapunov("schrodinger", coeffs, E12, region, D1)
    assert rep.verdict == "fail"


def test_euclidean_cost_route():
    ok = HJBCoefficients(
        drifts=(lambda x: np.zeros(x.shape[:-1] + (3,)),),
        costs=(lambda x: np.ones(x.shape[:-1]),),
        gradient_space="euclidean",
    )
    region = Region(2.0, 20.0, n_samples=300, seed=29)
    rep = check_lyapunov("schrodinger", ok, E12, region, D1)
    assert rep.verdict == "pass"
    assert rep.components["max_drift_sign"] <= 1e-12

    outward = HJBCoefficients(
        drifts=(lambda x: np.asarray(x),),
        costs=(lambda x: np.ones(x.shape[:-1]),),
        gradient_space="euclidean",
    )
    rep2 = check_lyapunov("schrodinger", outward, E12, region, D1)
    assert rep2.verdict == "fail"
    assert rep2.components["max_drift_sign"] > 0.0


def test_barrier_bundle_condition():
    inward = BarrierBundle(
        bbar=lambda x: -hgroup.eta(x),
        gbar=lambda x: np.ones(x.shape[:-1]),
        cbar=lambda x: np.zeros(x.shape[:-1]),
    )
    region = Region(3.0, 24.0, n_samples=400, seed=31, char_eps=0.3)
    rep = check_lyapunov("condcor1bis", inward, E12, region, D1)
    assert rep.verdict == "pass"

    outward = BarrierBundle(
        bbar=lambda x: hgroup.eta(x),
        gbar=lambda x: np.ones(x.shape[:-1]),
        cbar=lambda x: np.zeros(x.shape[:-1]),
    )
    assert check_lyapunov("condcor1bis", outward, E12, region, D1).verdict == "fail"

    negative_g = BarrierBundle(
        bbar=lambda x: -hgroup.eta(x),
        gbar=lambda x: -np.ones(x.shape[:-1]),
        cbar=lambda x: np.zeros(x.shape[:-1]),
    )
    with pytest.raises(ValueError):
        check_lyapunov("condcor1bis", negative_g, E12, region, D1)


def test_trace_normalized_drift_condition():
    cond, data, _ = lyapunov_fixture("hou", D1, gamma0=1.0)
    region = Region(2.0, 16.0, n_samples=400, seed=37)
    alpha = 1.0 / (4 * D1.d)
    rep = check_lyapunov("condcor1p", data, E12, region, D1, alpha=alpha)
    assert rep.verdict == "pass"  # gamma rho^4 >= 16 beats 3 - 4 d alpha = 2

    zero_cond, zero_data, _ = lyapunov_fixture("zero-coeffs", D1)
    rep2 = check_lyapunov("condcor1p", zero_data, E12, region, D1, alpha=alpha)
    assert rep2.verdict == "fail"
    with pytest.raises(ValueError):
        check_lyapunov("condcor1p", data, E12, region, D1)  # alpha missing


def test_lyapunov_scan_reports_increasing_rungs():
    cond, data, _ = lyapunov_fixture("schro", D1)
    region = Region(10.0, 80.0, n_samples=300, seed=13)
    rep = check_lyapunov(cond, data, E12, region, D1)
    rungs = [row["R"] for row in rep.scan]
    assert rungs == sorted(rungs)
    assert rungs[0] == 10.0
    assert all(row["min_margin"] is not None for row in rep.scan if row["n"] > 0)


def test_lyapunov_input_validation():
    cond, data, _ = lyapunov_fixture("zero-coeffs", D1)
    region = Region(1.0, 8.0, n_samples=64)
    with pytest.raises(ValueError):
        check_lyapunov("nonsense", data, E12, region, D1)
    with pytest.raises(ValueError):
        check_lyapunov(cond, data, E12, Region(1.0, 8.0, char_eps=0.0), D1)
    with pytest.raises(TypeError):
        check_lyapunov("OUtype", data, E12, region, D1, gammas=np.ones(3))
    with pytest.raises(ValueError):
        lyapunov_fixture("mystery", D1)
    ou_cond, ou_data, _ = lyapunov_fixture("ou", D1)
    with pytest.raises(ValueError):
        check_lyapunov(ou_cond, ou_data, E12, region, D1, gammas=np.ones(2))


def test_lyapunov_report_is_reproducible():
    cond, data, _ = lyapunov_fixture("hou", D2)
    region = Region(2.0, 16.0, n_samples=300, seed=41)
    a = check_lyapunov(cond, data, E12, region, D2).to_dict()
    b = check_lyapunov(cond, data, E12, region, D2).to_dict()
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b
