import dataclasses

import numpy as np
import pytest

import heispde
from heispde import checker, cli, gallery, hgroup, operators
from heispde.checker import (
    BarrierBundle,
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

E12 = Ellipticity(1.0, 2.0)


def _points(batch):
    """Every point of a batch, placed in one call."""
    return batch.place(np.arange(batch.radius.shape[0]))
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
        Region(1.0, 2.0, char_eps=1.0)


def test_region_has_one_sampler():
    for sampler in ("kronecker", "grid"):
        with pytest.raises(TypeError):
            Region(1.0, 2.0, sampler=sampler)
    assert "sampler" not in dataclasses.asdict(Region(1.0, 2.0))


@pytest.mark.parametrize("key,value", [
    ("seed", 1.5), ("seed", True), ("seed", False), ("seed", np.bool_(True)), ("seed", "3"), ("seed", None),
    ("seed", float("inf")), ("seed", float("nan")), ("n_samples", True), ("n_samples", 2.5), ("n_samples", "64"),
])
def test_region_refuses_non_integer_counts(key, value):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        Region(1.0, 2.0, **{key: value})


@pytest.mark.parametrize("seed", [-1, -(2**63), np.int64(-5), -3.0])
def test_region_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        Region(1.0, 2.0, seed=seed)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        dataclasses.replace(Region(1.0, 2.0), seed=seed)


def test_a_tabulated_check_refuses_a_negative_seed():
    # check_tabulated never reads the seed; the region refuses it all the same.
    pts = np.array([[0.3, 0.2, 0.1], [0.5, -0.4, 0.2]])
    table = TabulatedField(pts, np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3, 3)))
    spec = OperatorSpec("pucci_max", ell=E12)
    assert check_tabulated(table, spec, Region(0.1, 5.0, seed=0)).verdict == "pass"
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        check_tabulated(table, spec, Region(0.1, 5.0, seed=-1))


def test_region_keeps_integral_counts_as_int():
    region = Region(1.0, 2.0, n_samples=np.int64(64), seed=7.0)
    assert (region.n_samples, region.seed) == (64, 7)
    assert type(region.n_samples) is int and type(region.seed) is int


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("kink_eps", [_NAN, _INF, -1e-3])
def test_region_rejects_a_non_finite_kink_tube(kink_eps):
    with pytest.raises(ValueError, match="kink_eps"):
        Region(0.5, 4.0, kink_eps=kink_eps)


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
    pts = _points(sample_region(region, space="heisenberg", dim=field.dim))
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
    assert _points(batch).shape == (600, 3)
    assert np.all(batch.radius >= 0.5 - 1e-12)
    assert np.all(batch.radius <= 4.0 + 1e-12)
    # radii agree with the gauge norm of the points
    assert np.allclose(batch.radius, hgroup.hnorm(_points(batch)), rtol=1e-12)
    assert batch.n_admissible + sum(batch.excluded_by.values()) == 600
    adm = batch.admissible
    assert np.all(batch.tau[adm] >= 0.2)
    assert np.all(np.abs(batch.radius[adm] - 1.0) >= 0.05)
    assert batch.excluded_by.get("characteristic_tube", 0) > 0


def test_euclidean_sampler_shapes():
    region = Region(0.5, 2.0, n_samples=128, seed=4)
    batch = sample_region(region, space="euclidean", dim=3)
    assert batch.tau is None
    assert np.allclose(
        batch.radius, np.sqrt(np.einsum("ij,ij->i", _points(batch), _points(batch)))
    )


def test_kronecker_sampling_is_deterministic():
    region = Region(0.5, 4.0, n_samples=256, seed=9)
    a = sample_region(region, space="heisenberg", dim=5)
    b = sample_region(region, space="heisenberg", dim=5)
    assert np.array_equal(_points(a), _points(b))
    c = sample_region(Region(0.5, 4.0, n_samples=256, seed=10), space="heisenberg", dim=5)
    assert not np.array_equal(_points(a), _points(c))


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
    xh = np.linalg.norm(_points(batch)[:, :2], axis=1)
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


def test_check_tabulated_tells_rows_apart_by_position():
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


@pytest.mark.parametrize("space", ["heisenberg", "euclidean"])
def test_a_table_row_whose_square_overflows_is_outside_the_range(space, recwarn):
    pts = np.array([[1e160, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.25]])
    table = TabulatedField(pts, np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3, 3)), space=space)
    rep = check_tabulated(table, OperatorSpec("pucci_max", ell=E12), Region(0.25, 4.0, char_eps=0.0))
    assert rep.excluded_by == {"outside_radius_range": 1} and rep.n_evaluated == 2
    assert not recwarn.list


def test_a_row_on_a_tube_boundary_is_admissible():
    # The tubes are open: tau < char_eps and |rho - r_k| < kink_eps.  A sampled
    # tau is a dyadic midpoint and never meets char_eps, so only a table row
    # can sit on a boundary.  Row 0 lies exactly kink_eps from r_k (both
    # subtractions are exact), row 1's tau is exactly char_eps.
    pts = np.array([[0.7, -0.2, 1.1], [0.05, 0.0, 1.0]])
    radius, tau = checker._radius_tau(pts, "heisenberg")
    kink = 2.0**-10
    r_k = float(radius[0]) - kink
    assert radius[0] - r_k == kink and abs(radius[1] - r_k) > kink and tau[0] > tau[1]
    table = TabulatedField(pts, np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3, 3)), singular_radii=(r_k,))
    spec = OperatorSpec("pucci_max", ell=E12)

    def excluded(char_eps, kink_eps):
        rep = check_tabulated(table, spec, Region(0.5, 2.0, char_eps=char_eps, kink_eps=kink_eps))
        assert rep.n_evaluated + sum(rep.excluded_by.values()) == 2
        return rep.excluded_by

    assert excluded(float(tau[1]), kink) == {}
    assert excluded(float(np.nextafter(tau[1], 1.0)), kink) == {"characteristic_tube": 1}
    assert excluded(float(tau[1]), float(np.nextafter(kink, 1.0))) == {"kink_tube": 1}


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


def _dilated(field, lam):
    """u o delta_lam as a wrapped field (dense path), its gluing radii scaled by 1 / lam."""
    scale = np.full(field.dim, lam)
    if field.space == "heisenberg":
        scale[-1] = lam**2
    outer = scale[:, None] * scale  # one product per entry keeps the Hessian symmetric
    return dataclasses.replace(
        field,
        name=f"{field.name}.dilated",
        value=lambda x: field.value(x * scale),
        gradient=lambda x: field.gradient(x * scale) * scale,
        hessian=lambda x: field.hessian(x * scale) * outer,
        singular_radii=tuple(r / lam for r in field.singular_radii),
        profile=None,
    )


_E15 = Ellipticity(1.0, 1.5)
_TABLE_PARAMS = {
    "pucci_max": {"ell": _E15},
    "pucci_min": {"ell": _E15},
    "pucci_plus_alpha": {"alpha": 0.1},
    "pucci_minus_alpha": {"alpha": 0.1},
    "pnorm": {"p": 3.0},
    "neg_trace": {},
}


@pytest.mark.parametrize("lam", [0.5, 3.0])
@pytest.mark.parametrize("op", list(operators.OPERATORS))
@pytest.mark.parametrize("name,d,kw", [
    ("log_rho", 1, {}), ("power", 2, {"kappa": 0.5}), ("u5", 2, {}), ("u2", 3, {}),
])
def test_a_dilated_field_on_the_scaled_region_gets_the_same_verdict(name, d, kw, op, lam):
    # D^2_H(u o delta_lam)(x) = lam^2 (D^2_H u)(delta_lam x), and every table
    # operator is 1-homogeneous, so on the region scaled by 1 / lam (same
    # seed, same chart up to rounding) u o delta_lam sees lam^2 times what u
    # sees.  The cases keep their worst excess far from the allowance.
    dims = HeisDims(d)
    field = field_from_profile(make_profile(name, _E15 if "e" in gallery.PROFILES[name].needs else None, dims, **kw), dims)
    spec = OperatorSpec(op, **_TABLE_PARAMS[op])
    region = Region(0.3, 3.0, n_samples=2000, seed=4, char_eps=0.05)
    base = check_inequality(field, spec, region)
    assert abs(base.worst_violation) > 1e3 * base.witness["allowance"]
    scaled = dataclasses.replace(region, rho_min=0.3 / lam, rho_max=3.0 / lam, kink_eps=region.kink_eps / lam)
    rep = check_inequality(_dilated(field, lam), spec, scaled)
    assert rep.paths["placed"] == rep.n_evaluated
    assert (rep.verdict, rep.n_evaluated) == (base.verdict, base.n_evaluated)
    assert rep.worst_violation == pytest.approx(lam**2 * base.worst_violation, rel=1e-12)


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
        "row", "point", "radius", "tau", "value", "eigenvalues",
        "second_order", "first_order", "total", "excess", "allowance",
    }
    # re-evaluate the witness point independently
    x = np.asarray(w["point"])
    mat = hgroup.h_hessian(field.gradient(x), field.hessian(x), x)
    want = operators.evaluate("pucci_min", mat, {"ell": E12})[0]
    assert np.isclose(float(want), w["total"], rtol=1e-12)
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
    pts = _points(batch)
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


@pytest.mark.parametrize(
    "spec,reads",
    [
        (OperatorSpec("pucci_max", ell=E12), False),
        (OperatorSpec("pnorm", p=3.0), True),
        (
            OperatorSpec(
                "pucci_max", ell=E12, first_order=HJBCoefficients((hgroup.eta,), (lambda x: np.ones(len(x)),), "horizontal")
            ),
            True,
        ),
    ],
    ids=["pucci_max", "pnorm", "first_order"],
)
def test_the_dense_path_reads_the_gradient_only_when_it_is_used(spec, reads, monkeypatch):
    field = _field("u4", Ellipticity(1.0, 1.5), D1)
    calls = {"gradient": 0, "h_gradient": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(hgroup, "h_gradient", counting("h_gradient", hgroup.h_gradient))
    wrapped = dataclasses.replace(field, name="wrapped", gradient=counting("gradient", field.gradient))
    region = Region(0.5, 4.0, n_samples=500, seed=3, char_eps=0.05)
    assert check_inequality(wrapped, spec, region).n_evaluated > 0
    pts = _points(sample_region(region, space="heisenberg", dim=3))
    table = TabulatedField(pts, field.value(pts), field.gradient(pts), field.hessian(pts))
    assert check_tabulated(table, spec, region).n_evaluated > 0
    assert (calls["gradient"] > 0, calls["h_gradient"] > 0) == (reads, reads)


def test_the_dense_path_refuses_a_matrix_that_is_not_finite():
    # Finite jets whose horizontal Hessian overflows, and a Euclidean Hessian
    # with a NaN: both stop with the message sym_eigenvalues gave.
    pts = np.array([[0.5, 0.5, 0.5], [0.5, -0.5, 0.5]])
    hessians = np.zeros((2, 3, 3))
    hessians[:, 0, 2] = hessians[:, 2, 0] = 1e308
    table = TabulatedField(pts, np.zeros(2), np.zeros((2, 3)), hessians)
    spec = OperatorSpec("pucci_max", ell=E12)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"), np.errstate(over="ignore", invalid="ignore"):
        check_tabulated(table, spec, Region(0.5, 4.0, char_eps=0.0))
    field = _field("u2", E12, HeisDims(3))
    bad = dataclasses.replace(field, name="wrapped", hessian=lambda x: np.full(x.shape + x.shape[-1:], np.nan))
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        check_inequality(bad, spec, Region(0.5, 4.0, n_samples=64))


def test_pnorm_rejects_a_euclidean_gradient_on_the_group():
    family = HJBCoefficients((lambda x: x,), (lambda x: np.zeros(x.shape[:-1]),), "euclidean")
    spec = OperatorSpec("pnorm", "subsolution", p=3.0, first_order=family)
    with pytest.raises(ValueError, match="pnorm.*horizontal Hessian"):
        check_inequality(_field("log_rho", dims=D1), spec, Region(0.5, 4.0, n_samples=64))
    # also on a region that leaves no admissible point
    vacuous = Region(1.0, 1.0 + 1e-9, n_samples=8, char_eps=0.999)
    with pytest.raises(ValueError, match="pnorm"):
        check_inequality(_field("log_rho", dims=D1), spec, vacuous)
    horizontal = OperatorSpec("pnorm", "subsolution", p=3.0)
    rep = check_inequality(_field("log_rho", dims=D1), horizontal, Region(0.5, 4.0, n_samples=64))
    assert rep.n_evaluated > 0


def test_the_sup_envelope_takes_the_larger_control_on_both_paths():
    family = HJBCoefficients(
        (lambda x: -hgroup.eta(x), lambda x: 0.5 * hgroup.eta(x)),
        (lambda x: np.ones(x.shape[:-1]), lambda x: np.full(x.shape[:-1], 2.0)),
    )
    field = _field("log_rho", dims=D1)
    region = Region(0.5, 4.0, n_samples=256, seed=7, char_eps=0.05)
    for f, path in ((field, "chart"), (dataclasses.replace(field, name="wrapped"), "placed")):
        inf, sup = (
            check_inequality(f, OperatorSpec("pucci_max", ell=E12, first_order=family, envelope=side), region, keep_samples=True)
            for side in ("inf", "sup")
        )
        assert sup.paths[path] == sup.n_evaluated > 0
        got, pts = sup.samples["first"], sup.samples["points"]
        want = operators.hjb_sup(family, pts, sup.samples["value"], hgroup.h_gradient(f.gradient(pts), pts))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert np.all(got >= inf.samples["first"]) and np.any(got > inf.samples["first"])


def _family(drift=1.0, cost=1.0):
    """One horizontal control on H^1 with constant drift entries and cost."""
    return HJBCoefficients((lambda x: np.full(x.shape[:-1] + (2,), drift),), (lambda x: np.full(x.shape[:-1], cost),))


def _bellman(field):
    spec = OperatorSpec("pucci_max", ell=E12, first_order=_family())
    return lambda family: check_inequality(
        field, dataclasses.replace(spec, first_order=family), Region(0.5, 4.0, n_samples=64, char_eps=0.05)
    )


_CONTROL_ROUTES = {
    "hjb_inf": lambda family: operators.hjb_inf(family, np.ones((4, 3)), np.ones(4), np.ones((4, 2))),
    "hjb_sup": lambda family: operators.hjb_sup(family, np.ones((4, 3)), np.ones(4), np.ones((4, 2))),
    "own profile": _bellman(_field("log_rho", dims=D1)),
    "renamed": _bellman(dataclasses.replace(_field("log_rho", dims=D1), name="renamed")),
    "lyapunov": lambda family: check_lyapunov("condcor1", family, E12, Region(2.0, 16.0, n_samples=64, char_eps=0.05), D1),
}


@pytest.mark.parametrize("route", list(_CONTROL_ROUTES))
@pytest.mark.parametrize("bad,message", [
    ({"drift": np.nan}, "drift values must be finite"),
    ({"cost": np.inf}, "cost values must be finite"),
    ({"cost": -1.0}, "running costs must be nonnegative"),
])
def test_every_route_applies_one_control_family_rule(route, bad, message):
    _CONTROL_ROUTES[route](_family())
    with pytest.raises(ValueError, match=f"^{message}$"):
        _CONTROL_ROUTES[route](_family(**bad))


def test_tabulated_field_validation():
    with pytest.raises(ValueError):
        TabulatedField(np.zeros((2, 4)), np.zeros(2), np.zeros((2, 4)), np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        TabulatedField(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3)), np.zeros((2, 3, 3)))
    # No rows: check_tabulated's Region would refuse n_samples = 0, an option the caller never set.
    with pytest.raises(ValueError, match="^tabulated field 'empty' has no rows$"):
        TabulatedField(np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3, 3)), name="empty")


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


@pytest.mark.parametrize("excess", [0.0, 5e-10])
@pytest.mark.parametrize("strict,verdict", [(True, "fail"), (False, "pass"), ((True, False), "fail"), ((False, True), "pass")])
def test_a_strict_part_is_granted_no_allowance(excess, strict, verdict):
    # Part 0 holds an excess of 0, or one within the allowance 1e-9, at one point.
    rule = checker._PassRule(strict)
    rule.add(np.array([[-1.0, excess], [-1.0, -1.0]]), np.full(2, 1e-9))
    assert rule.verdict() == (verdict, excess)


@pytest.mark.parametrize("dims", [D1, HeisDims(4)])
def test_at_tol_0_the_allowance_is_the_rounding_budget_of_the_magnitude(dims):
    # One rounding rule, k (eps mag + eta): k = 2m + 3 for an inequality, with
    # mag = Lam sum |e| + |first order|, and m + 12 for a growth condition,
    # with mag = |lhs| + |r| and margin = r - lhs.
    eps = np.finfo(float).eps
    e = Ellipticity(1.0, 1.5)
    rep = check_inequality(_field("u4", e, dims), OperatorSpec("pucci_max", ell=e), Region(0.1, 5.0, n_samples=2048), tol=0.0)
    w = rep.witness
    mag = e.Lam * np.abs(w["eigenvalues"]).sum() + abs(w["first_order"])
    assert w["allowance"] == pytest.approx((2 * dims.m + 3) * eps * mag, rel=1e-9, abs=0.0)
    region = Region(2.0, 16.0, n_samples=2048, char_eps=0.05)
    cond, data, kw = lyapunov_fixture("hou", dims)
    rep = check_lyapunov(cond, data, E12, region, dims, tol=0.0, **kw)
    r = E12.lam - E12.Lam * (dims.Q - 1)
    mag = abs(r - rep.witness["margin"]) + abs(r)
    assert rep.witness["allowance"] == pytest.approx((dims.m + 12) * eps * mag, rel=1e-9, abs=0.0)
    # The barrier and Euclidean cost routes with costs alone: lhs = 0 and the
    # drift sign is 0, so the magnitude is |margin| on both.
    zeros = lambda x: np.zeros(x.shape[:-1])
    costs_only = [
        ("condcor1bis", BarrierBundle(lambda x: np.zeros(x.shape[:-1] + (dims.m,)), zeros, lambda x: 1.0 + zeros(x))),
        ("schrodinger", HJBCoefficients((lambda x: np.zeros(x.shape),), (lambda x: 1.0 + zeros(x),), "euclidean")),
    ]
    for cond, data in costs_only:
        w = check_lyapunov(cond, data, E12, region, dims, tol=0.0).witness
        assert w["allowance"] == pytest.approx((dims.m + 12) * eps * abs(w["margin"]), rel=1e-9, abs=0.0), cond


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("diag,ell", [(8e307, Ellipticity(1.0, 1.5)), (1.3e308, Ellipticity(0.5, 0.5))])
def test_a_positive_excess_beside_an_overflowed_magnitude_raises(diag, ell, tol):
    # pucci_max of diag(a, a), a > 0, is -2 lam a, finite, while the
    # magnitude Lam (|e_1| + |e_2|) overflows: the allowance was inf, and the
    # supersolution run passed with a finite worst violation.  A negative
    # excess passes beside it.
    pts = np.array([[1.0, 0.5], [0.5, 1.0], [1.5, 0.5]])
    hess = np.zeros((3, 2, 2))
    hess[:, 0, 0] = hess[:, 1, 1] = diag
    table = TabulatedField(pts, np.zeros(3), np.zeros((3, 2)), hess, space="euclidean")
    region = Region(0.5, 4.0, char_eps=0.0)
    with pytest.raises(ValueError, match="^the inequality check got NaN at rho = "):
        check_tabulated(table, OperatorSpec("pucci_max", "supersolution", ell=ell), region, tol)
    if ell.Lam == 0.5:
        rep = check_tabulated(table, OperatorSpec("pucci_max", ell=ell), region, tol)
        assert (rep.verdict, rep.worst_violation) == ("pass", -1.3e308)


def test_any_positive_excess_beside_an_infinite_allowance_raises():
    # Not only an excess near the overflow: 0.5 beside an infinite allowance is
    # as undecided, so the pass rule's best is NaN and the fold raises on it.
    rule = checker._PassRule()
    assert rule.add(np.array([-1.0, 0.5]), np.array([1.0, np.inf])) == 1
    assert np.isnan(rule.best)
    region = Region(1.0, 2.0, n_samples=8, char_eps=0.0)
    batch = checker.sample_region(region, space="heisenberg", dim=3)

    def chunk(rows, pts):
        last = rows == rows[-1]
        named = {"n_evaluated": rows.size, "n_looked": rows.size}
        return np.where(last, 0.5, -1.0), np.where(last, np.inf, 1.0), named, lambda k: {}

    with pytest.raises(ValueError, match="^the lyapunov check got NaN at rho = "):
        checker._fold_chunks("lyapunov", batch, region, 0.0, {}, 0.0, chunk, lambda folded, verdict: {},
                             rounding=1, reads_points=False)


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


# ---------------------------------------------------------------------------
# public names


@pytest.mark.parametrize("module", [heispde, checker, cli, gallery, hgroup, operators], ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
