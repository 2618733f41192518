"""The growth-condition route table of check_lyapunov."""

import numpy as np
import pytest

from heispde import checker, hgroup
from heispde.checker import BarrierBundle, Region, check_lyapunov
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients

E12 = Ellipticity(1.0, 2.0)
REGION = Region(2.0, 16.0, n_samples=500, seed=5, char_eps=0.05)
# (condition, kind of data) of every route.
ROUTES = [
    ("condcor1", "horizontal"),
    ("condcor1bis", "barrier"),
    ("condcor1p", "horizontal"),
    ("OUtype", "euclidean"),
    ("schrodinger", "horizontal"),
    ("schrodinger", "euclidean"),
]
KINDS = ("horizontal", "euclidean", "barrier")


def _ones(x):
    return np.ones(x.shape[:-1])


def _data(kind, dims, drift=None, cost=None):
    """Data of the given kind with two controls (or one barrier), optionally overridden."""
    if kind == "barrier":
        return BarrierBundle(
            bbar=drift or (lambda x: -0.2 * hgroup.eta(x)),
            gbar=lambda x: 0.5 * _ones(x),
            cbar=cost or (lambda x: 0.3 * _ones(x)),
        )
    field = hgroup.eta if kind == "horizontal" else (lambda x: x)
    drifts = (lambda x: -0.5 * field(x), drift or (lambda x: -2.0 * field(x)))
    costs = (lambda x: 0.1 * _ones(x), cost or (lambda x: 0.5 * _ones(x)))
    return HJBCoefficients(drifts, costs, kind)


def _check(cond, data, dims, region=REGION):
    return check_lyapunov(
        cond, data, E12, region, dims, alpha=1.0 / (4 * dims.d), gammas=np.ones(dims.n)
    )


# (verdict, worst_violation, witness margin, components) of _data at REGION,
# pinned from the implementation before the route table.
PINNED = {
    ("condcor1", "horizontal", 1): (
        "pass", -3.5857238547758588, 3.5857238547758588,
        {"min_margin": 3.5857238547758588},
    ),
    ("condcor1", "horizontal", 2): (
        "fail", 0.5771518009349066, -0.5771518009349066,
        {"min_margin": -0.5771518009349066},
    ),
    ("condcor1", "horizontal", 4): (
        "fail", 8.382931302105998, -8.382931302105998,
        {"min_margin": -8.382931302105998},
    ),
    ("condcor1bis", "barrier", 1): (
        "fail", 1.7093518117520627, -1.7093518117520627,
        {"min_margin": -1.7093518117520627},
    ),
    ("condcor1bis", "barrier", 2): (
        "fail", 5.879954814082035, -5.879954814082035,
        {"min_margin": -5.879954814082035},
    ),
    ("condcor1bis", "barrier", 4): (
        "fail", 13.69756824614131, -13.69756824614131,
        {"min_margin": -13.69756824614131},
    ),
    ("condcor1p", "horizontal", 1): (
        "pass", -6.585723854775859, 6.585723854775859,
        {"min_margin": 6.585723854775859},
    ),
    ("condcor1p", "horizontal", 2): (
        "pass", -6.422848199065093, 6.422848199065093,
        {"min_margin": 6.422848199065093},
    ),
    ("condcor1p", "horizontal", 4): (
        "pass", -6.617068697894002, 6.617068697894002,
        {"min_margin": 6.617068697894002},
    ),
    ("OUtype", "euclidean", 1): (
        "fail", 26272.668804056066, -26272.668804056066,
        {"min_scaled_drift_margin": -26272.668804056066, "min_proof_margin": -0.5221782202145775},
    ),
    ("OUtype", "euclidean", 2): (
        "fail", 25685.489714959556, -25685.489714959556,
        {"min_scaled_drift_margin": -25685.489714959556, "min_proof_margin": -1.50015741191415},
    ),
    ("OUtype", "euclidean", 4): (
        "fail", 30018.027628461008, -30018.027628461008,
        {"min_scaled_drift_margin": -30018.027628461008, "min_proof_margin": -2.8410145802063185},
    ),
    ("schrodinger", "horizontal", 1): (
        "pass", -3.5857238547758588, 3.5857238547758588,
        {"min_margin": 3.5857238547758588},
    ),
    ("schrodinger", "horizontal", 2): (
        "fail", 0.5771518009349066, -0.5771518009349066,
        {"min_margin": -0.5771518009349066},
    ),
    ("schrodinger", "horizontal", 4): (
        "fail", 8.382931302105998, -8.382931302105998,
        {"min_margin": -8.382931302105998},
    ),
    ("schrodinger", "euclidean", 1): (
        "pass", -0.06946151257185666, 0.06946151257185666,
        {"min_cost_margin": 0.06946151257185666, "max_drift_sign": -0.5138294120651089},
    ),
    ("schrodinger", "euclidean", 2): (
        "pass", -0.06966616524568765, 0.06966616524568765,
        {"min_cost_margin": 0.06966616524568765, "max_drift_sign": -0.5061030616184913},
    ),
    ("schrodinger", "euclidean", 4): (
        "pass", -0.06942452289416945, 0.06942452289416945,
        {"min_cost_margin": 0.06942452289416945, "max_drift_sign": -0.5020031102938816},
    ),
}


def test_the_table_keeps_the_five_conditions_in_order():
    assert tuple(checker.LYAPUNOV_CONDITIONS) == (
        "condcor1", "condcor1bis", "condcor1p", "OUtype", "schrodinger"
    )
    assert [(c, k) for c, routes in checker.LYAPUNOV_CONDITIONS.items() for k in routes] == ROUTES


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("cond,kind", ROUTES)
def test_every_route_matches_its_pinned_values(cond, kind, d):
    dims = HeisDims(d)
    rep = _check(cond, _data(kind, dims), dims)
    verdict, worst, margin, components = PINNED[cond, kind, d]
    assert rep.verdict == verdict
    assert rep.worst_violation == pytest.approx(worst, rel=1e-12, abs=0.0)
    assert rep.witness["margin"] == pytest.approx(margin, rel=1e-12, abs=0.0)
    assert rep.components.keys() == components.keys()
    for key, value in components.items():
        assert rep.components[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("cond", sorted({cond for cond, _ in ROUTES}))
def test_every_pair_outside_the_table_is_a_type_error(cond):
    dims = HeisDims(1)
    routes = checker.LYAPUNOV_CONDITIONS[cond]
    others = [_data(kind, dims) for kind in KINDS if kind not in routes]
    for data in others + [object(), lambda x: x]:
        with pytest.raises(TypeError, match=cond):
            _check(cond, data, dims)


@pytest.mark.parametrize("cond,kind", ROUTES)
def test_char_eps_zero_is_refused_exactly_where_the_margin_divides_by_s(cond, kind):
    dims = HeisDims(1)
    region = Region(1.0, 8.0, n_samples=200, seed=5, char_eps=0.0)
    divides = (cond, kind) not in (("OUtype", "euclidean"), ("schrodinger", "euclidean"))
    assert checker.LYAPUNOV_CONDITIONS[cond][kind].divides_by_s == divides
    if divides:
        with pytest.raises(ValueError, match="char_eps > 0"):
            _check(cond, _data(kind, dims), dims, region)
    else:
        assert _check(cond, _data(kind, dims), dims, region).verdict in ("pass", "fail")


def test_a_failing_euclidean_schrodinger_run_reports_its_drift_sign():
    outward = HJBCoefficients((lambda x: np.asarray(x),), (_ones,), "euclidean")
    rep = check_lyapunov("schrodinger", outward, E12, Region(2.0, 20.0, n_samples=300, seed=29), HeisDims(1))
    assert rep.verdict == "fail"
    assert rep.worst_violation == rep.components["max_drift_sign"] > 0.0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("cond,kind", ROUTES)
def test_every_failing_report_has_a_nonnegative_worst_violation(cond, kind, d):
    dims = HeisDims(d)
    field = (lambda x: x) if kind == "euclidean" else hgroup.eta
    variants = {
        "inward": _data(kind, dims),
        "outward": _data(kind, dims, drift=lambda x: 3.0 * field(x)),
        "no cost": _data(kind, dims, cost=lambda x: np.zeros(x.shape[:-1])),
    }
    seen = set()
    for region in (REGION, Region(0.3, 2.0, n_samples=400, seed=7, char_eps=0.1)):
        for name, data in variants.items():
            rep = _check(cond, data, dims, region)
            seen.add(rep.verdict)
            if rep.verdict == "fail":
                assert rep.worst_violation >= 0.0, name
    assert "fail" in seen


def _inf(x):
    return np.full(x.shape[:-1], np.inf)


@pytest.mark.parametrize("cond,kind", ROUTES)
def test_non_finite_coefficients_are_refused(cond, kind):
    # A NaN drift (bbar) and an infinite cost (cbar), and for a barrier an
    # infinite gbar; each fails loudly instead of as a NaN or inf verdict.
    dims = HeisDims(1)
    width = 3 if kind == "euclidean" else 2
    nan_drift = _data(kind, dims, drift=lambda x: np.full(x.shape[:-1] + (width,), np.nan))
    inf_cost = _data(kind, dims, cost=_inf)
    if kind == "barrier":
        ok = _data(kind, dims)
        bad = {"bbar": nan_drift, "cbar": inf_cost, "gbar": BarrierBundle(ok.bbar, _inf, ok.cbar)}
    else:
        bad = {"drift": nan_drift, "cost": inf_cost}
    for name, data in bad.items():
        with pytest.raises(ValueError, match=f"{name} values must be finite"):
            _check(cond, data, dims)
