"""The growth-condition route table of check_lyapunov."""

import dataclasses

import numpy as np
import pytest

from heispde import checker, gallery, hgroup, operators
from heispde.checker import BarrierBundle, OperatorSpec, Region, check_inequality, check_lyapunov
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients

from _oracles import sorted_spectrum_rows

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


# Twenty samples with tau > 0.999 is no admissible point at all.
NO_ADMISSIBLE_POINT = Region(1.0, 2.0, n_samples=20, char_eps=0.999)


def test_alpha_and_gammas_are_checked_before_sampling():
    # Checked inside the margin, they were skipped on a region with no
    # admissible point, and the run reported vacuous (exit 3) instead.
    dims = HeisDims(1)
    hou = checker.lyapunov_fixture("hou", dims)[1]
    ou = checker.lyapunov_fixture("ou", dims)[1]
    assert check_lyapunov("condcor1p", hou, E12, NO_ADMISSIBLE_POINT, dims, alpha=0.25).verdict == "vacuous"
    assert check_lyapunov("OUtype", ou, E12, NO_ADMISSIBLE_POINT, dims, gammas=np.ones(3)).verdict == "vacuous"
    with pytest.raises(ValueError, match="pucci_minus_alpha needs alpha"):
        check_lyapunov("condcor1p", hou, E12, NO_ADMISSIBLE_POINT, dims)
    with pytest.raises(ValueError, match="alpha"):
        check_lyapunov("condcor1p", hou, E12, NO_ADMISSIBLE_POINT, dims, alpha=1.0)
    with pytest.raises(ValueError, match="OUtype needs the gamma vector"):
        check_lyapunov("OUtype", ou, E12, NO_ADMISSIBLE_POINT, dims)
    with pytest.raises(ValueError, match="gammas must be 3 positive reals"):
        check_lyapunov("OUtype", ou, E12, NO_ADMISSIBLE_POINT, dims, gammas=[1.0, -1.0, 1.0])


@pytest.mark.parametrize("cond,kind", ROUTES)
def test_alpha_and_gammas_are_checked_on_every_route(cond, kind):
    # The report echoes both, so a bad value must not pass silently where the
    # route does not read it; NaN also passed OUtype's own g <= 0 test.
    dims = HeisDims(1)
    data = _data(kind, dims)
    good = {"alpha": 0.25, "gammas": np.ones(dims.n)}
    for bad in (
        {"alpha": 7.0, "gammas": [np.nan, -1.0]},
        {"alpha": np.nan},
        {"gammas": [np.nan, 1.0, 1.0]},
        {"gammas": [1.0, np.inf, 1.0]},
    ):
        with pytest.raises(ValueError, match="alpha|gammas"):
            check_lyapunov(cond, data, E12, NO_ADMISSIBLE_POINT, dims, **{**good, **bad})


@pytest.mark.parametrize("name", ["zero-coeffs", "schro", "hou"])
def test_only_the_ou_fixture_takes_gammas(name):
    dims = HeisDims(1)
    with pytest.raises(ValueError, match=f"gammas apply to the ou fixture only, not to '{name}'"):
        checker.lyapunov_fixture(name, dims, gammas=np.ones(dims.n))
    assert checker.lyapunov_fixture("ou", dims, gammas=[1.0, 2.0, 3.0])[2]["gammas"].tolist() == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# horizontal growth conditions are the supersolution inequality of log rho

GROWTH_REGION = Region(1.0, 8.0, n_samples=4096, char_eps=0.05)


def _growth_families(dims):
    """(label, HJBCoefficients) of the horizontal fixtures and one random two-control family.

    hou with gamma0 = 20 beats every threshold here, so each condition also
    has a passing family.
    """
    out = [
        ("hou", checker.lyapunov_fixture("hou", dims, gamma0=3.0)[1]),
        ("strong hou", checker.lyapunov_fixture("hou", dims, gamma0=20.0)[1]),
        ("schro", checker.lyapunov_fixture("schro", dims, c0=0.7)[1]),
        ("zero-coeffs", checker.lyapunov_fixture("zero-coeffs", dims)[1]),
    ]
    rng = np.random.default_rng(70 + dims.d)
    a = rng.standard_normal((2, dims.m, dims.n))
    cost = np.abs(rng.standard_normal(2))
    drifts = tuple(lambda x, a=a[k]: x @ a.T for k in range(2))
    costs = tuple(lambda x, c=cost[k]: c * hgroup._hsq(x) for k in range(2))
    return out + [("random", HJBCoefficients(drifts, costs, "horizontal"))]


# condition -> (operator table entry, its parameters at d).
GROWTH_INEQUALITIES = {
    "condcor1": ("pucci_min", lambda d: {}),
    "condcor1p": ("pucci_minus_alpha", lambda d: {"alpha": 1.0 / (4 * d)}),
}


def _log_rho_spectrum(d):
    """The horizontal Hessian spectrum of log rho at rho = tau = 1: (-1, 3, 1, ..., 1), sorted."""
    return sorted_spectrum_rows(((-1.0, 1), (3.0, 1), (1.0, 2 * d - 2)))


def test_every_route_names_the_operator_whose_log_rho_inequality_it_rescales():
    assert {(c, k): route.operator for c, routes in checker.LYAPUNOV_CONDITIONS.items() for k, route in routes.items()} == {
        ("condcor1", "horizontal"): "pucci_min",
        ("condcor1bis", "barrier"): "pucci_min",
        ("condcor1p", "horizontal"): "pucci_minus_alpha",
        ("OUtype", "euclidean"): "pucci_min",
        ("schrodinger", "horizontal"): "pucci_min",
        ("schrodinger", "euclidean"): None,
    }


@pytest.mark.parametrize("op", ["pucci_min", "pucci_minus_alpha"])
def test_the_thresholds_are_the_table_operators_on_log_rho(op):
    # check_lyapunov reads lam - Lam (Q - 1) and 4 d alpha - 3 from these closed forms.
    rng = np.random.default_rng(22)
    for d in range(1, 17):
        dims = HeisDims(d)
        for _ in range(50):
            lam = rng.uniform(0.1, 3.0)
            e = Ellipticity(lam, lam * rng.uniform(1.0, 4.0))
            spec = OperatorSpec(op, ell=e, alpha=(1.0 - rng.random()) / dims.m)
            closed = gallery.PROFILES["log_rho"].closed_forms[op](1.0, 1.0, dims, spec.params)[0]
            table = operators.OPERATORS[op].value(operators._columns(_log_rho_spectrum(d)[None]), None, spec.params)[0]
            assert abs(closed - table) <= 4 * np.finfo(float).eps * max(1.0, abs(table)), (d, e, spec.alpha)


def _log_rho_inequality(cond, family, dims, keep_samples=False):
    op, params = GROWTH_INEQUALITIES[cond]
    log_rho = field_from_profile(make_profile("log_rho", dims=dims), dims)
    spec = OperatorSpec(op, "supersolution", ell=E12, first_order=family, **params(dims.d))
    return check_inequality(log_rho, spec, GROWTH_REGION, keep_samples=keep_samples)


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("cond", sorted(GROWTH_INEQUALITIES))
def test_the_drift_margin_is_the_log_rho_inequality_scaled(cond, d):
    # The Hessian of log rho has eigenvalues (-1, 3, 1, ..., 1) tau^2 / rho^2,
    # so the operator is the threshold times tau^2 / rho^2.
    # r is the table operator on that spectrum, not the closed form the checker reads.
    dims = HeisDims(d)
    op, params = GROWTH_INEQUALITIES[cond]
    r = float(operators.OPERATORS[op].value(operators._columns(_log_rho_spectrum(d)[None]), None, {"ell": E12, **params(d)})[0])
    for label, family in _growth_families(dims):
        kept = _log_rho_inequality(cond, family, dims, keep_samples=True).samples
        margin = checker._drift_margin(kept["points"], kept["radius"], family, r, None)[0][0]
        scaled = margin * kept["tau"] ** 2 / kept["radius"] ** 2
        scale = np.abs(kept["second"]) + np.abs(kept["first"])
        assert np.all(np.abs(scaled - kept["total"]) <= 1e-13 * scale), label


@pytest.mark.parametrize("d", [1, 2, 4])
def test_growth_verdicts_are_the_log_rho_inequality_verdicts(d):
    dims = HeisDims(d)
    verdicts = set()
    for cond, (_, params) in GROWTH_INEQUALITIES.items():
        for label, family in _growth_families(dims):
            got = check_lyapunov(cond, family, E12, GROWTH_REGION, dims, alpha=params(d).get("alpha")).verdict
            assert got == _log_rho_inequality(cond, family, dims).verdict, (cond, label)
            verdicts.add(got)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("d", [1, 2, 4])
def test_horizontal_schrodinger_passes_exactly_where_every_total_is_positive(d):
    dims = HeisDims(d)
    verdicts = set()
    for label, family in _growth_families(dims):
        total = _log_rho_inequality("condcor1", family, dims, keep_samples=True).samples["total"]
        got = check_lyapunov("schrodinger", family, E12, GROWTH_REGION, dims).verdict
        assert got == ("pass" if np.all(total > 0.0) else "fail"), label
        verdicts.add(got)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("d", [1, 2, 4])
def test_the_hou_drift_and_eta_from_a_given_xh_square_keep_their_bits(d):
    # The margins pass |x_H|^2 to hgroup._eta instead of recomputing it, and
    # the hou drift scales eta in place: -gamma0 * eta(x) to the bit.
    rng = np.random.default_rng(d)
    x = np.asfortranarray(rng.standard_normal((257, 2 * d + 1)) * 10.0 ** rng.integers(-3, 4, (257, 1)))
    eta = hgroup.eta(x)
    assert np.array_equal(hgroup._eta(x, hgroup._hsq(x)), eta)
    drift = checker.lyapunov_fixture("hou", HeisDims(d), gamma0=0.7)[1].drifts[0]
    assert drift(x).tobytes() == (-0.7 * eta).tobytes()


# ---------------------------------------------------------------------------
# the chart path of the eta fixtures against the placed path

EPS = np.finfo(float).eps
CHART_FIXTURES = ["zero-coeffs", "schro", "hou"]
CHART_CONDITIONS = ["condcor1", "condcor1p", "schrodinger"]


def _placed_twin(family):
    """The same callables in a plain HJBCoefficients, which takes the placed path."""
    return HJBCoefficients(family.drifts, family.costs, family.gradient_space, family.label)


def _threshold(cond, d):
    """The route's r: its table operator on log rho at rho = tau = 1 (schrodinger reads pucci_min, as condcor1)."""
    op, params = GROWTH_INEQUALITIES["condcor1p" if cond == "condcor1p" else "condcor1"]
    spec = OperatorSpec(op, ell=E12, **params(d))
    return float(gallery.PROFILES["log_rho"].closed_forms[op](1.0, 1.0, HeisDims(d), spec.params)[0])


def _chart_and_placed(name, cond, d, seed):
    dims = HeisDims(d)
    family = checker.lyapunov_fixture(name, dims)[1]
    # rho < 1 and rho > 1, so schro's cost term takes both signs.
    region = Region(0.5, 8.0, n_samples=3000, seed=seed, char_eps=0.05)
    alpha = 1.0 / (4 * d) if cond == "condcor1p" else None
    return [check_lyapunov(cond, data, E12, region, dims, alpha=alpha) for data in (family, _placed_twin(family))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("cond", CHART_CONDITIONS)
@pytest.mark.parametrize("name", CHART_FIXTURES)
def test_the_chart_path_reports_what_the_placed_path_does(name, cond, d, seed):
    chart, placed = _chart_and_placed(name, cond, d, seed)
    assert (chart.verdict, chart.n_evaluated, chart.n_excluded, chart.excluded_by) == (
        placed.verdict, placed.n_evaluated, placed.n_excluded, placed.excluded_by
    )
    assert placed.paths == {"chart": 0, "placed": placed.n_evaluated, "guard": None}
    assert chart.paths["chart"] == chart.n_evaluated and chart.paths["placed"] == 0
    check = chart.paths["guard"]
    assert check["n"] == 256 and check["n_overflow"] == 0
    # The first-order bound on the guard's differences, half its budget.
    assert check["max_rel"] <= (2 * d + 12) * EPS

    # The guard's budget (2m + 24) eps M, where M = |lhs| + |r| <= |margin| + 2 |r| for one-term families.
    r = abs(_threshold(cond, d))

    def close(a, b):
        return a is b is None or abs(a - b) <= (4 * d + 24) * EPS * (abs(a) + 2 * r)

    assert close(chart.worst_violation, placed.worst_violation)
    assert close(chart.components["min_margin"], placed.components["min_margin"])
    assert [(e["R"], e["n"]) for e in chart.scan] == [(e["R"], e["n"]) for e in placed.scan]
    for a, b in zip(chart.scan, placed.scan):
        assert close(a["min_margin"], b["min_margin"])
    # The same witness row and point, or a row tied with it to rounding.
    cw, pw = chart.witness, placed.witness
    assert close(cw["margin"], pw["margin"])
    if cw["radius"] == pw["radius"]:
        assert (cw["tau"], cw["point"]) == (pw["tau"], pw["point"])


@pytest.mark.parametrize("name,field", [("hou", "coeffs"), ("schro", "levels")])
def test_a_family_whose_recorded_coefficients_are_off_raises(name, field):
    # The chunks read the recorded (beta_k, c_k), the guard the callables;
    # these are off by 10 times the guard's relative budget (2m + 24) eps.
    dims = HeisDims(1)
    cond, family, _ = checker.lyapunov_fixture(name, dims)
    off = dataclasses.replace(family, **{field: tuple(v * (1.0 + 10 * (2 * dims.m + 24) * EPS) for v in getattr(family, field))})
    region = Region(2.0, 16.0, n_samples=2000, seed=3, char_eps=0.05)
    assert check_lyapunov(cond, family, E12, region, dims).paths["guard"]["n"] == 256
    with pytest.raises(ValueError, match="chart and placed margins disagree at point"):
        check_lyapunov(cond, off, E12, region, dims)


def test_a_nan_chart_margin_is_a_disagreement():
    dims = HeisDims(1)
    family = checker.lyapunov_fixture("hou", dims)[1]
    batch = checker.sample_region(Region(2.0, 16.0, n_samples=64, seed=3, char_eps=0.05), space="heisenberg", dim=dims.n)
    rows = np.flatnonzero(batch.admissible)[:8]
    pts = batch.place(rows)
    with pytest.raises(ValueError, match="chart and placed margins disagree at point"):
        checker._placed_check(batch, checker.LYAPUNOV_CONDITIONS["condcor1"]["horizontal"], dataclasses.replace(family, coeffs=(np.nan,)),
                              0.0, None, rows, pts, *checker._radius_tau(pts, "heisenberg"))


def test_the_guard_counts_overflowing_placed_margins_and_compares_the_rest():
    # |eta|^2 = tau^2 rho^6 overflows beyond about rho = 1e51.4 at tau = 1.
    dims = HeisDims(1)
    cond, family, _ = checker.lyapunov_fixture("hou", dims)
    rep = check_lyapunov(cond, family, E12, Region(1e45, 1e55, n_samples=4096, seed=2, char_eps=0.05), dims)
    check = rep.paths["guard"]
    assert rep.verdict == "pass" and 0 < check["n_overflow"] < check["n"] == 256
    assert 0.0 < check["max_rel"] <= 14 * EPS


# ---------------------------------------------------------------------------
# the chart path of the ou fixture against the placed path

OU_REGION = Region(2.5, 20.0, n_samples=3000, char_eps=0.05)


def _ou_runs(family, gammas, region, d):
    dims = HeisDims(d)
    return [check_lyapunov("OUtype", data, E12, region, dims, gammas=gammas) for data in (family, _placed_twin(family))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_the_ou_chart_path_reports_what_the_placed_path_does(d, seed):
    _, family, extra = checker.lyapunov_fixture("ou", HeisDims(d))
    chart, placed = _ou_runs(family, extra["gammas"], dataclasses.replace(OU_REGION, seed=seed), d)
    assert (chart.verdict, chart.n_evaluated, chart.n_excluded, chart.excluded_by) == (
        placed.verdict, placed.n_evaluated, placed.n_excluded, placed.excluded_by
    )
    # d = 1 passes; d = 2 and 4 fail on their proof margin (about -0.397 and -1.71).
    assert chart.verdict == ("pass" if d == 1 else "fail")
    assert placed.paths == {"chart": 0, "placed": placed.n_evaluated, "guard": None}
    assert chart.paths["chart"] == chart.n_evaluated and chart.paths["placed"] == 0
    check = chart.paths["guard"]
    assert check["n"] == 256 and check["n_overflow"] == 0
    # README's first-order bound on the guard's differences, (m + 17) eps M.
    assert check["max_rel"] <= (2 * d + 17) * EPS

    # The guard's budget (2m + 24) eps M, where M <= |proof| + 2 |r| + 2 max(gamma) for a margin read off a proof.
    r = abs(_threshold("condcor1", d))

    def close(a, b):
        return a is b is None or abs(a - b) <= (4 * d + 24) * EPS * (abs(a) + 2 * r + 2.0)

    # The drift is -gamma x itself, so the scaled drift margin is 0 on both paths.
    assert chart.components["min_scaled_drift_margin"] == placed.components["min_scaled_drift_margin"] == 0.0
    assert close(chart.components["min_proof_margin"], placed.components["min_proof_margin"])
    assert close(chart.worst_violation, placed.worst_violation)
    assert [(e["R"], e["n"]) for e in chart.scan] == [(e["R"], e["n"]) for e in placed.scan]
    for a, b in zip(chart.scan, placed.scan):
        assert close(a["min_margin"], b["min_margin"])


@pytest.mark.parametrize("field", ["coeffs", "levels"])
def test_an_ou_family_whose_declared_coefficients_are_off_raises(field):
    # The chunks read the declared rates and costs, the guard the callables; a
    # cost is compared even where the scaled drift margin, 0, is the smaller part.
    dims = HeisDims(1)
    g = np.array([1.5, 1.5, 0.7])
    family = checker._chart_family("euclidean", (g, 2.0 * g), (0.3, 0.1), "two controls")
    off = 1.0 + 100 * (2 * dims.m + 24) * EPS
    bad = dataclasses.replace(family, **{field: tuple(
        tuple(v * off for v in k) if field == "coeffs" else k * off for k in getattr(family, field))})
    chart, placed = _ou_runs(family, g, OU_REGION, 1)
    assert chart.paths["guard"]["n"] == 256 and chart.verdict == placed.verdict
    with pytest.raises(ValueError, match="chart and placed margins disagree at point"):
        check_lyapunov("OUtype", bad, E12, OU_REGION, dims, gammas=g)


@pytest.mark.parametrize("where", ["condition", "family"])
def test_unequal_horizontal_rates_keep_the_placed_path(where):
    dims = HeisDims(1)
    unequal = np.array([1.0, 2.0, 1.0])
    family = checker.lyapunov_fixture("ou", dims, gammas=unequal if where == "family" else None)[1]
    gammas = unequal if where == "condition" else np.ones(dims.n)
    rep = check_lyapunov("OUtype", family, E12, OU_REGION, dims, gammas=gammas)
    assert rep.paths == {"chart": 0, "placed": rep.n_evaluated, "guard": None}


@pytest.mark.parametrize("d", [1, 2, 4])
def test_ou_passes_where_rho_to_the_fourth_overflows(d):
    # rho^4 overflows above 1.2e77 and rho^3 above 5.6e102: the chart's scaled
    # drift margin rho^3 (rho (min_k G_k - G)) stays 0, as the placed one does.
    _, family, extra = checker.lyapunov_fixture("ou", HeisDims(d))
    chart, placed = _ou_runs(family, extra["gammas"], Region(1e80, 1e100, n_samples=2000, seed=3), d)
    assert chart.verdict == placed.verdict == "pass"
    assert chart.paths["guard"]["n"] == 256 and chart.paths["guard"]["n_overflow"] == 0


@pytest.mark.parametrize("name,gamma0,lo,hi", [("hou", -1.0, 1e60, 1e76), ("ou", 1.0, 1e-150, 1e-140)])
def test_the_chart_path_stops_where_its_placed_margin_is_undecided(name, gamma0, lo, hi):
    # Outward hou: b . eta = |eta|^2 overflows, so the placed margin is -inf
    # beside an infinite magnitude; ou: rho^4 underflows and s / rho^4 is inf.
    # The placed run stops there by the pass rule, and the chart run's guard does too.
    dims = HeisDims(1)
    cond, family, extra = checker.lyapunov_fixture(name, dims, gamma0=gamma0)
    region = Region(lo, hi, n_samples=2000, seed=3, char_eps=0.05)
    for data in (family, _placed_twin(family)):
        with pytest.raises(ValueError, match="^the lyapunov check got NaN at rho = "):
            check_lyapunov(cond, data, E12, region, dims, **extra)
