"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line with the measured quantity
before asserting, so a plain run gives a readable scorecard:

    pytest tests/test_acceptance.py -v -s

Tolerances are pinned here on purpose; loosening them is a behavior
change, not a test fix.
"""

import itertools
import json
import math

import numpy as np
import pytest

import _oracles
from heispde import hgroup
from heispde.checker import (
    OperatorSpec,
    Region,
    check_inequality,
    check_lyapunov,
    lyapunov_fixture,
    sample_region,
)
from heispde.cli import FIXTURES, run_fixture
from heispde.gallery import ProfileRegimeError, field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, evaluate, pnorm_operator

E12 = Ellipticity(1.0, 2.0)
E15 = Ellipticity(1.0, 1.5)
D1, D2 = HeisDims(1), HeisDims(2)


def F(name, mat, **params):
    """The table operator name on mat, through evaluate; ell defaults to E12."""
    return evaluate(name, mat, {"ell": E12, **params})[0]


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _field(name, e=None, dims=D2, **kw):
    return field_from_profile(make_profile(name, e, dims, **kw), dims)


def test_acceptance_01_minimal_pucci_log_identity():
    field = _field("log_rho")
    region = Region(0.5, 4.0, n_samples=11000, seed=0, char_eps=0.05)
    rep = check_inequality(
        field, OperatorSpec("pucci_min", "subsolution", ell=E12), region,
        mode="formula",
    )
    dev = rep.formula_comparison["max_rel_deviation"]
    ok = rep.verdict == "pass" and rep.n_evaluated >= 10000 and dev <= 1e-9
    _verdict(1, "minimal-pucci-log-identity", ok,
             f"n={rep.n_evaluated}, max_rel={dev:.3e}, tol=1e-9")


def test_acceptance_02_normalized_family_log_identity():
    field = _field("log_rho")
    region = Region(0.5, 4.0, n_samples=11000, seed=0, char_eps=0.05)
    devs = []
    for alpha in (1.0 / (4 * D2.d), 1.0 / D2.m):
        rep = check_inequality(
            field, OperatorSpec("pucci_minus_alpha", "subsolution", alpha=alpha),
            region, mode="formula",
        )
        devs.append(rep.formula_comparison["max_rel_deviation"])
        if rep.verdict != "pass":
            devs.append(np.inf)
    ok = max(devs) <= 1e-9
    _verdict(2, "normalized-family-log-identity", ok,
             f"max_rel={max(devs):.3e} over alpha grid, tol=1e-9")


def test_acceptance_03_bounded_subsolution_with_kink():
    field = _field("u4", E15, D1)
    region = Region(0.05, 5.0, n_samples=4096, seed=3)
    spec = OperatorSpec("pucci_max", "subsolution", ell=E15)
    rep = check_inequality(field, spec, region, keep_samples=True)
    outer = np.abs(rep.samples["total"][rep.samples["radius"] > 1.0]).max()
    ok = (rep.verdict == "pass" and rep.worst_violation <= 1e-9
          and outer <= 1e-8)
    _verdict(3, "bounded-subsolution-with-kink", ok,
             f"worst={rep.worst_violation:.3e} tol=1e-9, outer={outer:.3e} tol=1e-8")


def test_acceptance_04_bounded_supersolution_with_kink():
    field = _field("u5", E12, D1)
    region = Region(0.05, 5.0, n_samples=4096, seed=3)
    spec = OperatorSpec("pucci_max", "supersolution", ell=E12)
    rep = check_inequality(field, spec, region, keep_samples=True)
    outer = np.abs(rep.samples["total"][rep.samples["radius"] > 1.0]).max()
    ok = (rep.verdict == "pass" and rep.worst_violation <= 1e-9
          and outer <= 1e-8)
    _verdict(4, "bounded-supersolution-with-kink", ok,
             f"worst={rep.worst_violation:.3e} tol=1e-9, outer={outer:.3e} tol=1e-8")


def test_acceptance_05_trace_counterexample_both_dims():
    worsts, outers = [], []
    for d in (1, 2):
        dims = HeisDims(d)
        field = _field("u_tilde", None, dims)
        region = Region(0.25, 4.0, n_samples=4096, seed=5, char_eps=0.05)
        rep = check_inequality(
            field, OperatorSpec("neg_trace", "supersolution"), region,
            keep_samples=True,
        )
        worsts.append(np.inf if rep.verdict != "pass" else rep.worst_violation)
        outers.append(np.abs(rep.samples["total"][rep.samples["radius"] > 1.0]).max())
    ok = max(worsts) <= 1e-10 and max(outers) <= 1e-9
    _verdict(5, "trace-counterexample-both-dims", ok,
             f"worst={max(worsts):.3e} tol=1e-10, outer={max(outers):.3e} tol=1e-9")


def test_acceptance_06_euclidean_bump_regimes():
    region = Region(0.05, 5.0, n_samples=4096, seed=6)
    u2 = _field("u2", E12, HeisDims(3))
    r_a = check_inequality(
        u2, OperatorSpec("pucci_max", "supersolution", ell=E12), region)
    u3 = _field("u3", E12, HeisDims(4))
    r_b = check_inequality(
        u3, OperatorSpec("pucci_max", "subsolution", ell=E12), region)
    raised = 0
    for e, d in ((E12, 3), (Ellipticity(1.0, 3.0), 3)):
        with pytest.raises(ProfileRegimeError):
            make_profile("u3", e, HeisDims(d))
        raised += 1
    ok = (r_a.verdict == "pass" and r_a.worst_violation <= 1e-9
          and r_b.verdict == "pass" and r_b.worst_violation <= 1e-9
          and raised == 2)
    _verdict(6, "euclidean-bump-regimes", ok,
             f"worst={max(r_a.worst_violation, r_b.worst_violation):.3e} tol=1e-9,"
             f" degenerate-exponent raises={raised}/2")


def test_acceptance_07_extremal_operators_vs_bruteforce():
    rng = np.random.default_rng(0)
    worst = 0.0
    dominated = 0
    n_random = 12
    for i in range(1000):
        m = 2 + i % 5
        mat = _oracles.random_symmetric(m, rng)
        sup, inf, randoms = _oracles.pucci_bruteforce(
            E12.lam, E12.Lam, mat, n_random=n_random, rng=rng)
        hi = float(F("pucci_max", mat))
        lo = float(F("pucci_min", mat))
        worst = max(worst, abs(hi - sup), abs(lo - inf))
        dominated += int(np.all(randoms <= hi + 1e-10)
                         and np.all(randoms >= lo - 1e-10)) * n_random
    ok = worst <= 1e-10 and dominated >= 10000
    _verdict(7, "extremal-operators-vs-bruteforce", ok,
             f"max|dev|={worst:.3e} tol=1e-10, dominated={dominated}>=10000")


def test_acceptance_08_operator_structure_laws():
    rng = np.random.default_rng(1)
    tol = 1e-11
    bad = {}

    def law(name, violation):
        bad[name] = max(bad.get(name, 0.0), float(violation))

    for i in range(1000):
        m = 2 + i % 5
        a = _oracles.random_symmetric(m, rng)
        b = _oracles.random_symmetric(m, rng)
        psd = _oracles.random_symmetric(m, rng)
        psd = psd @ psd.T
        c = float(rng.uniform(0.1, 3.0))
        law("duality", abs(F("pucci_max", -a) + F("pucci_min", a)))
        law("monotone", F("pucci_max", a + psd) - F("pucci_max", a))
        law("subadditive", F("pucci_max", a + b)
            - (F("pucci_max", a) + F("pucci_max", b)))
        law("homogeneous", abs(F("pucci_max", c * a) - c * F("pucci_max", a)))
        law("collapse", abs(F("pucci_max", a, ell=Ellipticity(1.5, 1.5))
                            - float(F("neg_trace", 1.5 * a))))
        alpha = float(rng.uniform(0.05, 1.0 / m))
        sandwich = Ellipticity(alpha, 1.0 - (m - 1) * alpha)
        p_lo, p_hi = F("pucci_minus_alpha", a, alpha=alpha), F("pucci_plus_alpha", a, alpha=alpha)
        law("alpha-sandwich", max(
            F("pucci_min", a, ell=sandwich) - p_lo,
            p_lo - p_hi,
            p_hi - F("pucci_max", a, ell=sandwich)))
        q = rng.standard_normal(m)
        law("pnorm-trace", abs(pnorm_operator(2.0, q, a) - F("neg_trace", a)))
    ok = all(v <= tol for v in bad.values()) and len(bad) == 7
    detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(bad.items()))
    _verdict(8, "operator-structure-laws", ok, f"{detail}, tol=1e-11")


def test_acceptance_09_growth_condition_grid():
    rows = []
    for d, (lam, Lam) in itertools.product((1, 2), ((1.0, 2.0), (1.0, 1.5))):
        dims = HeisDims(d)
        e = Ellipticity(lam, Lam)
        thr = Lam * (dims.Q - 1) - lam
        c1 = Lam * (2 * d + 1) - lam

        cond, data, _ = lyapunov_fixture("zero-coeffs", dims)
        rows.append(("zero", "fail", check_lyapunov(
            cond, data, e, Region(1.0, 8.0, n_samples=512, seed=11), dims).verdict))

        cond, data, _ = lyapunov_fixture("schro", dims)
        rows.append(("schro", "pass", check_lyapunov(
            cond, data, e, Region(10.0, 80.0, n_samples=512, seed=13), dims).verdict))

        cond, data, _ = lyapunov_fixture("hou", dims, gamma0=1.0)
        rm = thr ** 0.25
        rows.append(("hou+", "pass", check_lyapunov(
            cond, data, e, Region(rm * 1.1, rm * 4, n_samples=512, seed=17),
            dims).verdict))
        rows.append(("hou-", "fail", check_lyapunov(
            cond, data, e, Region(rm * 0.8, rm * 4, n_samples=512, seed=17),
            dims).verdict))

        cond, data, extra = lyapunov_fixture("ou", dims)
        lo = np.sqrt(c1)
        rows.append(("ou+", "pass", check_lyapunov(
            cond, data, e, Region(lo * 1.05 + 0.1, lo * 4, n_samples=512, seed=19),
            dims, gammas=extra["gammas"]).verdict))
        rows.append(("ou-", "fail", check_lyapunov(
            cond, data, e, Region(lo * 0.8, lo * 4, n_samples=512, seed=19),
            dims, gammas=extra["gammas"]).verdict))
    wrong = [(n, want, got) for n, want, got in rows if want != got]
    ok = not wrong
    _verdict(9, "growth-condition-grid", ok,
             f"{len(rows) - len(wrong)}/{len(rows)} verdicts as expected"
             + (f", wrong: {wrong}" if wrong else ""))


def test_acceptance_10_fd_consistency_order():
    field = _field("folland", dims=D1)
    region = Region(0.8, 2.0, n_samples=64, seed=2)
    batch = sample_region(region, space=field.space, dim=field.dim, singular_radii=field.singular_radii)
    pts = batch.place(np.flatnonzero(batch.admissible)[:48])
    assert pts.shape[0] == 48
    # The horizontal Hessians of the gallery's exact jets.
    refs = hgroup.h_hessian(None, field.hessian(pts), pts)
    hs = [1e-2 / 2.0**level for level in range(4)]
    errs = []
    for h in hs:
        fd = [_oracles.fd_h_hessian_one(field.value, p, h, singular_radii=field.singular_radii)[0] for p in pts]
        errs.append(float(np.abs(np.stack(fd) - refs).max()))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    c_estimate = float(np.median([e / h**2 for e, h in zip(errs, hs)]))
    bound_ok = all(e <= 10.0 * c_estimate * h**2 for e, h in zip(errs, hs))
    ok = min(orders) >= 1.9 and bound_ok
    _verdict(10, "fd-consistency-order", ok,
             f"orders={['%.3f' % o for o in orders]} min_req=1.9, "
             f"C={c_estimate:.3g}, error bound {'held' if bound_ok else 'broken'}")


def test_acceptance_11_cli_fixture_determinism(tmp_path):
    mismatches = []
    for name, entry in FIXTURES.items():
        reports = []
        for rep_i in (0, 1):
            out = tmp_path / f"{name}-{rep_i}.json"
            rc = run_fixture(name, out=str(out))
            if rc != entry["expected_exit"]:
                mismatches.append(f"{name}: exit {rc} != {entry['expected_exit']}")
            with open(out) as fh:
                d = json.load(fh)
            d.pop("wall_time", None)
            reports.append(d)
        if reports[0] != reports[1]:
            mismatches.append(f"{name}: reports differ between runs")
    ok = not mismatches
    _verdict(11, "cli-fixture-determinism", ok,
             f"{len(FIXTURES)} fixtures x2 runs"
             + (f", issues: {mismatches}" if mismatches else ""))
