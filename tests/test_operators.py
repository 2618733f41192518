import json
import tracemalloc
import warnings

import numpy as np
import pytest

from heispde import cli, hgroup, operators
from heispde.checker import OperatorSpec, Region, TabulatedField, check_inequality, check_tabulated
from heispde.cli import main
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients, PucciAlpha

import _oracles


E12 = Ellipticity(1.0, 2.0)


def F(name, mat, q=None, **params):
    """The table operator name on mat, through operators.evaluate; ell defaults to E12."""
    return operators.evaluate(name, mat, {"ell": E12, **params}, q)[0]


def test_ellipticity_validation():
    with pytest.raises(ValueError):
        Ellipticity(0.0, 1.0)
    with pytest.raises(ValueError):
        Ellipticity(2.0, 1.0)
    with pytest.raises(ValueError):
        Ellipticity(1.0, np.inf)


def test_pucci_alpha_validation():
    PucciAlpha(0.25, 4)
    with pytest.raises(ValueError):
        PucciAlpha(0.0, 4)
    with pytest.raises(ValueError):
        PucciAlpha(0.26, 4)


def test_pucci_on_indefinite_diagonal():
    m = np.diag([1.0, -1.0])
    assert F("pucci_max", m) == 1.0
    assert F("pucci_min", m) == -1.0


def test_pucci_on_identity():
    for size in (2, 3, 5):
        eye = np.eye(size)
        assert F("pucci_max", eye) == -E12.lam * size
        assert F("pucci_min", eye) == -E12.Lam * size
        assert F("pucci_max", -eye) == E12.Lam * size
        assert F("pucci_min", -eye) == E12.lam * size


def test_pucci_alpha_on_identity_and_rank_one():
    pa = PucciAlpha(0.5, 2)
    assert F("pucci_plus_alpha", np.eye(2), alpha=pa.alpha) == -1.0
    assert F("pucci_minus_alpha", np.eye(2), alpha=pa.alpha) == -1.0
    assert F("pucci_plus_alpha", np.diag([1.0, 0.0]), alpha=pa.alpha) == -0.5
    # independent of alpha on the identity
    pa2 = PucciAlpha(0.125, 4)
    assert F("pucci_plus_alpha", np.eye(4), alpha=pa2.alpha) == -1.0


def test_zero_tol_gates_tiny_eigenvalues():
    # The dead zone is the constant ZERO_TOL = 1e-12, relative to ||M||_F.
    assert operators.ZERO_TOL == 1e-12
    assert F("pucci_max", np.diag([1.0, 1e-13])) == -1.0
    assert F("pucci_max", np.diag([1.0, 1e-11])) == -(1.0 + 1e-11)


def test_eigenvalues_match_charpoly_oracle():
    rng = np.random.default_rng(12)
    for m in range(2, 7):
        for _ in range(40):
            a = _oracles.random_symmetric(m, rng)
            got = operators.sym_eigenvalues(a)
            want = _oracles.charpoly_eigenvalues(a)
            scale = max(1.0, float(np.abs(a).max()))
            assert np.allclose(got, want, atol=1e-8 * scale)


def test_pucci_match_bruteforce_and_dominate_feasible():
    rng = np.random.default_rng(13)
    for m in (2, 3, 4):
        for _ in range(25):
            a = _oracles.random_symmetric(m, rng)
            hi, lo, randoms = _oracles.pucci_bruteforce(1.0, 2.0, a, n_random=50, rng=rng)
            got_hi = float(F("pucci_max", a))
            got_lo = float(F("pucci_min", a))
            assert abs(got_hi - hi) <= 1e-10 * max(1.0, abs(hi))
            assert abs(got_lo - lo) <= 1e-10 * max(1.0, abs(lo))
            assert np.all(randoms <= got_hi + 1e-10)
            assert np.all(randoms >= got_lo - 1e-10)


def test_pucci_alpha_match_bruteforce():
    rng = np.random.default_rng(14)
    for m in (2, 4):
        pa = PucciAlpha(1.0 / (m + 1), m)
        for _ in range(25):
            a = _oracles.random_symmetric(m, rng)
            hi, lo, randoms = _oracles.palpha_bruteforce(pa.alpha, a, n_random=50, rng=rng)
            got_hi = float(F("pucci_plus_alpha", a, alpha=pa.alpha))
            got_lo = float(F("pucci_minus_alpha", a, alpha=pa.alpha))
            assert abs(got_hi - hi) <= 1e-10 * max(1.0, abs(hi))
            assert abs(got_lo - lo) <= 1e-10 * max(1.0, abs(lo))
            assert np.all(randoms <= got_hi + 1e-10)
            assert np.all(randoms >= got_lo - 1e-10)


def test_duality_under_negation():
    rng = np.random.default_rng(15)
    mats = np.stack([_oracles.random_symmetric(4, rng) for _ in range(200)])
    plus = F("pucci_max", mats)
    minus_of_neg = F("pucci_min", -mats)
    assert np.abs(plus + minus_of_neg).max() <= 1e-12 * max(1.0, np.abs(plus).max())
    pa = PucciAlpha(0.2, 4)
    p_plus = F("pucci_plus_alpha", mats, alpha=pa.alpha)
    p_minus = F("pucci_minus_alpha", -mats, alpha=pa.alpha)
    assert np.abs(p_plus + p_minus).max() <= 1e-12 * max(1.0, np.abs(p_plus).max())


def test_degenerate_ellipticity_monotonicity():
    # adding a positive semidefinite increment can only decrease the values
    rng = np.random.default_rng(16)
    for _ in range(100):
        a = _oracles.random_symmetric(3, rng)
        b = rng.standard_normal((3, 3))
        psd = b @ b.T
        assert F("pucci_max", a + psd) <= F("pucci_max", a) + 1e-12
        assert F("pucci_min", a + psd) <= F("pucci_min", a) + 1e-12


def test_subadditivity_and_homogeneity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = _oracles.random_symmetric(3, rng)
        b = _oracles.random_symmetric(3, rng)
        fa, fb = F("pucci_max", a), F("pucci_max", b)
        assert F("pucci_max", a + b) <= fa + fb + 1e-11
        ga, gb = F("pucci_min", a), F("pucci_min", b)
        assert F("pucci_min", a + b) >= ga + gb - 1e-11
        c = 1.0 + rng.random() * 5.0
        assert np.isclose(F("pucci_max", c * a), c * fa, rtol=1e-12)


def test_collapse_at_equal_constants():
    e = Ellipticity(1.5, 1.5)
    rng = np.random.default_rng(18)
    a = _oracles.random_symmetric(5, rng)
    want = -1.5 * np.trace(a)
    assert np.isclose(F("pucci_max", a, ell=e), want, rtol=1e-13)
    assert np.isclose(F("pucci_min", a, ell=e), want, rtol=1e-13)


def test_alpha_family_sandwiched_by_matched_pucci():
    # A = alpha I + (1 - m alpha) qq^T has spectrum {alpha, 1 - (m-1) alpha},
    # so its envelope sits inside the Pucci family with those constants
    rng = np.random.default_rng(19)
    m = 4
    alpha = 0.15
    pa = PucciAlpha(alpha, m)
    e = Ellipticity(alpha, 1.0 - (m - 1) * alpha)
    for _ in range(100):
        a = _oracles.random_symmetric(m, rng)
        lo = F("pucci_min", a, ell=e)
        hi = F("pucci_max", a, ell=e)
        p_lo = F("pucci_minus_alpha", a, alpha=pa.alpha)
        p_hi = F("pucci_plus_alpha", a, alpha=pa.alpha)
        assert lo - 1e-12 <= p_lo <= p_hi <= hi + 1e-12


def test_pnorm_reduces_to_trace_at_p_two():
    rng = np.random.default_rng(20)
    a = _oracles.random_symmetric(3, rng)
    q = rng.standard_normal(3)
    assert np.isclose(
        operators.pnorm_operator(2.0, q, a), F("neg_trace", a), rtol=1e-14
    )


def test_pnorm_aligned_gradient():
    a = np.diag([3.0, 5.0])
    q = np.array([1.0, 0.0])
    p = 4.0
    # I + (p-2) qq^T = diag(p-1, 1)
    assert operators.pnorm_operator(p, q, a) == -((p - 1.0) * 3.0 + 5.0)


def test_pnorm_rejects_bad_input():
    a = np.eye(2)
    with pytest.raises(ValueError):
        operators.pnorm_operator(1.0, [1.0, 0.0], a)
    with pytest.raises(ValueError):
        operators.pnorm_operator(3.0, [0.0, 0.0], a)
    with pytest.raises(ValueError):
        operators.pnorm_operator(3.0, [1.0, 0.0, 0.0], a)


def test_operators_reject_asymmetric_matrices():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        F("pucci_max", bad)
    with pytest.raises(ValueError):
        F("neg_trace", bad)


def test_hjb_envelopes_on_axis_family():
    coeffs = HJBCoefficients(
        drifts=(lambda x: np.broadcast_to([1.0, 0.0], x.shape[:-1] + (2,)),
                lambda x: np.broadcast_to([0.0, 1.0], x.shape[:-1] + (2,))),
        costs=(lambda x: np.zeros(x.shape[:-1]),
               lambda x: np.zeros(x.shape[:-1])),
        gradient_space="horizontal",
    )
    x = np.zeros((1, 3))
    p = np.array([[3.0, 4.0]])
    assert operators.hjb_inf(coeffs, x, 0.0, p) == -4.0
    assert operators.hjb_sup(coeffs, x, 0.0, p) == -3.0


def test_hjb_cost_term_scales_with_value():
    coeffs = HJBCoefficients(
        drifts=(lambda x: np.zeros(x.shape[:-1] + (2,)),),
        costs=(lambda x: np.full(x.shape[:-1], 2.0),),
        gradient_space="horizontal",
    )
    x = np.zeros((1, 3))
    p = np.zeros((1, 2))
    assert operators.hjb_inf(coeffs, x, np.array([5.0]), p) == 10.0


def test_hjb_sup_is_exact_negation_dual():
    rng = np.random.default_rng(21)
    coeffs = HJBCoefficients(
        drifts=(lambda x: x[..., :2] ** 2, lambda x: -x[..., :2]),
        costs=(lambda x: np.abs(x[..., 2]), lambda x: x[..., 0] ** 2),
        gradient_space="horizontal",
    )
    x = rng.standard_normal((64, 3))
    r = rng.standard_normal(64)
    p = rng.standard_normal((64, 2))
    a = operators.hjb_sup(coeffs, x, r, p)
    b = -operators.hjb_inf(coeffs, x, -r, -p)
    assert np.array_equal(a, b)


def test_hjb_direction_family_approximates_norm():
    # K unit drifts at equal angles: sup_k b_k . p approaches |p| from below
    # with relative gap at most 1 - cos(pi / K)
    K = 16
    angles = 2.0 * np.pi * np.arange(K) / K
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    coeffs = HJBCoefficients(
        drifts=tuple(
            (lambda x, v=v: np.broadcast_to(v, x.shape[:-1] + (2,))) for v in dirs
        ),
        costs=tuple((lambda x: np.zeros(x.shape[:-1])) for _ in range(K)),
        gradient_space="horizontal",
    )
    rng = np.random.default_rng(22)
    x = np.zeros((128, 3))
    p = rng.standard_normal((128, 2))
    norms = np.sqrt(np.einsum("ij,ij->i", p, p))
    sup = -operators.hjb_inf(coeffs, x, 0.0, p)  # sup_k b_k . p
    gap = 1.0 - np.cos(np.pi / K)
    assert np.all(sup <= norms + 1e-12)
    assert np.all(sup >= norms * (1.0 - gap) - 1e-12)


def test_hjb_rejects_negative_cost_and_empty_family():
    with pytest.raises(ValueError):
        HJBCoefficients(drifts=(), costs=(), gradient_space="horizontal")
    coeffs = HJBCoefficients(
        drifts=(lambda x: np.zeros(x.shape[:-1] + (2,)),),
        costs=(lambda x: np.full(x.shape[:-1], -1.0),),
        gradient_space="horizontal",
    )
    with pytest.raises(ValueError):
        operators.hjb_inf(coeffs, np.zeros((1, 3)), 0.0, np.zeros((1, 2)))


# Parameters for every entry of the operator table.
_ELL = Ellipticity(1.0, 2.5)
_ALPHA = 0.2
_P = 3.5
_OP_EVAL_PARAMS = {"--lam": "1.0", "--Lam": "2.5", "--alpha": str(_ALPHA), "--p": str(_P)}


def _flags(params: dict) -> list:
    return [bit for item in params.items() for bit in item]


def test_public_functions_cover_the_table():
    assert cli.OPTIONS["op-eval"]["op"][1].choices == tuple(operators.OPERATORS)


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("name", list(operators.OPERATORS))
def test_operator_table_paths_agree(name, m, tmp_path, capsys):
    rng = np.random.default_rng(100 * m + len(name))
    k = 7
    mats = rng.standard_normal((k, m, m))
    mats = mats + np.swapaxes(mats, 1, 2)
    q = rng.standard_normal((k, m))
    public = operators.evaluate(name, mats, {"ell": _ELL, "alpha": _ALPHA, "p": _P}, q)[0]

    out = tmp_path / "op.json"
    argv = ["op-eval", "--op", name, "--matrix", json.dumps(mats.tolist()),
            "--q", json.dumps(q.tolist()), "--out", str(out)]
    assert main(argv + _flags(_OP_EVAL_PARAMS)) == 0
    capsys.readouterr()
    with open(out) as fh:
        via_cli = np.array(json.load(fh)["values"])

    # Unit-radius rows of a Euclidean table, all inside the region.
    pts = q / np.sqrt(np.einsum("ij,ij->i", q, q))[:, None]
    table = TabulatedField(pts, np.zeros(k), q, mats, space="euclidean")
    spec = OperatorSpec(name, ell=_ELL, alpha=_ALPHA, p=_P)
    rep = check_tabulated(table, spec, Region(0.5, 2.0), keep_samples=True)
    assert rep.n_evaluated == k

    assert np.array_equal(public, via_cli)
    assert np.array_equal(public, rep.samples["second"])


@pytest.mark.parametrize(
    "name", [n for n, entry in operators.OPERATORS.items() if entry.param is not None]
)
def test_missing_operator_parameter_is_rejected(name, capsys):
    param = operators.OPERATORS[name].param
    with pytest.raises(ValueError, match=f"needs {param}"):
        OperatorSpec(name)
    with pytest.raises(ValueError, match=f"needs {param}"):
        operators.evaluate(name, np.eye(2), {})
    # op-eval defaults lam and Lam, so ell can only be invalid, never missing.
    params = {k: v for k, v in _OP_EVAL_PARAMS.items() if k != "--" + param}
    if param == "ell":
        params["--lam"] = "0"
    argv = ["op-eval", "--op", name, "--matrix", "[[1, 0], [0, 2]]", "--q", "[1, 1]"]
    assert main(argv + _flags(params)) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# operators._eigenvalues: eigvalsh's bits, a 2 x 2 matrix by LAPACK's formulas


def _sym2(a, b, c):
    """The symmetric matrices [[a, b], [b, c]] of equal-shape arrays."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


def _batches_2x2(n=50000):
    rng = np.random.default_rng(24)
    a, b, c = rng.standard_normal((3, n))
    random = _sym2(a, b, c)
    u, v = rng.standard_normal((2, n))
    out = {
        "random": random,
        **{f"b = {s:g} b": _sym2(a, s * b, c) for s in (1e-9, 1e-17, 1e-20)},
        # Off-diagonals about the size of both split thresholds.
        "b at the split": _sym2(a, np.sqrt(np.abs(a * c)) * 2.0**-53 * rng.choice([0.5, 1.0, 2.0], n), c),
        "b = 0": _sym2(a, np.zeros(n), c),
        "b = -0": _sym2(a, np.full(n, -0.0), c),
        "a = c": _sym2(a, b, a),
        "c = -a": _sym2(a, b, -a),
        "zero": np.zeros((n, 2, 2)),
        "signed zero": _sym2(*np.where(rng.random((3, n)) < 0.5, -0.0, 0.0)),
        "zero diagonal": _sym2(np.where(a < 0.0, -0.0, 0.0), b, np.where(c < 0.0, -0.0, 0.0)),
        # b * b is subnormal, so sqrt(b * b) is not |b|, and as large as a c.
        "b * b underflows": _sym2(1e-120 * (1.0 + np.abs(a)), 1e-155 * b, 1e-190 * c),
        "integer": _sym2(*rng.integers(-3, 4, (3, n))),
        "rank one": _sym2(u * u, u * v, v * v),
        "mixed scales": random * 10.0 ** rng.integers(-300, 301, n)[:, None, None],
        "mixed scales in range": random * 10.0 ** rng.integers(-100, 101, n)[:, None, None],
        "mixed entries": _sym2(*(rng.standard_normal((3, n)) * 10.0 ** rng.integers(-100, 101, (3, n)))),
    }
    for e in (-300, -200, -100, 100, 200, 300):
        out[f"scale 1e{e}"] = random * 10.0**e
    return out


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", list(_batches_2x2(1)))
def test_the_solver_gives_eigvalsh_s_bits_on_2x2_batches(name):
    mats = _batches_2x2()[name]
    assert _same_bits(operators._eigenvalues(mats), np.linalg.eigvalsh(mats))


def test_the_solver_takes_a_single_matrix_and_any_batch_shape():
    # op-eval passes one matrix, a batch of no axes.
    rng = np.random.default_rng(5)
    for shape in [(), (1,), (3, 4), (0,)]:
        for m in (1, 2, 3, 4):
            mats = rng.standard_normal(shape + (m, m))
            mats = mats + np.swapaxes(mats, -1, -2)
            assert _same_bits(operators._eigenvalues(mats), np.linalg.eigvalsh(mats)), (shape, m)
    assert _same_bits(operators._eigenvalues([[1.0, 2.0], [2.0, -3.0]]), np.linalg.eigvalsh([[1.0, 2.0], [2.0, -3.0]]))


def test_the_solver_reads_the_layout_h_hessian_returns():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1000, 3))
    hess = rng.standard_normal((1000, 3, 3))
    mats = hgroup.h_hessian(None, hess + np.swapaxes(hess, 1, 2), x)
    assert mats.shape == (1000, 2, 2) and not mats.flags.c_contiguous
    want = np.linalg.eigvalsh(np.ascontiguousarray(mats))
    assert _same_bits(operators._eigenvalues(mats), want)
    assert _same_bits(np.linalg.eigvalsh(mats), want)


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e200, 0.0])
def test_the_solver_raises_no_floating_point_warning(scale):
    # At 1e300 b * b overflows; tier-1 turns warnings into errors anyway.
    mats = _sym2(*np.random.default_rng(7).standard_normal((3, 100))) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_bits(operators._eigenvalues(mats), np.linalg.eigvalsh(mats))


def test_a_2x2_solve_stays_within_five_outputs_of_memory():
    # 7600 rows, the admissible rows of a d = 1 table chunk: at most 600 KB,
    # about five times the 122 KB result.
    a, b, c = np.random.default_rng(10).standard_normal((3, 7600))
    mats = np.moveaxis(np.array([[a, b], [b, c]]), -1, 0)  # batch-last, as h_hessian's
    operators._eigenvalues(mats)
    tracemalloc.start()
    try:
        operators._eigenvalues(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600_000


def test_every_eigen_solve_goes_through_the_solver(monkeypatch):
    seen = []
    solve = operators._eigenvalues

    def counted(mat):
        seen.append(np.shape(mat))
        return solve(mat)

    monkeypatch.setattr(operators, "_eigenvalues", counted)
    mats = _sym2(*np.random.default_rng(8).standard_normal((3, 5)))
    operators.sym_eigenvalues(mats)
    operators.evaluate("pucci_max", mats, {"ell": E12})
    assert seen == [(5, 2, 2), (5, 2, 2)]

    # The dense path: a d = 1 jet table, and a spectral run's dense-check
    # rows that Weyl's bound cannot clear at tol 0.
    seen.clear()
    dims = HeisDims(1)
    u4 = field_from_profile(make_profile("u4", E12, dims), dims)
    g = np.random.default_rng(9).standard_normal((400, 3))
    pts = hgroup.dilate(np.linspace(0.5, 4.0, 400) / hgroup.hnorm(g), g)
    table = TabulatedField(pts, u4.value(pts), u4.gradient(pts), u4.hessian(pts))
    rep = check_tabulated(table, OperatorSpec("pucci_max", ell=E12), Region(0.25, 5.0, char_eps=0.01))
    assert rep.n_evaluated > 0 and seen == [(rep.n_evaluated, 2, 2)]

    seen.clear()
    folland = field_from_profile(make_profile("folland", None, dims), dims)
    rep = check_inequality(folland, OperatorSpec("pucci_max", ell=E12), Region(0.1, 5.0, n_samples=3000, seed=9, char_eps=0.01), tol=0.0)
    n = rep.paths["guard"]["n_solved"]
    assert n > 0 and seen == [(n, 2, 2)]


# ---------------------------------------------------------------------------
# Sums of squares that overflow: hgroup._rescaled_sq forms ||M||_F and |q|^2.


@pytest.mark.parametrize("op,ell,matrix,want", [
    ("pucci_max", [], "[[1e200, 0.0], [0.0, -1e200]]", 1e200),
    ("pucci_min", [], "[[1e200, 0.0], [0.0, 3e199]]", -2.6e200),
    ("pucci_max", ["--lam", "0.5", "--Lam", "0.5"], "[[1.3e308, 0.0], [0.0, 1.3e308]]", -1.3e308),
])
def test_the_pucci_dead_zone_keeps_eigenvalues_whose_squares_overflow(op, ell, matrix, want, capsys):
    # sum v^2 overflowed, so ZERO_TOL * ||M||_F was inf: every eigenvalue fell
    # in the dead zone and both printed -0.0.  Where ||M||_F itself overflows
    # the eigenvalues are compared and summed rescaled, as their sum overflows
    # too.
    assert main(["op-eval", "--op", op, *ell, "--matrix", matrix]) == 0
    text = capsys.readouterr()
    assert float(text.out) == pytest.approx(want, rel=1e-15) and text.err == ""


@pytest.mark.parametrize("k", [-600, -200, 0, 600])
def test_pnorm_keeps_its_bits_when_q_is_scaled_by_a_power_of_two(k):
    # pnorm is 0-homogeneous in q.  At 2^600 q, |q|^2 overflowed and e_q was
    # 0 or NaN; at 2^-600 q it underflowed, and the rows read as q = 0.
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((500, 3, 3)) * 1e-30
    mats += np.swapaxes(mats, 1, 2)
    q = rng.standard_normal((500, 3))
    want = operators.pnorm_operator(3.0, q, mats)
    assert _same_bits(operators.pnorm_operator(3.0, np.ldexp(q, k), mats), want)
    e_q, qq = operators.rayleigh_quotient(np.ldexp(q, k), mats)
    assert np.all(np.isfinite(e_q)) and np.all(qq > 0.0)


def test_a_gradient_whose_square_underflows_is_not_zero(capsys):
    # |q|^2 = 2e-340 underflows; q = (1, 1) gives -(3 + 1.5).
    assert main(["op-eval", "--op", "pnorm", "--p", "3", "--matrix", "[[1.0, 0.0], [0.0, 2.0]]", "--q", "[1e-170, 1e-170]"]) == 0
    text = capsys.readouterr()
    assert float(text.out) == -4.5 and text.err == ""
