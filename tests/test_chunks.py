"""Checks evaluated in chunks of the sample index: same reports, bounded memory.

Also: the same reports whether the placed points are column-major (as
placed) or row-major.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from heispde import checker, cli, hgroup
from heispde.checker import (
    BarrierBundle,
    OperatorSpec,
    Region,
    TabulatedField,
    check_inequality,
    check_lyapunov,
    check_tabulated,
    lyapunov_fixture,
)
from heispde.gallery import ProfilePiece, RadialProfile, field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity, HJBCoefficients

E12 = Ellipticity(1.0, 2.0)
E15 = Ellipticity(1.0, 1.5)
# 1 << 30 is at least every n here: the whole sample in one chunk.
CHUNK_SIZES = (1000, 1 << 14, 1 << 30)


def _field(name, d, e=E15):
    dims = HeisDims(d)
    return field_from_profile(make_profile(name, e, dims), dims)


def _ones(x):
    return np.ones(x.shape[:-1])


def _zeros(x):
    return np.zeros(x.shape[:-1])


def _report_bytes(rep) -> str:
    payload = rep.to_dict()
    payload.pop("wall_time")
    return json.dumps(payload)


def _assert_same(rep, first):
    """Byte-identical reports and equal keep_samples arrays."""
    assert _report_bytes(rep) == _report_bytes(first)
    assert (rep.samples is None) == (first.samples is None)
    if first.samples is not None:
        assert rep.samples.keys() == first.samples.keys()
        for key, value in first.samples.items():
            got = rep.samples[key]
            assert (got is None and value is None) or (
                got.dtype == value.dtype and np.array_equal(got, value, equal_nan=True)
            ), key


def _at_every_chunk_size(monkeypatch, run, sizes=CHUNK_SIZES):
    """run() at each chunk size; asserts byte-identical reports and equal samples."""
    reports = []
    for size in sizes:
        monkeypatch.setattr(checker, "_CHUNK_ROWS", size)
        reports.append(run())
    first = reports[0]
    for rep in reports[1:]:
        _assert_same(rep, first)
    return first


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_fixture_reports_do_not_depend_on_the_chunk_size(name, monkeypatch, tmp_path, capsys):
    # The fixtures draw at most 512 samples, so 100 is the size that splits them.
    texts = []
    for size in (100,) + CHUNK_SIZES:
        monkeypatch.setattr(checker, "_CHUNK_ROWS", size)
        out = tmp_path / f"{size}.json"
        assert cli.run_fixture(name, out=str(out)) == cli.FIXTURES[name]["expected_exit"]
        if out.exists():
            payload = json.loads(out.read_text())
            payload.pop("wall_time", None)
            texts.append(json.dumps(payload))
    capsys.readouterr()
    assert len(set(texts)) <= 1


REGION = Region(0.05, 5.0, n_samples=20000, seed=5, char_eps=1e-3)
# A constant core glued to rho^2: the gradient vanishes on rho < 1 only.
_FLAT_CORE = field_from_profile(
    RadialProfile(
        "flat_core", "heisenberg",
        (ProfilePiece(0.0, 1.0, "power", (0.0,)), ProfilePiece(1.0, np.inf, "power", (2.0,))), {}, bounded=False,
    ),
    HeisDims(1),
)
DRIFT = HJBCoefficients(
    (hgroup.eta, lambda x: -hgroup.eta(x)), (_zeros, _ones), "horizontal", label="two controls"
)
INEQUALITY_RUNS = {
    "spectral sense": lambda: check_inequality(_field("u4", 2), OperatorSpec("pucci_max", ell=E15), REGION),
    "spectral supersolution, negated": lambda: check_inequality(
        -_field("u5", 1), OperatorSpec("pucci_max", "supersolution", ell=E15), REGION
    ),
    "formula": lambda: check_inequality(
        _field("log_rho", 4, None),
        OperatorSpec("pucci_min", ell=E12),
        Region(0.5, 4.0, n_samples=20000, seed=9, char_eps=0.05),
        mode="formula",
    ),
    "formula with invalid rows": lambda: check_inequality(
        _field("u4", 1), OperatorSpec("pucci_max", ell=E15), REGION, mode="formula"
    ),
    "dense wrapped field": lambda: check_inequality(
        dataclasses.replace(_field("u4", 2), name="wrapped"), OperatorSpec("pucci_max", ell=E15),
        dataclasses.replace(REGION, n_samples=6000),
    ),
    "pnorm": lambda: check_inequality(_field("u_tilde", 2, None), OperatorSpec("pnorm", p=3.0), REGION),
    "dense pnorm": lambda: check_inequality(
        dataclasses.replace(_field("u4", 1), name="wrapped"), OperatorSpec("pnorm", p=3.0),
        dataclasses.replace(REGION, n_samples=6000),
    ),
    "Euclidean pnorm": lambda: check_inequality(_field("u2", 3, E12), OperatorSpec("pnorm", p=1.5), REGION),
    "Bellman": lambda: check_inequality(
        _field("u5", 2), OperatorSpec("pucci_max", "supersolution", ell=E15, first_order=DRIFT), REGION
    ),
    "keep_samples": lambda: check_inequality(
        _field("u4", 1), OperatorSpec("pucci_max", ell=E15), REGION, keep_samples=True
    ),
    "Euclidean keep_samples": lambda: check_inequality(
        _field("u3", 4, E12), OperatorSpec("pucci_max", ell=E12), REGION, keep_samples=True
    ),
    "failing": lambda: check_inequality(
        _field("u_tilde", 1, None), OperatorSpec("neg_trace", "subsolution"),
        Region(0.25, 4.0, n_samples=20000, seed=2, char_eps=0.05),
    ),
    # Late-vacuous runs: admissible rows, yet nothing the verdict looks at.
    "every admissible row has zero gradient": lambda: check_inequality(
        _FLAT_CORE, OperatorSpec("pnorm", p=3.0), Region(0.25, 0.9, n_samples=256, char_eps=0.0)
    ),
    "formula whose reference holds on no row": lambda: check_inequality(
        _field("u4", 1), OperatorSpec("pucci_max", ell=E15),
        Region(0.1, 0.9, n_samples=500, char_eps=0.02), mode="formula",
    ),
    "formula against a zero reference": lambda: check_inequality(
        _field("folland", 2, None), OperatorSpec("neg_trace", "supersolution"),
        Region(0.5, 4.0, n_samples=20000, seed=9, char_eps=0.05), mode="formula",
    ),
}


LATE_VACUOUS = {"every admissible row has zero gradient", "formula whose reference holds on no row"}


@pytest.mark.parametrize("name", sorted(INEQUALITY_RUNS))
def test_inequality_reports_do_not_depend_on_the_chunk_size(name, monkeypatch):
    rep = _at_every_chunk_size(monkeypatch, INEQUALITY_RUNS[name])
    if name in LATE_VACUOUS:
        assert rep.verdict == "vacuous" and rep.witness is None and rep.worst_violation is None
    else:
        assert rep.verdict in ("pass", "fail") and rep.witness["point"] is not None


def test_late_vacuous_runs_keep_their_counts():
    flat = INEQUALITY_RUNS["every admissible row has zero gradient"]()
    assert (flat.verdict, flat.n_evaluated, flat.excluded_by) == ("vacuous", 0, {"zero_gradient": 256})
    assert flat.paths["chart"] == 256 and flat.formula_comparison is None
    nowhere = INEQUALITY_RUNS["formula whose reference holds on no row"]()
    assert (nowhere.verdict, nowhere.n_evaluated) == ("vacuous", 490)
    assert nowhere.formula_comparison == {
        "n_compared": 0, "n_nonzero_reference": 0, "max_abs_deviation": None, "max_rel_deviation": None, "pass": False,
    }
    zero = INEQUALITY_RUNS["formula against a zero reference"]()
    assert zero.verdict == "pass" and zero.formula_comparison["n_compared"] == zero.n_evaluated > 0
    assert zero.formula_comparison["n_nonzero_reference"] == 0 and zero.formula_comparison["max_rel_deviation"] is None


def _table(n_outside=1500, rows=6000):
    """u4 jets at d = 1 whose first n_outside rows lie outside the checked radii."""
    field = _field("u4", 1)
    rng = np.random.default_rng(4)
    g = rng.standard_normal((rows, 3))
    r = np.exp(rng.uniform(np.log(0.2), np.log(4.0), rows))
    r[:n_outside] = 5.0
    pts = hgroup.dilate(r / hgroup.hnorm(g), g)
    return TabulatedField(
        pts, field.value(pts), field.gradient(pts), field.hessian(pts), singular_radii=field.singular_radii
    )


@pytest.mark.parametrize("op", ["pucci_max", "pnorm"])
def test_tabulated_reports_do_not_depend_on_the_chunk_size(op, monkeypatch):
    table = _table()
    spec = OperatorSpec(op, ell=E15) if op == "pucci_max" else OperatorSpec(op, p=3.0)
    region = Region(0.3, 3.0, char_eps=0.02)
    rep = _at_every_chunk_size(monkeypatch, lambda: check_tabulated(table, spec, region, keep_samples=True))
    # The first chunk of 1000 rows holds no admissible row.
    assert rep.excluded_by["outside_radius_range"] >= 1500 and rep.n_evaluated > 0


def test_chunks_without_an_admissible_row_are_skipped(monkeypatch):
    region = Region(0.5, 4.0, n_samples=30000, seed=1, char_eps=0.998)
    field = _field("u4", 1)
    adm = checker.sample_region(region, space="heisenberg", dim=3, singular_radii=field.singular_radii).admissible
    empty = [not adm[s : s + 1000].any() for s in range(0, adm.size, 1000)]
    assert any(empty) and not all(empty)
    spec = OperatorSpec("pucci_max", ell=E15)
    rep = _at_every_chunk_size(monkeypatch, lambda: check_inequality(field, spec, region))
    assert rep.n_evaluated == int(adm.sum())
    cond, data, _ = lyapunov_fixture("hou", HeisDims(1))
    far = dataclasses.replace(region, rho_min=2.0, rho_max=16.0)
    lyap = _at_every_chunk_size(monkeypatch, lambda: check_lyapunov(cond, data, E12, far, HeisDims(1)))
    assert lyap.n_evaluated > 0


def test_a_nan_witness_is_the_first_nan_in_every_chunking(monkeypatch):
    # NaN eigenvalues on a thin radius band: the allowance is NaN there, so
    # the run raises, naming the first row in the band, which lies beyond
    # the first chunks at size 1000.  A NaN is never a fail or a pass.
    lo, hi = 1.5, 1.5006
    spectral_jets = checker._spectral_jets

    def nan_band(profile, dim, radius, tau, *args):
        val, spectrum, e_q, qq = spectral_jets(profile, dim, radius, tau, *args)
        for v, _ in spectrum:
            v[(radius > lo) & (radius < hi)] = np.nan
        return val, spectrum, e_q, qq

    monkeypatch.setattr(checker, "_spectral_jets", nan_band)
    field = _field("u4", 1)
    region = Region(0.5, 4.0, n_samples=20000, seed=4, char_eps=0.02)
    spec = OperatorSpec("pucci_max", ell=E15)
    batch = checker.sample_region(region, space="heisenberg", dim=3, singular_radii=field.singular_radii)
    rows = np.flatnonzero(batch.admissible & (batch.radius > lo) & (batch.radius < hi))
    assert rows.size > 1 and rows[0] >= 2000
    at = f"rho = {float(batch.radius[rows[0]])!r}, tau = {float(batch.tau[rows[0]])!r}"
    for size in CHUNK_SIZES:
        monkeypatch.setattr(checker, "_CHUNK_ROWS", size)
        with pytest.raises(ValueError) as info:
            check_inequality(field, spec, region)
        assert str(info.value) == f"the inequality check got NaN at {at}"


def test_extremes_order_the_zeros_and_keep_a_nan():
    def bits(x):
        return (x, np.signbit(x))

    for values in ([0.0, -0.0], [-0.0, 0.0], [-1.0, -0.0, 0.0, -0.0]):
        assert bits(checker._extreme(np.max, values)) == (0.0, False)
    for values in ([-1.0, -0.0, -0.0], [-np.inf, -0.0]):
        assert bits(checker._extreme(np.max, values)) == (0.0, True)
    for values in ([0.0, -0.0], [-0.0, 0.0], [1.0, 0.0, -0.0, 0.0]):
        assert bits(checker._extreme(np.min, values)) == (0.0, True)
    for values in ([1.0, 0.0], [np.inf, 0.0, 0.0]):
        assert bits(checker._extreme(np.min, values)) == (0.0, False)
    assert np.isnan(checker._extreme(np.max, [1.0, np.nan, 0.0]))
    assert np.isnan(checker._running(np.min, np.nan, -0.0))
    assert checker._running(np.max, None, -3.0) == -3.0


def _lyapunov_data(kind, scale=1.0, cost=1.0):
    """Two controls (or one barrier); drifts times scale, costs times cost."""
    if kind == "barrier":
        return BarrierBundle(
            lambda x: -0.2 * scale * hgroup.eta(x), lambda x: 0.5 * _ones(x), lambda x: 0.3 * cost * _ones(x)
        )
    field = hgroup.eta if kind == "horizontal" else (lambda x: x)
    return HJBCoefficients(
        (lambda x: -0.5 * scale * field(x), lambda x: -2.0 * scale * field(x)),
        (lambda x: 0.1 * cost * _ones(x), lambda x: 0.5 * cost * _ones(x)),
        kind,
    )


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize(
    "cond,kind",
    [(c, k) for c, routes in checker.LYAPUNOV_CONDITIONS.items() for k in routes],
)
def test_lyapunov_reports_do_not_depend_on_the_chunk_size(cond, kind, d, monkeypatch):
    dims = HeisDims(d)
    verdicts = set()
    # Zero costs give margins of both signs of zero across rho = 1.
    for data in (_lyapunov_data(kind), _lyapunov_data(kind, scale=-3.0), _lyapunov_data(kind, cost=0.0)):
        for region in (
            Region(2.0, 16.0, n_samples=12000, seed=5, char_eps=0.05),
            Region(0.3, 2.0, n_samples=12000, seed=7, char_eps=0.1),
        ):
            rep = _at_every_chunk_size(
                monkeypatch,
                lambda: check_lyapunov(cond, data, E12, region, dims, alpha=1.0 / (4 * d), gammas=np.ones(dims.n)),
            )
            verdicts.add(rep.verdict)
    assert "fail" in verdicts


def test_margins_that_overflow_still_pass_with_a_witness(monkeypatch):
    # A finite cost near the largest double makes every margin +inf: each
    # row is still looked at, so the run is no less than a pass.
    data, region = _lyapunov_data("barrier", cost=1e308), Region(2.0, 16.0, n_samples=3000, seed=5, char_eps=0.05)
    with np.errstate(over="ignore"):
        rep = _at_every_chunk_size(monkeypatch, lambda: check_lyapunov("condcor1bis", data, E12, region, HeisDims(1)))
    assert (rep.verdict, rep.worst_violation, rep.witness["margin"]) == ("pass", -np.inf, np.inf)


# ---------------------------------------------------------------------------
# memory

# Largest growth of the tracemalloc peak per extra sample.  The chart keeps
# 17 B per sample (radius, tau, admissible); drawing it in one piece held
# about 32 B.
BYTES_PER_SAMPLE = 48


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hou(d):
    dims = HeisDims(d)
    cond, data, _ = lyapunov_fixture("hou", dims)
    return lambda n: check_lyapunov(cond, data, E12, Region(4.0, 16.0, n_samples=n, seed=1, char_eps=0.05), dims)


def _ou(d):
    # Unequal horizontal gammas keep ou on the placed path, which places every admissible row; hou, and ou with
    # equal horizontal gammas, take the chart path.
    dims = HeisDims(d)
    cond, data, extra = lyapunov_fixture("ou", dims, gammas=[1.0, 2.0] * d + [1.0])
    return lambda n: check_lyapunov(cond, data, E12, Region(2.5, 20.0, n_samples=n, seed=1), dims, gammas=extra["gammas"])


def _u4(d, dense=False, region=Region(0.05, 5.0, seed=1)):
    field = _field("u4", d)
    if dense:
        field = dataclasses.replace(field, name="u4, renamed")
    spec = OperatorSpec("pucci_max", ell=E15)
    return lambda n: check_inequality(field, spec, dataclasses.replace(region, n_samples=n))


MEMORY_CASES = [
    ("check_lyapunov hou d=1", _hou(1), 1 << 16, 1 << 18),
    ("check_lyapunov hou d=4", _hou(4), 1 << 16, 1 << 18),
    ("spectral u4 d=1", _u4(1), 1 << 16, 1 << 18),
    ("spectral u4 d=4", _u4(4), 1 << 16, 1 << 18),
    ("dense u4 d=4", _u4(4, dense=True), 1 << 15, 1 << 17),
    ("check_lyapunov ou d=1", _ou(1), 1 << 16, 1 << 18),
]


@pytest.mark.parametrize("label,make,n0,n1", MEMORY_CASES, ids=[case[0] for case in MEMORY_CASES])
def test_peak_memory_grows_by_the_chart_alone(label, make, n0, n1):
    make(n0)  # imports and caches outside the measurement
    growth = (_peak(lambda: make(n1)) - _peak(lambda: make(n0))) / (n1 - n0)
    assert growth <= BYTES_PER_SAMPLE, f"{label}: {growth:.1f} B per sample"


# Drawn block by block, the chart is all that grows: 17 B per sample.  At
# d = 1 the per-chunk temporaries are too small to hide a whole-length draw
# (24 and 34 B per sample when the chart was drawn in one piece).
CHART_BYTES_PER_SAMPLE = 18
CHART_CASES = [MEMORY_CASES[0], MEMORY_CASES[2]]


@pytest.mark.parametrize("label,make,n0,n1", CHART_CASES, ids=[case[0] for case in CHART_CASES])
def test_drawing_the_chart_adds_nothing_per_sample(label, make, n0, n1):
    make(n0)
    growth = (_peak(lambda: make(n1)) - _peak(lambda: make(n0))) / (n1 - n0)
    assert growth <= CHART_BYTES_PER_SAMPLE, f"{label}: {growth:.1f} B per sample"


# 4 chunks against 1: past the chart's growth per extra sample, the peak
# may grow by a few small arrays, not by one chunk's points, margins or
# terms held while the next chunk is computed (0.4 to 1.8 MB when they were).
_DENSE_REGION = Region(0.1, 5.0, seed=1, char_eps=0.02)
CHUNK_COUNT_CASES = {
    "check_lyapunov hou d=1": _hou(1),
    "check_lyapunov hou d=4": _hou(4),
    "check_lyapunov ou d=1": _ou(1),
    "dense u4 d=1": _u4(1, dense=True, region=_DENSE_REGION),
    "dense u4 d=4": _u4(4, dense=True, region=_DENSE_REGION),
}


@pytest.mark.parametrize("label", sorted(CHUNK_COUNT_CASES))
def test_more_chunks_hold_no_more_than_one_chunk(label):
    make, n0, n1 = CHUNK_COUNT_CASES[label], checker._CHUNK_ROWS, 4 * checker._CHUNK_ROWS
    make(n0)
    extra = _peak(lambda: make(n1)) - _peak(lambda: make(n0)) - CHART_BYTES_PER_SAMPLE * (n1 - n0)
    assert extra <= 64 * 1024, f"{label}: {extra / 1e6:+.3f} MB past the chart"


# tracemalloc peaks of the dense path, in doubles per row, as measured when
# h_hessian still ran every step on whole (N, n, n) stacks: H - H^T, its
# absolute value and 0.5 (H + H^T) lived at once, about 3 n^2.  Built
# batch-last it holds at most 2 n^2 (the transposed Hessians and their
# symmetrization), so a temporary that brings the old peak back fails.  The
# old peaks were 27.03, 81.03 and 289.03 at N = 8192, rounded up here.
H_HESSIAN_DOUBLES_PER_ROW = {1: 27.1, 2: 81.1, 4: 289.1}
# One 2^14-row dense check_tabulated chunk at d = 4 peaked at 403.2.
DENSE_CHUNK_DOUBLES_PER_ROW = 403.3


@pytest.mark.parametrize("d", sorted(H_HESSIAN_DOUBLES_PER_ROW))
def test_h_hessian_peak_per_row(d):
    rows, n = 8192, 2 * d + 1
    rng = np.random.default_rng(d)
    x = np.asfortranarray(rng.standard_normal((rows, n)))  # as placed
    hess = rng.standard_normal((rows, n, n))
    hess += np.swapaxes(hess, -1, -2)
    hgroup.h_hessian(None, hess, x)
    per_row = _peak(lambda: hgroup.h_hessian(None, hess, x)) / (8 * rows)
    assert per_row <= H_HESSIAN_DOUBLES_PER_ROW[d], f"d={d}: {per_row:.1f} doubles per row"


@pytest.mark.parametrize("op", ["pucci_max", "pnorm"])
def test_a_dense_tabulated_chunk_peaks_no_higher_than_before(op, monkeypatch):
    rows = 1 << 14
    monkeypatch.setattr(checker, "_CHUNK_ROWS", rows)
    dims, field = HeisDims(4), _field("u4", 4)
    rng = np.random.default_rng(4)
    g = rng.standard_normal((rows, dims.n))
    pts = hgroup.dilate(np.exp(rng.uniform(np.log(0.2), np.log(4.0), rows)) / hgroup.hnorm(g), g)
    table = TabulatedField(pts, field.value(pts), field.gradient(pts), field.hessian(pts))
    spec = OperatorSpec(op, ell=E15) if op == "pucci_max" else OperatorSpec(op, p=3.0)
    region = Region(0.1, 5.0, char_eps=0.02)
    assert check_tabulated(table, spec, region).n_evaluated == rows
    per_row = _peak(lambda: check_tabulated(table, spec, region)) / (8 * rows)
    assert per_row <= DENSE_CHUNK_DOUBLES_PER_ROW, f"{op}: {per_row:.1f} doubles per row"


# ---------------------------------------------------------------------------
# memory layout of the placed points


def _in_both_layouts(monkeypatch, run):
    """run() as placed (column-major) and with row-major copies of the points; asserts the same report."""
    placed = run()
    sample_region = checker.sample_region

    def row_major(*args, **kwargs):
        batch = sample_region(*args, **kwargs)
        place = batch.place
        return dataclasses.replace(batch, place=lambda rows: np.ascontiguousarray(place(rows)))

    with monkeypatch.context() as mp:
        mp.setattr(checker, "sample_region", row_major)
        copied = run()
    _assert_same(copied, placed)
    return placed


@pytest.mark.parametrize("space,dim", [("heisenberg", 3), ("heisenberg", 9), ("euclidean", 3), ("euclidean", 4)])
def test_placed_points_are_column_major(space, dim):
    batch = checker.sample_region(Region(0.5, 2.0, n_samples=100, seed=1), space=space, dim=dim)
    pts = batch.place(np.arange(0, 100, 3))
    assert pts.shape == (34, dim) and pts.flags.f_contiguous and not pts.flags.c_contiguous


LAYOUT_RUNS = {
    **INEQUALITY_RUNS,
    "dense pnorm d=4": lambda: check_inequality(
        dataclasses.replace(_field("u4", 4), name="wrapped"), OperatorSpec("pnorm", p=3.0),
        dataclasses.replace(REGION, n_samples=3000),
    ),
    "Euclidean dense Bellman": lambda: check_inequality(
        dataclasses.replace(_field("u2", 3, E12), name="wrapped"),
        OperatorSpec("pucci_max", ell=E12, first_order=HJBCoefficients((lambda x: -x,), (_ones,), "euclidean")),
        REGION, keep_samples=True,
    ),
    "Euclidean Bellman R^4": lambda: check_inequality(
        _field("u3", 4, E12),
        OperatorSpec("pnorm", p=3.0, first_order=HJBCoefficients((lambda x: -x,), (_ones,), "euclidean")),
        REGION, keep_samples=True,
    ),
    "Bellman d=4, Euclidean gradient": lambda: check_inequality(
        _field("u4", 4),
        OperatorSpec("pucci_max", ell=E15, first_order=HJBCoefficients((lambda x: -x,), (_ones,), "euclidean")),
        dataclasses.replace(REGION, n_samples=6000), keep_samples=True,
    ),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_RUNS))
def test_inequality_reports_do_not_depend_on_the_point_layout(name, monkeypatch):
    rep = _in_both_layouts(monkeypatch, LAYOUT_RUNS[name])
    if name in LATE_VACUOUS:
        assert rep.verdict == "vacuous" and rep.witness is None and rep.worst_violation is None
    else:
        assert rep.verdict in ("pass", "fail") and rep.witness["point"] is not None


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize(
    "cond,kind",
    [(c, k) for c, routes in checker.LYAPUNOV_CONDITIONS.items() for k in routes],
)
def test_lyapunov_reports_do_not_depend_on_the_point_layout(cond, kind, d, monkeypatch):
    dims = HeisDims(d)
    for data in (_lyapunov_data(kind), _lyapunov_data(kind, scale=-3.0), _lyapunov_data(kind, cost=0.0)):
        for region in (
            Region(2.0, 16.0, n_samples=6000, seed=5, char_eps=0.05),
            Region(0.3, 2.0, n_samples=6000, seed=7, char_eps=0.1),
        ):
            _in_both_layouts(
                monkeypatch,
                lambda: check_lyapunov(cond, data, E12, region, dims, alpha=1.0 / (4 * d), gammas=np.ones(dims.n)),
            )
