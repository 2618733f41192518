"""Sampled verification of operator inequalities and growth conditions.

The checker draws admissible points from an annulus of gauge radii, excludes
tubes around the characteristic set (|x_H|/rho < char_eps) and around
declared gluing radii (|rho - r_k| < kink_eps), evaluates the requested
operator exactly through the field's closed-form derivatives, and reports a
pass/fail/vacuous verdict with the worst signed violation and a witness.

Points are placed through the chart (rho, tau = |x_H|/rho, vertical sign,
horizontal direction) by one Kronecker low-discrepancy sequence (see
Region; its shift is default_rng's PCG64 words, from _pcg64, not numpy.random).
The batch keeps the chart's radius, tau and admissibility
(17 bytes per sample); the tubes, the spectral path, the reference formulas
and the witness read them instead of computing the gauge norm of the points
again.  Every check then runs over chunks of _CHUNK_ROWS consecutive sample
indices and folds each chunk into running counts, minima and maxima,
verdict and witness (_PassRule), so no full-length point, margin or
eigenvalue array is held and reports do not depend on the chunk size.
SampleBatch.place(rows) draws the sign (the top bit of its coordinate's
64-bit word) and the direction (half-angle Box-Muller pairs, no sin or cos)
of just those rows, and only _fold_chunks calls it.  The sequence has random
access, so a row placed alone is bit-identical to the same row of the full
batch, and results do not depend on which rows were placed.  Placed points
are column-major, and sums over the coordinate or eigenvalue axis go through
hgroup._rowdot and hgroup._colsum, which add left to right, so no value
depends on that layout or on numpy's sum kernels.  What stays O(n_samples):
the chart, keep_samples arrays and a table's own arrays.  Only numpy is used.

A point passes the declared sense when the signed excess does not exceed
max(1e-12, tol * max(1, local operator magnitude)); the raw per-sample
operator values are available for stricter downstream assertions.

Two paths evaluate the second-order part.  The spectral path takes every
ScalarField whose jets are its own radial profile (profile set and
field.name == profile.name; negation negates both): it reads rho (or r) and
w = tau^2 from the batch and f, f', f'' from the profile, and takes the closed
form's distinct values with their multiplicities, on H^d and on R^n.  The
gradient is the eigenvector of f'' w, so e_q = f'' w and |q|^2 = f'^2 w (w = 1
on R^n).  A Bellman part's q is the field's Euclidean gradient made horizontal
by the dense path's one rule (_field_q), on either path.  The dense path takes
fields without an own profile and TabulatedField rows: it forms the horizontal
Hessian from the Euclidean jets, solves it by operators._eigenvalues
(eigvalsh's results; a 2 x 2 matrix by LAPACK's closed form), passes its sorted
columns, each of multiplicity 1, and takes e_q from the matrix.  On either path
sorted rows are laid out only for the witness, keep_samples and the dense
check, by operators._sorted_rows: a stable sort of the repeated columns, which
keeps the bits of sorted columns.  A spectral run's guard, _dense_check,
compares both paths at the guard rows' own (rho, tau): the spectral path's
spectrum there against the matrix the dense path forms from the Hessian alone.
A row whose eigenvalues Weyl's inequality keeps within the check's allowance
(_weyl_bound) skips the solver; the allowance is never below the row's rounding
budget (2m + 20) eps ||M||_F, so tol = 0 does not ask the paths to agree beyond
rounding.  If an eigenvalue (or e_q) differs by more than the allowance, the run
raises ValueError instead of reporting a verdict.  The report's "paths" block
gives the points each path evaluated and, as "dense_check", that subsample's
size n, the n_eigvalsh rows sent to the solver, and the largest bound on a
difference (Weyl's, or measured after the solve), absolute and relative to
max(1, |e|).

Formula mode compares with the closed forms of gallery.PROFILES, at the field's
own d and Q.  Growth conditions are data: LYAPUNOV_CONDITIONS maps a condition
and the kind of data it gets to a LyapunovRoute (operator, margin, strict).  A
route that rescales log rho's supersolution inequality names its table
operator, and its threshold is log_rho's closed form for it at rho = tau = 1.
Bellman parts and growth conditions read a control family through
operators._controls, so bad drifts and costs raise one ValueError everywhere.
On the _drift_margin routes an _eta_family (drifts beta_k eta, costs c_k: the
zero-coeffs, schro and hou fixtures) takes the chart path: its margin, r -
max_k (beta_k rho^4 - c_k rho^2 log rho / tau^2), reads only the chart.  Its
guard, _placed_check, holds it to the generic margin at the guard rows' own
(rho, tau) within (2m + 24) eps M.  Such reports' "paths" give {chart, placed,
placed_check}; None where every row is placed.  Every check runs one loop,
_fold_chunks, over its chunks: it takes the verdict, worst excess and witness
from one rule, _PassRule, folds each check's named values by prefix (n_* add,
min_* and max_* keep the extreme) and writes the one CheckReport.

Reports are deterministic functions of (config, seed): identical inputs give
identical reports except for wall_time.  CheckReport declares its fields in
report order, and to_dict() writes them after the schema.  The checker runs
on the calling thread.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _pcg64, gallery, hgroup, operators
from .hgroup import HeisDims
from .operators import Ellipticity, HJBCoefficients, PucciAlpha, _finite

__all__ = [
    "BarrierBundle",
    "CheckReport",
    "LYAPUNOV_CONDITIONS",
    "Region",
    "OperatorSpec",
    "TabulatedField",
    "check_inequality",
    "check_lyapunov",
    "check_tabulated",
    "lyapunov_fixture",
    "sample_region",
]

SCHEMA = "heispde-report-v1"
# No longer read: the checker is single-threaded.  perfbench still sets it.
THREADS_ENV = "HEISPDE_THREADS"

_ABS_FLOOR = 1e-12
_EPS = np.finfo(float).eps
# Fractional bits of phi when the Kronecker steps are computed.
_PHI_BITS = 96
# Points of a spectral (chart) run that the dense (placed) path evaluates again.
_DENSE_CHECK_POINTS = 256
# Sample indices a check evaluates together, so per-point temporaries stay
# O(_CHUNK_ROWS) at any n_samples.  Reports do not depend on it.
_CHUNK_ROWS = 1 << 14
# Box-Muller radii read log(min(u, it)), so the top Kronecker cell (1.0) is no zero vector.
_BELOW_ONE = 1.0 - 2.0**-53


@dataclass(frozen=True)
class Region:
    """Sampling annulus and admissibility tubes.

    Points are drawn in the chart (rho, tau = |x_H|/rho, vertical sign,
    horizontal direction), which parametrizes exactly the data gauge-radial
    operators depend on; on R^n the chart is (r, direction).  The sampler
    is a randomly shifted Kronecker (R_k, generalized golden ratio)
    sequence, seeded by seed, with log rho spread over the whole annulus,
    so the largest gap in log-radius shrinks like 1/n_samples; tau is
    uniform on (0, 1), the sign and the direction come from the remaining
    coordinates.  n_samples >= 1 and seed >= 0 are integers (not bools).
    """

    rho_min: float
    rho_max: float
    n_samples: int = 4096
    seed: int = 0
    char_eps: float = 1e-3
    kink_eps: float = 1e-6

    def __post_init__(self) -> None:
        if not (
            np.isfinite(self.rho_min)
            and np.isfinite(self.rho_max)
            and 0.0 < self.rho_min < self.rho_max
        ):
            raise ValueError("need 0 < rho_min < rho_max < inf")
        for name in ("n_samples", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n_samples < 1:
            raise ValueError("n_samples must be a positive integer")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not 0.0 <= self.char_eps < 1.0:
            raise ValueError("char_eps must lie in [0, 1)")
        if not (np.isfinite(self.kink_eps) and self.kink_eps >= 0.0):
            raise ValueError("kink_eps must be finite and nonnegative")


@dataclass(frozen=True)
class OperatorSpec:
    """Operator expression F[u] = second-order part + optional Bellman part.

    sense "subsolution" tests F[u] <= 0, "supersolution" tests F[u] >= 0.
    The Bellman part reads the gradient in its family's gradient_space; the
    normalized p-Laplacian reads the field's natural one (horizontal on the
    group, Euclidean otherwise).  pnorm pairs the gradient with the
    horizontal Hessian, so a group field under pnorm with a Euclidean
    Bellman family is rejected (ValueError) when the check starts.
    """

    second_order: str
    sense: str = "subsolution"
    ell: Ellipticity | None = None
    alpha: float | None = None
    p: float | None = None
    first_order: HJBCoefficients | None = None
    envelope: str = "inf"

    def __post_init__(self) -> None:
        operators.operator_entry(self.second_order, self.params)
        if self.sense not in ("subsolution", "supersolution"):
            raise ValueError(f"unknown sense {self.sense!r}")
        if self.envelope not in ("inf", "sup"):
            raise ValueError(f"unknown envelope side {self.envelope!r}")

    @property
    def params(self) -> dict:
        """Parameters in the form the operators table reads."""
        return {"ell": self.ell, "alpha": self.alpha, "p": self.p}


@dataclass(frozen=True)
class TabulatedField:
    """Per-point jets for a field known only through a table."""

    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    hessians: np.ndarray
    space: str = "heisenberg"
    name: str = "tabulated"
    singular_radii: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("tabulated points must form an (N, dim) array")
        n, dim = pts.shape
        if n == 0:
            raise ValueError(f"tabulated field {self.name!r} has no rows")
        vals = np.asarray(self.values, dtype=float)
        grads = np.asarray(self.gradients, dtype=float)
        hess = np.asarray(self.hessians, dtype=float)
        if vals.shape != (n,) or grads.shape != (n, dim) or hess.shape != (n, dim, dim):
            raise ValueError("tabulated jet shapes do not match the points")
        if self.space not in ("heisenberg", "euclidean"):
            raise ValueError(f"unknown space {self.space!r}")
        if self.space == "heisenberg" and (dim < 3 or dim % 2 == 0):
            raise ValueError("group points need odd width >= 3")
        for name, arr in (("points", pts), ("values", vals), ("gradients", grads), ("hessians", hess)):
            if not np.isfinite(arr).all():
                raise ValueError(f"tabulated {name} must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gradients", grads)
        object.__setattr__(self, "hessians", hess)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(kw_only=True)
class CheckReport:
    """Outcome of one verification run; to_dict() is the schema, then every field but samples, in order."""

    kind: str
    verdict: str
    worst_violation: float | None
    tol: float
    n_samples: int
    n_evaluated: int
    n_excluded: int
    excluded_by: dict
    witness: dict | None
    formula_comparison: dict | None = None
    scan: list | None = None
    components: dict | None = None
    paths: dict | None = None
    config: dict
    wall_time: float = 0.0
    samples: dict | None = None

    def to_dict(self) -> dict:
        fields = (f.name for f in dataclasses.fields(self) if f.name != "samples")
        return {"schema": SCHEMA, **{name: getattr(self, name) for name in fields}}


@dataclass
class SampleBatch:
    """Chart coordinates and admissibility of a sample; points on demand.

    place(rows) returns the points of the given rows, shape (len(rows), dim)
    (column-major when sampled); a row placed alone is bit-identical to the
    same row placed with others.
    """

    radius: np.ndarray
    tau: np.ndarray | None
    admissible: np.ndarray
    excluded_by: dict
    place: Callable[[np.ndarray], np.ndarray]

    @property
    def n_admissible(self) -> int:
        return int(np.count_nonzero(self.admissible))


@functools.lru_cache(maxsize=None)
def _kronecker_steps(k: int) -> np.ndarray:
    """Steps 2^64 / phi^j (j = 1..k) of the R_k sequence, phi^(k+1) = phi + 1.

    phi is found by bisection on integers with _PHI_BITS fractional bits,
    so the steps are the same on every platform.
    """
    one = 1 << _PHI_BITS
    lo, hi = one, 2 * one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** (k + 1) > (mid + one) * one**k:
            hi = mid
        else:
            lo = mid
    steps = np.array(
        [(1 << (64 + _PHI_BITS * j)) // lo**j for j in range(1, k + 1)], dtype=np.uint64
    )
    steps.flags.writeable = False  # the cache hands this array to every caller
    return steps


def _kronecker_shift(k: int, seed: int) -> np.ndarray:
    """The seed's shift of the R_k sequence: PCG64's first k 64-bit words, as default_rng(seed) draws them."""
    return np.array(list(_pcg64.words(seed, k)), dtype=np.uint64)


def _kronecker_words(idx: np.ndarray, shift: np.ndarray, j: int) -> np.ndarray:
    """Words s + i a (mod 2^64) of coordinate j of the R_k sequence at uint64 indices idx."""
    x = idx * _kronecker_steps(shift.shape[0])[j]
    x += shift[j]
    return x


def _kronecker_unit(i, shift: np.ndarray, coords=None) -> list[np.ndarray]:
    """Coordinates coords (default all) of the R_k sequence shifted by shift.

    k = len(shift); i is a count n (points 0..n-1) or an array of point indices.
    x_i = s + i a (mod 2^64) in 64-bit fixed point; the top 53 bits name a
    dyadic cell and its midpoint, rounded to double, is returned, so every
    value lies in (0, 1] (the top cell rounds to 1.0).
    Each point depends only on its own index, so any subset of rows is
    bit-identical to the same rows of the full sequence.  Coordinates are
    made one at a time, so no (k, n) integer array is held.
    """
    idx = np.arange(i, dtype=np.uint64) if np.ndim(i) == 0 else np.asarray(i).astype(np.uint64, copy=False)
    cols = []
    for j in range(shift.shape[0]) if coords is None else coords:
        x = _kronecker_words(idx, shift, j)
        x >>= np.uint64(11)
        u = x.astype(float)
        u += 0.5
        u *= 2.0**-53
        cols.append(u)
    return cols


def _unit_vectors(u: list[np.ndarray], out: np.ndarray) -> None:
    """Fill out (m, N) with N unit vectors in R^m, one per column.

    They come from 2 * ceil(m / 2) uniform coordinates u (Box-Muller pairs).
    Pair (u', u) has radius sqrt(-2 log u') and angle 2 pi u; with
    t = tan(pi u) its rows are (1 - t^2, 2 t) / (1 + t^2), the angle's cos
    and sin, so neither is called.  A lone last row (odd m) takes the first.
    The columns are normalized in place.
    """
    m = out.shape[0]
    for j in range(0, m, 2):
        t = np.multiply(np.pi, u[j + 1])
        np.tan(t, out=t)
        if j + 1 < m:
            np.multiply(t, 2.0, out=out[j + 1])
        t *= t
        np.subtract(1.0, t, out=out[j])
        t += 1.0
        r = np.minimum(u[j], _BELOW_ONE)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        r /= t
        out[j : j + 2] *= r
    out /= np.sqrt(hgroup._rowdot(out.T, out.T))


def _radius_tau(pts: np.ndarray, space: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Gauge (or Euclidean) radius and, on the group, tau = |x_H| / rho."""
    if space == "euclidean":
        return np.sqrt(hgroup._rowdot(pts, pts)), None
    rho, xh = hgroup._gauge(pts)
    # tau = 0 at the identity, which lies outside every region anyway.
    return rho, xh / np.where(rho > 0.0, rho, 1.0)


def _exclude_tubes(admissible, radius, tau, region, singular_radii, excluded_by) -> None:
    """Clear admissible inside the characteristic and kink tubes, adding to the counts by reason."""
    if tau is not None and region.char_eps > 0.0:
        hit = admissible & (tau < region.char_eps)
        if np.any(hit):
            excluded_by["characteristic_tube"] = excluded_by.get("characteristic_tube", 0) + int(hit.sum())
            admissible &= ~hit
    if region.kink_eps > 0.0:
        hit = np.zeros_like(admissible)
        for rk in singular_radii:
            hit |= np.abs(radius - rk) < region.kink_eps
        hit &= admissible
        if np.any(hit):
            excluded_by["kink_tube"] = excluded_by.get("kink_tube", 0) + int(hit.sum())
            admissible &= ~hit


def sample_region(
    region: Region,
    *,
    space: str,
    dim: int,
    singular_radii: tuple[float, ...] = (),
) -> SampleBatch:
    """Draw region.n_samples points and mark the admissible ones.

    Only rho (and tau on the group) is drawn for every sample; the batch's
    place(rows) draws the sign and direction of the given rows.  Exclusions
    are counted by reason; n_admissible + sum(excluded_by.values()) equals
    n_samples.
    """
    if space not in ("heisenberg", "euclidean"):
        raise ValueError(f"unknown space {space!r}")
    euclid = space == "euclidean"
    m = dim if euclid else dim - 1
    # Coordinates: rho[, tau, sign], then the direction's Box-Muller pairs.
    # The first `chart` of them are drawn for every sample, the rest by place.
    chart = 1 if euclid else 2
    k = (1 if euclid else 3) + 2 * ((m + 1) // 2)
    shift = _kronecker_shift(k, region.seed)
    n = region.n_samples
    lo = math.log(region.rho_min)
    radius, tau, admissible = np.empty(n), None if euclid else np.empty(n), np.ones(n, dtype=bool)
    excluded_by = dict.fromkeys(("characteristic_tube", "kink_tube"), 0)
    # The chart is drawn, and the tubes applied, one block of indices at a time.
    for start in range(0, n, _CHUNK_ROWS):
        b = slice(start, min(start + _CHUNK_ROWS, n))
        u = _kronecker_unit(np.arange(b.start, b.stop, dtype=np.uint64), shift, range(chart))
        np.exp(lo + (math.log(region.rho_max) - lo) * u[0], out=radius[b])
        if not euclid:
            tau[b] = u[1]
        _exclude_tubes(admissible[b], radius[b], None if euclid else tau[b], region, singular_radii, excluded_by)
    excluded_by = {reason: count for reason, count in excluded_by.items() if count}

    def place(rows):
        # Column-major: row j of out is coordinate j of every point.
        rows = np.asarray(rows, dtype=np.intp)
        idx = rows.astype(np.uint64)
        out = np.empty((dim, rows.shape[0]))
        r_s = radius[rows]
        if euclid:
            _unit_vectors(_kronecker_unit(idx, shift, range(chart, k)), out)
            out *= r_s
            return out.T
        tau_s = tau[rows]
        _unit_vectors(_kronecker_unit(idx, shift, range(chart + 1, k)), out[:m])
        out[:m] *= r_s * tau_s
        vert = np.multiply(r_s, r_s, out=out[m])
        # The sign coordinate's u >= 0.5 (so t < 0) exactly when its word's top bit is set: vert's sign bit.
        top = _kronecker_words(idx, shift, chart)
        np.bitwise_xor(vert.view(np.uint64), np.bitwise_and(top, np.uint64(1 << 63), out=top), out=vert.view(np.uint64))
        tau_s *= tau_s
        tau_s *= tau_s  # (tau tau)^2
        np.subtract(1.0, tau_s, out=tau_s)
        vert *= np.sqrt(tau_s, out=tau_s)
        return out.T

    return SampleBatch(radius, tau, admissible, excluded_by, place)


def _resolve_gspace(space: str, spec: OperatorSpec) -> str:
    """The Bellman family's gradient space if there is one, else the field's natural one."""
    if spec.first_order is not None:
        gs = spec.first_order.gradient_space
    else:
        gs = "horizontal" if space == "heisenberg" else "euclidean"
    if space == "euclidean" and gs == "horizontal":
        raise ValueError("a Euclidean field has no horizontal gradient")
    if space == "heisenberg" and gs == "euclidean" and spec.second_order == "pnorm":
        raise ValueError(
            "pnorm pairs the gradient with the 2d x 2d horizontal Hessian, so on "
            "the group it needs the horizontal gradient, not the Euclidean one"
        )
    return gs


def _own_profile(field):
    """The radial profile whose jets field evaluates, or None.

    A wrapped field keeps its profile but not its name, and its jets are no
    longer the profile's own.
    """
    profile = getattr(field, "profile", None)
    if profile is None or field.name != profile.name:
        return None
    return profile


def _field_q(field, pts, rows, gspace: str) -> np.ndarray:
    """The gradient q the operators read: the field's Euclidean gradient at pts (a table's at rows), horizontal if gspace is."""
    grad = field.gradients[rows] if isinstance(field, TabulatedField) else np.asarray(field.gradient(pts), dtype=float)
    return hgroup.h_gradient(grad, pts) if gspace == "horizontal" else grad


def _dense_matrix(field, pts, hess) -> np.ndarray:
    """The horizontal Hessian (on R^n the Hessian); it must be finite and pass hgroup's symmetry gate."""
    mat = hgroup.h_hessian(None, hess, pts) if field.space == "heisenberg" else operators._as_sym(hess)
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def _dense_jets(field, pts: np.ndarray, rows: np.ndarray, q, reads_e_q: bool):
    """(value, eigenvalues, e_q, |q|^2) from the Euclidean jets; e_q and |q|^2 of q if reads_e_q, else None."""
    if isinstance(field, TabulatedField):
        val = field.values[rows]
        # Gathered batch-last 512 rows at a time, so no (N, n, n) copy is made.
        src = np.moveaxis(field.hessians, 0, -1)
        hess = np.empty(src.shape[:-1] + rows.shape)
        for k in range(0, rows.shape[0], 512):
            hess[..., k : k + 512] = src[..., rows[k : k + 512]]
        hess = np.moveaxis(hess, -1, 0)
    else:
        val = np.asarray(field.value(pts), dtype=float)
        hess = np.asarray(field.hessian(pts), dtype=float)
    mat = _dense_matrix(field, pts, hess)
    del hess  # before the solver's copies of mat
    e_q, qq = operators.rayleigh_quotient(q, mat) if reads_e_q else (None, None)
    return val, operators._eigenvalues(mat), e_q, qq


def _spectral_jets(profile, dim: int, radius, tau, reads_e_q: bool):
    """(value, spectrum, e_q, |q|^2) of a radial field from its profile at the chart's (radius, tau).

    The spectrum is the closed form's (values, multiplicity) columns, none
    of multiplicity 0, so no Hessian is built and no eigenproblem is solved.
    e_q and |q|^2 are None unless reads_e_q.
    """
    val, fp, fpp = profile.jets(radius)
    e_q = qq = None
    if profile.kind == "heisenberg":
        w = tau**2
        t = fp * w / radius
        spectrum = ((fpp * w, 1), (3.0 * t, 1), (t, dim - 3))[: 3 if dim > 3 else 2]  # dim = 2d + 1
    else:
        w = 1.0
        t = fp / radius
        spectrum = ((fpp, 1), (t, dim - 1))
    if reads_e_q:
        # The gradient is the eigenvector of f'' w; e_q is 0 where q = 0, as on the dense path.
        qq = fp * fp * w
        e_q = np.where(qq > 0.0, fpp * w, 0.0)
    return val, spectrum, e_q, qq


def _terms_for(field, spec: OperatorSpec, gspace: str, profile, pts, rows, radius, tau) -> dict:
    """Evaluate operator ingredients at the given batch rows.

    pts (N, dim) are the points of those rows, which are also the rows of a
    TabulatedField; radius and tau are the batch's at those rows.  With a
    profile the spectral path evaluates them, otherwise the dense path.  The
    spectral path reads pts only for a Bellman part; without one pts may be
    None.
    """
    entry = operators.OPERATORS[spec.second_order]
    needs_q = spec.first_order is not None or (profile is None and entry.reads_e_q)
    q = _field_q(field, pts, rows, gspace) if needs_q else None
    if profile is None:
        val, eigs, e_q, qq = _dense_jets(field, pts, rows, q, entry.reads_e_q)
        spectrum = operators._columns(eigs)
    else:
        val, spectrum, e_q, qq = _spectral_jets(profile, field.dim, radius, tau, entry.reads_e_q)

    second = entry.value(spectrum, e_q, spec.params)
    alive = np.ones(rows.shape[0], dtype=bool)
    if e_q is not None:
        # e_q is undefined at q = 0; those rows are excluded.
        alive = qq > 0.0
        second = np.where(alive, second, 0.0)

    if spec.first_order is not None:
        side = operators.hjb_inf if spec.envelope == "inf" else operators.hjb_sup
        first = np.asarray(side(spec.first_order, pts, val, q), dtype=float)
    else:
        first = np.zeros(rows.shape[0])

    return {
        "value": val,
        "spectrum": spectrum,
        "second": second,
        "first": first,
        "total": second + first,
        "alive": alive,
        **({} if e_q is None else {"e_q": e_q}),
    }


def _dense_check(field, gspace, pts, got, got_e_q, tol) -> dict:
    """Compare the spectral path's got and got_e_q (or None) at pts with the dense path.

    Rows that _weyl_bound keeps within their allowance skip the eigenvalue
    solver, operators._eigenvalues.  e_q is compared as one more eigenvalue; a
    row failing on it is solved too, so the message quotes its spectrum.
    Raises ValueError at the first row off by more than the allowance, so
    disagreeing paths give no verdict.
    """
    m = got.shape[1]
    mat = _dense_matrix(field, pts, np.asarray(field.hessian(pts), dtype=float))
    bound, budget = _weyl_bound(mat, pts, field.space, got)
    mag = np.maximum(0.0, np.abs(got) - bound)
    dense = np.empty_like(got)
    if got_e_q is not None:
        dense_e_q = operators.rayleigh_quotient(_field_q(field, pts, None, gspace), mat)[0]
        got, dense = np.column_stack([got, got_e_q]), np.column_stack([dense, dense_e_q])
        bound, mag = np.column_stack([bound, np.abs(got_e_q - dense_e_q)]), np.column_stack([mag, np.abs(dense_e_q)])

    def allowed(mag):
        # Never below the rounding of the two paths, which tol = 0 would ask.
        return np.maximum(_allowance(tol, mag), budget[:, None])

    need = ~np.all(bound <= allowed(mag), axis=-1)
    if np.any(need):
        dense[need, :m] = operators._eigenvalues(mat[need])
        bound[need, :m] = np.abs(got[need, :m] - dense[need, :m])
        mag[need, :m] = np.abs(dense[need, :m])
    bad = bound > allowed(mag)
    if np.any(bad):
        k = int(np.flatnonzero(bad.any(axis=-1))[0])
        what = "eigenvalues" if got_e_q is None else "eigenvalues and e_q"
        raise ValueError(
            f"spectral and dense paths disagree at point {pts[k].tolist()}: "
            f"{what} {got[k].tolist()} against {dense[k].tolist()}"
        )
    return {
        "n": int(pts.shape[0]),
        "n_eigvalsh": int(np.count_nonzero(need)),
        "max_abs_bound": float(bound.max()),
        "max_rel_bound": float((bound / np.maximum(1.0, mag)).max()),
    }


def _weyl_bound(mat, pts, space, got) -> tuple[np.ndarray, np.ndarray]:
    """(bounds on |eigenvalue - got|, rounding budget) for the sorted eigenvalues of mat.

    No eigenvalue problem is solved.

    B has a radial Hessian's eigen-directions g (eta / |eta| on H^d, x / |x|
    on R^n) and, on H^d, h = g turned by hperp, with eigenvalues a = g^T M g,
    b = h^T M h and c = (Tr M - a - b) / (m - 2) on the rest.  By Weyl's
    inequality M's sorted spectrum lies within ||M - B||_F of B's sorted
    rows.  Rows at eta = 0 or x = 0 get NaN.
    Rounding budget, in ||.|| = ||.||_F: a compression does not raise it, so
    |a|, |b|, |c| sqrt(m - 2) <= ||M|| and |a - c|, |b - c| <= 2 ||M||.  h is
    exactly orthogonal to g and as long, and |g|^2 = 1 within (m + 4) eps / 2,
    so B lies within (m + 4) eps ||M|| of a matrix with exactly its spectrum.
    Forming M - B rounds each entry at most six times: 16 eps ||M||.  The
    solver (eigvalsh's results), whose rule this stands in for, errs by about
    m eps ||M||_2.  The m^2 squares in ||M - B||_F and |sorted - got| + delta
    round by a relative (m^2 + 4) eps at most.  The budget, (2m + 20) eps ||M||_F, also bounds
    how far two correct paths may differ by rounding alone.

    mat is read C-contiguous: einsum's order of adds over a matrix depends on
    its layout, which follows that of pts.  Each row is divided by a power
    of two near its largest entry, and the results multiplied back: exact,
    so ||M||_F^2 cannot overflow and no other row changes a bit.
    """
    n, m = got.shape
    e = np.frexp(np.abs(mat).max(axis=(1, 2)))[1]
    mat, got = np.ldexp(mat, -e[:, None, None], order="C"), np.ldexp(got, -e[:, None])
    with np.errstate(invalid="ignore", divide="ignore"):
        g = hgroup.eta(pts) if space == "heisenberg" else pts
        g = g / np.sqrt(hgroup._rowdot(g, g))[:, None]
        dirs = (g, np.concatenate([g[:, m // 2 :], -g[:, : m // 2]], axis=1)) if space == "heisenberg" else (g,)
        quot = [np.einsum("ni,nij,nj->n", v, mat, v) for v in dirs]
        rest = m - len(dirs)
        c = (np.einsum("nii->n", mat) - sum(quot)) / rest if rest else np.zeros(n)
        diff = mat - c[:, None, None] * np.eye(m)
        for v, a in zip(dirs, quot):
            diff -= (a - c)[:, None, None] * (v[:, :, None] * v[:, None, :])
        spec = operators._sorted_rows((*((a, 1) for a in quot), (c, rest)))
        budget = (2 * m + 20) * _EPS * np.sqrt(np.einsum("nij,nij->n", mat, mat))
        delta = np.sqrt(np.einsum("nij,nij->n", diff, diff)) + budget
        bound = (np.abs(spec - got) + delta[:, None]) * (1.0 + (m * m + 4) * _EPS)
        return np.ldexp(bound, e[:, None]), np.ldexp(budget, e)


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _allowance(tol: float, mag: np.ndarray) -> np.ndarray:
    return np.maximum(_ABS_FLOOR, tol * np.maximum(1.0, mag))


def _extreme(reduce, values) -> float:
    """reduce(values) for reduce np.max or np.min, with -0.0 below +0.0; a NaN wins.

    A plain max or min over both zeros returns either one, depending on how
    the values lie in memory, so a report would depend on the chunk size.
    """
    values = np.asarray(values)
    out = float(reduce(values))
    if out == 0.0:
        # Every value lies on one side of zero (below it for max, above for
        # min), so the nonzero ones cannot change the answer: no need to pick
        # the zeros out.
        negative = np.signbit(values)
        out = -0.0 if (negative.all() if reduce is np.max else negative.any()) else 0.0
    return out


def _running(reduce, old, values) -> float:
    """_extreme of values and old, the extreme of the chunks before (None for the first)."""
    new = _extreme(reduce, values)
    return new if old is None else _extreme(reduce, [old, new])


def _chunks(admissible: np.ndarray):
    """The admissible rows of each chunk of _CHUNK_ROWS sample indices that has one."""
    for start in range(0, admissible.shape[0], _CHUNK_ROWS):
        rows = np.flatnonzero(admissible[start : start + _CHUNK_ROWS])
        if rows.size:
            rows += start
            yield rows


class _PassRule:
    """Verdict, worst excess and witness of excesses added chunk by chunk.

    add(excess, allowance) takes one chunk's excesses, (N,) or (parts, N),
    with -inf at points not looked at.  A point fails a part where the
    excess is above the allowance or, for a strict part (strict: one flag or
    one per part), where it is >= 0; a NaN fails, and _fold_chunks raises
    on it.  The witness is the first point farthest above its allowance, a
    NaN first, over the chunks in order: the point one argmax over the whole
    sample picks.  add returns the witness's position in the chunk if the
    chunk holds it so far.
    """

    def __init__(self, strict=False):
        self.strict = strict
        self.top = self.worst = self.best = None

    def add(self, excess, allowance) -> int | None:
        excess = np.atleast_2d(excess)
        strict = np.broadcast_to(self.strict, excess.shape[:1])
        viol = excess - allowance
        viol[strict] = excess[strict]  # a strict part is granted no allowance
        top = viol.max(axis=1)
        self.top = top if self.top is None else np.maximum(self.top, top)
        self.worst = _running(np.max, self.worst, excess)
        col = viol.max(axis=0)
        k = int(np.argmax(col))
        if self.best is None or col[k] > self.best or np.isnan(col[k]):
            self.best = col[k]
            return k
        return None

    def verdict(self) -> tuple[str, float]:
        """(verdict, worst excess) of every chunk added."""
        strict = np.broadcast_to(self.strict, self.top.shape)
        ok = np.all(np.where(strict, self.top < 0.0, self.top <= 0.0))
        return ("pass" if ok else "fail"), self.worst


def _nan_error(kind, radius, tau) -> ValueError:
    return ValueError(f"the {kind} check got NaN at rho = {float(radius)!r}" + ("" if tau is None else f", tau = {float(tau)!r}"))


def _fold_chunks(kind, batch, region, tol, config, t0, chunk, finish, *, reads_points, guard=None, strict=False) -> CheckReport:
    """Fold chunk(rows, pts) over the chunks of batch's admissible rows into one report.

    The one rule of placement: pts are the chunk's rows placed if
    reads_points, else None; after the fold, at most _DENSE_CHECK_POINTS
    evenly spaced admissible rows and an unplaced witness are placed in one
    call, and guard(rows, pts, radius, tau) gets the rows with their points'
    own (radius, tau).  A check that reads no points has a guard.

    chunk returns (excess, magnitude, named, fields): the chunk's excesses
    for _PassRule, (N,) or (parts, N), -inf where no point was looked at;
    the magnitudes _allowance reads; named values, which fold over chunks by
    prefix (n_* add, min_* and max_* keep the extreme through _running,
    None is skipped) and must count the rows evaluated as n_evaluated and
    the rows the verdict looks at as n_looked; and fields(k), the witness
    fields at position k.  The witness is {point, radius, tau, **fields(k),
    allowance}.  A NaN witness (a NaN excess or allowance) raises ValueError
    naming its (rho, tau), the first NaN row at any chunk size, so a NaN is
    never a pass or a fail.  An admissible row not evaluated is excluded as
    zero_gradient, and a run that looked at no row (none admissible, none
    evaluated, or none compared) is vacuous, without a witness.  If any row
    was admissible, finish(folded, verdict, checked) returns the kind's own
    report fields, checked being the guard's result (None without one).  No
    chunk's arrays are held while the next one is computed.
    """
    rule = _PassRule(strict)
    n_adm = batch.n_admissible
    ranks = np.linspace(0, n_adm - 1, 0 if guard is None else min(n_adm, _DENSE_CHECK_POINTS)).astype(np.intp)
    folded, witness, witness_row, guard_rows, seen = {}, None, None, [], 0
    for rows in _chunks(batch.admissible):
        pts = batch.place(rows) if reads_points else None
        excess, mag, named, fields = chunk(rows, pts)
        allow = _allowance(tol, mag)
        k = rule.add(excess, allow)
        if k is not None:
            witness = {
                "point": None if pts is None else [float(v) for v in pts[k]],
                "radius": float(batch.radius[rows[k]]),
                "tau": None if batch.tau is None else float(batch.tau[rows[k]]),
                **fields(k),
                "allowance": float(allow[k]),
            }
            witness_row = rows[k]
            if np.isnan(rule.best):
                raise _nan_error(kind, witness["radius"], witness["tau"])
        for key, value in named.items():
            if value is None:
                continue
            if key.startswith("n_"):
                folded[key] = folded.get(key, 0) + value
            else:
                folded[key] = _running(np.min if key.startswith("min_") else np.max, folded.get(key), value)
        guard_rows.append(rows[ranks[(ranks >= seen) & (ranks < seen + rows.size)] - seen])
        seen += rows.size
        # Without this the loop variables keep the chunk's arrays alive
        # while the next chunk is computed.
        del rows, pts, excess, mag, named, fields, allow
    n_evaluated = folded.pop("n_evaluated", 0)
    excluded_by = dict(batch.excluded_by)
    if n_evaluated < n_adm:
        excluded_by["zero_gradient"] = n_adm - n_evaluated
    verdict, worst = rule.verdict() if folded.pop("n_looked", 0) else ("vacuous", None)
    checked = None
    if guard is not None and n_adm:
        rows, placed = np.concatenate(guard_rows), witness["point"] is not None
        pts = batch.place(rows if placed else np.append(rows, witness_row))
        if not placed:
            witness["point"], pts = [float(v) for v in pts[-1]], pts[:-1]
        checked = guard(rows, pts, *_radius_tau(pts, "euclidean" if batch.tau is None else "heisenberg"))
    extras = finish(folded, verdict, checked) if n_adm else {}
    return CheckReport(
        kind=kind,
        verdict=verdict,
        worst_violation=worst,
        tol=tol,
        n_samples=region.n_samples,
        n_evaluated=n_evaluated,
        n_excluded=region.n_samples - n_evaluated,
        excluded_by=excluded_by,
        witness=None if verdict == "vacuous" else witness,
        config=config,
        wall_time=time.perf_counter() - t0,
        **extras,
    )


def _field_echo(field) -> dict:
    echo = {"name": field.name, "space": field.space, "dim": int(field.dim)}
    profile = getattr(field, "profile", None)
    if profile is not None:
        echo["profile_params"] = {
            k: (float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v)
            for k, v in profile.params.items()
        }
    return echo


def _spec_echo(spec: OperatorSpec) -> dict:
    echo = {
        "second_order": spec.second_order,
        "sense": spec.sense,
        "envelope": spec.envelope,
        "gradient_space": None if spec.first_order is None else spec.first_order.gradient_space,
        "zero_tol": operators.ZERO_TOL,
    }
    if spec.ell is not None:
        echo["lam"] = spec.ell.lam
        echo["Lam"] = spec.ell.Lam
    if spec.alpha is not None:
        echo["alpha"] = spec.alpha
    if spec.p is not None:
        echo["p"] = spec.p
    if spec.first_order is not None:
        echo["first_order"] = {
            "label": spec.first_order.label,
            "n_controls": spec.first_order.n_controls,
            "gradient_space": spec.first_order.gradient_space,
        }
    return echo


def check_inequality(
    field,
    spec: OperatorSpec,
    region: Region,
    tol: float = 1e-9,
    *,
    mode: str = "sense",
    keep_samples: bool = False,
) -> CheckReport:
    """Test the declared inequality (or a closed-form comparison) on samples.

    mode "sense" checks the sub/supersolution inequality.  mode "formula"
    instead compares operator values against the registered closed form for
    this (profile, operator) pair and passes when the deviation stays within
    tol * max(1, |reference|) pointwise; a pair without one is refused
    (ValueError) before sampling.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    if mode not in ("sense", "formula"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(field, TabulatedField):
        raise TypeError("use check_tabulated for tabulated fields")
    reference = None
    if mode == "formula":
        key = (getattr(getattr(field, "profile", None), "name", None), spec.second_order)
        example = gallery.PROFILES.get(key[0]) if _own_profile(field) is not None else None
        reference = None if example is None else example.closed_forms.get(key[1])
        if reference is None:
            raise ValueError(f"no closed-form reference registered for {key!r}")
        # d and Q are the field's own, not its profile's params.
        dims = HeisDims(field.dim if field.space == "euclidean" else (field.dim - 1) // 2)
        reference = functools.partial(reference, dims=dims, params=spec.params)

    batch = sample_region(
        region, space=field.space, dim=field.dim, singular_radii=field.singular_radii
    )
    config = {
        "field": _field_echo(field),
        "operator": _spec_echo(spec),
        "region": dataclasses.asdict(region),
        "mode": mode,
    }
    return _inequality_from_batch(
        field, spec, region, tol, reference, keep_samples, batch, config, t0
    )


def check_tabulated(
    table: TabulatedField,
    spec: OperatorSpec,
    region: Region,
    tol: float = 1e-9,
    *,
    keep_samples: bool = False,
) -> CheckReport:
    """check_inequality over the rows of a precomputed jet table.

    The table's own points replace the sampler; region admissibility tubes
    and accounting still apply, with n_samples = number of rows.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    pts = table.points
    radius, tau = _radius_tau(pts, table.space)
    n = pts.shape[0]
    region = dataclasses.replace(region, n_samples=n)

    admissible = (radius >= region.rho_min) & (radius <= region.rho_max)
    excluded_by: dict[str, int] = {}
    out_of_range = int((~admissible).sum())
    if out_of_range:
        excluded_by["outside_radius_range"] = out_of_range
    _exclude_tubes(admissible, radius, tau, region, table.singular_radii, excluded_by)

    batch = SampleBatch(radius, tau, admissible, excluded_by, lambda rows: pts[rows])
    config = {
        "field": {"name": table.name, "space": table.space, "dim": table.dim, "rows": n},
        "operator": _spec_echo(spec),
        "region": dataclasses.asdict(region),
        "mode": "sense",
    }
    return _inequality_from_batch(
        table, spec, region, tol, None, keep_samples, batch, config, t0
    )


def _inequality_from_batch(
    field, spec, region, tol, reference, keep_samples, batch, config, t0
) -> CheckReport:
    gspace = _resolve_gspace(field.space, spec)
    profile = _own_profile(field)
    entry = operators.OPERATORS[spec.second_order]
    factor = entry.magnitude(spec.params)
    kept = []

    def chunk(rows, pts):
        radius = batch.radius[rows]
        tau = None if batch.tau is None else batch.tau[rows]
        terms = _terms_for(field, spec, gspace, profile, pts, rows, radius, tau)
        alive = terms["alive"]
        named = {"n_evaluated": int(np.count_nonzero(alive))}
        if reference is not None:
            ref_vals, ref_valid = reference(radius, tau)
            looked = ref_valid & alive
            value, mag = np.abs(terms["total"] - ref_vals), np.abs(ref_vals)
            nonzero = looked & (ref_vals != 0.0)
            named |= {
                "n_compared": int(np.count_nonzero(looked)),
                "n_nonzero_reference": int(np.count_nonzero(nonzero)),
                "max_abs_deviation": value[looked] if np.any(looked) else None,
                "max_rel_deviation": value[nonzero] / mag[nonzero] if np.any(nonzero) else None,
            }
        else:
            mag = factor * hgroup._colsum(terms["spectrum"], np.abs) + np.abs(terms["first"])
            looked, value = alive, terms["total"] if spec.sense == "subsolution" else -terms["total"]
        named["n_looked"] = int(np.count_nonzero(looked))
        excess = value if looked.all() else np.where(looked, value, -np.inf)
        spectrum = terms.pop("spectrum")
        if keep_samples:
            kept.append({"points": pts, "radius": radius, "tau": tau, "eigs": operators._sorted_rows(spectrum), **terms})

        def fields(k):
            return {
                "value": float(terms["value"][k]),
                "eigenvalues": [float(v) for v in operators._sorted_rows(spectrum, k)],
                "second_order": float(terms["second"][k]),
                "first_order": float(terms["first"][k]),
                "total": float(terms["total"][k]),
                "excess": float(excess[k]),
            }

        return excess, mag, named, fields

    def guard(rows, pts, radius, tau):
        spectrum, got_e_q = _spectral_jets(profile, field.dim, radius, tau, entry.reads_e_q)[1:3]
        return _dense_check(field, gspace, pts, operators._sorted_rows(spectrum), got_e_q, tol)

    def finish(folded, verdict, checked):
        n_adm = batch.n_admissible
        extras = {"paths": {
            "spectral": 0 if profile is None else n_adm,
            "dense": n_adm if profile is None else 0,
            "dense_check": checked,
        }}
        if reference is not None:
            extras["formula_comparison"] = {
                "n_compared": folded["n_compared"],
                "n_nonzero_reference": folded["n_nonzero_reference"],
                "max_abs_deviation": folded.get("max_abs_deviation"),
                "max_rel_deviation": folded.get("max_rel_deviation"),
                "pass": verdict == "pass",
            }
        if keep_samples:
            extras["samples"] = {
                key: None if kept[0][key] is None else np.concatenate([c[key] for c in kept])
                for key in kept[0]
            }
        return extras

    # The spectral path reads only the chart, unless a Bellman part or keep_samples reads the points.
    return _fold_chunks("inequality", batch, region, tol, config, t0, chunk, finish, guard=None if profile is None else guard,
                        reads_points=profile is None or spec.first_order is not None or keep_samples)


@dataclass(frozen=True)
class BarrierBundle:
    """Aggregated coefficient bounds b-bar, g-bar, c-bar (g, c nonnegative)."""

    bbar: Callable
    gbar: Callable
    cbar: Callable
    label: str = ""


@dataclass(frozen=True)
class _EtaFamily(HJBCoefficients):
    """Drifts beta_k eta(x) and constant costs c_k; check_lyapunov's chart path reads (beta_k, c_k)."""
    betas: tuple[float, ...] = ()
    levels: tuple[float, ...] = ()


def _eta_family(betas, costs, label: str) -> _EtaFamily:
    """The horizontal family of drifts beta_k eta(x), each eta scaled in place, and constant costs c_k (floats)."""
    drifts = tuple(lambda x, b=b: np.multiply(e := hgroup.eta(x), b, out=e) for b in betas)
    return _EtaFamily(drifts, tuple(lambda x, c=c: np.full(x.shape[:-1], c) for c in costs), "horizontal", label, betas, costs)


def lyapunov_fixture(name: str, dims: HeisDims, *, gamma0: float = 1.0, c0: float = 1.0, gammas=None):
    """Built-in coefficient families: returns (condition, data, kwargs).

    gammas is the ou fixture's; any other fixture refuses it.
    """
    if gammas is not None and name != "ou":
        raise ValueError(f"gammas apply to the ou fixture only, not to {name!r}")
    if name == "zero-coeffs":
        return "condcor1", _eta_family((0.0,), (0.0,), "zero-coeffs"), {}
    if name == "schro":
        return "schrodinger", _eta_family((0.0,), (float(c0),), f"schro(c0={c0})"), {}
    if name == "hou":
        return "condcor1", _eta_family((-float(gamma0),), (0.0,), f"hou(gamma0={gamma0})"), {}
    if name == "ou":
        g = np.ones(dims.n) if gammas is None else np.asarray(gammas, dtype=float)
        coeffs = HJBCoefficients((lambda x: -(g * x),), (lambda x: np.zeros(x.shape[:-1]),), "euclidean", "ou(b=-gamma*x)")
        return "OUtype", coeffs, {"gammas": g}
    raise ValueError(f"unknown Lyapunov fixture {name!r}")


def _ou_gammas(gammas, dims) -> np.ndarray:
    if gammas is None:
        raise ValueError("OUtype needs the gamma vector")
    g = np.asarray(gammas, dtype=float)
    # NaN fails g > 0 and inf is not finite: neither is a positive real.
    if g.shape != (dims.n,) or not np.all(np.isfinite(g) & (g > 0.0)):
        raise ValueError(f"gammas must be {dims.n} positive reals")
    return g


def _drift_margin(pts, rho, data, r, gammas):
    """Margin r - max_k (b_k . eta - c_k rho^4 log rho) / |x_H|^2 of horizontal drifts."""
    bs, cs = operators._controls(data, pts, rho.shape)
    et, lg = hgroup._eta(pts, s := hgroup._hsq(pts)), np.log(rho)
    terms = [hgroup._rowdot(bv, et) / s - cv * rho**4 * lg / s for bv, cv in zip(bs, cs)]
    lhs = np.max(np.stack(terms), axis=0)
    m = r - lhs
    return m[None], np.abs(lhs) + abs(r), {"min_margin": _extreme(np.min, m)}


def _eta_margin(data: _EtaFamily, rho, tau, r):
    """_drift_margin's (margins, magnitude, components) and each control's two terms from (rho, tau) alone:
    b_k . eta / s = beta_k rho^4 and c_k rho^4 log rho / s = c_k rho^2 log rho / tau^2."""
    rho2 = rho * rho
    rho4, cost = rho2 * rho2, rho2 * np.log(rho) / (tau * tau)
    terms = [(b * rho4, c * cost) for b, c in zip(data.betas, data.levels)]
    lhs = functools.reduce(np.maximum, [p - q for p, q in terms])
    m = r - lhs
    return m[None], np.abs(lhs) + abs(r), {"min_margin": _extreme(np.min, m)}, terms


def _barrier_margin(pts, rho, data, r, gammas):
    """Margin c rho^4 log rho / s + r - (b . eta + g |eta|) / s, s = |x_H|^2."""
    bv = _finite("bbar", data.bbar(pts))
    gv = np.broadcast_to(_finite("gbar", data.gbar(pts)), rho.shape)
    cv = np.broadcast_to(_finite("cbar", data.cbar(pts)), rho.shape)
    if np.any(gv < 0.0) or np.any(cv < 0.0):
        raise ValueError("gbar and cbar must be nonnegative")
    et = hgroup._eta(pts, s := hgroup._hsq(pts))
    lhs = hgroup._rowdot(bv, et) / s + gv * np.sqrt(hgroup._rowdot(et, et)) / s
    rhs = cv * rho**4 * np.log(rho) / s + r
    m = rhs - lhs
    return m[None], np.abs(lhs) + np.abs(rhs), {"min_margin": _extreme(np.min, m)}


def _ou_margin(pts, rho, data, r, g):
    """The smaller of the scaled drift margin against -gamma x and the proof's margin, c1 = -r."""
    c1 = -r
    bs, cs = operators._controls(data, pts, rho.shape)
    grad_rho, s, lg = hgroup.euclid_grad_rho(pts, rho), hgroup._hsq(pts), np.log(rho)
    dots = [hgroup._rowdot(bv, grad_rho) for bv in bs]
    drift_dot = np.max(np.stack(dots), axis=0)
    ou_dot = hgroup._rowdot(pts * g, grad_rho)
    hyp = rho**3 * (-ou_dot - drift_dot)
    proof_min = np.min(np.stack([cv * lg - dot / rho for dot, cv in zip(dots, cs)]), axis=0)
    proof = -c1 * s / rho**4 + proof_min
    mag = np.maximum(rho**3 * (np.abs(ou_dot) + np.abs(drift_dot)), c1 * s / rho**4 + np.abs(proof_min))
    components = {"min_scaled_drift_margin": _extreme(np.min, hyp), "min_proof_margin": _extreme(np.min, proof)}
    return np.minimum(hyp, proof)[None], mag, components


def _cost_margin(pts, rho, data, r, gammas):
    """Cost margin min_k c_k log rho; second part: the radial drift sign max_k b_k . grad rho <= 0."""
    bs, cs = operators._controls(data, pts, rho.shape)
    lg = np.log(rho)
    c_margin = np.min(np.stack([cv * lg for cv in cs]), axis=0)
    grad_rho = hgroup.euclid_grad_rho(pts, rho)
    sign = np.max(np.stack([hgroup._rowdot(bv, grad_rho) for bv in bs]), axis=0)
    components = {"min_cost_margin": _extreme(np.min, c_margin), "max_drift_sign": _extreme(np.max, sign)}
    return np.stack([c_margin, -sign]), np.abs(c_margin) + np.abs(sign), components


def _placed_check(batch, data: _EtaFamily, r, rows, pts, rho, tau) -> dict:
    """The chart path's guard: compare _eta_margin with _drift_margin at the guard rows' points, at their own (rho, tau).

    A NaN placed margin raises the NaN rule's error and an infinite one is counted.  A finite one must lie
    within (2m + 24) eps M of the closed form, M = max_k (|beta_k| rho^4 + c_k rho^2 |log rho| / tau^2) + |r|,
    twice the first-order bound on their rounding derived in README's Growth conditions.
    """
    placed = _drift_margin(pts, rho, data, r, None)[0][0]
    if np.isnan(placed).any():
        row = rows[np.argmax(np.isnan(placed))]
        raise _nan_error("lyapunov", batch.radius[row], batch.tau[row])
    margins, _, _, terms = _eta_margin(data, rho, tau, r)
    fin = np.isfinite(placed)
    scale = (functools.reduce(np.maximum, [np.abs(p) + np.abs(q) for p, q in terms]) + abs(r))[fin]
    diff = np.abs(placed - margins[0])[fin]
    bad = ~(diff <= (2 * pts.shape[1] + 22) * _EPS * scale)  # m = dim - 1
    if np.any(bad):
        k = int(np.flatnonzero(fin)[np.argmax(bad)])
        raise ValueError(f"chart and placed margins disagree at point {pts[k].tolist()}: {margins[0][k]!r} against {placed[k]!r}")
    return {"n": int(pts.shape[0]), "n_overflow": int(np.count_nonzero(~fin)), "max_abs_diff": float(diff.max(initial=0.0)),
            "max_rel_diff": float((diff / np.maximum(1.0, scale)).max(initial=0.0))}


@dataclass(frozen=True)
class LyapunovRoute:
    """How check_lyapunov tests one condition on one kind of data.

    operator names the table operator whose supersolution inequality on
    log rho the margin rescales, or None; the threshold r is log_rho's
    closed form for it (gallery.PROFILES) at rho = tau = 1, computed before
    sampling, so a missing or bad alpha is refused even where no point is
    admissible.
    margin(pts, rho, data, r, gammas) returns, for one chunk of points,
    (margins (parts, N), magnitude for the allowance, components); margins
    are positive where a part holds, and the witness and scan report the
    first part.  Components are named min_* or max_*, and _fold_chunks
    folds them over chunks by that prefix.  A strict part needs margin > 0.
    A route for any data but a Euclidean family divides by |x_H|^2: char_eps > 0.
    """

    operator: str | None
    margin: Callable
    strict: tuple[bool, ...]


# condition -> kind of data -> route.
LYAPUNOV_CONDITIONS: dict[str, dict[str, LyapunovRoute]] = {
    "condcor1": {"horizontal": LyapunovRoute("pucci_min", _drift_margin, (False,))},
    "condcor1bis": {"barrier": LyapunovRoute("pucci_min", _barrier_margin, (False,))},
    "condcor1p": {"horizontal": LyapunovRoute("pucci_minus_alpha", _drift_margin, (False,))},
    "OUtype": {"euclidean": LyapunovRoute("pucci_min", _ou_margin, (False,))},
    "schrodinger": {
        "horizontal": LyapunovRoute("pucci_min", _drift_margin, (True,)),
        "euclidean": LyapunovRoute(None, _cost_margin, (True, False)),
    },
}


def _data_kind(data) -> str | None:
    """The table's kind of data: HJBCoefficients by gradient space, or "barrier"."""
    if isinstance(data, BarrierBundle):
        return "barrier"
    return data.gradient_space if isinstance(data, HJBCoefficients) else None


def check_lyapunov(
    cond: str,
    data,
    e: Ellipticity,
    region: Region,
    dims: HeisDims,
    *,
    alpha: float | None = None,
    gammas=None,
    tol: float = 1e-9,
) -> CheckReport:
    """Test a coefficient growth condition on sampled points.

    The route is LYAPUNOV_CONDITIONS[cond][kind of data] (TypeError if none).
    alpha and gammas, when given, must be valid on every route (0 < alpha <=
    1/m, and n positive reals), checked before sampling.
    The verdict requires margin >= -allowance at every admissible sample, or
    margin > 0 for a strict part.  An R-ladder scan of the worst margin over
    rho >= R is attached as evidence at sampled scales.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    routes = LYAPUNOV_CONDITIONS.get(cond)
    if routes is None:
        raise ValueError(f"unknown condition {cond!r}")
    kind = _data_kind(data)
    route = routes.get(kind)
    if route is None:
        raise TypeError(f"{cond} expects {' or '.join(routes)} data, got {kind or 'other'} data ({type(data).__name__})")
    if kind != "euclidean" and region.char_eps <= 0.0:
        raise ValueError(f"{cond} divides by |x_H|^2; the region needs char_eps > 0")
    # alpha and gammas are checked whenever given, also on routes that do
    # not read them, since the report echoes them.
    if alpha is not None:
        PucciAlpha(alpha, dims.m)
    g = None if gammas is None and cond != "OUtype" else _ou_gammas(gammas, dims)
    r = None
    if route.operator is not None:
        # OperatorSpec refuses a missing alpha.
        spec = OperatorSpec(route.operator, ell=e, alpha=alpha)
        r = float(gallery.PROFILES["log_rho"].closed_forms[route.operator](1.0, 1.0, dims, spec.params)[0])
    batch = sample_region(region, space="heisenberg", dim=dims.n)
    config = {
        "condition": cond,
        "d": dims.d,
        "lam": e.lam,
        "Lam": e.Lam,
        "alpha": alpha,
        "gammas": None if gammas is None else [float(v) for v in np.atleast_1d(gammas)],
        "coefficients": getattr(data, "label", ""),
        "region": dataclasses.asdict(region),
    }
    ladder = [region.rho_min * 2.0**j for j in range(8)]
    scan = [{"R": float(R), "n": 0, "min_margin": None} for R in ladder if R <= region.rho_max]
    chart = isinstance(data, _EtaFamily) and route.margin is _drift_margin

    def chunk(rows, pts):
        rho = batch.radius[rows]
        margins, mag, components = _eta_margin(data, rho, batch.tau[rows], r)[:3] if chart else route.margin(pts, rho, data, r, g)
        margin = margins[0]
        for entry in scan:
            sel = rho >= entry["R"]
            if np.any(sel):
                entry["n"] += int(np.count_nonzero(sel))
                entry["min_margin"] = _running(np.min, entry["min_margin"], margin[sel])
        named = {"n_evaluated": rows.size, "n_looked": rows.size, **components}
        return -margins, mag, named, lambda k: {"margin": float(margin[k])}

    def finish(folded, verdict, checked):
        paths = {"chart": batch.n_admissible, "placed": 0, "placed_check": checked} if chart else None
        return {"scan": scan, "components": folded, "paths": paths}

    with np.errstate(all="ignore"):  # the NaN and overflow rules decide, not numpy's warnings
        return _fold_chunks("lyapunov", batch, region, tol, config, t0, chunk, finish, reads_points=not chart,
                            guard=functools.partial(_placed_check, batch, data, r) if chart else None, strict=route.strict)
