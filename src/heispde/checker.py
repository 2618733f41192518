"""Sampled verification of operator inequalities and growth conditions.

The checker draws admissible points from an annulus of gauge radii, excludes
tubes around the characteristic set (|x_H|/rho < char_eps) and around
declared gluing radii (|rho - r_k| < kink_eps), evaluates the requested
operator exactly through the field's closed-form derivatives, and reports a
pass/fail/vacuous verdict with the worst signed violation and a witness.

Points are placed through the chart (rho, tau = |x_H|/rho, vertical sign,
horizontal direction) by a Kronecker low-discrepancy sequence or a grid
(see Region).  The batch keeps the chart's radius and tau; the tubes, the
spectral path, the reference formulas and the witness read them instead of
computing the gauge norm of the points again.  Points are placed on
demand: the Kronecker sampler draws only rho (and tau on the group) for
every sample, and SampleBatch.place(rows) draws the sign and direction of
just those rows.  The sequence has random access, so a row placed alone is
bit-identical to the same row of the full batch, and SampleBatch.points is
built the first time it is read.  A spectral run without a Bellman part or
keep_samples places only the dense-check rows and the witness; every other
run places its admissible rows once.  Results do not depend on which rows
were placed.  Only numpy is used.

A point passes the declared sense when the signed excess does not exceed
max(1e-12, tol * max(1, local operator magnitude)); the raw per-sample
operator values are available for stricter downstream assertions.

Two paths evaluate the second-order part.  The spectral path takes every
ScalarField whose jets are its own radial profile (profile set and
field.name == profile.name; negation negates both): it reads rho (or r) and
w = tau^2 from the batch and f, f', f'' from the profile, and takes the
sorted eigenvalues from RadialHessSpectrum (EuclidRadialSpectrum on R^n).
The gradient is the eigenvector of f'' w, so e_q = f'' w and |q|^2 = f'^2 w
(w = 1 on R^n).  The dense path takes fields without an own profile and
TabulatedField rows: it forms the horizontal Hessian from the Euclidean
jets, calls eigvalsh and takes e_q from the matrix.  After a spectral run
the dense path evaluates again at most 256 evenly spaced admissible points;
if an eigenvalue (or e_q) differs by more than the check's allowance the
run raises ValueError instead of reporting a verdict.  The report's "paths"
block gives the points each path evaluated and, as "dense_check", that
subsample's size n and its largest absolute and relative (to max(1, |e|))
differences.

Growth conditions are data: LYAPUNOV_CONDITIONS maps a condition and the
kind of data it gets to a LyapunovRoute (margin function, strict, divides by
|x_H|^2); non-finite coefficient values raise ValueError.  Every check takes
its verdict, worst excess and witness from one rule, _pass_rule.

Reports are deterministic functions of (config, seed): identical inputs give
identical reports except for wall_time.  The checker runs on the calling
thread.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gallery, hgroup, operators
from .gallery import ScalarField
from .hgroup import HeisDims
from .operators import Ellipticity, HJBCoefficients, PucciAlpha

__all__ = [
    "BarrierBundle",
    "CheckReport",
    "ConvergenceResult",
    "LYAPUNOV_CONDITIONS",
    "Region",
    "OperatorSpec",
    "SECOND_ORDER_OPS",
    "TabulatedField",
    "check_inequality",
    "check_lyapunov",
    "check_tabulated",
    "convergence_study",
    "fd_h_hessian",
    "lyapunov_fixture",
    "sample_region",
]

SCHEMA = "heispde-report-v1"
# No longer read: the checker is single-threaded.  perfbench still sets it.
THREADS_ENV = "HEISPDE_THREADS"

SECOND_ORDER_OPS = tuple(operators.OPERATORS)

_ABS_FLOOR = 1e-12
# Fractional bits of phi when the Kronecker steps are computed.
_PHI_BITS = 96
# Points of a spectral-path run that the dense path evaluates again.
_DENSE_CHECK_POINTS = 256


@dataclass(frozen=True)
class Region:
    """Sampling annulus and admissibility tubes.

    Both samplers work in the chart (rho, tau = |x_H|/rho, vertical sign,
    horizontal direction), which parametrizes exactly the data gauge-radial
    operators depend on; on R^n the chart is (r, direction).  sampler
    "kronecker" draws a randomly shifted Kronecker (R_k, generalized golden
    ratio) sequence, seeded by seed, with log rho spread over the whole
    annulus, so the largest gap in log-radius shrinks like 1/n_samples;
    tau is uniform on (0, 1), the sign and the direction come from the
    remaining coordinates.  "grid" builds a deterministic product of a
    radius ladder with a ladder in tau (both vertical signs, horizontal axes
    cycling).
    """

    rho_min: float
    rho_max: float
    n_samples: int = 4096
    seed: int = 0
    char_eps: float = 1e-3
    kink_eps: float = 1e-6
    sampler: str = "kronecker"

    def __post_init__(self) -> None:
        if not (
            np.isfinite(self.rho_min)
            and np.isfinite(self.rho_max)
            and 0.0 < self.rho_min < self.rho_max
        ):
            raise ValueError("need 0 < rho_min < rho_max < inf")
        if int(self.n_samples) != self.n_samples or self.n_samples < 1:
            raise ValueError("n_samples must be a positive integer")
        if not 0.0 <= self.char_eps < 1.0:
            raise ValueError("char_eps must lie in [0, 1)")
        if not (np.isfinite(self.kink_eps) and self.kink_eps >= 0.0):
            raise ValueError("kink_eps must be finite and nonnegative")
        if self.sampler not in ("kronecker", "grid"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class OperatorSpec:
    """Operator expression F[u] = second-order part + optional Bellman part.

    sense "subsolution" tests F[u] <= 0, "supersolution" tests F[u] >= 0.
    gradient_space picks which gradient feeds the Bellman part and the
    normalized p-Laplacian; None means the field's natural one (horizontal
    on the group, Euclidean otherwise).  pnorm pairs the gradient with the
    horizontal Hessian, so a group field under pnorm with a Euclidean
    gradient is rejected (ValueError) when the check starts.
    """

    second_order: str
    sense: str = "subsolution"
    ell: Ellipticity | None = None
    alpha: float | None = None
    p: float | None = None
    first_order: HJBCoefficients | None = None
    envelope: str = "inf"
    gradient_space: str | None = None
    zero_tol: float = 1e-12

    def __post_init__(self) -> None:
        operators.operator_entry(self.second_order, self.params)
        if self.sense not in ("subsolution", "supersolution"):
            raise ValueError(f"unknown sense {self.sense!r}")
        if self.envelope not in ("inf", "sup"):
            raise ValueError(f"unknown envelope side {self.envelope!r}")
        if self.gradient_space not in (None, "horizontal", "euclidean"):
            raise ValueError(f"unknown gradient space {self.gradient_space!r}")
        if (
            self.first_order is not None
            and self.gradient_space is not None
            and self.first_order.gradient_space != self.gradient_space
        ):
            raise ValueError("gradient_space disagrees with the Bellman family")

    @property
    def params(self) -> dict:
        """Parameters in the form the operators table reads."""
        return {"ell": self.ell, "alpha": self.alpha, "p": self.p, "zero_tol": self.zero_tol}


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


@dataclass
class CheckReport:
    """Outcome of one verification run.  to_dict() is JSON-ready."""

    kind: str
    verdict: str
    worst_violation: float | None
    tol: float
    n_samples: int
    n_evaluated: int
    n_excluded: int
    excluded_by: dict
    witness: dict | None
    config: dict
    formula_comparison: dict | None = None
    scan: list | None = None
    components: dict | None = None
    paths: dict | None = None
    wall_time: float = 0.0
    samples: dict | None = None

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "tol": self.tol,
            "n_samples": self.n_samples,
            "n_evaluated": self.n_evaluated,
            "n_excluded": self.n_excluded,
            "excluded_by": self.excluded_by,
            "witness": self.witness,
            "formula_comparison": self.formula_comparison,
            "scan": self.scan,
            "components": self.components,
            "paths": self.paths,
            "config": self.config,
            "wall_time": self.wall_time,
        }


@dataclass
class SampleBatch:
    """Chart coordinates and admissibility of a sample; points on demand.

    place(rows) returns the points of the given rows, shape (len(rows), dim),
    bit-identical to the same rows of points.  points is place(every row),
    built the first time it is read.
    """

    radius: np.ndarray
    tau: np.ndarray | None
    admissible: np.ndarray
    excluded_by: dict
    place: Callable[[np.ndarray], np.ndarray]

    @functools.cached_property
    def points(self) -> np.ndarray:
        return self.place(np.arange(self.radius.shape[0]))

    @property
    def n_admissible(self) -> int:
        return int(self.admissible.sum())


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
    """The seed's random shift of the R_k sequence, one 64-bit word per coordinate."""
    return np.random.default_rng(seed).integers(0, 2**64, size=k, dtype=np.uint64)


def _kronecker_unit(i, shift: np.ndarray, coords=None) -> list[np.ndarray]:
    """Coordinates coords (default all) of the R_k sequence shifted by shift.

    k = len(shift); i is a count n (points 0..n-1) or an array of point indices.
    x_i = s + i a (mod 2^64) in 64-bit fixed point; the top 53 bits name a
    dyadic cell and its midpoint is returned, so every value lies in (0, 1).
    Each point depends only on its own index, so any subset of rows is
    bit-identical to the same rows of the full sequence.  Coordinates are
    made one at a time, so no (k, n) integer array is held.
    """
    k = shift.shape[0]
    steps = _kronecker_steps(k)
    idx = np.arange(i, dtype=np.uint64) if np.ndim(i) == 0 else np.asarray(i).astype(np.uint64)
    cols = []
    for j in range(k) if coords is None else coords:
        x = idx * steps[j]
        x += shift[j]
        x >>= np.uint64(11)
        u = x.astype(float)
        u += 0.5
        u *= 2.0**-53
        cols.append(u)
    return cols


def _unit_vectors(u: list[np.ndarray], m: int) -> np.ndarray:
    """Unit vectors in R^m from 2 * ceil(m / 2) uniform coordinates (Box-Muller pairs)."""
    g = np.empty((u[0].shape[0], 2 * ((m + 1) // 2)))
    for j in range(0, g.shape[1], 2):
        r = np.sqrt(-2.0 * np.log(u[j]))
        theta = 2.0 * np.pi * u[j + 1]
        g[:, j] = r * np.cos(theta)
        g[:, j + 1] = r * np.sin(theta)
    g = g[:, :m]
    return g / np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]


def _sample_points(region: Region, space: str, dim: int):
    """(radius, tau, place) for the region's sampler; tau is None on R^n.

    Both samplers work in the chart (rho, tau, vertical sign, horizontal
    direction), (r, direction) on R^n.  The Kronecker sampler draws only
    rho and tau for every sample; place(rows) draws the sign and direction
    of the given rows and returns their points.  The grid sampler builds
    its points at once and place indexes them.
    """
    n = region.n_samples
    if region.sampler == "kronecker":
        euclid = space == "euclidean"
        m = dim if euclid else dim - 1
        # Coordinates: rho[, tau, sign], then the direction's Box-Muller pairs.
        # The first `chart` of them are drawn for every sample, the rest by place.
        chart = 1 if euclid else 2
        k = (1 if euclid else 3) + 2 * ((m + 1) // 2)
        shift = _kronecker_shift(k, region.seed)
        u = _kronecker_unit(n, shift, range(chart))
        lo = math.log(region.rho_min)
        r = np.exp(lo + (math.log(region.rho_max) - lo) * u[0])
        tau = None if euclid else u[1]

        def place(rows):
            rows = np.asarray(rows, dtype=np.intp)
            v = _kronecker_unit(rows, shift, range(chart, k))
            if euclid:
                return r[rows, None] * _unit_vectors(v, m)
            r_s, tau_s = r[rows], tau[rows]
            xh = (r_s * tau_s)[:, None] * _unit_vectors(v[1:], m)
            vert = np.where(v[0] < 0.5, 1.0, -1.0) * r_s**2 * np.sqrt(1.0 - tau_s**4)
            return np.concatenate([xh, vert[:, None]], axis=1)

        return r, tau, place
    if space == "euclidean":
        nr = max(1, int(math.ceil(n / (2.0 * dim))))
        rr = np.geomspace(region.rho_min, region.rho_max, nr)
        r_g, axis_g, sign_g = np.meshgrid(
            rr, np.arange(dim), np.array([1.0, -1.0]), indexing="ij"
        )
        r_g, axis_g, sign_g = (a.ravel()[:n] for a in (r_g, axis_g, sign_g))
        N = r_g.shape[0]
        pts = np.zeros((N, dim))
        pts[np.arange(N), axis_g.astype(int)] = sign_g * r_g
        return r_g, None, lambda rows: pts[rows]
    m = dim - 1
    nt = max(2, int(math.ceil(math.sqrt(n / 2.0))))
    nr = max(1, int(math.ceil(n / (2.0 * nt))))
    rr = np.geomspace(region.rho_min, region.rho_max, nr)
    tt = np.linspace(0.0, 1.0, nt)
    r_g, t_g, s_g = np.meshgrid(rr, tt, np.array([1.0, -1.0]), indexing="ij")
    r_g, t_g, s_g = (a.ravel()[:n] for a in (r_g, t_g, s_g))
    N = r_g.shape[0]
    xh = np.zeros((N, m))
    xh[np.arange(N), np.arange(N) % m] = r_g * t_g
    vert = s_g * r_g**2 * np.sqrt(np.clip(1.0 - t_g**4, 0.0, None))
    pts = np.concatenate([xh, vert[:, None]], axis=1)
    return r_g, t_g, lambda rows: pts[rows]


def _radius_tau(pts: np.ndarray, space: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Gauge (or Euclidean) radius and, on the group, tau = |x_H| / rho."""
    if space == "euclidean":
        return np.sqrt(np.einsum("ij,ij->i", pts, pts)), None
    d = (pts.shape[1] - 1) // 2
    rho = hgroup.hnorm(pts)
    xh2 = np.einsum("ij,ij->i", pts[:, : 2 * d], pts[:, : 2 * d])
    # tau = 0 at the identity, which lies outside every region anyway.
    return rho, np.divide(np.sqrt(xh2), rho, out=np.zeros_like(rho), where=rho > 0.0)


def _exclude_tubes(admissible, radius, tau, region, singular_radii, excluded_by) -> None:
    """Clear admissible inside the characteristic and kink tubes, counting by reason."""
    if tau is not None and region.char_eps > 0.0:
        hit = admissible & (tau < region.char_eps)
        if np.any(hit):
            excluded_by["characteristic_tube"] = int(hit.sum())
            admissible &= ~hit
    if region.kink_eps > 0.0:
        hit = np.zeros_like(admissible)
        for rk in singular_radii:
            hit |= np.abs(radius - rk) < region.kink_eps
        hit &= admissible
        if np.any(hit):
            excluded_by["kink_tube"] = int(hit.sum())
            admissible &= ~hit


def sample_region(
    region: Region,
    *,
    space: str,
    dim: int,
    singular_radii: tuple[float, ...] = (),
) -> SampleBatch:
    """Draw region.n_samples points and mark the admissible ones.

    Exclusions are counted by reason; n_admissible + sum(excluded_by.values())
    equals n_samples.
    """
    if space not in ("heisenberg", "euclidean"):
        raise ValueError(f"unknown space {space!r}")
    radius, tau, place = _sample_points(region, space, dim)
    admissible = np.ones(region.n_samples, dtype=bool)
    excluded_by: dict[str, int] = {}
    _exclude_tubes(admissible, radius, tau, region, singular_radii, excluded_by)
    return SampleBatch(radius, tau, admissible, excluded_by, place)


def _resolve_gspace(space: str, spec: OperatorSpec) -> str:
    gs = spec.gradient_space
    if gs is None and spec.first_order is not None:
        gs = spec.first_order.gradient_space
    if gs is None:
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


def _dense_jets(field, pts: np.ndarray, rows: np.ndarray, gspace: str, reads_e_q: bool):
    """(value, q, eigenvalues, e_q, |q|^2) from the Euclidean jets; e_q, |q|^2 if reads_e_q."""
    if isinstance(field, TabulatedField):
        val = field.values[rows]
        grad = field.gradients[rows]
        hess = field.hessians[rows]
    else:
        val = np.asarray(field.value(pts), dtype=float)
        grad = np.asarray(field.gradient(pts), dtype=float)
        hess = np.asarray(field.hessian(pts), dtype=float)
    if field.space == "heisenberg":
        mat = hgroup.h_hessian(grad, hess, pts)
        q = hgroup.h_gradient(grad, pts) if gspace == "horizontal" else grad
    else:
        mat = 0.5 * (hess + np.swapaxes(hess, -1, -2))
        q = grad
    e_q, qq = operators.rayleigh_quotient(q, mat) if reads_e_q else (None, None)
    return val, q, operators.sym_eigenvalues(mat), e_q, qq


def _spectral_jets(profile, dim: int, pts, radius, tau, gspace: str, reads_e_q: bool, needs_q: bool):
    """(value, gradient q, eigenvalues, e_q, |q|^2) of a radial field from its profile.

    radius and tau are the sampler's own; the sorted eigenvalues come from
    the closed-form spectrum, so no Hessian is built and no eigenproblem is
    solved.  q is None unless needs_q, e_q and |q|^2 unless reads_e_q; pts
    (N, dim) is read only for q.
    """
    val, fp, fpp = profile.jets(radius)
    q = e_q = qq = None
    if profile.kind == "heisenberg":
        w = tau**2
        spectrum = hgroup.RadialHessSpectrum.from_jets(fp, fpp, w, radius, (dim - 1) // 2)
        if needs_q and gspace == "horizontal":
            q = hgroup.radial_h_gradient(lambda _: fp, pts, radius)
        elif needs_q:
            q = fp[:, None] * hgroup.euclid_grad_rho(pts, radius)
    else:
        w = 1.0
        spectrum = gallery.EuclidRadialSpectrum.from_jets(fp, fpp, radius, dim)
        if needs_q:
            q = spectrum.tangential[:, None] * pts
    if reads_e_q:
        # The gradient is the eigenvector of f'' w; e_q is 0 where q = 0, as on the dense path.
        qq = fp * fp * w
        e_q = np.where(qq > 0.0, fpp * w, 0.0)
    return val, q, spectrum.eigenvalues(), e_q, qq


def _terms_for(field, spec: OperatorSpec, gspace: str, profile, pts, rows, radius, tau) -> dict:
    """Evaluate operator ingredients at the given batch rows.

    pts (N, dim) are the points of those rows, which are also the rows of a
    TabulatedField; radius and tau are the batch's at those rows.  With a
    profile the spectral path evaluates them, otherwise the dense path.  The
    spectral path reads pts only for a Bellman part; without one pts may be
    None.
    """
    entry = operators.OPERATORS[spec.second_order]
    if profile is None:
        val, q, eigs, e_q, qq = _dense_jets(field, pts, rows, gspace, entry.reads_e_q)
    else:
        val, q, eigs, e_q, qq = _spectral_jets(
            profile, field.dim, pts, radius, tau, gspace, entry.reads_e_q, spec.first_order is not None
        )

    second = entry.value(eigs, e_q, spec.params)
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
        "eigs": eigs,
        "second": second,
        "first": first,
        "total": second + first,
        "alive": alive,
        **({} if e_q is None else {"e_q": e_q}),
    }


def _dense_check(field, gspace, points_at, rows, terms, tol) -> dict:
    """Evaluate evenly spaced points again on the dense path; compare spectra.

    points_at(k) gives the points at positions k of rows.  e_q, when the
    operator reads it, is compared as one more eigenvalue.  The subsample
    depends only on the number of points.
    Raises ValueError when a value differs by more than the check's own
    allowance, so a verdict from disagreeing paths is never reported.
    """
    n = rows.shape[0]
    idx = np.linspace(0, n - 1, min(n, _DENSE_CHECK_POINTS)).astype(np.intp)
    pts = points_at(idx)
    _, _, dense, dense_e_q, _ = _dense_jets(field, pts, rows[idx], gspace, "e_q" in terms)
    got = terms["eigs"][idx]
    if dense_e_q is not None:
        got = np.column_stack([got, terms["e_q"][idx]])
        dense = np.column_stack([dense, dense_e_q])
    diff = np.abs(got - dense)
    bad = diff > _allowance(tol, np.abs(dense))
    if np.any(bad):
        k = int(np.flatnonzero(bad.any(axis=-1))[0])
        what = "eigenvalues" if dense_e_q is None else "eigenvalues and e_q"
        raise ValueError(
            f"spectral and dense paths disagree at point {pts[k].tolist()}: "
            f"{what} {got[k].tolist()} against {dense[k].tolist()}"
        )
    return {
        "n": int(idx.size),
        "max_abs": float(diff.max()),
        "max_rel": float((diff / np.maximum(1.0, np.abs(dense))).max()),
    }


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _allowance(tol: float, mag: np.ndarray) -> np.ndarray:
    return np.maximum(_ABS_FLOOR, tol * np.maximum(1.0, mag))


def _pass_rule(excess, allowance, strict=False) -> tuple[str, float, int]:
    """(verdict, worst excess, witness position) of excesses (N,) or (parts, N).

    Points not looked at hold -inf.  A point fails a part where the excess is
    above the allowance or, for a strict part (strict: one flag or one per
    part), where it is >= 0; a NaN fails.  The witness is the point farthest
    above its allowance.
    """
    excess = np.atleast_2d(excess)
    strict = np.broadcast_to(strict, excess.shape[:1])
    viol = excess - allowance
    viol[strict] = excess[strict]  # a strict part is granted no allowance
    top = viol.max(axis=1)
    ok = np.all(np.where(strict, top < 0.0, top <= 0.0))
    return ("pass" if ok else "fail"), float(excess.max()), int(np.argmax(viol.max(axis=0)))


# (profile, operator) -> closed-form operator values: (rho, tau, profile
# params, spec) -> (values, where they hold).
_REFERENCES = {
    ("log_rho", "pucci_min"): lambda rho, tau, p, spec: (
        (spec.ell.lam - spec.ell.Lam * (p["Q"] - 1)) * tau**2 / rho**2, np.ones_like(rho, bool)
    ),
    ("log_rho", "pucci_minus_alpha"): lambda rho, tau, p, spec: (
        (4.0 * p["d"] * spec.alpha - 3.0) * tau**2 / rho**2, np.ones_like(rho, bool)
    ),
    ("u_tilde", "neg_trace"): lambda rho, tau, p, spec: (
        np.where(rho < 1.0, 0.5 * (p["Q"] - 2.0) * p["Q"] * (p["Q"] + 2.0) * (1.0 - rho**2) * tau**2, 0.0),
        np.ones_like(rho, bool),
    ),
    ("folland", "neg_trace"): lambda rho, tau, p, spec: (np.zeros_like(rho), np.ones_like(rho, bool)),
    **{
        (name, "pucci_max"): lambda rho, tau, p, spec: (np.zeros_like(rho), rho >= 1.0)
        for name in ("u4", "u5", "u2", "u3")
    },
}


def _witness(batch, points_at, rows, terms, excess, allow, k):
    row = rows[k]
    return {
        "point": [float(v) for v in points_at([k])[0]],
        "radius": float(batch.radius[row]),
        "tau": None if batch.tau is None else float(batch.tau[row]),
        "value": float(terms["value"][k]),
        "eigenvalues": [float(v) for v in terms["eigs"][k]],
        "second_order": float(terms["second"][k]),
        "first_order": float(terms["first"][k]),
        "total": float(terms["total"][k]),
        "excess": float(excess[k]),
        "allowance": float(allow[k]),
    }


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
        "gradient_space": spec.gradient_space,
        "zero_tol": spec.zero_tol,
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


def _vacuous_report(kind, tol, region, batch, config, t0) -> CheckReport:
    return CheckReport(
        kind=kind,
        verdict="vacuous",
        worst_violation=None,
        tol=tol,
        n_samples=region.n_samples,
        n_evaluated=0,
        n_excluded=region.n_samples,
        excluded_by=dict(batch.excluded_by),
        witness=None,
        config=config,
        wall_time=time.perf_counter() - t0,
    )


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
    tol * max(1, |reference|) pointwise.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    if mode not in ("sense", "formula"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(field, TabulatedField):
        raise TypeError("use check_tabulated for tabulated fields")

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
        field, spec, region, tol, mode, keep_samples, batch, config, t0
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
        table, spec, region, tol, "sense", keep_samples, batch, config, t0
    )


def _inequality_from_batch(
    field, spec, region, tol, mode, keep_samples, batch, config, t0
) -> CheckReport:
    gspace = _resolve_gspace(field.space, spec)
    adm = batch.admissible
    if not np.any(adm):
        return _vacuous_report("inequality", tol, region, batch, config, t0)

    rows = np.flatnonzero(adm)
    rho_adm = batch.radius[rows]
    tau_adm = None if batch.tau is None else batch.tau[rows]
    profile = _own_profile(field)
    # The spectral path reads only the chart.  Without a Bellman part or
    # keep_samples it places just the dense-check rows and the witness.
    pts = None
    if profile is None or spec.first_order is not None or keep_samples:
        pts = batch.place(rows)

    def points_at(k):
        """Points at positions k of rows."""
        return batch.place(rows[k]) if pts is None else pts[k]

    terms = _terms_for(field, spec, gspace, profile, pts, rows, rho_adm, tau_adm)
    n_adm = rows.shape[0]
    paths = {
        "spectral": 0 if profile is None else n_adm,
        "dense": n_adm if profile is None else 0,
        "dense_check": None if profile is None else _dense_check(
            field, gspace, points_at, rows, terms, tol
        ),
    }

    alive = terms["alive"]
    excluded_by = dict(batch.excluded_by)
    if not np.all(alive):
        excluded_by["zero_gradient"] = int((~alive).sum())
    n_evaluated = int(alive.sum())
    if n_evaluated == 0:
        rep = _vacuous_report("inequality", tol, region, batch, config, t0)
        rep.excluded_by = excluded_by
        rep.paths = paths
        return rep

    formula = None
    if mode == "formula":
        key = (getattr(getattr(field, "profile", None), "name", None), spec.second_order)
        reference = None if profile is None else _REFERENCES.get(key)
        if reference is None:
            raise ValueError(f"no closed-form reference registered for {key!r}")
        ref_vals, ref_valid = reference(rho_adm, tau_adm, profile.params, spec)
        use = ref_valid & alive
        dev = np.abs(terms["total"] - ref_vals)
        looked, value, allow = use, dev, _allowance(tol, np.abs(ref_vals))
        nonzero = use & (ref_vals != 0.0)
        max_rel = float((dev[nonzero] / np.abs(ref_vals[nonzero])).max()) if np.any(nonzero) else None
        formula = {
            "n_compared": int(use.sum()),
            "n_nonzero_reference": int(nonzero.sum()),
            "max_abs_deviation": float(dev[use].max()) if np.any(use) else None,
            "max_rel_deviation": max_rel,
        }
    else:
        factor = operators.OPERATORS[spec.second_order].magnitude(spec.params)
        allow = _allowance(tol, factor * np.abs(terms["eigs"]).sum(axis=-1) + np.abs(terms["first"]))
        looked, value = alive, terms["total"] if spec.sense == "subsolution" else -terms["total"]
    if np.any(looked):
        excess = np.where(looked, value, -np.inf)
        verdict, worst, k = _pass_rule(excess, allow)
        witness = _witness(batch, points_at, rows, terms, excess, allow, k)
    else:
        verdict, worst, witness = "vacuous", None, None
    if formula is not None:
        formula["pass"] = verdict == "pass"

    samples = {"points": pts, "radius": rho_adm, "tau": tau_adm, **terms} if keep_samples else None

    return CheckReport(
        kind="inequality",
        verdict=verdict,
        worst_violation=worst,
        tol=tol,
        n_samples=region.n_samples,
        n_evaluated=n_evaluated,
        n_excluded=region.n_samples - n_evaluated,
        excluded_by=excluded_by,
        witness=witness,
        config=config,
        formula_comparison=formula,
        paths=paths,
        wall_time=time.perf_counter() - t0,
        samples=samples,
    )


@dataclass(frozen=True)
class BarrierBundle:
    """Aggregated coefficient bounds b-bar, g-bar, c-bar (g, c nonnegative)."""

    bbar: Callable
    gbar: Callable
    cbar: Callable
    label: str = ""


def lyapunov_fixture(name: str, dims: HeisDims, *, gamma0: float = 1.0, c0: float = 1.0, gammas=None):
    """Built-in coefficient families: returns (condition, data, kwargs)."""
    m, n = dims.m, dims.n
    zero_vec_h = lambda x: np.zeros(x.shape[:-1] + (m,))  # noqa: E731
    zero_scalar = lambda x: np.zeros(x.shape[:-1])  # noqa: E731
    if name == "zero-coeffs":
        coeffs = HJBCoefficients(
            (zero_vec_h,), (zero_scalar,), "horizontal", label="zero-coeffs"
        )
        return "condcor1", coeffs, {}
    if name == "schro":
        coeffs = HJBCoefficients(
            (zero_vec_h,),
            (lambda x: np.full(x.shape[:-1], float(c0)),),
            "horizontal",
            label=f"schro(c0={c0})",
        )
        return "schrodinger", coeffs, {}
    if name == "hou":
        coeffs = HJBCoefficients(
            (lambda x: -float(gamma0) * hgroup.eta(x),),
            (zero_scalar,),
            "horizontal",
            label=f"hou(gamma0={gamma0})",
        )
        return "condcor1", coeffs, {}
    if name == "ou":
        g = np.ones(n) if gammas is None else np.asarray(gammas, dtype=float)
        coeffs = HJBCoefficients(
            (lambda x: -(g * x),),
            (zero_scalar,),
            "euclidean",
            label="ou(b=-gamma*x)",
        )
        return "OUtype", coeffs, {"gammas": g}
    raise ValueError(f"unknown Lyapunov fixture {name!r}")


def _finite(what: str, values) -> np.ndarray:
    """values as a float array; ValueError unless every entry is finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} values must be finite")
    return arr


def _xh2(pts: np.ndarray) -> np.ndarray:
    """|x_H|^2 of group points."""
    return np.einsum("ij,ij->i", pts[:, :-1], pts[:, :-1])


def _drift_cost_arrays(coeffs: HJBCoefficients, pts, rho):
    bs, cs = [], []
    for b, c in zip(coeffs.drifts, coeffs.costs):
        bs.append(_finite("drift", b(pts)))
        cv = _finite("cost", c(pts))
        if np.any(cv < 0.0):
            raise ValueError("running costs must be nonnegative")
        cs.append(np.broadcast_to(cv, rho.shape))
    return bs, cs


def _pucci_rhs(e, dims, alpha) -> float:
    return e.lam - e.Lam * (dims.Q - 1)


def _alpha_rhs(e, dims, alpha) -> float:
    if alpha is None:
        raise ValueError("condcor1p needs alpha")
    PucciAlpha(alpha, dims.m)
    return 4.0 * dims.d * float(alpha) - 3.0


def _drift_margin(rhs):
    """Margin rhs - max_k (b_k . eta - c_k rho^4 log rho) / |x_H|^2 of horizontal drifts."""

    def margin(pts, rho, data, e, dims, alpha, gammas):
        bs, cs = _drift_cost_arrays(data, pts, rho)
        r = rhs(e, dims, alpha)
        et, s, lg = hgroup.eta(pts), _xh2(pts), np.log(rho)
        terms = [np.einsum("ij,ij->i", bv, et) / s - cv * rho**4 * lg / s for bv, cv in zip(bs, cs)]
        lhs = np.max(np.stack(terms), axis=0)
        m = r - lhs
        return m[None], np.abs(lhs) + abs(r), {"min_margin": float(m.min())}

    return margin


def _barrier_margin(pts, rho, data, e, dims, alpha, gammas):
    """Margin c rho^4 log rho / s + lam - Lam (Q - 1) - (b . eta + g |eta|) / s, s = |x_H|^2."""
    bv = _finite("bbar", data.bbar(pts))
    gv = np.broadcast_to(_finite("gbar", data.gbar(pts)), rho.shape)
    cv = np.broadcast_to(_finite("cbar", data.cbar(pts)), rho.shape)
    if np.any(gv < 0.0) or np.any(cv < 0.0):
        raise ValueError("gbar and cbar must be nonnegative")
    et, s = hgroup.eta(pts), _xh2(pts)
    lhs = np.einsum("ij,ij->i", bv, et) / s + gv * np.sqrt(np.einsum("ij,ij->i", et, et)) / s
    rhs = cv * rho**4 * np.log(rho) / s + _pucci_rhs(e, dims, alpha)
    m = rhs - lhs
    return m[None], np.abs(lhs) + np.abs(rhs), {"min_margin": float(m.min())}


def _ou_margin(pts, rho, data, e, dims, alpha, gammas):
    """The smaller of the scaled drift margin against -gamma x and the proof's margin."""
    if gammas is None:
        raise ValueError("OUtype needs the gamma vector")
    g = np.asarray(gammas, dtype=float)
    if g.shape != (dims.n,) or np.any(g <= 0.0):
        raise ValueError(f"gammas must be {dims.n} positive reals")
    bs, cs = _drift_cost_arrays(data, pts, rho)
    grad_rho, s, lg = hgroup.euclid_grad_rho(pts, rho), _xh2(pts), np.log(rho)
    dots = [np.einsum("ij,ij->i", bv, grad_rho) for bv in bs]
    drift_dot = np.max(np.stack(dots), axis=0)
    ou_dot = np.einsum("ij,j,ij->i", pts, g, grad_rho)
    hyp = rho**3 * (-ou_dot - drift_dot)
    c1 = e.Lam * (2 * dims.d + 1) - e.lam
    proof_min = np.min(np.stack([cv * lg - dot / rho for dot, cv in zip(dots, cs)]), axis=0)
    proof = -c1 * s / rho**4 + proof_min
    mag = np.maximum(rho**3 * (np.abs(ou_dot) + np.abs(drift_dot)), c1 * s / rho**4 + np.abs(proof_min))
    components = {"min_scaled_drift_margin": float(hyp.min()), "min_proof_margin": float(proof.min())}
    return np.minimum(hyp, proof)[None], mag, components


def _cost_margin(pts, rho, data, e, dims, alpha, gammas):
    """Cost margin min_k c_k log rho; second part: the radial drift sign max_k b_k . grad rho <= 0."""
    bs, cs = _drift_cost_arrays(data, pts, rho)
    lg = np.log(rho)
    c_margin = np.min(np.stack([cv * lg for cv in cs]), axis=0)
    grad_rho = hgroup.euclid_grad_rho(pts, rho)
    sign = np.max(np.stack([np.einsum("ij,ij->i", bv, grad_rho) for bv in bs]), axis=0)
    components = {"min_cost_margin": float(c_margin.min()), "max_drift_sign": float(sign.max())}
    return np.stack([c_margin, -sign]), np.abs(c_margin) + np.abs(sign), components


@dataclass(frozen=True)
class LyapunovRoute:
    """How check_lyapunov tests one condition on one kind of data.

    margin(pts, rho, data, e, dims, alpha, gammas) returns (margins (parts,
    N), magnitude for the allowance, components); margins are positive where
    a part holds, and the witness and scan report the first part.  A strict
    part needs margin > 0.  divides_by_s: the region needs char_eps > 0.
    """

    margin: Callable
    strict: tuple[bool, ...]
    divides_by_s: bool


_PUCCI_DRIFT_MARGIN = _drift_margin(_pucci_rhs)

# condition -> kind of data -> route.
LYAPUNOV_CONDITIONS: dict[str, dict[str, LyapunovRoute]] = {
    "condcor1": {"horizontal": LyapunovRoute(_PUCCI_DRIFT_MARGIN, (False,), True)},
    "condcor1bis": {"barrier": LyapunovRoute(_barrier_margin, (False,), True)},
    "condcor1p": {"horizontal": LyapunovRoute(_drift_margin(_alpha_rhs), (False,), True)},
    "OUtype": {"euclidean": LyapunovRoute(_ou_margin, (False,), False)},
    "schrodinger": {
        "horizontal": LyapunovRoute(_PUCCI_DRIFT_MARGIN, (True,), True),
        "euclidean": LyapunovRoute(_cost_margin, (True, False), False),
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
    if route.divides_by_s and region.char_eps <= 0.0:
        raise ValueError(f"{cond} divides by |x_H|^2; the region needs char_eps > 0")
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
    adm = batch.admissible
    if not np.any(adm):
        return _vacuous_report("lyapunov", tol, region, batch, config, t0)

    rows = np.flatnonzero(adm)
    pts, rho = batch.place(rows), batch.radius[rows]
    margins, mag, components = route.margin(pts, rho, data, e, dims, alpha, gammas)
    allow = _allowance(tol, mag)
    verdict, worst, k = _pass_rule(-margins, allow, route.strict)
    margin = margins[0]
    witness = {
        "point": [float(v) for v in pts[k]],
        "radius": float(rho[k]),
        "tau": float(batch.tau[rows[k]]),
        "margin": float(margin[k]),
        "allowance": float(allow[k]),
    }
    ladder = [region.rho_min * 2.0**j for j in range(8)]
    scan = [
        {"R": float(R), "n": int(sel.sum()), "min_margin": float(margin[sel].min()) if np.any(sel) else None}
        for R in ladder
        if R <= region.rho_max
        for sel in [rho >= R]
    ]
    return CheckReport(
        kind="lyapunov",
        verdict=verdict,
        worst_violation=worst,
        tol=tol,
        n_samples=region.n_samples,
        n_evaluated=int(adm.sum()),
        n_excluded=region.n_samples - int(adm.sum()),
        excluded_by=dict(batch.excluded_by),
        witness=witness,
        config=config,
        scan=scan,
        components=components,
        wall_time=time.perf_counter() - t0,
    )


@dataclasses.dataclass
class ConvergenceResult:
    rows: list
    c_estimate: float
    n_points: int
    n_shrinks: int


def _stencil_offsets(dim: int) -> np.ndarray:
    rows = [np.zeros(dim)]
    eye = np.eye(dim)
    for i in range(dim):
        rows.append(eye[i])
        rows.append(-eye[i])
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    rows.append(si * eye[i] + sj * eye[j])
    return np.asarray(rows)


def fd_h_hessian(
    value_fn,
    x,
    h: float,
    *,
    space: str = "heisenberg",
    singular_radii: tuple[float, ...] = (),
    max_shrinks: int = 40,
    return_info: bool = False,
):
    """Central-difference horizontal (or Euclidean) Hessian at one point.

    The stencil is refused whenever it would straddle a declared gluing
    radius or the origin; the step is halved until it fits (recorded), and a
    ValueError is raised if max_shrinks halvings do not suffice.
    """
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 1:
        raise ValueError("fd_h_hessian works on a single point")
    dim = xa.shape[0]
    if h <= 0.0 or not np.isfinite(h):
        raise ValueError("step h must be positive and finite")
    offsets = _stencil_offsets(dim)

    def radius(p):
        return hgroup.hnorm(p) if space == "heisenberg" else np.sqrt(
            np.einsum("...i,...i->...", p, p)
        )

    rc = float(radius(xa))
    n_shrinks = 0
    while True:
        pts = xa + h * offsets
        rad = radius(pts)
        ok = np.all(rad > 0.0)
        for rk in singular_radii:
            if rc == rk:
                ok = False
                break
            if rc > rk:
                ok = ok and bool(np.all(rad > rk))
            else:
                ok = ok and bool(np.all(rad < rk))
        if ok:
            break
        n_shrinks += 1
        if n_shrinks > max_shrinks:
            raise ValueError(
                "stencil still crosses a singular set at the minimum step"
            )
        h *= 0.5

    vals = np.asarray(value_fn(pts), dtype=float)
    v0 = vals[0]
    plus = vals[1 : 2 * dim + 1 : 2]
    minus = vals[2 : 2 * dim + 1 : 2]
    grad = (plus - minus) / (2.0 * h)
    hess = np.zeros((dim, dim))
    np.fill_diagonal(hess, (plus - 2.0 * v0 + minus) / h**2)
    k = 2 * dim + 1
    for i in range(dim):
        for j in range(i + 1, dim):
            vpp, vpm, vmp, vmm = vals[k : k + 4]
            k += 4
            hij = (vpp - vpm - vmp + vmm) / (4.0 * h**2)
            hess[i, j] = hij
            hess[j, i] = hij

    out = hgroup.h_hessian(grad, hess, xa) if space == "heisenberg" else hess
    if return_info:
        return out, {"h": h, "n_shrinks": n_shrinks, "n_points": offsets.shape[0]}
    return out


def convergence_study(
    field,
    region: Region,
    h0: float = 1e-2,
    levels: int = 4,
    n_points: int = 48,
) -> ConvergenceResult:
    """Max deviation between analytic and FD Hessians over halved steps.

    Needs at least two levels so an observed order can be formed; raises on
    a region with no admissible points.
    """
    if levels < 2:
        raise ValueError("need at least two levels to observe an order")
    if n_points < 1:
        raise ValueError("n_points must be positive")
    batch = sample_region(
        region, space=field.space, dim=field.dim, singular_radii=field.singular_radii
    )
    if batch.n_admissible == 0:
        raise ValueError("region left no admissible sample points")
    pts = batch.place(np.flatnonzero(batch.admissible)[:n_points])

    grads = np.asarray(field.gradient(pts), dtype=float)
    hessians = np.asarray(field.hessian(pts), dtype=float)
    if field.space == "heisenberg":
        refs = hgroup.h_hessian(grads, hessians, pts)
    else:
        refs = 0.5 * (hessians + np.swapaxes(hessians, -1, -2))

    rows = []
    n_shrinks = 0
    prev_err = None
    for level in range(levels):
        h = h0 / 2.0**level
        worst = 0.0
        for i in range(pts.shape[0]):
            fd, info = fd_h_hessian(
                field.value,
                pts[i],
                h,
                space=field.space,
                singular_radii=field.singular_radii,
                return_info=True,
            )
            n_shrinks += info["n_shrinks"]
            worst = max(worst, float(np.abs(fd - refs[i]).max()))
        order = None if prev_err is None else math.log2(prev_err / worst)
        rows.append({"h": h, "max_err": worst, "order": order})
        prev_err = worst

    c_est = float(np.median([r["max_err"] / r["h"] ** 2 for r in rows]))
    return ConvergenceResult(rows, c_est, int(pts.shape[0]), n_shrinks)
