"""Extremal second-order operators and Bellman first-order envelopes.

All second-order operators act on symmetric m x m matrices and use the sign
convention F(M) = sup/inf of Tr(-A M) over the relevant matrix set, so that
F(D^2 u) <= 0 is the subsolution inequality and >= 0 the supersolution one.

Every second-order operator is one entry of the table OPERATORS, keyed by
name.  An entry gives the parameter the operator requires (ell, alpha, p or
none), its value as a function of (spectrum, e_q, params), and the factor
that scales sum |e_k| into a bound on its magnitude:

    name               param  value                                     factor
    pucci_max          ell    -Lam * sum(e_k < 0) - lam * sum(e_k > 0)  Lam
    pucci_min          ell    -Lam * sum(e_k > 0) - lam * sum(e_k < 0)  Lam
    pucci_plus_alpha   alpha  -alpha sum(e_k) - (1 - m alpha) e_min     1
    pucci_minus_alpha  alpha  -alpha sum(e_k) - (1 - m alpha) e_max     1
    pnorm              p      -(sum(e_k) + (p - 2) e_q)                 1 + |p-2|
    neg_trace          -      -sum(e_k)                                 1

No entry reads the matrix.  A spectrum is a tuple of columns (v_j, k_j): each
matrix's eigenvalues are v_j repeated k_j >= 1 times.  Sums (the trace, the
Frobenius norm sqrt(sum k_j v_j^2)) add left to right onto +0.0, k_j v_j as
one product (hgroup._colsum), so on eigvalsh's sorted columns, each of
multiplicity 1 (_columns), a value has a sorted row's bits.  pnorm reads
e_q = q^T M q / |q|^2 for the gradient q.  So the checker can feed them a
dense Hessian's eigenvalues (e_q from rayleigh_quotient) or a radial field's
two or three distinct values, whose gradient is an eigenvector.

The Pucci pair is extremal over lam I <= A <= Lam I, the alpha pair over
B_alpha = {A >= alpha I, Tr A = 1} (needs 0 < alpha <= 1/m), and pnorm is
the normalized p-Laplacian.  evaluate(name, mat, params, q), the checker
and the command line all read this one table; params holds ell, alpha or p
and nothing else.

Eigenvalues with |e| <= ZERO_TOL * ||M||_F (a fixed 1e-12) count as zero in
the Pucci pair.  ||M||_F and the |q|^2 of e_q come from hgroup._rescaled_sq,
which rescales a row by a power of two where its sum of squares overflows or
underflows, so e_q does not see the scale of q (|q|^2 > 0 exactly where
q != 0), and the Pucci pair compares and sums such a row's eigenvalues in
its rescaled units, multiplying back once: a huge spectrum keeps its live
eigenvalues and its sums do not overflow.  Every other row keeps its bits.
Matrix arguments may carry leading batch axes.  _controls evaluates a
Bellman family once, for hjb_inf, hjb_sup and the checker.
Every eigenvalue solve in the package goes through _eigenvalues, which
gives eigvalsh's bits and solves a 2 x 2 matrix by LAPACK's own formulas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .hgroup import _colsum, _rescaled_sq, _rowdot, _symmetry_gate

__all__ = [
    "Ellipticity",
    "HJBCoefficients",
    "OPERATORS",
    "PucciAlpha",
    "SecondOrderOp",
    "ZERO_TOL",
    "evaluate",
    "hjb_inf",
    "hjb_sup",
    "operator_entry",
    "pnorm_operator",
    "rayleigh_quotient",
    "signed_eig_sums",
    "sym_eigenvalues",
]

# The Pucci pair's dead zone, relative to ||M||_F.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Ellipticity:
    """Ellipticity interval 0 < lam <= Lam."""

    lam: float
    Lam: float

    def __post_init__(self) -> None:
        lam = float(self.lam)
        Lam = float(self.Lam)
        if not (np.isfinite(lam) and np.isfinite(Lam)):
            raise ValueError("ellipticity constants must be finite")
        if not (0.0 < lam <= Lam):
            raise ValueError(f"need 0 < lam <= Lam, got ({lam}, {Lam})")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "Lam", Lam)


@dataclass(frozen=True)
class PucciAlpha:
    """Parameter pair for the trace-normalized operators: 0 < alpha <= 1/m."""

    alpha: float
    m: int

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        m = int(self.m)
        if m < 1:
            raise ValueError("matrix size m must be >= 1")
        if not np.isfinite(alpha) or not (0.0 < alpha <= 1.0 / m):
            raise ValueError(
                f"need 0 < alpha <= 1/m = {1.0 / m:.6g}, got alpha = {alpha}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "m", m)


def _as_sym(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    own = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if _symmetry_gate(own, m, (-2, -1), "matrix") == 0.0:
        return m
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def sym_eigenvalues(mat) -> np.ndarray:
    """Eigenvalues of symmetric matrices, ascending along the last axis.

    Validates finiteness, and symmetry within 1e-12 of each matrix's
    largest |entry|.
    """
    return _eigenvalues(_as_sym(mat))


# Largest entries of a 2 x 2 batch that LAPACK's dsyevd and dsterf take
# unscaled (they rescale below about 2^-405 and above 2^485).
_LAE2_RANGE = (2.0**-400, 2.0**400)


def _eigenvalues(mat) -> np.ndarray:
    """Ascending eigenvalues of finite symmetric (..., m, m) matrices: eigvalsh's, bit for bit.

    For m = 2, eigvalsh (LAPACK dsyevd, lower triangle) runs dsterf's 2 x 2
    step, done here as array operations on a = M[0, 0], b = M[1, 0] and
    c = M[1, 1]: a row splits into (a, c) when |b| <= sqrt|a| sqrt|c| 2^-53
    or b^2 <= 2^-106 |a c|, else takes _dlae2(a, sqrt(b^2), c), and the pair
    is swapped where the second value is strictly below the first.  dsterf
    stores the dlae2 pair as (rt2, rt1) where |c| < |a|; after the swap the
    order is moot, as rt1 != 0 on a row that does not split and equal values
    have equal bits.  Other sizes, and a batch with a nonzero row LAPACK
    would rescale (largest entry outside _LAE2_RANGE), go to eigvalsh whole.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape[-2:] != (2, 2) or _rescaled(mat):
        return np.linalg.eigvalsh(mat)
    rows = mat.reshape(-1, 2, 2)
    a, b, c = rows[:, 0, 0], rows[:, 1, 0], rows[:, 1, 1]
    bb = b * b
    split = np.abs(b) <= np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * 2.0**-53
    split |= bb <= 2.0**-106 * np.abs(a * c)
    with np.errstate(invalid="ignore", divide="ignore"):
        # Rows that split may divide 0 by 0.
        lo, hi = _dlae2(a, np.sqrt(bb, out=bb), c)
    del bb
    lo = np.where(split, a, lo)
    hi = np.where(split, c, hi)
    swap = hi < lo
    out = np.stack([np.where(swap, hi, lo), np.where(swap, lo, hi)], axis=-1)
    return out.reshape(mat.shape[:-1])


def _rescaled(mat) -> bool:
    """Whether LAPACK would rescale a nonzero 2 x 2 matrix of mat: its largest entry lies outside _LAE2_RANGE."""
    top = np.maximum(np.maximum(np.abs(mat[..., 0, 0]), np.abs(mat[..., 1, 0])), np.abs(mat[..., 1, 1]))
    return bool(np.any((top > _LAE2_RANGE[1]) | ((top < _LAE2_RANGE[0]) & (top != 0.0))))


def _dlae2(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK dlae2's eigenvalues (rt1, rt2) of [[a, b], [b, c]], b >= 0: |rt1| >= |rt2|.

    Its operations in its order, on arrays: rt is the larger of |a - c| and
    2b times sqrt(1 + (smaller / larger)^2), rt1 = (a + c +- rt) / 2 with the
    sign of a + c, and rt2 = (acmx / rt1) acmn - (b / rt1) b, acmx the one
    of a and c larger in size (c on a tie).  Where a + c = 0 (-0 too) dlae2
    gives (rt / 2, -rt / 2); here rt2 = -rt1 and rt1 may be -rt / 2.
    """
    sm = a + c
    rt = np.abs(a - c)
    ab = b + b
    ratio = np.minimum(rt, ab)
    np.maximum(rt, ab, out=rt)
    ratio /= rt
    ratio *= ratio
    ratio += 1.0
    rt *= np.sqrt(ratio, out=ratio)
    rt1 = np.copysign(rt, sm, out=rt)
    rt1 += sm
    rt1 *= 0.5
    larger = np.abs(a) > np.abs(c)
    rt2 = np.where(larger, a, c)
    rt2 /= rt1
    rt2 *= np.where(larger, c, a)
    q = np.divide(b, rt1, out=ab)
    q *= b
    rt2 -= q
    zero = np.flatnonzero(sm == 0.0)
    rt2[zero] = -rt1[zero]
    return rt1, rt2


def _columns(eigs) -> tuple:
    """The spectrum of sorted eigenvalues (..., m): each column, copied contiguous, with multiplicity 1."""
    return tuple((c, 1) for c in np.moveaxis(np.asarray(eigs, dtype=float), -1, 0).copy())


def _sorted_rows(spectrum, rows=slice(None)) -> np.ndarray:
    """The sorted eigenvalues (..., m) of the given rows of a spectrum, the inverse of _columns.

    Each column v repeats k times; a stable sort keeps sorted columns' bits
    and, in a tie such as -0.0 and +0.0, the columns' order.
    """
    return np.sort(np.stack([v[rows] for v, k in spectrum for _ in range(k)], axis=-1), axis=-1, kind="stable")


def signed_eig_sums(eigs, scale) -> tuple[np.ndarray, np.ndarray]:
    """(sum of negative, sum of positive) eigenvalues per matrix.

    eigs is a spectrum or sorted (..., m) eigenvalues.  Eigenvalues within
    ZERO_TOL * scale of zero, and NaNs, count in neither sum; scale >= 0 is
    normally the Frobenius norm of the source matrix.
    """
    cut = ZERO_TOL * np.asarray(scale, dtype=float)
    live = []
    for v, k in eigs if isinstance(eigs, tuple) else _columns(eigs):
        # +0.0 in the dead zone by clearing bits (np.where branches per element); fmin and fmax drop NaNs.
        keep = np.asarray(np.subtract(np.abs(v) <= cut, 1, dtype=np.int64))
        live.append((np.bitwise_and(np.asarray(v, dtype=float).view(np.int64), keep, out=keep).view(float), k))
    return _colsum(live, lambda v: np.fmin(v, 0.0)), _colsum(live, lambda v: np.fmax(v, 0.0))


def rayleigh_quotient(q, mat) -> tuple[np.ndarray, np.ndarray]:
    """(e_q, |q|^2) per matrix, e_q = q^T M q / |q|^2; e_q is 0 where q = 0.

    Where |q|^2 overflows or underflows, q is first divided by 2^k as in
    hgroup._rescaled_sq (exact, and e_q does not change) and |2^-k q|^2 is
    returned; it is 0 exactly where q is.  Neither depends on the memory
    layout of q or mat: |q|^2 adds its columns left to right, and mat is
    read C-contiguous, since einsum's order of adds over a matrix depends on
    its layout (over the vectors it does not).
    """
    m = np.ascontiguousarray(mat, dtype=float)
    qa = np.asarray(q, dtype=float)
    if qa.shape[-1] != m.shape[-1]:
        raise ValueError("gradient and matrix sizes do not match")
    qq, k, cols = _rescaled_sq(qa)
    if k is not None:
        qa = np.stack([v for v, _ in cols], axis=-1)
    qmq = np.einsum("...i,...ij,...j->...", qa, m, qa)
    return qmq / np.where(qq > 0.0, qq, 1.0), qq


def pnorm_operator(p: float, q, mat) -> np.ndarray:
    """Trace form of the normalized p-Laplacian: -Tr[(I + (p-2) qq^T/|q|^2) M].

    Requires p in (1, inf) and q != 0 (the operator is discontinuous there);
    a zero gradient raises ValueError.
    """
    return evaluate("pnorm", mat, {"p": p}, q)[0]


class SecondOrderOp(NamedTuple):
    """One entry of OPERATORS: required parameter, value, magnitude factor.

    value(spectrum, e_q, params) takes the spectrum of symmetric matrices
    (see the module docstring), e_q = q^T M q / |q|^2 (None unless
    reads_e_q) and a dict holding the parameter under its name.  Module
    functions are looked up when a value is computed, so replacing one on
    the module (as a profiler does) reaches every caller.
    """

    param: str | None
    value: Callable
    magnitude: Callable
    reads_e_q: bool = False


def _pucci(maximal: bool) -> Callable:
    def value(spectrum, e_q, params):
        # A row _rescaled_sq rescales is compared and summed in its units, then multiplied back once.
        e, (s, k, cols) = params["ell"], _rescaled_sq(spectrum)
        neg, pos = signed_eig_sums(cols, np.sqrt(s))
        out = -e.Lam * neg - e.lam * pos if maximal else -e.Lam * pos - e.lam * neg
        return out if k is None else np.ldexp(out, k)

    return value


def _alpha(lowest: bool) -> Callable:
    # The smallest (largest) value: the column a stable sort of the rows puts first (last).
    pick = (lambda out, v: np.where(v < out, v, out)) if lowest else (lambda out, v: np.where(v >= out, v, out))

    def value(spectrum, e_q, params):
        pa = PucciAlpha(params["alpha"], sum(k for _, k in spectrum))
        extreme = functools.reduce(pick, [v for v, _ in spectrum])
        return -pa.alpha * _colsum(spectrum) - (1.0 - pa.m * pa.alpha) * extreme

    return value


OPERATORS: dict[str, SecondOrderOp] = {
    "pucci_max": SecondOrderOp("ell", _pucci(maximal=True), lambda pr: pr["ell"].Lam),
    "pucci_min": SecondOrderOp("ell", _pucci(maximal=False), lambda pr: pr["ell"].Lam),
    "pucci_plus_alpha": SecondOrderOp("alpha", _alpha(lowest=True), lambda pr: 1.0),
    "pucci_minus_alpha": SecondOrderOp("alpha", _alpha(lowest=False), lambda pr: 1.0),
    "pnorm": SecondOrderOp(
        "p",
        lambda spectrum, e_q, pr: -(_colsum(spectrum) + (pr["p"] - 2.0) * e_q),
        lambda pr: 1.0 + abs(pr["p"] - 2.0),
        reads_e_q=True,
    ),
    "neg_trace": SecondOrderOp(None, lambda spectrum, e_q, pr: -_colsum(spectrum), lambda pr: 1.0),
}


def operator_entry(name: str, params: dict) -> SecondOrderOp:
    """The OPERATORS entry for name; ValueError on a missing, bad or unknown parameter."""
    entry = OPERATORS.get(name)
    if entry is None:
        raise ValueError(f"unknown second-order operator {name!r}")
    unknown = sorted(set(params) - {"ell", "alpha", "p"})
    if unknown:
        raise ValueError(f"unknown operator parameters {unknown}; params take ell, alpha and p")
    if entry.param is not None and params.get(entry.param) is None:
        raise ValueError(f"{name} needs {entry.param}")
    p = params.get("p")
    if p is not None and not (np.isfinite(p) and p > 1.0):
        raise ValueError(f"need p in (1, inf), got {p}")
    return entry


def evaluate(name: str, mat, params: dict, q=None) -> tuple[np.ndarray, np.ndarray]:
    """(values, eigenvalues) of the table operator name on matrices mat and gradients q."""
    entry = operator_entry(name, params)
    m = _as_sym(mat)
    e_q = None
    if entry.reads_e_q:
        if q is None:
            raise ValueError(f"{name} needs a gradient q")
        e_q, qq = rayleigh_quotient(q, m)
        if np.any(qq == 0.0):
            raise ValueError(f"{name} is undefined at q = 0")
    eigs = _eigenvalues(m)
    return entry.value(_columns(eigs), e_q, params), eigs


@dataclass(frozen=True)
class HJBCoefficients:
    """Finite family of drift/cost pairs for Bellman-type first-order parts.

    drifts[k](x) -> vector (horizontal, length 2d, or Euclidean, length n,
    per gradient_space); costs[k](x) -> nonnegative scalar.  Callables must
    be vectorized over leading point axes.
    """

    drifts: tuple[Callable, ...]
    costs: tuple[Callable, ...]
    gradient_space: str = "horizontal"
    label: str = ""

    def __post_init__(self) -> None:
        drifts = tuple(self.drifts)
        costs = tuple(self.costs)
        if len(drifts) == 0:
            raise ValueError("the control family must be nonempty")
        if len(drifts) != len(costs):
            raise ValueError("drifts and costs must pair up one-to-one")
        if self.gradient_space not in ("horizontal", "euclidean"):
            raise ValueError(f"unknown gradient space {self.gradient_space!r}")
        object.__setattr__(self, "drifts", drifts)
        object.__setattr__(self, "costs", costs)

    @property
    def n_controls(self) -> int:
        return len(self.drifts)


def _finite(what: str, values) -> np.ndarray:
    """values as a float array; ValueError unless every entry is finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} values must be finite")
    return arr


def _controls(coeffs: HJBCoefficients, x, shape) -> tuple[list, list]:
    """(drifts, costs) of each control at x, costs broadcast to shape.

    ValueError unless drifts are finite and costs finite and nonnegative.
    """
    bs, cs = [], []
    for b, c in zip(coeffs.drifts, coeffs.costs):
        bs.append(_finite("drift", b(x)))
        cv = _finite("cost", c(x))
        if np.any(cv < 0.0):
            raise ValueError("running costs must be nonnegative")
        cs.append(np.broadcast_to(cv, shape))
    return bs, cs


def _hjb_terms(coeffs: HJBCoefficients, x, r, p) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    ra = np.asarray(r, dtype=float)
    pa = np.asarray(p, dtype=float)
    batch = np.broadcast_shapes(xa.shape[:-1], ra.shape, pa.shape[:-1])
    bs, cs = _controls(coeffs, xa, batch)
    vals = np.stack([cv * ra - _rowdot(bv, pa) for bv, cv in zip(bs, cs)])
    if not np.isfinite(vals).all():
        raise ValueError("Bellman terms must evaluate to finite values")
    return vals


def hjb_inf(coeffs: HJBCoefficients, x, r, p) -> np.ndarray:
    """inf over controls of c(x) r - b(x) . p."""
    return _hjb_terms(coeffs, x, r, p).min(axis=0)


def hjb_sup(coeffs: HJBCoefficients, x, r, p) -> np.ndarray:
    """sup over controls of c(x) r - b(x) . p; equals -hjb_inf at (-r, -p)."""
    return _hjb_terms(coeffs, x, r, p).max(axis=0)
