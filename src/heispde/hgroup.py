"""Exact horizontal calculus on the Heisenberg group H^d.

Points are arrays over R^(2d+1) with coordinates (x_1, ..., x_2d, t): the
first 2d coordinates are horizontal, the last one is vertical.  The group
law is

    (x o y)_i = x_i + y_i                       for i <= 2d,
    (x o y)_t = x_t + y_t + 2 * sum_i (x_{i+d} y_i - x_i y_{i+d}),

with identity 0 and inverse -x.  Anisotropic dilations scale the horizontal
block by lam and the vertical coordinate by lam^2; the homogeneous dimension
is Q = 2d + 2.  The gauge norm is rho(x) = (|x_H|^4 + t^2)^(1/4).

The horizontal frame, left-invariant for this law (X_i u(x) is the
derivative of u(x o s e_i) at s = 0), is

    X_i     = d_i     + 2 x_{i+d} d_t,
    X_{i+d} = d_{i+d} - 2 x_i     d_t,        i = 1..d,

collected column-wise in the (2d+1) x 2d matrix sigma(x) whose top block is
the identity and whose bottom row is (2 x_{d+1..2d}, -2 x_{1..d}).  The
horizontal gradient of u is sigma(x)^T Du and the symmetrized horizontal
Hessian is exactly sigma^T D^2u sigma: the first-order frame-Jacobian term
of X_i X_j u is Du_t * A[i, j] with A antisymmetric (A[i, i+d] = -2 =
-A[i+d, i], from [X_i, X_{i+d}] = -4 d_t), so symmetrizing removes it.

Every function accepts arbitrary leading batch axes; the last axis is the
coordinate axis, in any memory layout.  Sums over it go through _rowdot
and _colsum, which add its columns left to right, so a value has the same
bits whether the points are stored row by row or column by column, and on
any of numpy's sum kernels.  eta and euclid_grad_rho return column-major
output; h_hessian reads and builds matrices batch-last, entry (i, j) of
every matrix one contiguous row, and returns a view that is not C-contiguous.

Every sum of squares in the package that can overflow or underflow goes
through _rescaled_sq: the gauge norm, |x| on R^n, and in operators the Pucci dead
zone's ||M||_F and the |q|^2 of e_q.  It takes an array's columns or a
spectrum's (values, multiplicity) columns, and divides a row whose sum
overflows, or falls below the smallest normal double while an entry is not
0, by a power of two near its largest entry: exact, so no other row changes
a bit, and a sum of squares is 0 only where every entry is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HeisDims",
    "dilate",
    "eta",
    "euclid_grad_rho",
    "group_inverse",
    "group_mul",
    "h_gradient",
    "h_hessian",
    "hnorm",
    "hperp",
]

# Largest d accepted, so a mistyped dimension cannot allocate absurd stencils.
_D_CAP = 16
# A matrix argument is symmetric when its max |M - M^T| is at most _SYM_RTOL
# times its own largest |entry|: a scale taken over the batch would make a
# refusal depend on the chunk a matrix arrives in.
_SYM_RTOL = 1e-12
# The smallest normal double.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class HeisDims:
    """Dimension bundle for H^d.

    n = 2d + 1 coordinates, m = 2d horizontal directions, homogeneous
    dimension Q = 2d + 2; d is at most 16.
    """

    d: int

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if self.d > _D_CAP:
            raise ValueError(f"d={self.d} exceeds the cap {_D_CAP}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def m(self) -> int:
        return 2 * self.d

    @property
    def n(self) -> int:
        return 2 * self.d + 1

    @property
    def Q(self) -> int:
        return 2 * self.d + 2


def _as_points(x) -> tuple[np.ndarray, int]:
    """Validate an array of points, return (array, d)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 1:
        raise ValueError("a point must have at least one axis")
    n = arr.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError(f"point width must be odd and >= 3, got {n}")
    if not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    return arr, (n - 1) // 2


def group_mul(x, y) -> np.ndarray:
    """Group product x o y (broadcasts over leading axes)."""
    xa, d = _as_points(x)
    ya, dy = _as_points(y)
    if d != dy:
        raise ValueError("x and y live on different groups")
    out_h = xa[..., : 2 * d] + ya[..., : 2 * d]
    twist = _rowdot(xa[..., d : 2 * d], ya[..., :d])
    twist -= _rowdot(xa[..., :d], ya[..., d : 2 * d])
    out_t = xa[..., -1] + ya[..., -1] + 2.0 * twist
    return np.concatenate([out_h, out_t[..., None]], axis=-1)


def group_inverse(x) -> np.ndarray:
    """Group inverse; coordinatewise negation."""
    xa, _ = _as_points(x)
    return -xa


def dilate(lam, x) -> np.ndarray:
    """Anisotropic dilation: horizontal block times lam, vertical times lam^2."""
    xa, d = _as_points(x)
    lam = np.asarray(lam, dtype=float)
    if not np.isfinite(lam).all() or np.any(lam <= 0.0):
        raise ValueError("dilation factor must be finite and positive")
    lam = lam[..., None]
    return np.concatenate(
        [lam * xa[..., : 2 * d], lam**2 * xa[..., -1:]], axis=-1
    )


def hperp(x) -> np.ndarray:
    """Rotated horizontal part (x_{d+1..2d}, -x_{1..d}).

    Orthogonal to x_H with the same length; spans, together with x_H, the
    plane that carries the nonzero spectrum of gauge-radial Hessians.
    """
    xa, d = _as_points(x)
    return np.concatenate([xa[..., d : 2 * d], -xa[..., :d]], axis=-1)


def _rowdot(a, b) -> np.ndarray:
    """sum_j a[..., j] b[..., j], added left to right onto +0.0.

    One product is held at a time, and on column-major arrays every product
    reads contiguous columns; the order of adds does not depend on the layout.
    """
    a, b = np.asarray(a), np.asarray(b)
    if max(a.ndim, b.ndim) < 2:
        return _rowdot(a[None], b[None])[0]
    out = a[..., 0] * b[..., 0]
    out += 0.0  # the same bits as 0.0 + out, so -0.0 products sum to +0.0
    prod = None
    for j in range(1, a.shape[-1]):
        prod = np.multiply(a[..., j], b[..., j], out=prod)
        out += prod
    return out


def _colsum(columns, term=None) -> np.ndarray:
    """sum_j k_j term(c_j) over pairs (c_j, k_j), added left to right onto +0.0, so -0.0 terms sum to +0.0.

    term defaults to the identity; k_j >= 1, and k_j term(c_j) is one product.
    """
    out = None
    for c, k in columns:
        t = c if term is None else term(c)
        t = t if k == 1 else t * k
        if out is None:
            out = t + 0.0
        else:
            out += t
    return out


def _hsq(x: np.ndarray) -> np.ndarray:
    """|x_H|^2 of group points."""
    return _rowdot(x[..., :-1], x[..., :-1])


def hnorm(x) -> np.ndarray:
    """Gauge norm rho(x) = (|x_H|^4 + t^2)^(1/4), finite and without a warning wherever it is below
    the largest double (_gauge): (1e160, 0, 0) gives 1e160, (1e150, 0, 1e300) 1.19e150."""
    xa, d = _as_points(x)
    return _gauge(xa)[0]


def _gauge(xa) -> tuple[np.ndarray, np.ndarray]:
    """(rho, |x_H|) of checked points, rho = sqrt(hypot(|x_H|^2, |t|)), rescaled as _rescaled_sq and t by 2^-2k."""
    s, k, _ = _rescaled_sq(xa[..., :-1])
    t = np.abs(xa[..., -1])
    if k is None:
        return np.sqrt(np.hypot(s, t)), np.sqrt(s)
    with np.errstate(over="ignore"):
        tk = np.ldexp(t, -2 * k)
        # Where 2^-2k |t| overflows (|x_H| below 1e-154), |x_H|^4 is far below t^2's rounding: rho = sqrt|t|.
        return np.where(np.isinf(tk), np.sqrt(t), np.ldexp(np.sqrt(np.hypot(s, tk)), k)), np.ldexp(np.sqrt(s), k)


def _length(x) -> np.ndarray:
    """|x| over the last axis, or sqrt(sum_j k_j v_j^2) of columns (v_j, k_j), rescaled as in _rescaled_sq."""
    s, k, _ = _rescaled_sq(x)
    with np.errstate(over="ignore"):
        return np.sqrt(s) if k is None else np.ldexp(np.sqrt(s), k)


def _rescaled_sq(x) -> tuple[np.ndarray, np.ndarray | None, tuple]:
    """(sum_j k_j (2^-e v_j)^2 over columns (v_j, k_j), e, the columns (2^-e v_j, k_j)), x being a tuple of columns
    or an array whose last axis gives columns of multiplicity 1: e is None if no row's sum is off, else the exponent
    of its largest |v_j| on a row that is and 0 on the others.  A sum is off where it overflows or lies below the
    smallest normal double, so it is > 0 exactly where a v_j is (a row of zeros gets e = 0).  Exact, and every
    other row keeps its bits, those of _colsum(x, np.square).  The one owner of this rescaling: a caller that
    reads the rescaled columns takes them from here."""
    cols = x if isinstance(x, tuple) else tuple((v, 1) for v in np.moveaxis(x, -1, 0))
    with np.errstate(over="ignore", under="ignore"):
        s = _colsum(cols, np.square)
    off = np.isinf(s) | (s < _TINY)
    if not np.any(off):
        return s, None, cols
    e = np.where(off, np.frexp(functools.reduce(np.fmax, [np.abs(v) for v, _ in cols]))[1], 0)
    cols = tuple((np.ldexp(v, -e), k) for v, k in cols)
    return _colsum(cols, np.square), e, cols


def eta(x) -> np.ndarray:
    """The horizontal vector |x_H|^2 x_H + t * hperp(x).

    Satisfies |eta|^2 = |x_H|^2 rho^4 and D_H rho = eta / rho^3.
    """
    xa, _ = _as_points(x)
    return _eta(xa, _hsq(xa))


def _eta(xa, s) -> np.ndarray:
    """eta of checked points xa, given s = _hsq(xa)."""
    d, t = xa.shape[-1] // 2, xa[..., -1]
    out = np.empty((2 * d,) + xa.shape[:-1])
    for i in range(d):
        # Row i is s x_i + t x_{i+d}, row i + d is s x_{i+d} + t (-x_i).
        lo, hi = out[i, ...], out[i + d, ...]
        np.multiply(s, xa[..., i], out=lo)
        lo += t * xa[..., i + d]
        np.multiply(s, xa[..., i + d], out=hi)
        hi -= t * xa[..., i]
    return np.moveaxis(out, 0, -1)


def _symmetry_gate(own, mats, axes, what: str) -> float:
    """The batch's largest skew; ValueError if a matrix is not symmetric by _SYM_RTOL.

    own holds each matrix's largest |M_ij - M_ji| and mats the matrices, each
    matrix's entries on `axes`; what ("Hessian" or "matrix") heads the
    message.  An empty batch, or one whose skew is 0, skips the per-matrix pass.
    """
    worst = own.max(initial=0.0)
    if worst > 0.0:
        bad = own > _SYM_RTOL * np.maximum(mats.max(axis=axes), -mats.min(axis=axes))
        if np.any(bad):
            m = what[0].upper()
            raise ValueError(f"{what} is not symmetric: max |{m} - {m}^T| = {np.max(own, where=bad, initial=0.0):.3e}")
    return worst


def h_gradient(grad_u, x) -> np.ndarray:
    """Horizontal gradient sigma(x)^T Du from the Euclidean gradient Du."""
    xa, d = _as_points(x)
    g = np.asarray(grad_u, dtype=float)
    if g.shape[-1] != 2 * d + 1:
        raise ValueError("gradient width does not match the point width")
    return g[..., : 2 * d] + g[..., -1:] * (2.0 * hperp(xa))


def h_hessian(grad_u, hess_u, x) -> np.ndarray:
    """Symmetrized horizontal Hessian, exactly sigma^T D^2u sigma.

    The frame-Jacobian term of X_i X_j u is Du_t times an antisymmetric
    matrix, since [X_i, X_{i+d}] = -4 d_t, so symmetrizing removes it and
    grad_u does not enter.  hess_u must pass _symmetry_gate, each matrix
    within 1e-12 of its largest |entry|; it is read batch-last, in place if
    its batch axis is the fastest, else copied once, and never written.  The
    output, symmetrized exactly, is batch-last: a view, not C-contiguous.
    """
    xa, d = _as_points(x)
    h = np.asarray(hess_u, dtype=float)
    n, m = 2 * d + 1, 2 * d
    if h.shape[-2:] != (n, n):
        raise ValueError("Hessian shape does not match the point width")
    if not np.isfinite(h).all():
        raise ValueError("Hessian entries must be finite")
    batch = np.broadcast_shapes(h.shape[:-2], xa.shape[:-1])
    hs = np.moveaxis(np.broadcast_to(h, batch + (n, n)), (-2, -1), (0, 1))
    if hs.strides[-1] not in (0, hs.itemsize):
        hs = np.ascontiguousarray(hs)
    # H_ij - H_ji over the upper triangle, written straight from hs one row of it at a time.
    skew, k = np.empty((n * (n - 1) // 2,) + batch), 0
    for i in range(n - 1):
        np.subtract(hs[i, i + 1 :], hs[i + 1 :, i], out=skew[k : k + n - 1 - i])
        k += n - 1 - i
    _symmetry_gate(np.abs(skew, out=skew).max(axis=0), hs, (0, 1), "Hessian")
    del skew
    # D^2u = [[A, b], [b^T, c]], each symmetrized straight from hs.
    out = np.add(hs[:m, :m], hs[:m, :m].swapaxes(0, 1))
    out *= 0.5
    b, c = (hs[:m, m] + hs[m, :m]) * 0.5, (hs[m, m] + hs[m, m]) * 0.5
    del hs  # a transposed copy goes before the next temporary
    # sigma = [I; hp^T] with hp = 2 hperp, so sigma^T D^2u sigma = A + b hp^T + hp b^T
    # + c hp hp^T, added in that order one row at a time, last row first: rows
    # i.. are complete when the pairs (i, j >= i) are symmetrized in place.
    xt = np.moveaxis(np.broadcast_to(xa, batch + (n,)), -1, 0)
    hp = 2.0 * np.concatenate([xt[d:m], -xt[:d]])
    ch, t = c * hp, np.empty((m,) + batch)
    for i in reversed(range(m)):
        out[i] += np.multiply(b[i], hp, out=t)
        out[i] += np.multiply(hp[i], b, out=t)
        out[i] += np.multiply(ch[i], hp, out=t)
        s = np.add(out[i, i:], out[i:, i], out=t[: m - i])
        s *= 0.5
        out[i, i:] = out[i:, i] = s
    return np.moveaxis(out, (0, 1), (-2, -1))


def euclid_grad_rho(x, rho) -> np.ndarray:
    """Euclidean gradient of the gauge norm: (|x_H|^2 x_H, t/2) / rho^3.

    rho is the gauge norm of x; ValueError where it is 0 (the identity).
    Computed from bounded ratios (|x_H|^2/rho^2 <= 1, |t|/rho^2 <= 1,
    |x_H|/rho <= 1) so large points do not overflow.
    """
    xa, d = _as_points(x)
    if np.any(rho == 0.0):
        raise ValueError("undefined at the group identity (rho = 0)")
    rho2 = rho**2
    s_r2 = _hsq(xa) / rho2
    out = np.empty((2 * d + 1,) + xa.shape[:-1])
    for i in range(2 * d):
        col = out[i, ...]
        np.divide(xa[..., i], rho, out=col)
        col *= s_r2
    col = out[2 * d, ...]
    np.divide(xa[..., -1], rho2, out=col)
    col /= 2.0 * rho
    return np.moveaxis(out, 0, -1)
