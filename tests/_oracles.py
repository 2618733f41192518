"""Independent reference implementations used only by the tests.

Nothing here may import from the package's numerical paths it is checking:
eigenvalues come from the characteristic polynomial, extremal operator
values from explicit optimization over the defining matrix families, and
derivatives from plain central differences.
"""

import itertools

import numpy as np


def charpoly_coefficients(mat: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recurrence: det(tI - M) = t^m + c1 t^(m-1) + ... + cm."""
    m = mat.shape[0]
    coeffs = np.empty(m + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(mat)
    for k in range(1, m + 1):
        mk = mat @ (mk + coeffs[k - 1] * np.eye(m))
        coeffs[k] = -np.trace(mk) / k
    return coeffs


def charpoly_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of one symmetric matrix via np.roots on the
    characteristic polynomial (companion matrix route)."""
    roots = np.roots(charpoly_coefficients(mat))
    return np.sort(roots.real)


def _random_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def pucci_bruteforce(lam, Lam, mat, *, n_random=200, rng=None):
    """(sup, inf, random feasible values) of Tr(-A M) over lam I <= A <= Lam I.

    sup and inf are exact: the optimum is attained at A sharing M's
    eigenbasis with each eigenvalue at an interval endpoint, so all 2^m
    endpoint combinations are enumerated.  The random values are feasible
    but generally suboptimal; they must be dominated by the exact pair.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    m = mat.shape[0]
    eigs, _ = np.linalg.eigh(mat)
    best_hi = -np.inf
    best_lo = np.inf
    for combo in itertools.product((lam, Lam), repeat=m):
        val = -float(np.dot(combo, eigs))
        best_hi = max(best_hi, val)
        best_lo = min(best_lo, val)
    randoms = np.empty(n_random)
    for i in range(n_random):
        r = _random_orthogonal(m, rng)
        w = rng.uniform(lam, Lam, size=m)
        a = (r * w) @ r.T
        randoms[i] = -np.trace(a @ mat)
    return best_hi, best_lo, randoms


def palpha_bruteforce(alpha, mat, *, n_random=200, rng=None):
    """(sup, inf, random values) of Tr(-A M) over A = alpha I + (1-m alpha)
    q q^T with |q| = 1.  Exact extrema use M's eigenvectors for q."""
    rng = np.random.default_rng(0) if rng is None else rng
    m = mat.shape[0]
    tr = float(np.trace(mat))
    eigs, vecs = np.linalg.eigh(mat)
    vals = [-alpha * tr - (1.0 - m * alpha) * float(v @ mat @ v) for v in vecs.T]
    randoms = np.empty(n_random)
    for i in range(n_random):
        q = rng.standard_normal(m)
        q /= np.linalg.norm(q)
        randoms[i] = -alpha * tr - (1.0 - m * alpha) * float(q @ mat @ q)
    return max(vals), min(vals), randoms


def fd_gradient(fn, x, h=1e-6):
    """Plain central-difference gradient of a scalar function of one point."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return out


def fd_hessian(fn, x, h=1e-4):
    """Plain central-difference Euclidean Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    out = np.empty((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * h**2)
    return out


def random_symmetric(m, rng, scale=1.0):
    a = rng.standard_normal((m, m)) * scale
    return 0.5 * (a + a.T)


def frame(x) -> np.ndarray:
    """Horizontal frame sigma(x) of H^d, shape (..., 2d+1, 2d).

    Columns are the coordinate coefficients of X_1..X_2d: identity on top,
    bottom row (2 x_{d+1..2d}, -2 x_{1..d}).
    """
    xa = np.asarray(x, dtype=float)
    n = xa.shape[-1]
    d, m = (n - 1) // 2, n - 1
    out = np.zeros(xa.shape[:-1] + (n, m))
    out[..., :m, :] = np.eye(m)
    out[..., m, :] = 2.0 * np.concatenate([xa[..., d:m], -xa[..., :d]], axis=-1)
    return out


def h_hessian_rank2(hess_u, x):
    """sigma^T D^2u sigma as the (..., n, n) rank-2 update, with its input checks.

    The reference for hgroup.h_hessian: every step runs on whole (..., n, n)
    stacks, which fixes the IEEE operations of each entry, ((a_ij + b_i hp_j)
    + b_j hp_i) + (c hp_i) hp_j, then 0.5 (out_ij + out_ji), and the messages
    of the checks.
    """
    xa = np.asarray(x, dtype=float)
    h = np.asarray(hess_u, dtype=float)
    n = xa.shape[-1]
    d, m = (n - 1) // 2, n - 1
    if h.shape[-2:] != (n, n):
        raise ValueError("Hessian shape does not match the point width")
    if not np.isfinite(h).all():
        raise ValueError("Hessian entries must be finite")
    skew = np.abs(h - np.swapaxes(h, -1, -2)).max()
    if skew > 1e-12:
        raise ValueError(f"Hessian is not symmetric: max |H - H^T| = {skew:.3e}")
    hs = 0.5 * (h + np.swapaxes(h, -1, -2))
    a, b, c = hs[..., :m, :m], hs[..., :m, m], hs[..., m, m]
    hp = 2.0 * np.concatenate([xa[..., d:m], -xa[..., :d]], axis=-1)
    bh = b[..., :, None] * hp[..., None, :]
    out = a + bh + np.swapaxes(bh, -1, -2) + (c[..., None] * hp)[..., :, None] * hp[..., None, :]
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def fd_h_hessian_one(value_fn, x, h, *, space="heisenberg", singular_radii=()):
    """(Hessian, step) of checker.fd_h_hessian at one point, one stencil row at a time.

    The stencil is the centre, +-e_i, then +-e_i +-e_j (i < j) in the order
    ++, +-, -+, --; the step is halved until every row clears the origin and
    each singular radius on the centre's side (ValueError after 40 halvings).
    The horizontal Hessian is h_hessian_rank2 of the Euclidean one.
    """
    xa = np.asarray(x, dtype=float)
    dim = xa.shape[0]

    def radius(p):
        sq = float(np.sum(p[:-1] ** 2)) if space == "heisenberg" else float(np.sum(p**2))
        return float(np.sqrt(np.hypot(sq, abs(p[-1])))) if space == "heisenberg" else float(np.sqrt(sq))

    eye = np.eye(dim)
    rows = [np.zeros(dim)]
    for i in range(dim):
        rows += [eye[i], -eye[i]]
    for i in range(dim):
        for j in range(i + 1, dim):
            rows += [si * eye[i] + sj * eye[j] for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    rc = radius(xa)
    for _ in range(41):
        pts = [xa + h * r for r in rows]
        rad = [radius(p) for p in pts]
        ok = all(r > 0.0 for r in rad)
        for rk in singular_radii:
            ok = ok and rc != rk and all((r > rk) if rc > rk else (r < rk) for r in rad)
        if ok:
            break
        h *= 0.5
    else:
        raise ValueError("stencil still crosses a singular set at the minimum step")
    vals = [float(np.asarray(value_fn(p[None]))[0]) for p in pts]
    hess = np.zeros((dim, dim))
    for i in range(dim):
        hess[i, i] = (vals[1 + 2 * i] - 2.0 * vals[0] + vals[2 + 2 * i]) / h**2
    k = 2 * dim + 1
    for i in range(dim):
        for j in range(i + 1, dim):
            vpp, vpm, vmp, vmm = vals[k : k + 4]
            hess[i, j] = hess[j, i] = (vpp - vpm - vmp + vmm) / (4.0 * h**2)
            k += 4
    return (h_hessian_rank2(hess, xa) if space == "heisenberg" else hess), h
