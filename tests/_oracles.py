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
    # Each matrix is held to its own largest |entry|.
    skew = np.atleast_1d(np.abs(h - np.swapaxes(h, -1, -2)).max(axis=(-2, -1)))
    bad = skew > 1e-12 * np.atleast_1d(np.abs(h).max(axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"Hessian is not symmetric: max |H - H^T| = {skew[bad].max():.3e}")
    hs = 0.5 * (h + np.swapaxes(h, -1, -2))
    a, b, c = hs[..., :m, :m], hs[..., :m, m], hs[..., m, m]
    hp = 2.0 * np.concatenate([xa[..., d:m], -xa[..., :d]], axis=-1)
    bh = b[..., :, None] * hp[..., None, :]
    out = a + bh + np.swapaxes(bh, -1, -2) + (c[..., None] * hp)[..., :, None] * hp[..., None, :]
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def gauge_radial_hessian(x, rho, g, fp, fpp):
    """Euclidean Hessian f'' g g^T + f' D^2 rho of f(rho) on H^d, by the einsum formula on (..., n, n) stacks.

    rho is the gauge norm of x, g its Euclidean gradient, fp and fpp the
    profile's f' and f'' at rho.  D^2 rho = -3 g g^T / rho + D^2 (rho^4) /
    (4 rho^3), with the horizontal block (|x_H|^2 I + 2 x_H x_H^T) / rho^3
    and 1 / (2 rho^3) at the vertical corner.  The reference for the
    gallery's H^d Hessians: it fixes the IEEE operations of each entry,
    rho^3 by np.power and |x_H|^2 added left to right onto +0.0.
    """
    xa, rho, fp, fpp = (np.asarray(v, dtype=float) for v in (x, rho, fp, fpp))
    m = xa.shape[-1] - 1
    s = np.zeros(xa.shape[:-1])
    for j in range(m):
        s = s + xa[..., j] * xa[..., j]
    gg = np.einsum("...a,...b->...ab", g, g)
    hess_rho = gg * (-3.0 / rho[..., None, None])
    xh = xa[..., :m]
    hess_rho[..., :m, :m] += (s / rho**3)[..., None, None] * np.eye(m) + 2.0 * np.einsum(
        "...a,...b->...ab", xh, xh
    ) / rho[..., None, None] ** 3
    hess_rho[..., m, m] += 1.0 / (2.0 * rho**3)
    out = fpp[..., None, None] * gg
    out += fp[..., None, None] * hess_rho
    return out


def euclidean_radial_hessian(x, r, fp, fpp):
    """Hessian f'' u u^T + (f' / r) (I - u u^T) of f(|x|) on R^n, u = x / r, on (..., n, n) stacks.

    The reference for the gallery's R^n Hessians; r is |x| and fp, fpp the
    profile's f' and f'' at r.
    """
    xa, r, fp, fpp = (np.asarray(v, dtype=float) for v in (x, r, fp, fpp))
    u = xa / r[..., None]
    pr = np.einsum("...a,...b->...ab", u, u)
    return fpp[..., None, None] * pr + (fp[..., None, None] / r[..., None, None]) * (np.eye(xa.shape[-1]) - pr)


def fd_h_hessian_one(value_fn, x, h, *, space="heisenberg", singular_radii=()):
    """(Hessian, step): a central-difference horizontal (or Euclidean) Hessian at one point.

    The tests check the gallery's exact jets and the group's invariances
    against it, one stencil row at a time.  The stencil is the centre, +-e_i, then +-e_i +-e_j (i < j) in the order
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


def box_muller(u, m: int) -> np.ndarray:
    """(N, m) Gaussian vectors from 2 ceil(m / 2) uniform columns u, by cos and sin.

    Pair (a, b) gives sqrt(-2 log a) (cos 2 pi b, sin 2 pi b); an odd m
    drops the last sin.
    """
    g = []
    for a, b in zip(u[0::2], u[1::2]):
        g += [np.sqrt(-2.0 * np.log(a)) * np.cos(2.0 * np.pi * b), np.sqrt(-2.0 * np.log(a)) * np.sin(2.0 * np.pi * b)]
    return np.column_stack(g[:m])


def left_to_right_sum(x) -> np.ndarray:
    """sum_j x[..., j] per row in Python floats: ((0.0 + x_0) + x_1) + ..."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1])
    for idx in np.ndindex(*x.shape[:-1]):
        s = 0.0
        for v in x[idx].tolist():
            s += v
        out[idx] = s
    return out


def left_to_right_dot(a, b) -> np.ndarray:
    """sum_j a[..., j] b[..., j] per row in Python floats, each product rounded, then added as above."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    prods = np.empty(a.shape)
    for idx in np.ndindex(*a.shape):
        prods[idx] = float(a[idx]) * float(b[idx])
    return left_to_right_sum(prods)


def sorted_row_operator(name, rows, e_q, params, zero_tol=1e-12) -> np.ndarray:
    """A table operator on sorted eigenvalue rows (N, m) by its row formula, every sum added as above.

    The Pucci pair drops eigenvalues with |e| <= zero_tol times the row's
    Frobenius norm; the alpha pair reads the first (plus) or last (minus)
    entry of each row.
    """
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[-1]
    trace = left_to_right_sum(rows)
    if name in ("pucci_max", "pucci_min"):
        fro = np.sqrt(left_to_right_dot(rows, rows))
        live = ~(np.abs(rows) <= zero_tol * fro[..., None])
        neg = left_to_right_sum(np.where((rows < 0.0) & live, rows, 0.0))
        pos = left_to_right_sum(np.where((rows > 0.0) & live, rows, 0.0))
        lam, Lam = params["ell"].lam, params["ell"].Lam
        return -Lam * neg - lam * pos if name == "pucci_max" else -Lam * pos - lam * neg
    if name in ("pucci_plus_alpha", "pucci_minus_alpha"):
        a = params["alpha"]
        return -a * trace - (1.0 - m * a) * rows[..., 0 if name == "pucci_plus_alpha" else -1]
    if name == "pnorm":
        return -(trace + (params["p"] - 2.0) * e_q)
    assert name == "neg_trace"
    return -trace
