"""Closed-form radial profiles and the scalar fields they induce.

Two kinds of profile are shipped.  "heisenberg" profiles are functions of the
gauge norm rho on H^d and are differentiated exactly through rho; their
horizontal Hessian has the closed-form three-eigenvalue spectrum f'' w,
3 f' w / rho and f' w / rho (w = |x_H|^2 / rho^2).  "euclidean" profiles
are functions of |x| on R^d with the usual radial spectrum f'' (simple) and
f'/r (multiplicity d - 1).  The checker reads both by multiplicity.

The two-piece profiles share one template: a quartic core glued at radius 1
to a decaying power tail,

    f(r) = s/8 * [k(k-2) r^4 - 2(k^2-4) r^2 + k(k+2)]   for r < 1,
    f(r) = s * r^(2-k)                                   for r >= 1,

with sign s in {+1, -1} and exponent k > 2.  The gluing is C^1 (in fact C^2)
and the field is bounded, nonconstant, and one-signed.  u2 and u3 (on R^d),
u_tilde, u4 and u5 each fix (s, k).  Single-piece profiles: folland
(rho^(2-Q), annihilated by the horizontal Laplacian away from the origin),
log_rho / neg_log_rho, and power (rho^kappa for a caller-chosen kappa).

Every piece is data, (lo, hi, kind, coefficients, sign) with kind quartic,
power or log, and one evaluator gives f, f' and f'' of any piece.

Each shipped profile is one record of PROFILES (an Example), which
make_profile, profile_catalog, the command line and the checker's formula
mode and growth thresholds read: a new profile is one new entry there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import hgroup
from .hgroup import HeisDims
from .operators import Ellipticity, PucciAlpha

__all__ = [
    "PROFILES",
    "Example",
    "ProfilePiece",
    "ProfileRegimeError",
    "RadialProfile",
    "ScalarField",
    "field_from_profile",
    "make_profile",
    "profile_catalog",
]


class ProfileRegimeError(ValueError):
    """Raised when a profile's exponent leaves its nondegenerate regime."""


@dataclass(frozen=True)
class ProfilePiece:
    """One closed-form piece sign * f on [lo, hi), stored as data.

    quartic: coeffs (c4, c2, c0), f = (c4 r^2 - c2) r^2 + c0; power: (k,),
    f = r^k; log: (), f = log r.
    """

    lo: float
    hi: float
    kind: str
    coeffs: tuple[float, ...]
    sign: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("quartic", "power", "log"):
            raise ValueError(f"unknown piece kind {self.kind!r}")

    def jets(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, f', f'') of the piece at radii r."""
        s = self.sign
        if self.kind == "quartic":
            c4, c2, c0 = self.coeffs
            r2 = r * r
            return (
                s * ((c4 * r2 - c2) * r2 + c0),
                s * (4.0 * c4 * r * r - 2.0 * c2) * r,
                s * (12.0 * c4 * r * r - 2.0 * c2),
            )
        if self.kind == "power":
            (k,) = self.coeffs
            # One power, and f', f'' from f: where r^k is subnormal they keep their ratios to it, while a
            # power per jet let r^(k-2) underflow to 0 beside a nonzero r^(k-1) (kappa = -1000 at rho = 2.1).
            f = s * r**k
            return f, (fp := k * f / r), (k - 1.0) * fp / r
        return s * np.log(r), s / r, -s / (r * r)


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise radial profile with exact derivatives.

    kind is "heisenberg" (radius = gauge norm) or "euclidean" (radius = |x|).
    params records the constants the named profile was built from; bounded
    and sup_abs describe sup |f| over (0, inf).  Negating a profile flips
    the sign of every piece and renames it -(name).
    """

    name: str
    kind: str
    pieces: tuple[ProfilePiece, ...]
    params: dict
    bounded: bool
    sup_abs: float | None = None

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Radii where one piece ends and the next begins: each later piece's lo."""
        return tuple(p.lo for p in self.pieces[1:])

    def jets(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, f', f'') at radii r."""
        ra = np.asarray(r, dtype=float)
        if np.any(ra < 0.0):
            raise ValueError("radius must be nonnegative")
        # Piece k takes the radii below breakpoint k that no earlier piece took, so a breakpoint or NaN goes outward.
        below = [ra < b for b in self.breakpoints] + [np.ones(ra.shape, bool)]
        masks = below[:1] + [hi & ~lo for lo, hi in zip(below, below[1:])]
        counts = [np.count_nonzero(mask) for mask in masks]
        if ra.size in counts:
            return self.pieces[counts.index(ra.size)].jets(ra)
        outs = np.empty((3, ra.size))
        for piece, mask, n in zip(self.pieces, masks, counts):
            if n:
                at = np.flatnonzero(mask)
                for out, jet in zip(outs, piece.jets(ra.ravel()[at])):
                    out[at] = jet
        return tuple(outs.reshape((3, *ra.shape)))

    def value(self, r) -> np.ndarray:
        return self.jets(r)[0]

    def deriv(self, r) -> np.ndarray:
        return self.jets(r)[1]

    def __neg__(self) -> "RadialProfile":
        pieces = tuple(replace(p, sign=-p.sign) for p in self.pieces)
        return replace(self, name=f"-({self.name})", pieces=pieces)


@dataclass(frozen=True)
class Example:
    """One shipped profile and the claim it makes.

    needs: the make_profile inputs it requires, among "e", "dims" and
    "kappa".  checked_as: the (operator, sense) verify uses when neither is
    given.  build(name, e, dims, kappa) -> (pieces, params after kind, lam,
    Lam, d and Q, sup |f| or None).  closed_forms: operator -> form(rho,
    tau, dims, params) -> (values, where they hold), params the operator
    table's and dims the field's own (dims.d = n on R^n).
    """

    kind: str
    description: str
    needs: tuple[str, ...]
    checked_as: tuple[str, str]
    build: Callable
    closed_forms: dict[str, Callable] = field(default_factory=dict)


def _bump(sign: float, label: str | None, exponent: Callable) -> Callable:
    """Builder of the quartic core and tail r^(2-k), k = exponent(e, dims); label None skips k > 2."""

    def build(name, e, dims, kappa):
        k = exponent(e, dims)
        if label is not None and not k > 2.0:
            raise ProfileRegimeError(
                f"{name}: exponent {label} = {k:.6g} must exceed 2; at or below "
                "the threshold the profile degenerates to a constant"
            )
        core = (k * (k - 2.0) / 8.0, (k * k - 4.0) / 4.0, k * (k + 2.0) / 8.0)
        pieces = (ProfilePiece(0.0, 1.0, "quartic", core, sign), ProfilePiece(1.0, np.inf, "power", (2.0 - k,), sign))
        return pieces, {"exponent": k, "sign": sign}, k * (k + 2.0) / 8.0

    return build


def _power(exponent: Callable) -> Callable:
    def build(name, e, dims, kappa):
        k = exponent(dims, kappa)
        if not np.isfinite(k):
            raise ValueError(f"profile {name!r} needs a finite kappa, got {k}")
        return (ProfilePiece(0.0, np.inf, "power", (k,)),), {"exponent": k}, 1.0 if k == 0.0 else None

    return build


def _log(sign: float) -> Callable:
    return lambda name, e, dims, kappa: ((ProfilePiece(0.0, np.inf, "log", (), sign),), {"sign": sign}, None)


def _everywhere(values: Callable) -> Callable:
    return lambda rho, tau, dims, params: (values(rho, tau, dims, params), np.ones_like(rho, bool))


# Each tail's exponent makes its maximal operator vanish.
_TAIL = {"pucci_max": lambda rho, tau, dims, params: (np.zeros_like(rho), rho >= 1.0)}

PROFILES: dict[str, Example] = {
    "u2": Example(
        "euclidean",
        "positive quartic core / power tail, exponent (Lam/lam)(d-1)+1; "
        "maximal operator of its Hessian is >= 0, valid for exponent > 2",
        ("e", "dims"), ("pucci_max", "supersolution"),
        _bump(+1.0, "beta", lambda e, dims: (e.Lam / e.lam) * (dims.d - 1) + 1.0), _TAIL,
    ),
    "u3": Example(
        "euclidean",
        "negative quartic core / power tail, exponent (lam/Lam)(d-1)+1; "
        "maximal operator of its Hessian is <= 0, valid for exponent > 2",
        ("e", "dims"), ("pucci_max", "subsolution"),
        _bump(-1.0, "alpha", lambda e, dims: (e.lam / e.Lam) * (dims.d - 1) + 1.0), _TAIL,
    ),
    "u_tilde": Example(
        "heisenberg",
        "positive quartic core / power tail with exponent Q; horizontal "
        "Laplacian is <= 0, and vanishes outside the unit gauge ball",
        ("dims",), ("neg_trace", "supersolution"),
        _bump(+1.0, None, lambda e, dims: float(dims.Q)),
        {"neg_trace": _everywhere(lambda rho, tau, dims, params: np.where(
            rho < 1.0, 0.5 * (dims.Q - 2.0) * dims.Q * (dims.Q + 2.0) * (1.0 - rho**2) * tau**2, 0.0
        ))},
    ),
    "u4": Example(
        "heisenberg",
        "negative quartic core / power tail, exponent (lam/Lam)(Q-1)+1; "
        "maximal operator of the horizontal Hessian is <= 0, valid for exponent > 2",
        ("e", "dims"), ("pucci_max", "subsolution"),
        _bump(-1.0, "alpha_tilde", lambda e, dims: (e.lam / e.Lam) * (dims.Q - 1) + 1.0), _TAIL,
    ),
    "u5": Example(
        "heisenberg",
        "positive quartic core / power tail, exponent (Lam/lam)(Q-1)+1; "
        "maximal operator of the horizontal Hessian is >= 0",
        ("e", "dims"), ("pucci_max", "supersolution"),
        _bump(+1.0, "beta_tilde", lambda e, dims: (e.Lam / e.lam) * (dims.Q - 1) + 1.0), _TAIL,
    ),
    "folland": Example(
        "heisenberg", "rho^(2-Q); horizontal Laplacian vanishes away from the origin",
        ("dims",), ("neg_trace", "supersolution"), _power(lambda dims, kappa: 2.0 - dims.Q),
        {"neg_trace": _everywhere(lambda rho, tau, dims, params: np.zeros_like(rho))},
    ),
    "log_rho": Example(
        "heisenberg", "log rho; minimal-operator value has a closed form in |x_H| and rho",
        (), ("pucci_min", "subsolution"), _log(1.0),
        {
            "pucci_min": _everywhere(lambda rho, tau, dims, params: (
                (params["ell"].lam - params["ell"].Lam * (dims.Q - 1)) * tau**2 / rho**2
            )),
            # PucciAlpha refuses an alpha outside (0, 1/m], where the form does not hold.
            "pucci_minus_alpha": _everywhere(lambda rho, tau, dims, params: (
                (4.0 * dims.d * PucciAlpha(params["alpha"], dims.m).alpha - 3.0) * tau**2 / rho**2
            )),
        },
    ),
    "neg_log_rho": Example("heisenberg", "-log rho", (), ("pucci_max", "supersolution"), _log(-1.0)),
    "power": Example(
        "heisenberg", "rho^kappa for a caller-chosen kappa",
        ("kappa",), ("neg_trace", "subsolution"), _power(lambda dims, kappa: float(kappa)),
    ),
}

# How a missing input is named when make_profile refuses it.
_NEEDS = {"e": "an Ellipticity", "dims": "HeisDims", "kappa": "kappa"}


def _missing(example: Example, e, dims, kappa) -> str | None:
    """The first input example needs that was not given, or None."""
    given = {"e": e, "dims": dims, "kappa": kappa}
    return next((need for need in example.needs if given[need] is None), None)


def make_profile(
    name: str, e: Ellipticity | None = None, dims: HeisDims | None = None, *, kappa: float | None = None
) -> RadialProfile:
    """Build the profile of record PROFILES[name].

    The record's needs name the inputs it requires (ValueError if one is
    None); e and dims are echoed into params whenever given, kappa is read
    only by power.  For euclidean-kind names (u2, u3) dims.d is read as the
    ambient Euclidean dimension.
    """
    example = PROFILES.get(name)
    if example is None:
        raise ValueError(f"unknown profile {name!r}; see PROFILES")
    need = _missing(example, e, dims, kappa)
    if need is not None:
        raise ValueError(f"profile {name!r} needs {_NEEDS[need]}")
    params: dict = {"kind": example.kind}
    if e is not None:
        params.update(lam=e.lam, Lam=e.Lam)
    if dims is not None:
        params.update(d=dims.d, Q=dims.Q)
    pieces, extra, sup_abs = example.build(name, e, dims, kappa)
    params.update(extra)
    return RadialProfile(name, example.kind, pieces, params, bounded=sup_abs is not None, sup_abs=sup_abs)


@dataclass(frozen=True)
class ScalarField:
    """A scalar field with exact value/gradient/Hessian evaluators.

    space is "heisenberg" (points in R^(2d+1)) or "euclidean" (points in
    R^dim).  Evaluators are vectorized over leading axes.  singular_radii
    lists radii where the second derivative jumps in its third derivative
    (piece gluings); evaluating exactly there uses the outer piece, and the
    checker excludes a tube around each.  The origin is genuinely singular
    for gradient and Hessian and raises.  Negation negates the jets and the
    profile together, so -field is still its own profile's field.
    """

    name: str
    space: str
    dim: int
    value: Callable
    gradient: Callable
    hessian: Callable
    singular_radii: tuple[float, ...] = ()
    profile: RadialProfile | None = None

    def __neg__(self) -> "ScalarField":
        v, g, h = self.value, self.gradient, self.hessian
        return replace(
            self,
            name=f"-({self.name})",
            value=lambda x: -v(x),
            gradient=lambda x: -g(x),
            hessian=lambda x: -h(x),
            profile=None if self.profile is None else -self.profile,
        )


def field_from_profile(profile: RadialProfile, dims: HeisDims) -> ScalarField:
    """Exact field evaluators for a profile, chain-ruled through its radius.

    hessian returns the (..., n, n) view of a batch-last (n, n, ...) array.
    """
    if profile.kind == "heisenberg":
        dim, m = dims.n, dims.m

        def value(x):
            return profile.value(hgroup.hnorm(x))

        def gradient(x):
            rho = hgroup.hnorm(x)
            return profile.deriv(rho)[..., None] * hgroup.euclid_grad_rho(x, rho)

        def hessian(x):
            # f'' g g^T + f' D^2 rho, g = D rho, one row at a time into one (dim, dim, ...) array:
            # D^2 rho = -3 g g^T / rho + D^2 (rho^4) / (4 rho^3), which is
            # (|x_H|^2 I + 2 x_H x_H^T) / rho^3 on the horizontal block and 1 / (2 rho^3) at (m, m).
            xa = np.asarray(x, dtype=float)
            rho = hgroup.hnorm(xa)
            g = np.moveaxis(hgroup.euclid_grad_rho(xa, rho), -1, 0)  # raises at the group identity
            _, fp, fpp = profile.jets(rho)
            xh, r3, c3 = np.moveaxis(xa[..., :m], -1, 0), rho**3, -3.0 / rho
            s_r3 = hgroup._hsq(xa) / r3
            out, e, h = np.empty((dim, dim) + rho.shape), np.empty((dim,) + rho.shape), np.empty((m,) + rho.shape)
            for i, row in enumerate(out):
                np.multiply(g[i], g, out=row)  # g_i g^T, formed once
                np.multiply(row, c3, out=e)
                if i < m:
                    np.multiply(xh[i], xh, out=h)
                    h *= 2.0
                    h /= r3
                    h += 0.0  # (s / rho^3) 0.0 + 2 x_i x_j / rho^3 off the diagonal
                    h[i] += s_r3
                    e[:m] += h
                else:
                    e[m] += 1.0 / (2.0 * r3)
                e *= fp
                row *= fpp
                row += e
            return np.moveaxis(out, (0, 1), (-2, -1))

    elif profile.kind == "euclidean":
        dim = dims.d
        if dim < 2:
            raise ValueError("euclidean radial fields need ambient dimension >= 2")

        def _radius(x):
            xa = np.asarray(x, dtype=float)
            if xa.shape[-1] != dim:
                raise ValueError(f"expected points in R^{dim}")
            return xa, hgroup._length(xa)

        def value(x):
            _, r = _radius(x)
            return profile.value(r)

        def gradient(x):
            xa, r = _radius(x)
            if np.any(r == 0.0):
                raise ValueError("radial gradient undefined at the origin")
            return profile.deriv(r)[..., None] * (xa / r[..., None])

        def hessian(x):
            xa, r = _radius(x)
            if np.any(r == 0.0):
                raise ValueError("radial Hessian undefined at the origin")
            # f'' u u^T + (f' / r) (I - u u^T), u = x / r, in one (n, n, ...) array.
            u = np.moveaxis(xa / r[..., None], -1, 0)
            _, fp, fpp = profile.jets(r)
            out = np.multiply(u[:, None], u[None, :], order="C")
            rest = np.subtract(np.eye(dim).reshape((dim, dim) + (1,) * r.ndim), out)
            rest *= fp / r
            out *= fpp
            out += rest
            return np.moveaxis(out, (0, 1), (-2, -1))

    else:
        raise ValueError(f"unknown profile kind {profile.kind!r}")

    return ScalarField(
        name=profile.name,
        space=profile.kind,
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        singular_radii=profile.breakpoints,
        profile=profile,
    )


def profile_catalog(
    e: Ellipticity | None = None, dims: HeisDims | None = None
) -> list[dict]:
    """Rows describing every shipped profile, optionally instantiated."""
    rows = []
    for name, example in PROFILES.items():
        row = {"name": name, "kind": example.kind, "description": example.description}
        if dims is not None and _missing(example, e, dims, None) is None:
            try:
                prof = make_profile(name, e, dims)
                row["exponent"] = prof.params.get("exponent")
                row["valid"] = True
            except ProfileRegimeError as exc:
                row["valid"] = False
                row["reason"] = str(exc)
        rows.append(row)
    return rows
