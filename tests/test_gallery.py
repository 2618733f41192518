import dataclasses

import numpy as np
import pytest

from heispde import gallery, hgroup
from heispde.gallery import (
    ProfilePiece,
    ProfileRegimeError,
    RadialProfile,
    field_from_profile,
    make_profile,
)
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

import _oracles


E12 = Ellipticity(1.0, 2.0)


def _bump_cases():
    return [
        ("u2", E12, HeisDims(3)),
        ("u3", E12, HeisDims(4)),
        ("u_tilde", None, HeisDims(2)),
        ("u4", Ellipticity(1.0, 1.5), HeisDims(1)),
        ("u5", E12, HeisDims(1)),
    ]


@pytest.mark.parametrize("name,e,dims", _bump_cases())
def test_bump_profiles_glue_twice_differentiably(name, e, dims):
    prof = make_profile(name, e, dims)
    inner, outer = prof.pieces
    assert (inner.kind, outer.kind) == ("quartic", "power")
    assert inner.sign == outer.sign == prof.params["sign"]
    for j_in, j_out in zip(inner.jets(1.0), outer.jets(1.0)):
        assert np.isclose(j_in, j_out, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name,e,dims", _bump_cases())
def test_bump_profiles_stay_bounded(name, e, dims):
    prof = make_profile(name, e, dims)
    assert prof.bounded
    k = prof.params["exponent"]
    assert np.isclose(prof.sup_abs, k * (k + 2.0) / 8.0)
    r = np.linspace(1e-6, 50.0, 4000)
    assert np.abs(prof.value(r)).max() <= prof.sup_abs + 1e-12


def test_negative_bump_junction_values():
    dims = HeisDims(1)
    e = Ellipticity(1.0, 1.5)
    prof = make_profile("u4", e, dims)
    k = (e.lam / e.Lam) * (dims.Q - 1) + 1.0
    assert np.isclose(prof.params["exponent"], k)
    assert np.isclose(prof.value(1.0), -1.0, rtol=1e-14)
    assert np.isclose(prof.deriv(1.0), k - 2.0, rtol=1e-12)
    # strictly negative everywhere, decaying tail
    r = np.linspace(0.0, 20.0, 500)
    assert np.all(prof.value(r) < 0.0)
    assert abs(prof.value(20.0)) < abs(prof.value(1.0))


def test_positive_bump_peaks_at_origin():
    prof = make_profile("u5", E12, HeisDims(1))
    k = prof.params["exponent"]
    assert np.isclose(prof.value(0.0), k * (k + 2.0) / 8.0)
    assert np.isclose(prof.value(1.0), 1.0)
    r = np.linspace(0.0, 5.0, 400)
    vals = prof.value(r)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_exponents_follow_the_ellipticity_ratio():
    dims = HeisDims(2)
    prof2 = make_profile("u2", E12, HeisDims(3))
    assert np.isclose(prof2.params["exponent"], 2.0 * 2 + 1.0)  # (Lam/lam)(d-1)+1
    prof5 = make_profile("u5", E12, dims)
    assert np.isclose(prof5.params["exponent"], 2.0 * (dims.Q - 1) + 1.0)
    prof4 = make_profile("u4", Ellipticity(1.0, 1.5), dims)
    assert np.isclose(prof4.params["exponent"], (1.0 / 1.5) * (dims.Q - 1) + 1.0)
    proft = make_profile("u_tilde", None, dims)
    assert proft.params["exponent"] == float(dims.Q)


def test_degenerate_regimes_raise():
    # exponent must exceed 2 for the tail to decay; these parameter choices
    # put it at or below the threshold
    with pytest.raises(ProfileRegimeError):
        make_profile("u2", E12, HeisDims(1))  # beta = 1
    with pytest.raises(ProfileRegimeError):
        make_profile("u3", E12, HeisDims(3))  # alpha = 2 exactly
    with pytest.raises(ProfileRegimeError):
        make_profile("u3", Ellipticity(1.0, 3.0), HeisDims(3))  # alpha = 5/3
    with pytest.raises(ProfileRegimeError):
        make_profile("u4", Ellipticity(1.0, 3.0), HeisDims(1))  # alpha_tilde = 2


def test_regime_error_is_a_value_error():
    assert issubclass(ProfileRegimeError, ValueError)


def test_folland_profile_matches_bump_tail():
    dims = HeisDims(2)
    fol = make_profile("folland", None, dims)
    tilde = make_profile("u_tilde", None, dims)
    assert not fol.bounded
    r = np.linspace(1.0, 10.0, 50)
    assert np.allclose(fol.value(r), tilde.value(r), rtol=1e-14)
    assert np.allclose(fol.deriv(r), tilde.deriv(r), rtol=1e-14)


def test_power_profile_boundedness_flag():
    flat = make_profile("power", kappa=0.0)
    assert flat.bounded and flat.sup_abs == 1.0
    grow = make_profile("power", kappa=2.0)
    assert not grow.bounded
    with pytest.raises(ValueError):
        make_profile("power")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="kappa"):
            make_profile("power", kappa=bad)


def test_piece_dispatch_uses_outer_piece_at_breakpoint():
    # Constant pieces r^0 with signs 0 and 1: a unit step at r = 1.
    lo = ProfilePiece(0.0, 1.0, "power", (0.0,), 0.0)
    hi = ProfilePiece(1.0, np.inf, "power", (0.0,), 1.0)
    prof = RadialProfile("step", "heisenberg", (lo, hi), {}, bounded=True, sup_abs=1.0)
    assert prof.breakpoints == (1.0,)
    assert prof.value(0.999999) == 0.0
    assert prof.value(1.0) == 1.0
    assert prof.value(1.000001) == 1.0
    assert np.array_equal(prof.jets([0.5, 1.0, 2.0])[0], [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="piece kind"):
        ProfilePiece(0.0, 1.0, "cubic", (1.0,))


def test_unknown_profile_and_missing_arguments():
    with pytest.raises(ValueError):
        make_profile("nope", E12, HeisDims(1))
    with pytest.raises(ValueError):
        make_profile("u5", None, HeisDims(1))
    with pytest.raises(ValueError):
        make_profile("u5", E12, None)


def test_heisenberg_field_jets_match_fd():
    dims = HeisDims(1)
    prof = make_profile("u5", E12, dims)
    field = field_from_profile(prof, dims)
    pts = np.array([[0.4, -0.3, 0.5], [1.3, 0.2, -2.0], [0.1, 0.1, 0.3]])
    for x in pts:
        fn = lambda p: float(field.value(p))  # noqa: E731
        assert np.allclose(field.gradient(x), _oracles.fd_gradient(fn, x), atol=1e-7)
        assert np.allclose(field.hessian(x), _oracles.fd_hessian(fn, x), atol=2e-5)


def test_euclidean_field_jets_match_fd():
    dims = HeisDims(3)
    prof = make_profile("u2", E12, dims)
    field = field_from_profile(prof, dims)
    assert field.space == "euclidean" and field.dim == 3
    pts = np.array([[0.4, -0.3, 0.5], [1.4, 0.6, -0.2]])
    for x in pts:
        fn = lambda p: float(field.value(p))  # noqa: E731
        assert np.allclose(field.gradient(x), _oracles.fd_gradient(fn, x), atol=1e-7)
        assert np.allclose(field.hessian(x), _oracles.fd_hessian(fn, x), atol=2e-5)


def _valid_fields():
    """(name, d) for every profile at d = 1, 2, 3 that its regime admits."""
    cases = []
    for name in gallery.PROFILES:
        for d in (1, 2, 3):
            try:
                make_profile(name, Ellipticity(1.0, 1.5), HeisDims(d), kappa=-0.5)
            except ProfileRegimeError:
                continue
            cases.append((name, d))
    return cases


@pytest.mark.parametrize("name,d", _valid_fields())
def test_every_field_s_exact_hessian_matches_central_differences_to_second_order(name, d):
    # The horizontal Hessian on the group, the Euclidean one for the Euclidean
    # bumps.  The points sit at radii 0.6 and 1.6, on both sides of the gluing
    # sphere, and far enough from it that no stencil shrinks its step.
    dims = HeisDims(d)
    field = field_from_profile(make_profile(name, Ellipticity(1.0, 1.5), dims, kappa=-0.5), dims)
    rng = np.random.default_rng(31 + d)
    x = rng.standard_normal((6, field.dim))
    scale = np.where(np.arange(6) % 2, 1.6, 0.6)
    if field.space == "heisenberg":
        x = hgroup.dilate(scale / hgroup.hnorm(x), x)
        exact = hgroup.h_hessian(None, field.hessian(x), x)
    else:
        x *= (scale / np.linalg.norm(x, axis=-1))[:, None]
        exact = field.hessian(x)
    kw = {"space": field.space, "singular_radii": field.singular_radii}
    errs = []
    for h in (1e-2, 5e-3):
        fd = [_oracles.fd_h_hessian_one(field.value, p, h, **kw) for p in x]
        assert [step for _, step in fd] == [h] * 6
        errs.append(np.abs(np.stack([m for m, _ in fd]) - exact).max())
    # At h = 1e-2 the largest relative error, folland's at d = 3, is 1.4e-3.
    assert errs[0] <= 5e-3 * max(1.0, np.abs(exact).max())
    assert 1.9 <= np.log2(errs[0] / errs[1]) <= 2.1


def test_the_oracle_shrinks_its_step_away_from_the_gluing_sphere():
    field = field_from_profile(make_profile("u4", Ellipticity(1.0, 1.5), HeisDims(1)), HeisDims(1))
    # a point whose gauge distance to the kink is far smaller than h
    x = hgroup.dilate(1.0 + 1e-4, np.array([1.0, 0.0, 0.0]))
    exact = hgroup.h_hessian(None, field.hessian(x), x)
    fd, step = _oracles.fd_h_hessian_one(field.value, x, 1e-2, singular_radii=field.singular_radii)
    assert step < 1e-2
    assert np.abs(fd - exact).max() <= 1e-3
    # sitting exactly on the kink can never be resolved
    with pytest.raises(ValueError):
        _oracles.fd_h_hessian_one(field.value, np.array([1.0, 0.0, 0.0]), 1e-2, singular_radii=(1.0,))


def test_log_field_horizontal_identity():
    dims = HeisDims(2)
    field = field_from_profile(make_profile("log_rho", None, dims), dims)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((32, 5))
    rho = hgroup.hnorm(x)
    hg = hgroup.h_gradient(field.gradient(x), x)
    assert np.allclose(hg, hgroup.eta(x) / rho[:, None] ** 4, rtol=1e-11, atol=1e-14)


def test_euclid_radial_spectrum_of_log():
    # log |x| in the plane: Hessian eigenvalues -1/r^2 and 1/r^2
    r = 1.0
    eigs = _oracles.sorted_spectrum_rows(((-1.0 / r**2, 1), (1.0 / r, 1)))
    assert np.allclose(eigs, [-1.0, 1.0], rtol=1e-12)

    dims = HeisDims(2)
    prof = make_profile("u2", E12, dims)
    field = field_from_profile(prof, dims)
    pts = np.array([[0.3, 0.4], [1.2, -0.5]])
    eigs = np.linalg.eigvalsh(field.hessian(pts))
    r = np.linalg.norm(pts, axis=1)
    _, fp, fpp = prof.jets(r)
    want = _oracles.sorted_spectrum_rows(((fpp, 1), (fp / r, 1)))
    assert np.allclose(eigs, want, atol=1e-12)


def test_fields_raise_at_the_origin():
    dims = HeisDims(1)
    heis = field_from_profile(make_profile("u5", E12, dims), dims)
    with pytest.raises(ValueError):
        heis.gradient(np.zeros(3))
    with pytest.raises(ValueError, match="identity"):
        heis.hessian(np.zeros((2, 3)))
    eucl = field_from_profile(make_profile("u2", E12, HeisDims(2)), HeisDims(2))
    with pytest.raises(ValueError):
        eucl.gradient(np.zeros(2))
    with pytest.raises(ValueError):
        eucl.hessian(np.zeros(2))


def test_negated_field_flips_all_jets():
    dims = HeisDims(1)
    field = field_from_profile(make_profile("u4", Ellipticity(1.0, 1.5), dims), dims)
    neg = -field
    x = np.array([0.5, -0.2, 0.9])
    assert neg.value(x) == -field.value(x)
    assert np.array_equal(neg.gradient(x), -field.gradient(x))
    assert np.array_equal(neg.hessian(x), -field.hessian(x))
    assert neg.name == neg.profile.name == "-(u4)"
    assert [p.sign for p in neg.profile.pieces] == [-p.sign for p in field.profile.pieces]
    assert neg.profile.params == field.profile.params
    r = np.linspace(0.0, 3.0, 301)
    for got, want in zip(neg.profile.jets(r), field.profile.jets(r)):
        assert np.array_equal(got, -want)
    assert (-neg).profile.pieces == field.profile.pieces
    bare = dataclasses.replace(field, profile=None)
    assert (-bare).profile is None


def test_fields_are_genuinely_nonconstant():
    for name, e, dims in _bump_cases():
        prof = make_profile(name, e, dims)
        swing = abs(float(prof.value(0.0)) - float(prof.value(1.0)))
        assert swing >= 0.1


def test_catalog_lists_every_profile():
    rows = gallery.profile_catalog(E12, HeisDims(1))
    names = {r["name"] for r in rows}
    assert names == set(gallery.PROFILES)
    by_name = {r["name"]: r for r in rows}
    assert by_name["u2"]["valid"] is False  # d = 1 puts the exponent at 1
    assert by_name["u5"]["valid"] is True
    assert "description" in by_name["folland"]
