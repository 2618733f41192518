import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from hypothesis.extra.numpy import arrays

from heispde import hgroup
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims

import _oracles


def test_group_law_example():
    out = hgroup.group_mul([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.array_equal(out, [1.0, 1.0, -2.0])


def test_the_horizontal_gradient_commutes_with_left_translation():
    # u = x_1 t at d = 2 is not radial, so a right-invariant frame fails here.
    def u(p):
        return p[..., 0] * p[..., -1]

    def grad_u(p):
        return np.stack([p[..., -1], *np.zeros((3,) + p.shape[:-1]), p[..., 0]], axis=-1)

    rng = np.random.default_rng(3)
    g, x = rng.standard_normal((2, 8, 5))
    h = 1e-5
    steps = h * np.eye(5)
    # Euclidean gradient of u o L_g at x by central differences.
    fd = np.stack([(u(hgroup.group_mul(g, x + e)) - u(hgroup.group_mul(g, x - e))) / (2 * h) for e in steps], axis=-1)
    gx = hgroup.group_mul(g, x)
    assert np.allclose(hgroup.h_gradient(fd, x), hgroup.h_gradient(grad_u(gx), gx), rtol=0, atol=1e-7)


# u = x_1 t + 0.3 x_2^2 x_4 at d = 2: not radial, with exact jets.
def _u(p):
    return p[..., 0] * p[..., -1] + 0.3 * p[..., 1] ** 2 * p[..., 3]


def _u_h_hessian(p):
    """Horizontal Hessian of _u at points p of shape (N, 5), from its exact Euclidean Hessian."""
    hess = np.zeros((p.shape[0], 5, 5))
    hess[:, 0, 4] = hess[:, 4, 0] = 1.0
    hess[:, 1, 1] = 0.6 * p[:, 3]
    hess[:, 1, 3] = hess[:, 3, 1] = 0.6 * p[:, 1]
    return hgroup.h_hessian(None, hess, p)


def _fd_h_hessian(value_fn, x, h):
    """Finite-difference horizontal Hessians at the rows of x, one point at a time."""
    return np.stack([_oracles.fd_h_hessian_one(value_fn, p, h)[0] for p in x])


def test_the_horizontal_hessian_commutes_with_left_translation():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((8, 5))
    for g in rng.standard_normal((3, 5)):
        left = _fd_h_hessian(lambda p: _u(hgroup.group_mul(g, p)), x, 1e-3)
        right = _fd_h_hessian(lambda p: _u(hgroup.group_mul(p, g)), x, 1e-3)
        expected = _u_h_hessian(hgroup.group_mul(g, x))
        assert np.abs(left - expected).max() <= 1e-6 * max(1.0, np.abs(expected).max())
        # The frame is left-invariant only: right translation moves the Hessian.
        assert np.abs(right - _u_h_hessian(hgroup.group_mul(x, g))).max() > 0.1


@pytest.mark.parametrize("lam", [0.6, 1.7])
def test_the_horizontal_hessian_scales_by_lam_squared_under_dilation(lam):
    x = np.random.default_rng(14).standard_normal((8, 5))
    fd = _fd_h_hessian(lambda p: _u(hgroup.dilate(lam, p)), x, 1e-3)
    expected = lam**2 * _u_h_hessian(hgroup.dilate(lam, x))
    assert np.abs(fd - expected).max() <= 1e-6 * max(1.0, np.abs(expected).max())


def _unitary_rotation(d, rng):
    """A rotation [[A, -B], [B, A]] of x_H from a random unitary A + iB; it commutes with hperp."""
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def _log_rho_h_spectrum(x):
    """Sorted horizontal Hessian spectrum of log rho, assembled from its Euclidean jets."""
    rho = hgroup.hnorm(x)
    hess = _oracles.gauge_radial_hessian(x, rho, hgroup.euclid_grad_rho(x, rho), 1.0 / rho, -1.0 / rho**2)
    return np.linalg.eigvalsh(hgroup.h_hessian(None, hess, x))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_reflection_and_unitary_rotations_keep_the_gauge_norm_and_radial_spectrum(d):
    rng = np.random.default_rng(15 + d)
    x = rng.standard_normal((16, 2 * d + 1))
    rot = _unitary_rotation(d, rng)
    reflected = x * np.append(np.ones(2 * d), -1.0)
    rotated = np.column_stack([x[:, :-1] @ rot.T, x[:, -1]])
    assert np.allclose(hgroup.hperp(rotated), hgroup.hperp(x) @ rot.T, rtol=0.0, atol=1e-14 * np.abs(x).max())
    spectrum = _log_rho_h_spectrum(x)
    assert np.array_equal(hgroup.hnorm(reflected), hgroup.hnorm(x))
    assert np.allclose(hgroup.hnorm(rotated), hgroup.hnorm(x), rtol=1e-14, atol=0.0)
    for y in (reflected, rotated):
        assert np.allclose(_log_rho_h_spectrum(y), spectrum, rtol=0.0, atol=1e-12 * np.abs(spectrum).max())


def test_identity_and_inverse_are_exact():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        x = rng.standard_normal(2 * d + 1)
        zero = np.zeros(2 * d + 1)
        assert np.array_equal(hgroup.group_mul(x, zero), x)
        assert np.array_equal(hgroup.group_mul(zero, x), x)
        # the twist term cancels exactly for (x, -x), not just approximately
        assert np.array_equal(hgroup.group_mul(x, hgroup.group_inverse(x)), zero)
        assert np.array_equal(hgroup.group_mul(hgroup.group_inverse(x), x), zero)


@seed(1)
@given(arrays(np.float64, (3, 5), elements=st.floats(-5, 5)))
def test_group_mul_is_associative(pts):
    x, y, z = pts
    left = hgroup.group_mul(hgroup.group_mul(x, y), z)
    right = hgroup.group_mul(x, hgroup.group_mul(y, z))
    assert np.allclose(left, right, atol=1e-9)


def test_dilation_example_and_homomorphism():
    assert np.array_equal(hgroup.dilate(2.0, [1.0, 1.0, 1.0]), [2.0, 2.0, 4.0])
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 7))
    lam = 1.7
    a = hgroup.dilate(lam, hgroup.group_mul(x, y))
    b = hgroup.group_mul(hgroup.dilate(lam, x), hgroup.dilate(lam, y))
    assert np.allclose(a, b, atol=1e-12)


def test_dilate_rejects_bad_factor():
    with pytest.raises(ValueError):
        hgroup.dilate(0.0, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        hgroup.dilate(-1.0, [1.0, 0.0, 0.0])


def test_points_must_have_odd_width():
    with pytest.raises(ValueError):
        hgroup.hnorm([1.0, 2.0])
    with pytest.raises(ValueError):
        hgroup.group_mul([1.0, 0.0, 0.0, 0.0], [0.0] * 4)


def test_gauge_norm_example_and_homogeneity():
    assert np.isclose(hgroup.hnorm([1.0, 1.0, 1.0]), 5.0**0.25, rtol=1e-15)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((64, 5))
    lam = 2.3
    assert np.allclose(
        hgroup.hnorm(hgroup.dilate(lam, x)), lam * hgroup.hnorm(x), rtol=1e-13
    )


def test_gauge_norm_is_finite_where_the_horizontal_square_overflows(recwarn):
    assert abs(hgroup.hnorm(np.array([1e160, 0.0, 0.0])) - 1e160) <= np.spacing(1e160)
    assert np.isclose(hgroup.hnorm([1e150, 0.0, 1e300]), 2.0**0.25 * 1e150, rtol=1e-15)
    # Only the overflowing rows are rescaled: every other row keeps its bits.
    x = np.random.default_rng(4).standard_normal((16, 5))
    big = np.concatenate([x, [[1e160, -3e159, 2e158, 0.0, 1e300]]])
    assert np.array_equal(hgroup.hnorm(big)[:-1].view(np.uint64), hgroup.hnorm(x).view(np.uint64))
    assert np.isclose(hgroup.hnorm(big)[-1], np.hypot(1e160, 3e159 * np.hypot(1.0, 2e158 / 3e159)), rtol=1e-15)
    # |x| on R^n follows the same rule.
    assert np.array_equal(hgroup._length(big)[:-1], np.sqrt(hgroup._rowdot(x, x)))
    assert np.isclose(hgroup._length(big)[-1], 1e300, rtol=1e-15)
    assert not recwarn.list


def test_the_gauge_norm_and_length_keep_their_bits_on_the_column_form(recwarn):
    # _rescaled_sq sums k_j v_j^2 over (v_j, k_j) columns; a point's coordinates
    # are columns of multiplicity 1, summed left to right as _rowdot does.
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, 5)) * 10.0 ** rng.integers(-100, 100, (300, 1))
    h2 = _oracles.left_to_right_dot(x[:, :-1], x[:, :-1])
    assert np.array_equal(hgroup.hnorm(x), np.sqrt(np.hypot(h2, np.abs(x[:, -1]))))
    assert np.array_equal(hgroup._length(x), np.sqrt(_oracles.left_to_right_dot(x, x)))
    assert np.array_equal(hgroup.hnorm(x[7]), hgroup.hnorm(x)[7])
    # Columns with multiplicities: only the row whose sum overflows is rescaled.
    a, b = x[:, 0].copy(), x[:, 1].copy()
    a[-1], b[-1] = 1e200, -1e199
    got = hgroup._length(((a, 1), (b, 3)))
    assert np.array_equal(got[:-1], np.sqrt(a[:-1] * a[:-1] + 3.0 * (b[:-1] * b[:-1])))
    assert np.isclose(got[-1], 1e200 * np.sqrt(1.03), rtol=1e-15)
    assert not recwarn.list


def test_gauge_norm_quartic_definition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((32, 7))
    d = 3
    s = np.einsum("ij,ij->i", x[:, : 2 * d], x[:, : 2 * d])
    assert np.allclose(hgroup.hnorm(x) ** 4, s**2 + x[:, -1] ** 2, rtol=1e-12)


def test_eta_example_and_norm_identity():
    assert np.array_equal(hgroup.eta([1.0, 0.0, 5.0]), [1.0, -5.0])
    rng = np.random.default_rng(4)
    x = rng.standard_normal((64, 5))
    et = hgroup.eta(x)
    s = np.einsum("ij,ij->i", x[:, :4], x[:, :4])
    rho = hgroup.hnorm(x)
    assert np.allclose(
        np.einsum("ij,ij->i", et, et), s * rho**4, rtol=1e-12
    )


def test_frame_example():
    sigma = _oracles.frame([1.0, 2.0, 7.0])
    assert sigma.shape == (3, 2)
    assert np.array_equal(sigma[:2], np.eye(2))
    assert np.array_equal(sigma[2], [4.0, -2.0])


def test_h_gradient_of_vertical_coordinate():
    # u = t has Euclidean gradient e_t; its horizontal gradient is 2 hperp
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 5))
    grad = np.zeros_like(x)
    grad[:, -1] = 1.0
    assert np.allclose(hgroup.h_gradient(grad, x), 2.0 * hgroup.hperp(x), atol=0)


def test_h_gradient_of_gauge_norm():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((64, 7))
    rho = hgroup.hnorm(x)
    hg = hgroup.h_gradient(hgroup.euclid_grad_rho(x, rho), x)
    assert np.allclose(hg, hgroup.eta(x) / rho[:, None] ** 3, rtol=1e-11, atol=1e-13)
    s = np.einsum("ij,ij->i", x[:, :6], x[:, :6])
    assert np.allclose(
        np.einsum("ij,ij->i", hg, hg), s / rho**2, rtol=1e-11
    )


def test_h_hessian_of_vertical_coordinate_vanishes():
    # the symmetrized second derivative of u = t is zero: the antisymmetric
    # commutator part carries the vertical direction, not the Hessian
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 5))
    grad = np.zeros_like(x)
    grad[:, -1] = 1.0
    hess = np.zeros((8, 5, 5))
    assert np.abs(hgroup.h_hessian(grad, hess, x)).max() == 0.0


def test_h_hessian_of_horizontal_square():
    # u = |x_H|^2: Euclidean Hessian is 2 on the horizontal block, and the
    # horizontal Hessian comes out exactly 2 I
    rng = np.random.default_rng(8)
    for d in (1, 2):
        n = 2 * d + 1
        x = rng.standard_normal((8, n))
        grad = np.concatenate([2.0 * x[:, : 2 * d], np.zeros((8, 1))], axis=1)
        hess = np.zeros((8, n, n))
        hess[:, : 2 * d, : 2 * d] = 2.0 * np.eye(2 * d)
        out = hgroup.h_hessian(grad, hess, x)
        assert np.allclose(out, np.broadcast_to(2.0 * np.eye(2 * d), out.shape), atol=0)


def _raised(fn, *args):
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


def test_h_hessian_rejects_asymmetric_input():
    x = np.array([0.5, -0.3, 0.8])
    grad = np.zeros(3)
    hess = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    msg = _raised(hgroup.h_hessian, grad, hess, x)
    assert msg == "Hessian is not symmetric: max |H - H^T| = 1.000e+00"
    assert msg == _raised(_oracles.h_hessian_rank2, hess, x)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_h_hessian_rejects_bad_input_with_the_same_messages(d):
    n = 2 * d + 1
    rng = np.random.default_rng(d)
    x = rng.standard_normal((7, n))
    hess = rng.standard_normal((7, n, n))
    hess += np.swapaxes(hess, -1, -2)
    # The largest skew sits in the lower triangle and in the last matrix.
    skewed = hess.copy()
    skewed[-1, -1, 0] += 3e-9
    skewed[2, 1, 0] += 1e-9
    nan = hess.copy()
    nan[3, 0, -1] = np.nan
    bad = {
        "Hessian is not symmetric: max |H - H^T| = 3.000e-09": skewed,
        "Hessian entries must be finite": nan,
        "Hessian shape does not match the point width": hess[..., :-1, :-1],
    }
    for want, h in bad.items():
        assert _raised(_oracles.h_hessian_rank2, h, x) == want
        # Read in place (batch-last, Fortran-ordered) or through a copy (C-ordered).
        for layout in ("C", "F", "batch-last"):
            assert _raised(hgroup.h_hessian, None, _in_layout(layout, h, 2), x) == want


def _entries(data, shape):
    """Signed magnitudes 10^-span .. 10^span, span up to 150, a drawn share of them +0.0 or -0.0."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    span = data.draw(st.sampled_from([1, 10, 150]))
    zeros = data.draw(st.sampled_from([0.0, 0.3, 0.9]))
    mag = 10.0 ** rng.uniform(-span, span, shape) * rng.choice([-1.0, 1.0], shape)
    return np.where(rng.random(shape) < zeros, rng.choice([0.0, -0.0], shape), mag)


def _in_layout(kind, a, entries):
    """a C-ordered, Fortran-ordered, batch-last (its last `entries` axes first in memory) or strided."""
    if kind == "strided":
        return np.repeat(a, 2, axis=-1)[..., ::2]
    if kind == "batch-last":
        axes = list(range(a.ndim - entries, a.ndim))
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, axes, range(entries))), range(entries), axes)
    return np.asfortranarray(a) if kind == "F" else np.ascontiguousarray(a)


def _layout(data, a, entries):
    return _in_layout(data.draw(st.sampled_from(["C", "F", "batch-last", "strided"])), a, entries)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_h_hessian_matches_the_rank_two_oracle_bit_for_bit(data):
    d = data.draw(st.integers(1, 4))
    n = 2 * d + 1
    lead = data.draw(st.sampled_from([(), (7,), (2, 3)]))
    # Both batched, or the Hessian or the points shared by every row, or
    # each broadcast along one axis.
    h_lead, x_lead = data.draw(
        st.sampled_from([(lead, lead), ((), lead), (lead, ()), (lead[:-1] + (1,), lead[-1:])])
    )
    a = _entries(data, h_lead + (n, n))
    hess = a + np.swapaxes(a, -1, -2)
    if data.draw(st.booleans()):
        # A skew the check lets through, relative to each matrix's largest
        # entry, which the symmetrization removes.
        hess[..., -1, 0] += data.draw(st.floats(-4e-13, 4e-13)) * np.abs(hess).max(axis=(-2, -1))
    x = _entries(data, x_lead + (n,))
    hess_in, x_in = _layout(data, hess, 2), _layout(data, x, 1)
    kept = hess_in.copy()
    # Entries of 1e150 overflow to inf, and inf - inf gives NaN: their bits must match too.
    with np.errstate(over="ignore", invalid="ignore"):
        want = _oracles.h_hessian_rank2(hess, x)
        got = hgroup.h_hessian(None, hess_in, x_in)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    assert hess_in.tobytes() == kept.tobytes()  # the input is never written


def test_frame_fields_realize_commutator():
    # X_1 X_2 u - X_2 X_1 u = -4 du/dt, checked by differencing the
    # analytic first-order horizontal derivatives of a smooth test function
    def u(x):
        return np.sin(x[..., 0]) * x[..., 1] + x[..., 2] ** 2

    def grad_u(x):
        g = np.zeros(x.shape)
        g[..., 0] = np.cos(x[..., 0]) * x[..., 1]
        g[..., 1] = np.sin(x[..., 0])
        g[..., 2] = 2.0 * x[..., 2]
        return g

    def x_field(i, x):
        return hgroup.h_gradient(grad_u(x), x)[..., i]

    rng = np.random.default_rng(9)
    pt = rng.standard_normal(3)
    sigma = _oracles.frame(pt)
    h = 1e-5
    # flow along the frame columns (straight lines suffice at this order)
    x1x2 = (x_field(1, pt + h * sigma[:, 0]) - x_field(1, pt - h * sigma[:, 0])) / (2 * h)
    x2x1 = (x_field(0, pt + h * sigma[:, 1]) - x_field(0, pt - h * sigma[:, 1])) / (2 * h)
    dudt = grad_u(pt)[-1]
    assert np.isclose(x1x2 - x2x1, -4.0 * dudt, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_h_hessian_rank_two_form_matches_frame_sandwich(d):
    rng = np.random.default_rng(40 + d)
    n = 2 * d + 1
    x = 3.0 * rng.standard_normal((64, n))
    hess = 10.0 * rng.standard_normal((64, n, n))
    hess = hess + np.swapaxes(hess, 1, 2)
    sigma = _oracles.frame(x)
    sandwich = np.einsum("kia,kij,kjb->kab", sigma, hess, sigma)
    got = hgroup.h_hessian(np.zeros((64, n)), hess, x)
    scale = np.maximum(1.0, np.abs(sandwich).max(axis=(1, 2)))
    assert np.all(np.abs(got - sandwich).max(axis=(1, 2)) <= 1e-13 * scale)
    assert np.array_equal(got, np.swapaxes(got, 1, 2))


def test_radial_h_hessian_matches_assembled_pipeline():
    # f = log rho: the closed-form spectrum against h_hessian.
    rng = np.random.default_rng(10)
    for d in (1, 2, 3):
        dims = HeisDims(d)
        x = rng.standard_normal((32, dims.n))
        rho = hgroup.hnorm(x)
        fp, fpp = 1.0 / rho, -1.0 / rho**2

        g = hgroup.euclid_grad_rho(x, rho)
        grad = fp[:, None] * g
        hess = _oracles.gauge_radial_hessian(x, rho, g, fp, fpp)
        assembled = hgroup.h_hessian(grad, hess, x)

        w = np.einsum("ia,ia->i", x[:, :-1], x[:, :-1]) / rho**2
        t = fp * w / rho
        eigs_closed = _oracles.sorted_spectrum_rows(((fpp * w, 1), (3.0 * t, 1), (t, dims.m - 2)))
        assert np.allclose(np.linalg.eigvalsh(assembled), eigs_closed, atol=1e-12)


def test_radial_spectrum_structure():
    # f(rho) = rho^2 / 2: eigenvalues tau^2-weighted {f'', 3 f'/rho, f'/rho}
    dims = HeisDims(3)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(dims.n)
    rho = float(hgroup.hnorm(x))
    s = float(x[: 2 * dims.d] @ x[: 2 * dims.d])
    w = s / rho**2
    fp, fpp = rho, 1.0
    eigs = _oracles.sorted_spectrum_rows(((fpp * w, 1), (3.0 * fp * w / rho, 1), (fp * w / rho, dims.m - 2)))
    # f'' w = w, 3 f' w / rho = 3 w and f' w / rho = w (multiplicity 2d - 2)
    assert eigs.shape == (2 * dims.d,)
    assert np.allclose(eigs, [w] * (2 * dims.d - 1) + [3.0 * w], rtol=1e-12)
    # The assembled horizontal Hessian of rho^2 / 2 has the same spectrum.
    g = hgroup.euclid_grad_rho(x, hgroup.hnorm(x))
    hess = _oracles.gauge_radial_hessian(x, hgroup.hnorm(x), g, fp, fpp)
    assembled = hgroup.h_hessian(fp * g, hess, x)
    assert np.allclose(np.linalg.eigvalsh(assembled), eigs, rtol=1e-12)


def test_euclid_grad_rho_matches_fd():
    x = np.array([0.4, -0.7, 0.3, 1.1, 0.6])
    grad = hgroup.euclid_grad_rho(x, hgroup.hnorm(x))
    ref = _oracles.fd_gradient(lambda p: float(hgroup.hnorm(p)), x)
    assert np.allclose(grad, ref, atol=1e-8)


def test_gauge_norm_hessian_matches_fd():
    x = np.array([0.4, -0.7, 0.9])
    hess = field_from_profile(make_profile("power", kappa=1.0), HeisDims(1)).hessian(x)
    ref = _oracles.fd_hessian(lambda p: float(hgroup.hnorm(p)), x, h=1e-4)
    assert np.allclose(hess, ref, atol=1e-6)


def test_gradient_raises_at_origin():
    x = np.zeros(3)
    with pytest.raises(ValueError, match="group identity"):
        hgroup.euclid_grad_rho(x, hgroup.hnorm(x))


def test_dims_properties():
    dims = HeisDims(3)
    assert (dims.m, dims.n, dims.Q) == (6, 7, 8)
    with pytest.raises(ValueError):
        HeisDims(0)
    with pytest.raises(ValueError, match="exceeds the cap 16$"):
        HeisDims(17)
    assert HeisDims(16).d == 16
    with pytest.raises(TypeError):
        HeisDims(17, cap=17)
