import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helmrff import kernels as kn


def fd_hessian(f, u, step=1e-5):
    """Central-difference Hessian of a scalar function at u."""
    n = u.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            e_i = np.zeros(n); e_i[i] = step
            e_j = np.zeros(n); e_j[j] = step
            H[i, j] = (f(u + e_i + e_j) - f(u + e_i - e_j)
                       - f(u - e_i + e_j) + f(u - e_i - e_j)) / (4 * step**2)
    return H


def test_symplectic_matrix_structure():
    J = kn.symplectic_matrix(1)
    assert_allclose(J, [[0.0, 1.0], [-1.0, 0.0]])
    J2 = kn.symplectic_matrix(2)
    assert J2.shape == (4, 4)
    assert_allclose(J2.T, -J2)
    assert_allclose(J2 @ J2.T, np.eye(4))
    assert_allclose(J2 @ J2, -np.eye(4))


def pair(kind, x, z, sigma):
    """The single block K(x, z) of the vectorised routine."""
    return kn.kernel_blocks(kind, x, z, sigma)[0, 0]


def test_curl_free_kernel_example():
    # at u = (1, 0), sigma = 1: e^{-1/2} (I - u u^T)
    G = pair("curl-free", np.array([1.0, 0.0]), np.zeros(2), 1.0)
    assert_allclose(G, np.exp(-0.5) * np.diag([0.0, 1.0]), atol=1e-15)


def test_curl_free_is_negative_hessian_of_gaussian():
    """G_c(x - z) must equal -grad grad^T of the unnormalized Gaussian bump."""
    sigma = 0.8
    x = np.array([0.4, -0.3])
    z = np.array([-0.2, 0.5])

    def g(u):
        return np.exp(-(u @ u) / (2 * sigma**2))

    H = fd_hessian(g, x - z)
    assert_allclose(pair("curl-free", x, z, sigma), -H, atol=1e-5)


def test_symplectic_kernel_is_conjugated_curl_free():
    x = np.array([0.7, 0.1])
    z = np.array([-0.4, 0.9])
    J = kn.symplectic_matrix(1)
    Gc = pair("curl-free", x, z, 1.3)
    assert_allclose(pair("symplectic", x, z, 1.3), J @ Gc @ J.T, atol=1e-15)
    # the worked example: conjugation swaps the diagonal at u = (1, 0)
    Gs = pair("symplectic", np.array([1.0, 0.0]), np.zeros(2), 1.0)
    assert_allclose(Gs, np.exp(-0.5) * np.diag([1.0, 0.0]), atol=1e-15)


def test_odd_kernels_antisymmetrize():
    x = np.array([0.3, -0.8])
    z = np.array([0.5, 0.2])
    for odd, even in (("odd-curl-free", "curl-free"), ("odd-symplectic", "symplectic")):
        expected = 0.5 * (pair(even, x, z, 1.1) - pair(even, x, -z, 1.1))
        assert_allclose(pair(odd, x, z, 1.1), expected, atol=1e-15)
        # odd in each argument
        assert_allclose(pair(odd, -x, z, 1.1), -pair(odd, x, z, 1.1), atol=1e-15)
        assert_allclose(pair(odd, x, -z, 1.1), -pair(odd, x, z, 1.1), atol=1e-15)
        # vanishes at the origin pair
        assert_allclose(pair(odd, np.zeros(2), np.zeros(2), 1.1), np.zeros((2, 2)), atol=1e-15)


def closed_form_curl_free(u, sigma):
    s2 = sigma**2
    return np.exp(-(u @ u) / (2 * s2)) / s2 * (np.eye(u.size) - np.outer(u, u) / s2)


def closed_form_kernel(kind, x, z, sigma):
    """G_c(x - z), its symplectic conjugate, and their odd parts from G_c(x -/+ z)."""
    J = kn.symplectic_matrix(x.size // 2)
    minus = closed_form_curl_free(x - z, sigma)
    plus = closed_form_curl_free(x + z, sigma)
    odd = 0.5 * (minus - plus)
    return {
        "curl-free": minus,
        "symplectic": J @ minus @ J.T,
        "odd-curl-free": odd,
        "odd-symplectic": J @ odd @ J.T,
        "helmholtz": odd + J @ odd @ J.T,
    }[kind]


def test_gram_matrix_blocks_and_psd():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 2))
    for kind in ("curl-free", "symplectic", "odd-curl-free", "odd-symplectic", "helmholtz"):
        G = kn.gram_matrix(kind, pts, 0.9)
        assert G.shape == (12, 12)
        assert_array_equal(G, G.T)
        # every block, of the Gram matrix and between two point sets, against the closed form
        cross = kn.kernel_blocks(kind, pts[:4], pts[1:], 0.9)
        assert cross.shape == (4, 5, 2, 2)
        for i in range(6):
            for j in range(6):
                expected = closed_form_kernel(kind, pts[i], pts[j], 0.9)
                assert_allclose(G[2 * i:2 * i + 2, 2 * j:2 * j + 2], expected, atol=1e-14)
                if i < 4 and j > 0:
                    assert_allclose(cross[i, j - 1], expected, atol=1e-14)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


def test_gram_matrix_helmholtz_kind_sums_both_odd_kernels():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(4, 2))
    total = kn.gram_matrix("helmholtz", pts, 1.2)
    parts = (kn.gram_matrix("odd-curl-free", pts, 1.2)
             + kn.gram_matrix("odd-symplectic", pts, 1.2))
    # conjugating by the signed permutation J rounds nothing, so the sum is exact
    assert_array_equal(total, parts)


def test_each_kind_evaluates_the_curl_free_blocks_once_per_sign():
    """An even kind evaluates G_c at x - z only; an odd kind and helmholtz at x - z and x + z.  A profile
    hook counts the calls however the routine is reached."""
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is kn._curl_free_blocks.__code__:
            calls.append(frame.f_locals["U"].shape)

    pts = np.random.default_rng(5).normal(size=(3, 4))
    for kind, expected in (("curl-free", 1), ("symplectic", 1), ("odd-curl-free", 2), ("odd-symplectic", 2),
                           ("helmholtz", 2)):
        calls.clear()
        sys.setprofile(count)
        try:
            kn.kernel_blocks(kind, pts, pts[:2], 0.7)
        finally:
            sys.setprofile(None)
        assert calls == [(3, 2, 4)] * expected, kind


def test_dimension_and_sigma_validation():
    # X and Z share one state dimension and are finite; each error names the set at fault
    for X, Z, message in ((np.zeros((2, 2)), np.zeros((3, 3)), r"Z must have shape \(N, 2\)"),
                          (np.zeros(2), np.zeros(3), r"Z must have shape \(N, 2\)"),
                          ([[0.0, np.nan]], np.zeros((1, 2)), "X must be a finite"),
                          (np.zeros((2, 2)), [[1.0, 0.0], [np.inf, 0.0]], "Z must be a finite"),
                          (np.zeros(2), [np.nan, 0.0], "Z must be a finite")):
        for kind in ("curl-free", "odd-symplectic", "helmholtz"):
            with pytest.raises(ValueError, match=message):
                kn.kernel_blocks(kind, X, Z, 1.0)
    # an infinite width makes every odd kernel zero, so it is refused like a zero one; a bool is not
    # read as 1, and an int past the float range is a ValueError, not an OverflowError
    for sigma in (0.0, -1.0, np.nan, np.inf, None, True, 10**400):
        with pytest.raises(ValueError, match="kernel width"):
            kn.kernel_blocks("curl-free", np.zeros(2), np.zeros(2), sigma)
    with pytest.raises(ValueError):
        # symplectic structure needs an even state dimension
        kn.kernel_blocks("odd-symplectic", np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        kn.gram_matrix("no-such-kernel", np.zeros((2, 2)), 1.0)
    # gram_matrix hands its points to kernel_blocks unconverted, so strings are refused, not parsed
    with pytest.raises(ValueError, match=r"X must be a numeric \(N, N\) array"):
        kn.gram_matrix("helmholtz", [["1", "2"]], 1.0)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        kn.kernel_blocks("no-such-kernel", np.zeros(2), np.zeros(2), 1.0)


def test_kernel_blocks_refuse_a_bool_among_numbers_in_either_point_set():
    """The raw point sets are checked before they are reshaped, so a list that mixes bools with numbers is refused."""
    for X, Z, name in (([[True, 1.5]], [[0.5, 1.0]], "X"), ([True, 1.5], [0.5, 1.0], "X"),
                       ([[0.5, 1.0]], [[0.0, False]], "Z"), ([0.5, 1.0], [np.bool_(True), 1.0], "Z")):
        with pytest.raises(ValueError, match=f"{name} must be a numeric .* array: got a bool element"):
            kn.kernel_blocks("helmholtz", X, Z, 1.0)


def test_boundary_checks_refuse_what_is_not_a_finite_real_number():
    for value in (1, -2.5, np.float32(3.0), np.int8(4), np.uint64(5), 10**308):
        assert kn.finite_number(value)
    for value in (True, np.bool_(False), "1", None, np.nan, -np.inf, np.float32(np.inf), np.float16(np.nan),
                  10**400, -(10**400), 1j):
        assert not kn.finite_number(value)
    # an array of strings, bools or objects (None, or an int past the float range) is not converted
    for value in ([["1", "2"], ["3", "4"]], np.ones((2, 2), dtype=bool), [[1.0, None], [2.0, 3.0]],
                  [[10**400, 0], [0, 0]]):
        with pytest.raises(ValueError, match=r"x must be a numeric \(2, 2\) array: got dtype"):
            kn.finite_array("x", value, (2, 2))
    # nor is a list that mixes bools with numbers, though numpy would convert it to floats
    for value in ([[True, 1.5], [0.0, 1.0]], [[np.bool_(False), 2], [3, 4]], [np.ones(2, dtype=bool), [1.0, 2.0]]):
        with pytest.raises(ValueError, match=r"x must be a numeric \(2, 2\) array: got a bool element"):
            kn.finite_array("x", value, (2, 2))
    # integers become floats; float input comes back uncopied
    assert kn.finite_array("x", [[1, 2], [3, 4]], (2, 2)).dtype == float
    x = np.zeros((2, 2))
    assert kn.finite_array("x", x, (2, 2)) is x
