"""Exact Gaussian-derived matrix-valued kernels.

These closed-form kernels are the ground truth that the random-feature
maps in :mod:`helmrff.features` approximate, and they back the small-N
exact-kernel solver in :mod:`helmrff.regression`.  The module also holds
the two boundary checks every other module applies to widths, ridge weights
and integer budgets.
"""

import numbers

import numpy as np


def positive_finite(name: str, value) -> float:
    """`value` as a float; raises ValueError naming `name` unless it is a real number in (0, inf)."""
    if not (isinstance(value, numbers.Real) and 0 < value < np.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def integer_at_least(name: str, value, minimum: int) -> int:
    """`value` as an int; raises ValueError naming `name` unless it is an integer, not a bool, >= minimum."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def symplectic_matrix(m: int) -> np.ndarray:
    """Canonical skew-symmetric block matrix [[0, I_m], [-I_m, 0]]."""
    if m < 1:
        raise ValueError(f"block size must be >= 1, got {m}")
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, eye], [-eye, zero]])


def _check_pair(x, z):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape or x.ndim != 1:
        raise ValueError(f"expected two vectors of equal length, got shapes {x.shape} and {z.shape}")
    return x, z


def _curl_free_blocks(U, sigma: float) -> np.ndarray:
    s2 = sigma**2
    scale = np.exp(-np.sum(U * U, axis=-1) / (2.0 * s2)) / s2
    outer = U[..., :, None] * U[..., None, :]
    return scale[..., None, None] * (np.eye(U.shape[-1]) - outer / s2)


def _symplectic_blocks(U, sigma: float) -> np.ndarray:
    n = U.shape[-1]
    if n % 2:
        raise ValueError(f"symplectic kernel needs an even state dimension, got {n}")
    J = symplectic_matrix(n // 2)
    return J @ _curl_free_blocks(U, sigma) @ J.T


_EVEN = {"curl-free": _curl_free_blocks, "symplectic": _symplectic_blocks}
# Odd kinds antisymmetrize and sum these even kernels.
_ODD = {
    "odd-curl-free": ("curl-free",),
    "odd-symplectic": ("symplectic",),
    "helmholtz": ("curl-free", "symplectic"),
}


def kernel_blocks(kind: str, X, Z, sigma: float) -> np.ndarray:
    """All kernel blocks K(x_i, z_j) between two point sets, (M, N, n, n).

    The even kinds evaluate at u = x - z:
        curl-free   G_c(u) = (1/sigma^2) exp(-u.u / (2 sigma^2)) (I - u u^T / sigma^2),
                    the negative Hessian of the scalar Gaussian, so its
                    columns are gradient fields;
        symplectic  G_s(u) = J G_c(u) J^T, divergence-free; needs an even n.
    An odd kind is (G(x - z) - G(x + z)) / 2 summed over its even parts:
    'odd-curl-free', 'odd-symplectic', and 'helmholtz' for both.
    """
    if kind not in _EVEN and kind not in _ODD:
        raise ValueError(f"unknown kernel kind {kind!r}; choose from {sorted(_EVEN) + sorted(_ODD)}")
    sigma = positive_finite("kernel width", sigma)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    U = X[:, None, :] - Z[None, :, :]
    if kind in _EVEN:
        return _EVEN[kind](U, sigma)
    V = X[:, None, :] + Z[None, :, :]
    parts = [0.5 * (_EVEN[p](U, sigma) - _EVEN[p](V, sigma)) for p in _ODD[kind]]
    return sum(parts[1:], parts[0])


def odd_curl_free_kernel(x, z, sigma: float) -> np.ndarray:
    """Antisymmetrized curl-free kernel (G_c(x-z) - G_c(x+z)) / 2 at one pair of states.

    Functions in the induced space are odd gradient fields: f(-x) = -f(x).
    """
    return kernel_blocks("odd-curl-free", *_check_pair(x, z), sigma)[0, 0]


def odd_symplectic_kernel(x, z, sigma: float) -> np.ndarray:
    """Antisymmetrized symplectic kernel (G_s(x-z) - G_s(x+z)) / 2 at one pair of states."""
    return kernel_blocks("odd-symplectic", *_check_pair(x, z), sigma)[0, 0]


def gram_matrix(kind: str, points, sigma: float) -> np.ndarray:
    """Block Gram matrix of a matrix kernel on a point set.

    Block (i, j) of the (n N) x (n N) result is K(x_i, x_j).
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    N, n = X.shape
    return kernel_blocks(kind, X, X, sigma).transpose(0, 2, 1, 3).reshape(n * N, n * N)
