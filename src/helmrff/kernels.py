"""Exact Gaussian-derived matrix-valued kernels.

These closed-form kernels are the ground truth that the random-feature
maps in :mod:`helmrff.features` approximate, and they back the small-N
exact-kernel solver in :mod:`helmrff.regression`.
"""

import numpy as np

__all__ = [
    "symplectic_matrix",
    "gaussian_kernel",
    "curl_free_kernel",
    "symplectic_kernel",
    "odd_curl_free_kernel",
    "odd_symplectic_kernel",
    "gram_matrix",
]


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


def _check_sigma(sigma: float) -> float:
    if not sigma > 0:
        raise ValueError(f"kernel width must be positive, got {sigma}")
    return float(sigma)


def gaussian_kernel(x, z, sigma: float) -> float:
    """Scalar Gaussian kernel exp(-||x - z||^2 / (2 sigma^2))."""
    x, z = _check_pair(x, z)
    sigma = _check_sigma(sigma)
    u = x - z
    return float(np.exp(-u @ u / (2.0 * sigma**2)))


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


def _check_kind(kind: str) -> None:
    if kind not in _EVEN and kind not in _ODD:
        raise ValueError(f"unknown kernel kind {kind!r}; choose from {sorted(_EVEN) + sorted(_ODD)}")


def kernel_blocks(kind: str, X, Z, sigma: float) -> np.ndarray:
    """All kernel blocks K(x_i, z_j) between two point sets, (M, N, n, n).

    Even kinds evaluate at the differences x_i - z_j; an odd kind is
    (K(x - z) - K(x + z)) / 2 summed over its even parts.
    """
    _check_kind(kind)
    sigma = _check_sigma(sigma)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    U = X[:, None, :] - Z[None, :, :]
    if kind in _EVEN:
        return _EVEN[kind](U, sigma)
    V = X[:, None, :] + Z[None, :, :]
    parts = [0.5 * (_EVEN[p](U, sigma) - _EVEN[p](V, sigma)) for p in _ODD[kind]]
    return sum(parts[1:], parts[0])


def curl_free_kernel(x, z, sigma: float) -> np.ndarray:
    """Curl-free kernel: negative Hessian of the scalar Gaussian.

    Returns the n x n matrix
        (1/sigma^2) exp(-u.u / (2 sigma^2)) (I - u u^T / sigma^2),  u = x - z.
    Every column is the gradient of a scalar field, so functions built from
    this kernel are gradient fields.
    """
    return kernel_by_kind("curl-free")(x, z, sigma)


def symplectic_kernel(x, z, sigma: float) -> np.ndarray:
    """Divergence-free kernel J G_c(x - z) J^T; requires even dimension."""
    return kernel_by_kind("symplectic")(x, z, sigma)


def odd_curl_free_kernel(x, z, sigma: float) -> np.ndarray:
    """Antisymmetrized curl-free kernel (G_c(x-z) - G_c(x+z)) / 2.

    Functions in the induced space are odd gradient fields: f(-x) = -f(x).
    """
    return kernel_by_kind("odd-curl-free")(x, z, sigma)


def odd_symplectic_kernel(x, z, sigma: float) -> np.ndarray:
    """Antisymmetrized symplectic kernel (G_s(x-z) - G_s(x+z)) / 2."""
    return kernel_by_kind("odd-symplectic")(x, z, sigma)


def kernel_by_kind(kind: str):
    """Look up a matrix kernel by name; 'helmholtz' is the two-kernel sum."""
    _check_kind(kind)

    def kernel(x, z, sigma: float) -> np.ndarray:
        x, z = _check_pair(x, z)
        return kernel_blocks(kind, x, z, sigma)[0, 0]
    return kernel


def gram_matrix(kind: str, points, sigma: float) -> np.ndarray:
    """Block Gram matrix of a matrix kernel on a point set.

    Block (i, j) of the (n N) x (n N) result is K(x_i, x_j).
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    N, n = X.shape
    return kernel_blocks(kind, X, X, sigma).transpose(0, 2, 1, 3).reshape(n * N, n * N)
