"""Exact Gaussian-derived matrix-valued kernels.

These closed-form kernels are the ground truth that the random-feature
maps in :mod:`helmrff.features` approximate, and they back the small-N
exact-kernel solver in :mod:`helmrff.regression`.  The module also holds
the boundary checks every other module, the config reader included,
applies to numbers, widths and ridge weights, integer budgets, and arrays.
"""

import numbers
import sys

import numpy as np


def finite_number(value) -> bool:
    """Whether `value` is a finite real number: not a bool or a string, nor an int past the float range."""
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real) and abs(value) < np.inf  # not <= float max: a float32 cast overflows


def positive_finite(name: str, value, zero_ok: bool = False) -> float:
    """`value` as a float; raises ValueError naming `name` unless it is a finite number (see `finite_number`) > 0,
    or >= 0 if `zero_ok`."""
    if not (finite_number(value) and (value > 0 or zero_ok and value == 0)):
        raise ValueError(f"{name} must be {'nonnegative' if zero_ok else 'positive'} and finite, got {value!r}")
    return float(value)


def integer_at_least(name: str, value, minimum: int) -> int:
    """`value` as an int; raises ValueError naming `name` unless it is an integer, not a bool, >= minimum."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def finite_array(name: str, value, shape) -> np.ndarray:
    """`value` as a float array, float input uncopied; raises ValueError naming `name` unless it has an
    integer or float dtype, is of `shape`, where a None axis (written N) is any length >= 1, and is finite.
    Input that is not an array yet, such as nested lists, is refused if any element is a bool."""
    want = str(tuple("N" if axis is None else axis for axis in shape)).replace("'", "")
    try:
        array = np.asarray(value)
        if array.dtype.kind not in "iuf":
            raise TypeError(f"got dtype {array.dtype}")
        elements = () if isinstance(value, np.ndarray) else np.asarray(value, object).flat
        if any(isinstance(v, (bool, np.bool_)) for v in elements):
            raise TypeError("got a bool element")
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} must be a numeric {want} array: {err}") from None
    if array.ndim != len(shape) or any(got < 1 or axis not in (None, got) for got, axis in zip(array.shape, shape)):
        every = " with every N >= 1" if None in shape else ""
        raise ValueError(f"{name} must have shape {want}{every}, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(array))[0])
        raise ValueError(f"{name} must be a finite {want} array, got {array[where]} at index {where}")
    return array.astype(float, copy=False)


def symplectic_matrix(m: int) -> np.ndarray:
    """Canonical skew-symmetric block matrix [[0, I_m], [-I_m, 0]]."""
    if m < 1:
        raise ValueError(f"block size must be >= 1, got {m}")
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, eye], [-eye, zero]])


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
    """All kernel blocks K(x_i, z_j) between the point sets X (M, n) and Z (N, n), (M, N, n, n); a single
    state (n,) is a set of one, so kernel_blocks(kind, x, z, sigma)[0, 0] is K(x, z).  Raises ValueError
    naming X or Z unless both are finite with one state dimension.

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
    X = finite_array("X", np.atleast_2d(X), (None, None))
    Z = finite_array("Z", np.atleast_2d(Z), (None, X.shape[1]))
    U = X[:, None, :] - Z[None, :, :]
    if kind in _EVEN:
        return _EVEN[kind](U, sigma)
    V = X[:, None, :] + Z[None, :, :]
    parts = [0.5 * (_EVEN[p](U, sigma) - _EVEN[p](V, sigma)) for p in _ODD[kind]]
    return sum(parts[1:], parts[0])


def gram_matrix(kind: str, points, sigma: float) -> np.ndarray:
    """Block Gram matrix of a matrix kernel on a point set.

    Block (i, j) of the (n N) x (n N) result is K(x_i, x_j).
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    N, n = X.shape
    return kernel_blocks(kind, X, X, sigma).transpose(0, 2, 1, 3).reshape(n * N, n * N)
