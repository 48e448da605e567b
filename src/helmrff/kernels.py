"""Exact Gaussian-derived matrix-valued kernels.

These closed-form kernels are the ground truth that the random-feature
maps in :mod:`helmrff.features` approximate, and they back the small-N
exact-kernel solver in :mod:`helmrff.regression`.  The module also holds
the boundary checks every other module, the config reader included,
applies to numbers, widths and ridge weights, integer budgets, and arrays,
`JsonDocument`, the one JSON codec of every saved type, and
`one_blas_thread`, which every public compute entry point enters.
"""

import contextlib
import ctypes
import dataclasses
import functools
import numbers
import sys
import threading

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


def finite_states(name: str, value, n: int | None = None) -> np.ndarray:
    """One state (n,), as a batch of one, or a batch (B, n), checked by `finite_array` as a (N, n) array
    before numpy converts it, so a bool in a list is refused; a None n is any dimension >= 1."""
    rank = value.ndim if isinstance(value, np.ndarray) else np.asarray(value, object).ndim  # a ragged list has one
    return finite_array(name, [value] if rank == 1 else value, (None, n))


class JsonDocument:
    """Mixin of a dataclass saved as the JSON document of its fields, one key each: an array is written as its
    `tolist()`, and a field that is itself a document as its `to_json()`.  `from_json` reads each field by name,
    a field typed as a document class through that class's `from_json`; a field whose default is None may be
    missing, and other keys are ignored.  The constructor checks every value.  Field types are the evaluated
    annotations, so no module that declares a document may adopt `from __future__ import annotations`."""

    def to_json(self) -> dict:
        doc = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        return {key: value.to_json() if isinstance(value, JsonDocument) else
                value.tolist() if isinstance(value, np.ndarray) else value for key, value in doc.items()}

    @classmethod
    def from_json(cls, doc: dict):
        return cls(**{field.name: field.type.from_json(doc[field.name])
                      if isinstance(field.type, type) and issubclass(field.type, JsonDocument) else doc[field.name]
                      for field in dataclasses.fields(cls) if field.default is not None or field.name in doc})


def _openblas_function(name: str):
    """The ctypes function `openblas_<name>` of the OpenBLAS numpy links, or None if none is found.  dlsym on
    numpy's linalg extension searches the libraries it links too: numpy's wheel exports
    `scipy_openblas_<name>64_`, and a system OpenBLAS usually has neither prefix nor suffix."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    symbols = (f"{prefix}openblas_{name}{suffix}" for prefix in ("scipy_", "") for suffix in ("64_", ""))
    return next((getattr(lib, symbol) for symbol in symbols if hasattr(lib, symbol)), None)


@functools.cache
def _openblas_thread_controls():
    """(get, set), the thread-count functions of the OpenBLAS numpy links, or None if either is missing."""
    get, put = (_openblas_function(f"{op}_num_threads") for op in ("get", "set"))
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _OneBlasThread(contextlib.ContextDecorator):
    """Compute on one OpenBLAS thread, as a context manager or a decorator, then restore the count.

    The products are skinny (random features keep N small), so a second BLAS thread buys no wall time; it
    spins through the call, doubling its CPU time, and it makes the results depend on the thread count.
    A lock-guarded depth count makes this re-entrant and thread-safe: the first caller in saves the count
    and sets 1, nested and concurrent callers (the `reproduce` pool, a user's own threads) only count, and
    the last caller out restores it, also on an exception.  A count of 1 is left alone.  The count is
    process-wide, so while any call runs, numpy in every thread computes on one BLAS thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None  # the count to set when the last caller leaves, or None to leave it

    def __enter__(self):
        with self._lock:
            if self._depth == 0 and (controls := _openblas_thread_controls()) is not None:
                get, put = controls
                if (count := get()) != 1:
                    put(1)
                    self._restore = count
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                _openblas_thread_controls()[1](self._restore)
                self._restore = None


one_blas_thread = _OneBlasThread()


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


_KINDS = ("curl-free", "symplectic", "odd-curl-free", "odd-symplectic", "helmholtz")


def kernel_blocks(kind: str, X, Z, sigma: float) -> np.ndarray:
    """All kernel blocks K(x_i, z_j) between the point sets X (M, n) and Z (N, n), (M, N, n, n); a single
    state (n,) is a set of one, so kernel_blocks(kind, x, z, sigma)[0, 0] is K(x, z).  Raises ValueError
    naming X or Z unless both are finite with one state dimension.

    Every kind is built from one curl-free evaluation G:
        curl-free   G = G_c(x - z), with G_c(u) = (1/sigma^2) exp(-u.u / (2 sigma^2)) (I - u u^T / sigma^2),
                    the negative Hessian of the scalar Gaussian, so its columns are gradient fields;
        symplectic  J G J^T, divergence-free; needs an even n.
    The odd kinds take the antisymmetric part G = (G_c(x - z) - G_c(x + z)) / 2 instead: 'odd-curl-free'
    is G, 'odd-symplectic' J G J^T, and 'helmholtz' G + J G J^T.  J is a signed permutation, so conjugating
    by it rounds nothing, and 'helmholtz' is the sum of the two odd kinds to the last bit.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; choose from {sorted(_KINDS)}")
    sigma = positive_finite("kernel width", sigma)
    X = finite_states("X", X)
    Z = finite_states("Z", Z, X.shape[1])
    n = X.shape[1]
    if "curl-free" not in kind and n % 2:
        raise ValueError(f"symplectic kernel needs an even state dimension, got {n}")
    G = _curl_free_blocks(X[:, None, :] - Z[None, :, :], sigma)
    if kind.startswith("odd") or kind == "helmholtz":
        G = 0.5 * (G - _curl_free_blocks(X[:, None, :] + Z[None, :, :], sigma))
    if "curl-free" in kind:
        return G
    J = symplectic_matrix(n // 2)
    conjugate = J @ G @ J.T
    return G + conjugate if kind == "helmholtz" else conjugate


def gram_matrix(kind: str, points, sigma: float) -> np.ndarray:
    """Block Gram matrix of a matrix kernel on a point set, checked as `kernel_blocks` checks X.

    Block (i, j) of the (n N) x (n N) result is K(x_i, x_j).
    """
    blocks = kernel_blocks(kind, points, points, sigma)
    N, n = blocks.shape[1:3]
    return blocks.transpose(0, 2, 1, 3).reshape(n * N, n * N)
