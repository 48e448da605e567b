"""Random Fourier feature bases for the odd matrix kernels and the baseline.

A basis is a frozen draw of frequency vectors; evaluating a feature map at a
state yields a d x n matrix whose products approximate the matching exact
kernel from :mod:`helmrff.kernels`.  A basis is also the one evaluator of
every fitted field Phi(x)^T coef: at a batch of states (`field`), on a product
grid (`grid_field`), and as a potential (`potential`).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import symplectic_matrix

ODD_CURL_FREE = "odd-curl-free"
ODD_SYMPLECTIC = "odd-symplectic"
GAUSSIAN_SEPARABLE = "gaussian-separable"
KINDS = (ODD_CURL_FREE, ODD_SYMPLECTIC, GAUSSIAN_SEPARABLE)

# The most entries of any (states, features) or (grid axis, features) array a fitted field
# forms: 1 MiB of float64, 2 MiB of complex.  OpenBLAS multiplies a block this small on one
# thread, so its workers do not wake and spin per block.
_BLOCK_ENTRIES = 2**17


def split_seed(seed: int, count: int) -> list[int]:
    """Derive `count` independent 64-bit child seeds from a master seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class FeatureBasis:
    """Frozen set of d frequency vectors defining one feature map.

    Weights are drawn i.i.d. from N(0, sigma^-2 I_n); the uniform phases are
    used only by the Gaussian-separable baseline map.
    """

    kind: str
    weights: np.ndarray          # (d, n)
    sigma: float
    seed: int
    phases: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}; choose from {KINDS}")
        if not (isinstance(self.sigma, numbers.Real) and self.sigma > 0):
            raise ValueError(f"kernel width must be positive, got {self.sigma!r}")
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 2 or 0 in weights.shape or not np.all(np.isfinite(weights)):
            raise ValueError(f"weights must be a finite (d, n) array, d, n >= 1, got shape {weights.shape}")
        d, n = weights.shape
        if self.kind == ODD_SYMPLECTIC and n % 2:
            raise ValueError(f"odd-symplectic basis needs an even state dimension, got {n}")
        if self.kind == GAUSSIAN_SEPARABLE:
            phases = np.asarray(self.phases, dtype=float)
            if d % n or phases.shape != (d,) or not np.all(np.isfinite(phases)):
                raise ValueError(f"baseline basis needs d divisible by n and finite (d,) phases, "
                                 f"got d={d}, n={n} and phases of shape {phases.shape}")
            object.__setattr__(self, "phases", phases)
        elif self.phases is not None:
            raise ValueError(f"{self.kind} basis takes no phases")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    @property
    def scale(self) -> float:
        """Factor of every design entry: 1/sqrt(d), or sqrt(2/m), m = d/n, for the baseline."""
        return np.sqrt(2.0 / (self.d // self.n)) if self.kind == GAUSSIAN_SEPARABLE else 1.0 / self._root_d

    @property
    def _root_d(self) -> float:
        return np.sqrt(self.d)

    def values(self, X) -> np.ndarray:
        """Scalar design entries at the (B, n) states X, shape (B, d), computed in place on the
        phases: sin(w_i . x) scale, or cos(w_i . x + b_i) scale for the baseline."""
        phase = X @ self.weights.T
        if self.kind == GAUSSIAN_SEPARABLE:
            phase += self.phases
            return np.multiply(np.cos(phase, out=phase), self.scale, out=phase)
        # Divided by sqrt(d) rather than multiplied by its rounded reciprocal `scale`: the two
        # differ in the last bit of about one entry in six, and every fit is computed this way.
        return np.divide(np.sin(phase, out=phase), self._root_d, out=phase)

    @property
    def rows(self) -> np.ndarray:
        """Output row of each feature, shape (d, n): w_i, J w_i, or the unit vector of
        the output whose block of d/n features holds baseline feature i."""
        if self.kind == GAUSSIAN_SEPARABLE:
            return np.repeat(np.eye(self.n), self.d // self.n, axis=0)
        return self.weights if self.kind == ODD_CURL_FREE else self.weights @ symplectic_matrix(self.n // 2).T

    def field(self, X, coef) -> np.ndarray:
        """Phi(x)^T coef = sum_i coef_i values_i(x) rows_i at each (B, n) state of X, in place on the values."""
        rows = self.rows

        def reduce(B):
            v = self.values(B)
            v *= coef
            return v @ rows
        return _over_blocks(X, self.d, reduce)

    def grid_field(self, qs, ps, coef) -> np.ndarray:
        """`field` at every point (q, p) of the product grid qs x ps, shape (len(qs), len(ps), 2).

        Each feature is a plane wave that factors over the two axes: sin(w_q q + w_p p) is
        Im e^{i w_q q} e^{i w_p p} and cos(w_q q + w_p p + b) is Re e^{i (w_q q + b)} e^{i w_p p}.
        So output c is ((E_q * g_c) @ E_p^T).imag, or .real for the baseline, with
        g_c = coef rows[:, c] scale, summed over blocks of features; values at the grid points
        are never formed.  Agrees with `field` at the grid points to rounding.
        """
        if self.n != 2:
            raise ValueError(f"state dimension 2 does not match model dimension {self.n}")
        g = (coef[:, None] * self.rows) * self.scale
        offset = self.phases if self.kind == GAUSSIAN_SEPARABLE else np.zeros(self.d)
        total = np.zeros((2, len(qs), len(ps)), dtype=complex)
        step = max(1, _BLOCK_ENTRIES // max(len(qs), len(ps)))
        for block in (slice(i, i + step) for i in range(0, self.d, step)):
            E_q = _waves(np.outer(qs, self.weights[block, 0]) + offset[block])
            E_p = _waves(np.outer(ps, self.weights[block, 1]))
            for c in range(2):
                total[c] += (E_q * g[block, c]) @ E_p.T
        part = total.real if self.kind == GAUSSIAN_SEPARABLE else total.imag
        return np.moveaxis(part, 0, -1)

    def potential(self, X, coef) -> np.ndarray:
        """-sum_i coef_i cos(w_i . x) scale: the potential whose gradient is an odd map's field."""
        def reduce(B):
            phase = B @ self.weights.T
            return -(np.cos(phase, out=phase) @ coef)
        return _over_blocks(X, self.d, reduce) * self.scale

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "n": self.n,
            "sigma": self.sigma,
            "seed": self.seed,
            "weights": self.weights.tolist(),
            "phases": None if self.phases is None else self.phases.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FeatureBasis":
        return cls(doc["kind"], doc["weights"], doc["sigma"], doc["seed"], doc["phases"])


def _over_blocks(X, d: int, reduce) -> np.ndarray:
    """reduce(block) over consecutive blocks of at most _BLOCK_ENTRIES // d states of X, concatenated."""
    step = max(1, _BLOCK_ENTRIES // d)
    return np.concatenate([reduce(X[i:i + step]) for i in range(0, len(X), step)])


def _waves(phase) -> np.ndarray:
    """e^{i phase}, from cos and sin written into one complex array: faster than np.exp(1j * phase)."""
    wave = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=wave.real)
    np.sin(phase, out=wave.imag)
    return wave


def sample_basis(kind: str, d: int, n: int, sigma: float, seed: int) -> FeatureBasis:
    """Draw a feature basis; deterministic and bit-reproducible given the seed.

    Weights are sigma^-1 times standard-normal draws, so bases sampled with
    the same seed but different widths share the same underlying draws.
    """
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((d, n)) / sigma
    phases = rng.uniform(0.0, 2.0 * np.pi, size=d) if kind == GAUSSIAN_SEPARABLE else None
    return FeatureBasis(kind, weights, sigma, seed, phases)


def feature_matrix(x, basis: FeatureBasis) -> np.ndarray:
    """Evaluate the feature map matching `basis.kind` at a single state (d x n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a single state vector, got shape {x.shape}")
    return feature_design(basis, x)


def feature_design(basis: FeatureBasis, states) -> np.ndarray:
    """Stack feature matrices for N states into a d x (n N) design block.

    Column block i holds the feature matrix at states[i]; its row j is entry j
    of basis.values times basis.rows[j]: sin(w_j . x) w_j^T / sqrt(d) for the
    odd curl-free map and sin(w_j . x) (J w_j)^T / sqrt(d) for the odd
    symplectic map.  The Gaussian-separable map splits the d frequencies into
    n blocks of m = d/n; block k fills column k with sqrt(2/m) cos(w_j . x + b_j),
    so cross-output products vanish exactly and each diagonal estimates the
    scalar Gaussian kernel k_sigma(x, z).
    """
    X = np.atleast_2d(np.asarray(states, dtype=float))
    N, n = X.shape
    if n != basis.n:
        raise ValueError(f"state dimension {n} does not match basis dimension {basis.n}")
    rows = basis.rows[:, :, None]
    # The states run innermost, numpy's long inner loop; entries a row does not touch stay +0.0.
    design = np.zeros((basis.d, n, N))
    np.multiply(rows, basis.values(X).T[:, None, :], out=design, where=rows != 0)
    return design.transpose(0, 2, 1).reshape(basis.d, N * n)
