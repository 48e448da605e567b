"""Random Fourier feature bases for the odd matrix kernels and the baseline.

A basis is a frozen draw of frequency vectors; evaluating a feature map at a
state yields a d x n matrix whose products approximate the matching exact
kernel from :mod:`helmrff.kernels`.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import symplectic_matrix

ODD_CURL_FREE = "odd-curl-free"
ODD_SYMPLECTIC = "odd-symplectic"
GAUSSIAN_SEPARABLE = "gaussian-separable"
KINDS = (ODD_CURL_FREE, ODD_SYMPLECTIC, GAUSSIAN_SEPARABLE)


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
    phases: np.ndarray | None = field(default=None)

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    def values(self, X) -> np.ndarray:
        """Scalar design entries at the (B, n) states X, shape (B, d), computed in place on the
        phases: sin(w_i . x) / sqrt(d), or sqrt(2/m) cos(w_i . x + b_i), m = d/n, for the baseline."""
        phase = X @ self.weights.T
        if self.kind != GAUSSIAN_SEPARABLE:
            return np.divide(np.sin(phase, out=phase), np.sqrt(self.d), out=phase)
        phase += self.phases
        return np.multiply(np.cos(phase, out=phase), np.sqrt(2.0 / (self.d // self.n)), out=phase)

    @property
    def rows(self) -> np.ndarray:
        """Output row of each feature, shape (d, n): w_i, J w_i, or the unit vector of
        the output whose block of d/n features holds baseline feature i."""
        if self.kind == GAUSSIAN_SEPARABLE:
            return np.repeat(np.eye(self.n), self.d // self.n, axis=0)
        return self.weights if self.kind == ODD_CURL_FREE else self.weights @ symplectic_matrix(self.n // 2).T

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
        phases = doc.get("phases")
        return cls(
            kind=doc["kind"],
            weights=np.asarray(doc["weights"], dtype=float),
            sigma=float(doc["sigma"]),
            seed=int(doc["seed"]),
            phases=None if phases is None else np.asarray(phases, dtype=float),
        )


def sample_basis(kind: str, d: int, n: int, sigma: float, seed: int) -> FeatureBasis:
    """Draw a feature basis; deterministic and bit-reproducible given the seed.

    Weights are sigma^-1 times standard-normal draws, so bases sampled with
    the same seed but different widths share the same underlying draws.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; choose from {KINDS}")
    if d < 1:
        raise ValueError(f"feature count must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"state dimension must be >= 1, got {n}")
    if not sigma > 0:
        raise ValueError(f"kernel width must be positive, got {sigma}")
    if kind == ODD_SYMPLECTIC and n % 2:
        raise ValueError(f"odd-symplectic basis needs an even state dimension, got {n}")
    if kind == GAUSSIAN_SEPARABLE and d % n:
        raise ValueError(f"baseline basis needs d divisible by n, got d={d}, n={n}")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((d, n)) / sigma
    phases = rng.uniform(0.0, 2.0 * np.pi, size=d) if kind == GAUSSIAN_SEPARABLE else None
    return FeatureBasis(kind=kind, weights=weights, sigma=float(sigma), seed=int(seed), phases=phases)


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
