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

    Column block i holds the feature matrix at states[i].  Its rows are
    sin(w_i . x) w_i^T / sqrt(d) for the odd curl-free map and
    sin(w_i . x) (J w_i)^T / sqrt(d) for the odd symplectic map.  The
    Gaussian-separable map splits the d frequencies into n blocks of m = d/n;
    block j fills column j with sqrt(2/m) cos(w_i . x + b_i), so cross-output
    products vanish exactly and each diagonal estimates the scalar Gaussian
    kernel k_sigma(x, z).
    """
    X = np.atleast_2d(np.asarray(states, dtype=float))
    N, n = X.shape
    if n != basis.n:
        raise ValueError(f"state dimension {n} does not match basis dimension {basis.n}")
    d = basis.d
    if basis.kind == GAUSSIAN_SEPARABLE:
        m = d // n
        c = np.sqrt(2.0 / m) * np.cos(X @ basis.weights.T + basis.phases)  # (N, d)
        design = np.zeros((d, N, n))
        for j in range(n):
            design[j * m:(j + 1) * m, :, j] = c[:, j * m:(j + 1) * m].T
        return design.reshape(d, N * n)
    rows = basis.weights if basis.kind == ODD_CURL_FREE else basis.weights @ symplectic_matrix(n // 2).T
    s = np.sin(X @ basis.weights.T).T / np.sqrt(d)  # (d, N)
    return (s[:, :, None] * rows[:, None, :]).reshape(d, N * n)

