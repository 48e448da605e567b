"""Random Fourier feature bases for the odd matrix kernels and the baseline.

A basis is a frozen draw of frequency vectors; evaluating a feature map at a
state yields a d x n matrix whose products approximate the matching exact
kernel from :mod:`helmrff.kernels`.  A basis is also the one evaluator of
every fitted field Phi(x)^T coef: at a batch of states (`field`), on an evenly
spaced product grid (`grid_field`, two complex exponentials per feature per
axis, whatever the resolution), and as a potential (`potential`).
"""

from dataclasses import dataclass

import numpy as np

from .kernels import finite_array, integer_at_least, positive_finite, symplectic_matrix

ODD_CURL_FREE = "odd-curl-free"
ODD_SYMPLECTIC = "odd-symplectic"
GAUSSIAN_SEPARABLE = "gaussian-separable"
KINDS = (ODD_CURL_FREE, ODD_SYMPLECTIC, GAUSSIAN_SEPARABLE)

# The most entries of any (states, features) or (both grid axes, features) array a fitted field
# forms, and of any weighted row block of a design in the dual ridge solve: 1 MiB of float64,
# 2 MiB of complex.  It bounds memory only; a block's product may still run on several BLAS threads.
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
        object.__setattr__(self, "sigma", positive_finite("kernel width", self.sigma))
        weights = finite_array("weights", self.weights, (None, None))
        d, n = weights.shape
        if self.kind == ODD_SYMPLECTIC and n % 2:
            raise ValueError(f"odd-symplectic basis needs an even state dimension, got {n}")
        if self.kind == GAUSSIAN_SEPARABLE:
            if d % n:
                raise ValueError(f"baseline basis needs d divisible by n, got d={d}, n={n}")
            object.__setattr__(self, "phases", finite_array("phases", self.phases, (d,)))
        elif self.phases is not None:
            raise ValueError(f"{self.kind} basis takes no phases")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "seed", integer_at_least("seed", self.seed, 0))

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

    def grid_field(self, limits, resolution, coef) -> np.ndarray:
        """`field` at the points lo + k (hi - lo) / (resolution - 1) of each axis, as np.linspace places
        them, for `limits` ((q_lo, q_hi), (p_lo, p_hi)) checked by `grid_limits`; (resolution, resolution, 2).

        Each feature is a plane wave that factors over the two axes, Im a e^{i (w_q q + b)} e^{i w_p p}:
        a = coef rows scale and b = 0 for the odd maps, and a = i coef rows scale and b = phase for the
        baseline, as cos(theta + b) = Im i e^{i (theta + b)} (the factor i changes no bit of a product).  So
        the field is ((a * E_q) @ E_p^T).imag summed over blocks of features, with the (2, d) a in C order.
        The axes are evenly spaced, so E takes two complex exponentials per feature per axis (`_progressions`).
        """
        limits = grid_limits(limits, resolution)
        if self.n != 2:
            raise ValueError(f"state dimension 2 does not match model dimension {self.n}")
        baseline = self.kind == GAUSSIAN_SEPARABLE
        a = np.multiply(self.rows.T, coef, order="C") * (1j * self.scale if baseline else self.scale)
        lo, h = limits[:, :1], np.diff(limits) / (resolution - 1)  # (2, 1) columns: q and p
        offset = np.outer([1.0, 0.0], self.phases if baseline else np.zeros(self.d))
        step = max(1, _BLOCK_ENTRIES // (2 * resolution))
        total = np.zeros((2, resolution, resolution), dtype=complex)
        for block in (slice(i, i + step) for i in range(0, self.d, step)):
            W = self.weights[block].T
            E_q, E_p = _progressions(W * lo + offset[:, block], W * h, resolution)
            left = a[:, block][:, None, :] * E_q
            total += (left.reshape(-1, E_q.shape[1]) @ E_p.T).reshape(2, resolution, -1)
        return np.moveaxis(total.imag, 0, -1)

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


def _progressions(start, step, count) -> np.ndarray:
    """e^{i (start + k step)} for k < count, shape (rows, count, s) for (rows, s) phases, from one cos
    and one sin per phase: with z = e^{i step}, each doubling fills E[n:2n] = E[:n] z and squares z,
    rescaled to modulus 1 so that its rounding does not double with it.  Error budget against cos and
    sin of the phase, in ulps of (1 + |phase|): each of the L = ceil(log2 count) levels costs a product
    and a rescaled square, 2 ulps; rounding the start wave and the step w h, whose relative error the k
    steps carry to ulps of |phase|, happens once whatever L, 2 ulps more.  So each entry is within
    2 (L + 1) ulps of (1 + |phase|); a running product or unscaled squares drift by ulps of k."""
    E, z = np.empty((start.shape[0], count, start.shape[1]), dtype=complex), np.empty(step.shape, dtype=complex)
    for wave, phase in ((E[:, 0], start), (z, step)):
        np.cos(phase, out=wave.real)
        np.sin(phase, out=wave.imag)
    n = 1
    while n < count:
        np.multiply(E[:, :min(n, count - n)], z[:, None], out=E[:, n:2 * n])
        z *= z
        z /= np.abs(z)
        n *= 2
    return E


def grid_limits(bounds, resolution) -> np.ndarray:
    """`bounds`, ((q_lo, q_hi), (p_lo, p_hi)), as a (2, 2) float array; raises unless they are finite
    with each lower bound below its upper one and `resolution` (points per axis) is an integer >= 2."""
    limits = finite_array("bounds", bounds, (2, 2))
    if np.any(limits[:, 0] >= limits[:, 1]):
        raise ValueError(f"bounds must be ((q_lo, q_hi), (p_lo, p_hi)) with lo < hi, got {bounds!r}")
    integer_at_least("resolution", resolution, 2)
    return limits


def sample_basis(kind: str, d: int, n: int, sigma: float, seed: int) -> FeatureBasis:
    """Draw a feature basis; deterministic and bit-reproducible given the seed.

    Weights are sigma^-1 times standard-normal draws, so bases sampled with
    the same seed but different widths share the same underlying draws.
    """
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((d, n)) / sigma
    phases = rng.uniform(0.0, 2.0 * np.pi, size=d) if kind == GAUSSIAN_SEPARABLE else None
    return FeatureBasis(kind, weights, sigma, seed, phases)


def feature_design(basis: FeatureBasis, states) -> np.ndarray:
    """Stack feature matrices for N states, or one state (n,), into a d x (n N) design block.

    Column block i holds the feature matrix at states[i]; its row j is entry j
    of basis.values times basis.rows[j]: sin(w_j . x) w_j^T / sqrt(d) for the
    odd curl-free map and sin(w_j . x) (J w_j)^T / sqrt(d) for the odd
    symplectic map.  The Gaussian-separable map splits the d frequencies into
    n blocks of m = d/n; block k fills column k with sqrt(2/m) cos(w_j . x + b_j),
    so cross-output products vanish exactly and each diagonal estimates the
    scalar Gaussian kernel k_sigma(x, z).
    """
    X = np.atleast_2d(np.asarray(states, dtype=float))
    return _fill_design(basis, X, np.zeros((basis.d, X.size)))


def _fill_design(basis: FeatureBasis, X: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Write the design of `basis` at the (N, n) states X into the zeroed, C-contiguous (d, n N) `design`
    and return it: column n i + o is output o at states[i], written through a (d, N, n) view."""
    N, n = X.shape
    if n != basis.n:
        raise ValueError(f"state dimension {n} does not match basis dimension {basis.n}")
    rows, values = basis.rows, basis.values(X).T
    outputs = design.reshape(basis.d, N, n, copy=False)
    for o in range(n):  # entries a row does not touch stay +0.0
        np.multiply(rows[:, o, None], values, out=outputs[:, :, o], where=rows[:, o, None] != 0)
    return design
