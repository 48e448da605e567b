"""Random Fourier feature bases for the odd matrix kernels and the baseline.

A basis is a frozen draw of frequency vectors; evaluating a feature map at a
state yields a d x n matrix whose products approximate the matching exact
kernel from :mod:`helmrff.kernels`.  A basis is also the one evaluator of
every fitted field Phi(x)^T coef: at a batch of states (`field`), on an evenly
spaced product grid (`grid_field`, two complex exponentials per feature per
axis, whatever the resolution), and as a potential (`potential`).  Stacked at
N states, bases give the design of a fit and of the CV as its two factors
(`factored_design`), never as the (sum d, n N) array itself.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import JsonDocument, finite_array, finite_states, integer_at_least, positive_finite, symplectic_matrix

ODD_CURL_FREE = "odd-curl-free"
ODD_SYMPLECTIC = "odd-symplectic"
GAUSSIAN_SEPARABLE = "gaussian-separable"
KINDS = (ODD_CURL_FREE, ODD_SYMPLECTIC, GAUSSIAN_SEPARABLE)

# The most entries of any (states, features) array that a fitted field or a factored design forms, of the
# two (both grid axes, features) arrays of a grid block together, and of any block of a design's rows that
# its products take: 1 MiB of float64, 2 MiB of complex.  It bounds memory; the products run on one BLAS
# thread, as every public compute entry point enters `kernels.one_blas_thread`.
_BLOCK_ENTRIES = 2**17


def split_seed(seed: int, count: int) -> list[int]:
    """Derive `count` independent 64-bit child seeds from a master seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class FeatureBasis(JsonDocument):
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
        total = np.zeros((2, resolution, resolution), dtype=complex)
        for block in _blocks(self.d, 4 * resolution):  # two (2, resolution, s) complex arrays live at once
            W = self.weights[block].T
            E_q, E_p = _progressions(W * lo + offset[:, block], W * h, resolution)
            total += ((a[:, block][:, None, :] * E_q).reshape(-1, E_q.shape[1]) @ E_p.T).reshape(2, resolution, -1)
        return np.moveaxis(total.imag, 0, -1)

    def potential(self, X, coef) -> np.ndarray:
        """-sum_i coef_i cos(w_i . x) scale: the potential whose gradient is an odd map's field."""
        def reduce(B):
            phase = B @ self.weights.T
            return -(np.cos(phase, out=phase) @ coef)
        return _over_blocks(X, self.d, reduce) * self.scale

    def to_json(self) -> dict:  # with the derived d and n, which `from_json` ignores
        return {**super().to_json(), "d": self.d, "n": self.n}


def _blocks(count: int, width: int) -> list[slice]:
    """Consecutive slices of `count` items, each of at most _BLOCK_ENTRIES // width items (at least one)."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _over_blocks(X, d: int, reduce) -> np.ndarray:
    """reduce(block) over consecutive blocks of at most _BLOCK_ENTRIES // d states of X, concatenated."""
    return np.concatenate([reduce(X[b]) for b in _blocks(len(X), d)])


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
    """The dense d x (n N) design block of N finite states, or of one state (n,): an inspection view
    of `factored_design`, whose two factors the fits and the CV use instead.

    Column block i holds the feature matrix at states[i]; its row j is entry j
    of basis.values times basis.rows[j]: sin(w_j . x) w_j^T / sqrt(d) for the
    odd curl-free map and sin(w_j . x) (J w_j)^T / sqrt(d) for the odd
    symplectic map.  The Gaussian-separable map splits the d frequencies into
    n blocks of m = d/n; block k fills column k with sqrt(2/m) cos(w_j . x + b_j),
    so cross-output products vanish exactly and each diagonal estimates the
    scalar Gaussian kernel k_sigma(x, z).
    """
    design = factored_design(finite_states("feature_design states", states), basis)
    return (design.values[:, :, None] * design.rows[:, None, :]).reshape(design.shape)


@dataclass(frozen=True)
class FactoredDesign:
    """The (sum d, n N) design D of feature maps stacked at N states, kept as its two factors:
    D[i, n j + o] = values[i, j] rows[i, o], feature i's scalar entry at state j times output o of its
    row.  It holds the values once, where D holds them n times over.  Its products work over blocks of
    rows of D of at most _BLOCK_ENTRIES entries, so no temporary exceeds a 1/n of that."""

    values: np.ndarray  # (sum d, N)
    rows: np.ndarray    # (sum d, n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[0], self.values.shape[1] * self.rows.shape[1]

    def gram(self, weights) -> np.ndarray:
        """D^T diag(weights) D, (n N, n N): its block of outputs (o, p) is V^T diag(weights rows_o rows_p) V,
        summed over the row blocks.  A block whose weights are all zero is skipped, so outputs that no
        feature shares, such as the baseline's 0 and 1, meet in a block of exact zeros."""
        N, n = self.values.shape[1], self.rows.shape[1]
        gram = np.zeros((N, n, N, n))
        pairs = [(o, p) for o in range(n) for p in range(o, n)]
        for b in _blocks(*self.shape):
            V = self.values[b]
            for o, p in pairs:
                g = weights[b] * self.rows[b, o] * self.rows[b, p]
                if g.any():
                    gram[:, o, :, p] += (g[:, None] * V).T @ V
        for o, p in pairs:
            gram[:, p, :, o] = gram[:, o, :, p].T
        return gram.reshape(n * N, n * N)

    def outer(self) -> np.ndarray:
        """D D^T = (V V^T) * (R R^T), (sum d, sum d), for values V and rows R."""
        return (self.values @ self.values.T) * (self.rows @ self.rows.T)

    def dot(self, c) -> np.ndarray:
        """D c for a length-(n N) vector c: the row sums of rows * (V C), C the (N, n) view of c, over the
        row blocks, which bound its temporaries.  (Measured on the one BLAS thread every fit runs on: a
        d = 20000 pendulum fit peaked at 49.2 MB max RSS with the blocks against 49.7-49.9 MB with one product
        of all of V, in 3 processes each.)"""
        C = c.reshape(self.values.shape[1], -1)
        return np.concatenate([np.einsum("io,io->i", self.rows[b], self.values[b] @ C) for b in _blocks(*self.shape)])


def factored_design(X: np.ndarray, *bases: FeatureBasis) -> FactoredDesign:
    """The factored design of the bases, stacked in order, at the (N, n) states X.  Each basis writes
    its values in place, over blocks of states that keep each `values` temporary to _BLOCK_ENTRIES entries."""
    N, n = X.shape
    ends = np.cumsum([basis.d for basis in bases])
    values = np.empty((ends[-1], N))
    for basis, end in zip(bases, ends):
        if n != basis.n:
            raise ValueError(f"state dimension {n} does not match basis dimension {basis.n}")
        for b in _blocks(N, basis.d):
            values[end - basis.d:end, b] = basis.values(X[b]).T
    return FactoredDesign(values, np.concatenate([basis.rows for basis in bases]))
