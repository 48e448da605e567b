"""Closed-form ridge fits for the Helmholtz split, the baseline, and the
exact-kernel oracle, plus the fitted-model types.

Each random-feature model declares its maps once, in MAPS; the part checks, the
fit, the CV search and the CLI loader all read it, and each map's `FeatureBasis`
evaluates it (`field`, `grid_field`, `potential`).

All fits minimize a regularized least-squares objective over feature
coefficients with one linear solve on the smaller of the primal and dual
systems.  Models are immutable after fitting and safe to share across
threads.
"""

import operator
from dataclasses import dataclass
from functools import reduce, wraps

import numpy as np

from . import features as ft
from .kernels import (JsonDocument, finite_array, finite_states, gram_matrix, integer_at_least, kernel_blocks,
                      one_blas_thread, positive_finite, symplectic_matrix)

_EXACT_N_LIMIT = 200

_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Dataset(JsonDocument):
    """Paired state and state-derivative samples.

    `times` and `traj_ids` are optional bookkeeping used by the CSV
    serializers; the fits only read `states` and `derivatives`.
    """

    states: np.ndarray       # (N, n)
    derivatives: np.ndarray  # (N, n)
    times: np.ndarray | None = None
    traj_ids: np.ndarray | None = None

    def __post_init__(self):
        states = finite_array("states", self.states, (None, None))
        derivs = finite_array("derivatives", self.derivatives, states.shape)
        times = None if self.times is None else finite_array("times", self.times, states.shape[:1])
        ids = None if self.traj_ids is None else np.asarray(self.traj_ids)
        if ids is not None and (ids.shape != states.shape[:1] or ids.dtype.kind not in "iu"):
            raise ValueError(f"traj_ids must be one integer per sample, got {ids.dtype} {ids.shape}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "derivatives", derivs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "traj_ids", ids)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def target_vector(self) -> np.ndarray:
        """Derivatives stacked sample-by-sample into one length-nN vector."""
        return self.derivatives.reshape(-1)


@dataclass(frozen=True)
class Hyperparameters(JsonDocument):
    """Kernel width, ridge weights, and feature budget for one fit.

    `lambda2` is None for the single-map baseline.
    """

    sigma: float
    lambda1: float
    lambda2: float | None = None
    d: int = 200

    def __post_init__(self):
        for name in ("sigma", "lambda1") + (() if self.lambda2 is None else ("lambda2",)):
            object.__setattr__(self, name, positive_finite(name, getattr(self, name)))
        object.__setattr__(self, "d", integer_at_least("d", self.d, 1))


def _batched(method):
    """Let a model method take one state or an (B, n) batch of finite numbers; one state in, one result out.
    The method computes on one BLAS thread (`kernels.one_blas_thread`)."""
    @wraps(method)
    def call(self, x):
        X = finite_states(f"{method.__name__} states", x)
        if X.shape[1] != self.dim:
            raise ValueError(f"state dimension {X.shape[1]} does not match model dimension {self.dim}")
        with one_blas_thread:
            out = method(self, X)
        return out[0] if np.ndim(x) == 1 else out
    return call


class _FeatureModel(JsonDocument):
    """What the random-feature models share.  MAPS holds one (coefficient field, basis field,
    basis kind, ridge-weight field of hyper) per map, in the order the fit draws, stacks and
    solves them; the model's field is the sum of its maps.  `name` is its "model" in JSON."""

    def __post_init__(self):
        """Check that the parts fit: hyper has every ridge weight, each basis its map's kind, hyper's d
        and sigma and the model's n, and each coefficient vector hyper.d finite entries (kept as floats)."""
        self._ridge_weights(self.hyper)
        for name, slot, kind, _ in self.MAPS:
            basis = getattr(self, slot)
            for attr, want in (("kind", kind), ("d", self.hyper.d), ("sigma", self.hyper.sigma), ("n", self.dim)):
                if getattr(basis, attr) != want:
                    raise ValueError(f"{slot}.{attr} is {getattr(basis, attr)!r}, but the model needs {want!r}")
            object.__setattr__(self, name, finite_array(name, getattr(self, name), (self.hyper.d,)))

    @classmethod
    def _ridge_weights(cls, hyper: Hyperparameters) -> list[float]:
        """The ridge weight of each map, read from hyper; raises if one is None."""
        lams = {ridge: getattr(hyper, ridge) for *_, ridge in cls.MAPS}
        if None in lams.values():
            raise ValueError(f"a {cls.name} model needs the ridge weights {lams}, none of them None")
        return list(lams.values())

    def _parts(self) -> list[tuple[np.ndarray, ft.FeatureBasis]]:
        return [(getattr(self, name), getattr(self, slot)) for name, slot, *_ in self.MAPS]

    @property
    def dim(self) -> int:
        return getattr(self, self.MAPS[0][1]).n

    # The maps are summed without sum()'s leading 0, which would turn a -0.0 into +0.0.
    @_batched
    def predict(self, X) -> np.ndarray:
        return reduce(operator.add, (basis.field(X, coef) for coef, basis in self._parts()))

    @one_blas_thread
    def predict_grid(self, limits, resolution) -> np.ndarray:
        """predict on the evenly spaced grid of `FeatureBasis.grid_field`, shape (resolution, resolution, 2)."""
        return reduce(operator.add, (basis.grid_field(limits, resolution, coef) for coef, basis in self._parts()))

    def to_json(self) -> dict:
        return {**super().to_json(), "model": self.name}


@dataclass(frozen=True)
class HelmholtzModel(_FeatureModel):
    """Learned vector field as a symplectic part plus a gradient part."""

    alpha: np.ndarray
    beta: np.ndarray
    basis_c: ft.FeatureBasis
    basis_s: ft.FeatureBasis
    hyper: Hyperparameters

    name = "helmholtz"
    MAPS = (("alpha", "basis_c", ft.ODD_CURL_FREE, "lambda1"), ("beta", "basis_s", ft.ODD_SYMPLECTIC, "lambda2"))

    @_batched
    def dissipative_part(self, X) -> np.ndarray:
        return self.basis_c.field(X, self.alpha)

    @_batched
    def symplectic_part(self, X) -> np.ndarray:
        return self.basis_s.field(X, self.beta)

    def decompose(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Return (symplectic, dissipative) parts of the learned field."""
        return self.symplectic_part(x), self.dissipative_part(x)

    @_batched
    def hamiltonian(self, X) -> float | np.ndarray:
        """Energy estimate whose symplectic gradient is the symplectic part.

        Defined up to an additive constant; even in x.
        """
        return self.basis_s.potential(X, self.beta)

    def hamiltonian_gradient(self, x) -> np.ndarray:
        """Closed-form gradient of the energy estimate: (J grad H)^T J, exact as J is a signed permutation."""
        return self.symplectic_part(x) @ symplectic_matrix(self.dim // 2)

    @_batched
    def dissipation_potential(self, X) -> float | np.ndarray:
        """Scalar potential whose gradient is the dissipative part."""
        return self.basis_c.potential(X, self.alpha)


@dataclass(frozen=True)
class BaselineModel(_FeatureModel):
    """Gaussian-separable feature model without structural constraints."""

    alpha: np.ndarray
    basis: ft.FeatureBasis
    hyper: Hyperparameters

    name = "gaussian"
    MAPS = (("alpha", "basis", ft.GAUSSIAN_SEPARABLE, "lambda1"),)


MODELS = {model.name: model for model in (HelmholtzModel, BaselineModel)}


@dataclass(frozen=True)
class ExactKernelModel:
    """Representer-theorem solution anchored at the training states."""

    coefficients: np.ndarray  # (N, n)
    anchors: np.ndarray       # (N, n)
    kind: str
    sigma: float

    def __post_init__(self):
        """Check finite (N, n) coefficients and anchors of one shape, and the kind and width as kernel_blocks does."""
        anchors = finite_array("anchors", self.anchors, (None, None))
        coefficients = finite_array("coefficients", self.coefficients, anchors.shape)
        kernel_blocks(self.kind, anchors[:1], anchors[:1], self.sigma)  # raises on the kind, the width or an odd n
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    @_batched
    def predict(self, X) -> np.ndarray:
        """The field at X over state blocks whose (B, N, n, n) kernel blocks hold at most _BLOCK_ENTRIES entries."""
        return ft._over_blocks(X, self.anchors.size * self.dim, lambda B: np.einsum(
            "bnij,nj->bi", kernel_blocks(self.kind, B, self.anchors, self.sigma), self.coefficients))


def _checked_solve(A: np.ndarray, shift: float | np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add `shift`, a scalar or one entry per row, to A's diagonal in place, then solve (A + diag(shift)) x = b
    with np.linalg.solve, accepted when x is finite and its normwise backward error
    ||b - A x|| / (||A||_F ||x|| + ||b||) against the shifted A is within tolerance; anything else,
    non-finite input included, raises rather than returning a bad solution."""
    A[np.diag_indices_from(A)] += shift
    x = np.linalg.solve(A, b)
    residual = np.linalg.norm(b - A @ x)
    scale = np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b)
    # A zero scale means b = 0 and A x = 0, so the residual is 0 too.
    rel = residual / scale if scale > 0 else residual
    if not (rel <= _RESIDUAL_TOL and np.all(np.isfinite(x))):
        raise RuntimeError(f"linear solve left backward-error residual {rel:.3e} > {_RESIDUAL_TOL:g}")
    return x


def solve_ridge(design: ft.FactoredDesign, targets: np.ndarray, lam_diag: np.ndarray, n_samples: int) -> np.ndarray:
    """Minimize (1/N)||D^T xi - targets||^2 + xi^T diag(lam) xi for the factored design D.

    Solves whichever system is smaller, with _checked_solve.  With at most nN
    coefficients that is the primal (D D^T + N diag(lam)) xi = D targets;
    otherwise the dual (D^T W D + N lam_min I) c = targets with
    W = diag(lam_min / lam), whose solution gives xi = W D c.  Weighting by
    lam_min / lam <= 1 rather than dividing by lam keeps tiny ridge weights
    from overflowing.  Every product comes from D's two factors
    (`features.FactoredDesign`); no step forms D.
    """
    if design.shape[0] <= design.shape[1]:
        return _checked_solve(design.outer(), n_samples * lam_diag, design.dot(targets))
    lam_min = lam_diag.min()
    w = lam_min / lam_diag
    return w * design.dot(_checked_solve(design.gram(w), n_samples * lam_min, targets))


@one_blas_thread
def _fit(model: type[_FeatureModel], dataset: Dataset, hyper: Hyperparameters, seed: int):
    """Fit `model`: draw the basis of each map from its own child seed, then solve for the
    coefficients of every map at once, each penalised by its own ridge weight."""
    lam = np.repeat(model._ridge_weights(hyper), hyper.d)
    seeds = ft.split_seed(seed, len(model.MAPS))
    bases = [ft.sample_basis(kind, hyper.d, dataset.dim, hyper.sigma, basis_seed)
             for (_, _, kind, _), basis_seed in zip(model.MAPS, seeds)]
    xi = solve_ridge(ft.factored_design(dataset.states, *bases), dataset.target_vector(), lam, len(dataset))
    return model(**{name: coef for (name, *_), coef in zip(model.MAPS, np.split(xi, len(bases)))},
                 **{slot: basis for (_, slot, *_), basis in zip(model.MAPS, bases)}, hyper=hyper)


def fit_helmholtz(dataset: Dataset, hyper: Hyperparameters, seed: int) -> HelmholtzModel:
    """Closed-form fit of the two-part model; deterministic given the seed."""
    return _fit(HelmholtzModel, dataset, hyper, seed)


def fit_baseline(dataset: Dataset, hyper: Hyperparameters, seed: int) -> BaselineModel:
    """Closed-form fit of the Gaussian-separable baseline (single ridge weight)."""
    return _fit(BaselineModel, dataset, hyper, seed)


@one_blas_thread
def fit_exact_kernel(dataset: Dataset, kind: str, sigma: float, lam: float) -> ExactKernelModel:
    """Solve the dense representer system K a + N lambda a = xdot.

    The system is (nN x nN); N is capped because the cost grows cubically.
    Use kind='helmholtz' for the two-kernel sum that the feature model
    approaches as the feature budget grows (with lambda1 = lambda2 = lambda).
    """
    if len(dataset) > _EXACT_N_LIMIT:
        raise ValueError(
            f"exact-kernel fit is dense in nN; N={len(dataset)} exceeds the guard {_EXACT_N_LIMIT}")
    lam = positive_finite("lambda", lam)
    G = gram_matrix(kind, dataset.states, sigma)
    coeffs = _checked_solve(G, len(dataset) * lam, dataset.target_vector())
    return ExactKernelModel(coeffs.reshape(len(dataset), dataset.dim), dataset.states.copy(), kind, sigma)
