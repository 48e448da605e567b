"""Closed-form ridge fits for the Helmholtz split, the baseline, and the
exact-kernel oracle, plus the fitted-model types.

All fits minimize a regularized least-squares objective over feature
coefficients with one linear solve on the smaller of the primal and dual
systems.  Models are immutable after fitting and safe to share across
threads.
"""

from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import features as ft
from .kernels import gram_matrix, kernel_blocks, symplectic_matrix

_EXACT_N_LIMIT = 200

_RESIDUAL_TOL = 1e-8

# The largest (states, features) array a fitted model forms: 1 MiB.  OpenBLAS
# multiplies a block this small on one thread, so its workers do not wake and spin per block.
_BLOCK_ENTRIES = 2**17


@dataclass(frozen=True)
class Dataset:
    """Paired state and state-derivative samples.

    `times` and `traj_ids` are optional bookkeeping used by the CSV
    serializers; the fits only read `states` and `derivatives`.
    """

    states: np.ndarray       # (N, n)
    derivatives: np.ndarray  # (N, n)
    times: np.ndarray | None = None
    traj_ids: np.ndarray | None = None

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        derivs = np.atleast_2d(np.asarray(self.derivatives, dtype=float))
        if states.shape != derivs.shape:
            raise ValueError(f"states {states.shape} and derivatives {derivs.shape} must match")
        if states.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(derivs))):
            raise ValueError("states and derivatives must be finite (found NaN or inf)")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "derivatives", derivs)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            self.states[idx],
            self.derivatives[idx],
            None if self.times is None else self.times[idx],
            None if self.traj_ids is None else self.traj_ids[idx],
        )

    def target_vector(self) -> np.ndarray:
        """Derivatives stacked sample-by-sample into one length-nN vector."""
        return self.derivatives.reshape(-1)


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel width, ridge weights, and feature budget for one fit.

    `lambda2` is None for the single-map baseline.
    """

    sigma: float
    lambda1: float
    lambda2: float | None = None
    d: int = 200

    def __post_init__(self):
        for name in ("sigma", "lambda1", "lambda2"):
            value = getattr(self, name)
            if name == "lambda2" and value is None:
                continue
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.d < 1:
            raise ValueError(f"feature budget must be >= 1, got {self.d}")

    def to_json(self) -> dict:
        return {"sigma": self.sigma, "lambda1": self.lambda1, "lambda2": self.lambda2, "d": self.d}

    @classmethod
    def from_json(cls, doc: dict) -> "Hyperparameters":
        lam2 = doc.get("lambda2")
        return cls(float(doc["sigma"]), float(doc["lambda1"]),
                   None if lam2 is None else float(lam2), int(doc["d"]))


def _batched(method):
    """Let a model method take one state or an (B, n) batch; one state in, one result out."""
    @wraps(method)
    def call(self, x):
        X = np.atleast_2d(np.asarray(x, dtype=float))
        if X.shape[1] != self.dim:
            raise ValueError(f"state dimension {X.shape[1]} does not match model dimension {self.dim}")
        out = method(self, X)
        return out[0] if np.ndim(x) == 1 else out
    return call


def _over_blocks(X, d: int, reduce) -> np.ndarray:
    """reduce(block) over consecutive blocks of at most _BLOCK_ENTRIES // d states of X, concatenated."""
    step = max(1, _BLOCK_ENTRIES // d)
    return np.concatenate([reduce(X[i:i + step]) for i in range(0, len(X), step)])


def _field(X, basis: ft.FeatureBasis, coef) -> np.ndarray:
    """Phi(x)^T coef = sum_i coef_i values_i(x) rows_i at each state of X, in place on the values."""
    rows = basis.rows

    def reduce(B):
        v = basis.values(B)
        v *= coef
        return v @ rows
    return _over_blocks(X, basis.d, reduce)


def _cosine_potential(X, basis: ft.FeatureBasis, coef) -> np.ndarray:
    """-sum_i coef_i cos(w_i . x) / sqrt(d): the potential whose gradient is the odd map's field."""
    def reduce(B):
        phase = B @ basis.weights.T
        return -(np.cos(phase, out=phase) @ coef)
    return _over_blocks(X, basis.d, reduce) / np.sqrt(basis.d)


@dataclass(frozen=True)
class HelmholtzModel:
    """Learned vector field as a symplectic part plus a gradient part."""

    alpha: np.ndarray
    beta: np.ndarray
    basis_c: ft.FeatureBasis
    basis_s: ft.FeatureBasis
    hyper: Hyperparameters

    @property
    def dim(self) -> int:
        return self.basis_c.n

    @_batched
    def dissipative_part(self, X) -> np.ndarray:
        return _field(X, self.basis_c, self.alpha)

    @_batched
    def symplectic_part(self, X) -> np.ndarray:
        return _field(X, self.basis_s, self.beta)

    def decompose(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Return (symplectic, dissipative) parts of the learned field."""
        return self.symplectic_part(x), self.dissipative_part(x)

    def predict(self, x) -> np.ndarray:
        return self.symplectic_part(x) + self.dissipative_part(x)

    @_batched
    def hamiltonian(self, X) -> float | np.ndarray:
        """Energy estimate whose symplectic gradient is the symplectic part.

        Defined up to an additive constant; even in x.
        """
        return _cosine_potential(X, self.basis_s, self.beta)

    def hamiltonian_gradient(self, x) -> np.ndarray:
        """Closed-form gradient of the energy estimate: (J grad H)^T J, exact as J is a signed permutation."""
        return self.symplectic_part(x) @ symplectic_matrix(self.dim // 2)

    @_batched
    def dissipation_potential(self, X) -> float | np.ndarray:
        """Scalar potential whose gradient is the dissipative part."""
        return _cosine_potential(X, self.basis_c, self.alpha)

    def to_json(self) -> dict:
        return {
            "model": "helmholtz",
            "hyper": self.hyper.to_json(),
            "basis_c": self.basis_c.to_json(),
            "basis_s": self.basis_s.to_json(),
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "HelmholtzModel":
        return cls(
            alpha=np.asarray(doc["alpha"], dtype=float),
            beta=np.asarray(doc["beta"], dtype=float),
            basis_c=ft.FeatureBasis.from_json(doc["basis_c"]),
            basis_s=ft.FeatureBasis.from_json(doc["basis_s"]),
            hyper=Hyperparameters.from_json(doc["hyper"]),
        )


@dataclass(frozen=True)
class BaselineModel:
    """Gaussian-separable feature model without structural constraints."""

    alpha: np.ndarray
    basis: ft.FeatureBasis
    hyper: Hyperparameters

    @property
    def dim(self) -> int:
        return self.basis.n

    @_batched
    def predict(self, X) -> np.ndarray:
        return _field(X, self.basis, self.alpha)

    def to_json(self) -> dict:
        return {
            "model": "gaussian",
            "hyper": self.hyper.to_json(),
            "basis": self.basis.to_json(),
            "alpha": self.alpha.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BaselineModel":
        return cls(
            alpha=np.asarray(doc["alpha"], dtype=float),
            basis=ft.FeatureBasis.from_json(doc["basis"]),
            hyper=Hyperparameters.from_json(doc["hyper"]),
        )


@dataclass(frozen=True)
class ExactKernelModel:
    """Representer-theorem solution anchored at the training states."""

    coefficients: np.ndarray  # (N, n)
    anchors: np.ndarray       # (N, n)
    kind: str
    sigma: float

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    @_batched
    def predict(self, X) -> np.ndarray:
        blocks = kernel_blocks(self.kind, X, self.anchors, self.sigma)
        return np.einsum("bnij,nj->bi", blocks, self.coefficients)


def assemble_design(dataset: Dataset, *bases: ft.FeatureBasis) -> np.ndarray:
    """Stack the feature designs of the bases, in order, over all samples (sum of d) x nN."""
    return np.vstack([ft.feature_design(basis, dataset.states) for basis in bases])


def _checked_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, b), accepted when x is finite and its normwise backward error
    ||b - A x|| / (||A||_F ||x|| + ||b||) is within tolerance; anything else,
    non-finite input included, raises rather than returning a bad solution."""
    x = np.linalg.solve(A, b)
    residual = np.linalg.norm(b - A @ x)
    scale = np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b)
    # A zero scale means b = 0 and A x = 0, so the residual is 0 too.
    rel = residual / scale if scale > 0 else residual
    if not (rel <= _RESIDUAL_TOL and np.all(np.isfinite(x))):
        raise RuntimeError(f"linear solve left backward-error residual {rel:.3e} > {_RESIDUAL_TOL:g}")
    return x


def solve_ridge(design: np.ndarray, targets: np.ndarray, lam_diag: np.ndarray, n_samples: int) -> np.ndarray:
    """Minimize (1/N)||design^T xi - targets||^2 + xi^T diag(lam) xi.

    Solves whichever system is smaller, with _checked_solve.  With at most nN
    coefficients that is the primal (design design^T + N diag(lam)) xi =
    design targets; otherwise the dual (design^T W design + N lam_min I) c =
    targets with W = diag(lam_min / lam), whose solution gives xi = W design c.
    Weighting by lam_min / lam <= 1 rather than dividing by lam keeps tiny
    ridge weights from overflowing.
    """
    primal = design.shape[0] <= design.shape[1]
    if primal:
        A = design @ design.T
        A[np.diag_indices_from(A)] += n_samples * lam_diag
        b = design @ targets
    else:
        lam_min = lam_diag.min()
        weighted = (lam_min / lam_diag)[:, None] * design
        A = design.T @ weighted
        A[np.diag_indices_from(A)] += n_samples * lam_min
        b = targets
    x = _checked_solve(A, b)
    return x if primal else weighted @ x


def _fit(dataset: Dataset, hyper: Hyperparameters, seed: int, lams: dict) -> tuple[list, list]:
    """Fit one basis per kind of `lams` (kind -> ridge weight), each from its own child seed."""
    seeds = ft.split_seed(seed, len(lams))
    bases = [ft.sample_basis(kind, hyper.d, dataset.dim, hyper.sigma, basis_seed)
             for kind, basis_seed in zip(lams, seeds)]
    lam = np.repeat(list(lams.values()), hyper.d)
    xi = solve_ridge(assemble_design(dataset, *bases), dataset.target_vector(), lam, len(dataset))
    return bases, np.split(xi, len(bases))


def fit_helmholtz(dataset: Dataset, hyper: Hyperparameters, seed: int) -> HelmholtzModel:
    """Closed-form fit of the two-part model; deterministic given the seed."""
    if hyper.lambda2 is None:
        raise ValueError("the Helmholtz fit needs both ridge weights; lambda2 is None")
    (basis_c, basis_s), (alpha, beta) = _fit(
        dataset, hyper, seed, {ft.ODD_CURL_FREE: hyper.lambda1, ft.ODD_SYMPLECTIC: hyper.lambda2})
    return HelmholtzModel(alpha=alpha, beta=beta, basis_c=basis_c, basis_s=basis_s, hyper=hyper)


def fit_baseline(dataset: Dataset, hyper: Hyperparameters, seed: int) -> BaselineModel:
    """Closed-form fit of the Gaussian-separable baseline (single ridge weight)."""
    (basis,), (alpha,) = _fit(dataset, hyper, seed, {ft.GAUSSIAN_SEPARABLE: hyper.lambda1})
    return BaselineModel(alpha=alpha, basis=basis, hyper=hyper)


def baseline_objective(model: BaselineModel | HelmholtzModel, dataset: Dataset) -> float:
    """Training objective: mean squared residual plus the lambda1 penalty on alpha."""
    resid = model.predict(dataset.states) - dataset.derivatives
    mse = np.sum(resid**2) / len(dataset)
    return float(mse + model.hyper.lambda1 * model.alpha @ model.alpha)


def helmholtz_objective(model: HelmholtzModel, dataset: Dataset) -> float:
    """Training objective: the baseline objective plus the lambda2 penalty on beta."""
    return float(baseline_objective(model, dataset) + model.hyper.lambda2 * model.beta @ model.beta)


def fit_exact_kernel(dataset: Dataset, kind: str, sigma: float, lam: float) -> ExactKernelModel:
    """Solve the dense representer system K a + N lambda a = xdot.

    The system is (nN x nN); N is capped because the cost grows cubically.
    Use kind='helmholtz' for the two-kernel sum that the feature model
    approaches as the feature budget grows (with lambda1 = lambda2 = lambda).
    """
    if len(dataset) > _EXACT_N_LIMIT:
        raise ValueError(
            f"exact-kernel fit is dense in nN; N={len(dataset)} exceeds the guard {_EXACT_N_LIMIT}")
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    G = gram_matrix(kind, dataset.states, sigma)
    coeffs = _checked_solve(G + len(dataset) * lam * np.eye(G.shape[0]), dataset.target_vector())
    return ExactKernelModel(
        coefficients=coeffs.reshape(len(dataset), dataset.dim),
        anchors=dataset.states.copy(),
        kind=kind,
        sigma=float(sigma),
    )
