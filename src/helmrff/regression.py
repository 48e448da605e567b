"""Closed-form ridge fits for the Helmholtz split, the baseline, and the
exact-kernel oracle, plus the fitted-model types.

All fits minimize a regularized least-squares objective over feature
coefficients with one linear solve on the smaller of the primal and dual
systems.  Models are immutable after fitting and safe to share across
threads.
"""

import numbers
from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import features as ft
from .kernels import gram_matrix, kernel_blocks, symplectic_matrix

_EXACT_N_LIMIT = 200

_RESIDUAL_TOL = 1e-8

# The most entries of any (states, features) or (grid axis, features) array a fitted model
# forms: 1 MiB of float64, 2 MiB of complex.  OpenBLAS multiplies a block this small on one
# thread, so its workers do not wake and spin per block.
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
        states = np.asarray(self.states, dtype=float)
        derivs = np.asarray(self.derivatives, dtype=float)
        if states.ndim != 2 or 0 in states.shape:
            raise ValueError(f"states must be an (N, n) array, N, n >= 1, got shape {states.shape}")
        if states.shape != derivs.shape:
            raise ValueError(f"states {states.shape} and derivatives {derivs.shape} must match")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(derivs))):
            raise ValueError("states and derivatives must be finite (found NaN or inf)")
        times = None if self.times is None else np.asarray(self.times, dtype=float)
        ids = None if self.traj_ids is None else np.asarray(self.traj_ids)
        for name, column, kinds, what in (("times", times, "f", "number"), ("traj_ids", ids, "iu", "integer")):
            if column is not None and (column.shape != states.shape[:1] or column.dtype.kind not in kinds):
                raise ValueError(f"{name} must be one {what} per sample, got {column.dtype} {column.shape}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "derivatives", derivs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "traj_ids", ids)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(*(None if column is None else column[idx]
                         for column in (self.states, self.derivatives, self.times, self.traj_ids)))

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
        for name in ("sigma", "lambda1") + (() if self.lambda2 is None else ("lambda2",)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < np.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "d", int(self.d))
        if self.d < 1:
            raise ValueError(f"feature budget must be >= 1, got {self.d}")

    def to_json(self) -> dict:
        return {"sigma": self.sigma, "lambda1": self.lambda1, "lambda2": self.lambda2, "d": self.d}

    @classmethod
    def from_json(cls, doc: dict) -> "Hyperparameters":
        return cls(doc["sigma"], doc["lambda1"], doc["lambda2"], doc["d"])


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


def _waves(phase) -> np.ndarray:
    """e^{i phase}, from cos and sin written into one complex array: faster than np.exp(1j * phase)."""
    wave = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=wave.real)
    np.sin(phase, out=wave.imag)
    return wave


def _grid_field(qs, ps, basis: ft.FeatureBasis, coef) -> np.ndarray:
    """_field at every point (q, p) of the product grid qs x ps, shape (len(qs), len(ps), 2).

    Each feature is a plane wave that factors over the two axes: sin(w_q q + w_p p) is
    Im e^{i w_q q} e^{i w_p p} and cos(w_q q + w_p p + b) is Re e^{i (w_q q + b)} e^{i w_p p}.
    So output c is ((E_q * g_c) @ E_p^T).imag, or .real for the baseline, with
    g_c = coef rows[:, c] scale, summed over blocks of features; values at the grid points
    are never formed.  Agrees with _field at the grid points to rounding.
    """
    if basis.n != 2:
        raise ValueError(f"state dimension 2 does not match model dimension {basis.n}")
    g = (coef[:, None] * basis.rows) * basis.scale
    offset = basis.phases if basis.kind == ft.GAUSSIAN_SEPARABLE else np.zeros(basis.d)
    total = np.zeros((2, len(qs), len(ps)), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(len(qs), len(ps)))
    for block in (slice(i, i + step) for i in range(0, basis.d, step)):
        E_q = _waves(np.outer(qs, basis.weights[block, 0]) + offset[block])
        E_p = _waves(np.outer(ps, basis.weights[block, 1]))
        for c in range(2):
            total[c] += (E_q * g[block, c]) @ E_p.T
    part = total.real if basis.kind == ft.GAUSSIAN_SEPARABLE else total.imag
    return np.moveaxis(part, 0, -1)


def _cosine_potential(X, basis: ft.FeatureBasis, coef) -> np.ndarray:
    """-sum_i coef_i cos(w_i . x) scale: the potential whose gradient is the odd map's field."""
    def reduce(B):
        phase = B @ basis.weights.T
        return -(np.cos(phase, out=phase) @ coef)
    return _over_blocks(X, basis.d, reduce) * basis.scale


def _check_parts(model, parts: dict) -> None:
    """Check, for each coefficient name -> (basis slot, kind) of `parts`, hyper.d finite coefficients
    and a basis of that kind with hyper's d and sigma and the model's n; store them as float arrays."""
    for name, (slot, kind) in parts.items():
        basis = getattr(model, slot)
        for attr, want in (("kind", kind), ("d", model.hyper.d), ("sigma", model.hyper.sigma), ("n", model.dim)):
            if getattr(basis, attr) != want:
                raise ValueError(f"{slot}.{attr} is {getattr(basis, attr)!r}, but the model needs {want!r}")
        coef = np.asarray(getattr(model, name), dtype=float)
        if coef.shape != (model.hyper.d,) or not np.all(np.isfinite(coef)):
            raise ValueError(f"{name} must hold d = {model.hyper.d} finite coefficients, got shape {coef.shape}")
        object.__setattr__(model, name, coef)


@dataclass(frozen=True)
class HelmholtzModel:
    """Learned vector field as a symplectic part plus a gradient part."""

    alpha: np.ndarray
    beta: np.ndarray
    basis_c: ft.FeatureBasis
    basis_s: ft.FeatureBasis
    hyper: Hyperparameters

    def __post_init__(self):
        if self.hyper.lambda2 is None:
            raise ValueError("a Helmholtz model needs both ridge weights; hyper.lambda2 is None")
        _check_parts(self, {"alpha": ("basis_c", ft.ODD_CURL_FREE), "beta": ("basis_s", ft.ODD_SYMPLECTIC)})

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

    def predict_grid(self, qs, ps) -> np.ndarray:
        """predict at every point (q, p) of the product grid qs x ps, shape (len(qs), len(ps), 2)."""
        return _grid_field(qs, ps, self.basis_s, self.beta) + _grid_field(qs, ps, self.basis_c, self.alpha)

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
        return cls(doc["alpha"], doc["beta"], ft.FeatureBasis.from_json(doc["basis_c"]),
                   ft.FeatureBasis.from_json(doc["basis_s"]), Hyperparameters.from_json(doc["hyper"]))


@dataclass(frozen=True)
class BaselineModel:
    """Gaussian-separable feature model without structural constraints."""

    alpha: np.ndarray
    basis: ft.FeatureBasis
    hyper: Hyperparameters

    def __post_init__(self):
        _check_parts(self, {"alpha": ("basis", ft.GAUSSIAN_SEPARABLE)})

    @property
    def dim(self) -> int:
        return self.basis.n

    @_batched
    def predict(self, X) -> np.ndarray:
        return _field(X, self.basis, self.alpha)

    def predict_grid(self, qs, ps) -> np.ndarray:
        """predict at every point (q, p) of the product grid qs x ps, shape (len(qs), len(ps), 2)."""
        return _grid_field(qs, ps, self.basis, self.alpha)

    def to_json(self) -> dict:
        return {
            "model": "gaussian",
            "hyper": self.hyper.to_json(),
            "basis": self.basis.to_json(),
            "alpha": self.alpha.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BaselineModel":
        return cls(doc["alpha"], ft.FeatureBasis.from_json(doc["basis"]), Hyperparameters.from_json(doc["hyper"]))


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
