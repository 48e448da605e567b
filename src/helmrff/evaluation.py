"""Model evaluation: vector-field MSE, the long-horizon test protocol,
k-fold grid-search tuning, and phase-plane field grids.

The grid search scores every (sigma, lambda) candidate with the exact
closed-form minimizer in dual form, and every fold from one decomposition of
the Gram on all samples per training-fold size (see `_cv_mse`).  Scores that
differ by less than a relative CV_TIE_RTOL count as tied, so last-digit
rounding cannot change the pick.
"""

from dataclasses import asdict, dataclass, field
from itertools import groupby

import numpy as np

from . import features as ft
from .kernels import finite_array, integer_at_least, positive_finite
from .regression import BaselineModel, Dataset, HelmholtzModel, Hyperparameters
from .systems import SystemSpec, sample_flow, write_csv

# Scores within this relative distance of the best count as tied.  It is far
# above the rounding of the scorer (below 1e-7 relative) and far below the
# gaps between the best and the next candidate seen on the benchmark data.
CV_TIE_RTOL = 1e-6


@dataclass(frozen=True)
class SearchSpace:
    """Hyperparameter grids for the k-fold search.

    `lambda2s` is None when tuning the single-map baseline.  `d` is the
    feature budget used while scoring and carried into the result.
    """

    sigmas: np.ndarray
    lambda1s: np.ndarray
    lambda2s: np.ndarray | None = None
    folds: int = 5
    d: int = 200

    def __post_init__(self):
        for name in ("sigmas", "lambda1s", "lambda2s"):
            grid = getattr(self, name)
            if grid is None:
                continue
            grid = finite_array(name, grid, (None,))
            for value in grid.tolist():
                positive_finite(f"every entry of {name}", value)
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "folds", integer_at_least("folds", self.folds, 2))
        object.__setattr__(self, "d", integer_at_least("d", self.d, 1))


def default_search_space(baseline: bool = False) -> SearchSpace:
    """Log-spaced grids: 13 widths over [0.1, 10], 17 ridge weights over [1e-8, 1]."""
    lambdas = np.logspace(-8.0, 0.0, 17)
    return SearchSpace(sigmas=np.logspace(-1.0, 1.0, 13), lambda1s=lambdas, lambda2s=None if baseline else lambdas)


@dataclass(frozen=True)
class EvalReport:
    """MSE summary for one fitted model, ready for JSON export."""

    system: str
    model_kind: str
    train_mse: float
    test_mse: float
    train_residuals: list
    test_residuals: list
    hyper: Hyperparameters
    seed: int
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["model"] = doc.pop("model_kind")
        return {**doc, "d": self.hyper.d}


def pointwise_residuals(model, dataset: Dataset) -> np.ndarray:
    """Squared prediction error ||f(x_i) - xdot_i||^2 of each sample; their mean is the vector-field MSE."""
    resid = model.predict(dataset.states) - dataset.derivatives
    return np.sum(resid**2, axis=1)


def make_test_set(system: SystemSpec, x0, h: float, t_end: float) -> Dataset:
    """Noiseless (state, true-field) samples along one long test trajectory."""
    times, states, derivs = sample_flow(system, x0, h, t_end)
    return Dataset(states=states, derivatives=derivs, times=times,
                   traj_ids=np.zeros(len(times), dtype=int))


def fold_indices(n_samples: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold split: returns (train, validation) index pairs."""
    if n_samples < folds:
        raise ValueError(f"need at least one sample per fold: N={n_samples}, folds={folds}")
    perm = np.random.default_rng(seed).permutation(n_samples)
    parts = np.array_split(perm, folds)
    return [(np.sort(np.concatenate(parts[:i] + parts[i + 1:])), np.sort(val))
            for i, val in enumerate(parts)]


def cross_validate(dataset: Dataset, space: SearchSpace, seed: int) -> Hyperparameters:
    """Pick the grid point with the lowest mean validation MSE over k folds (`_cv_scores`).

    Every candidate whose score is within a relative CV_TIE_RTOL of the
    lowest counts as tied; ties break toward stronger smoothing: larger
    first ridge weight, then larger second one, then larger kernel width.
    """
    scores, grids = _cv_scores(dataset, space, seed)
    # Flat order is the preference order: the grids run from strongest smoothing down.
    flat = scores.reshape(-1)
    pick = int(np.flatnonzero(flat <= flat.min() * (1.0 + CV_TIE_RTOL))[0])
    lambda1, *lambda2, sigma = (float(grid[i]) for grid, i in zip(grids, np.unravel_index(pick, scores.shape)))
    return Hyperparameters(sigma=sigma, lambda1=lambda1, lambda2=lambda2[0] if lambda2 else None, d=space.d)


def _cv_scores(dataset: Dataset, space: SearchSpace, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The mean validation MSE over k folds of every grid point, on axes (lambda1, [lambda2,] sigma),
    and the descending grids of those axes.

    Deterministic given (dataset, space, seed): the fold shuffle and the feature draws all derive
    from child seeds.  Raises if a score is not finite, for example when a ridge weight underflows.
    """
    shuffle_seed, seed_a, seed_b = ft.split_seed(seed, 3)
    folds = fold_indices(len(dataset), space.folds, shuffle_seed)
    n = dataset.dim
    # Descending grids make the first minimum the preferred tie-break winner.
    sigmas = np.sort(space.sigmas)[::-1]
    lams = [np.sort(grid)[::-1] for grid in (space.lambda1s, space.lambda2s) if grid is not None]
    model = BaselineModel if space.lambda2s is None else HelmholtzModel

    scores = np.zeros(tuple(lam.size for lam in lams) + (sigmas.size,))
    for si, sigma in enumerate(sigmas):
        designs = (ft.feature_design(ft.sample_basis(kind, space.d, n, sigma, map_seed), dataset.states)
                   for (_, _, kind, _), map_seed in zip(model.MAPS, (seed_a, seed_b)))
        not_finite = ValueError(f"cross-validation score is not finite at sigma={sigma:g}; "
                                "check the data and the ridge-weight grids")
        # A ridge weight so small that G / lambda overflows has no usable score.
        try:
            with np.errstate(over="raise", invalid="raise"):
                scores[..., si] = _cv_mse([p.T @ p for p in designs], dataset.derivatives, folds, lams)
        except (FloatingPointError, np.linalg.LinAlgError) as err:
            raise not_finite from err
        if not np.all(np.isfinite(scores[..., si])):
            raise not_finite
    return scores / space.folds, lams + [sigmas]


def _cv_mse(grams, targets, folds, lams) -> np.ndarray:
    """Validation MSE summed over the folds, for every ridge-weight combination.

    Map k has the Gram G_k = Phi_k^T Phi_k on all nN rows and ridge weights
    lams[k] along axis k of the result; `targets` holds the (N, n) derivatives.
    A fold that trains on N_t samples solves (sum_k G_k,tt / lambda_k + N_t I) c = x_t.
    With B = (sum_k G_k / lambda_k + N_t I)^-1 on all rows, its residual on the
    held-out rows v is -(B_vv)^-1 (B x)_v, as B_vv inverts the Schur complement
    of the training block (An, Liu & Venkatesh, Pattern Recognit. 40(8), 2007).
    With G_1 = U diag(s) U^T, r = (s / lambda_1 + N_t)^(-1/2) and
    diag(r) U^T G_2 U diag(r) = Q diag(mu) Q^T, B = W diag(w) W^T for
    W = U diag(r) Q and w = 1 / (1 + mu / lambda_2), so one eigendecomposition
    per lambda_1 covers every lambda_2.  A single map is Q = I and w = 1.
    """
    s, U = np.linalg.eigh(grams[0])
    H = U.T @ grams[1] @ U if len(grams) > 1 else None
    rows = U.reshape(targets.shape + (-1,))  # rows of U by sample
    xU = targets.reshape(-1) @ U
    total = 0.0
    for n_train, group in groupby(folds, key=lambda fold: len(fold[0])):
        r = (s / lams[0][:, None] + n_train) ** -0.5
        if H is None:
            Q, w = np.eye(s.size), np.ones((r.shape[0], 1, s.size))
        else:
            mu, Q = np.linalg.eigh(H * r[:, :, None] * r[:, None, :])
            w = 1.0 / (1.0 + mu[:, None, :] / lams[1][:, None])
        wWx = w * ((xU * r)[:, None, :] @ Q)  # diag(w) W^T x
        m = rows.shape[1] * (len(rows) - n_train)
        Bvv = np.empty(w.shape[:2] + (m, m))  # every fold of the group holds m rows
        for _, val in group:
            WvT = ((rows[val].reshape(m, -1) * r[:, None, :]) @ Q).transpose(0, 2, 1)  # (lambda1, nN, m)
            for i in range(m):  # row by row, so no temporary outgrows W_v
                np.matmul(w, WvT * WvT[:, :, i, None], out=Bvv[:, :, i])
            resid = np.linalg.solve(Bvv, (wWx @ WvT)[..., None])
            total = total + np.sum(resid**2, axis=(-2, -1)) / len(val)
        del Q, w, wWx, Bvv, WvT, resid  # free this size's arrays before the next size's
    return total.reshape([lam.size for lam in lams])


def stream_grid(field_or_model, bounds, resolution) -> np.ndarray:
    """Sample a field on a regular resolution x resolution phase-plane grid.

    `bounds` is ((q_lo, q_hi), (p_lo, p_hi)), checked by `features.grid_limits`.
    Returns rows (q, p, qdot, pdot) at np.linspace's points, first axis slowest.
    A fitted feature model (one with `predict_grid`) is evaluated separably over
    the two evenly spaced axes, and agrees with its `predict` there to rounding.
    Any other model, and a bare callable field, gets the (B, 2) batch of points.
    """
    limits = ft.grid_limits(bounds, resolution)
    qs, ps = (np.linspace(lo, hi, resolution) for lo, hi in limits)
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    points = np.column_stack([Q.reshape(-1), P.reshape(-1)])
    if hasattr(field_or_model, "predict_grid"):
        values = field_or_model.predict_grid(limits, resolution).reshape(-1, 2)
    else:
        values = getattr(field_or_model, "predict", field_or_model)(points)
    return np.hstack([points, values])


def stream_grid_to_csv(grid: np.ndarray, path, comments: list[str] | None = None) -> None:
    write_csv(path, ["q", "p", "qdot", "pdot"], grid, comments)


def evaluate_model(model, train: Dataset, test: Dataset, system: str, model_kind: str,
                   seed: int, notes: dict | None = None) -> EvalReport:
    train_res = pointwise_residuals(model, train)
    test_res = pointwise_residuals(model, test)
    return EvalReport(
        system=system,
        model_kind=model_kind,
        train_mse=float(np.mean(train_res)),
        test_mse=float(np.mean(test_res)),
        train_residuals=train_res.tolist(),
        test_residuals=test_res.tolist(),
        hyper=model.hyper,
        seed=seed,
        notes=notes or {},
    )
