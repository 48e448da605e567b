import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import helmrff as hr
from helmrff import evaluation as ev
from helmrff import features as ft
from helmrff import regression as rg


class ConstantModel:
    """Predicts a fixed offset from the true derivative of a wrapped dataset."""

    def __init__(self, dataset, offset):
        self.lookup = {tuple(x): xdot for x, xdot in
                       zip(dataset.states, dataset.derivatives)}
        self.offset = np.asarray(offset, dtype=float)

    def predict(self, X):
        X = np.atleast_2d(X)
        return np.array([self.lookup[tuple(x)] + self.offset for x in X])


def toy_dataset(seed=0, n=12):
    rng = np.random.default_rng(seed)
    return rg.Dataset(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))


def pendulum_dataset(seed=5):
    system = hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)
    ics = np.array([[2 * np.pi / 5, 0.0], [4 * np.pi / 5, 0.0],
                    [19 * np.pi / 20, -4.0]])
    return hr.generate_dataset(system, ics, 0.1, 0.7, hr.NoiseSpec(0.01, seed),
                               include_t0=True)


def test_mse_trivia():
    ds = toy_dataset()
    assert np.mean(ev.pointwise_residuals(ConstantModel(ds, [0.0, 0.0]), ds)) == 0.0
    offset = np.array([0.3, -0.4])
    assert_allclose(ev.pointwise_residuals(ConstantModel(ds, offset), ds), offset @ offset, atol=1e-14)


def test_mse_is_order_invariant():
    ds = toy_dataset(3)
    model = ConstantModel(ds, [0.1, 0.2])
    perm = np.random.default_rng(0).permutation(len(ds))
    shuffled = rg.Dataset(ds.states[perm], ds.derivatives[perm])
    assert_allclose(np.mean(ev.pointwise_residuals(model, shuffled)),
                    np.mean(ev.pointwise_residuals(model, ds)), atol=1e-14)


def test_make_test_set_protocols():
    msd = hr.mass_spring_damper(0.5, 1.0, 0.25)
    test = ev.make_test_set(msd, np.array([2.0, 0.0]), 0.25, 20.0)
    assert len(test) == 81  # includes t = 0
    assert_allclose(test.states[0], [2.0, 0.0])
    assert_array_equal(test.derivatives, msd.field(test.states))
    with pytest.raises(ValueError):
        ev.make_test_set(msd, np.array([2.0, 0.0]), 0.25, 0.1)


def test_make_test_set_refuses_an_energy_that_rises():
    """A step the RK4 cannot follow multiplies a damped system's energy, however small it starts; the rounding
    of a start with no energy, and RK4's drift on an undamped system at a step it follows, pass."""
    stiff = hr.mass_spring_damper(0.5, 200.0, 0.25)
    for x0, start in (([2.0, 0.0], "400"), ([1.0e-3, 0.0], "0.0001")):
        with pytest.raises(FloatingPointError, match=f"its energy rose from {start} to "):
            ev.make_test_set(stiff, x0, 4.0, 20.0)
    undamped = hr.damped_pendulum(1.0, 1.0, 0.0, 9.81)
    at_rest = ev.make_test_set(undamped, [2 * np.pi, 0.0], 0.1, 20.0)
    assert 0.0 < undamped.hamiltonian(at_rest.states).max() < 1e-26
    ev.make_test_set(undamped, [np.pi / 2, 0.0], 1.0, 20.0)


def test_fold_indices_partition():
    folds = ev.fold_indices(24, 5, seed=7)
    assert len(folds) == 5
    all_val = np.concatenate([val for _, val in folds])
    assert sorted(all_val) == list(range(24))
    sizes = [len(val) for _, val in folds]
    assert max(sizes) - min(sizes) <= 1
    for train, val in folds:
        assert set(train) | set(val) == set(range(24))
        assert set(train) & set(val) == set()
    again = ev.fold_indices(24, 5, seed=7)
    for (t1, v1), (t2, v2) in zip(folds, again):
        assert_array_equal(v1, v2)


def test_search_space_validation():
    with pytest.raises(ValueError):
        ev.SearchSpace(sigmas=np.array([]), lambda1s=np.array([1e-3]),
                       lambda2s=None, folds=5, d=16)
    with pytest.raises(ValueError):
        ev.SearchSpace(sigmas=np.array([1.0]), lambda1s=np.array([-1e-3]),
                       lambda2s=None, folds=5, d=16)
    with pytest.raises(ValueError):
        ev.SearchSpace(sigmas=np.array([1.0]), lambda1s=np.array([1e-3]),
                       lambda2s=None, folds=1, d=16)
    # every grid entry, width or ridge weight, is positive and finite
    for bad in (np.inf, np.nan):
        for grid in ("sigmas", "lambda1s", "lambda2s"):
            grids = {"sigmas": [1.0, 2.0], "lambda1s": [1e-3, 1e-2], "lambda2s": [1e-3, 1e-2], grid: [1.0, bad]}
            with pytest.raises(ValueError, match=f"{grid} must be .*finite"):
                ev.SearchSpace(**grids, folds=5, d=16)
    # the fold count and the feature budget are integers, not floats or bools, checked here, not in the CV
    for folds, d, name in ((2.5, 16, "folds"), (True, 16, "folds"), (5, 0, "d"), (5, 16.0, "d"), (5, False, "d")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ev.SearchSpace(sigmas=[1.0], lambda1s=[1e-3], folds=folds, d=d)
    space = ev.SearchSpace(sigmas=[1.0], lambda1s=[1e-3], folds=np.int64(3), d=np.int64(16))
    assert type(space.folds) is int and type(space.d) is int


def test_default_search_space_grids():
    space = ev.default_search_space(baseline=False)
    assert space.sigmas.size == 13
    assert_allclose(space.sigmas[[0, -1]], [0.1, 10.0])
    assert space.lambda1s.size == 17
    assert_allclose(space.lambda1s[[0, -1]], [1e-8, 1.0])
    assert_array_equal(space.lambda2s, space.lambda1s)
    assert space.folds == 5
    base = ev.default_search_space(baseline=True)
    assert base.lambda2s is None


def test_cross_validate_single_point_grid():
    ds = pendulum_dataset()
    space = ev.SearchSpace(sigmas=np.array([1.3]), lambda1s=np.array([2e-4]),
                           lambda2s=np.array([5e-5]), folds=4, d=32)
    pick = ev.cross_validate(ds, space, seed=0)
    assert pick.sigma == 1.3
    assert pick.lambda1 == 2e-4
    assert pick.lambda2 == 5e-5


def test_cross_validate_ignores_duplicate_grid_entries():
    ds = pendulum_dataset()
    space = ev.SearchSpace(sigmas=np.array([0.5, 2.0]),
                           lambda1s=np.array([1e-4, 1e-2]),
                           lambda2s=np.array([1e-4, 1e-2]), folds=3, d=32)
    dup = ev.SearchSpace(sigmas=np.array([0.5, 2.0, 2.0, 0.5]),
                         lambda1s=np.array([1e-2, 1e-4, 1e-4]),
                         lambda2s=np.array([1e-4, 1e-2, 1e-2]), folds=3, d=32)
    assert ev.cross_validate(ds, space, seed=4) == ev.cross_validate(ds, dup, seed=4)


def test_cross_validate_tie_breaks_toward_smoothing():
    # zero targets make every grid point score exactly zero, so the winner
    # is decided purely by the tie-break: largest lambda, then largest sigma
    rng = np.random.default_rng(6)
    ds = rg.Dataset(rng.normal(size=(10, 2)), np.zeros((10, 2)))
    space = ev.SearchSpace(sigmas=np.array([0.5, 1.0, 2.0]),
                           lambda1s=np.array([1e-4, 1e-1]),
                           lambda2s=np.array([1e-5, 1e-2]), folds=5, d=16)
    pick = ev.cross_validate(ds, space, seed=1)
    assert pick.sigma == 2.0
    assert pick.lambda1 == 1e-1
    assert pick.lambda2 == 1e-2


def test_cross_validate_tie_tolerance_prefers_smoothing(monkeypatch):
    # Every candidate scores 1 + gap except the weakest smoothing (smallest
    # sigma, lambda1, lambda2), which scores 1.  A gap of 1e-7 is a tie within
    # CV_TIE_RTOL, so the strongest smoothing wins; a gap of 1e-5 is not.
    space = ev.SearchSpace(sigmas=np.array([0.5, 1.0, 2.0]),
                           lambda1s=np.array([1e-4, 1e-1]),
                           lambda2s=np.array([1e-5, 1e-2]), folds=3, d=8)
    for gap, expected in ((1e-7, (2.0, 1e-1, 1e-2)), (1e-5, (0.5, 1e-4, 1e-5))):
        calls = []

        def cv_mse(grams, targets, folds, lams):
            calls.append(1)
            out = np.full((lams[0].size, lams[1].size), (1.0 + gap) * len(folds))
            if len(calls) == 3:  # one call per sigma, from largest to smallest
                out[-1, -1] = len(folds)
            return out

        monkeypatch.setattr(ev, "_cv_mse", cv_mse)
        pick = ev.cross_validate(toy_dataset(2), space, seed=0)
        assert len(calls) == 3
        assert (pick.sigma, pick.lambda1, pick.lambda2) == expected, gap


def _lu_fold_mse(g_tt, g_vt, x_t, x_v, lams, n_train, n_val):
    """Reference scorer: one LU solve of the dual system per ridge-weight combination."""
    scores = np.empty(tuple(lam.size for lam in lams))
    for idx in np.ndindex(scores.shape):
        weights = [lam[i] for lam, i in zip(lams, idx)]
        M = sum(g / w for g, w in zip(g_tt, weights)) + n_train * np.eye(len(x_t))
        c = np.linalg.solve(M, x_t)
        pred = sum(g @ c / w for g, w in zip(g_vt, weights))
        scores[idx] = np.sum((pred - x_v) ** 2) / n_val
    return scores


def _lu_cv_mse(grams, targets, folds, lams):
    """`_lu_fold_mse` summed over the folds, each refitted on Gram blocks sliced from the full Gram."""
    n = targets.shape[1]
    total = 0.0
    for train, val in folds:
        rt, rv = ((idx[:, None] * n + np.arange(n)).reshape(-1) for idx in (train, val))
        total = total + _lu_fold_mse([g[np.ix_(rt, rt)] for g in grams], [g[np.ix_(rv, rt)] for g in grams],
                                     targets[train].reshape(-1), targets[val].reshape(-1),
                                     lams, len(train), len(val))
    return total


@pytest.mark.parametrize("maps", [1, 2])
def test_fold_mse_matches_lu_reference(maps):
    # random PSD Grams G = Phi^T Phi with a spread of feature scales, over the
    # default 17-value ridge grids; N = 24 splits into folds of 5, 5, 5, 5 and 4
    # samples, so both training sizes, 19 and 20, are scored
    rng = np.random.default_rng(maps)
    lams = [np.sort(ev.default_search_space().lambda1s)[::-1]] * maps
    folds = ev.fold_indices(24, 5, seed=maps)
    assert sorted({len(train) for train, _ in folds}) == [19, 20]
    grams = []
    for _ in range(maps):
        phi = rng.normal(size=(200, 48)) * np.logspace(0.0, -6.0, 200)[:, None]
        grams.append(phi.T @ phi)
    targets = rng.normal(size=(24, 2))
    got = ev._cv_mse(grams, targets, folds, lams)
    assert got.shape == (17,) * maps
    assert_allclose(got, _lu_cv_mse(grams, targets, folds, lams), rtol=1e-6)


@st.composite
def cv_problems(draw):
    """Grams, targets, folds and ridge grids of one or two maps on a few random samples."""
    maps, n_samples, dim = draw(st.integers(1, 2)), draw(st.integers(2, 9)), draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    phis = [draw(arrays(np.float64, (draw(st.integers(1, 12)), n_samples * dim), elements=unit))
            for _ in range(maps)]
    targets = draw(arrays(np.float64, (n_samples, dim), elements=unit))
    folds = ev.fold_indices(n_samples, draw(st.integers(2, n_samples)), draw(st.integers(0, 2**32 - 1)))
    lams = [10.0 ** np.array(draw(st.lists(st.floats(-4.0, 1.0), min_size=1, max_size=3)))
            for _ in range(maps)]
    return [phi.T @ phi for phi in phis], targets, folds, lams


@settings(deadline=None, max_examples=60)
@given(cv_problems())
def test_fold_mse_matches_lu_reference_on_random_problems(problem):
    grams, targets, folds, lams = problem
    want = _lu_cv_mse(grams, targets, folds, lams)
    got = ev._cv_mse(grams, targets, folds, lams)
    assert got.shape == want.shape
    assert_allclose(got, want, rtol=1e-7, atol=1e-10 * np.sum(targets**2))


def test_cross_validate_peak_memory():
    """One pendulum Helmholtz search allocates at most 1.75 MiB at its peak.

    The scorer peaks at 1.13 MiB here, and the per-fold scorer it replaced at
    1.02 MiB.  The bound keeps its temporaries from quietly growing toward the
    benchmark's peak-RSS bound: each `reproduce` worker runs one search at a time.
    """
    from helmrff import cli
    config = cli.parse_config(cli.bundled_config_path("pendulum"))
    dataset = cli.simulate_dataset(config, 0)
    space, seed = config.search_space(baseline=False), cli._seed_map(0)["cv_shuffle"]
    tracemalloc.start()
    try:
        ev.cross_validate(dataset, space, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_cross_validate_is_deterministic():
    ds = pendulum_dataset()
    space = ev.SearchSpace(sigmas=np.array([0.7, 1.5]),
                           lambda1s=np.array([1e-5, 1e-3]),
                           lambda2s=np.array([1e-5, 1e-3]), folds=4, d=48)
    assert ev.cross_validate(ds, space, seed=9) == ev.cross_validate(ds, space, seed=9)


def test_cross_validate_draws_each_map_once(monkeypatch):
    """A search draws each of its maps once, however many widths it scores: twice for the Helmholtz
    model, once for the baseline, each at unit width (the widths divide its weights)."""
    drawn = []
    sample_basis = ft.sample_basis
    monkeypatch.setattr(ft, "sample_basis", lambda *args: drawn.append(args) or sample_basis(*args))
    ds = pendulum_dataset()
    for lambda2s, kinds in ((np.array([1e-5, 1e-3]), [ft.ODD_CURL_FREE, ft.ODD_SYMPLECTIC]),
                            (None, [ft.GAUSSIAN_SEPARABLE])):
        drawn.clear()
        space = ev.SearchSpace(sigmas=np.logspace(-1.0, 1.0, 13), lambda1s=np.array([1e-5, 1e-3]),
                               lambda2s=lambda2s, folds=4, d=16)
        ev.cross_validate(ds, space, seed=9)
        assert [(kind, sigma) for kind, _, _, sigma, _ in drawn] == [(kind, 1.0) for kind in kinds]


def test_cross_validate_needs_enough_points():
    ds = toy_dataset(n=4)
    space = ev.SearchSpace(sigmas=np.array([1.0]), lambda1s=np.array([1e-3]),
                           lambda2s=None, folds=5, d=8)
    with pytest.raises(ValueError):
        ev.cross_validate(ds, space, seed=0)


def test_cross_validate_rejects_non_finite_scores():
    # a subnormal ridge weight passes the grid checks, but its scores are NaN
    ds = toy_dataset(4, n=12)
    tiny = np.array([1e-310, 1e-3])
    for lambda2s in (None, tiny):
        space = ev.SearchSpace(sigmas=np.array([0.7]), lambda1s=tiny, lambda2s=lambda2s,
                               folds=3, d=8)
        with pytest.raises(ValueError, match="sigma=0.7"):
            ev.cross_validate(ds, space, seed=0)


@st.composite
def cv_searches(draw):
    """A small random dataset of n = 2 or 4, a search space over 2-3 widths and ridge weights per axis with
    n dividing d (as the baseline's blocks need), and a seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_samples, n = draw(st.integers(6, 12)), draw(st.sampled_from([2, 4]))
    dataset = rg.Dataset(rng.uniform(-3.0, 3.0, size=(n_samples, n)), rng.normal(size=(n_samples, n)))
    grid = lambda lo, hi: np.array(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=3)))
    space = ev.SearchSpace(sigmas=grid(0.2, 5.0), lambda1s=grid(1e-4, 1.0),
                           lambda2s=grid(1e-4, 1.0) if draw(st.booleans()) else None,
                           folds=draw(st.integers(2, 5)), d=n * draw(st.integers(1, 40 // n)))
    return dataset, space, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=40)
@given(cv_searches())
def test_cross_validate_matches_explicit_fold_fits(search):
    """Every entry of the score surface is the mean held-out MSE of ridge refits on each fold's samples,
    with the bases drawn from the search's child seeds, and the pick has the lowest score up to ties."""
    dataset, space, seed = search
    scores, grids = ev._cv_scores(dataset, space, seed)
    assert scores.shape == tuple(grid.size for grid in grids)
    shuffle_seed, *map_seeds = ft.split_seed(seed, 3)
    folds = ev.fold_indices(len(dataset), space.folds, shuffle_seed)
    parts = [[rg.Dataset(dataset.states[part], dataset.derivatives[part]) for part in fold] for fold in folds]
    model = rg.BaselineModel if space.lambda2s is None else rg.HelmholtzModel
    for si, sigma in enumerate(grids[-1]):
        bases = [ft.sample_basis(kind, space.d, dataset.dim, sigma, map_seed)
                 for (_, _, kind, _), map_seed in zip(model.MAPS, map_seeds)]
        fits = [(tr, ft.factored_design(tr.states, *bases),
                 va, np.vstack([ft.feature_design(basis, va.states) for basis in bases])) for tr, va in parts]
        for idx in np.ndindex(scores.shape[:-1]):
            lam_diag = np.repeat([grid[i] for grid, i in zip(grids, idx)], space.d)
            total = 0.0
            for tr, design, va, held_out in fits:
                xi = rg.solve_ridge(design, tr.target_vector(), lam_diag, len(tr))
                total += np.mean(np.sum(((held_out.T @ xi).reshape(va.states.shape) - va.derivatives) ** 2, axis=1))
            assert_allclose(scores[idx + (si,)], total / space.folds, rtol=1e-8, err_msg=str(idx + (si,)))
    pick = ev.cross_validate(dataset, space, seed)
    picked = [pick.lambda1] + ([] if pick.lambda2 is None else [pick.lambda2]) + [pick.sigma]
    at = tuple(int(np.flatnonzero(grid == value)[0]) for grid, value in zip(grids, picked))
    assert scores[at] <= scores.min() * (1.0 + ev.CV_TIE_RTOL)


def test_rollout_trivia():
    class Zero:
        def predict(self, x):
            return np.zeros(2)

    tr = hr.integrate_rk4(Zero().predict, np.array([1.0, 2.0]), 0.1, 1.0)
    assert_array_equal(tr.states, np.tile([1.0, 2.0], (11, 1)))


def test_rollout_of_odd_model_negates_with_initial_condition():
    ds = pendulum_dataset()
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.5, 1e-4, 1e-4, d=64), seed=3)
    x0 = np.array([1.2, 0.3])
    fwd = hr.integrate_rk4(model.predict, x0, 0.05, 2.0)
    neg = hr.integrate_rk4(model.predict, -x0, 0.05, 2.0)
    assert_allclose(neg.states, -fwd.states, atol=1e-12)


def test_learned_pendulum_decays_like_the_true_system():
    from helmrff import cli
    config = cli.parse_config(cli.bundled_config_path("pendulum"))
    result = cli.run_protocol(config, master=0)
    x0 = np.array([np.pi / 2, 0.0])

    true_end = hr.integrate_rk4(config.make_system().field, x0, 0.01, 20.0).states[-1]
    assert np.linalg.norm(true_end) < 0.05

    end = hr.integrate_rk4(result["helmholtz"].predict, x0, 0.01, 20.0).states[-1]
    assert np.linalg.norm(end) < 0.2


def test_stream_grid_shapes_and_values():
    grid = ev.stream_grid(hr.mass_spring_damper(0.5, 1.0, 0.25).field,
                          bounds=((-1.0, 1.0), (-1.0, 1.0)), resolution=2)
    assert grid.shape == (4, 4)

    grid3 = ev.stream_grid(hr.mass_spring_damper(0.5, 1.0, 0.25).field,
                           bounds=((-1.0, 1.0), (-1.0, 1.0)), resolution=3)
    row = grid3[np.all(grid3[:, :2] == [1.0, 0.0], axis=1)][0]
    assert_allclose(row[2:], [0.0, -1.0], atol=1e-14)

    with pytest.raises(ValueError):
        ev.stream_grid(hr.mass_spring_damper().field, ((-1, 1), (-1, 1)), 1)


def test_stream_grid_of_odd_model_is_antisymmetric():
    ds = pendulum_dataset()
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=32), seed=8)
    grid = ev.stream_grid(model, bounds=((-2.0, 2.0), (-3.0, 3.0)), resolution=5)
    values = {tuple(row[:2]): row[2:] for row in grid}
    for (q, p), f in values.items():
        assert_allclose(values[(-q, -p)], -f, atol=1e-12)


# The grid path's feature block, shrunk so that budgets past two blocks stay cheap to check against
# predict at every resolution; the 2**17-entry block itself is checked at d = 20000 in test_regression.
GRID_BLOCK = 2**10


@st.composite
def grid_cases(draw):
    """Bounds anywhere (asymmetric, or away from the origin), a resolution, a width, and a budget d
    either small or past two feature blocks of GRID_BLOCK entries, so the last block of the Helmholtz
    maps and of each baseline output is partial."""
    resolution = draw(st.integers(2, 120))
    lows = draw(st.tuples(*[st.floats(-6.0, 5.0)] * 2))
    spans = draw(st.tuples(*[st.floats(0.01, 8.0)] * 2))
    step = max(1, GRID_BLOCK // (2 * resolution))
    d = draw(st.one_of(st.integers(1, 40), st.integers(2 * step + 1, 3 * step - 1)))
    sigma = draw(st.floats(0.2, 5.0))
    return tuple((lo, lo + span) for lo, span in zip(lows, spans)), resolution, sigma, d


@settings(deadline=None, max_examples=200)
@given(grid_cases(), st.integers(0, 2**32 - 1))
def test_stream_grid_of_feature_model_meets_predict(case, seed):
    bounds, resolution, sigma, d = case
    rng = np.random.default_rng(seed)
    basis_c, basis_s = (ft.sample_basis(kind, d, 2, sigma, seed + i)
                        for i, kind in enumerate((ft.ODD_CURL_FREE, ft.ODD_SYMPLECTIC)))
    d_gauss = d + d % 2
    models = (rg.HelmholtzModel(rng.normal(size=d), rng.normal(size=d), basis_c, basis_s,
                                rg.Hyperparameters(sigma, 1e-3, 1e-3, d=d)),
              rg.BaselineModel(rng.normal(size=d_gauss),
                               ft.sample_basis(ft.GAUSSIAN_SEPARABLE, d_gauss, 2, sigma, seed),
                               rg.Hyperparameters(sigma, 1e-3, None, d=d_gauss)))
    Q, P = np.meshgrid(*(np.linspace(lo, hi, resolution) for lo, hi in bounds), indexing="ij")
    points = np.column_stack([Q.reshape(-1), P.reshape(-1)])
    for model in models:
        with mock.patch.object(ft, "_BLOCK_ENTRIES", GRID_BLOCK):
            grid = ev.stream_grid(model, bounds, resolution)
        assert_array_equal(grid[:, :2], points)
        field = model.predict(points)
        assert_allclose(grid[:, 2:], field, rtol=0, atol=1e-12 * np.abs(field).max())


@pytest.mark.parametrize("bounds, resolution, name", [
    (((np.nan, 1.0), (-1.0, 1.0)), 5, "bounds"),
    (((-1.0, 1.0), (-np.inf, 1.0)), 5, "bounds"),
    (((1.0, -1.0), (-1.0, 1.0)), 5, "bounds"),
    (((-1.0, 1.0), (2.0, 2.0)), 5, "bounds"),
    (((-1.0, 1.0),), 5, "bounds"),
    (((-1.0, 1.0), (-1.0, 1.0)), 5.0, "resolution"),
    (((-1.0, 1.0), (-1.0, 1.0)), 2.5, "resolution"),
    (((-1.0, 1.0), (-1.0, 1.0)), "25", "resolution"),
    (((-1.0, 1.0), (-1.0, 1.0)), 1, "resolution"),
    (((-1.0, 1.0), (-1.0, 1.0)), 0, "resolution"),
])
def test_stream_grid_rejects_bad_bounds_and_resolution(bounds, resolution, name):
    """stream_grid, and also a feature model's predict_grid and each basis's grid_field called directly,
    raise grid_limits's error rather than divide by resolution - 1 = 0, step backwards, or step by nan."""
    ds = toy_dataset()
    models = (hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=8), seed=0),
              hr.fit_baseline(ds, rg.Hyperparameters(1.0, 1e-3, None, d=8), seed=0))
    calls = [lambda f=field: ev.stream_grid(f, bounds, resolution) for field in (hr.mass_spring_damper().field, *models)]
    for model in models:
        calls.append(lambda m=model: m.predict_grid(bounds, resolution))
        calls += [lambda c=coef, b=basis: b.grid_field(bounds, resolution, c) for coef, basis in model._parts()]
    for call in calls:
        with np.errstate(all="raise"), pytest.raises(ValueError, match=name):
            call()


def test_stream_grid_rejects_a_model_of_another_dimension():
    ds = rg.Dataset(np.random.default_rng(3).normal(size=(6, 4)), np.random.default_rng(4).normal(size=(6, 4)))
    points = np.zeros((4, 2))
    for model in (hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=8), seed=0),
                  hr.fit_baseline(ds, rg.Hyperparameters(1.0, 1e-3, None, d=8), seed=0)):
        with pytest.raises(ValueError) as from_predict:
            model.predict(points)
        with pytest.raises(ValueError, match="state dimension 2 does not match model dimension 4") as from_grid:
            ev.stream_grid(model, ((-1, 1), (-1, 1)), 2)
        assert str(from_grid.value) == str(from_predict.value)


def test_stream_grid_csv(tmp_path):
    grid = ev.stream_grid(hr.mass_spring_damper().field, ((-1, 1), (-1, 1)), 2)
    path = tmp_path / "grid.csv"
    ev.stream_grid_to_csv(grid, path, comments=["bounds: unit box"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# bounds: unit box"
    assert lines[1] == "q,p,qdot,pdot"
    assert len(lines) == 6


def test_evaluate_model_report():
    ds = pendulum_dataset()
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.5, 1e-4, 1e-4, d=64), seed=2)
    test = ev.make_test_set(hr.damped_pendulum(1.0, 1.0, 1.2, 9.81),
                            np.array([np.pi / 2, 0.0]), 0.1, 20.0)
    doc = ev.evaluate_model(model, ds, test, "pendulum", seed=2, notes={"check": "unit"})
    assert set(doc) == {"system", "model", "hyper", "d", "seed", "train_mse", "test_mse",
                        "train_residuals", "test_residuals", "notes"}
    assert doc["system"] == "pendulum"
    assert doc["model"] == "helmholtz"
    assert doc["seed"] == 2 and doc["notes"] == {"check": "unit"}
    assert doc["train_mse"] >= 0 and doc["test_mse"] >= 0
    assert len(doc["train_residuals"]) == len(ds)
    assert len(doc["test_residuals"]) == len(test)
    assert doc["d"] == 64
    assert doc["hyper"]["sigma"] == 1.5
    # the model names itself: a baseline reports "gaussian", with no name passed in
    base = hr.fit_baseline(ds, rg.Hyperparameters(1.5, 1e-4, d=64), seed=2)
    base_doc = ev.evaluate_model(base, ds, test, "pendulum", seed=2)
    assert set(base_doc) == set(doc)
    assert base_doc["model"] == "gaussian" and base_doc["notes"] == {}
    assert base_doc["hyper"] == {"sigma": 1.5, "lambda1": 1e-4, "lambda2": None, "d": 64}
