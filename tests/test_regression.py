import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.linalg import lsqr

import helmrff as hr
from helmrff import evaluation as ev
from helmrff import features as ft
from helmrff import kernels as kn
from helmrff import regression as rg


def random_dataset(n_points, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rg.Dataset(scale * rng.normal(size=(n_points, 2)),
                      rng.normal(size=(n_points, 2)))


def msd_dataset(seed=2):
    system = hr.mass_spring_damper(0.5, 1.0, 0.25)
    ics = np.array([[1.0, 0.0], [2.25, 0.0], [3.5, 0.0]])
    return hr.generate_dataset(system, ics, 0.25, 1.0, hr.NoiseSpec(0.1, seed),
                               include_t0=True)


def pendulum_dataset(seed=2):
    system = hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)
    ics = np.array([[2 * np.pi / 5, 0.0], [4 * np.pi / 5, 0.0],
                    [19 * np.pi / 20, -4.0]])
    return hr.generate_dataset(system, ics, 0.1, 0.7, hr.NoiseSpec(0.01, seed),
                               include_t0=True)


# ---------------------------------------------------------------- datasets


def test_dataset_validation():
    with pytest.raises(ValueError):
        rg.Dataset(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        rg.Dataset(np.zeros((0, 2)), np.zeros((0, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = np.zeros((3, 2))
        poisoned[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            rg.Dataset(poisoned, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="finite"):
            rg.Dataset(np.zeros((3, 2)), poisoned)
    # states are an (N, n) array with N, n >= 1; a header-only CSV reads as np.array([])
    for states in (np.array([]), np.zeros((3, 0)), np.zeros(2)):
        with pytest.raises(ValueError, match="states"):
            rg.Dataset(states, states)
    zeros = np.zeros((3, 2))
    for times, ids, name in ((np.zeros(2), None, "times"), ([np.nan, 1, 2], None, "times must be a finite"),
                             (None, [0, 0], "traj_ids"),
                             (None, [0, 0.5, 1], "traj_ids"), (None, [[0, 0, 1]], "traj_ids")):
        with pytest.raises(ValueError, match=name):
            rg.Dataset(zeros, zeros, times, ids)
    # strings, bools and objects are refused, not converted to numbers
    for states in ([["1", "2"], ["3", "4e0"]], np.ones((2, 2), dtype=bool), [[1.0, None], [2.0, 3.0]],
                   [[True, 1.5], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="states must be a numeric"):
            rg.Dataset(states, np.zeros((2, 2)))
    listed = rg.Dataset(zeros.tolist(), zeros.tolist(), [0, 1, 2], [0, 0, 1])
    assert listed.times.dtype == float and listed.traj_ids.dtype.kind == "i"
    ds = random_dataset(5, 0)
    # target vector interleaves the coordinates point by point
    assert_array_equal(ds.target_vector(), ds.derivatives.reshape(-1))


def test_models_check_that_their_parts_fit():
    ds = random_dataset(6, 3)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=8), seed=0)
    base = hr.fit_baseline(ds, rg.Hyperparameters(1.0, 1e-3, None, d=8), seed=0)
    for change, message in (({"alpha": model.alpha[:-3]}, "alpha"),
                            ({"beta": np.r_[model.beta[:-1], np.nan]}, "beta"),
                            ({"basis_c": model.basis_s}, "basis_c.kind"),
                            ({"basis_s": model.basis_c}, "basis_s.kind"),
                            ({"hyper": replace(model.hyper, d=7)}, "basis_c.d"),
                            ({"hyper": replace(model.hyper, sigma=2.0)}, "basis_c.sigma"),
                            ({"hyper": replace(model.hyper, lambda2=None)}, "lambda2"),
                            ({"basis_s": ft.sample_basis(ft.ODD_SYMPLECTIC, 8, 4, 1.0, 0)}, "basis_s.n")):
        with pytest.raises(ValueError, match=message):
            replace(model, **change)
    with pytest.raises(ValueError, match="basis.kind"):
        replace(base, basis=ft.sample_basis(ft.ODD_CURL_FREE, 8, 2, 1.0, 0))
    with pytest.raises(ValueError, match="alpha"):
        replace(base, alpha=base.alpha[:4])


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        rg.Hyperparameters(sigma=-1.0, lambda1=1e-3, lambda2=1e-3)
    with pytest.raises(ValueError):
        rg.Hyperparameters(sigma=1.0, lambda1=0.0, lambda2=1e-3)
    with pytest.raises(ValueError):
        rg.Hyperparameters(sigma=1.0, lambda1=1e-3, lambda2=-1e-3)
    with pytest.raises(ValueError):
        rg.Hyperparameters(sigma=1.0, lambda1=1e-3, lambda2=1e-3, d=0)
    # a fractional or boolean budget is refused, not truncated to d = 200 or read as d = 1
    for d in (200.7, 200.0, True):
        with pytest.raises(ValueError, match="d must be an integer"):
            rg.Hyperparameters(sigma=1.0, lambda1=1e-3, lambda2=1e-3, d=d)
    assert type(rg.Hyperparameters(1.0, 1e-3, None, d=np.int64(8)).d) is int
    # a bool is not read as 1, nor a string as its number; an int past the float range is a ValueError
    for bad in (np.inf, np.nan, True, "1.0", 10**400):
        with pytest.raises(ValueError, match="sigma"):
            rg.Hyperparameters(sigma=bad, lambda1=1e-3, lambda2=1e-3)
        with pytest.raises(ValueError, match="lambda1"):
            rg.Hyperparameters(sigma=1.0, lambda1=bad, lambda2=None)
        with pytest.raises(ValueError, match="lambda2"):
            rg.Hyperparameters(sigma=1.0, lambda1=1e-3, lambda2=bad)


# ----------------------------------------------------------- design matrix


def test_factored_design_shape_is_the_summed_budget_by_n_times_N():
    ds = random_dataset(1, 1)
    bc = ft.sample_basis(ft.ODD_CURL_FREE, 3, 2, 1.0, seed=0)
    bs = ft.sample_basis(ft.ODD_SYMPLECTIC, 3, 2, 1.0, seed=1)
    assert ft.factored_design(ds.states, bc, bs).shape == (6, 2)


def test_odd_feature_designs_vanish_at_the_origin():
    ds = rg.Dataset(np.zeros((4, 2)), np.ones((4, 2)))
    bc = ft.sample_basis(ft.ODD_CURL_FREE, 5, 2, 1.0, seed=0)
    bs = ft.sample_basis(ft.ODD_SYMPLECTIC, 5, 2, 1.0, seed=1)
    assert_array_equal(np.vstack([ft.feature_design(basis, ds.states) for basis in (bc, bs)]), np.zeros((10, 8)))


def test_factored_design_stacks_each_basis_at_its_own_offset_bit_for_bit():
    """The values and rows of bases stacked by factored_design are those of each basis alone, stacked, so
    their products are vstack of the bases' feature designs; those hold signed zeros, -0.0 as well as +0.0."""
    rng = np.random.default_rng(21)
    states = rng.normal(size=(5, 2))
    states[1] = 0.0  # sin(0) = +0.0 and cos(b) at the origin
    states[3] = [-0.0, 0.75]
    ds = rg.Dataset(states, np.zeros_like(states))
    bases = []
    for i, kind in enumerate(ft.KINDS):
        basis = ft.sample_basis(kind, 6, 2, 0.8, seed=i)
        weights = basis.weights.copy()
        weights[0] = 0.0     # a feature that is 0 at every state
        weights[1, 0] = 0.0  # an exactly-zero weight: a zero row entry, whose products are signed zeros
        bases.append(ft.FeatureBasis(kind, weights, basis.sigma, basis.seed, basis.phases))
    zeros = ft.feature_design(bases[0], ds.states)[:, 2:4]  # the origin's columns
    assert np.signbit(zeros).any() and (zeros == 0).all()    # hold -0.0 as well as +0.0
    for stack in (bases, bases[:2], bases[2:], bases[::-1]):
        design = ft.factored_design(ds.states, *stack)
        alone = [ft.factored_design(ds.states, basis) for basis in stack]
        for factor in ("values", "rows"):
            reference = np.vstack([getattr(one, factor) for one in alone])
            assert getattr(design, factor).tobytes() == reference.tobytes()


def random_factors(rng, d, N, n):
    """A factored design of d features at N states of dimension n, with values of about unit column norm."""
    return ft.FactoredDesign(rng.normal(size=(d, N)) / np.sqrt(d), rng.normal(size=(d, n)))


def dual_reference(design, targets, lam_diag, n_samples):
    """The dual solve with the whole weighted dense design formed at once."""
    lam_min = lam_diag.min()
    weighted = (lam_min / lam_diag)[:, None] * design
    A = design.T @ weighted
    A[np.diag_indices_from(A)] += n_samples * lam_min
    return weighted @ rg._checked_solve(A, 0.0, targets)


def test_blocked_dual_solve_matches_the_whole_design_solve():
    """The dual solve from the factors, over one or several blocks of values, agrees to rounding with
    the dual solve of the dense design."""
    rng = np.random.default_rng(22)
    for d, N, n in ((400, 24, 2), (ft._BLOCK_ENTRIES // 24, 24, 2), (6000, 24, 2), (40000, 6, 2), (3000, 8, 4)):
        design = random_factors(rng, d, N, n)
        targets = rng.normal(size=n * N)
        lam_diag = np.where(np.arange(d) < d // 2, 1e-3, 1e-7)
        xi = rg.solve_ridge(design, targets, lam_diag, N)
        # D column by column, as D e_k (see test_properties::test_solve_ridge_matches_stacked_least_squares)
        dense = np.column_stack([design.dot(e) for e in np.eye(n * N)])
        reference = dual_reference(dense, targets, lam_diag, N)
        assert_allclose(xi, reference, rtol=0, atol=1e-12 * np.abs(reference).max())


def fit_peak_in_designs(fit, hyper):
    """The tracemalloc peak of one pendulum fit, in bytes of its dense (sum d, nN) design."""
    from helmrff import cli
    dataset = cli.simulate_dataset(cli.parse_config(cli.bundled_config_path("pendulum")), 0)
    design_bytes = (1 if hyper.lambda2 is None else 2) * hyper.d * dataset.states.size * 8
    tracemalloc.start()
    try:
        fit(dataset, hyper, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / design_bytes


def test_large_budget_fit_peaks_near_one_design():
    """A d = 20000 pendulum fit allocates at most 0.75 designs at its peak: it holds the design's
    scalar values, half a design at n = 2, never the design.  It peaks at 0.67 designs here; forming
    the design peaked at 1.34, and copying each map's design and weighting a copy of their stack at 2.09."""
    peak = fit_peak_in_designs(hr.fit_helmholtz, rg.Hyperparameters(1.0, 1e-4, 1e-4, d=20000))
    assert peak <= 0.75, f"peak {peak:.2f} designs"


def test_large_budget_baseline_fit_peaks_near_one_design():
    """The same bound for the baseline, whose Gram skips the blocks of outputs no feature shares.  It peaks
    at 0.73 designs here: its design is half the Helmholtz one, so the fixed temporaries weigh twice as much."""
    peak = fit_peak_in_designs(hr.fit_baseline, rg.Hyperparameters(1.0, 1e-4, None, d=20000))
    assert peak <= 0.75, f"peak {peak:.2f} designs"


def test_factored_gram_block_sums_the_feature_products_of_both_maps():
    ds = random_dataset(4, 7)
    bc = ft.sample_basis(ft.ODD_CURL_FREE, 6, 2, 0.9, seed=0)
    bs = ft.sample_basis(ft.ODD_SYMPLECTIC, 6, 2, 0.9, seed=1)
    gram = ft.factored_design(ds.states, bc, bs).gram(np.ones(12))
    i = 2
    block = gram[2 * i:2 * i + 2, 2 * i:2 * i + 2]
    psi_c = ft.feature_design(bc, ds.states[i])
    psi_s = ft.feature_design(bs, ds.states[i])
    assert_allclose(block, psi_c.T @ psi_c + psi_s.T @ psi_s, atol=1e-14)


# ------------------------------------------------------------------- fits


def test_huge_ridge_shrinks_coefficients():
    ds = random_dataset(8, 3)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e6, 1e6, d=32), seed=0)
    bound = 1e-3 * np.linalg.norm(ds.target_vector())
    assert np.linalg.norm(model.alpha) <= bound
    assert np.linalg.norm(model.beta) <= bound
    base = hr.fit_baseline(ds, rg.Hyperparameters(1.0, 1e6, None, d=32), seed=0)
    assert np.linalg.norm(base.alpha) <= bound


def test_zero_targets_give_zero_coefficients():
    rng = np.random.default_rng(4)
    ds = rg.Dataset(rng.normal(size=(6, 2)), np.zeros((6, 2)))
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=16), seed=1)
    assert_allclose(model.alpha, 0.0, atol=1e-12)
    assert_allclose(model.beta, 0.0, atol=1e-12)


def test_fit_is_deterministic():
    ds = random_dataset(10, 5)
    hyp = rg.Hyperparameters(0.8, 1e-4, 1e-5, d=40)
    a = hr.fit_helmholtz(ds, hyp, seed=3)
    b = hr.fit_helmholtz(ds, hyp, seed=3)
    assert_array_equal(a.alpha, b.alpha)
    assert_array_equal(a.beta, b.beta)
    c = hr.fit_helmholtz(ds, hyp, seed=4)
    assert not np.array_equal(a.alpha, c.alpha)


def test_normal_equation_residual_postcondition():
    # small ridge weights from the search grid stress the solver
    ds = msd_dataset()
    hyp = rg.Hyperparameters(3.0, 1e-8, 1e-8, d=200)
    model = hr.fit_helmholtz(ds, hyp, seed=11)
    Phi = np.vstack([ft.feature_design(basis, ds.states) for basis in (model.basis_c, model.basis_s)])
    lam = np.concatenate([np.full(200, hyp.lambda1), np.full(200, hyp.lambda2)])
    xi = np.concatenate([model.alpha, model.beta])
    rhs = Phi @ ds.target_vector()
    resid = Phi @ (Phi.T @ xi) + len(ds) * lam * xi - rhs
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rhs)


def test_closed_form_matches_iterative_solver():
    """Krylov least squares on the equivalent augmented system."""
    ds = random_dataset(10, 4)
    hyp = rg.Hyperparameters(1.0, 1e-2, 3e-3, d=64)
    model = hr.fit_helmholtz(ds, hyp, seed=6)
    xi = np.concatenate([model.alpha, model.beta])

    Phi = np.vstack([ft.feature_design(basis, ds.states) for basis in (model.basis_c, model.basis_s)])
    lam = np.concatenate([np.full(64, hyp.lambda1), np.full(64, hyp.lambda2)])
    A = np.vstack([Phi.T, np.diag(np.sqrt(len(ds) * lam))])
    b = np.concatenate([ds.target_vector(), np.zeros(128)])
    xi_iter = lsqr(A, b, atol=1e-14, btol=1e-14, iter_lim=200000)[0]
    assert np.linalg.norm(xi - xi_iter) <= 1e-4 * np.linalg.norm(xi_iter)


def test_baseline_matches_gradient_descent():
    ds = random_dataset(6, 8)
    hyp = rg.Hyperparameters(1.0, 1e-1, None, d=16)
    model = hr.fit_baseline(ds, hyp, seed=8)

    Phi = ft.feature_design(model.basis, ds.states)
    G = Phi @ Phi.T + len(ds) * hyp.lambda1 * np.eye(16)
    target = Phi @ ds.target_vector()
    alpha = np.zeros(16)
    step = 1.0 / np.linalg.eigvalsh(G).max()
    for _ in range(5000):
        alpha -= step * (G @ alpha - target)
    assert np.linalg.norm(alpha - model.alpha) <= 1e-4 * np.linalg.norm(model.alpha)


def test_non_finite_design_raises_naming_the_residual():
    """An inf entry leaves a NaN residual in both forms, which must not pass the check."""
    rng = np.random.default_rng(12)
    for d, N in ((4, 4), (8, 2)):
        design = random_factors(rng, d, N, 2)
        design.values[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="residual"):
            rg.solve_ridge(design, rng.normal(size=2 * N), np.full(d, 1e-3), N)


def test_tiny_ridge_weights_on_the_dual_side():
    """The smallest ridge weight the config accepts neither overflows nor loses the fit."""
    ds = random_dataset(6, 10)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-300, 1e-300, d=2000), seed=5)
    assert np.all(np.isfinite(model.alpha)) and np.all(np.isfinite(model.beta))
    # a vanishing ridge interpolates the training derivatives
    assert_allclose(model.predict(ds.states), ds.derivatives, rtol=0, atol=1e-6)


def test_repeated_state_fit_passes_the_backward_error_check():
    """Six samples at one state make the dual system nearly singular: the unscaled
    relative residual is 1.6e-8, yet the solve is backward stable and must be accepted."""
    derivatives = np.array([[-1.2, -0.5], [-2.8, -2.3], [1.0, 0.9], [0.7, -0.7], [3.0, 2.9], [1.1, 0.9]])
    ds = rg.Dataset(np.full((6, 2), -1.25), derivatives)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(0.298, 10**-7.92, 10**-3.91, d=14), seed=27)
    assert np.all(np.isfinite(model.alpha)) and np.all(np.isfinite(model.beta))


def test_gepp_growth_fails_the_backward_error_check():
    """Wilkinson's matrix, 1 on the diagonal, -1 below it and 1 in the last column, makes partial pivoting's
    element growth 2^(n-1).  At n = 46 the solve's normwise backward error lies between the check's 1e-8 and
    1e-3, so the check must refuse it, and a tolerance loosened to 1e-3 would not."""
    n = 46
    A = np.eye(n) - np.tril(np.ones((n, n)), -1)
    A[:, -1] = 1.0
    b = np.random.default_rng(0).standard_normal(n)
    x = np.linalg.solve(A, b)
    rel = np.linalg.norm(b - A @ x) / (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
    assert 1e-8 < rel < 1e-3, rel
    with pytest.raises(RuntimeError, match="residual"):
        rg._checked_solve(A.copy(), 0.0, b)


# ------------------------------------------------------ model predictions


def test_predict_trivia():
    ds = random_dataset(5, 11)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=16), seed=0)
    zero = rg.HelmholtzModel(alpha=np.zeros(16), beta=np.zeros(16),
                             basis_c=model.basis_c, basis_s=model.basis_s,
                             hyper=model.hyper)
    assert_array_equal(zero.predict(np.array([0.4, 0.2])), np.zeros(2))
    # odd feature maps force a fixed point at the origin
    assert_array_equal(model.predict(np.zeros(2)), np.zeros(2))
    x = np.array([0.9, -0.3])
    fs, fd = model.decompose(x)
    assert_allclose(fs + fd, model.predict(x), atol=1e-15)


def test_predict_is_odd():
    ds = random_dataset(8, 12)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(0.9, 1e-4, 1e-4, d=64), seed=1)
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, size=(50, 2))
    assert np.abs(model.predict(-X) + model.predict(X)).max() <= 1e-12


def test_large_budget_predict_is_evaluated_in_bounded_blocks():
    """At d = 20000 the 625-point figure grid would need a 100 MB (states, features) array."""
    d = 20000
    basis_c = ft.sample_basis(ft.ODD_CURL_FREE, d, 2, 1.0, 1)
    basis_s = ft.sample_basis(ft.ODD_SYMPLECTIC, d, 2, 1.0, 2)
    rng = np.random.default_rng(15)
    helmholtz = rg.HelmholtzModel(alpha=rng.normal(size=d), beta=rng.normal(size=d), basis_c=basis_c,
                                  basis_s=basis_s, hyper=rg.Hyperparameters(1.0, 1e-3, 1e-3, d=d))
    baseline = rg.BaselineModel(alpha=rng.normal(size=d),
                                basis=ft.sample_basis(ft.GAUSSIAN_SEPARABLE, d, 2, 1.0, 3),
                                hyper=rg.Hyperparameters(1.0, 1e-3, None, d=d))
    Q, P = np.meshgrid(np.linspace(-4, 4, 25), np.linspace(-4, 4, 25), indexing="ij")
    grid = np.column_stack([Q.ravel(), P.ravel()])
    for model in (helmholtz, baseline):
        fields = []
        for evaluate in (lambda: model.predict(grid), lambda: ev.stream_grid(model, ((-4, 4), (-4, 4)), 25)):
            tracemalloc.start()
            try:
                fields.append(evaluate())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20, f"{type(model).__name__}: peak {peak / 2**20:.1f} MiB"
        field, streamed = fields
        # blocks split the states only, so each state's value is the one-state value
        for i in (0, 5, 6, 624):
            assert_allclose(field[i], model.predict(grid[i]), rtol=1e-12, atol=1e-12)
        # the separable grid path meets predict at the grid points to rounding
        assert_array_equal(streamed[:, :2], grid)
        assert_allclose(streamed[:, 2:], field, rtol=0, atol=1e-12 * np.abs(field).max())
    energy = helmholtz.hamiltonian(grid)
    for i in (0, 5, 6, 624):
        assert_allclose(energy[i], helmholtz.hamiltonian(grid[i]), rtol=1e-12, atol=1e-12)


def test_predict_dimension_mismatch():
    ds = random_dataset(4, 14)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=8), seed=0)
    with pytest.raises(ValueError):
        model.predict(np.zeros(3))


def test_predict_refuses_a_bool_among_numbers():
    """A model checks the raw states before it reshapes them, so a list that mixes bools with numbers is refused."""
    model = hr.fit_helmholtz(random_dataset(4, 14), rg.Hyperparameters(1.0, 1e-3, 1e-3, d=8), seed=0)
    for states in ([True, 1.5], [[0.5, 1.0], [np.bool_(False), 1.5]]):
        for method in (model.predict, model.hamiltonian):
            with pytest.raises(ValueError, match=f"{method.__name__} states must be a numeric .* got a bool element"):
                method(states)


def test_decompose_parts():
    ds = random_dataset(8, 15)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.1, 1e-3, 1e-3, d=32), seed=2)
    x = np.array([0.5, -0.8])

    no_sym = rg.HelmholtzModel(alpha=model.alpha, beta=np.zeros(32),
                               basis_c=model.basis_c, basis_s=model.basis_s,
                               hyper=model.hyper)
    assert_array_equal(no_sym.decompose(x)[0], np.zeros(2))

    fs, fd = model.decompose(x)
    fs_neg, fd_neg = model.decompose(-x)
    assert_allclose(fs_neg, -fs, atol=1e-15)
    assert_allclose(fd_neg, -fd, atol=1e-15)


def fd_gradient(f, x, step):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def test_potentials_generate_the_two_parts():
    ds = msd_dataset()
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(2.0, 1e-4, 1e-4, d=100), seed=3)
    J = hr.symplectic_matrix(1)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-2, 2, size=(5, 2)):
        step = 1e-4 * max(1.0, np.linalg.norm(x))
        fs, fd = model.decompose(x)
        grad_phi = fd_gradient(model.dissipation_potential, x, step)
        assert_allclose(grad_phi, fd, atol=1e-4)
        grad_h = fd_gradient(model.hamiltonian, x, step)
        assert_allclose(J @ grad_h, fs, atol=1e-4)
        # closed-form gradient agrees with the finite differences
        assert_allclose(model.hamiltonian_gradient(x), grad_h, atol=1e-4)


def test_hamiltonian_estimate_properties():
    ds = random_dataset(6, 16)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-3, d=24), seed=4)
    x = np.array([0.7, 0.2])
    assert_allclose(model.hamiltonian(-x), model.hamiltonian(x), atol=1e-15)
    assert_allclose(model.dissipation_potential(-x),
                    model.dissipation_potential(x), atol=1e-15)

    flat = rg.HelmholtzModel(alpha=model.alpha, beta=np.zeros(24),
                             basis_c=model.basis_c, basis_s=model.basis_s,
                             hyper=model.hyper)
    vals = flat.hamiltonian(np.random.default_rng(0).normal(size=(10, 2)))
    assert np.ptp(vals) <= 1e-15


def test_symplectic_rollout_conserves_estimated_hamiltonian():
    ds = msd_dataset()
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(2.0, 1e-4, 1e-4, d=100), seed=9)

    tr = hr.integrate_rk4(model.symplectic_part, np.array([1.0, 0.5]), 0.01, 10.0)
    H = model.hamiltonian(tr.states)
    assert np.abs(H - H[0]).max() <= 1e-3


def test_energy_orthogonality_closed_form():
    ds = pendulum_dataset()
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.5, 1e-4, 1e-4, d=200), seed=6)
    X = np.random.default_rng(5).uniform(-3, 3, size=(50, 2))
    fs = model.decompose(X)[0]
    dots = np.sum(model.hamiltonian_gradient(X) * fs, axis=1)
    assert np.abs(dots).max() <= 1e-10


# ------------------------------------------------------ exact-kernel fits


def test_exact_kernel_large_ridge_limit():
    ds = random_dataset(5, 17)
    lam = 1e8
    model = hr.fit_exact_kernel(ds, "helmholtz", sigma=1.0, lam=lam)
    expected = ds.derivatives / (len(ds) * lam)
    assert_allclose(model.coefficients, expected, rtol=1e-3)


def test_exact_kernel_single_point_solve():
    # with one anchor and a kernel value c I, the block system is scalar
    x = np.array([0.3, -0.4])
    xdot = np.array([1.0, 2.0])
    ds = rg.Dataset(x[None, :], xdot[None, :])
    sigma, lam = 0.9, 1e-2
    model = hr.fit_exact_kernel(ds, "curl-free", sigma=sigma, lam=lam)
    c = 1.0 / sigma**2  # curl-free kernel at zero displacement
    assert_allclose(model.coefficients[0], xdot / (c + lam), atol=1e-12)
    assert_allclose(model.predict(x), c * xdot / (c + lam), atol=1e-12)


def test_exact_kernel_guard():
    ds = random_dataset(201, 18)
    with pytest.raises(ValueError):
        hr.fit_exact_kernel(ds, "helmholtz", sigma=1.0, lam=1e-3)


def test_exact_kernel_refuses_a_ridge_weight_without_a_finite_solve():
    """The first two once returned a model whose coefficients and predictions were all NaN,
    and an infinite width one that predicted exactly 0 everywhere."""
    ds = random_dataset(4, 20)
    with pytest.raises(ValueError, match="lambda"):
        hr.fit_exact_kernel(ds, "helmholtz", sigma=1.0, lam=np.inf)
    with pytest.raises(ValueError, match="lambda"):
        hr.fit_exact_kernel(ds, "helmholtz", sigma=1.0, lam=np.nan)
    with pytest.raises(ValueError, match="kernel width"):
        hr.fit_exact_kernel(ds, "helmholtz", sigma=np.inf, lam=1e-2)
    # finite, but N lambda overflows, so the system holds inf and NaN
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="residual"):
        hr.fit_exact_kernel(ds, "helmholtz", sigma=1.0, lam=1e308)


def test_exact_kernel_model_checks_its_parts():
    model = hr.fit_exact_kernel(random_dataset(4, 21), "helmholtz", sigma=1.0, lam=1e-2)
    for change, message in (({"coefficients": model.coefficients[:3]}, "coefficients"),
                            ({"anchors": model.anchors[:, :1]}, "coefficients"),
                            ({"coefficients": model.coefficients.reshape(-1)}, "coefficients"),
                            ({"anchors": np.r_[model.anchors[:-1], [[np.inf, 0.0]]]}, "finite"),
                            ({"coefficients": np.full_like(model.coefficients, np.nan)}, "finite"),
                            ({"kind": "gaussian"}, "unknown kernel kind"),
                            ({"sigma": np.inf}, "kernel width"),
                            ({"sigma": 0.0}, "kernel width")):
        with pytest.raises(ValueError, match=message):
            replace(model, **change)
    odd = np.ones((2, 3))
    with pytest.raises(ValueError, match="even state dimension"):
        rg.ExactKernelModel(odd, odd, "odd-symplectic", 1.0)
    assert_array_equal(rg.ExactKernelModel(odd, odd, "odd-curl-free", 1.0).predict(odd),
                       rg.ExactKernelModel(odd.tolist(), odd.tolist(), "odd-curl-free", 1).predict(odd))


def test_exact_kernel_solves_the_block_system():
    # predictions at the anchors satisfy K a + N lam a = xdot
    ds = random_dataset(6, 19)
    lam = 1e-3
    model = hr.fit_exact_kernel(ds, "helmholtz", sigma=1.5, lam=lam)
    lhs = model.predict(ds.states) + len(ds) * lam * model.coefficients
    assert_allclose(lhs, ds.derivatives, atol=1e-10)


def test_exact_kernel_predict_is_evaluated_in_bounded_blocks():
    """5,000 states against 200 anchors peaked at 145 MiB when predict formed the (B, N, n, n) kernel blocks of
    the whole batch.  A block of states now holds at most _BLOCK_ENTRIES kernel entries, kernel_blocks keeps at
    most six arrays of that size alive at once (it peaks near five), and the blocks' fields and their
    concatenation add two (B, n) arrays."""
    rng = np.random.default_rng(22)
    anchors = rng.normal(size=(200, 2))
    model = rg.ExactKernelModel(rng.normal(size=(200, 2)), anchors, "helmholtz", 1.0)
    X = rng.normal(size=(5000, 2))
    tracemalloc.start()
    try:
        field = model.predict(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 6 * 8 * ft._BLOCK_ENTRIES + 2 * X.nbytes
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"
    # blocks split the states only, so the field is the one-batch field to the bit
    batch = np.einsum("bnij,nj->bi", kn.kernel_blocks("helmholtz", X[:400], anchors, 1.0), model.coefficients)
    assert_array_equal(field[:400], batch)


# ---------------------------------------------------------- serialization


def test_model_json_round_trip():
    ds = random_dataset(6, 20)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(1.0, 1e-3, 1e-4, d=20), seed=7)
    doc = json.loads(json.dumps(model.to_json()))
    back = rg.HelmholtzModel.from_json(doc)
    X = np.random.default_rng(3).normal(size=(10, 2))
    assert np.abs(back.predict(X) - model.predict(X)).max() <= 1e-15

    base = hr.fit_baseline(ds, rg.Hyperparameters(1.0, 1e-3, None, d=20), seed=7)
    bdoc = json.loads(json.dumps(base.to_json()))
    bback = rg.BaselineModel.from_json(bdoc)
    assert np.abs(bback.predict(X) - base.predict(X)).max() <= 1e-15
    # a baseline may omit hyper.lambda2, whose only valid value is null
    del bdoc["hyper"]["lambda2"]
    assert rg.BaselineModel.from_json(bdoc).to_json() == base.to_json()


# ------------------------------------------------- benchmark-level anchors


def test_pendulum_training_error_is_small():
    """CV-tuned fit on the bundled pendulum protocol trains to ~1e-3 MSE."""
    from helmrff import cli
    config = cli.parse_config(cli.bundled_config_path("pendulum"))
    result = cli.run_protocol(config, master=0)
    assert result["report_helmholtz"]["train_mse"] <= 0.007


def test_msd_baseline_training_error_has_expected_scale():
    from helmrff import cli
    config = cli.parse_config(cli.bundled_config_path("msd"))
    result = cli.run_protocol(config, master=0)
    assert 0.00496 <= result["report_gaussian"]["train_mse"] <= 0.496
