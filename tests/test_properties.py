"""Property tests for the batch contract of the system layer, the ridge
solve, and the structure of the kernels and fitted models.

Fields and energies accept one state (n,) or any batch (..., n), and RK4
steps a batch (B, n) of initial conditions together.  Batched results must
equal per-state evaluation bit for bit, so artifacts do not depend on how
states are grouped.  A fitted model's field is its design contracted with
its coefficients, whatever the block size.  The ridge solve must give the
least-squares minimizer on either side of its primal/dual switch.  Oddness,
evenness and symmetry hold exactly, not to a tolerance: each follows from
IEEE negation and commutativity, and the fitted models inherit them from sin
and cos.
"""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

import helmrff as hr
from helmrff import features as ft
from helmrff import kernels as kn
from helmrff import regression as rg

SYSTEMS = {"msd": hr.mass_spring_damper(0.5, 1.0, 0.25),
           "pendulum": hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)}

coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
batch_shapes = st.one_of(st.tuples(st.integers(1, 8), st.just(2)),
                         st.tuples(st.integers(1, 5), st.integers(1, 6), st.just(2)))
batches = batch_shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=coords))
initial_conditions = st.integers(1, 8).flatmap(
    lambda b: arrays(np.float64, (b, 2), elements=st.floats(-3.0, 3.0)))
systems = st.sampled_from(sorted(SYSTEMS))
properties = settings(deadline=None, max_examples=60)


def per_state(fn, X):
    out = np.array([fn(x) for x in X.reshape(-1, X.shape[-1])])
    return out.reshape(X.shape[:-1] + out.shape[1:])


@properties
@given(systems, batches)
# Energies written with `**2` failed here: a scalar `np.float64 ** 2` goes through
# `pow` and can round differently from the array square.
@example("msd", np.array([[6.21539061583826, -7.253990778484905]]))
@example("pendulum", np.array([[6.21539061583826, -7.253990778484905]]))
def test_batched_field_and_energy_equal_per_state_evaluation(name, X):
    system = SYSTEMS[name]
    field, energy = system.field(X), system.hamiltonian(X)
    assert field.shape == X.shape and energy.shape == X.shape[:-1]
    assert_array_equal(field, per_state(system.field, X))
    assert_array_equal(energy, per_state(system.hamiltonian, X))


@properties
@given(systems, batches)
def test_fields_are_exactly_odd(name, X):
    field = SYSTEMS[name].field
    assert_array_equal(field(-X), -field(X))


@properties
@given(systems, initial_conditions)
def test_batched_rk4_equals_single_runs(name, X0):
    field = SYSTEMS[name].field
    batch = hr.integrate_rk4(field, X0, 0.05, 0.5)
    assert batch.states.shape == (11,) + X0.shape
    for b, x0 in enumerate(X0):
        single = hr.integrate_rk4(field, x0, 0.05, 0.5)
        assert_array_equal(batch.times, single.times)
        assert_array_equal(batch.states[:, b], single.states)


# (coefficients D, targets nN): the primal side D < nN, the dual side D > nN,
# and the switch point D = nN, which solves the primal.
ridge_shapes = st.one_of(st.tuples(st.integers(1, 6), st.integers(7, 14)),
                         st.tuples(st.integers(7, 14), st.integers(1, 6)),
                         st.integers(1, 10).map(lambda k: (k, k)))
unit = st.floats(-1.0, 1.0)
ridge_problems = ridge_shapes.flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape, elements=unit),
    arrays(np.float64, shape[1], elements=unit),
    arrays(np.float64, shape[0], elements=st.floats(-3.0, 1.0)),
    st.integers(1, 4)))


@properties
@given(ridge_problems)
def test_solve_ridge_matches_stacked_least_squares(problem):
    design, targets, log_lam, n_samples = problem
    lam = 10.0 ** log_lam
    xi = rg.solve_ridge(design, targets, lam, n_samples)
    # (1/N)||design^T xi - targets||^2 + xi^T diag(lam) xi as one least-squares system
    stacked = np.vstack([design.T / np.sqrt(n_samples), np.diag(np.sqrt(lam))])
    rhs = np.concatenate([targets / np.sqrt(n_samples), np.zeros(len(lam))])
    reference = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    # the objective at xi = 0 bounds ||xi|| by ||targets|| / sqrt(N lam_min)
    scale = np.linalg.norm(targets) / np.sqrt(n_samples * lam.min())
    assert np.linalg.norm(xi - reference) <= 1e-9 * scale


def point_sets(max_points):
    return st.integers(1, max_points).flatmap(
        lambda m: arrays(np.float64, (m, 2), elements=st.floats(-5.0, 5.0)))


widths = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)
ODD_KINDS = ("odd-curl-free", "odd-symplectic", "helmholtz")


@properties
@given(st.sampled_from(ODD_KINDS), point_sets(5), point_sets(5), widths)
def test_odd_kernels_are_exactly_odd_in_each_argument(kind, X, Z, sigma):
    K = kn.kernel_blocks(kind, X, Z, sigma)
    assert_array_equal(kn.kernel_blocks(kind, -X, Z, sigma), -K)
    assert_array_equal(kn.kernel_blocks(kind, X, -Z, sigma), -K)


@properties
@given(st.sampled_from(("curl-free", "symplectic") + ODD_KINDS), point_sets(6), widths)
def test_gram_matrix_is_exactly_symmetric(kind, X, sigma):
    G = kn.gram_matrix(kind, X, sigma)
    assert G.shape == (2 * len(X), 2 * len(X))
    assert_array_equal(G, G.T)


# m features per output; a budget d = m n above 2**17 / 8 = 16,384 splits
# a batch of 8 states into several evaluation blocks.
feature_bases = st.builds(
    lambda kind, n, m, sigma, seed: ft.sample_basis(kind, m * n, n, sigma, seed),
    st.sampled_from(ft.KINDS), st.sampled_from((2, 4)),
    st.one_of(st.integers(1, 32), st.integers(2**12, 2**14)), widths, st.integers(0, 2**32 - 1))


@properties
@given(feature_bases, st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_model_field_is_the_design_contracted_with_the_coefficients(basis, B, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, size=(B, basis.n))
    coef = rng.normal(size=basis.d)
    hyper = rg.Hyperparameters(basis.sigma, 1.0, 1.0, basis.d)
    if basis.kind == ft.GAUSSIAN_SEPARABLE:
        field = rg.BaselineModel(coef, basis, hyper).predict
    else:
        model = rg.HelmholtzModel(coef, coef, basis, basis, hyper)
        field = model.dissipative_part if basis.kind == ft.ODD_CURL_FREE else model.symplectic_part
    design = ft.feature_design(basis, X)
    expected = (design.T @ coef).reshape(B, basis.n)
    # Both sides sum the same d rounded products in different orders.
    bound = 2 * (basis.d + 2) * np.finfo(float).eps * (np.abs(design).T @ np.abs(coef)).reshape(B, basis.n)
    assert np.all(np.abs(field(X) - expected) <= bound)


fitted_models = st.builds(
    lambda data, sigma, log_lam, d, seed: rg.fit_helmholtz(
        rg.Dataset(data[:, :2], data[:, 2:]),
        rg.Hyperparameters(sigma, 10.0 ** log_lam[0], 10.0 ** log_lam[1], d), seed),
    st.integers(1, 6).flatmap(lambda N: arrays(np.float64, (N, 4), elements=st.floats(-3.0, 3.0))),
    widths,
    st.tuples(st.floats(-8.0, 0.0), st.floats(-8.0, 0.0)),
    st.integers(1, 24),
    st.integers(0, 2**32 - 1),
)


def closed_form_jacobians(model, x):
    """Jacobians of the (symplectic, dissipative) parts at one state x.

    Each part is sum_i coef_i sin(w_i . x) rows_i / sqrt(d), with rows_i = J w_i
    for the symplectic part and w_i for the dissipative one, so its Jacobian
    is sum_i coef_i cos(w_i . x) rows_i w_i^T / sqrt(d).
    """
    J = kn.symplectic_matrix(model.dim // 2)
    parts = ((model.basis_s, model.beta, model.basis_s.weights @ J.T),
             (model.basis_c, model.alpha, model.basis_c.weights))
    return [(rows * (coef * np.cos(basis.weights @ x) / np.sqrt(basis.d))[:, None]).T @ basis.weights
            for basis, coef, rows in parts]


@properties
@given(fitted_models, point_sets(8))
def test_fitted_helmholtz_model_structure(model, Q):
    assert_array_equal(model.predict(-Q), -model.predict(Q))
    assert_array_equal(model.hamiltonian(-Q), model.hamiltonian(Q))
    reloaded = rg.HelmholtzModel.from_json(json.loads(json.dumps(model.to_json())))
    assert_array_equal(reloaded.predict(Q), model.predict(Q))
    assert_array_equal(reloaded.hamiltonian(Q), model.hamiltonian(Q))

    # The symplectic part is divergence-free and the dissipative part is a gradient.
    # The sum of |terms| bounds both Jacobians and their rounding; the floor
    # covers subnormal coefficients, whose rounding is absolute.
    scale = max(np.sum(np.abs(c) * np.sum(b.weights**2, axis=1)) / np.sqrt(b.d)
                for b, c in ((model.basis_s, model.beta), (model.basis_c, model.alpha)))
    eps = 1e-6
    for x in Q:
        jac_s, jac_d = closed_form_jacobians(model, x)
        assert abs(np.trace(jac_s)) <= 1e-13 * scale + 1e-300
        assert np.max(np.abs(jac_d - jac_d.T)) <= 1e-13 * scale + 1e-300
        # the closed forms are the model's own Jacobians: central differences agree
        for part, jac in ((model.symplectic_part, jac_s), (model.dissipative_part, jac_d)):
            diff = np.column_stack([(part(x + eps * e) - part(x - eps * e)) / (2 * eps) for e in np.eye(2)])
            assert np.max(np.abs(diff - jac)) <= 1e-6 * (scale + np.max(np.abs(part(x)))) + 1e-300
