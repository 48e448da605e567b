"""Property tests for the batch contract of the system layer and the ridge solve.

Fields and energies accept one state (n,) or any batch (..., n), and RK4
steps a batch (B, n) of initial conditions together.  Batched results must
equal per-state evaluation bit for bit, so artifacts do not depend on how
states are grouped.  The ridge solve must give the least-squares minimizer
on either side of its primal/dual switch.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

import helmrff as hr
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
