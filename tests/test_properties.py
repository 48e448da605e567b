"""Property tests for the batch contract of the system layer, the ridge
solve, and the structure of the kernels and fitted models.

Fields and energies accept one state (n,) or any batch (..., n), and RK4
steps a batch (B, n) of initial conditions together.  Batched results must
equal per-state evaluation bit for bit, so artifacts do not depend on how
states are grouped.  A fitted model's field is its design contracted with
its coefficients, whatever the block size.  The ridge solve of a factored design
must give the least-squares minimizer of its dense expansion on either side of
its primal/dual switch, and with
one ridge weight a Helmholtz fit is kernel ridge with its own feature kernel.  Weighted
by a Gauss-Hermite rule over their frequencies, feature products average to their kernel.  Oddness,
evenness and symmetry hold exactly, not to a tolerance: each follows from
IEEE negation and commutativity, and the fitted models inherit them from sin
and cos.  With two degrees of freedom, where the canonical J is no longer the only
skew form, a fitted model's symplectic part is J grad H of its own energy H.
Every array a constructor or entry point takes is refused, naming it,
when one entry is not finite or its shape is off.
"""

import json
import math
from dataclasses import replace
from functools import cache, reduce

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal
import pytest

import helmrff as hr
from helmrff import evaluation as ev
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


def assert_same_bits(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0, as assert_array_equal does not tell."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (a, b)


parameters = st.floats(1e-3, 1e3)
signed_coords = st.one_of(st.sampled_from([0.0, -0.0]), coords)
single_or_batch = st.one_of(st.just((2,)), st.tuples(st.integers(1, 6), st.just(2))).flatmap(
    lambda shape: arrays(np.float64, shape, elements=signed_coords))


@properties
@given(parameters, parameters, parameters, parameters, st.one_of(st.just(0.0), parameters), single_or_batch)
# As above: in place of `p * p`, then of `q * q`, a scalar `np.float64 ** 2` rounds differently here.
@example(0.5, 1.0, 1.0, 9.81, 0.25, np.array([6.21539061583826, -7.253990778484905]))
@example(0.5, 1.0, 1.0, 9.81, 0.25, np.array([-7.253990778484905, 0.0]))
def test_systems_are_their_written_out_formulas_bit_for_bit(m, k, l, g, d, X):
    """Both systems are H = p²/(2M) + V(q) with damping d on p; evaluated term for term as written out here,
    for one state (2,) or a batch (B, 2), with q and p of both signs and zeros of both signs."""
    q, p = X.T
    msd, pendulum = hr.mass_spring_damper(m, k, d), hr.damped_pendulum(m, l, d, g)
    assert_same_bits(msd.field(X), np.array([p / m, -k * q - (d / m) * p]).T)
    assert_same_bits(msd.hamiltonian(X), 0.5 * (p * p) / m + 0.5 * k * (q * q))
    assert_same_bits(pendulum.field(X), np.array([p / (m * l**2), -m * g * l * np.sin(q) - (d / (m * l**2)) * p]).T)
    assert_same_bits(pendulum.hamiltonian(X), 0.5 * (p * p) / (m * l**2) + m * g * l * (1.0 - np.cos(q)))


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


unit = st.floats(-1.0, 1.0)


def _ridge_problem(n, N):
    """A factored design of Sigma d features at N states of dimension n, nN targets, Sigma d log ridge weights
    and a sample count.  Sigma d is drawn on the primal side, Sigma d <= nN with the switch point Sigma d = nN,
    or on the dual side, Sigma d > nN."""
    side = st.one_of(st.integers(1, n * N), st.integers(n * N + 1, 3 * n * N))
    return side.flatmap(lambda d: st.tuples(
        st.builds(ft.FactoredDesign, arrays(np.float64, (d, N), elements=unit),
                  arrays(np.float64, (d, n), elements=unit)),
        arrays(np.float64, n * N, elements=unit),
        arrays(np.float64, d, elements=st.floats(-3.0, 1.0)),
        st.integers(1, 4)))


ridge_problems = st.tuples(st.sampled_from((2, 4)), st.integers(1, 4)).flatmap(lambda nN: _ridge_problem(*nN))


def assert_minimizes_ridge_objective(xi, design, targets, lam, n_samples):
    # (1/N)||design^T xi - targets||^2 + xi^T diag(lam) xi as one least-squares system
    stacked = np.vstack([design.T / np.sqrt(n_samples), np.diag(np.sqrt(lam))])
    rhs = np.concatenate([targets / np.sqrt(n_samples), np.zeros(len(lam))])
    reference = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    # the objective at xi = 0 bounds ||xi|| by ||targets|| / sqrt(N lam_min)
    scale = np.linalg.norm(targets) / np.sqrt(n_samples * lam.min())
    assert np.linalg.norm(xi - reference) <= 1e-9 * scale


@properties
@given(ridge_problems)
def test_solve_ridge_matches_stacked_least_squares(problem):
    design, targets, log_lam, n_samples = problem
    lam = 10.0 ** log_lam
    xi = rg.solve_ridge(design, targets, lam, n_samples)
    # D column by column, as D e_k: each entry is one value times one row entry, so exact; D c itself is
    # checked against the stacked feature designs in test_features
    dense = np.column_stack([design.dot(e) for e in np.eye(design.shape[1])])
    assert_minimizes_ridge_objective(xi, dense, targets, lam, n_samples)


def point_sets(max_points, n, bound=5.0):
    """Sets of 1 to max_points states of dimension n, with entries in [-bound, bound]."""
    return st.integers(1, max_points).flatmap(
        lambda m: arrays(np.float64, (m, n), elements=st.floats(-bound, bound)))


# One state dimension per example, shared by every point set it draws, so that code written for
# the plane, such as a kernel that builds J for one degree of freedom, fails at n = 4.
state_dims = st.sampled_from((2, 4))


widths = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)
ODD_KINDS = ("odd-curl-free", "odd-symplectic", "helmholtz")


@properties
@given(st.sampled_from(ODD_KINDS), state_dims.flatmap(lambda n: st.tuples(point_sets(5, n), point_sets(5, n))), widths)
def test_odd_kernels_are_exactly_odd_in_each_argument(kind, XZ, sigma):
    X, Z = XZ
    K = kn.kernel_blocks(kind, X, Z, sigma)
    assert_array_equal(kn.kernel_blocks(kind, -X, Z, sigma), -K)
    assert_array_equal(kn.kernel_blocks(kind, X, -Z, sigma), -K)


@properties
@given(st.sampled_from(("curl-free", "symplectic") + ODD_KINDS), state_dims.flatmap(lambda n: point_sets(6, n)),
       widths)
def test_gram_matrix_is_exactly_symmetric(kind, X, sigma):
    G = kn.gram_matrix(kind, X, sigma)
    assert G.shape == (X.size, X.size)
    assert_array_equal(G, G.T)


# Gauss-Hermite rules for the mean over t ~ N(0, I_n), exact below degree 2 order on each axis, on a tensor
# grid: node t weighs its mass, so the frequencies t / sigma integrate over w ~ N(0, sigma^-2 I_n).  Per state
# dimension n: the nodes per axis, and the bound r on each |x_k| / sigma and |z_k| / sigma of the states, which
# keeps the rule's tail below the rounding of its order^n summands.
GH_RULES = {2: (48, np.sqrt(2.0)), 4: (12, 0.35)}
PHASES = 2.0 * np.pi * np.arange(3) / 3.0  # cos(A + b) cos(B + b) averages to cos(A - B) / 2 over them


@cache
def gauss_hermite_rule(n):
    """The (order^n, n) nodes and the masses of the n-dimensional rule."""
    t, w = np.polynomial.hermite_e.hermegauss(GH_RULES[n][0])
    nodes = np.stack(np.meshgrid(*[t] * n, indexing="ij"), axis=-1).reshape(-1, n)
    return nodes, reduce(np.multiply.outer, [w] * n).ravel() / (2.0 * np.pi) ** (n / 2)


def gauss_hermite_tail(a: float, m: int, order: int) -> float:
    """Bound on |rule - mean| of t^m e^{i a t}.  The rule is exact on its Taylor terms below degree
    2 order, and its positive weights and the nonnegative derivatives of order 2 order of even
    powers place it between 0 and the mean (p - 1)!! of each t^p above; odd powers cancel."""
    return sum(a**j * math.exp(math.lgamma(j + m + 1) - math.lgamma((j + m) // 2 + 1)
                               - (j + m) // 2 * math.log(2.0) - math.lgamma(j + 1))
               for j in range(2 * order - m, 2 * order + 200, 2))


def quadrature_basis(kind, sigma, n):
    """The basis of frequencies nodes / sigma of the n-dimensional rule, with the weight of each feature:
    its quadrature mass times the normalisation d the basis divides out, or d/n per baseline output, whose
    features repeat each node at the three PHASES."""
    nodes, mass = gauss_hermite_rule(n)
    if kind != ft.GAUSSIAN_SEPARABLE:
        return ft.FeatureBasis(kind, nodes / sigma, sigma, 0), mass * len(nodes)
    tiled = np.tile(np.repeat(nodes / sigma, 3, axis=0), (n, 1))
    basis = ft.FeatureBasis(kind, tiled, sigma, 0, np.tile(PHASES, n * len(nodes)))
    return basis, np.tile(np.repeat(mass / 3.0, 3), n) * (basis.d // n)


# one generic pair per kind and state dimension, so a wrong row or scale fails every run
GENERIC_PAIRS = (np.array([[0.7, -0.2], [0.4, 0.9]]), np.array([[0.7, -0.2, 0.5, -0.9], [0.4, 0.9, -0.6, 0.3]]))


@properties
@given(st.sampled_from(ft.KINDS), st.floats(-0.5, 0.5),
       state_dims.flatmap(lambda n: arrays(np.float64, (2, n), elements=st.floats(-1.0, 1.0))))
@example(ft.ODD_CURL_FREE, 0.1, GENERIC_PAIRS[0])
@example(ft.ODD_SYMPLECTIC, 0.1, GENERIC_PAIRS[0])
@example(ft.GAUSSIAN_SEPARABLE, 0.1, GENERIC_PAIRS[0])
@example(ft.ODD_CURL_FREE, 0.1, GENERIC_PAIRS[1])
@example(ft.ODD_SYMPLECTIC, 0.1, GENERIC_PAIRS[1])  # fails a J that pairs q_k with p_k side by side
@example(ft.GAUSSIAN_SEPARABLE, 0.1, GENERIC_PAIRS[1])
def test_feature_products_average_to_the_kernel(kind, log_sigma, XZ):
    """Unbiasedness: the Gauss-Hermite weighted sum of Phi(x)^T Phi(z) over the features is the mean
    over the frequencies: kernel_blocks for the odd maps, and for the baseline the scalar Gaussian on
    the diagonal and exactly 0 off it, at n = 2 and n = 4.  No frequencies are drawn, so the property
    cannot flake.

    Tolerance.  With each |x_k|, |z_k| <= r sigma, each axis integrates t^m e^{i a t}, m <= 2, |a| <= 2 r,
    which the rule gets within `gauss_hermite_tail`: below 1e-28 with 48 nodes at r = sqrt 2 (n = 2), and
    below 1.2e-13 with 12 nodes at r = 0.35 (n = 4), where the tail's share of the bound is at most an
    eighth of the rounding's over the 20,736 nodes.  A
    product of n axes errs by at most 3^((n - 1) / 2) times the sum of the n axis errors, as |rule| and
    |mean| of t^m stay below sqrt 3; the odd kernels average two such products scaled by sigma^-2, and the
    baseline's factors stay below 1.  Rounding: each of the d summands, at most its mass times |row|^2
    (twice that for the baseline), is within 8 + 2 Phi ulps of that, Phi the largest |w| (|x| + |z|), for
    the phases, sin, cos and products; summing d of them adds d ulps of the total.
    """
    n = XZ.shape[1]
    order, r = GH_RULES[n]
    sigma = 10.0 ** log_sigma
    x, z = XZ * r * sigma
    basis, weight = quadrature_basis(kind, sigma, n)
    estimate = (ft.feature_design(basis, x) * weight[:, None]).T @ ft.feature_design(basis, z)
    phi = np.linalg.norm(basis.weights, axis=1).max() * (np.linalg.norm(x) + np.linalg.norm(z))
    tail = max(gauss_hermite_tail(np.max(np.abs(x) + np.abs(z)) / sigma, m, order) for m in range(3))
    rounding = (basis.d + 8 + 2 * phi) * np.finfo(float).eps
    if kind == ft.GAUSSIAN_SEPARABLE:
        gaussian = np.exp(-np.sum((x - z) ** 2) / (2 * sigma**2))
        assert np.all(np.abs(np.diag(estimate) - gaussian) <= 2 * rounding + n * tail)
        assert not np.any(estimate[~np.eye(n, dtype=bool)])
    else:
        nodes, mass = gauss_hermite_rule(n)
        total = mass @ np.sum(nodes**2, axis=1) / sigma**2
        exact = kn.kernel_blocks(kind, x, z, sigma)[0, 0]
        assert np.all(np.abs(estimate - exact) <= rounding * total + n * np.sqrt(3) ** (n - 1) * tail / sigma**2)


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
        # The other slot holds a basis of the other odd kind with the same d, n and sigma.
        basis_c, basis_s = (basis if kind == basis.kind else ft.sample_basis(kind, basis.d, basis.n, basis.sigma, seed)
                            for kind in (ft.ODD_CURL_FREE, ft.ODD_SYMPLECTIC))
        model = rg.HelmholtzModel(coef, coef, basis_c, basis_s, hyper)
        field = model.dissipative_part if basis.kind == ft.ODD_CURL_FREE else model.symplectic_part
    design = ft.feature_design(basis, X)
    expected = (design.T @ coef).reshape(B, basis.n)
    # Both sides sum the same d rounded products in different orders.
    bound = 2 * (basis.d + 2) * np.finfo(float).eps * (np.abs(design).T @ np.abs(coef)).reshape(B, basis.n)
    assert np.all(np.abs(field(X) - expected) <= bound)


def fitted_models(*fits):
    """(dataset, model) pairs fitted by one of `fits`, with independent ridge weights lambda1 != lambda2."""
    def fit(fit, data, sigma, log_lam, d, seed):
        dataset = rg.Dataset(data[:, :2], data[:, 2:])
        if fit is rg.fit_baseline:
            return dataset, fit(dataset, rg.Hyperparameters(sigma, 10.0 ** log_lam[0], None, d + d % 2), seed)
        return dataset, fit(dataset, rg.Hyperparameters(sigma, 10.0 ** log_lam[0], 10.0 ** log_lam[1], d), seed)
    return st.builds(
        fit,
        st.sampled_from(fits),
        point_sets(6, 4, bound=3.0),
        widths,
        st.tuples(st.floats(-8.0, 0.0), st.floats(-8.0, 0.0)).filter(lambda log_lam: log_lam[0] != log_lam[1]),
        st.integers(1, 24),
        st.integers(0, 2**32 - 1),
    )


@properties
@given(fitted_models(rg.fit_helmholtz, rg.fit_baseline))
def test_fit_solves_the_stacked_ridge_problem_of_its_maps(case):
    """Each coefficient vector pairs with its own basis and its own ridge weight."""
    dataset, model = case
    if isinstance(model, rg.HelmholtzModel):
        maps = [(model.alpha, model.basis_c, model.hyper.lambda1), (model.beta, model.basis_s, model.hyper.lambda2)]
    else:
        maps = [(model.alpha, model.basis, model.hyper.lambda1)]
    coefs, bases, lams = zip(*maps)
    design = np.vstack([ft.feature_design(basis, dataset.states) for basis in bases])
    assert_minimizes_ridge_objective(np.concatenate(coefs), design, dataset.target_vector(),
                                     np.repeat(lams, model.hyper.d), len(dataset))


@properties
@given(state_dims.flatmap(lambda n: st.tuples(point_sets(6, 2 * n, bound=3.0), point_sets(8, n))),
       widths, st.floats(-8.0, 0.0), st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_helmholtz_fit_is_kernel_ridge_with_its_feature_kernel(data_Q, sigma, log_lam, d, seed):
    """With lambda1 = lambda2 = lambda, the fit predicts P(Q)^T P a with (P^T P + N lambda I) a = xdot,
    P the stacked design of both maps on the data: kernel ridge with the feature kernel P^T P.

    Either solve may err beyond 1e-8 relative when lambda is tiny.  A backward-stable solve of
    M y = r errs by eps ||M|| ||y|| in r, and ||M|| = ||P||^2 + N lambda on both sides.  The
    reference moves P a by that times max s / (s^2 + N lambda) over the singular values s of P,
    large when P^T P is singular (2d < nN).  A primal fit (2d <= nN) moves xi by that times
    max 1 / (s^2 + N lambda), large when P P^T is singular (say, a sample at the origin), along
    features the data do not see but Q does.  The bound adds 16 times both; a search over 4,000
    examples that steered toward the largest error reached 5.5% of it.  The floor covers
    subnormal states, whose rounding is absolute.
    """
    (data, Q), lam = data_Q, 10.0 ** log_lam
    dataset = rg.Dataset(*np.hsplit(data, 2))
    model = rg.fit_helmholtz(dataset, rg.Hyperparameters(sigma, lam, lam, d), seed)
    bases = (model.basis_c, model.basis_s)
    P, P_Q = (np.vstack([ft.feature_design(basis, X) for basis in bases]) for X in (dataset.states, Q))
    mu = len(dataset) * lam
    A = P.T @ P + mu * np.eye(P.shape[1])
    a = rg._checked_solve(A, 0.0, dataset.target_vector())
    predicted = model.predict(Q)

    s = np.linalg.svd(P, compute_uv=False)
    reference = np.linalg.norm(a) * np.max(s / (s**2 + mu))
    primal = np.linalg.norm(np.r_[model.alpha, model.beta]) / (s.min() ** 2 + mu) if P.shape[0] <= P.shape[1] else 0.0
    rounding = 16 * np.finfo(float).eps * np.linalg.norm(P_Q, 2) * np.linalg.norm(A, 2) * (reference + primal)
    bound = 1e-8 * np.max(np.abs(predicted)) + rounding + 1e-300
    assert np.max(np.abs(predicted - (P_Q.T @ (P @ a)).reshape(Q.shape))) <= bound


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


def central_differences(fn, x, eps=1e-6):
    """Central differences of fn at the state x along each axis, the last axis of the result."""
    return np.stack([(fn(x + eps * e) - fn(x - eps * e)) / (2 * eps) for e in np.eye(x.size)], axis=-1)


def assert_helmholtz_structure(model, Q):
    """At each state of Q: the model is odd and its energy even, the symplectic part is divergence-free, the
    dissipative part is a gradient, and the closed-form Jacobians are the model's own."""
    assert_array_equal(model.predict(-Q), -model.predict(Q))
    assert_array_equal(model.hamiltonian(-Q), model.hamiltonian(Q))
    # The sum of |terms| bounds both Jacobians and their rounding; the floor
    # covers subnormal coefficients, whose rounding is absolute.
    scale = max(np.sum(np.abs(c) * np.sum(b.weights**2, axis=1)) / np.sqrt(b.d)
                for b, c in ((model.basis_s, model.beta), (model.basis_c, model.alpha)))
    for x in Q:
        jac_s, jac_d = closed_form_jacobians(model, x)
        assert abs(np.trace(jac_s)) <= 1e-13 * scale + 1e-300
        assert np.max(np.abs(jac_d - jac_d.T)) <= 1e-13 * scale + 1e-300
        for part, jac in ((model.symplectic_part, jac_s), (model.dissipative_part, jac_d)):
            diff = central_differences(part, x)
            assert np.max(np.abs(diff - jac)) <= 1e-6 * (scale + np.max(np.abs(part(x)))) + 1e-300


@properties
@given(fitted_models(rg.fit_helmholtz).map(lambda case: case[1]), point_sets(8, 2))
def test_fitted_helmholtz_model_structure(model, Q):
    assert_helmholtz_structure(model, Q)
    reloaded = rg.HelmholtzModel.from_json(json.loads(json.dumps(model.to_json())))
    assert_array_equal(reloaded.predict(Q), model.predict(Q))
    assert_array_equal(reloaded.hamiltonian(Q), model.hamiltonian(Q))


def coupled_oscillators(X):
    """A test-only field with two degrees of freedom, at states (q1, q2, p1, p2): unit masses on unit
    springs, coupled by a spring of 0.5, each momentum damped at rate 0.3."""
    q, p = X[:, :2], X[:, 2:]
    return np.hstack([p, -q @ np.array([[1.5, -0.5], [-0.5, 1.5]]) - 0.3 * p])


OSCILLATOR_STATES = np.random.default_rng(0).uniform(-2.0, 2.0, size=(12, 4))
OSCILLATORS = rg.Dataset(OSCILLATOR_STATES, coupled_oscillators(OSCILLATOR_STATES))


@properties
@given(widths, st.tuples(st.floats(-8.0, 0.0), st.floats(-8.0, 0.0)), st.integers(1, 24),
       st.integers(0, 2**32 - 1), point_sets(6, 4))
def test_helmholtz_structure_with_two_degrees_of_freedom(sigma, log_lam, d, seed, Q):
    """At n = 2, J is the only symplectic form up to sign; at n = 4 an interleaved one differs from
    [[0, I2], [-I2, 0]].  So at n = 4 the symplectic part must be J grad H for this J, with H the
    model's own energy, and the energy's closed-form gradient must be the gradient of H."""
    model = rg.fit_helmholtz(OSCILLATORS, rg.Hyperparameters(sigma, 10.0 ** log_lam[0], 10.0 ** log_lam[1], d), seed)
    assert model.dim == 4
    assert_helmholtz_structure(model, Q)
    J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    # Central differences of H = -sum_i beta_i cos(w_i . x) / sqrt(d) err by eps^2 / 6 |w_i|^3 per term,
    # and by about 1e-10 (1 + |w_i|) from rounding the phases; the sum of |terms| bounds both.
    w = model.basis_s.weights
    bound = 1e-6 * np.sum(np.abs(model.beta) * (1.0 + np.sum(w**2, axis=1)) ** 1.5) / np.sqrt(w.shape[0]) + 1e-300
    for x in Q:
        grad = central_differences(model.hamiltonian, x)
        assert np.max(np.abs(model.hamiltonian_gradient(x) - grad)) <= bound
        assert np.max(np.abs(model.symplectic_part(x) - J @ grad)) <= bound


def _boundaries() -> dict:
    """{input name: (a valid value, its shape with None for a free axis, the call that checks it)}."""
    rng = np.random.default_rng(0)
    data = rg.Dataset(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), np.arange(4.0), np.zeros(4, dtype=int))
    helmholtz = rg.fit_helmholtz(data, rg.Hyperparameters(1.0, 1e-2, 1e-2, d=4), seed=0)
    exact = rg.fit_exact_kernel(data, "helmholtz", sigma=1.0, lam=1e-2)
    baseline = ft.sample_basis(ft.GAUSSIAN_SEPARABLE, 4, 2, 1.0, seed=0)
    grids = {"sigmas": [1.0, 2.0], "lambda1s": [1e-3, 1e-2, 1e-1], "lambda2s": [1e-3]}
    pendulum = SYSTEMS["pendulum"]
    return {
        "weights": (baseline.weights, (None, None), lambda w: ft.FeatureBasis(ft.ODD_CURL_FREE, w, 1.0, 0)),
        "phases": (baseline.phases, (4,),
                   lambda b: ft.FeatureBasis(ft.GAUSSIAN_SEPARABLE, baseline.weights, 1.0, 0, b)),
        "alpha": (helmholtz.alpha, (4,), lambda c: replace(helmholtz, alpha=c)),
        "beta": (helmholtz.beta, (4,), lambda c: replace(helmholtz, beta=c)),
        "anchors": (exact.anchors, (None, None), lambda a: replace(exact, anchors=a)),
        "coefficients": (exact.coefficients, (4, 2), lambda c: replace(exact, coefficients=c)),
        "states": (data.states, (None, None), lambda x: rg.Dataset(x, data.derivatives)),
        "predict states": (data.states, (None, None), helmholtz.predict),
        "feature_design states": (data.states, (None, None), lambda x: ft.feature_design(baseline, x)),
        "derivatives": (data.derivatives, (4, 2), lambda x: rg.Dataset(data.states, x)),
        "times": (data.times, (4,), lambda t: rg.Dataset(data.states, data.derivatives, t)),
        **{name: (grid, (None,), lambda g, name=name: ev.SearchSpace(**{**grids, name: g}))
           for name, grid in grids.items()},
        "bounds": ([[-1.0, 1.0], [-2.0, 2.0]], (2, 2), lambda b: ft.grid_limits(b, 5)),
        "initial conditions": ([[1.0, 0.0], [-2.0, 0.5]], (None, None),
                               lambda x: hr.generate_dataset(pendulum, x, 0.1, 0.2, hr.NoiseSpec(0.01, 0))),
        "x0": ([1.0, 0.0], (None,), lambda x: hr.integrate_rk4(pendulum.field, x, 0.1, 0.2)),
    }


BOUNDARIES = _boundaries()


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(BOUNDARIES)), st.data())
def test_every_array_input_is_checked_at_its_boundary(name, data):
    """A NaN or infinite entry, an emptied free axis, a fixed axis one too long or short, or the
    values as strings, bools or objects is a ValueError that names the input, whichever entry or axis it hits."""
    valid, shape, call = BOUNDARIES[name]
    call(np.array(valid))
    value = np.array(valid, dtype=float)
    free = [axis for axis, length in enumerate(shape) if length is None]
    fixed = [axis for axis, length in enumerate(shape) if length is not None]
    change = data.draw(st.sampled_from(["poison", "retype"] + ["empty"] * bool(free) + ["resize"] * bool(fixed)))
    if change == "poison":
        value.flat[data.draw(st.integers(0, value.size - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif change == "retype":
        value = value.astype(data.draw(st.sampled_from([str, bool, object])))
    else:
        axis = data.draw(st.sampled_from(free if change == "empty" else fixed))
        length = 0 if change == "empty" else value.shape[axis] + data.draw(st.sampled_from([-1, 1]))
        value = np.take(value, np.arange(length), axis=axis, mode="wrap")
    with pytest.raises(ValueError, match=name):
        call(value)
