import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helmrff import features as ft
from helmrff import kernels as kn


def test_split_seed_matches_seed_sequence():
    got = ft.split_seed(42, 4)
    expected = np.random.SeedSequence(42).generate_state(4, dtype=np.uint64)
    assert got == [int(v) for v in expected]
    assert len(set(got)) == 4
    # deterministic
    assert ft.split_seed(42, 4) == got


def test_sample_basis_shapes_and_determinism():
    b = ft.sample_basis(ft.ODD_CURL_FREE, 32, 2, 0.7, seed=5)
    assert b.weights.shape == (32, 2)
    assert b.phases is None
    assert b.d == 32 and b.n == 2
    again = ft.sample_basis(ft.ODD_CURL_FREE, 32, 2, 0.7, seed=5)
    assert_array_equal(b.weights, again.weights)

    g = ft.sample_basis(ft.GAUSSIAN_SEPARABLE, 32, 2, 0.7, seed=5)
    assert g.phases.shape == (32,)
    assert np.all((g.phases >= 0) & (g.phases < 2 * np.pi))


def test_weights_scale_inversely_with_sigma():
    # frequencies are standard normals divided by sigma, so the same seed at
    # twice the width gives exactly half the frequencies
    narrow = ft.sample_basis(ft.ODD_SYMPLECTIC, 16, 2, 1.0, seed=9)
    wide = ft.sample_basis(ft.ODD_SYMPLECTIC, 16, 2, 2.0, seed=9)
    assert_allclose(wide.weights, narrow.weights / 2.0, atol=1e-15)


def test_sample_basis_validation():
    """A basis drawn, built or read from JSON goes through one check, with one message."""
    cases = [
        (("unknown-kind", 8, 2, 1.0), "kind"),
        ((ft.ODD_CURL_FREE, 0, 2, 1.0), "weights"),
        ((ft.ODD_CURL_FREE, 8, 0, 1.0), "weights"),
        # baseline splits the budget across outputs
        ((ft.GAUSSIAN_SEPARABLE, 9, 2, 1.0), "divisible"),
        # symplectic map needs even state dimension
        ((ft.ODD_SYMPLECTIC, 8, 3, 1.0), "even"),
        # a bad width is reported as the width, not as the weights it makes
        *(((ft.ODD_CURL_FREE, 8, 2, sigma), "width") for sigma in (0.0, -1.0, np.nan, np.inf, None)),
    ]
    for (kind, d, n, sigma), message in cases:
        if sigma is not None:
            with np.errstate(divide="ignore"), pytest.raises(ValueError, match=message):
                ft.sample_basis(kind, d, n, sigma, seed=0)
        weights = np.ones((d, n))
        phases = np.zeros(d) if kind == ft.GAUSSIAN_SEPARABLE else None
        with pytest.raises(ValueError, match=message):
            ft.FeatureBasis(kind, weights, sigma, 0, phases)
        doc = {"kind": kind, "weights": weights.tolist(), "sigma": sigma, "seed": 0,
               "phases": None if phases is None else phases.tolist()}
        with pytest.raises(ValueError, match=message):
            ft.FeatureBasis.from_json(json.loads(json.dumps(doc)))


def test_basis_from_json_checks_shapes():
    odd = ft.sample_basis(ft.ODD_CURL_FREE, 8, 2, 1.0, seed=0).to_json()
    base = ft.sample_basis(ft.GAUSSIAN_SEPARABLE, 8, 2, 1.0, seed=0).to_json()
    for doc, key, value in ((odd, "weights", [1.0, 2.0]),        # not (d, n)
                            (odd, "weights", [[1.0, None]] * 8),  # not finite
                            (odd, "phases", [0.0] * 8),           # phases on an odd map
                            (base, "phases", None),               # baseline without phases
                            (base, "phases", [0.0] * 7),          # not (d,)
                            (base, "phases", [float("inf")] * 8)):
        with pytest.raises(ValueError, match=key):
            ft.FeatureBasis.from_json({**doc, key: value})
    # a fractional, negative or boolean seed is refused, not truncated or read as 1
    for seed in (1.5, -3, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ft.FeatureBasis.from_json({**odd, "seed": seed})


def test_odd_maps_are_exactly_odd_and_vanish_at_origin():
    x = np.array([0.6, -1.4])
    for kind in (ft.ODD_CURL_FREE, ft.ODD_SYMPLECTIC):
        b = ft.sample_basis(kind, 64, 2, 0.9, seed=1)
        assert_array_equal(ft.feature_design(b, -x), -ft.feature_design(b, x))
        assert_array_equal(ft.feature_design(b, np.zeros(2)), np.zeros((64, 2)))


def test_odd_symplectic_rows_rotate_odd_curl_free_rows():
    bc = ft.sample_basis(ft.ODD_CURL_FREE, 16, 2, 1.1, seed=4)
    bs = ft.sample_basis(ft.ODD_SYMPLECTIC, 16, 2, 1.1, seed=4)
    x = np.array([0.2, 0.5])
    J = kn.symplectic_matrix(1)
    assert_allclose(ft.feature_design(bs, x), ft.feature_design(bc, x) @ J.T, atol=1e-15)


def test_gaussian_separable_examples():
    """Scalar-feature construction: identity on the diagonal, zero off it."""
    d = 2 * 10**4  # d / n = 1e4 scalar features per output
    b = ft.sample_basis(ft.GAUSSIAN_SEPARABLE, d, 2, 1.0, seed=12)
    x = np.array([1.0, 0.0])
    z = np.zeros(2)
    K_xx = ft.feature_design(b, x).T @ ft.feature_design(b, x)
    assert abs(K_xx[0, 0] - 1.0) < 0.05
    assert abs(K_xx[1, 1] - 1.0) < 0.05
    K_xz = ft.feature_design(b, x).T @ ft.feature_design(b, z)
    # disjoint blocks make the off-diagonal identically zero
    assert K_xz[0, 1] == 0.0 and K_xz[1, 0] == 0.0
    assert abs(K_xz[0, 0] - 0.6065) < 0.05
    assert abs(K_xz[1, 1] - 0.6065) < 0.05


def test_odd_map_error_decays_with_budget():
    """Monte Carlo rate: quadrupling d should not increase the median error."""
    rng = np.random.default_rng(2)
    pairs = rng.uniform(-1, 1, size=(20, 2, 2))
    for kind in (ft.ODD_CURL_FREE, ft.ODD_SYMPLECTIC):
        exact = np.array([kn.kernel_blocks(kind, x, z, 1.0)[0, 0] for x, z in pairs])
        med = {}
        for d in (500, 2000):
            errs = []
            for trial in range(10):
                b = ft.sample_basis(kind, d, 2, 1.0, seed=100 + trial)
                approx = np.array([ft.feature_design(b, x).T @ ft.feature_design(b, z)
                                   for x, z in pairs])
                errs.append(np.abs(approx - exact).max())
            med[d] = np.median(errs)
        assert med[2000] < med[500]


def closed_form_feature_matrix(b, x):
    """Feature matrix at one state, written out row by row from its definition."""
    d, n = b.d, b.n
    if b.kind == ft.GAUSSIAN_SEPARABLE:
        # block-diagonal cosine map: frequency i feeds output i // m only
        m = d // n
        psi = np.zeros((d, n))
        for i, w in enumerate(b.weights):
            psi[i, i // m] = np.sqrt(2.0 / m) * np.cos(w @ x + b.phases[i])
        return psi
    J = kn.symplectic_matrix(n // 2)
    # sin(w.x) w / sqrt(d) for curl-free rows, sin(w.x) J w / sqrt(d) for symplectic rows
    rows = [np.sin(w @ x) * (w if b.kind == ft.ODD_CURL_FREE else J @ w) for w in b.weights]
    return np.array(rows) / np.sqrt(d)


def test_feature_design_stacks_per_point_blocks():
    states = np.array([[0.3, -0.2], [1.0, 0.4], [-0.7, 0.9]])
    for kind in ft.KINDS:
        b = ft.sample_basis(kind, 12, 2, 0.8, seed=6)
        design = ft.feature_design(b, states)
        assert design.shape == (12, 6)
        blocks = np.hstack([closed_form_feature_matrix(b, x) for x in states])
        assert_allclose(design, blocks, rtol=1e-13, atol=1e-15)
        for i, x in enumerate(states):
            assert_allclose(ft.feature_design(b, x), design[:, 2 * i:2 * i + 2], rtol=1e-13, atol=1e-15)


def test_feature_design_dimension_mismatch():
    b = ft.sample_basis(ft.ODD_CURL_FREE, 8, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        ft.feature_design(b, np.zeros((3, 4)))


def test_basis_json_round_trip():
    b = ft.sample_basis(ft.GAUSSIAN_SEPARABLE, 10, 2, 1.5, seed=77)
    doc = json.loads(json.dumps(b.to_json()))
    back = ft.FeatureBasis.from_json(doc)
    assert back.kind == b.kind
    assert back.sigma == b.sigma
    assert back.seed == b.seed
    assert_array_equal(back.weights, b.weights)
    assert_array_equal(back.phases, b.phases)


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 257), st.floats(-10.0, 10.0), st.floats(0.01, 20.0), st.integers(0, 2**32 - 1))
@example(resolution=2, lo=-1.953125, span=0.125, seed=1)  # one level, where the once-only roundings weigh most
def test_progressions_meet_direct_waves_at_linspace_points(resolution, lo, span, seed):
    """The doubling recurrence of the grid path against np.cos and np.sin at np.linspace's points.

    Each of 32 features has its largest phase drawn from 1e-3 to 1e3, and up to 9 doublings run.
    Per feature, the error is within 2 (L + 1) ulps of (1 + its largest |phase|) for L doubling
    levels, the budget `_progressions` derives: each level costs a product and a square, and the
    start wave and the step are rounded once.  A running product, or squares not rescaled to
    modulus 1, drift by about resolution / 4 ulps.
    """
    rng = np.random.default_rng(seed)
    hi = lo + span
    w = rng.choice([-1.0, 1.0], 32) * 10 ** rng.uniform(-3.0, 3.0, 32) / max(abs(lo), abs(hi))
    b = rng.uniform(0.0, 2.0 * np.pi, 32)
    phase = np.outer(np.linspace(lo, hi, resolution), w) + b
    waves = ft._progressions((w * lo + b)[None], (w * ((hi - lo) / (resolution - 1)))[None], resolution)[0]
    levels = int(np.ceil(np.log2(resolution)))
    bound = 2 * np.finfo(float).eps * (1.0 + np.abs(phase).max(axis=0)) * (levels + 1)
    error = np.abs(waves - (np.cos(phase) + 1j * np.sin(phase))).max(axis=0)
    assert np.all(error <= bound), (error / bound).max()


@pytest.mark.parametrize("kind", ft.KINDS)
def test_grid_field_takes_two_exponentials_per_feature_per_axis(kind, monkeypatch):
    """cos and sin each run on 4 d entries per call, a start and a step per feature per axis, at any resolution."""
    d = 3000  # more than one block at resolution 120
    basis = ft.sample_basis(kind, d, 2, 1.0, 0)
    entries = {"cos": 0, "sin": 0}
    for name in entries:
        def counted(phase, *args, ufunc=getattr(np, name), name=name, **kwargs):
            entries[name] += np.size(phase)
            return ufunc(phase, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    for resolution in (2, 25, 120):
        entries.update(cos=0, sin=0)
        basis.grid_field(((-1.0, 1.0), (-2.0, 3.0)), resolution, np.ones(d))
        assert entries == {"cos": 4 * d, "sin": 4 * d}, (resolution, entries)
