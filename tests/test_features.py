import json
import tracemalloc
from dataclasses import replace

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


def test_a_width_divides_the_unit_width_draw_bit_for_bit():
    """The CV draws each map once at unit width and divides its weights by each width; that is the draw
    at the width itself, bit for bit, phases included."""
    for kind in ft.KINDS:
        unit = ft.sample_basis(kind, 24, 2, 1.0, seed=31)
        for sigma in [*np.logspace(-1.0, 1.0, 13), 0.3, 1.0, 7.0]:
            drawn = ft.sample_basis(kind, 24, 2, sigma, seed=31)
            scaled = replace(unit, weights=unit.weights / sigma, sigma=sigma)
            assert drawn.weights.tobytes() == scaled.weights.tobytes(), (kind, sigma)
            assert (drawn.sigma, drawn.seed) == (scaled.sigma, scaled.seed)
            if kind == ft.GAUSSIAN_SEPARABLE:
                assert drawn.phases.tobytes() == scaled.phases.tobytes()
            else:
                assert drawn.phases is scaled.phases is None


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


def test_feature_design_refuses_a_bool_among_numbers():
    """The raw states are checked before they are reshaped, so a list that mixes bools with numbers is refused."""
    b = ft.sample_basis(ft.ODD_CURL_FREE, 8, 2, 1.0, seed=0)
    for states in ([[True, 1.5]], [True, 1.5]):
        with pytest.raises(ValueError, match=r"feature_design states must be a numeric \(N, N\) array: got a bool"):
            ft.feature_design(b, states)


@pytest.mark.parametrize("block_rows", [None, 5])
def test_factored_design_products_match_its_dense_expansion(block_rows, monkeypatch):
    """The Gram, the outer product and D c from the two factors agree with the dense design to rounding,
    over one block of rows and several; the baseline's cross-output Gram blocks are exact zeros."""
    if block_rows:
        monkeypatch.setattr(ft, "_BLOCK_ENTRIES", block_rows * 14)
    rng = np.random.default_rng(3)
    states = rng.normal(size=(7, 2))
    for d in (6, 12, 40):
        for kinds in (ft.KINDS[:2], ft.KINDS[2:]):
            bases = [ft.sample_basis(kind, d, 2, 0.9, seed=i) for i, kind in enumerate(kinds)]
            design = ft.factored_design(states, *bases)
            D = np.vstack([ft.feature_design(basis, states) for basis in bases])
            assert design.shape == D.shape == (d * len(bases), 14)
            w = rng.uniform(0.1, 1.0, size=D.shape[0])
            assert_allclose(design.gram(w), D.T @ (w[:, None] * D), rtol=1e-12, atol=1e-13)
            assert_allclose(design.outer(), D @ D.T, rtol=1e-12, atol=1e-13)
            c = rng.normal(size=14)
            assert_allclose(design.dot(c), D @ c, rtol=1e-12, atol=1e-13)
    cross = ft.factored_design(states, bases[0]).gram(np.ones(d)).reshape(7, 2, 7, 2)[:, 0, :, 1]
    assert not cross.any() and not np.signbit(cross).any()


def test_basis_json_round_trip():
    b = ft.sample_basis(ft.GAUSSIAN_SEPARABLE, 10, 2, 1.5, seed=77)
    doc = json.loads(json.dumps(b.to_json()))
    back = ft.FeatureBasis.from_json(doc)
    assert back.kind == b.kind
    assert back.sigma == b.sigma
    assert back.seed == b.seed
    assert_array_equal(back.weights, b.weights)
    assert_array_equal(back.phases, b.phases)
    # an odd basis may omit its phases, whose only valid value is null
    odd = ft.sample_basis(ft.ODD_SYMPLECTIC, 10, 2, 1.5, seed=77).to_json()
    assert ft.FeatureBasis.from_json({k: v for k, v in odd.items() if k != "phases"}).to_json() == odd


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


@pytest.mark.parametrize("kind", ft.KINDS)
def test_grid_field_blocks_hold_two_wave_arrays_within_the_budget(kind):
    """A d = 20000 grid at resolution 25 peaks under tracemalloc within the sum of:
    - 16 _BLOCK_ENTRIES bytes: two (2, 25, s) complex arrays live at once, a block's waves beside its product
      with a or beside the previous block's waves, with s = _BLOCK_ENTRIES // 100 so both fit the budget;
    - _BLOCK_ENTRIES bytes: a block's (2, s) phases, steps and step waves, under 100 s bytes;
    - 48 d bytes: the (2, d) amplitudes a, complex for the baseline, and the phase offsets;
    - 64 np.getbufsize() bytes: numpy's ufunc buffers, up to four complex operands.
    Blocks that fit each wave array, not both, within the budget peaked at 6.9-7.2 MiB, over the bound."""
    d = 20000
    basis = ft.sample_basis(kind, d, 2, 1.0, 0)
    coef = np.random.default_rng(0).normal(size=d)
    tracemalloc.start()
    try:
        basis.grid_field(((-3.0, 3.0), (-4.0, 4.0)), 25, coef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 17 * ft._BLOCK_ENTRIES + 48 * d + 64 * np.getbufsize()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"
