import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import helmrff as hr
from helmrff import systems as sy

MSD_ICS = np.array([[1.0, 0.0], [2.25, 0.0], [3.5, 0.0]])
PEND_ICS = np.array([[2 * np.pi / 5, 0.0], [4 * np.pi / 5, 0.0],
                     [19 * np.pi / 20, -4.0]])


def test_msd_field_values():
    f = hr.mass_spring_damper(0.5, 1.0, 0.25).field
    assert_array_equal(f(np.zeros(2)), np.zeros(2))
    assert_allclose(f(np.array([1.0, 0.0])), [0.0, -1.0])
    # qdot = p/m and the damping term -(d/m) p
    assert_allclose(f(np.array([0.0, 1.0])), [2.0, -0.5])


def test_pendulum_field_values():
    f = hr.damped_pendulum(1.0, 1.0, 1.2, 9.81).field
    assert_array_equal(f(np.zeros(2)), np.zeros(2))
    assert_allclose(f(np.array([np.pi / 2, 0.0])), [0.0, -9.81])
    # inverted equilibrium: sin(pi) = 0 up to floating-point pi
    assert_allclose(f(np.array([np.pi, 0.0])), [0.0, 0.0], atol=1e-14)


def test_system_parameter_validation():
    with pytest.raises(ValueError):
        hr.mass_spring_damper(0.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        hr.mass_spring_damper(0.5, -1.0, 0.25)
    with pytest.raises(ValueError):
        hr.mass_spring_damper(0.5, 1.0, -0.1)
    with pytest.raises(ValueError):
        hr.damped_pendulum(1.0, 0.0, 1.2, 9.81)
    with pytest.raises(ValueError):
        hr.damped_pendulum(1.0, 1.0, 1.2, 0.0)
    with pytest.raises(ValueError):
        sy.NoiseSpec(-0.1, 0)
    # a NaN or infinite parameter fails here, not later as a diverged integration
    # a bool is refused, not read as 1 or 0, and each error names its parameter
    for factory, params, name in ((hr.damped_pendulum, {"m": np.nan}, "m must be positive"),
                                  (hr.mass_spring_damper, {"k": np.inf}, "k must be positive"),
                                  (hr.mass_spring_damper, {"m": True}, "m must be positive"),
                                  (hr.damped_pendulum, {"l": True}, "l must be positive"),
                                  (hr.damped_pendulum, {"g": -9.81}, "g must be positive"),
                                  (hr.damped_pendulum, {"d": False}, "damping d must be nonnegative"),
                                  (hr.mass_spring_damper, {"d": -0.1}, "damping d must be nonnegative")):
        with pytest.raises(ValueError, match=name):
            factory(**params)
    for sigma_n in (np.nan, np.inf, True, -0.1):
        with pytest.raises(ValueError, match="noise level must be nonnegative"):
            sy.NoiseSpec(sigma_n, 0)
    # no damping and no noise are allowed, and integers are read as floats
    assert_allclose(hr.mass_spring_damper(1, 2, 0).field([[1.0, 1.0]]), [[1.0, -2.0]])
    assert type(sy.NoiseSpec(0, 0).sigma_n) is float
    # a fractional, negative or boolean seed is refused, not truncated or read as 1
    for seed in (1.5, -3, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sy.NoiseSpec(0.1, seed)
    assert type(sy.NoiseSpec(0.1, np.int64(3)).seed) is int
    with pytest.raises(ValueError, match="initial condition"):
        hr.generate_dataset(hr.mass_spring_damper(), [1.0, 0.0], 0.25, 1.0, sy.NoiseSpec(0.1, 0))
    with pytest.raises(ValueError, match="initial conditions must be a finite"):
        hr.generate_dataset(hr.damped_pendulum(), [[np.nan, 0.0]], 0.1, 0.7, sy.NoiseSpec(0.1, 0))


def test_rk4_trivial_fields():
    const = hr.integrate_rk4(lambda x: np.zeros(2), np.array([1.0, -2.0]), 0.1, 1.0)
    assert_array_equal(const.states, np.tile([1.0, -2.0], (11, 1)))
    assert const.times[0] == 0.0
    assert_allclose(np.diff(const.times), 0.1)

    drift = hr.integrate_rk4(lambda x: np.ones(2), np.zeros(2), 0.25, 1.0)
    assert_allclose(drift.states, drift.times[:, None] * np.ones(2), atol=1e-15)


def test_rk4_takes_whole_steps_only():
    zero = lambda x: np.zeros(2)
    tr = hr.integrate_rk4(zero, np.zeros(2), 0.1, 0.7)
    assert len(tr.times) == 8 and abs(tr.times[-1] - 0.7) < 1e-15
    # 1.0 / 0.35 would end at 1.05 and 1.0 / 0.45 at 0.9
    for h in (0.35, 0.45):
        with pytest.raises(ValueError, match=rf"t_end=1.0 is not a whole number of steps h={h}"):
            hr.integrate_rk4(zero, np.zeros(2), h, 1.0)
    with pytest.raises(ValueError, match="h <= t_end"):
        hr.integrate_rk4(zero, np.zeros(2), 2.0, 1.0)
    # a ratio within a relative 1e-9 of a whole number is whole, as rounding leaves it; one 1e-6 off is not
    assert len(hr.integrate_rk4(zero, np.zeros(2), 0.1, 0.7 * (1 + 1e-12)).times) == 8
    with pytest.raises(ValueError, match=r"is not a whole number of steps h=0.1 \(t_end / h = 7.000007"):
        hr.integrate_rk4(zero, np.zeros(2), 0.1, 0.7 * (1 + 1e-6))


def test_sampling_ends_at_t_end():
    # 1.1 is 110 fine steps of 0.25 / 25 but no whole number of samples every 0.25,
    # so sampling would stop at t = 1.0, short of t_end
    msd = hr.mass_spring_damper(0.5, 1.0, 0.25)
    off_grid = "t_end=1.1 is not a whole number of steps h=0.25"
    with pytest.raises(ValueError, match=off_grid):
        hr.generate_dataset(msd, MSD_ICS, 0.25, 1.1, hr.NoiseSpec(0.0, 0))
    with pytest.raises(ValueError, match=off_grid):
        hr.make_test_set(msd, np.array([2.0, 0.0]), 0.25, 1.1)
    assert hr.make_test_set(msd, np.array([2.0, 0.0]), 0.25, 1.0).times[-1] == 1.0


def test_rk4_conserves_energy_without_damping():
    system = hr.mass_spring_damper(0.5, 1.0, 0.0)
    tr = hr.integrate_rk4(system.field, np.array([2.0, 0.0]), 0.001, 10.0)
    H = system.hamiltonian(tr.states)
    assert np.abs(H - H[0]).max() / H[0] <= 1e-6


def test_rk4_reports_divergence():
    def explosive(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return x**3

    with pytest.raises(FloatingPointError, match="step"):
        hr.integrate_rk4(explosive, np.array([5.0, 5.0]), 0.5, 50.0)
    # a non-finite start is reported as the initial state, not as a divergence at step 1
    with pytest.raises(ValueError, match="x0 must be a finite"):
        hr.integrate_rk4(hr.damped_pendulum().field, [np.inf, 0.0], 0.1, 0.7)
    # a ragged batch is named too, not left to numpy's conversion error
    with pytest.raises(ValueError, match="x0 must be a numeric"):
        hr.integrate_rk4(hr.damped_pendulum().field, [[1.0, 0.0], [2.0]], 0.1, 0.2)


def test_damped_energy_is_monotone():
    for system in (hr.mass_spring_damper(0.5, 1.0, 0.25),
                   hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)):
        tr = hr.integrate_rk4(system.field, np.array([1.5, 0.0]), 0.001, 5.0)
        H = system.hamiltonian(tr.states)
        assert np.all(np.diff(H) <= 1e-9)


def test_dataset_counts_match_protocols():
    msd = hr.mass_spring_damper(0.5, 1.0, 0.25)
    ds = hr.generate_dataset(msd, MSD_ICS, 0.25, 1.0, hr.NoiseSpec(0.1, 0),
                             include_t0=True)
    assert len(ds) == 15

    pend = hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)
    ds = hr.generate_dataset(pend, PEND_ICS, 0.1, 0.7, hr.NoiseSpec(0.01, 0),
                             include_t0=True)
    assert len(ds) == 24


def test_include_t0_flag_drops_initial_samples():
    msd = hr.mass_spring_damper(0.5, 1.0, 0.25)
    ds = hr.generate_dataset(msd, MSD_ICS, 0.25, 1.0, hr.NoiseSpec(0.0, 0),
                             include_t0=False)
    assert len(ds) == 12
    # none of the retained states is an initial condition
    for ic in MSD_ICS:
        assert not np.any(np.all(ds.states == ic, axis=1))


def test_noiseless_dataset_lies_on_the_flow():
    system = hr.mass_spring_damper(0.5, 1.0, 0.25)
    ds = hr.generate_dataset(system, MSD_ICS[:1], 0.25, 1.0, hr.NoiseSpec(0.0, 3),
                             include_t0=True)
    fine = hr.integrate_rk4(system.field, MSD_ICS[0], 0.25 / 25, 1.0)
    assert_allclose(ds.states, fine.states[::25], atol=1e-14)
    assert_array_equal(ds.derivatives, system.field(ds.states))


def test_dataset_generation_is_deterministic():
    system = hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)
    a = hr.generate_dataset(system, PEND_ICS, 0.1, 0.7, hr.NoiseSpec(0.01, 21),
                            include_t0=True)
    b = hr.generate_dataset(system, PEND_ICS, 0.1, 0.7, hr.NoiseSpec(0.01, 21),
                            include_t0=True)
    assert_array_equal(a.states, b.states)
    assert_array_equal(a.derivatives, b.derivatives)
    c = hr.generate_dataset(system, PEND_ICS, 0.1, 0.7, hr.NoiseSpec(0.01, 22),
                            include_t0=True)
    assert not np.array_equal(a.states, c.states)


def test_noise_perturbs_states_and_derivatives():
    system = hr.mass_spring_damper(0.5, 1.0, 0.25)
    clean = hr.generate_dataset(system, MSD_ICS, 0.25, 1.0, hr.NoiseSpec(0.0, 5),
                                include_t0=True)
    noisy = hr.generate_dataset(system, MSD_ICS, 0.25, 1.0, hr.NoiseSpec(0.1, 5),
                                include_t0=True)
    ds_state = noisy.states - clean.states
    ds_deriv = noisy.derivatives - clean.derivatives
    assert np.all(ds_state != 0) and np.all(ds_deriv != 0)
    # the perturbation scale matches sigma_n
    assert 0.03 < np.std(ds_state) < 0.3
    assert 0.03 < np.std(ds_deriv) < 0.3


def test_dataset_csv_round_trip(tmp_path):
    system = hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)
    ds = hr.generate_dataset(system, PEND_ICS, 0.1, 0.7, hr.NoiseSpec(0.01, 9),
                             include_t0=True)
    path = tmp_path / "train.csv"
    sy.dataset_to_csv(ds, path, comments=["protocol: pendulum"])
    text = path.read_text()
    assert text.splitlines()[0].startswith("#")
    assert "t,q,p,qdot,pdot,traj_id" in text
    back = sy.dataset_from_csv(path)
    assert_array_equal(back.states, ds.states)
    assert_array_equal(back.derivatives, ds.derivatives)


def test_dataset_json_round_trip():
    system = hr.mass_spring_damper(0.5, 1.0, 0.25)
    ds = hr.generate_dataset(system, MSD_ICS, 0.25, 1.0, hr.NoiseSpec(0.1, 13),
                             include_t0=True)
    doc = json.loads(json.dumps(ds.to_json()))
    back = hr.Dataset.from_json(doc)
    for column in ("states", "derivatives", "times", "traj_ids"):
        assert_array_equal(getattr(back, column), getattr(ds, column))
    # a fractional trajectory id is rejected, not truncated
    doc["traj_ids"][0] = 0.5
    with pytest.raises(ValueError, match="traj_ids"):
        hr.Dataset.from_json(doc)


def test_trajectories_csv(tmp_path):
    tr = sy.Trajectory(np.array([0.0, 0.1]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "traj.csv"
    sy.trajectories_to_csv([tr, tr], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q,p,traj_id"
    assert len(lines) == 5
    assert lines[-1].endswith(",1")
