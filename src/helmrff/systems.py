"""Benchmark dissipative mechanical systems, fixed-step integration, and
noisy training-set generation.
"""

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import finite_array, integer_at_least, positive_finite
from .regression import Dataset

CSV_HEADER = ["t", "q", "p", "qdot", "pdot", "traj_id"]

# Samples are integrated at step h / SIM_REFINE and downsampled to step h; a multiple of the 5-step windows below.
SIM_REFINE = 25

# A fine trajectory's state error: one RK4 step over each 5-step window misses the fine steps by about 5^4 times their
# error (Hairer, Norsett & Wanner I, II.4), summed relative to the start's largest |x|.  Followed steps read <= 0.012
# (msd k 400, h 0.25, t_end 1), others >= 0.155 (undamped pendulum from (0.5, 0), h 10): 3.4x and 3.9x from the bound.
# By the largest or each window's |x| a blow-up hides: msd k 400, h 5 reads 1.6e-3 or 0.032; pendulum h 4 1.9e-3, 0.026.
_ACCURACY_RTOL = 4e-2


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system: one degree of freedom with energy H(q, p) = p²/(2M) + V(q) and linear damping d on
    the momentum, that is x' = (J - R) grad H with R = diag(0, d).  States are 2-D, (q, p): `field` and
    `hamiltonian` take one state (2,) or any batch (..., 2)."""

    name: str
    mass: float                                     # M
    damping: float                                  # d >= 0
    potential: Callable[[np.ndarray], np.ndarray]   # V(q)
    dpotential: Callable[[np.ndarray], np.ndarray]  # V'(q)

    def field(self, x):
        """(qdot, pdot) = (p/M, -V'(q) - (d/M) p): derivatives (..., 2)."""
        q, p = np.asarray(x, dtype=float).T
        return np.array([p / self.mass, -self.dpotential(q) - (self.damping / self.mass) * p]).T

    def hamiltonian(self, x):
        """H = p²/(2M) + V(q): energies (...)."""
        q, p = np.asarray(x, dtype=float).T
        return (0.5 * (p * p) / self.mass + self.potential(q)).T


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray   # (T,), uniform step
    states: np.ndarray  # (T, n), or (T, B, n) for a batch of B initial conditions


@dataclass(frozen=True)
class NoiseSpec:
    sigma_n: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "sigma_n", positive_finite("noise level", self.sigma_n, zero_ok=True))
        object.__setattr__(self, "seed", integer_at_least("seed", self.seed, 0))


def mass_spring_damper(m: float = 0.5, k: float = 1.0, d: float = 0.25) -> SystemSpec:
    """Mass-spring-damper, M = m and V = k q²/2: qdot = p/m, pdot = -k q - (d/m) p."""
    m, k, d = positive_finite("m", m), positive_finite("k", k), positive_finite("damping d", d, zero_ok=True)
    return SystemSpec("msd", m, d, lambda q: 0.5 * k * (q * q), lambda q: k * q)


def damped_pendulum(m: float = 1.0, l: float = 1.0, d: float = 1.2, g: float = 9.81) -> SystemSpec:
    """Damped pendulum, M = m l² and V = m g l (1 - cos q): qdot = p/(m l²), pdot = -m g l sin q - (d/(m l²)) p."""
    m, l, g = (positive_finite(name, value) for name, value in (("m", m), ("l", l), ("g", g)))
    d = positive_finite("damping d", d, zero_ok=True)
    return SystemSpec("pendulum", m * l**2, d, lambda q: m * g * l * (1.0 - np.cos(q)), lambda q: m * g * l * np.sin(q))


SYSTEM_FACTORIES = {"msd": mass_spring_damper, "pendulum": damped_pendulum}


def whole_steps(h: float, t_end: float) -> int:
    """The number of steps h from t = 0 that end at t_end.

    t_end / h must be a whole number to a relative 1e-9; any other span
    would end before or past t_end, so it raises.
    """
    if h <= 0 or t_end <= 0 or h > t_end:
        raise ValueError(f"need 0 < h <= t_end, got h={h}, t_end={t_end}")
    ratio = t_end / h
    if not (ratio < np.inf and abs(ratio - round(ratio)) <= 1e-9 * ratio):
        raise ValueError(f"t_end={t_end} is not a whole number of steps h={h} (t_end / h = {ratio:.12g})")
    return round(ratio)


def _rk4_step(field, x, h: float):
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + field(x + h * k3))


def integrate_rk4(field, x0, h: float, t_end: float) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta from t = 0 to t_end.

    `x0` is one finite state (n,) or a batch (B, n) stepped together; states (T, n)
    or (T, B, n) are stored at every step, including the initial condition.
    t_end must be a whole number of steps h (see `whole_steps`).
    """
    steps = whole_steps(h, t_end)
    x = finite_array("x0", x0, (None,) * np.asarray(x0, object).ndim).copy()  # as objects, a ragged x0 has a rank
    states = np.empty((steps + 1,) + x.shape)
    states[0] = x
    for step in range(steps):
        x = _rk4_step(field, x, h)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"integration diverged at step {step + 1} (t={h * (step + 1):g})")
        states[step + 1] = x
    return Trajectory(times=h * np.arange(steps + 1), states=states)


def sample_flow(system: SystemSpec, x0, h: float, t_end: float):
    """Times, states and exact derivatives every h from x0, one state (n,) or a batch (B, n), and the
    fine `Trajectory` they are sampled from.

    The system is integrated at step h/SIM_REFINE and downsampled, so the samples track the continuous dynamics
    rather than coarse-step integrator error.  t_end must be a whole number of steps h (see `whole_steps`).  A
    trajectory whose state error estimate is not finite or past _ACCURACY_RTOL raises FloatingPointError.
    """
    whole_steps(h, t_end)  # the fine grid alone would pass a t_end off the sampling grid
    fine = integrate_rk4(system.field, x0, h / SIM_REFINE, t_end)
    x = fine.states.reshape(len(fine.times), -1, fine.states.shape[-1])  # (T, B, n)
    with np.errstate(all="ignore"):  # a step that overflows reads as inf or NaN and fails the check
        error = np.abs(_rk4_step(system.field, x[:-1:5], 5 * h / SIM_REFINE) - x[5::5]).max(axis=-1).sum(axis=0) / 5**4
        estimate = np.divide(error, np.abs(x[0]).max(axis=-1), out=np.zeros_like(error), where=error != 0).max()
    if not estimate <= _ACCURACY_RTOL:  # no error reads 0, even from a start at the origin, which stays there
        raise FloatingPointError(f"its estimated state error is {estimate:.3g} of its start state, above the "
                                 f"tolerance {_ACCURACY_RTOL:g}")
    states = fine.states[::SIM_REFINE]
    return fine.times[::SIM_REFINE], states, system.field(states), fine


def generate_dataset(system: SystemSpec, ics, h: float, t_end: float, noise: NoiseSpec,
                     include_t0: bool = True) -> Dataset:
    """Simulate all initial conditions as one batch and sample a noisy training set.

    Samples come from `sample_flow`: derivatives are the exact field at the
    noiseless states, to which `add_noise` adds the noise.
    """
    ics = finite_array("initial conditions", ics, (None, None))
    return add_noise(sample_flow(system, ics, h, t_end), noise, include_t0)


def add_noise(flow, noise: NoiseSpec, include_t0: bool = True) -> Dataset:
    """The noisy training set of a batch flow, `sample_flow`'s times (T,), states and derivatives (T, B, n)
    and its fine trajectory, which is not read.

    i.i.d. Gaussian noise is added to the states, then to the derivatives, from
    one child seed per trajectory, so the result is reproducible point for
    point; the flow itself is left as it is, so one flow serves every seed.
    """
    times, states, derivs, _ = flow
    if not include_t0:
        times, states, derivs = times[1:], states[1:], derivs[1:]
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(noise.seed).spawn(states.shape[1])]
    noisy = [[x[:, b] + rng.normal(0.0, noise.sigma_n, size=x[:, b].shape) for x in (states, derivs)]
             for b, rng in enumerate(rngs)]
    return Dataset(
        states=np.vstack([s for s, _ in noisy]),
        derivatives=np.vstack([d for _, d in noisy]),
        times=np.tile(times, len(rngs)),
        traj_ids=np.repeat(np.arange(len(rngs)), len(times)),
    )


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write `# comment` lines, then a header and rows in the csv module's dialect.

    Floats are written as their repr, so values read back exactly.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments or [])
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def dataset_to_csv(dataset: Dataset, path, comments: list[str] | None = None) -> None:
    """Write a 2-D dataset as `t,q,p,qdot,pdot,traj_id` rows."""
    if dataset.dim != 2:
        raise ValueError(f"CSV schema is for 2-D phase spaces, got dimension {dataset.dim}")
    times = dataset.times if dataset.times is not None else np.zeros(len(dataset))
    ids = dataset.traj_ids if dataset.traj_ids is not None else np.zeros(len(dataset), dtype=int)
    rows = ([t, x[0], x[1], xdot[0], xdot[1], int(tid)]
            for t, x, xdot, tid in zip(times, dataset.states, dataset.derivatives, ids))
    write_csv(path, CSV_HEADER, rows, comments)


def dataset_from_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)} in {path}")
    samples = [(float(t), [float(q), float(p)], [float(qdot), float(pdot)], int(tid))
               for t, q, p, qdot, pdot, tid in rows[1:]]
    times, states, derivs, ids = zip(*samples) if samples else ([],) * 4
    return Dataset(states, derivs, times, ids)


def trajectories_to_csv(trajectories: list[Trajectory], path, comments: list[str] | None = None) -> None:
    """Write rollouts as `t,q,p,traj_id` rows for plotting."""
    rows = ([t, x[0], x[1], tid] for tid, traj in enumerate(trajectories)
            for t, x in zip(traj.times, traj.states))
    write_csv(path, ["t", "q", "p", "traj_id"], rows, comments)


def json_dump(doc: dict, path) -> None:
    """Write a JSON artifact with deterministic key order."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
