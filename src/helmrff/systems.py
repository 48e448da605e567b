"""Benchmark dissipative mechanical systems, fixed-step integration, and
noisy training-set generation.
"""

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import finite_array, integer_at_least
from .regression import Dataset

CSV_HEADER = ["t", "q", "p", "qdot", "pdot", "traj_id"]

# Samples are integrated at step h / SIM_REFINE and downsampled to step h.
SIM_REFINE = 25


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system: its name, exact field and exact energy."""

    name: str
    field: Callable[[np.ndarray], np.ndarray]        # states (..., n) -> derivatives (..., n)
    hamiltonian: Callable[[np.ndarray], np.ndarray]  # states (..., n) -> energies (...)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray   # (T,), uniform step
    states: np.ndarray  # (T, n), or (T, B, n) for a batch of B initial conditions


@dataclass(frozen=True)
class NoiseSpec:
    sigma_n: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.sigma_n < np.inf:
            raise ValueError(f"noise level must be nonnegative and finite, got {self.sigma_n}")
        object.__setattr__(self, "seed", integer_at_least("seed", self.seed, 0))


def mass_spring_damper(m: float = 0.5, k: float = 1.0, d: float = 0.25) -> SystemSpec:
    """Mass-spring-damper: qdot = p/m, pdot = -k q - (d/m) p."""
    if not (0 < m < np.inf and 0 < k < np.inf and 0 <= d < np.inf):
        raise ValueError(f"need m, k > 0 and damping >= 0, all finite, got m={m}, k={k}, d={d}")

    def field(x):
        q, p = np.asarray(x, dtype=float).T
        return np.array([p / m, -k * q - (d / m) * p]).T

    def hamiltonian(x):
        q, p = np.asarray(x, dtype=float).T
        return (0.5 * (p * p) / m + 0.5 * k * (q * q)).T

    return SystemSpec("msd", field, hamiltonian)


def damped_pendulum(m: float = 1.0, l: float = 1.0, d: float = 1.2, g: float = 9.81) -> SystemSpec:
    """Damped pendulum: qdot = p/(m l^2), pdot = -m g l sin q - (d/(m l^2)) p."""
    if not (0 < m < np.inf and 0 < l < np.inf and 0 < g < np.inf and 0 <= d < np.inf):
        raise ValueError(f"need m, l, g > 0 and damping >= 0, all finite, got m={m}, l={l}, d={d}, g={g}")

    def field(x):
        q, p = np.asarray(x, dtype=float).T
        return np.array([p / (m * l**2), -m * g * l * np.sin(q) - (d / (m * l**2)) * p]).T

    def hamiltonian(x):
        q, p = np.asarray(x, dtype=float).T
        return (0.5 * (p * p) / (m * l**2) + m * g * l * (1.0 - np.cos(q))).T

    return SystemSpec("pendulum", field, hamiltonian)


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
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"integration diverged at step {step + 1} (t={h * (step + 1):g})")
        states[step + 1] = x
    return Trajectory(times=h * np.arange(steps + 1), states=states)


def sample_flow(system: SystemSpec, x0, h: float, t_end: float):
    """Times, states and exact derivatives every h from x0, one state (n,) or a batch (B, n).

    The system is integrated at step h/SIM_REFINE and downsampled, so the
    samples track the continuous dynamics rather than coarse-step
    integrator error.  t_end must be a whole number of steps h (see `whole_steps`).
    """
    whole_steps(h, t_end)  # the fine grid alone would pass a t_end off the sampling grid
    fine = integrate_rk4(system.field, x0, h / SIM_REFINE, t_end)
    states = fine.states[::SIM_REFINE]
    return fine.times[::SIM_REFINE], states, system.field(states)


def generate_dataset(system: SystemSpec, ics, h: float, t_end: float, noise: NoiseSpec,
                     include_t0: bool = True) -> Dataset:
    """Simulate all initial conditions as one batch and sample a noisy training set.

    Samples come from `sample_flow`: derivatives are the exact field at the
    noiseless states; i.i.d. Gaussian noise is then added to the states, then
    to the derivatives, from one child seed per trajectory, so the result is
    reproducible point for point.
    """
    ics = finite_array("initial conditions", ics, (None, None))
    times, states, derivs = sample_flow(system, ics, h, t_end)
    if not include_t0:
        times, states, derivs = times[1:], states[1:], derivs[1:]
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(noise.seed).spawn(len(ics))]
    noisy = [[x[:, b] + rng.normal(0.0, noise.sigma_n, size=x[:, b].shape) for x in (states, derivs)]
             for b, rng in enumerate(rngs)]
    return Dataset(
        states=np.vstack([s for s, _ in noisy]),
        derivatives=np.vstack([d for _, d in noisy]),
        times=np.tile(times, len(ics)),
        traj_ids=np.repeat(np.arange(len(ics)), len(times)),
    )


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write `# comment` lines, then a header and rows in the csv module's dialect.

    Floats are written as their repr, so values read back exactly.
    """
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def dataset_to_csv(dataset: Dataset, path, comments: list[str] | None = None) -> None:
    """Write a 2-D dataset as `t,q,p,qdot,pdot,traj_id` rows."""
    if dataset.dim != 2:
        raise ValueError(f"CSV schema is for 2-D phase spaces, got dimension {dataset.dim}")
    N = len(dataset)
    times = dataset.times if dataset.times is not None else np.zeros(N)
    ids = dataset.traj_ids if dataset.traj_ids is not None else np.zeros(N, dtype=int)
    rows = ([t, x[0], x[1], xdot[0], xdot[1], int(tid)]
            for t, x, xdot, tid in zip(times, dataset.states, dataset.derivatives, ids))
    write_csv(path, CSV_HEADER, rows, comments)


def dataset_from_csv(path) -> Dataset:
    times, states, derivs, ids = [], [], [], []
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)} in {path}")
    for t, q, p, qdot, pdot, tid in rows[1:]:
        times.append(float(t))
        states.append([float(q), float(p)])
        derivs.append([float(qdot), float(pdot)])
        ids.append(int(tid))
    return Dataset(states, derivs, times, ids)


def dataset_to_json(dataset: Dataset) -> dict:
    return {
        "states": dataset.states.tolist(),
        "derivatives": dataset.derivatives.tolist(),
        "times": None if dataset.times is None else dataset.times.tolist(),
        "traj_ids": None if dataset.traj_ids is None else dataset.traj_ids.tolist(),
    }


def dataset_from_json(doc: dict) -> Dataset:
    return Dataset(doc["states"], doc["derivatives"], doc.get("times"), doc.get("traj_ids"))


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
