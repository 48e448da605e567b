"""Benchmark dissipative mechanical systems, fixed-step integration, and
noisy training-set generation.
"""

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .regression import Dataset

CSV_HEADER = ["t", "q", "p", "qdot", "pdot", "traj_id"]


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system: exact field, exact energy, physical parameters."""

    name: str
    parameters: dict
    field: Callable[[np.ndarray], np.ndarray]
    hamiltonian: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray   # (T,), uniform step
    states: np.ndarray  # (T, n)


@dataclass(frozen=True)
class NoiseSpec:
    sigma_n: float
    seed: int

    def __post_init__(self):
        if self.sigma_n < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.sigma_n}")


def msd_field(x, m: float, k: float, d: float) -> np.ndarray:
    """Mass-spring-damper dynamics: qdot = p/m, pdot = -k q - (d/m) p."""
    q, p = np.asarray(x, dtype=float)
    return np.array([p / m, -k * q - (d / m) * p])


def pendulum_field(x, m: float, l: float, d: float, g: float) -> np.ndarray:
    """Damped pendulum dynamics: qdot = p/(m l^2), pdot = -m g l sin q - (d/(m l^2)) p."""
    q, p = np.asarray(x, dtype=float)
    return np.array([p / (m * l**2), -m * g * l * np.sin(q) - (d / (m * l**2)) * p])


def mass_spring_damper(m: float = 0.5, k: float = 1.0, d: float = 0.25) -> SystemSpec:
    if m <= 0 or k <= 0 or d < 0:
        raise ValueError(f"need m, k > 0 and damping >= 0, got m={m}, k={k}, d={d}")

    def hamiltonian(x):
        q, p = np.asarray(x, dtype=float)
        return 0.5 * p**2 / m + 0.5 * k * q**2

    return SystemSpec(
        name="msd",
        parameters={"m": m, "k": k, "d": d},
        field=lambda x: msd_field(x, m, k, d),
        hamiltonian=hamiltonian,
    )


def damped_pendulum(m: float = 1.0, l: float = 1.0, d: float = 1.2, g: float = 9.81) -> SystemSpec:
    if m <= 0 or l <= 0 or g <= 0 or d < 0:
        raise ValueError(f"need m, l, g > 0 and damping >= 0, got m={m}, l={l}, d={d}, g={g}")

    def hamiltonian(x):
        q, p = np.asarray(x, dtype=float)
        return 0.5 * p**2 / (m * l**2) + m * g * l * (1.0 - np.cos(q))

    return SystemSpec(
        name="pendulum",
        parameters={"m": m, "l": l, "d": d, "g": g},
        field=lambda x: pendulum_field(x, m, l, d, g),
        hamiltonian=hamiltonian,
    )


SYSTEM_FACTORIES = {"msd": mass_spring_damper, "pendulum": damped_pendulum}


def integrate_rk4(field, x0, h: float, t_end: float) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta from t = 0 to t_end.

    States are stored at every step, including the initial condition.
    """
    if h <= 0 or t_end <= 0 or h > t_end:
        raise ValueError(f"need 0 < h <= t_end, got h={h}, t_end={t_end}")
    steps = int(round(t_end / h))
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((steps + 1, x.size))
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


def sample_flow(system: SystemSpec, x0, h: float, t_end: float, sim_refine: int):
    """Times, states and exact derivatives every h along one trajectory.

    The system is integrated at step h/sim_refine and downsampled, so the
    samples track the continuous dynamics rather than coarse-step
    integrator error.
    """
    fine = integrate_rk4(system.field, x0, h / sim_refine, t_end)
    states = fine.states[::sim_refine]
    return fine.times[::sim_refine], states, np.array([system.field(x) for x in states])


def generate_dataset(system: SystemSpec, ics, h: float, t_end: float, noise: NoiseSpec,
                     include_t0: bool = True, sim_refine: int = 25) -> Dataset:
    """Simulate each initial condition and sample a noisy training set.

    Samples come from `sample_flow`: derivatives are the exact field at the
    noiseless states; i.i.d. Gaussian noise is then added to states and
    derivatives alike.  Each trajectory draws from its own child
    seed, so the result is reproducible point for point.
    """
    ics = [np.asarray(ic, dtype=float) for ic in ics]
    if not ics:
        raise ValueError("need at least one initial condition")
    child_seeds = np.random.SeedSequence(noise.seed).spawn(len(ics))
    states, derivs, times, traj_ids = [], [], [], []
    for traj_id, (ic, child) in enumerate(zip(ics, child_seeds)):
        grid_times, grid_states, grid_derivs = sample_flow(system, ic, h, t_end, sim_refine)
        if not include_t0:
            grid_times, grid_states, grid_derivs = grid_times[1:], grid_states[1:], grid_derivs[1:]
        rng = np.random.default_rng(child)
        grid_states = grid_states + rng.normal(0.0, noise.sigma_n, size=grid_states.shape)
        grid_derivs = grid_derivs + rng.normal(0.0, noise.sigma_n, size=grid_derivs.shape)
        states.append(grid_states)
        derivs.append(grid_derivs)
        times.append(grid_times)
        traj_ids.append(np.full(len(grid_times), traj_id, dtype=int))
    return Dataset(
        states=np.vstack(states),
        derivatives=np.vstack(derivs),
        times=np.concatenate(times),
        traj_ids=np.concatenate(traj_ids),
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
    for row in rows[1:]:
        t, q, p, qdot, pdot, tid = row
        times.append(float(t))
        states.append([float(q), float(p)])
        derivs.append([float(qdot), float(pdot)])
        ids.append(int(tid))
    return Dataset(np.array(states), np.array(derivs), np.array(times), np.array(ids))


def dataset_to_json(dataset: Dataset) -> dict:
    return {
        "states": dataset.states.tolist(),
        "derivatives": dataset.derivatives.tolist(),
        "times": None if dataset.times is None else dataset.times.tolist(),
        "traj_ids": None if dataset.traj_ids is None else dataset.traj_ids.tolist(),
    }


def dataset_from_json(doc: dict) -> Dataset:
    return Dataset(
        states=np.asarray(doc["states"], dtype=float),
        derivatives=np.asarray(doc["derivatives"], dtype=float),
        times=None if doc.get("times") is None else np.asarray(doc["times"], dtype=float),
        traj_ids=None if doc.get("traj_ids") is None else np.asarray(doc["traj_ids"], dtype=int),
    )


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
