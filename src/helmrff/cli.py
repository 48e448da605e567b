"""Experiment command line: simulate datasets, fit and evaluate models, and
reproduce the two benchmark studies end to end.

Every artifact embeds the resolved configuration and seeds (see `_write`), so
re-running a command with the same inputs rewrites identical files.
"""

import argparse
import contextlib
import copy
import ctypes
import inspect
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import evaluation as ev
from . import regression as rg
from . import systems as sy
from .features import grid_limits, split_seed
from .kernels import finite_number

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2

SIGMA_RANGE = (1e-6, 1e6)

NOTES = {
    "test_mse": "field-space MSE at noiseless states along the test trajectory",
    "baseline": "random-feature Gaussian-separable map with matched feature budget",
}

# Reproduction gates checked on the median over master seeds.
THRESHOLDS = {
    "msd": (
        ("helmholtz test MSE <= 0.05",
         lambda med: med["helmholtz"]["test_mse"] <= 0.05),
        ("helmholtz test MSE <= 0.5 x gaussian test MSE",
         lambda med: med["helmholtz"]["test_mse"] <= 0.5 * med["gaussian"]["test_mse"]),
    ),
    "pendulum": (
        ("helmholtz training MSE <= 0.01",
         lambda med: med["helmholtz"]["train_mse"] <= 0.01),
        ("helmholtz test MSE <= 0.01",
         lambda med: med["helmholtz"]["test_mse"] <= 0.01),
        ("gaussian test MSE >= 100 x helmholtz test MSE",
         lambda med: med["gaussian"]["test_mse"] >= 100.0 * med["helmholtz"]["test_mse"]),
    ),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


def _fail(key: str, message: str):
    raise ConfigError(f"config key '{key}': {message}")


_REQUIRED = object()


def _lookup(doc: dict, key: str, default=_REQUIRED):
    """Follow a dotted key through nested mappings; a missing key fails unless defaulted."""
    node = doc
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                _fail(key, "missing")
            return default
        node = node[part]
    return node


def _check(key: str, check, *args):
    """check(*args), with a ValueError raised as a ConfigError naming `key`."""
    try:
        return check(*args)
    except ValueError as err:
        _fail(key, str(err))


def _number(doc: dict, key: str, minimum=None, default=_REQUIRED, integer=False) -> float | int:
    """A finite number as a float, or with `integer` a whole number (such as 25 or 25.0) as an int."""
    node = _lookup(doc, key, default)
    if not finite_number(node) or integer and not float(node).is_integer():
        _fail(key, f"expected {'an integer' if integer else 'a finite number'}, got {node!r}")
    if minimum is not None and node < minimum:
        _fail(key, f"must be >= {minimum}, got {node}")
    return int(node) if integer else float(node)


def _point(node, key: str) -> np.ndarray:
    if not isinstance(node, (list, tuple)) or len(node) != 2 or not all(map(finite_number, node)):
        _fail(key, f"expected a [q, p] pair of finite numbers, got {node!r}")
    return np.asarray(node, dtype=float)


def _end_time(doc: dict, key: str, h: float) -> float:
    t_end = _number(doc, key, minimum=h)
    _check(key, sy.whole_steps, h, t_end)
    return t_end


def _reject_unknown(doc: dict, known: dict, prefix: str = ""):
    """Fail on the first key of `doc` missing from `known`, at every level where both are mappings."""
    for key, node in doc.items():
        if key not in known:
            _fail(f"{prefix}{key}", f"unknown key; expected one of {sorted(known)}")
        if isinstance(node, dict) and isinstance(known[key], dict):
            _reject_unknown(node, known[key], f"{prefix}{key}.")


def _check_sigma_range(key: str, values):
    lo, hi = SIGMA_RANGE
    for v in np.atleast_1d(values):
        if not (lo <= v <= hi):
            _fail(key, f"kernel width {v:g} outside the supported range [{lo:g}, {hi:g}]")


# The ridge-weight keys of a fixed hyperparameter block, by model.
FIXED_LAMBDAS = {"helmholtz": ("lambda1", "lambda2"), "gaussian": ("lambda",)}


def _key(dotted: str, convert=lambda node: node) -> property:
    """A read-only attribute holding one dotted key of the resolved document."""
    return property(lambda self: convert(_lookup(self.doc, dotted)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description.

    `doc` is the resolved document, every default filled in: the config echoed
    into every artifact, which parses back to itself.
    """

    doc: dict

    system_name = _key("system.name")
    initial_conditions = _key("data.initial_conditions", np.array)
    h = _key("data.h")
    t_end = _key("data.t_end")
    include_t0 = _key("data.include_t0")
    noise_sigma = _key("data.noise_sigma")
    test_x0 = _key("test.x0", np.array)
    test_h = _key("test.h")
    test_t_end = _key("test.t_end")
    d = _key("model.d")
    folds = _key("search.folds")
    sigma_grid = _key("search.sigma_grid", np.array)
    lambda_grid = _key("search.lambda_grid", np.array)
    seed = _key("seed")
    output_dir = _key("output_dir")
    figure_bounds = _key("figure.bounds", lambda bounds: tuple(map(tuple, bounds)))
    figure_resolution = _key("figure.resolution")

    def make_system(self) -> sy.SystemSpec:
        params = dict(self.doc["system"])
        return sy.SYSTEM_FACTORIES[params.pop("name")](**params)

    def fixed(self, model: str) -> rg.Hyperparameters | None:
        """The fixed hyperparameters of 'helmholtz' or 'gaussian', or None if they are tuned."""
        block = self.doc["hyperparameters"][model]
        if block is None:
            return None
        return rg.Hyperparameters(block["sigma"], *(block[k] for k in FIXED_LAMBDAS[model]), d=self.d)

    @cached_property
    def test_set(self) -> rg.Dataset:
        """Noiseless samples along the test trajectory; the same for every seed, so built once."""
        return ev.make_test_set(self.make_system(), self.test_x0, self.test_h, self.test_t_end)

    def search_space(self, baseline: bool) -> ev.SearchSpace:
        return ev.SearchSpace(
            sigmas=self.sigma_grid,
            lambda1s=self.lambda_grid,
            lambda2s=None if baseline else self.lambda_grid,
            folds=self.folds,
            d=self.d,
        )

    def resolved(self) -> dict:
        """Plain-data echo of the configuration for embedding in artifacts."""
        return copy.deepcopy(self.doc)


def _log_grid(doc: dict, key: str, default) -> np.ndarray:
    """The search grid at `key`: a list, or a log-grid mapping expanded to one, of positive finite numbers."""
    node = _lookup(doc, key, None)
    if node is None:
        return default
    if isinstance(node, dict):
        _reject_unknown(node, dict.fromkeys(("log10_start", "log10_stop", "count")), f"{key}.")
        count = _number(doc, f"{key}.count", minimum=1, integer=True)
        with np.errstate(over="ignore"):  # an overflow to inf fails the check below
            node = np.logspace(_number(doc, f"{key}.log10_start"), _number(doc, f"{key}.log10_stop"), count).tolist()
    if not (isinstance(node, list) and node and all(finite_number(v) and v > 0 for v in node)):
        _fail(key, f"expected a non-empty list of positive finite numbers, got {node!r}")
    return np.asarray(node, dtype=float)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment file.

    Syntax errors keep PyYAML's line/column marks; semantic errors name the
    offending key.
    """
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {path}: {err}")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _resolve(doc)


def _resolve(doc: dict) -> ExperimentConfig:
    """Check every key of a config document and fill in the defaults."""
    name = _lookup(doc, "system.name")
    if name not in sy.SYSTEM_FACTORIES:
        _fail("system.name", f"unknown system {name!r}; choose from {sorted(sy.SYSTEM_FACTORIES)}")
    factory = sy.SYSTEM_FACTORIES[name]
    params = {p: _number(doc, f"system.{p}") for p in inspect.signature(factory).parameters}
    _check("system", factory, *params.values())

    ic_node = _lookup(doc, "data.initial_conditions")
    if not isinstance(ic_node, list) or not ic_node:
        _fail("data.initial_conditions", "expected a non-empty list of [q, p] pairs")
    ics = np.array([_point(ic, f"data.initial_conditions[{i}]") for i, ic in enumerate(ic_node)])

    h = _number(doc, "data.h", minimum=1e-12)
    t_end = _end_time(doc, "data.t_end", h)
    include_t0 = _lookup(doc, "data.include_t0", True)
    if not isinstance(include_t0, bool):
        _fail("data.include_t0", f"expected a boolean, got {include_t0!r}")
    noise_sigma = _number(doc, "data.noise_sigma", minimum=0.0)

    test_x0 = _point(_lookup(doc, "test.x0"), "test.x0")
    test_h = _number(doc, "test.h", minimum=1e-12, default=h)
    test_t_end = _end_time(doc, "test.t_end", test_h)

    d = _number(doc, "model.d", minimum=1, default=200.0, integer=True)
    if d % 2:
        _fail("model.d", f"feature budget must be even so the baseline map splits over both outputs, got {d}")

    folds = _number(doc, "search.folds", minimum=2, default=5.0, integer=True)
    defaults = ev.default_search_space()
    sigma_grid = _log_grid(doc, "search.sigma_grid", defaults.sigmas)
    lambda_grid = _log_grid(doc, "search.lambda_grid", defaults.lambda1s)
    _check_sigma_range("search.sigma_grid", sigma_grid)

    fixed = dict.fromkeys(FIXED_LAMBDAS)
    for model, lambda_keys in FIXED_LAMBDAS.items():
        key = f"hyperparameters.{model}"
        if _lookup(doc, key, None) is not None:
            sigma = _number(doc, f"{key}.sigma", minimum=SIGMA_RANGE[0])
            _check_sigma_range(f"{key}.sigma", sigma)
            fixed[model] = {"sigma": sigma, **{k: _number(doc, f"{key}.{k}", minimum=1e-300) for k in lambda_keys}}

    seed = _number(doc, "seed", minimum=0.0, default=0.0, integer=True)
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        _fail("output_dir", f"expected a non-empty string, got {output_dir!r}")

    resolution = _number(doc, "figure.resolution", minimum=2, default=25.0, integer=True)
    bounds = _lookup(doc, "figure.bounds", [[-4.0, 4.0], [-4.0, 4.0]])
    bounds = _check("figure.bounds", grid_limits, bounds, resolution).tolist()

    resolved = {
        "system": {"name": name, **params},
        "data": {"initial_conditions": ics.tolist(), "h": h, "t_end": t_end,
                 "include_t0": include_t0, "noise_sigma": noise_sigma},
        "test": {"x0": test_x0.tolist(), "h": test_h, "t_end": test_t_end},
        "model": {"d": d},
        "search": {"folds": folds, "sigma_grid": sigma_grid.tolist(), "lambda_grid": lambda_grid.tolist()},
        # A fixed block in the keys the reader takes; a tuned one as null.
        "hyperparameters": fixed,
        "seed": seed,
        "output_dir": output_dir,
        "figure": {"bounds": bounds, "resolution": resolution},
    }
    # The echo holds every key the reader takes, defaults included.
    _reject_unknown(doc, resolved)
    return ExperimentConfig(resolved)


def bundled_config_path(experiment: str) -> Path:
    return Path(resources.files("helmrff") / "configs" / f"{experiment}.yaml")


def _seed_map(master: int) -> dict:
    noise, helm, base, cv = split_seed(master, 4)
    return {"master": master, "noise": noise, "helmholtz_fit": helm,
            "gaussian_fit": base, "cv_shuffle": cv}


def simulate_dataset(config: ExperimentConfig, master: int) -> rg.Dataset:
    seeds = _seed_map(master)
    return sy.generate_dataset(
        config.make_system(), config.initial_conditions, config.h, config.t_end,
        sy.NoiseSpec(config.noise_sigma, seeds["noise"]), config.include_t0,
    )


def run_protocol(config: ExperimentConfig, master: int, dataset: rg.Dataset | None = None) -> dict:
    """Tune (unless fixed), fit both models, and evaluate on the test set."""
    seeds = _seed_map(master)
    if dataset is None:
        dataset = simulate_dataset(config, master)
    hyper_h, hyper_g = (config.fixed(model) or
                        ev.cross_validate(dataset, config.search_space(model == "gaussian"), seeds["cv_shuffle"])
                        for model in FIXED_LAMBDAS)
    models = {"helmholtz": rg.fit_helmholtz(dataset, hyper_h, seeds["helmholtz_fit"]),
              "gaussian": rg.fit_baseline(dataset, hyper_g, seeds["gaussian_fit"])}
    reports = {f"report_{kind}": ev.evaluate_model(model, dataset, config.test_set, config.system_name, master, NOTES)
               for kind, model in models.items()}
    return {"seeds": seeds, "dataset": dataset, **models, **reports}


def _read(flag: str, path, load):
    """load(path), with any failure to read, parse or check the file raised as one ConfigError naming `flag`."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"{flag}: cannot load {path}: {type(err).__name__}: {err}")


def _load_dataset(path) -> rg.Dataset:
    if Path(path).suffix == ".csv":
        return sy.dataset_from_csv(path)
    doc = json.loads(Path(path).read_text())
    return sy.dataset_from_json(doc["data"] if "data" in doc else doc)


def _load_model(path) -> rg.HelmholtzModel | rg.BaselineModel:
    doc = json.loads(Path(path).read_text())
    return rg.MODELS[doc["model"]].from_json(doc)


def _check_data(config: ExperimentConfig, dataset: rg.Dataset | None, model=None) -> None:
    """Fail on training data or a saved `model` of another state dimension than the config's, naming `--data` or
    `--model`, and, when tuning (no `model`), on fewer samples than folds, naming `--data` or `search.folds`."""
    n = config.initial_conditions.shape[1]
    for flag, source in (("--data", dataset), ("--model", model)):
        if source is not None and source.dim != n:
            raise ConfigError(f"{flag}: state dimension {source.dim} does not match the config's {n}")
    count = len(dataset) if dataset is not None else len(config.initial_conditions) * (
        sy.whole_steps(config.h, config.t_end) + config.include_t0)
    if model is None and None in config.doc["hyperparameters"].values() and count < config.folds:
        where = "--data" if dataset is not None else "config key 'search.folds'"
        raise ConfigError(f"{where}: {count} training sample(s) cannot fill the {config.folds} folds of the search")


def _summary_lines(rows: list[dict], title: str) -> list[str]:
    lines = [title, f"{'model':<12}{'train MSE':>14}{'test MSE':>14}"]
    for row in rows:
        lines.append(f"{row['model']:<12}{row['train_mse']:>14.6g}{row['test_mse']:>14.6g}")
    return lines


def _setup(args, config: ExperimentConfig) -> tuple[int, Path]:
    """Resolve the master seed and create the output directory, once every flag has been checked."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    master = config.seed if args.seed is None else args.seed
    out = Path(args.out or config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        where = "--out" if args.out else "config key 'output_dir'"
        raise ConfigError(f"{where}: cannot create {out}: {type(err).__name__}: {err}")
    return master, out


def _write(out: Path, config: ExperimentConfig, seeds, files: dict) -> None:
    """Write each file of a command's `{name: content}` manifest under `out`, stamped with the config and seeds.

    A dict is a JSON document with `config` and `seeds` keys, its own keys winning; a list
    of lines is text led by `config: ...` and `seeds: ...` lines (`# `-prefixed in a CSV);
    a `(writer, obj)` pair is written by `writer(obj, path, lines)`, which prefixes them.
    """
    stamp = {"config": config.resolved(), "seeds": seeds}
    lines = [f"{key}: {json.dumps(value, sort_keys=True)}" for key, value in stamp.items()]
    for name, content in files.items():
        path = out / name
        if isinstance(content, dict):
            sy.json_dump({**stamp, **content}, path)
        elif isinstance(content, list):
            prefix = "# " if path.suffix == ".csv" else ""
            path.write_text("\n".join([prefix + line for line in lines] + content) + "\n")
        else:
            writer, obj = content
            writer(obj, path, lines)


def cmd_simulate(args) -> int:
    config = parse_config(args.config)
    master, out = _setup(args, config)
    dataset = simulate_dataset(config, master)
    fine = sy.integrate_rk4(config.make_system().field, config.initial_conditions,
                            config.h / sy.SIM_REFINE, config.t_end)
    plot = [sy.Trajectory(fine.times[::5], states) for states in fine.states[::5].swapaxes(0, 1)]
    _write(out, config, _seed_map(master), {"train.csv": (sy.dataset_to_csv, dataset),
                                            "train.json": {"data": sy.dataset_to_json(dataset)},
                                            "trajectories.csv": (sy.trajectories_to_csv, plot)})
    print(f"N = {len(dataset)}")
    return EXIT_OK


def _fix_hypers(config: ExperimentConfig, text: str) -> ExperimentConfig:
    """The config with both models fixed to the `--fixed-hypers` values, if given, read back by `_resolve`."""
    if not text:
        return config
    doc = config.resolved()
    try:
        sigma, lam1, lam2 = (float(v) for v in text.split(","))
        doc["hyperparameters"] = {"helmholtz": {"sigma": sigma, "lambda1": lam1, "lambda2": lam2},
                                  "gaussian": {"sigma": sigma, "lambda": lam1}}
        return _resolve(doc)
    except ValueError as err:
        raise ConfigError(f"--fixed-hypers expects 'sigma,lambda1,lambda2', got {text!r}: {err}")


def cmd_fit(args) -> int:
    dataset = _read("--data", args.data, _load_dataset) if args.data else None
    config = _fix_hypers(parse_config(args.config), args.fixed_hypers)
    _check_data(config, dataset)
    master, out = _setup(args, config)
    result = run_protocol(config, master, dataset)
    reports = [result[f"report_{kind}"] for kind in FIXED_LAMBDAS]
    _write(out, config, result["seeds"], {**{f"model_{kind}.json": result[kind].to_json() for kind in FIXED_LAMBDAS},
                                          "eval_report.json": {"reports": reports}})
    print("\n".join(_summary_lines(reports, f"system: {config.system_name}  seed: {master}")))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _read("--model", args.model, _load_model)
    dataset = _read("--data", args.data, _load_dataset) if args.data else None
    config = parse_config(args.config)
    _check_data(config, dataset, model)
    master, out = _setup(args, config)
    if dataset is None:
        dataset = simulate_dataset(config, master)
    reports = [ev.evaluate_model(model, dataset, config.test_set, config.system_name, master, NOTES)]
    _write(out, config, _seed_map(master), {"eval_report.json": {"reports": reports}})
    print("\n".join(_summary_lines(reports, f"system: {config.system_name}  seed: {master}")))
    return EXIT_OK


def _median_summary(reports: list[dict]) -> dict:
    return {kind: {mse: float(np.median([r[mse] for r in reports if r["model"] == kind]))
                   for mse in ("train_mse", "test_mse")}
            for kind in ("helmholtz", "gaussian")}


def cmd_reproduce(args) -> int:
    for flag, value in (("--seeds", args.seeds), ("--jobs", args.jobs)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    config = parse_config(args.config or bundled_config_path(args.experiment))
    if config.system_name != args.experiment:
        raise ConfigError(f"--config is for system {config.system_name!r}, not {args.experiment!r}")
    _check_data(config, None)
    base_seed, out = _setup(args, config)
    masters = [base_seed + i for i in range(args.seeds)]

    # Per-seed runs are pure; gather in seed order so aggregation is stable.  The shared
    # test set is built first: from Python 3.12 cached_property takes no lock.
    config.test_set
    with ThreadPoolExecutor(max_workers=min(args.jobs, len(masters))) as pool:
        results = list(pool.map(lambda m: run_protocol(config, m), masters))

    reports = [result[f"report_{kind}"] for result in results for kind in FIXED_LAMBDAS]
    medians = _median_summary(reports)

    title = f"experiment: {config.system_name}  (median over {len(masters)} seeds)"
    rows = [{"model": kind, **medians[kind]} for kind in ("gaussian", "helmholtz")]
    checks = [(desc, bool(check(medians))) for desc, check in THRESHOLDS[config.system_name]]
    summary_text = _summary_lines(rows, title) + [f"{'PASS' if ok else 'FAIL'}: {desc}" for desc, ok in checks]

    first = results[0]
    _write(out, config, first["seeds"], {
        "summary.csv": ["system,model,train_mse,test_mse,seed,d,sigma,lambda1,lambda2"] + [
            f"{r['system']},{r['model']},{r['train_mse']!r},{r['test_mse']!r},{r['seed']},{r['hyper']['d']},"
            f"{r['hyper']['sigma']!r},{r['hyper']['lambda1']!r},{r['hyper']['lambda2']!r}" for r in reports],
        "summary.txt": summary_text,
        **{f"grid_{label}.csv": (ev.stream_grid_to_csv,
                                 ev.stream_grid(field, config.figure_bounds, config.figure_resolution))
           for label, field in (("true", config.make_system().field), ("gaussian", first["gaussian"]),
                                ("helmholtz", first["helmholtz"]))},
        "grid_data.csv": (sy.dataset_to_csv, first["dataset"]),
        "report.json": {"seeds": [r["seeds"] for r in results], "medians": medians, "reports": reports,
                        "thresholds": [{"description": desc, "passed": ok} for desc, ok in checks]},
    })
    print("\n".join(summary_text))
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_THRESHOLD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="helmrff",
                                     description="Learn dissipative Hamiltonian vector fields "
                                                 "and reproduce the benchmark experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    every = argparse.ArgumentParser(add_help=False)
    every.add_argument("--seed", type=int, default=None, help="master seed; the first one for reproduce")
    every.add_argument("--out", default=None)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config", required=True)
    inputs.add_argument("--data", default=None, help="training CSV/JSON; simulated from config if omitted")

    sim = sub.add_parser("simulate", parents=[every], help="generate and save a noisy training set")
    sim.add_argument("--config", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", parents=[inputs, every], help="tune, fit, and evaluate both models")
    fit.add_argument("--fixed-hypers", default=None, metavar="SIGMA,L1,L2",
                     help="skip the grid search and use these hyperparameters")
    fit.set_defaults(func=cmd_fit)

    ev_cmd = sub.add_parser("eval", parents=[inputs, every], help="re-evaluate a saved model")
    ev_cmd.add_argument("--model", required=True)
    ev_cmd.set_defaults(func=cmd_eval)

    rep = sub.add_parser("reproduce", parents=[every], help="run a full benchmark over many seeds")
    rep.add_argument("experiment", choices=sorted(THRESHOLDS))
    rep.add_argument("--config", default=None, help="override the bundled experiment config")
    rep.add_argument("--seeds", type=int, default=10, help="number of master seeds")
    rep.add_argument("--jobs", type=int, default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1, help="worker threads; default: the CPUs this process may use")
    rep.set_defaults(func=cmd_reproduce)
    return parser


def _openblas_thread_controls():
    """(get, set), the thread-count functions of the OpenBLAS numpy links, or None if none is found.

    dlsym on numpy's linalg extension searches the libraries it links too. numpy's wheel exports
    `scipy_openblas_get_num_threads64_`; a system OpenBLAS usually has neither prefix nor suffix.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in ((f"{prefix}openblas_{op}_num_threads{suffix}" for op in ("get", "set"))
                               for prefix in ("scipy_", "") for suffix in ("64_", "")):
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, put = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the count.

    The solves and eigendecompositions of every command are small, so BLAS
    threads only contend with `reproduce`'s worker threads; and a fixed count
    makes the results independent of OPENBLAS_NUM_THREADS.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
