"""Experiment command line: simulate datasets, fit and evaluate models, and
reproduce the two benchmark studies end to end.

Every artifact embeds the resolved configuration and seeds (see `_write`), so
re-running a command with the same inputs rewrites identical files.
"""

import argparse
import copy
import inspect
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, reduce
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import evaluation as ev
from . import regression as rg
from . import systems as sy
from .features import grid_limits, split_seed
from .kernels import finite_number, one_blas_thread

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2

SIGMA_RANGE = (1e-6, 1e6)
_LAMBDA_MIN = 1e-300  # the smallest ridge weight, fixed or in the search grid

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


def _merge(template, node, key: str = ""):
    """`node` merged into `template`, the shape of the resolved document: where the template holds a mapping,
    `node` must be one whose keys it holds, each merged in turn, and a key `node` lacks keeps the template's
    value (its default, or _REQUIRED); anywhere else `node` is the value."""
    if not isinstance(template, dict):
        return node
    if not isinstance(node, dict):
        _fail(key, f"expected a mapping, got {node!r}")
    prefix = f"{key}." if key else ""
    for part in node:
        if part not in template:
            _fail(f"{prefix}{part}", f"unknown key; expected one of {sorted(template)}")
    return {part: _merge(value, node[part], f"{prefix}{part}") if part in node else value
            for part, value in template.items()}


def _get(doc: dict, key: str):
    """The value at a dotted key of a merged document; a required key the config lacks fails as missing."""
    node = reduce(dict.__getitem__, key.split("."), doc)
    if node is _REQUIRED:
        _fail(key, "missing")
    return node


def _put(doc: dict, key: str, value):
    """Write `value` back at a dotted key of a merged document, and return it."""
    *above, last = key.split(".")
    reduce(dict.__getitem__, above, doc)[last] = value
    return value


def _check(key: str, check, *args):
    """check(*args), with a ValueError raised as a ConfigError naming `key`."""
    try:
        return check(*args)
    except ValueError as err:
        _fail(key, str(err))


def _number(doc: dict, key: str, minimum=None, maximum=None, integer=False, shape=()):
    """The number at `key`, or with `shape` the nested lists of numbers, such as (None, 2), where a None axis is
    any length >= 1.  Each entry must be a finite number that a double holds exactly, or with `integer` a whole
    number (such as 25 or 25.0), within [minimum, maximum] where given; it is written back as a float, or an int.
    A failure names the entry by its index, as in `figure.bounds[0][1]`."""
    def read(node, where: str, shape: tuple):
        if shape:
            if not (isinstance(node, list) and node and shape[0] in (None, len(node))):
                _fail(where, f"expected a list of {shape[0] or 'one or more'} entries, got {node!r}")
            return [read(entry, f"{where}[{i}]", shape[1:]) for i, entry in enumerate(node)]
        if not (finite_number(node) and (float(node).is_integer() if integer else float(node) == node)):
            _fail(where, f"expected {'an integer' if integer else 'a finite number that a double holds exactly'}, "
                         f"got {node!r}")
        if maximum is not None and not minimum <= node <= maximum:
            _fail(where, f"must be in [{minimum:g}, {maximum:g}], got {node}")
        if minimum is not None and node < minimum:
            _fail(where, f"must be >= {minimum}, got {node}")
        return int(node) if integer else float(node)

    return _put(doc, key, read(_get(doc, key), key, shape))


# The ridge-weight keys of a fixed hyperparameter block, by model.
FIXED_LAMBDAS = {"helmholtz": ("lambda1", "lambda2"), "gaussian": ("lambda",)}


def _key(dotted: str, convert=lambda node: node) -> property:
    """A read-only attribute holding one dotted key of the resolved document."""
    return property(lambda self: convert(_get(self.doc, dotted)))


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

    @cached_property
    def training_flow(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, sy.Trajectory]:
        """Noiseless times, states and derivatives of the training trajectories, and the fine trajectory they
        are sampled from (`systems.sample_flow`); only the noise differs between seeds, so built once."""
        return sy.sample_flow(self.make_system(), self.initial_conditions, self.h, self.t_end)

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


def _log_grid(doc: dict, key: str, minimum, maximum=None) -> None:
    """Read the search grid at `key`, a list or a log-grid mapping expanded to one, each entry in range."""
    if isinstance(node := _get(doc, key), dict):
        _put(doc, key, _merge(dict.fromkeys(("log10_start", "log10_stop", "count"), _REQUIRED), node, key))
        count = _number(doc, f"{key}.count", minimum=1, integer=True)
        with np.errstate(over="ignore"):  # an overflow to inf fails the entry's check
            _put(doc, key, np.logspace(_number(doc, f"{key}.log10_start"), _number(doc, f"{key}.log10_stop"),
                                       count).tolist())
    _number(doc, key, minimum, maximum, shape=(None,))


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, refusing a key repeated within one mapping, which PyYAML reads as its last value.
    Each mapping is checked as written, when it is composed, so a key that a `<<` merge brings in may still be
    overridden, even in a merged mapping that itself overrides a merged key."""

    def compose_mapping_node(self, anchor):
        node, seen = super().compose_mapping_node(anchor), set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                if (key := self.construct_object(key_node)) in seen:
                    raise yaml.constructor.ConstructorError(None, None, f"found repeated key {key!r}",
                                                            key_node.start_mark)
                seen.add(key)
        return node


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment file.

    Syntax errors and repeated keys keep PyYAML's line/column marks; semantic
    errors name the offending key.
    """
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {path}: {err}")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _resolve(doc)


def _resolve(doc: dict) -> ExperimentConfig:
    """Merge a config document into the template of its echo, which holds every default and marks each required
    key _REQUIRED, then check each value and write it back normalized.  Only a missing key takes its default."""
    system = doc.get("system", {})
    if not isinstance(system, dict):
        _fail("system", f"expected a mapping, got {system!r}")
    name = system.get("name", _REQUIRED)
    if not (isinstance(name, str) and name in sy.SYSTEM_FACTORIES):
        _fail("system.name", "missing" if name is _REQUIRED else
              f"unknown system {name!r}; choose from {sorted(sy.SYSTEM_FACTORIES)}")
    factory = sy.SYSTEM_FACTORIES[name]
    params = inspect.signature(factory).parameters
    defaults = ev.default_search_space()
    doc = _merge({
        "system": {"name": name, **dict.fromkeys(params, _REQUIRED)},
        "data": {**dict.fromkeys(("initial_conditions", "h", "t_end", "noise_sigma"), _REQUIRED), "include_t0": True},
        "test": dict.fromkeys(("x0", "h", "t_end"), _REQUIRED),
        "model": {"d": 200},
        "search": {"folds": 5, "sigma_grid": defaults.sigmas.tolist(), "lambda_grid": defaults.lambda1s.tolist()},
        # A fixed block in the keys the reader takes; a tuned one as null.
        "hyperparameters": dict.fromkeys(FIXED_LAMBDAS),
        "seed": 0, "output_dir": "out",
        "figure": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "resolution": 25},
    }, doc)
    _check("system", factory, *(_number(doc, f"system.{p}") for p in params))

    _number(doc, "data.initial_conditions", shape=(None, 2))
    _number(doc, "test.x0", shape=(2,))
    if doc["test"]["h"] is _REQUIRED:  # test.h defaults to data.h
        doc["test"]["h"] = doc["data"]["h"]
    for section in ("data", "test"):
        h = _number(doc, f"{section}.h", minimum=1e-12)
        _check(f"{section}.t_end", sy.whole_steps, h, _number(doc, f"{section}.t_end", minimum=h))
    if not isinstance(include_t0 := _get(doc, "data.include_t0"), bool):
        _fail("data.include_t0", f"expected a boolean, got {include_t0!r}")
    _number(doc, "data.noise_sigma", minimum=0.0)

    if (d := _number(doc, "model.d", minimum=1, integer=True)) % 2:
        _fail("model.d", f"feature budget must be even so the baseline map splits over both outputs, got {d}")
    _number(doc, "search.folds", minimum=2, integer=True)
    _log_grid(doc, "search.sigma_grid", *SIGMA_RANGE)
    _log_grid(doc, "search.lambda_grid", _LAMBDA_MIN)

    for model, lambda_keys in FIXED_LAMBDAS.items():
        key = f"hyperparameters.{model}"
        if _get(doc, key) is not None:
            _put(doc, key, _merge(dict.fromkeys(("sigma", *lambda_keys), _REQUIRED), _get(doc, key), key))
            _number(doc, f"{key}.sigma", *SIGMA_RANGE)
            for k in lambda_keys:
                _number(doc, f"{key}.{k}", _LAMBDA_MIN)

    _number(doc, "seed", minimum=0.0, integer=True)
    if not isinstance(output_dir := _get(doc, "output_dir"), str) or not output_dir:
        _fail("output_dir", f"expected a non-empty string, got {output_dir!r}")
    resolution = _number(doc, "figure.resolution", minimum=2, integer=True)
    _check("figure.bounds", grid_limits, _number(doc, "figure.bounds", shape=(2, 2)), resolution)
    return ExperimentConfig(doc)


def bundled_config_path(experiment: str) -> Path:
    return Path(resources.files("helmrff") / "configs" / f"{experiment}.yaml")


def _seed_map(master: int) -> dict:
    noise, helm, base, cv = split_seed(master, 4)
    return {"master": master, "noise": noise, "helmholtz_fit": helm,
            "gaussian_fit": base, "cv_shuffle": cv}


def simulate_dataset(config: ExperimentConfig, master: int) -> rg.Dataset:
    """`systems.generate_dataset`'s training set for a master seed: its noise added to the shared `training_flow`."""
    noise = sy.NoiseSpec(config.noise_sigma, _seed_map(master)["noise"])
    return sy.add_noise(config.training_flow, noise, config.include_t0)


def run_protocol(config: ExperimentConfig, master: int, dataset: rg.Dataset | None = None) -> dict:
    """Tune (unless fixed), fit both models, and evaluate on the test set.  A search whose scores are not
    finite, as when a ridge weight makes the fold systems overflow, is a ConfigError naming the ridge grid."""
    seeds = _seed_map(master)
    if dataset is None:
        dataset = simulate_dataset(config, master)
    hyper_h, hyper_g = (config.fixed(model) or
                        _check("search.lambda_grid", ev.cross_validate,
                               dataset, config.search_space(model == "gaussian"), seeds["cv_shuffle"])
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a repeated key, which `json.loads` reads as its last value."""
    if len(doc := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for key in keys if keys.count(key) > 1)!r}")
    return doc


def _load_dataset(path) -> rg.Dataset:
    if Path(path).suffix == ".csv":
        return sy.dataset_from_csv(path)
    doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    return rg.Dataset.from_json(doc["data"] if "data" in doc else doc)


def _load_model(path) -> rg.HelmholtzModel | rg.BaselineModel:
    doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    return rg.MODELS[doc["model"]].from_json(doc)


def _summary_lines(rows: list[dict], title: str) -> list[str]:
    lines = [title, f"{'model':<12}{'train MSE':>14}{'test MSE':>14}"]
    for row in rows:
        lines.append(f"{row['model']:<12}{row['train_mse']:>14.6g}{row['test_mse']:>14.6g}")
    return lines


def _prepare(args, config: ExperimentConfig, dataset=None, model=None, test=True) -> tuple[int, Path, rg.Dataset]:
    """Check a command's flags against its config, build the flows it computes from, then create the output
    directory; returns the master seed, the directory and the training set, `dataset` or the one simulated.
    Each failure is a ConfigError, naming `data.h` or `test.h` for a trajectory the RK4 cannot follow, as one
    whose squared derivatives overflow, and `--data` or `data.noise_sigma` for a training set whose do.  `test`
    false, for a command that fits nothing, builds no test set and skips the check that tuning fills the folds."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    n = config.initial_conditions.shape[1]
    for flag, source in (("--data", dataset), ("--model", model)):
        if source is not None and source.dim != n:
            raise ConfigError(f"{flag}: state dimension {source.dim} does not match the config's {n}")
    master = config.seed if args.seed is None else args.seed
    data, folds = (("--data",) * 2 if dataset is not None
                   else ("config key 'data.noise_sigma'", "config key 'search.folds'"))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step overflows before it fails, as do squares
        for key, flow in [("data.h", "training_flow")] * (dataset is None) + [("test.h", "test_set")] * test:
            try:
                built = getattr(config, flow)
                if not np.isfinite(np.sum(np.square(built[2] if flow == "training_flow" else built.derivatives))):
                    raise FloatingPointError("the sum of squared derivatives overflows")
            except FloatingPointError as err:
                _fail(key, f"the fixed-step RK4 cannot follow the system: {err}")
        dataset = simulate_dataset(config, master) if dataset is None else dataset
        if not np.isfinite(np.sum(np.square(dataset.derivatives))):  # every MSE against them would overflow too
            raise ConfigError(f"{data}: the sum of squared derivatives overflows")
    if test and model is None and None in config.doc["hyperparameters"].values() and len(dataset) < config.folds:
        raise ConfigError(f"{folds}: {len(dataset)} training sample(s) cannot fill the {config.folds} folds "
                          "of the search")
    out = Path(args.out or config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        where = "--out" if args.out else "config key 'output_dir'"
        raise ConfigError(f"{where}: cannot create {out}: {type(err).__name__}: {err}")
    return master, out, dataset


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
    master, out, dataset = _prepare(args, config, test=False)
    fine = config.training_flow[-1]
    plot = [sy.Trajectory(fine.times[::5], states) for states in fine.states[::5].swapaxes(0, 1)]
    _write(out, config, _seed_map(master), {"train.csv": (sy.dataset_to_csv, dataset),
                                            "train.json": {"data": dataset.to_json()},
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
    master, out, dataset = _prepare(args, config, dataset)
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
    master, out, dataset = _prepare(args, config, dataset, model)
    reports = [ev.evaluate_model(model, dataset, config.test_set, config.system_name, master, NOTES)]
    _write(out, config, _seed_map(master), {"eval_report.json": {"reports": reports}})
    print("\n".join(_summary_lines(reports, f"system: {config.system_name}  seed: {master}")))
    return EXIT_OK


def _median(values: list[float]) -> float:
    """np.median's bits without its lazy import of numpy.ma: the middle value, or of an even count the mean
    (a + b) / 2 of the middle two, as np.mean of two computes it; NaN if any value is NaN."""
    if any(v != v for v in values):
        return float("nan")
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _median_summary(reports: list[dict]) -> dict:
    return {kind: {mse: _median([r[mse] for r in reports if r["model"] == kind])
                   for mse in ("train_mse", "test_mse")}
            for kind in ("helmholtz", "gaussian")}


def cmd_reproduce(args) -> int:
    for flag, value in (("--seeds", args.seeds), ("--jobs", args.jobs)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    config = parse_config(args.config or bundled_config_path(args.experiment))
    if config.system_name != args.experiment:
        raise ConfigError(f"--config is for system {config.system_name!r}, not {args.experiment!r}")
    base_seed, out, _ = _prepare(args, config)
    masters = [base_seed + i for i in range(args.seeds)]

    # Per-seed runs are pure; gather in seed order so aggregation is stable.  `_prepare` built what the seeds
    # share before the pool: from Python 3.12 cached_property takes no lock.
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread:
            return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
