import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helmrff import cli
from helmrff import evaluation as ev
from helmrff import features as ft
from helmrff import kernels
from helmrff import regression as rg
from helmrff import systems as sy


def write_config(tmp_path, name="msd", **overrides):
    """Copy a bundled config, apply nested overrides, write it to tmp_path."""
    with open(cli.bundled_config_path(name)) as fh:
        doc = yaml.safe_load(fh)
    for dotted, value in overrides.items():
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_bundled_configs_parse():
    msd = cli.parse_config(cli.bundled_config_path("msd"))
    assert msd.system_name == "msd"
    assert msd.h == 0.25 and msd.t_end == 1.0
    assert msd.initial_conditions.shape == (3, 2)
    assert msd.include_t0 is True
    assert msd.d == 200
    assert msd.sigma_grid.size == 13 and msd.lambda_grid.size == 17

    pend = cli.parse_config(cli.bundled_config_path("pendulum"))
    assert pend.system_name == "pendulum"
    assert_allclose(pend.test_x0, [np.pi / 2, 0.0])
    assert pend.noise_sigma == 0.01


# Each passed the config reader once: the bounds failed in the figure grid after every seed
# had run (or, with a third entry, were cut to two), a grid of 0 or 1e-200 failed the
# search after --out existed, and a non-numeric grid entry raised a bare ValueError.
# The third element is the entry the error names.
BAD_GRIDS_AND_BOUNDS = [
    ("figure.bounds", [[float("-inf"), 4.0], [-4.0, 4.0]], "figure.bounds[0][0]"),
    ("figure.bounds", [[-4.0, 4.0, 99], [-4.0, 4.0]], "figure.bounds[0]"),
    ("search.lambda_grid", {"log10_start": -400.0, "log10_stop": 0.0, "count": 3}, "search.lambda_grid[0]"),
    ("search.sigma_grid", [1.0, "wide"], "search.sigma_grid[1]"),
]
# Each of these ran the defaults without a word, or (a name that is a list or a mapping) ended in a TypeError
# traceback; and a null grid read as the default grid.  Only a missing key takes its default.
MISSHAPEN = [
    ("system.name", ["msd"]),
    ("system.name", {"a": 1}),
    ("figure", 2.5),
    ("search", 7),
    ("model", "x"),
    ("hyperparameters", []),
    ("hyperparameters.helmholtz", 5),
    ("search.sigma_grid", None),
]


def test_parse_errors_name_the_offending_key(tmp_path):
    path = write_config(tmp_path, "msd")
    doc = yaml.safe_load(path.read_text())
    del doc["system"]["name"]
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(cli.ConfigError, match="system.name"):
        cli.parse_config(path)

    bad = write_config(tmp_path, "msd", **{"data.h": -0.1})
    with pytest.raises(cli.ConfigError, match="data.h"):
        cli.parse_config(bad)

    odd_d = write_config(tmp_path, "msd", **{"model.d": 201})
    with pytest.raises(cli.ConfigError, match="model.d"):
        cli.parse_config(odd_d)

    bounds = write_config(tmp_path, "msd", **{"figure.bounds": [[1, -1], [0, 1]]})
    with pytest.raises(cli.ConfigError, match="figure.bounds"):
        cli.parse_config(bounds)

    ics = write_config(tmp_path, "msd", **{"data.initial_conditions": [[1.0, 0.0], [2.0]]})
    with pytest.raises(cli.ConfigError, match=r"'data\.initial_conditions\[1\]'"):
        cli.parse_config(ics)

    # the system factory's own check, reported under the system key
    mass = write_config(tmp_path, "msd", **{"system.m": -1})
    with pytest.raises(cli.ConfigError, match=r"'system': m must be positive and finite, got -1"):
        cli.parse_config(mass)

    missing = write_config(tmp_path, "pendulum")
    doc = yaml.safe_load(missing.read_text())
    del doc["system"]["g"]
    missing.write_text(yaml.safe_dump(doc))
    with pytest.raises(cli.ConfigError, match="system.g"):
        cli.parse_config(missing)

    noise = write_config(tmp_path, "msd", **{"data.noise_sigma": float("inf")})
    with pytest.raises(cli.ConfigError, match="data.noise_sigma"):
        cli.parse_config(noise)
    # an integer past the float range, as a number, a point and a grid entry
    for key, value, named in (("data.h", 10**400, "data.h"), ("test.x0", [10**400, 0.0], "test.x0[0]"),
                              ("search.lambda_grid", [1e-3, 10**400], "search.lambda_grid[1]")):
        with pytest.raises(cli.ConfigError, match=rf"config key '{re.escape(named)}': "):
            cli.parse_config(write_config(tmp_path, "msd", **{key: value}))
    ridge = write_config(tmp_path, "msd", **{"hyperparameters.helmholtz": {
        "sigma": 1.0, "lambda1": float("nan"), "lambda2": 1e-3}})
    with pytest.raises(cli.ConfigError, match="hyperparameters.helmholtz.lambda1"):
        cli.parse_config(ridge)
    for key, value, named in BAD_GRIDS_AND_BOUNDS:
        with pytest.raises(cli.ConfigError, match=rf"config key '{re.escape(named)}': "):
            cli.parse_config(write_config(tmp_path, "msd", **{key: value}))
    # integer keys took a fractional value and truncated it (to 2, 200, 3, 1 and 12)
    for key, value in (("figure.resolution", 2.5), ("model.d", 200.9), ("search.folds", 3.7), ("seed", 1.5),
                       ("search.sigma_grid", {"log10_start": -1.0, "log10_stop": 1.0, "count": 12.5})):
        with pytest.raises(cli.ConfigError, match=rf"config key '{key}(\.count)?': expected an integer"):
            cli.parse_config(write_config(tmp_path, "msd", **{key: value}))
    # an integral float is the integer, in the echo too
    whole = {"figure.resolution": 25.0, "model.d": 200.0, "search.folds": 5.0, "seed": 0.0}
    echoes = (json.dumps(cli.parse_config(write_config(tmp_path, "msd", **overrides)).resolved())
              for overrides in (whole, {k: int(v) for k, v in whole.items()}))
    assert len(set(echoes)) == 1
    # an integer past 2**53 is read as an int, not rounded through a float to 2**53
    big = cli.parse_config(write_config(tmp_path, "msd", seed=2**53 + 1))
    assert big.seed == 2**53 + 1 and f'"seed": {2**53 + 1}' in json.dumps(big.resolved())
    # a float key refuses one, rather than echo it rounded to 2**53; one that a double holds is read exactly
    with pytest.raises(cli.ConfigError, match=rf"config key 'system.m': expected a finite number that a double "
                                              rf"holds exactly, got {2**53 + 1}"):
        cli.parse_config(write_config(tmp_path, "msd", **{"system.m": 2**53 + 1}))
    assert cli.parse_config(write_config(tmp_path, "msd", **{"system.m": 2**53})).resolved()["system"]["m"] == 2.0**53
    # so does a list entry, named by its index
    for key, value, where in (("test.x0", [2**53 + 1, 0.0], "test.x0[0]"),
                              ("figure.bounds", [[-(2**53 + 1), 4.0], [-4.0, 4.0]], "figure.bounds[0][0]"),
                              ("data.initial_conditions", [[1.0, 0.0], [2.0, 2**53 + 1]],
                               "data.initial_conditions[1][1]"),
                              ("search.lambda_grid", [1e-3, 2**53 + 1], "search.lambda_grid[1]")):
        with pytest.raises(cli.ConfigError, match=rf"config key '{re.escape(where)}': expected a finite number "
                                                  rf"that a double holds exactly, got -?{2**53 + 1}"):
            cli.parse_config(write_config(tmp_path, "msd", **{key: value}))
    # shape checks of the document, the initial conditions, include_t0 and output_dir
    listed = tmp_path / "listed.yaml"
    listed.write_text(yaml.safe_dump([{"system": {"name": "msd"}}]))
    with pytest.raises(cli.ConfigError, match=rf"{re.escape(str(listed))}: top level must be a mapping"):
        cli.parse_config(listed)
    for key, value in (("data.initial_conditions", 5), ("data.include_t0", "yes"),
                       ("output_dir", 5), ("output_dir", "")):
        with pytest.raises(cli.ConfigError, match=rf"config key '{key}': "):
            cli.parse_config(write_config(tmp_path, "msd", **{key: value}))


@pytest.mark.parametrize("key, value", [case[:2] for case in BAD_GRIDS_AND_BOUNDS] + MISSHAPEN)
def test_bad_grid_or_bounds_fails_before_reproduce_starts(tmp_path, capsys, key, value):
    named = next((name for k, v, name in BAD_GRIDS_AND_BOUNDS if (k, v) == (key, value)), key)
    out = tmp_path / "o"
    argv = ["reproduce", "msd", "--seeds", "2", "--config", str(write_config(tmp_path, "msd", **{key: value}))]
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config key '{named}': "), err
    assert not out.exists()


def test_a_ridge_weight_that_overflows_the_search_names_the_ridge_grid(tmp_path, capsys):
    """1e-300 parses as a ridge weight, but G / lambda overflows in the fold systems; only the search sees that,
    so the output directory exists by then.  reproduce raises it from its worker threads."""
    config = str(write_config(tmp_path, "msd", **{"search.lambda_grid": [1.0e-300, 1.0e-3]}))
    for argv in (["fit", "--config", config], ["reproduce", "msd", "--seeds", "2", "--jobs", "2", "--config", config]):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config key 'search.lambda_grid': "
                                                   "cross-validation score is not finite"), (argv, err)


def test_end_times_must_be_whole_steps(tmp_path):
    # msd samples every 0.25 to t = 1.0 and tests to t = 20.0 at the same step
    for key, overrides in (("data.t_end", {"data.h": 0.35}),
                           ("test.t_end", {"test.t_end": 20.1}),
                           ("test.t_end", {"test.h": 0.3})):
        path = write_config(tmp_path, "msd", **overrides)
        with pytest.raises(cli.ConfigError, match=rf"'{key}': t_end=.* is not a whole number of steps"):
            cli.parse_config(path)


FIXED_HELMHOLTZ = {"sigma": 0.5, "lambda1": 1e-4, "lambda2": 1e-6}
FIXED_GAUSSIAN = {"sigma": 2.0, "lambda": 1e-3}


@pytest.mark.parametrize("name, overrides", [
    ("msd", {}),
    ("pendulum", {}),
    ("msd", {"hyperparameters.helmholtz": FIXED_HELMHOLTZ}),
    ("msd", {"hyperparameters.gaussian": FIXED_GAUSSIAN}),
    ("pendulum", {"hyperparameters.helmholtz": FIXED_HELMHOLTZ, "hyperparameters.gaussian": FIXED_GAUSSIAN}),
], ids=["msd", "pendulum", "msd-fixed-helmholtz", "msd-fixed-gaussian", "pendulum-both-fixed"])
def test_resolved_config_parses_back(tmp_path, name, overrides):
    """The config echoed into every artifact is itself a valid config."""
    config = cli.parse_config(write_config(tmp_path, name, **overrides))
    echo = tmp_path / "echo.yaml"
    echo.write_text(yaml.safe_dump(config.resolved()))
    assert cli.parse_config(echo).resolved() == config.resolved()
    # a fixed block is echoed in the keys the reader takes
    for model in ("helmholtz", "gaussian"):
        assert config.resolved()["hyperparameters"][model] == overrides.get(f"hyperparameters.{model}")


def test_fixed_hypers_flag_echo_parses_back(tmp_path):
    config = cli._fix_hypers(cli.parse_config(cli.bundled_config_path("msd")), "0.5,1e-4,1e-6")
    assert config.resolved()["hyperparameters"] == {"helmholtz": FIXED_HELMHOLTZ,
                                                   "gaussian": {"sigma": 0.5, "lambda": 1e-4}}
    echo = tmp_path / "echo.yaml"
    echo.write_text(yaml.safe_dump(config.resolved()))
    assert cli.parse_config(echo).resolved() == config.resolved()


@pytest.mark.parametrize("name, fixed_hypers", [("msd", None), ("pendulum", None), ("msd", "0.5,1e-4,1e-6")])
def test_every_config_attribute_reads(name, fixed_hypers):
    """Each attribute reads one dotted key of the resolved document, so a mistyped key fails here."""
    config = cli._fix_hypers(cli.parse_config(cli.bundled_config_path(name)), fixed_hypers)
    attrs = [a for a, v in vars(cli.ExperimentConfig).items() if isinstance(v, property)]
    assert {"system_name", "h", "sigma_grid", "figure_bounds", "figure_resolution"} <= set(attrs)
    for attr in attrs:
        assert getattr(config, attr) is not None, attr
    assert config.make_system().name == config.system_name == name
    fixed = [config.fixed(model) for model in cli.FIXED_LAMBDAS]
    if fixed_hypers is None:
        assert fixed == [None, None]
    else:
        assert fixed == [rg.Hyperparameters(0.5, 1e-4, 1e-6, 200), rg.Hyperparameters(0.5, 1e-4, None, 200)]


@pytest.mark.parametrize("key, overrides", [
    ("search.fold", {"search.fold": 3}),
    ("fold", {"fold": 3}),
    ("system.g", {"system.g": 9.81}),
    ("figure.resoluton", {"figure.resoluton": 50}),
    ("hyperparameters.helmholtz.d", {"hyperparameters.helmholtz": {**FIXED_HELMHOLTZ, "d": 200}}),
    ("hyperparameters.gaussian.lambda1", {"hyperparameters.gaussian": {**FIXED_GAUSSIAN, "lambda1": 1e-3}}),
    ("search.sigma_grid.base", {"search.sigma_grid": {"log10_start": -1, "log10_stop": 1, "count": 5,
                                                      "base": 2}}),
])
def test_unknown_keys_are_rejected(tmp_path, key, overrides):
    # a misspelled optional key would otherwise fall back to its default unseen
    path = write_config(tmp_path, "msd", **overrides)
    with pytest.raises(cli.ConfigError, match=rf"config key '{key}': unknown key; expected one of \["):
        cli.parse_config(path)


def test_kernel_width_range_is_enforced(tmp_path):
    """Widths from 1e-6 to 1e6 are accepted, both ends included; the next double past either end fails,
    naming the grid's entry or the fixed width."""
    lo, hi = cli.SIGMA_RANGE
    for key, overrides in (("search.sigma_grid[0]", lambda width: {"search.sigma_grid": [width, 1.0]}),
                           ("hyperparameters.helmholtz.sigma", lambda width: {"hyperparameters.helmholtz": {
                               "sigma": width, "lambda1": 1e-3, "lambda2": 1e-3}})):
        for width in (lo, hi):
            cli.parse_config(write_config(tmp_path, "msd", **overrides(width)))
        for width in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), 1e-7, 1e7):
            with pytest.raises(cli.ConfigError, match=rf"config key '{re.escape(key)}'"):
                cli.parse_config(write_config(tmp_path, "msd", **overrides(float(width))))


def test_yaml_syntax_errors_carry_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("system:\n  name: msd\n   m: 0.5\n")
    with pytest.raises(cli.ConfigError, match="line"):
        cli.parse_config(path)
    # a file that is not text fails as unreadable, not with a traceback
    path.write_bytes(b"system:\n  name: \xff\xfe\n")
    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.parse_config(path)


@pytest.mark.parametrize("kind", ["config", "data", "model"])
def test_a_repeated_key_is_refused_in_every_input_file(tmp_path, capsys, kind):
    """PyYAML and json.loads read a repeated key as its last value, which would run m = 5.0 here or load the
    doubled array.  Each file fails with one `error:` line naming the key, and the flag for a JSON file, before
    the output directory exists; a config's error keeps PyYAML's mark of the second key."""
    msd = cli.bundled_config_path("msd")
    if kind == "config":
        path = tmp_path / "msd.yaml"
        path.write_text(msd.read_text().replace("  m: 0.5\n", "  m: 0.5\n  m: 5.0\n"))
        argv, want = ["fit", "--config", str(path)], f"error: cannot parse {path}: found repeated key 'm'"
    else:
        flag, key = {"data": ("--data", "states"), "model": ("--model", "alpha")}[kind]
        if kind == "data":
            doc = cli.simulate_dataset(cli.parse_config(msd), 0).to_json()
        else:
            assert cli.main(["fit", "--config", str(msd), "--fixed-hypers", "0.5,1e-4,1e-6",
                             "--out", str(tmp_path / "fit")]) == 0
            doc = json.loads((tmp_path / "fit" / "model_helmholtz.json").read_text())
        path, doubled = tmp_path / f"{kind}.json", (2 * np.array(doc[key])).tolist()
        path.write_text(f"{json.dumps(doc)[:-1]}, {json.dumps(key)}: {json.dumps(doubled)}}}")
        assert json.loads(path.read_text())[key] == doubled
        argv = ["fit" if kind == "data" else "eval", flag, str(path), "--config", str(msd)]
        want = f"error: {flag}: cannot load {path}: ValueError: repeated key '{key}'"
    capsys.readouterr()
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [want] == err[:1], err
    assert kind != "config" or err[1].endswith(", line 5, column 3"), err
    assert not out.exists()


def test_a_yaml_merge_is_not_a_repeated_key(tmp_path):
    """A key written after a `<<` merge overrides the merged one, also where the merged mapping itself overrides
    a key it merged; only a key written twice in one mapping is refused."""
    text = cli.bundled_config_path("msd").read_text()
    path = tmp_path / "merged.yaml"
    path.write_text(text.replace("sigma_grid: {", "sigma_grid: &grid {")
                        .replace("lambda_grid: {log10_start: -8.0, log10_stop: 0.0, count: 17}",
                                 "lambda_grid: {<<: *grid, log10_start: -8.0, log10_stop: 0.0}"))
    assert "<<: *grid" in path.read_text()
    # the merge brings in the width grid's count, 13; the explicit keys override its two ends
    written_out = write_config(tmp_path, "msd", **{"search.lambda_grid": {"log10_start": -8.0, "log10_stop": 0.0,
                                                                          "count": 13}})
    assert cli.parse_config(path).resolved() == cli.parse_config(written_out).resolved()
    nested = "a: &a {x: 1, y: 1}\ndefs:\n  b: &b {<<: *a, x: 2}\nc: {<<: *b, y: 3}\n"
    assert yaml.load(nested, Loader=cli._UniqueKeyLoader) == {
        "a": {"x": 1, "y": 1}, "defs": {"b": {"x": 2, "y": 1}}, "c": {"x": 2, "y": 3}}


def test_invalid_config_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, "msd", **{"system.name": "vortex"})
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "system.name" in capsys.readouterr().err


def test_bad_flags_exit_1_naming_the_flag(tmp_path, capsys):
    msd = str(cli.bundled_config_path("msd"))
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("t,x,y\n0,1,2\n")
    stringly = tmp_path / "strings.json"
    doc = cli.simulate_dataset(cli.parse_config(msd), 0).to_json()
    stringly.write_text(json.dumps({**doc, "states": [[str(v) for v in row] for row in doc["states"]]}))
    # data the protocol cannot use: fewer samples than search.folds when tuning, or 4-D states
    tiny = tmp_path / "tiny.csv"
    first = cli.simulate_dataset(cli.parse_config(msd), 0)
    sy.dataset_to_csv(rg.Dataset(first.states[:3], first.derivatives[:3]), tiny)
    (tmp_path / "small").mkdir()
    small = write_config(tmp_path / "small", "msd", **{"data.initial_conditions": [[1.0, 0.0]],
                                                        "data.t_end": 0.25, "data.include_t0": False})
    (tmp_path / "folds").mkdir()
    one_short = write_config(tmp_path / "folds", "msd", **{"search.folds": 16})  # the 15 msd samples
    d4 = tmp_path / "d4.json"
    d4.write_text(json.dumps({"states": np.eye(4).tolist(), "derivatives": np.eye(4).tolist()}))
    m4 = tmp_path / "m4.json"
    m4.write_text(json.dumps(rg.fit_helmholtz(rg.Dataset.from_json(json.loads(d4.read_text())),
                                              rg.Hyperparameters(1.0, 1e-2, 1e-2, d=4), seed=0).to_json()))
    m2 = tmp_path / "m2.json"
    m2.write_text(json.dumps(rg.fit_helmholtz(first, rg.Hyperparameters(2.0, 1e-4, 1e-4, d=200), seed=0).to_json()))
    # systems the fixed-step RK4 cannot follow: the training trajectories overflow, or only the test trajectory
    (tmp_path / "stiff").mkdir()
    stiff = str(write_config(tmp_path / "stiff", "msd", **{"system.d": 1.0e6}))
    (tmp_path / "coarse").mkdir()
    coarse = str(write_config(tmp_path / "coarse", "msd", **{"system.k": 400.0, "test.h": 5.0, "test.t_end": 60.0}))
    # a test trajectory that stays finite (to 3.7e157) but whose squared field overflows, and training sets like it
    (tmp_path / "blowup").mkdir()
    blowup = str(write_config(tmp_path / "blowup", "msd", **{"system.k": 400.0, "test.h": 5.0}))
    # a test trajectory whose energy rises 7.8e85-fold, though its squared field stays finite
    (tmp_path / "runaway").mkdir()
    runaway = str(write_config(tmp_path / "runaway", "msd", **{"system.k": 200.0, "test.h": 4.0}))
    # model files that lack a key without a default, or whose default of null the model refuses
    gaussian = rg.fit_baseline(first, rg.Hyperparameters(2.0, 1e-4, d=200), seed=0).to_json()
    lacking = {key: tmp_path / f"lacking_{key}.json" for key in ("lambda2", "d", "phases")}
    for doc, part, key in ((json.loads(m2.read_text()), "hyper", "lambda2"), (json.loads(m2.read_text()), "hyper", "d"),
                           (gaussian, "basis", "phases")):
        del doc[part][key]
        lacking[key].write_text(json.dumps(doc))
    huge = tmp_path / "huge.csv"
    derivatives = first.derivatives.copy()
    derivatives[0, 0] = 1e200  # the first qdot
    sy.dataset_to_csv(rg.Dataset(first.states, derivatives), huge)
    (tmp_path / "noisy").mkdir()
    noisy = str(write_config(tmp_path / "noisy", "msd", **{"data.noise_sigma": 1.0e200}))
    fixed = ["--fixed-hypers", "2.0,1e-4,1e-4"]
    out = tmp_path / "o"
    cases = [
        *((argv, "config key 'data.h': the fixed-step RK4 cannot follow the system: integration diverged at step 20 "
                 "(t=0.2)") for argv in (
            ["simulate", "--config", stiff], ["fit", "--config", stiff], ["fit", "--config", stiff, *fixed],
            ["eval", "--config", stiff, "--model", str(m2)], ["reproduce", "msd", "--config", stiff])),
        *((argv, "config key 'test.h': the fixed-step RK4 cannot follow the system: integration diverged at step 196 "
                 "(t=39.2)") for argv in (
            ["fit", "--config", coarse, *fixed], ["eval", "--config", coarse, "--model", str(m2)],
            ["reproduce", "msd", "--config", coarse])),
        *((argv, "config key 'test.h': the fixed-step RK4 cannot follow the system: its energy rose from 800 to inf")
          for argv in (["fit", "--config", blowup, *fixed], ["eval", "--config", blowup, "--model", str(m2)],
                       ["reproduce", "msd", "--seeds", "2", "--config", blowup])),
        *((argv, "config key 'test.h': the fixed-step RK4 cannot follow the system: its energy rose from 400 to "
                 "3.10048e+88") for argv in (
            ["fit", "--config", runaway, *fixed], ["eval", "--config", runaway, "--model", str(m2)],
            ["reproduce", "msd", "--seeds", "2", "--config", runaway])),
        *((["eval", "--config", msd, "--model", str(lacking[key])], f"--model: cannot load {lacking[key]}: {message}")
          for key, message in (("lambda2", "ValueError: a helmholtz model needs the ridge weights"),
                               ("d", "KeyError: 'd'"), ("phases", "ValueError: phases must be a numeric (200,) array"))),
        *((argv, "--data: the sum of squared derivatives overflows") for argv in (
            ["fit", "--config", msd, "--data", str(huge), *fixed], ["fit", "--config", msd, "--data", str(huge)])),
        (["fit", "--config", noisy, *fixed], "config key 'data.noise_sigma': the sum of squared derivatives overflows"),
        (["reproduce", "msd", "--jobs", "0"], "--jobs"),
        (["simulate", "--config", msd, "--seed", "-1"], "--seed"),
        (["fit", "--config", msd, "--data", str(tmp_path / "missing.csv")], "--data"),
        (["fit", "--config", msd, "--data", str(bad_header)], "--data"),
        (["fit", "--config", msd, "--data", str(stringly)], "--data"),
        (["eval", "--config", msd, "--model", str(tmp_path / "missing.json")], "--model"),
        (["fit", "--config", msd, "--fixed-hypers", "1,2"], "--fixed-hypers"),
        (["fit", "--config", msd, "--fixed-hypers", "1e-9,1e-4,1e-4"], "--fixed-hypers"),
        (["reproduce", "msd", "--config", str(cli.bundled_config_path("pendulum"))], "--config"),
        (["fit", "--config", msd, "--data", str(tiny)], "--data"),
        (["reproduce", "msd", "--config", str(small)], "search.folds"),
        (["fit", "--config", str(small)], "search.folds"),
        (["reproduce", "msd", "--config", str(one_short)], "search.folds"),
        (["fit", "--config", str(one_short)], "search.folds"),
        (["fit", "--config", msd, "--data", str(d4), "--fixed-hypers", "0.5,1e-4,1e-6"], "--data"),
        (["eval", "--config", msd, "--model", str(m4)], "--model: state dimension 4 does not match the config's 2"),
    ]
    for argv, flag in cases:
        assert cli.main(argv + ["--out", str(out)]) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0], (argv, err)
        assert not out.exists(), argv
    # fixed hyperparameters need no folds, and eval tunes nothing, so 3 samples are enough for both
    assert cli.main(["fit", "--config", msd, "--data", str(tiny), "--fixed-hypers", "0.5,1e-4,1e-6",
                     "--out", str(out)]) == 0
    evaluate = ["eval", "--config", msd, "--model", str(out / "model_helmholtz.json"), "--out", str(tmp_path / "e")]
    assert cli.main(evaluate + ["--data", str(d4)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --data: state dimension 4"), err
    assert not (tmp_path / "e").exists()
    assert cli.main(evaluate + ["--data", str(tiny)]) == 0
    capsys.readouterr()
    # an output directory that names a file, or a path under one, from the flag or the config
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    named = write_config(tmp_path, "msd", output_dir=str(blocker))
    cases = [(["--out", str(blocker)], "--out"), (["--out", str(blocker / "o")], "--out"),
             ([], "config key 'output_dir'")]
    for argv, where in cases:
        assert cli.main(["simulate", "--config", str(named)] + argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {where}: cannot create"), (argv, err)
        assert blocker.read_text() == "keep\n", argv


# The flags of each subcommand; the argparse parents that define the shared ones must keep them all.
FLAGS = {
    "simulate": {"--config", "--seed", "--out"},
    "fit": {"--config", "--data", "--seed", "--out", "--fixed-hypers"},
    "eval": {"--config", "--model", "--data", "--seed", "--out"},
    "reproduce": {"--config", "--seeds", "--seed", "--jobs", "--out"},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_subcommand_lists_its_flags(command, capsys):
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"])
    assert done.value.code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == FLAGS[command] | {"--help"}


def test_reproduce_jobs_default_to_the_cpus_this_process_may_use():
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert cli.build_parser().parse_args(["reproduce", "msd"]).jobs == usable


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A fitted msd model pair and its training set as files, with the objects they hold."""
    root = tmp_path_factory.mktemp("saved")
    msd = str(cli.bundled_config_path("msd"))
    assert cli.main(["fit", "--config", msd, "--fixed-hypers", "0.5,1e-4,1e-6", "--out", str(root)]) == 0
    docs = {kind: json.loads((root / f"model_{kind}.json").read_text()) for kind in cli.FIXED_LAMBDAS}
    dataset = cli.simulate_dataset(cli.parse_config(msd), 0)
    sy.dataset_to_csv(dataset, root / "train.csv", ["a comment line"])
    lines = (root / "train.csv").read_text().splitlines()
    return SimpleNamespace(root=root, msd=msd, docs=docs, dataset=dataset, lines=lines,
                           states=np.random.default_rng(0).uniform(-3.0, 3.0, size=(16, 2)))


def rejected_at_the_boundary(saved, argv, flag):
    """`main(argv)` exits 1 with one `error:` line naming `flag`, before any output directory exists."""
    out, stderr = saved.root / "mutant_out", io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--config", saved.msd, "--out", str(out)])
    err = stderr.getvalue().splitlines()
    return code == 1 and len(err) == 1 and err[0].startswith(f"error: {flag}: ") and not out.exists()


def mutated_model(saved, kind, mutate):
    doc = copy.deepcopy(saved.docs[kind])
    mutate(doc)
    path = saved.root / "mutant.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(alpha=doc["alpha"][:-3]),
    lambda doc: doc["basis_s"].update(weights=[w[:1] for w in doc["basis_s"]["weights"]]),
    lambda doc: doc["hyper"].update(d=7),
    lambda doc: doc["hyper"].update(sigma=None),
    lambda doc: doc["basis_c"].update(kind=ft.ODD_SYMPLECTIC),
    lambda doc: doc["basis_c"].update(sigma=2 * doc["basis_c"]["sigma"]),
    # a bool width is not read as 1, a 400-digit one is an error line, not a traceback, and text is not a number
    lambda doc: [doc[key].update(sigma=True) for key in ("hyper", "basis_s", "basis_c")],
    lambda doc: [doc[key].update(sigma=10**400) for key in ("hyper", "basis_s", "basis_c")],
    lambda doc: doc["alpha"].__setitem__(0, str(doc["alpha"][0])),
], ids=["alpha-cut", "basis_s-one-column", "hyper-d", "hyper-sigma-null", "basis_c-kind", "basis_c-sigma",
        "sigma-true", "sigma-400-digits", "alpha-string-entry"])
def test_eval_rejects_a_model_whose_parts_do_not_fit(saved, mutate):
    path = mutated_model(saved, "helmholtz", mutate)
    assert rejected_at_the_boundary(saved, ["eval", "--model", str(path)], "--model")


def json_locations(node, path=()):
    """The path to every node below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_locations(child, path + (key,))


def retyped(value):
    """A JSON value of another type than `value`."""
    if isinstance(value, str):
        return 3
    return {"x": 1} if isinstance(value, list) else ["x"] if isinstance(value, dict) else "x"


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(sorted(cli.FIXED_LAMBDAS)), st.sampled_from(("drop", "truncate", "retype", "null", "kind")),
       st.data())
def test_model_file_mutants_load_exactly_or_fail_at_the_boundary(saved, kind, op, data):
    """Drop a key or list entry, truncate a list, change a type, set a field to null, or swap a basis kind:
    the file loads to a model with bit-identical parts, or `eval` fails at the boundary."""
    original = saved.docs[kind]
    if op == "kind":
        slot = data.draw(st.sampled_from([key for key in original if key.startswith("basis")]))
        path = (slot, "kind")
        new = data.draw(st.sampled_from([k for k in ft.KINDS if k != original[slot]["kind"]]))
    else:
        nodes = {path: reduce(lambda n, k: n[k], path, original) for path in json_locations(original)}
        path = data.draw(st.sampled_from([path for path, node in nodes.items()
                                          if op != "truncate" or isinstance(node, list) and node]))

    def mutate(doc):
        *above, key = path
        parent = reduce(lambda n, k: n[k], above, doc)
        if op == "drop":
            del parent[key]
        elif op == "truncate":
            parent[key] = parent[key][:data.draw(st.integers(0, len(parent[key]) - 1))]
        else:
            parent[key] = new if op == "kind" else None if op == "null" else retyped(parent[key])
    mutant = mutated_model(saved, kind, mutate)

    types = {"helmholtz": rg.HelmholtzModel, "gaussian": rg.BaselineModel}
    try:
        doc = json.loads(mutant.read_text())
        model = types[doc["model"]].from_json(doc)
    except Exception:
        assert rejected_at_the_boundary(saved, ["eval", "--model", str(mutant)], "--model")
    else:
        reference = types[kind].from_json(original)
        assert model.to_json() == reference.to_json()
        assert_array_equal(model.predict(saved.states), reference.predict(saved.states))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(("header", "columns", "cell", "traj_id", "no rows")), st.data())
def test_data_file_mutants_load_exactly_or_fail_at_the_boundary(saved, op, data):
    """Break the header, change a row's column count, put text in a cell, make a trajectory id
    fractional, or keep no rows: the file loads to the same samples, or `fit` fails at the boundary."""
    lines = list(saved.lines)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    row = data.draw(st.integers(header + 1, len(lines) - 1))
    cells = lines[row].split(",")
    if op == "header":
        names = lines[header].split(",")
        names[data.draw(st.integers(0, len(names) - 1))] = data.draw(st.sampled_from(("", "x", "Q")))
        lines[header] = ",".join(names)
    elif op == "columns":
        at = data.draw(st.integers(0, len(cells)))
        cells = cells[:at] + ["0.0"] + cells[at:] if data.draw(st.booleans()) else cells[:at] + cells[at + 1:]
    elif op == "cell":
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(("", "x", "1,5", "0x1")))
    elif op == "traj_id":
        cells[-1] = data.draw(st.sampled_from(("0.5", "1e0", "1.0", "-0.25")))
    else:
        lines = lines[:header + 1]
    if op in ("columns", "cell", "traj_id"):
        lines[row] = ",".join(cells)
    path = saved.root / "mutant.csv"
    path.write_text("\n".join(lines) + "\n")

    try:
        loaded = sy.dataset_from_csv(path)
    except Exception:
        assert rejected_at_the_boundary(saved, ["fit", "--data", str(path)], "--data")
    else:
        for column in ("states", "derivatives", "times", "traj_ids"):
            assert_array_equal(getattr(loaded, column), getattr(saved.dataset, column))


@pytest.fixture(scope="module")
def echoes(tmp_path_factory):
    """The resolved documents of both bundled configs and of msd with both models fixed, and a scratch directory."""
    msd = cli.parse_config(cli.bundled_config_path("msd"))
    docs = [msd.resolved(), cli.parse_config(cli.bundled_config_path("pendulum")).resolved(),
            cli._fix_hypers(msd, "0.5,1e-4,1e-6").resolved()]
    return SimpleNamespace(root=tmp_path_factory.mktemp("echoes"), docs=docs)


# What a dropped optional key reads as; a dropped test.h reads as data.h.
CONFIG_DEFAULTS = {"data": {"include_t0": True}, "model": {"d": 200},
                   "search": {"folds": 5, "sigma_grid": ev.default_search_space().sigmas.tolist(),
                              "lambda_grid": ev.default_search_space().lambda1s.tolist()},
                   "hyperparameters": {"helmholtz": None, "gaussian": None}, "seed": 0, "output_dir": "out",
                   "figure": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "resolution": 25}}
CONFIG_VALUES = {"null": None, "nan": float("nan"), "inf": float("inf"), "bool": True, "fraction": 2.5,
                 "huge": 10**400}


def shown(path) -> str:
    """A document path as a config error names it: data.initial_conditions[0], say."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 2), st.sampled_from(("drop", "retype", "unknown", *CONFIG_VALUES)), st.data())
def test_config_file_mutants_parse_exactly_or_fail_at_the_boundary(echoes, index, op, data):
    """Drop a node of a resolved config, null it, retype it, set it to NaN, inf, a bool, a fraction or
    10**400, or add an unknown key beside it: the file fails with a ConfigError naming the key, an ancestor, or
    a key inside what was dropped or retyped (a step and its end are checked together, under the end's key),
    and exactly the entry when it mutated a list's entry without dropping it; or it parses to a config whose
    echo holds the mutated value, or the default of a dropped optional key, and parses back to itself."""
    doc = copy.deepcopy(echoes.docs[index])

    def at(path):
        return reduce(lambda n, k: n[k], path, doc)

    path = ()  # a walk down from the root, so that each level of the document gets its share of the draws
    while isinstance(at(path), (dict, list)) and at(path) and (not path or data.draw(st.booleans())):
        path += (data.draw(st.sampled_from(list(at(path)) if isinstance(at(path), dict) else range(len(at(path))))),)
    if op == "unknown":
        while not isinstance(at(path), dict):
            path = path[:-1]
        path += ("unknown",)
    *above, key = path
    parent = at(above)
    if op == "drop":
        del parent[key]
    elif op == "retype":
        old = parent[key]
        parent[key] = data.draw(st.sampled_from([v for v in ("x", 3, [old], {"x": old}) if type(v) is not type(old)]))
    else:
        parent[key] = 1 if op == "unknown" else CONFIG_VALUES[op]
    mutant = echoes.root / "mutant.yaml"
    mutant.write_text(yaml.safe_dump(doc))

    try:
        config = cli.parse_config(mutant)
    except cli.ConfigError as err:
        named = re.match(r"config key '([^']*)': ", str(err))
        assert named, err
        named, mutated = named.group(1), shown(path)
        one_line = any(a == b or a.startswith((b + ".", b + "[")) for a, b in ((mutated, named), (named, mutated)))
        step = path in (("data", "h"), ("test", "h")) and named == f"{path[0]}.t_end"
        assert one_line or step, err
        # every list in a config holds numbers, and a mutated entry of one is named exactly, by its index
        assert op == "drop" or not any(isinstance(k, int) for k in path) or named == mutated, err
    else:
        if op == "drop" and isinstance(parent, dict):  # a KeyError for a required key, which must have failed
            parent[key] = doc["data"]["h"] if path == ("test", "h") else reduce(dict.__getitem__, path, CONFIG_DEFAULTS)
        assert config.resolved() == doc
        echo = echoes.root / "echo.yaml"
        echo.write_text(yaml.safe_dump(config.resolved()))
        assert cli.parse_config(echo).resolved() == config.resolved()


@pytest.fixture
def manifests(monkeypatch):
    """The file names of each manifest `cli._write` writes, by output directory; the writer still runs."""
    names, write = {}, cli._write

    def spy(out, config, seeds, files):
        names.setdefault(out, []).extend(files)
        write(out, config, seeds, files)

    monkeypatch.setattr(cli, "_write", spy)
    return names


def assert_rewrites_its_manifest(tmp_path, manifests, argv):
    """Run a command into two directories: each holds exactly the manifest's files, byte for byte alike."""
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for out in runs:
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        assert sorted(p.name for p in out.iterdir()) == sorted(manifests[out]), argv
    assert manifests[runs[0]] == manifests[runs[1]]
    for name in manifests[runs[0]]:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    return runs[0]


@pytest.mark.parametrize("command", ["simulate", "eval"])
def test_simulate_and_eval_are_byte_identical(tmp_path, manifests, command):
    msd = str(cli.bundled_config_path("msd"))
    argv = ["simulate", "--config", msd]
    if command == "eval":
        cli.main(["fit", "--config", msd, "--fixed-hypers", "2.0,1e-4,1e-4", "--out", str(tmp_path / "fit")])
        argv = ["eval", "--config", msd, "--model", str(tmp_path / "fit" / "model_gaussian.json")]
    assert_rewrites_its_manifest(tmp_path, manifests, argv)


def test_simulate_counts_and_files(tmp_path, capsys):
    out = tmp_path / "msd"
    code = cli.main(["simulate", "--config", str(cli.bundled_config_path("msd")),
                     "--out", str(out)])
    assert code == 0
    assert "N = 15" in capsys.readouterr().out
    assert (out / "train.csv").exists()
    assert (out / "train.json").exists()
    assert (out / "trajectories.csv").exists()
    doc = json.loads((out / "train.json").read_text())
    assert doc["config"]["system"]["name"] == "msd"
    assert "seeds" in doc and doc["seeds"]["master"] == 0

    code = cli.main(["simulate", "--config", str(cli.bundled_config_path("pendulum")),
                     "--out", str(tmp_path / "p")])
    assert code == 0
    assert "N = 24" in capsys.readouterr().out


def test_simulate_without_noise_matches_true_field(tmp_path):
    path = write_config(tmp_path, "msd", **{"data.noise_sigma": 0.0})
    out = tmp_path / "clean"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "train.json").read_text())
    config = cli.parse_config(path)
    field = config.make_system().field
    assert_allclose(doc["data"]["derivatives"], field(np.asarray(doc["data"]["states"])), atol=1e-12)


@pytest.mark.parametrize("include_t0", [True, False])
def test_simulate_dataset_is_generate_dataset_bit_for_bit(tmp_path, include_t0):
    """simulate_dataset adds each seed's noise to the config's one noiseless training flow; that is
    generate_dataset's training set of the seed, bit for bit in every array."""
    for name in ("msd", "pendulum"):
        config = cli.parse_config(write_config(tmp_path, name, **{"data.include_t0": include_t0}))
        for master in range(10):
            want = sy.generate_dataset(config.make_system(), config.initial_conditions, config.h, config.t_end,
                                       sy.NoiseSpec(config.noise_sigma, cli._seed_map(master)["noise"]), include_t0)
            got = cli.simulate_dataset(config, master)
            for key in ("states", "derivatives", "times", "traj_ids"):
                a, b = getattr(got, key), getattr(want, key)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (name, master, key)


def test_reproduce_integrates_the_shared_trajectories_once(tmp_path, monkeypatch):
    """reproduce integrates the test trajectory once and the training trajectories once, whatever the number
    of seeds: the seeds differ only in the noise added to one shared training flow.  simulate integrates the
    training trajectories once: trajectories.csv holds every 5th state of the integration train.csv samples."""
    spans = []
    integrate_rk4 = sy.integrate_rk4
    monkeypatch.setattr(sy, "integrate_rk4", lambda *args: spans.append(args[2:]) or integrate_rk4(*args))
    msd = cli.bundled_config_path("msd")
    config = cli.parse_config(msd)
    train = (config.h / sy.SIM_REFINE, config.t_end)
    assert cli.main(["reproduce", "msd", "--seeds", "3", "--jobs", "2", "--out", str(tmp_path / "rep")]) == 0
    assert sorted(spans) == sorted([(config.test_h / sy.SIM_REFINE, config.test_t_end), train])
    spans.clear()
    assert cli.main(["simulate", "--config", str(msd), "--out", str(tmp_path / "sim")]) == 0
    assert spans == [train]
    times, states, _, _ = config.training_flow
    with open(tmp_path / "sim" / "trajectories.csv", newline="") as fh:
        rows = np.array([row for row in csv.reader(fh) if not row[0].startswith("#")][1:], dtype=float)
    for b in range(states.shape[1]):
        t, q, p, _ = rows[rows[:, 3] == b][::5].T
        assert (t.tobytes(), np.column_stack([q, p]).tobytes()) == (times.tobytes(), states[:, b].tobytes())


def test_reproduce_imports_no_numpy_ma(tmp_path):
    """The medians are taken without np.median, which imports numpy.ma when first called and so raised
    the resident memory of a reproduce run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["reproduce", "msd", "--seeds", "2", "--jobs", "1", "--out", str(tmp_path / "rep")]
    code = f"import sys; from helmrff import cli; code = cli.main({argv!r}); print(code, 'numpy.ma' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    assert done.stdout.splitlines()[-1] == "0 False"


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(0.0, 1e300).map(abs), min_size=1, max_size=21))
def test_median_is_np_median_bit_for_bit(values):
    """The medians of reproduce, over MSEs (>= 0, so no -0.0 ties with 0.0 whose order np.partition picks),
    hold np.median's bits for an odd and an even count, and are NaN when a value is NaN."""
    assert np.float64(cli._median(values)).tobytes() == np.median(values).tobytes()
    for at in {0, len(values) // 2, len(values)}:
        assert np.isnan(cli._median(values[:at] + [float("nan")] + values[at:]))


def test_fit_with_fixed_hypers_and_determinism(tmp_path, manifests):
    out1 = assert_rewrites_its_manifest(tmp_path, manifests, ["fit", "--config", str(cli.bundled_config_path("msd")),
                                                              "--fixed-hypers", "2.0,1e-4,1e-4"])
    model = json.loads((out1 / "model_helmholtz.json").read_text())
    assert model["hyper"]["sigma"] == 2.0
    assert model["hyper"]["lambda1"] == 1e-4
    report = json.loads((out1 / "eval_report.json").read_text())
    kinds = {r["model"] for r in report["reports"]}
    assert kinds == {"helmholtz", "gaussian"}


def test_fit_accepts_external_dataset(tmp_path):
    sim_out = tmp_path / "sim"
    cli.main(["simulate", "--config", str(cli.bundled_config_path("msd")),
              "--out", str(sim_out)])
    fit_out = tmp_path / "fit"
    code = cli.main(["fit", "--config", str(cli.bundled_config_path("msd")),
                     "--data", str(sim_out / "train.csv"),
                     "--fixed-hypers", "2.0,1e-4,1e-4", "--out", str(fit_out)])
    assert code == 0
    # the regenerated dataset equals the simulated one, so models agree too
    direct = tmp_path / "direct"
    cli.main(["fit", "--config", str(cli.bundled_config_path("msd")),
              "--fixed-hypers", "2.0,1e-4,1e-4", "--out", str(direct)])
    assert ((fit_out / "model_helmholtz.json").read_bytes()
            == (direct / "model_helmholtz.json").read_bytes())
    # the stamped train.json and a bare dataset document load to the same fit as train.csv
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(sy.dataset_from_csv(sim_out / "train.csv").to_json()))
    for data in (sim_out / "train.json", bare):
        out = tmp_path / f"fit-{data.stem}"
        assert cli.main(["fit", "--config", str(cli.bundled_config_path("msd")), "--data", str(data),
                         "--fixed-hypers", "2.0,1e-4,1e-4", "--out", str(out)]) == 0
        for model in ("model_helmholtz.json", "model_gaussian.json"):
            assert (out / model).read_bytes() == (fit_out / model).read_bytes(), (data, model)


def test_pendulum_fit_prefers_the_helmholtz_model(tmp_path):
    out = tmp_path / "pend"
    assert cli.main(["fit", "--config", str(cli.bundled_config_path("pendulum")),
                     "--out", str(out)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    by_kind = {r["model"]: r for r in report["reports"]}
    assert by_kind["helmholtz"]["test_mse"] < by_kind["gaussian"]["test_mse"]


def test_eval_reloads_saved_model(tmp_path):
    fit_out = tmp_path / "fit"
    cli.main(["fit", "--config", str(cli.bundled_config_path("msd")),
              "--fixed-hypers", "2.0,1e-4,1e-4", "--out", str(fit_out)])
    original = json.loads((fit_out / "eval_report.json").read_text())["reports"]
    assert [report["model"] for report in original] == ["helmholtz", "gaussian"]
    for report in original:
        eval_out = tmp_path / f"eval_{report['model']}"
        code = cli.main(["eval", "--config", str(cli.bundled_config_path("msd")),
                         "--model", str(fit_out / f"model_{report['model']}.json"),
                         "--out", str(eval_out)])
        assert code == 0
        assert json.loads((eval_out / "eval_report.json").read_text())["reports"] == [report]


def test_eval_rejects_unknown_model_file(tmp_path, capsys):
    bogus = tmp_path / "model.json"
    bogus.write_text(json.dumps({"model": "spline"}))
    code = cli.main(["eval", "--config", str(cli.bundled_config_path("msd")),
                     "--model", str(bogus), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "spline" in capsys.readouterr().err


def test_reproduce_artifacts_and_exit_code(tmp_path, capsys, monkeypatch):
    built = []
    make_test_set = cli.ev.make_test_set
    monkeypatch.setattr(cli.ev, "make_test_set", lambda *a: built.append(a) or make_test_set(*a))
    out = tmp_path / "rep"
    code = cli.main(["reproduce", "msd", "--seeds", "2", "--out", str(out)])
    assert code == 0
    assert len(built) == 1  # one test set per config, shared by the seeds
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed

    grids = sorted(p.name for p in out.glob("grid_*.csv"))
    assert grids == ["grid_data.csv", "grid_gaussian.csv",
                     "grid_helmholtz.csv", "grid_true.csv"]
    assert (out / "summary.csv").exists()
    assert (out / "summary.txt").exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["seeds"]) == 2
    assert all(t["passed"] for t in report["thresholds"])

    header = [line for line in (out / "summary.csv").read_text().splitlines()
              if not line.startswith("#")][0]
    assert header == "system,model,train_mse,test_mse,seed,d,sigma,lambda1,lambda2"


def test_reproduce_is_byte_identical(tmp_path, manifests):
    assert_rewrites_its_manifest(tmp_path, manifests, ["reproduce", "msd", "--seeds", "2"])


def test_reproduce_flags_threshold_failures(tmp_path):
    # a deliberately terrible fixed model: tiny kernel width, huge ridge
    path = write_config(tmp_path, "pendulum",
                        **{"hyperparameters.helmholtz": {"sigma": 1e-4, "lambda1": 1.0,
                                                         "lambda2": 1.0},
                           "hyperparameters.gaussian": {"sigma": 1e-4, "lambda": 1.0}})
    out = tmp_path / "rep"
    code = cli.main(["reproduce", "pendulum", "--config", str(path),
                     "--seeds", "1", "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert not all(t["passed"] for t in report["thresholds"])


def blas_thread_controls():
    """The library's OpenBLAS thread controls: a skip only where numpy's build names another BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    controls = kernels._openblas_thread_controls()
    assert controls is not None, f"numpy's BLAS is {blas}, but no OpenBLAS thread controls were found"
    return controls


def test_main_runs_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    get, put = blas_thread_controls()
    found, seen = get(), []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(get()))
    try:
        put(2)
        cli.main(["simulate", "--config", str(cli.bundled_config_path("msd")),
                  "--out", str(tmp_path / "o")])
        assert seen == [1]
        assert get() == 2
        # a failing command restores the count too
        assert cli.main(["fit", "--config", str(tmp_path / "missing.yaml")]) == 1
        assert get() == 2
    finally:
        put(found)


def test_reproduce_is_byte_identical_across_blas_threads_and_jobs(tmp_path, manifests):
    blas_thread_controls()
    src = str(Path(cli.__file__).resolve().parents[1])
    here = tmp_path / "in_process"
    assert cli.main(["reproduce", "msd", "--seeds", "2", "--out", str(here)]) == 0
    runs = {here.name: {name: (here / name).read_bytes() for name in sorted(manifests[here])}}
    for threads in ("1", "2"):
        for jobs in ("1", "2"):
            out = tmp_path / f"t{threads}j{jobs}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "helmrff.cli", "reproduce", "msd", "--seeds", "2",
                            "--jobs", jobs, "--out", str(out)], env=env, check=True,
                           capture_output=True, timeout=300)
            runs[out.name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    first = runs.pop("t1j1")
    assert sorted(first) == sorted(manifests[here])
    for name, files in runs.items():
        assert files == first, name


@pytest.fixture(scope="module")
def blas_models():
    """A small msd dataset, a Helmholtz model fitted on the dual side (2d > nN) and an exact model."""
    data = cli.simulate_dataset(cli.parse_config(cli.bundled_config_path("msd")), 0)
    return (data, rg.fit_helmholtz(data, rg.Hyperparameters(1.0, 1e-2, 1e-2, d=200), 0),
            rg.fit_exact_kernel(data, "helmholtz", 1.0, 1e-2))


class Spied(Exception):
    """Raised by a spy after it records the BLAS thread count, to check the restore on an exception."""


LIBRARY_CALLS = {
    "fit_helmholtz": lambda data, model, exact: rg.fit_helmholtz(data, model.hyper, 0),
    "fit_exact_kernel": lambda data, model, exact: rg.fit_exact_kernel(data, "helmholtz", 1.0, 1e-2),
    "cross_validate": lambda data, model, exact: ev.cross_validate(
        data, ev.SearchSpace(sigmas=[1.0, 2.0], lambda1s=[1e-2], lambda2s=[1e-3, 1e-2], folds=3, d=20), 0),
    "stream_grid of a feature model": lambda data, model, exact: ev.stream_grid(model, [[-1, 1], [-1, 1]], 5),
    "stream_grid of an exact model": lambda data, model, exact: ev.stream_grid(exact, [[-1, 1], [-1, 1]], 5),
    "predict": lambda data, model, exact: model.predict(data.states),
}


@pytest.mark.parametrize("raising", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
def test_library_calls_run_on_one_blas_thread_and_restore_the_count(monkeypatch, blas_models, call, raising):
    get, put = blas_thread_controls()
    seen = []

    def spy(original):
        def recording(*args, **kwargs):
            seen.append(get())
            if raising:
                raise Spied
            return original(*args, **kwargs)
        return recording
    for owner, name in ((ft.FactoredDesign, "gram"), (ft.FeatureBasis, "grid_field"), (ft.FeatureBasis, "field"),
                        (rg, "_checked_solve"), (rg, "kernel_blocks")):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    found = get()
    try:
        put(2)
        with pytest.raises(Spied) if raising else contextlib.nullcontext():
            LIBRARY_CALLS[call](*blas_models)
        assert seen and set(seen) == {1}
        assert get() == 2
    finally:
        put(found)


def test_concurrent_library_calls_hold_one_blas_thread_until_the_last_leaves(monkeypatch, blas_models):
    get, put = blas_thread_controls()
    _, model, _ = blas_models
    inside, leave = ({name: threading.Event() for name in "ab"} for _ in range(2))
    field, errors = ft.FeatureBasis.field, []

    def held(self, X, coef):  # holds each thread inside predict until the test lets it leave
        name = threading.current_thread().name
        inside[name].set()
        assert leave[name].wait(60)
        return field(self, X, coef)

    def run():
        try:
            model.predict([0.5, -0.5])
        except BaseException as err:  # reported by the main thread
            errors.append(err)
    monkeypatch.setattr(ft.FeatureBasis, "field", held)
    threads = {name: threading.Thread(target=run, name=name) for name in "ab"}
    found = get()
    try:
        put(2)
        for name, thread in threads.items():
            thread.start()
            assert inside[name].wait(60)
            assert get() == 1
        leave["a"].set()
        threads["a"].join(60)
        assert get() == 1  # b is still inside
        leave["b"].set()
        threads["b"].join(60)
        assert get() == 2
    finally:
        for event in leave.values():
            event.set()
        for thread in threads.values():
            thread.join(60)
        put(found)
    assert not errors


def test_large_fit_and_grid_are_bit_identical_across_blas_threads():
    """At d = 20000 the dual Gram and the grid take long skinny products, which two BLAS threads sum in
    another order; the library computes them on one thread whatever OPENBLAS_NUM_THREADS says."""
    blas_thread_controls()
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import hashlib; from helmrff import cli, regression as rg; "
            "config = cli.parse_config(cli.bundled_config_path('pendulum')); "
            "data = cli.simulate_dataset(config, 0); "
            "model = rg.fit_helmholtz(data, rg.Hyperparameters(1.0, 1e-2, 1e-2, d=20000), 0); "
            "grid = model.predict_grid(config.figure_bounds, config.figure_resolution); "
            "print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in (model.alpha, model.beta, grid)))")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        digests.add(subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                                   text=True, timeout=300).stdout)
    assert len(digests) == 1


def test_runtime_imports_no_scipy():
    """scipy is a test-only dependency: importing the package and its CLI never loads it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, helmrff, helmrff.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"
