"""One benchmark operation in a fresh interpreter.

    python3 perfbench/op.py WORKLOAD BASE OUT_DIR [--op ID] [--trace] [--setup-only]

Imports helmrff from the checkout's `src`, times that import and the
config parse (set-up), then runs one operation of WORKLOAD with BASE as the
first master seed and writes its outputs under OUT_DIR.  The measurements
and the outputs the parent checks go to OUT_DIR/result.json.  With
--setup-only it stops after set-up.  The exit code is the operation's.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Oracle case: fixed hyperparameters of acceptance criterion 6, full N.
ORACLE_SIGMA = 1.0
ORACLE_LAMBDA = 1e-2
ORACLE_D = 20000
# Criterion 6 holds 0.05 at probes near an N = 8 subset.  Over the whole
# figure grid at full N the d = 20000 Monte-Carlo error of a correct fit
# reaches 0.063 (master seeds 0..33, both systems), so 0.05 would fail
# correct operations; a wrong field deviates by O(1).
ORACLE_TOL = 0.1

SEEDS = 10
JOBS = 2
SYSTEMS = {"reproduce-pendulum": ("pendulum",), "reproduce-msd": ("msd",),
           "oracle": ("pendulum", "msd")}


def _reproduce(cli, system: str, base: int, out: Path) -> dict:
    argv = ["reproduce", system, "--seeds", str(SEEDS), "--jobs", str(JOBS),
            "--seed", str(base), "--out", str(out)]
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        code = cli.main(argv)
    if code != 0:
        print(summary.getvalue(), file=sys.stderr)
    return {"exit_code": code}


def _collect_reproduce(out: Path) -> dict:
    artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    report = json.loads((out / "report.json").read_text())
    cases = [{"model": r["model"], "seed": r["seed"], "train_mse": r["train_mse"],
              "test_mse": r["test_mse"],
              "hyper": [r["hyper"]["sigma"], r["hyper"]["lambda1"], r["hyper"]["lambda2"]]}
             for r in report["reports"]]
    return {"artifacts": artifacts, "cases": cases}


def _oracle(hr, cli, np, base: int) -> dict:
    """Exact-kernel against d = 20000 RFF Helmholtz field on the figure grid.

    The parent judges the deviations against ORACLE_TOL.
    """
    cases = []
    for system in SYSTEMS["oracle"]:
        config = cli.parse_config(cli.bundled_config_path(system))
        dataset = cli.simulate_dataset(config, base)
        exact = hr.fit_exact_kernel(dataset, "helmholtz", ORACLE_SIGMA, ORACLE_LAMBDA)
        hyper = hr.Hyperparameters(ORACLE_SIGMA, ORACLE_LAMBDA, ORACLE_LAMBDA, d=ORACLE_D)
        rff = hr.fit_helmholtz(dataset, hyper, base)
        grid_e = hr.stream_grid(exact, config.figure_bounds, config.figure_resolution)
        grid_r = hr.stream_grid(rff, config.figure_bounds, config.figure_resolution)
        f_e, f_r = grid_e[:, 2:], grid_r[:, 2:]
        # Deviation relative to the largest exact-field norm on the grid: far
        # from the data both fields decay to zero, so pointwise ratios would
        # measure noise, not disagreement.
        dev = np.linalg.norm(f_r - f_e, axis=1).max() / np.linalg.norm(f_e, axis=1).max()
        # Quality of the RFF fit: its relative MSE against the true field at
        # the training states.  `dev` is the d = 20000 Monte-Carlo error
        # itself and changes by up to 2x with the feature draw; this error
        # is mostly the regression's and moves by a few percent.
        truth = np.array([config.make_system().field(x) for x in dataset.states])
        field_err = (np.mean(np.sum((rff.predict(dataset.states) - truth) ** 2, axis=1))
                     / np.mean(np.sum(truth**2, axis=1)))
        finite = bool(np.all(np.isfinite(grid_e)) and np.all(np.isfinite(grid_r))
                      and np.isfinite(field_err))
        cases.append({"system": system, "seed": base, "dev": float(dev),
                      "field_mse_rel": float(field_err), "finite": finite})
    return {"exit_code": 0, "cases": cases}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(SYSTEMS))
    parser.add_argument("base", type=int)
    parser.add_argument("out")
    parser.add_argument("--op", type=int, default=0, help="operation id stamped on spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import helmrff as hr
    if not Path(hr.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"helmrff imported from {hr.__file__}, not from {SRC}")
    from helmrff import cli
    import numpy as np
    t1 = time.perf_counter()
    for system in SYSTEMS[args.workload]:
        cli.parse_config(cli.bundled_config_path(system))
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "config_s": t2 - t1}
    if args.setup_only:
        (out / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install({name: importlib.import_module(name) for name in spans.MODULES},
                               args.op)

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if args.workload == "oracle":
        outcome = _oracle(hr, cli, np, args.base)
    else:
        outcome = _reproduce(cli, SYSTEMS[args.workload][0], args.base, out / "artifacts")
    run_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(outcome)
    result["run_s"] = run_s
    result["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    result["peak_rss_mb"] = usage1.ru_maxrss / 1024.0
    if args.workload != "oracle":
        result.update(_collect_reproduce(out / "artifacts"))
    if tracer is not None:
        tracer.dump(out / "spans.json")
        result["layers"] = tracer.layers()
    (out / "result.json").write_text(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
