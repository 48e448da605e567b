"""helmrff benchmark: whole-program runs of the reproduction and the oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One parent process runs a closed loop of
operations, one per fresh `python3 perfbench/op.py` child, until the next
operation would end after S seconds, but at least MIN_OPS operations.  The
whole run, set-up probes included, is cut at 2 x S seconds, which comes
first: no operation starts that would end later, and a child still running
then is killed and its operation counted as failed.  The
workload seed, reduced modulo the reference's range, is the first master
seed of every operation, so one seed gives the same inputs every time.

Workloads (see BENCHMARK.json for why each is there):
  reproduce-pendulum  `helmrff reproduce pendulum --seeds 10 --jobs 2`
  reproduce-msd       `helmrff reproduce msd --seeds 10 --jobs 2`
  oracle              exact-kernel against d = 20000 RFF fits, one master
                      seed per bundled system, on the 25 x 25 figure grid

`--jobs 2` matches the two cores the benchmark was defined on; OpenBLAS
keeps its default thread count, which is recorded in the environment line.

Every operation is checked: exit code 0 (reproduction thresholds pass),
finite MSEs for every seed and model, every artifact written, and for the
oracle a field deviation within ORACLE_TOL.  A failed operation is counted,
kept out of the medians, and not retried.  Determinism against
reference.json (artifact hashes, selected hyperparameters, per-seed MSEs) is
reported as counts, never as failures.

End-to-end metrics, medians over the untraced operations of a run:
  run_s         wall seconds of the operation, timed inside its child after
                set-up
  setup_s       `import helmrff, helmrff.cli` plus parse_config of the
                workload's bundled configs, in fresh interpreters (SETUP_PROBES
                probes plus every operation's own set-up)
  cpu_s         user + system seconds of the operation, all threads
  peak_rss_mb   peak resident set of the operation's child
Fit quality is gated by the correctness check, not bounded as a metric: the
per-layer `error_vs_ref` is, per case, the Helmholtz model's error over
reference.json's value, 1 on the reference code.  The error is the test MSE
per master seed for reproduce-*, which a change of the random feature draw
alone moves by 0.01-16x per seed, and for the oracle the d = 20000 fit's
relative MSE against the true field at the training states, which such a
change moves by a few percent (the grid deviation would move by up to 2x).
Per-layer self times are summed over the pool's threads, so on reproduce-*
they can exceed run_s.

With --trace 0 every operation runs untraced and the final JSON line holds
the end-to-end metrics.  With --trace 1 operations alternate untraced and
traced (spans.py); the final line holds the per-layer metrics, and the text
above it lists every metric.  The last line of stdout is the JSON result;
the full summary also goes to .bench_out/<workload>-seed<N>-trace<T>/.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from op import JOBS, ORACLE_TOL, SEEDS, SYSTEMS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP = BENCH / "op.py"
REFERENCE = BENCH / "reference.json"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3
# Operations per run at least; a traced run needs two untraced and two traced.
MIN_OPS = 3
MIN_TRACED_RUN_OPS = 4

# Per-layer metrics read from spans, named <span>.<statistic>: the median over
# traced operations of that operation's total.  A layer a workload never
# enters reads 0.  Names and units of every metric are those of BENCHMARK.json.
SPAN_METRICS = (
    "evaluation.cross_validate.self_s",
    "evaluation.cross_validate.candidates",
    "systems.integrate_rk4.self_s",
    "systems.integrate_rk4.steps",
    "evaluation.make_test_set.self_s",
    "regression.solve_ridge.self_s",
    "regression.solve_ridge.primal_calls",
    "regression.solve_ridge.dual_calls",
    "kernels.gram_matrix.self_s",
    "kernels.gram_matrix.pair_evals",
    "regression.ExactKernelModel.predict.self_s",
    "regression.ExactKernelModel.predict.pair_evals",
    "features.feature_design.self_s",
    "features.feature_design.entries",
    "regression.HelmholtzModel.predict.self_s",
    "regression.HelmholtzModel.predict.states",
    "evaluation.stream_grid.self_s",
    "cli.run_protocol.calls",
    "cli.write.self_s",
    "cli.write.bytes",
)


def environment() -> dict:
    """Machine and library facts every result is stamped with."""
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {"numpy": _openblas_threads(np), "scipy": _openblas_threads(scipy)},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "jobs": JOBS,
    }


def _openblas_threads(package):
    """Thread count the package's bundled OpenBLAS will use, or None."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_op(workload, base, out: Path, op_id=0, trace=False, setup_only=False, timeout=None):
    """Run one child operation; return (wall seconds, result dict or None, error text)."""
    cmd = [sys.executable, str(OP), workload, str(base), str(out), "--op", str(op_id)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, f"timed out after {timeout:.1f} s"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return wall, None, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return wall, json.loads((out / "result.json").read_text()), ""


REPRODUCE_ARTIFACTS = {"summary.csv", "summary.txt", "report.json", "grid_data.csv",
                       "grid_true.csv", "grid_gaussian.csv", "grid_helmholtz.csv"}


def check_op(workload, base, result) -> str:
    """Empty string if the operation's outputs are correct, else the reason."""
    if workload == "oracle":
        if len(result["cases"]) != len(SYSTEMS["oracle"]):
            return f"expected one oracle case per system, got {result['cases']}"
        bad = [c for c in result["cases"] if not (c["finite"] and c["dev"] <= ORACLE_TOL)]
        return f"oracle deviation above {ORACLE_TOL}: {bad}" if bad else ""
    expected = {(model, base + i) for model in ("helmholtz", "gaussian") for i in range(SEEDS)}
    got = {(c["model"], c["seed"]) for c in result["cases"]}
    if got != expected or len(result["cases"]) != len(expected):
        return f"report covers {sorted(got)}, expected models x seeds {base}..{base + SEEDS - 1}"
    if not all(math.isfinite(c[k]) for c in result["cases"] for k in ("train_mse", "test_mse")):
        return "non-finite MSE in report.json"
    missing = REPRODUCE_ARTIFACTS - set(result["artifacts"])
    return f"missing artifacts {sorted(missing)}" if missing else ""


def compare_reference(workload, base, result, reference) -> dict:
    """Quality and determinism of one operation against the seed-commit reference."""
    ref = reference[workload]
    if workload == "oracle":
        refs = [ref["cases"][f"{c['system']}/{c['seed']}"] for c in result["cases"]]
        drift = [abs(c[key] / r[key] - 1.0) for c, r in zip(result["cases"], refs)
                 for key in ("dev", "field_mse_rel")]
        return {
            "error_vs_ref": statistics.median(
                c["field_mse_rel"] / r["field_mse_rel"] for c, r in zip(result["cases"], refs)),
            "helmholtz_test_mse": 0.0,
            "oracle_max_rel_dev": max(c["dev"] for c in result["cases"]),
            "mse_drift_rel": max(drift),
            "cli.artifacts_identical": 0,
            "evaluation.hyper_mismatches": 0,
        }
    drift, mismatches, ratios, test_mse = 0.0, 0, [], []
    for c in result["cases"]:
        r = ref["cases"][f"{c['model']}/{c['seed']}"]
        for key in ("train_mse", "test_mse"):
            drift = max(drift, abs(c[key] / r[key] - 1.0))
        mismatches += c["hyper"] != r["hyper"]
        if c["model"] == "helmholtz":
            ratios.append(c["test_mse"] / r["test_mse"])
            test_mse.append(c["test_mse"])
    hashes = ref["artifacts"][str(base)]
    return {
        "error_vs_ref": statistics.median(ratios),
        "helmholtz_test_mse": statistics.median(test_mse),
        "oracle_max_rel_dev": 0.0,
        "mse_drift_rel": drift,
        "cli.artifacts_identical": sum(result["artifacts"].get(k) == v for k, v in hashes.items()),
        "evaluation.hyper_mismatches": mismatches,
    }


def span_metrics(traced: list) -> dict:
    """Per-layer figures from the traced operations' span summaries."""
    out = {}
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        pick = statistics.median if stat == "self_s" else statistics.median_low
        out[name] = pick(r["layers"].get(span, {}).get(stat, 0) for r in traced)
    protocol = [d for r in traced for d in r["layers"].get("cli.run_protocol", {}).get("durations", [])]
    out["cli.run_protocol.p50_s"] = statistics.median(protocol) if protocol else 0.0
    out["cli.pool.busy_ratio"] = statistics.median(
        sum(r["layers"].get("cli.run_protocol", {}).get("durations", [])) / (r["run_s"] * JOBS)
        for r in traced)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SYSTEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    limit = time.perf_counter() + 2 * args.seconds

    if not (ROOT / "src" / "helmrff" / "__init__.py").is_file():
        print(f"error: no helmrff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    base = args.seed % reference["bases"]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()

    setups = []
    for i in range(SETUP_PROBES):
        _, result, error = run_op(args.workload, base, run_dir / f"setup{i}", setup_only=True,
                                  timeout=max(0.0, limit - time.perf_counter()))
        if result is None:
            print(f"error: set-up failed: {error}", file=sys.stderr)
            return 1
        setups.append(result)

    deadline = time.perf_counter() + args.seconds
    min_ops = MIN_TRACED_RUN_OPS if args.trace else MIN_OPS
    ops, walls, failed = [], [], 0
    while True:
        op_id = len(walls)
        traced = bool(args.trace) and op_id % 2 == 1
        out = run_dir / f"op{op_id}"
        timeout = max(0.0, limit - time.perf_counter())
        wall, result, error = run_op(args.workload, base, out, op_id, traced, timeout=timeout)
        walls.append(wall)
        if result is not None:
            error = check_op(args.workload, base, result)
        shutil.rmtree(out / "artifacts", ignore_errors=True)
        if error:
            failed += 1
            print(f"op {op_id} failed: {error}", file=sys.stderr)
        else:
            result["traced"] = traced
            result.update(compare_reference(args.workload, base, result, reference))
            ops.append(result)
        next_end = time.perf_counter() + statistics.median(walls)
        if (op_id + 1 >= min_ops and next_end > deadline) or next_end > limit:
            break
    attempted = len(walls)
    plain = [r for r in ops if not r["traced"]]
    traced_ops = [r for r in ops if r["traced"]]
    if not plain or (args.trace and not traced_ops):
        print(f"error: {failed} of {attempted} operations failed", file=sys.stderr)
        return 1

    def med(key, rows=plain):
        return statistics.median(r[key] for r in rows)

    setup_all = setups + ops
    e2e = {
        "run_s": med("run_s"),
        "setup_s": statistics.median(r["import_s"] + r["config_s"] for r in setup_all),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    layer = {
        "ops": attempted,
        "ops_failed": failed,
        "failed_ratio": failed / attempted,
        "error_vs_ref": med("error_vs_ref", ops),
        "helmholtz_test_mse": med("helmholtz_test_mse", ops),
        "oracle_max_rel_dev": max(r["oracle_max_rel_dev"] for r in ops),
        "mse_drift_rel": max(r["mse_drift_rel"] for r in ops),
        "cli.artifacts_identical": min(r["cli.artifacts_identical"] for r in ops),
        "evaluation.hyper_mismatches": max(r["evaluation.hyper_mismatches"] for r in ops),
        "setup.import_s": statistics.median(r["import_s"] for r in setup_all),
        "setup.config_s": statistics.median(r["config_s"] for r in setup_all),
    }
    if traced_ops:
        layer.update(span_metrics(traced_ops))
        layer["trace.overhead_s"] = med("run_s", traced_ops) - e2e["run_s"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {**e2e, **layer}
    print(f"helmrff benchmark: workload={args.workload} seed={args.seed} "
          f"first_master_seed={base} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"operations: {attempted} attempted, {failed} failed, {len(plain)} untraced "
          f"and {len(traced_ops)} traced timed; set-up samples: {len(setup_all)}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] in values:
            print(f"  {metric['name']:<48} {values[metric['name']]:>14.6g} {metric['unit']}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (run_dir / "summary.json").write_text(json.dumps(
        {**summary, "environment": env, "end_to_end": e2e, "per_layer": layer,
         "samples": {"run_s": [r["run_s"] for r in plain], "walls": walls}}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
