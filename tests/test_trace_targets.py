"""The span tracer in perfbench/spans.py wraps package functions by name,
and the benchmark's operations in perfbench/op.py call top-level names of
the package and names of its command line.

A rename or a changed signature in the package would only surface when a
benchmark run crashes; these tests catch it with the regular suite.  A
counter that binds but then fails on what it reads, such as the ridge
solve's `design.shape`, fails the traced operation, so one traced oracle
operation runs end to end as well.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import helmrff
from helmrff import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    spans = load_spans()
    assert spans.TARGETS
    for module_name, attr, span, counter in spans.TARGETS:
        assert module_name in spans.MODULES, span
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{module_name}.{attr} is traced but does not exist"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr} is not callable"
        if counter is not None:
            # the tracer calls the counter with the target's own arguments
            positional = list(inspect.signature(target).parameters)
            inspect.signature(counter).bind(*positional)


def test_every_package_name_the_benchmark_calls_resolves():
    """op.py imports the package as `hr` and its command line as `cli`; every `hr.<name>` and `cli.<name>`
    it reads must exist."""
    tree = ast.parse((PERFBENCH / "op.py").read_text())
    for alias, module in (("hr", helmrff), ("cli", cli)):
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == alias}
        assert names, alias
        assert not sorted(name for name in names if not hasattr(module, name)), alias


def test_a_traced_oracle_operation_counts_both_ridge_solves(tmp_path):
    run = subprocess.run([sys.executable, str(PERFBENCH / "op.py"), "oracle", "0", str(tmp_path), "--trace"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    solves = json.loads((tmp_path / "result.json").read_text())["layers"]["regression.solve_ridge"]
    assert solves["calls"] == 2
    assert solves["primal_calls"] + solves["dual_calls"] == 2
