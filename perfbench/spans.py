"""Span tracer installed from outside the package.

`install` replaces each traced function of helmrff at every import site
(module namespaces and classes) with a wrapper that records one span per
call: name, start, end, parent span and operation id.  Span stacks are
per thread because `reproduce` runs seeds on a thread pool.  Spans stay in
memory; `Tracer.dump` writes them once, at the end of the operation.

Work counts are computed by the wrappers from the call arguments, so they
repeat exactly from run to run.
"""

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from functools import wraps

import numpy as np

MODULES = ("helmrff", "helmrff.cli", "helmrff.evaluation", "helmrff.systems",
           "helmrff.features", "helmrff.regression", "helmrff.kernels")


def _rows(x) -> int:
    return np.atleast_2d(np.asarray(x)).shape[0]


def _candidates(dataset, space, seed):
    lam2 = 1 if space.lambda2s is None else len(space.lambda2s)
    return {"candidates": len(space.sigmas) * len(space.lambda1s) * lam2 * space.folds}


def _rk4_steps(field, x0, h, t_end):
    return {"steps": int(round(t_end / h))}


def _design_entries(basis, states):
    return {"entries": basis.d * _rows(states) * basis.n}


def _solve_path(design, targets, lam_diag, n_samples):
    # Designs of at most the program's own switch point of coefficients (rows)
    # factor the primal normal matrix, larger ones take the Woodbury dual form.
    limit = getattr(sys.modules["helmrff.regression"], "_PRIMAL_LIMIT", 2048)
    primal = int(design.shape[0] <= limit)
    return {"primal_calls": primal, "dual_calls": 1 - primal}


def _gram_pairs(kind, points, sigma):
    n = _rows(points)
    return {"pair_evals": n * (n + 1) // 2}


def _exact_predict(model, x):
    states = _rows(x)
    return {"states": states, "pair_evals": states * len(model.anchors)}


def _states(model, x):
    return {"states": _rows(x)}


def _written(obj, path, *rest):
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, counter).  Leaf functions called inside
# inner loops (the system fields, the per-pair kernels) are left unwrapped:
# their time is self time of the layer that loops over them.
TARGETS = (
    ("helmrff.cli", "cmd_reproduce", "cli.cmd_reproduce", None),
    ("helmrff.cli", "parse_config", "cli.parse_config", None),
    ("helmrff.cli", "run_protocol", "cli.run_protocol", None),
    ("helmrff.cli", "simulate_dataset", "cli.simulate_dataset", None),
    ("helmrff.systems", "json_dump", "cli.write", _written),
    ("helmrff.systems", "dataset_to_csv", "cli.write", _written),
    ("helmrff.systems", "trajectories_to_csv", "cli.write", _written),
    ("helmrff.evaluation", "stream_grid_to_csv", "cli.write", _written),
    ("helmrff.evaluation", "cross_validate", "evaluation.cross_validate", _candidates),
    ("helmrff.evaluation", "make_test_set", "evaluation.make_test_set", None),
    ("helmrff.evaluation", "evaluate_model", "evaluation.evaluate_model", None),
    ("helmrff.evaluation", "stream_grid", "evaluation.stream_grid", None),
    ("helmrff.systems", "integrate_rk4", "systems.integrate_rk4", _rk4_steps),
    ("helmrff.systems", "generate_dataset", "systems.generate_dataset", None),
    ("helmrff.features", "sample_basis", "features.sample_basis", None),
    ("helmrff.features", "feature_design", "features.feature_design", _design_entries),
    ("helmrff.regression", "fit_helmholtz", "regression.fit_helmholtz", None),
    ("helmrff.regression", "fit_baseline", "regression.fit_baseline", None),
    ("helmrff.regression", "fit_exact_kernel", "regression.fit_exact_kernel", None),
    ("helmrff.regression", "solve_ridge", "regression.solve_ridge", _solve_path),
    ("helmrff.regression", "HelmholtzModel.predict", "regression.HelmholtzModel.predict", _states),
    ("helmrff.regression", "BaselineModel.predict", "regression.BaselineModel.predict", _states),
    ("helmrff.regression", "ExactKernelModel.predict", "regression.ExactKernelModel.predict",
     _exact_predict),
    ("helmrff.kernels", "gram_matrix", "kernels.gram_matrix", _gram_pairs),
)


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(*args, **kwargs) if counter and done else {}
                self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                                   "parent": parent, "thread": threading.get_ident(),
                                   "op": self.op_id, "counts": counts})
        return traced

    def layers(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts, durations."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            layer = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                               "durations": []})
            layer["calls"] += 1
            layer["total_s"] += dur
            layer["self_s"] += dur - child_time[s["id"]]
            layer["durations"].append(dur)
            for key, value in s["counts"].items():
                layer[key] = layer.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(modules: dict, op_id: int) -> Tracer:
    """Wrap every target at every site that binds it; `modules` maps names to modules."""
    tracer = Tracer(op_id)
    for module_name, attr, name, counter in TARGETS:
        owner = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), counter))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, counter)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return tracer
