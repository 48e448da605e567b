"""Golden digests: the SHA-256 of every file and of stdout of a fixed set of command-line runs, recorded
beside a stamp of the environment factors known to move their bytes (see the README's determinism notes).

Where the stamp matches, every digest must match, so a change that moves an artifact by accident fails
here even when every pick and every MSE stays inside the reference check's bounds.  Elsewhere the test
skips and names each factor that differs.

A change that moves an artifact on purpose re-records the file from the repository root:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from helmrff import cli, kernels

GOLDEN = Path(__file__).with_name("golden_digests.json")


def runs(root: Path) -> dict:
    """The command of each golden run by name, writing under `root`; an `eval` re-scores the Helmholtz model of
    the `fit` before it."""
    commands = {}
    for name in ("msd", "pendulum"):
        config = str(cli.bundled_config_path(name))
        commands.update({
            f"reproduce-{name}": ["reproduce", name, "--seeds", "2", "--jobs", "2"],
            f"simulate-{name}": ["simulate", "--config", config],
            f"fit-{name}": ["fit", "--config", config, "--fixed-hypers", "2.0,1e-4,1e-4"],
            f"eval-{name}": ["eval", "--config", config, "--model", str(root / f"fit-{name}" / "model_helmholtz.json")],
        })
    return {run: argv + ["--out", str(root / run)] for run, argv in commands.items()}


def digests(root: Path) -> dict:
    """Run every golden command in process, each into its own directory under `root`, and return its exit
    code and the SHA-256 of its stdout and of each file it wrote, keyed `run/exit`, `run/stdout`, `run/file`."""
    found = {}
    for run, argv in runs(root).items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            found[f"{run}/exit"] = cli.main(argv)
        found[f"{run}/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        found.update({f"{run}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted((root / run).iterdir())})
    return found


def _openblas_core() -> str | None:
    """The CPU kernel set the OpenBLAS numpy links picked at load time, or None without OpenBLAS."""
    if (corename := kernels._openblas_function("get_corename")) is None:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    """The factors shown to move artifact bytes: the numpy build, its BLAS and the CPU paths both pick."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_core": _openblas_core(),
            "avx512": sorted(feature for feature, on in __cpu_features__.items()
                             if on and feature.startswith("AVX512"))}


def test_cli_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    differ = [f"{factor} is {here.get(factor)!r}, recorded {value!r}"
              for factor, value in golden["environment"].items() if here.get(factor) != value]
    if differ:
        pytest.skip(f"golden digests were recorded in another environment: {'; '.join(differ)}")
    found = digests(tmp_path)
    want = golden["digests"]
    moved = sorted(key for key in found.keys() | want.keys() if found.get(key) != want.get(key))
    assert not moved, f"outputs moved from the golden digests: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record['digests'])} digests in {GOLDEN}")
