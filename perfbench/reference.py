"""Record the quality and determinism reference of the current code.

    python3 perfbench/reference.py

Runs every workload untraced for each first master seed 0..BASES-1 and
writes a fresh perfbench/reference.json: artifact hashes per first master
seed, per-seed MSEs and selected hyperparameters, and per oracle case the
grid deviation and the field error.  The benchmark maps its workload seed
into 0..BASES-1 and compares every operation against this file, so
re-record it only on purpose; the recorded environment line says where it
was made.
"""

import json
import sys

from run import OUT, REFERENCE, SYSTEMS, check_op, environment, run_op

BASES = 32


def main() -> int:
    doc = {"bases": BASES, "environment": environment()}
    for workload in sorted(SYSTEMS):
        cases, artifacts = {}, {}
        for base in range(BASES):
            _, result, error = run_op(workload, base, OUT / "reference" / workload)
            if result is not None:
                error = check_op(workload, base, result)
            if error:
                print(f"{workload} first master seed {base}: {error}", file=sys.stderr)
                return 1
            for c in result["cases"]:
                if workload == "oracle":
                    cases[f"{c['system']}/{c['seed']}"] = {k: c[k] for k in ("dev", "field_mse_rel")}
                else:
                    key = f"{c['model']}/{c['seed']}"
                    row = {k: c[k] for k in ("train_mse", "test_mse", "hyper")}
                    if cases.setdefault(key, row) != row:
                        print(f"{workload} {key}: differs between runs", file=sys.stderr)
                        return 1
            if workload != "oracle":
                artifacts[str(base)] = result["artifacts"]
            print(f"{workload} {base} done", file=sys.stderr, flush=True)
        doc[workload] = {"cases": cases, **({"artifacts": artifacts} if artifacts else {})}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
