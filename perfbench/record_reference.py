"""Record the outputs the benchmark checks its task runs against.

Run from the repository root, at the commit whose outputs become the
reference:

    python3 perfbench/record_reference.py

For every workload and every dataset seed of the pool it generates the
dataset, runs each task once at --threads 1, and stores the checked
facts of each report (see checks.py) with the input file's sha256.  It
takes about eight minutes on one core.
"""

import hashlib
import json
import os
import sys

import checks
import facts
import run

# The benchmark draws each run's dataset seeds from range(SEED_POOL).
SEED_POOL = 32


def main():
    sys.path.insert(0, run.SRC)
    import grasskernels.harness.cli  # noqa: F401  (run.run_cli looks it up)
    from grasskernels.harness.experiments import COUNTEREXAMPLE_BAND
    os.makedirs(run.WORK, exist_ok=True)
    workloads = {}
    for name, (_, tasks) in run.WORKLOADS.items():
        workloads[name] = {}
        for seed in range(SEED_POOL):
            path = os.path.join(run.WORK, f"reference-{name}.txt")
            code, _, _ = run.run_cli(run.generate_argv(name, seed, path))
            if code != 0:
                sys.exit(f"generate {name} seed {seed} exited with {code}")
            with open(path, "rb") as handle:
                sha = hashlib.sha256(handle.read()).hexdigest()
            outputs = {}
            wall = 0.0
            for task, flags in tasks:
                code, text, seconds = run.run_cli(
                    flags + ["--dataset", path, "--threads", "1"])
                outputs[task], problems = checks.summarize(code, text)
                if problems:
                    sys.exit(f"{name} seed {seed} {task}: {problems}")
                wall += seconds
            workloads[name][str(seed)] = {"input_sha256": sha,
                                          "tasks": outputs}
            print(f"{name} seed {seed} recorded, tasks took {wall:.3f} s",
                  flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"recorded_at_commit": facts.git_commit(run.ROOT),
                   "seed_pool": SEED_POOL,
                   "counterexample_band": list(COUNTEREXAMPLE_BAND),
                   "workloads": workloads}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
