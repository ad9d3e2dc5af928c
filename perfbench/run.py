"""grasskernels benchmark: CLI task runs, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-n100 --seed 0 --seconds 20

Set-up writes the workload's dataset files with `grasskernels generate`
in fresh interpreters and times them.  The measured part then repeats
the workload's task runs in this process through `grasskernels.harness
.cli.main`, checks every run against perfbench/reference.json, and
prints the metrics.  With `--trace 1` it instead alternates untraced, traced
and two-thread repetitions and prints per-layer metrics; spans go to
.perfbench/spans-<workload>-seed<seed>.jsonl.  The last stdout line is
one JSON object.  See perfbench/README.md for what each workload is for.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import checks
import facts
import tracing

# A second BLAS thread competes with the task for the host's few cores;
# set before numpy loads, and inherited by the set-up runs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import hostspeed  # noqa: E402  (loads numpy)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

TEN_SEEDS = "0,1,2,3,4,5,6,7,8,9"
N100 = ["--d", "100", "--p", "2", "--classes", "10", "--per-class", "10"]

# name -> generate flags, then (task name, task flags) run in order.  Every
# task also gets --dataset <generated file> and --threads.
WORKLOADS = {
    "bench-default": ([], [("bench", ["bench", "--seeds", "0"])]),
    "catalog-n100": (N100, [("pd-check",
                             ["pd-check", "--kernels", "catalog"])]),
    "tasks-n100": (N100, [
        ("svm", ["svm", "--seeds", "0"]),
        ("cluster", ["cluster", "--seeds", TEN_SEEDS]),
        ("hash", ["hash", "--seeds", TEN_SEEDS, "--bits", "60",
                  "--anchors", "30", "--top-m", "10"]),
    ]),
}

# Dataset files a run measures, drawn from the reference's seed pool by
# --seed.  The learners' work depends on the data: the SMO iterations of
# `svm --seeds 0` range from 45k to 68k over the 32 pool datasets, so
# tasks-n100 averages them over six files.
FILES = {"bench-default": 1, "catalog-n100": 1, "tasks-n100": 6}

SETUP_REPEATS = 3
# Fewest untraced repetitions in a run, and fewest cycles of a traced run.
# A bench-default repetition takes 10-20 s and a tasks-n100 one 10-16 s,
# so with --seconds 20 these minimums are all the samples they get.
# tasks-n100 makes two: its six files already give 18 task runs each.
MIN_REPS = {"bench-default": 3, "catalog-n100": 3, "tasks-n100": 2}
MIN_CYCLES = 2
SETUP_TIMEOUT_S = 120
# Host-speed probing (hostspeed.py): after each timed task call, probe
# for a twentieth of that call's time, at least 0.1 s, and for 0.1 s
# before the first; before each set-up sample, for 0.3 s.
PROBE_SHARE = 0.05
PROBE_MIN_S = 0.1
SETUP_PROBE_S = 0.3

# per-layer metrics of a traced run: name -> unit
PER_LAYER_UNITS = {
    "numerics.eigvalsh_calls": "count",
    "numerics.eigvalsh_s": "s",
    "numerics.det_calls": "count",
    "grassmann.similarity_calls": "count",
    "kernels.gram_calls": "count",
    "kernels.gram_s": "s",
    "kernels.gram_entries": "count",
    "kernels.gram_us_per_entry": "us",
    "kernels.evaluate_calls": "count",
    "kernels.certify_calls": "count",
    "kernels.certify_s": "s",
    "machines.svm_train_calls": "count",
    "machines.svm_train_s": "s",
    "machines.svm_iterations": "count",
    "machines.svm_us_per_iteration": "us",
    "machines.svm_decision_s": "s",
    "machines.kkmeans_s": "s",
    "machines.kkmeans_iterations": "count",
    "machines.sparse_codes": "count",
    "machines.sparse_s": "s",
    "machines.sparse_sweeps": "count",
    "machines.sparse_converged_ratio": "ratio",
    "machines.sparse_code_p50_ms": "ms",
    "machines.sparse_code_p95_ms": "ms",
    "machines.klsh_s": "s",
    "harness.load_s": "s",
    "harness.fingerprint_calls": "count",
    "harness.fingerprint_s": "s",
    "harness.render_s": "s",
    "harness.generate_s": "s",
    "harness.self_s": "s",
    "harness.pool_speedup": "ratio",
    "trace_overhead_s": "s",
}

# counters that must repeat bit for bit between traced repetitions
EXACT = ("machines.svm_iterations", "machines.kkmeans_iterations",
         "machines.sparse_sweeps", "machines.sparse_converged_ratio",
         "grassmann.similarity_calls", "kernels.gram_entries")

# one set-up sample: generate every file of the workload in one interpreter
SETUP_SCRIPT = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
                "from grasskernels.harness.cli import main; "
                "sys.exit(max([main(a) for a in json.loads(sys.argv[2])]))")


def dataset_seeds(workload, seed, pool):
    """The pool datasets a run on `seed` measures."""
    return random.Random(seed).sample(range(pool), FILES[workload])


def generate_argv(workload, dataset_seed, path):
    return ["generate", *WORKLOADS[workload][0], "--seed",
            str(dataset_seed), "--out", path]


def run_cli(argv):
    """One in-process CLI run: (exit code, report text, seconds)."""
    main = sys.modules["grasskernels.harness.cli"].main
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a failed task run
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


class Workload:
    """A workload's tasks over its dataset files, with their output checks."""

    def __init__(self, name, files, band):
        self.name = name
        self.files = files  # [(dataset seed, path, reference)]
        self.band = band
        self.attempted = 0
        self.problems = []  # (task, threads, [problem]) per failed task run
        self.other_problems = []  # failures that are not one task run
        self.probes = []  # every probe time taken
        self.scaled = []  # per probed repetition, {(file, task): scaled s}
        self.after = None  # probe times taken right after the last task run

    def run(self, threads, tracer=None, probe=False):
        """Every task on every file once; returns {(file, task): seconds}.

        With `probe`, the host's speed is probed right before and right
        after each task run, and {(file, task): its time scaled by those
        probes} is appended to `self.scaled`.  The probes after one task
        run are the probes before the next.
        """
        times = {}
        scaled = {}
        for dataset_seed, path, reference in self.files:
            for task, flags in WORKLOADS[self.name][1]:
                argv = flags + ["--dataset", path, "--threads", str(threads)]
                if probe and self.after is None:
                    self.after = hostspeed.probe_for(PROBE_MIN_S)
                    self.probes += self.after
                before = self.after
                if tracer is None:
                    code, text, seconds = run_cli(argv)
                else:
                    with tracer.span(tracing.TASK_SPAN, task=task):
                        code, text, seconds = run_cli(argv)
                times[(dataset_seed, task)] = seconds
                if probe:
                    self.after = hostspeed.probe_for(
                        max(PROBE_MIN_S, PROBE_SHARE * seconds))
                    self.probes += self.after
                    scaled[(dataset_seed, task)] = hostspeed.scaled(
                        seconds, before + self.after)
                self.attempted += 1
                summary, found = checks.summarize(code, text)
                found += checks.compare(summary, reference["tasks"][task],
                                        self.band)
                if found:
                    self.problems.append(
                        (f"{task} on dataset {dataset_seed}", threads, found))
        if probe:
            self.scaled.append(scaled)
        return times


def repeat(seconds, body, min_samples):
    """Call `body` min_samples times, then while the next call fits in time."""
    samples = []
    took = []
    start = time.perf_counter()
    while (len(samples) < min_samples or time.perf_counter() - start
           + statistics.median(took) <= seconds):
        began = time.perf_counter()
        samples.append(body())
        took.append(time.perf_counter() - began)
    return samples


def typical(repetitions):
    """Sum over task runs of each one's median time in `repetitions`.

    On a shared 2-vCPU Xeon VM the host runs at full speed in short
    bursts and at about 60-80% of it for tens of seconds at a time.  The
    fastest repetition depends on whether a run caught a burst; the
    median does not, so it repeats better from run to run.
    """
    return sum(statistics.median(times[cell] for times in repetitions)
               for cell in repetitions[0])


def set_up(bench):
    """Generate the dataset files in fresh interpreters.

    Returns their times, their times scaled by the probes taken right
    before each, and all those probe times.
    """
    argvs = [generate_argv(bench.name, seed, path)
             for seed, path, _ in bench.files]
    argv = [sys.executable, "-c", SETUP_SCRIPT, SRC, json.dumps(argvs)]
    times = []
    scaled = []
    probes = []
    contents = set()
    for _ in range(SETUP_REPEATS):
        block = hostspeed.probe_for(SETUP_PROBE_S)
        probes += block
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        scaled.append(hostspeed.scaled(times[-1], block))
        if done.returncode != 0:
            sys.exit(f"set-up failed: {done.stderr.decode().strip()}")
        written = []
        for _, path, _ in bench.files:
            with open(path, "rb") as handle:
                written.append(handle.read())
        contents.add(tuple(written))
    if len(contents) != 1:
        sys.exit("set-up wrote different dataset files for one seed")
    return times, scaled, probes


def measure(bench, seconds):
    setup, setup_scaled, setup_probes = set_up(bench)
    reps = repeat(seconds, lambda: bench.run(threads=1, probe=True),
                  MIN_REPS[bench.name])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = len(bench.problems)
    wall = typical(reps)
    setup_median = statistics.median(setup)
    print("samples: repetition wall " + " ".join(
        f"{sum(r.values()):.3f}" for r in reps)
        + " | setup_s " + " ".join(f"{t:.3f}" for t in setup))
    for name, raw, probes in (("wall_s", wall, bench.probes),
                              ("setup_s", setup_median, setup_probes)):
        print(f"samples: {name} unscaled {raw:.4f} s, probe mean "
              f"{statistics.fmean(probes) * 1e3:.2f} ms over {len(probes)}")
    print(f"fail_ratio {failed}/{bench.attempted}")
    return {
        "wall_s": (typical(bench.scaled), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "pass_ratio": ((bench.attempted - failed) / bench.attempted, "ratio"),
    }


def measure_traced(bench, seed, seconds, tracer):
    tracer.begin_run("generate")
    for dataset_seed, path, _ in bench.files:
        with tracer.installed(), tracer.span(tracing.TASK_SPAN,
                                             task="generate"):
            code, _, _ = run_cli(generate_argv(bench.name, dataset_seed,
                                               path))
        if code != 0:
            sys.exit(f"generate exited with {code}")
    walls = {"untraced": [], "traced": [], "threads2": []}

    def cycle():
        walls["untraced"].append(bench.run(threads=1))
        tracer.begin_run(f"{tracer.workload}-s{seed}-"
                         f"{os.getpid()}-r{len(walls['traced'])}")
        with tracer.installed():
            walls["traced"].append(bench.run(threads=1, tracer=tracer))
        walls["threads2"].append(bench.run(threads=2))

    repeat(seconds, cycle, MIN_CYCLES)
    runs = [run for run in tracer.counts if run != "generate"]
    per_run = [layer_metrics(tracer, run) for run in runs]
    for name in EXACT:
        if len({metrics[name] for metrics in per_run}) != 1:
            bench.other_problems.append(
                f"{name} differs between traced repetitions")
    metrics = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        metrics[name] = (statistics.median(values)
                         if PER_LAYER_UNITS[name] in ("s", "us")
                         else values[0])
    code_ms = [(s[3] - s[2]) * 1e3 for s in tracer.spans
               if s[1] == "machines.sparse_code"]
    metrics["machines.sparse_code_p50_ms"] = (
        statistics.median(code_ms) if code_ms else 0.0)
    metrics["machines.sparse_code_p95_ms"] = (
        statistics.quantiles(code_ms, n=20, method="inclusive")[18]
        if len(code_ms) > 1 else sum(code_ms, 0.0))
    metrics["harness.generate_s"] = sum(
        s[3] - s[2] for s in tracer.spans
        if s[6] == "generate" and s[1] == tracing.TASK_SPAN)
    metrics["harness.pool_speedup"] = (typical(walls["untraced"])
                                       / typical(walls["threads2"]))
    metrics["trace_overhead_s"] = (typical(walls["traced"])
                                   - typical(walls["untraced"]))
    span_path = os.path.join(WORK, f"spans-{bench.name}-seed{seed}.jsonl")
    tracer.write(span_path)
    for kind, reps in walls.items():
        print(f"samples: {kind} wall " + " ".join(
            f"{sum(r.values()):.3f}" for r in reps))
    print(f"samples: {len(code_ms)} sparse codes; spans in {span_path}")
    print(f"fail_ratio {len(bench.problems)}/{bench.attempted}")
    return {name: (metrics[name], PER_LAYER_UNITS[name])
            for name in PER_LAYER_UNITS}


def layer_metrics(tracer, run):
    """Per-layer totals of one traced repetition."""
    spans = [s for s in tracer.spans if s[6] == run]
    counts = tracer.counts[run]

    def calls(name):
        return sum(1 for s in spans if s[1] == name)

    def busy(*names):
        return sum(s[3] - s[2] for s in spans if s[1] in names)

    def per(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    tasks = [s for s in spans if s[1] == tracing.TASK_SPAN]
    codes = calls("machines.sparse_code")
    return {
        "numerics.eigvalsh_calls": calls("numerics.eigvalsh"),
        "numerics.eigvalsh_s": busy("numerics.eigvalsh"),
        "numerics.det_calls": counts["numerics.det"],
        "grassmann.similarity_calls": counts["grassmann.similarity"],
        "kernels.gram_calls": calls("kernels.gram"),
        "kernels.gram_s": busy("kernels.gram"),
        "kernels.gram_entries": counts["kernels.gram_entries"],
        "kernels.gram_us_per_entry": per(busy("kernels.gram"),
                                         counts["kernels.gram_entries"], 1e6),
        "kernels.evaluate_calls": counts["kernels.evaluate"],
        "kernels.certify_calls": calls("kernels.certify"),
        "kernels.certify_s": busy("kernels.certify"),
        "machines.svm_train_calls": calls("machines.svm_train"),
        "machines.svm_train_s": busy("machines.svm_train"),
        "machines.svm_iterations": counts["machines.svm_iterations"],
        "machines.svm_us_per_iteration": per(
            busy("machines.svm_train"), counts["machines.svm_iterations"],
            1e6),
        "machines.svm_decision_s": busy("machines.svm_decision"),
        "machines.kkmeans_s": busy("machines.kkmeans"),
        "machines.kkmeans_iterations": counts["machines.kkmeans_iterations"],
        "machines.sparse_codes": codes,
        "machines.sparse_s": busy("machines.sparse_code"),
        "machines.sparse_sweeps": counts["machines.sparse_sweeps"],
        "machines.sparse_converged_ratio": per(
            counts["machines.sparse_converged"], codes, 1.0),
        "machines.klsh_s": busy("machines.klsh_build", "machines.klsh_hash"),
        "harness.load_s": busy("harness.load"),
        "harness.fingerprint_calls": calls("harness.fingerprint"),
        "harness.fingerprint_s": busy("harness.fingerprint"),
        "harness.render_s": busy(tracing.RENDER_SPAN),
        "harness.self_s": sum(tracing.self_time(t, children.get(t[0], []))
                              for t in tasks),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "grasskernels")):
        sys.exit(f"no grasskernels sources under {SRC}")
    sys.path.insert(0, SRC)
    import grasskernels.harness.cli  # noqa: F401  (measured from here on)

    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    seeds = dataset_seeds(args.workload, args.seed, reference["seed_pool"])
    os.makedirs(WORK, exist_ok=True)
    files = [(s, os.path.join(WORK, f"{args.workload}-seed{s}.txt"),
              reference["workloads"][args.workload][str(s)]) for s in seeds]
    bench = Workload(args.workload, files, reference["counterexample_band"])
    if args.trace:
        metrics = measure_traced(bench, args.seed, args.seconds,
                                 tracing.Tracer(args.workload))
    else:
        metrics = measure(bench, args.seconds)

    input_sha256 = {}
    for dataset_seed, path, expected in files:
        with open(path, "rb") as handle:
            input_sha256[dataset_seed] = hashlib.sha256(
                handle.read()).hexdigest()
        if input_sha256[dataset_seed] != expected["input_sha256"]:
            bench.other_problems.append(
                f"dataset {dataset_seed} differs from the one the "
                "reference was recorded on")
    for task, threads, found in bench.problems:
        for problem in found:
            print(f"FAILED {task} --threads {threads}: {problem}")
    for problem in bench.other_problems:
        print(f"FAILED {problem}")
    print("facts " + json.dumps(facts.collect(
        ROOT, {"workload": args.workload, "seed": args.seed,
               "dataset_seeds": seeds,
               "input_sha256": input_sha256})))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not (bench.problems or bench.other_problems),
        "attempted": bench.attempted,
        "failed": len(bench.problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
