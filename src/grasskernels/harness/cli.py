"""Command line interface.

One subcommand per task.  Flags override config file values; the fully
resolved configuration is embedded in every report.  Exit codes: 0 for
success, 1 when a task that asserts something (pd-check, counterexample,
bench) finds its assertion violated, 2 for input errors.  pd-check
asserts certification only of the kernels that theory calls pd or cpd.
"""

import argparse
import sys

from ..exceptions import InputError, InvalidKernelParameter
from .config import TASKS, build_config, load_config_file
from .experiments import run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grasskernels",
        description="Subspace kernel experiments: Gram matrices, spectral "
                    "certification, classification, clustering, hashing "
                    "and sparse coding.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file of key=value lines")
    common.add_argument("--dataset", help="dataset file to load instead of "
                                          "generating one")
    common.add_argument("--out", help="output path (report file; directory "
                                      "for gram; dataset file for generate)")
    common.add_argument("--seed", help="generation seed")
    common.add_argument("--seeds", help="split / repeat seeds, "
                                        "comma or space separated")
    common.add_argument("--threads", help="accepted and has no effect; "
                                          "must be at least 1")
    common.add_argument("--kernels", help="kernel tokens like "
                                          "rbf:projection:beta=0.5, comma "
                                          "separated; 'catalog' expands to "
                                          "the full catalog")
    common.add_argument("--d", help="ambient dimension for generated data")
    common.add_argument("--p", help="subspace dimension for generated data")
    common.add_argument("--classes", help="class count for generated data")
    common.add_argument("--per-class", help="members per generated class")
    common.add_argument("--noise-angle", help="largest rotation angle "
                                              "within a generated class")
    common.add_argument("--name", help="name for generated data")
    common.add_argument("--train-fraction", help="training share per split")
    common.add_argument("--svm-c", help="soft margin penalty")
    common.add_argument("--clusters", help="cluster count, 0 means the "
                                           "label count")
    common.add_argument("--restarts", help="clustering restarts")
    common.add_argument("--bits", help="hash lengths, comma separated")
    common.add_argument("--anchors", help="anchor points per hash bit")
    common.add_argument("--lam", help="sparse coding penalty")
    common.add_argument("--top-m", help="retrieval depth for hashing")
    common.add_argument("--tune", action="store_const", const="true",
                        default=None,
                        help="grid-search kernel parameters by "
                             "cross-validation on each training split")
    common.add_argument("--beta-grid", help="candidate beta values "
                                            "for tuning")
    common.add_argument("--alpha-grid", help="candidate alpha values "
                                             "for tuning")
    common.add_argument("--cv-folds", help="folds used when tuning")

    descriptions = {
        "gram": "write kernel matrices as CSV",
        "pd-check": "certify kernels (conditionally) positive definite",
        "counterexample": "show the geodesic Gaussian indefiniteness witness",
        "svm": "train and score support vector machines over splits",
        "cluster": "run kernel k-means and score against labels",
        "sparse-code": "classify by kernelized sparse coding",
        "hash": "build hash families and measure retrieval recall",
        "bench": "run a fixed composite workload",
        "generate": "synthesize a labeled dataset file",
    }
    subparsers = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        subparsers.add_parser(task, parents=[common],
                              help=descriptions[task],
                              description=descriptions[task])
    return parser


def main(argv=None):
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    task = args.pop("task")
    config_path = args.pop("config")
    try:
        file_values = load_config_file(config_path) if config_path else {}
        config = build_config(task, file_values, args)
        result = run_experiment(config)
        sys.stdout.write(result.text)
        return 0 if result.passed else 1
    except (InputError, InvalidKernelParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
