"""Command line interface.

One parser: a task name, then `--config` and one flag per
ExperimentConfig field.  Flags override config file values; the fully
resolved configuration is embedded in every report.  Exit codes: 0 for
success, 1 when a task that asserts something (pd-check, counterexample,
bench) finds its assertion violated, 2 for input errors.  pd-check
asserts certification only of the kernels that theory calls pd or cpd.
"""

import argparse
import sys
import warnings
from dataclasses import fields

from ..exceptions import InputError, InvalidKernelParameter
from .config import (TASK_DESCRIPTIONS, TASKS, ExperimentConfig,
                     build_config, load_config_file)
from .experiments import run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grasskernels", usage="%(prog)s task [options]",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Subspace kernel experiments: Gram matrices, spectral "
                    "certification,\nclassification, clustering, hashing "
                    "and sparse coding.",
        epilog="tasks:\n" + "\n".join(
            f"  {task:<16}{text}" for task, text in TASK_DESCRIPTIONS.items()))
    parser.add_argument("task", choices=TASKS, metavar="task",
                        help="one of the tasks listed below")
    parser.add_argument("--config", help="config file of key=value lines")
    for spec in fields(ExperimentConfig):
        if spec.name == "task":
            continue
        text, check = spec.metadata["help"], spec.metadata["check"]
        if check:
            text += f"; must {check[0]}"
        # a bool flag takes no value and sets the field the way
        # `key=true` does in a config file
        switch = ({"action": "store_const", "const": "true"}
                  if spec.type is bool else {})
        parser.add_argument("--" + spec.name.replace("_", "-"), help=text,
                            **switch)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    task = args.pop("task")
    config_path = args.pop("config")
    try:
        with warnings.catch_warnings():
            # a library warning prints as one line, without its source
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            file_values = (load_config_file(config_path,
                                            loads_dataset=bool(args["dataset"]))
                           if config_path else {})
            config = build_config(task, file_values, args)
            result = run_experiment(config)
        sys.stdout.write(result.text)
        return 0 if result.passed else 1
    except (InputError, InvalidKernelParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
