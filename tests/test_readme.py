"""The README's examples run as written."""

import pathlib
import re
import shlex

from grasskernels.harness import cli
from grasskernels.kernels import parse_kernel_token

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    """Each python block of the README runs, in order and in one
    namespace, so its imports and calls name real library functions."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_commands_run(tmp_path, capsys):
    """Each `grasskernels` command of the README's sh blocks, its `\\`
    continuations joined and its /tmp/ paths moved under a scratch
    directory, exits 0 in order, so later commands read what earlier
    ones wrote."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("grasskernels ")]
    assert len(commands) == 5
    for command in commands:
        argv = shlex.split(command.replace("/tmp/", f"{tmp_path}/"))
        assert cli.main(argv[1:]) == 0, command
        capsys.readouterr()


def test_readme_kernel_tokens_parse():
    """Every token of the example block under "Kernel tokens" parses."""
    section = README.read_text().split("## Kernel tokens", 1)[1]
    [block] = re.findall(r"^```\n(.*?)^```$", section.split("\n## ", 1)[0],
                         re.M | re.S)
    tokens = block.split()
    assert len(tokens) == 5
    for token in tokens:
        assert parse_kernel_token(token, 2).label().split(":")[:2] == \
            token.split(":")[:2]
