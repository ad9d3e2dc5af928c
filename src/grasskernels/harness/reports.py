"""The project's `key=value` text: writing reports, reading input files.

Reports are key=value oriented with bracketed section headers and carry
no timestamps or machine identifiers.  Result floats are rendered with 17
significant digits and `[config]` values with repr, both of which
round-trip exactly, so rerunning an experiment with the same resolved
configuration reproduces the report byte for byte.  Config and dataset
files are read by `read_input` and `key_value_lines` one line at a time,
so a task run never holds an input file's text, and every file is
written by `write_text`.
"""

import os

from ..exceptions import InputError

FORMAT_VERSION = 1


def format_float(value):
    """Render a float with enough digits to round-trip exactly."""
    return f"{float(value):.17g}"


def format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


class ReportBuilder:
    """Accumulates sections and renders the final text."""

    def __init__(self, generator):
        self._lines = [f"format_version={FORMAT_VERSION}",
                       f"generator={generator}"]

    def add_section(self, kind, items, label=None):
        """Append a `[kind]` or `[kind "label"]` section of key=value rows."""
        header = f"[{kind}]" if label is None else f'[{kind} "{label}"]'
        self._lines.append("")
        self._lines.append(header)
        for key, value in items:
            self._lines.append(f"{key}={format_value(value)}")

    def add_table(self, label, headers, rows):
        """Append a fixed-width table section for human readers."""
        cells = [list(headers)] + [[str(c) for c in row] for row in rows]
        widths = [max(len(row[i]) for row in cells)
                  for i in range(len(headers))]
        self._lines.append("")
        self._lines.append(f'[table "{label}"]')
        for row in cells:
            rendered = "  ".join(cell.ljust(width)
                                 for cell, width in zip(row, widths))
            self._lines.append(rendered.rstrip())

    def render(self):
        return "\n".join(self._lines) + "\n"


def write_text(path, text):
    """Write text with unix newlines, creating parent directories; a
    failure raises InputError naming the path."""
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def key_value_lines(lines, keys, repeatable=()):
    """(lineno, key, value) of each `key=value` line, both stripped, past
    blank and `#` lines, read from `lines` one at a time: an open text
    file or a list such as `str.splitlines()` gives.  Each item is split
    again by `str.splitlines()`, so a file's lines are numbered and
    broken exactly as its whole text's `splitlines()` would be.  A line
    without '=', an unknown key and a second line of a key not in
    `repeatable` raise InputError("line N: ...") as soon as it is read."""
    seen = set()
    # "" (a blank item of a splitlines() list) is one line, not none
    logical = (line for item in lines for line in item.splitlines() or [""])
    for lineno, raw in enumerate(logical, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise InputError(f"line {lineno}: expected key=value, "
                             f"got {raw!r}")
        if key not in keys:
            raise InputError(f"line {lineno}: unknown key {key!r}")
        if key in seen and key not in repeatable:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        yield lineno, key, value.strip()


def read_input(path, parse):
    """parse(lines) of the UTF-8 file at `path`, handed the open file, so
    a parser reads it line by line and never holds its whole text; its
    errors name the path.  A decode error surfaces when the parser reaches
    the chunk that holds it, so a bad line ahead of it is the error
    reported; its position still counts from the start of the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                return parse(handle)
            except UnicodeDecodeError as exc:
                error, problem = exc, _decode_problem(exc, handle)
    except OSError as exc:
        error, problem = exc, exc
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"cannot read {path!r}: {problem}") from error


def _decode_problem(exc, handle):
    """The message of `exc`, met decoding one chunk of `handle`, with its
    position counted from the start of the file, as str(exc) gives it
    for a decode of the whole file.  The failed bytes, `exc.object`, are
    the chunk and any bytes of a character the last chunk left open, and
    they end where the file now stands."""
    try:
        shift = handle.buffer.tell() - len(exc.object)
    except OSError:
        return str(exc)
    start, end = exc.start + shift, exc.end + shift
    if exc.end == exc.start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"
