"""Output checks of task runs against a reference recorded at a known commit.

A task run passes when its exit code and `[verdict]` match the reference
exactly, every pd-check eigenvalue matches to EIGENVALUE_RTOL, the
counterexample's smallest eigenvalue lies inside the recorded band, and
no quality score drops below its reference by more than QUALITY_MARGIN.
Report bytes are not compared: a faster similarity path may move Gram
entries by an ulp, and a different sparse solver may pick another atom,
and neither is a failure.
"""

# Allowed eigenvalue move, relative to the reference's largest eigenvalue
# magnitude.  One-ulp changes in the Gram entries move eigenvalues by at
# most n * 1e-16 of that scale (Weyl), far below this tolerance.
EIGENVALUE_RTOL = 1e-9

# Largest drop, in absolute units, a quality score may show.
QUALITY_MARGIN = 0.02

# section label prefix -> the score checked in that section
QUALITY_KEYS = {
    "svm ": "mean_accuracy",
    "sparse-code ": "mean_accuracy",
    "cluster ": "mean_nmi",
    "hash ": "mean_recall",
}


def parse_sections(text):
    """Report text -> list of (kind, label, {key: value}); tables skipped."""
    sections = []
    items = None
    for line in text.splitlines():
        if line.startswith("["):
            kind, _, label = line[1:-1].partition(" ")
            label = label.strip('"')
            items = None if kind == "table" else {}
            if items is not None:
                sections.append((kind, label, items))
        elif items is not None and "=" in line:
            key, _, value = line.partition("=")
            items[key] = value
    return sections


def summarize(exit_code, text):
    """The checked facts of one task run, as JSON-ready values.

    Returns (summary, problems).  A checked key that a report section
    lacks, or whose value is not a number, is a problem of the run, not
    an error of the benchmark.
    """
    summary = {"exit": exit_code, "verdict": None, "eigenvalues": {},
               "counterexample_min": None, "quality": {}}
    problems = []

    def number(label, items, key):
        try:
            return float(items[key])
        except (KeyError, ValueError):
            problems.append(f"[{label}] {key} missing or not a number: "
                            f"{items.get(key)!r}")
            return None

    for kind, label, items in parse_sections(text):
        if kind == "verdict":
            if items.get("passed") not in ("true", "false"):
                problems.append(f"[verdict] passed is {items.get('passed')!r}")
            summary["verdict"] = items.get("passed") == "true"
        elif kind != "result":
            continue
        elif label == "counterexample":
            summary["counterexample_min"] = number(label, items,
                                                   "min_eigenvalue")
        elif label.startswith("pd-check "):
            summary["eigenvalues"][label] = [
                number(label, items, "min_eigenvalue"),
                number(label, items, "max_eigenvalue")]
        else:
            for prefix, key in QUALITY_KEYS.items():
                if label.startswith(prefix):
                    summary["quality"][f"{label}/{key}"] = number(
                        label, items, key)
    return summary, problems


def compare(summary, reference, band):
    """Problems of `summary` against `reference`; empty when it passes."""
    problems = []
    for key in ("exit", "verdict"):
        if summary[key] != reference[key]:
            problems.append(f"{key} {summary[key]!r}, "
                            f"reference {reference[key]!r}")
    ref_eigs = reference["eigenvalues"]
    if set(summary["eigenvalues"]) != set(ref_eigs):
        problems.append("pd-check kernels differ from the reference")
    for label in set(summary["eigenvalues"]) & set(ref_eigs):
        got, want = summary["eigenvalues"][label], ref_eigs[label]
        if None in got:  # already a problem of summarize()
            continue
        scale = max(abs(v) for v in want)
        if any(abs(g - w) > EIGENVALUE_RTOL * scale
               for g, w in zip(got, want)):
            problems.append(f"{label} eigenvalues {got}, reference {want}")
    if reference["counterexample_min"] is not None:
        value = summary["counterexample_min"]
        if value is None or not band[0] <= value <= band[1]:
            problems.append(f"counterexample min eigenvalue {value} "
                            f"outside {band}")
    ref_quality = reference["quality"]
    if set(summary["quality"]) != set(ref_quality):
        problems.append("quality scores differ in kind from the reference")
    for key in set(summary["quality"]) & set(ref_quality):
        got = summary["quality"][key]
        if got is not None and got < ref_quality[key] - QUALITY_MARGIN:
            problems.append(f"{key} {got}, reference {ref_quality[key]}")
    return problems
