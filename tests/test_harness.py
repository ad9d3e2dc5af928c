"""Harness tests: datasets, configuration, reports, experiments, CLI."""

import dataclasses
import hashlib
import importlib.util
import math
import os
import struct
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import grasskernels
from grasskernels import grassmann, kernels
from grasskernels.harness import datasets as ds_mod
from grasskernels.exceptions import InputError
from grasskernels.harness import cli, experiments
from grasskernels.harness.config import (TASK_DESCRIPTIONS, TASKS,
                                         ExperimentConfig, build_config,
                                         coerce_value, load_config_file)
from grasskernels.harness.datasets import (Dataset, generate_planted,
                                           load_dataset, parse_dataset,
                                           save_dataset, serialize_dataset,
                                           stratified_split,
                                           subspace_from_samples)
from grasskernels.harness.experiments import (DEFAULT_KERNEL, gram_csv_text,
                                              run_experiment)
from grasskernels.harness.reports import (ReportBuilder, format_float,
                                          format_value, write_text)
from grasskernels.machines import kkmeans as kkmeans_mod
from grasskernels.machines import sparse as sparse_mod
from grasskernels.machines.klsh import klsh_build, klsh_hash_gram
from grasskernels.machines import svm as svm_mod
from grasskernels.machines.svm import svm_train

# ------------------------------------------------------------- datasets


def test_fingerprint_is_pinned():
    """The fingerprint covers the parsed content: the name, n, d, p, the
    labels and every basis entry, so every recorded fingerprint stays put
    while generation and that layout do."""
    data = generate_planted(d=8, p=2, classes=2, per_class=20,
                            noise_angle=0.1, seed=0)
    assert data.fingerprint == ("2ab2929cd1a1a09fa86fc5cb802dab83"
                                "910b6479af2942def1a9760e14f2038c")


@pytest.mark.parametrize("labeled", [True, False])
def test_fingerprint_hashes_the_documented_layout(labeled):
    """The length-prefixed UTF-8 name, then n, d, p and the labels flag,
    the labels and each column-major basis, packed field by field."""
    data = generate_planted(d=5, p=2, classes=2, per_class=3,
                            noise_angle=0.2, seed=4, name="caf\u00e9 au lait")
    if not labeled:
        data = Dataset(subspaces=data.subspaces, name=data.name)
    name = data.name.encode("utf-8")
    packed = [struct.pack("<q", len(name)), name,
              struct.pack("<4q", data.n, data.d, data.p, labeled)]
    if labeled:
        packed.append(struct.pack(f"<{data.n}q", *data.labels.tolist()))
    for x in data.subspaces:
        packed.append(struct.pack(f"<{data.d * data.p}d",
                                  *x.basis.flatten(order="F").tolist()))
    assert data.fingerprint == hashlib.sha256(b"".join(packed)).hexdigest()


def test_dataset_round_trip_is_byte_identical():
    data = generate_planted(d=6, p=2, classes=2, per_class=4,
                            noise_angle=0.2, seed=7)
    text = serialize_dataset(data)
    parsed = parse_dataset(text)
    assert serialize_dataset(parsed) == text
    assert parsed.fingerprint == data.fingerprint
    assert parsed.name == data.name
    assert np.array_equal(parsed.labels, data.labels)
    assert parsed.n == data.n and parsed.d == 6 and parsed.p == 2


def test_dataset_file_round_trip(tmp_path):
    data = generate_planted(d=5, p=1, classes=2, per_class=3,
                            noise_angle=0.1, seed=1)
    path = tmp_path / "data.txt"
    save_dataset(data, path)
    loaded = load_dataset(str(path))
    assert loaded.fingerprint == data.fingerprint
    with pytest.raises(InputError):
        load_dataset(str(tmp_path / "absent.txt"))


def test_dataset_fingerprint_is_order_sensitive():
    data = generate_planted(d=4, p=2, classes=1, per_class=3,
                            noise_angle=0.3, seed=13)
    fp = data.fingerprint
    assert len(fp) == 64 and set(fp) <= set("0123456789abcdef")
    assert fp == Dataset(subspaces=data.subspaces,
                         labels=data.labels, name=data.name).fingerprint
    assert fp != Dataset(subspaces=data.subspaces[::-1],
                         labels=data.labels, name=data.name).fingerprint


def test_dataset_validation():
    x = grassmann.random_subspace(4, 2, np.random.default_rng(0))
    y = grassmann.random_subspace(5, 2, np.random.default_rng(1))
    with pytest.raises(ValueError, match="at least one subspace"):
        Dataset(subspaces=())
    with pytest.raises(ValueError, match="must share"):
        Dataset(subspaces=(x, y))
    with pytest.raises(ValueError, match="need 1 labels"):
        Dataset(subspaces=(x,), labels=np.array([0, 1]))
    with pytest.raises(ValueError, match="dataset names must"):
        Dataset(subspaces=(x,), name="bad=name")
    # each of these names would read back differently from its file
    for name in ("two\nlines", "two\rlines", "abc ", " abc", "\tabc"):
        with pytest.raises(ValueError, match="dataset names must"):
            Dataset(subspaces=(x,), name=name)
    plain = Dataset(subspaces=(x,))
    assert plain.class_count == 0
    labeled = Dataset(subspaces=(x, x), labels=np.array([3, 5]))
    assert labeled.class_count == 2


def test_parse_dataset_rejects_malformed_text():
    good = serialize_dataset(generate_planted(
        d=4, p=1, classes=2, per_class=2, noise_angle=0.1, seed=3))
    lines = good.splitlines()

    def withfirst(replacement):
        return "\n".join([replacement] + lines[1:]) + "\n"

    with pytest.raises(InputError,
                       match="^line 1: unsupported format_version '2'$"):
        parse_dataset(withfirst("format_version=2"))
    with pytest.raises(InputError):
        parse_dataset("\n".join(l for l in lines if not l.startswith("d="))
                      + "\n")
    with pytest.raises(InputError,
                       match="^line 3: dimension fields must be integers: "):
        parse_dataset(good.replace("d=4", "d=4.5"))
    with pytest.raises(InputError):
        parse_dataset(good.replace("n=4", "n=5"))
    with pytest.raises(InputError):
        parse_dataset(good + "not a key value line\n")
    with pytest.raises(InputError):
        parse_dataset(good + "name=duplicate\n")
    with pytest.raises(InputError,
                       match="^line 6: labels must be int64 values: "):
        parse_dataset(good.replace("labels=0 0 1 1", "labels=0 0 one 1"))
    with pytest.raises(InputError):
        parse_dataset(good.replace("labels=0 0 1 1", "labels=0 0 1"))
    # a subspace line with the wrong count, a bad number, a bad basis
    first_sub = next(l for l in lines if l.startswith("subspace="))
    with pytest.raises(InputError):
        parse_dataset(good.replace(first_sub,
                                   "subspace=" + first_sub.split("=")[1]
                                   + " 0.5"))
    with pytest.raises(InputError):
        parse_dataset(good.replace(first_sub.split()[0], "subspace=oops"))
    zeros = "subspace=" + " ".join(["0"] * 4)
    with pytest.raises(InputError):
        parse_dataset(good.replace(first_sub, zeros))
    # comments and blank lines are fine
    assert parse_dataset("# header\n\n" + good).fingerprint \
        == parse_dataset(good).fingerprint


def test_parse_dataset_reads_lines_as_config_files_do(tmp_path, capsys):
    """Keys and values are stripped, as in config files, and an unknown
    key is an input error: a misspelt `labels=` line once dropped the
    labels silently, and `d = 8` read as a missing field `d`."""
    path = tmp_path / "a.txt"
    assert cli.main(["generate", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    good = path.read_text()
    spaced = "".join(line.replace("=", " = ", 1)
                     for line in good.splitlines(keepends=True))
    assert "\nd = 8\n" in spaced
    assert parse_dataset(spaced).fingerprint == parse_dataset(good).fingerprint
    path.write_text(good.replace("\nlabels=", "\nlables="))
    assert cli.main(["hash", "--dataset", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line 6: unknown key 'lables'\n"
    # next to a config file, the error names the dataset file, not the
    # config
    config = tmp_path / "c.cfg"
    config.write_text("seeds = 0\nbits = 20\n")
    assert cli.main(["hash", "--config", str(config),
                     "--dataset", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line 6: unknown key 'lables'\n"


def test_generate_planted_geometry():
    """With zero noise, members coincide with orthogonal prototypes."""
    data = generate_planted(d=8, p=2, classes=3, per_class=2,
                            noise_angle=0.0, seed=0)
    assert np.array_equal(data.labels, [0, 0, 1, 1, 2, 2])
    assert data.name == "planted_d8_p2_c3_m2_s0"
    for i in range(data.n):
        for j in range(i + 1, data.n):
            inner = grassmann.bc_inner(data.subspaces[i], data.subspaces[j])
            if data.labels[i] == data.labels[j]:
                np.testing.assert_allclose(inner, 1.0, rtol=0, atol=1e-10)
            else:
                np.testing.assert_allclose(inner, 0.0, rtol=0, atol=1e-10)
    again = generate_planted(d=8, p=2, classes=3, per_class=2,
                             noise_angle=0.0, seed=0)
    assert again.fingerprint == data.fingerprint


def test_generate_planted_guards_and_warning():
    with pytest.raises(ValueError, match="need 0 < p < d"):
        generate_planted(d=4, p=4, classes=2, per_class=2, noise_angle=0.1)
    with pytest.raises(ValueError, match="at least one class and one member"):
        generate_planted(d=4, p=2, classes=0, per_class=2, noise_angle=0.1)
    with pytest.raises(ValueError, match="at least one class and one member"):
        generate_planted(d=4, p=2, classes=2, per_class=0, noise_angle=0.1)
    with pytest.raises(ValueError, match="noise_angle must lie"):
        generate_planted(d=4, p=2, classes=2, per_class=2,
                         noise_angle=math.pi / 2)
    with pytest.warns(UserWarning):
        crowded = generate_planted(d=4, p=2, classes=3, per_class=2,
                                   noise_angle=0.1, seed=0)
    assert crowded.n == 6


def test_subspace_from_samples():
    rng = np.random.default_rng(17)
    basis = grassmann.random_subspace(5, 2, rng).basis
    samples = basis @ rng.standard_normal((2, 12))
    recovered = subspace_from_samples(samples, 2)
    np.testing.assert_allclose(recovered.basis @ recovered.basis.T,
                               basis @ basis.T, rtol=0, atol=1e-10)
    single = np.outer(basis[:, 0], np.ones(5))
    with pytest.raises(ValueError, match="numerical rank below"):
        subspace_from_samples(single, 2)
    with pytest.raises(ValueError, match="cannot span"):
        subspace_from_samples(basis[:, :1], 2)
    with pytest.raises(ValueError, match="need 0 < p < 5"):
        subspace_from_samples(samples, 5)


def test_stratified_split_properties():
    labels = np.array([0] * 10 + [1] * 6)
    train, test = stratified_split(labels, 0.5, np.random.default_rng(3))
    assert np.array_equal(train, np.sort(train))
    assert np.array_equal(test, np.sort(test))
    assert np.array_equal(np.sort(np.concatenate([train, test])),
                          np.arange(16))
    for value in (0, 1):
        assert np.sum(labels[train] == value) >= 1
        assert np.sum(labels[test] == value) >= 1
    assert np.sum(labels[train] == 0) == 5
    assert np.sum(labels[train] == 1) == 3
    again, _ = stratified_split(labels, 0.5, np.random.default_rng(3))
    assert np.array_equal(train, again)
    # a single-member class always lands on the training side
    lone_train, lone_test = stratified_split(
        np.array([0, 0, 1]), 0.5, np.random.default_rng(0))
    assert np.array_equal(np.sort(np.array([0, 0, 1])[lone_train]), [0, 1])
    assert lone_test.size == 1
    with pytest.raises(ValueError, match="nonempty vector"):
        stratified_split(np.array([]), 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="train_fraction must lie"):
        stratified_split(labels, 1.0, np.random.default_rng(0))


def test_splits_and_folds_deal_out_one_shuffle_per_class():
    """A split keeps the first shuffled members of each class for training
    and the folds deal them out in turn, classes shuffled in np.unique
    order; the loop that dealt out the shuffled members is the reference."""
    meta = np.random.default_rng(0)
    for _ in range(200):
        labels = meta.integers(-2, 4, int(meta.integers(1, 40)))
        fraction = float(meta.uniform(0.05, 0.95))
        folds = int(meta.integers(1, 5))
        seed = int(meta.integers(1000))
        rng = np.random.default_rng(seed)
        train, test = [], []
        fold_of = np.empty(labels.size, dtype=np.intp)
        for value in np.unique(labels):
            members = np.flatnonzero(labels == value)
            members = members[rng.permutation(members.size)]
            count = 1 if members.size == 1 else min(
                max(round(fraction * members.size), 1), members.size - 1)
            train.extend(members[:count])
            test.extend(members[count:])
            fold_of[members] = np.arange(members.size) % folds
        split = stratified_split(labels, fraction,
                                 np.random.default_rng(seed))
        for got, want in zip(split, (train, test)):
            assert got.dtype == np.intp
            assert np.array_equal(got, np.sort(want))
        rank, _ = ds_mod.class_ranks(labels, np.random.default_rng(seed))
        assert np.array_equal(rank % folds, fold_of)


# --------------------------------------------------------------- config


def test_config_defaults_and_validation():
    config = ExperimentConfig(task="svm")
    assert config.seed == 0
    assert config.seeds == tuple(range(10))
    assert config.threads == 1
    assert config.svm_c == 10.0
    assert config.lam == 0.001
    assert config.bits == (60,)
    assert config.tune is False
    with pytest.raises(InputError):
        ExperimentConfig(task="frobnicate")
    with pytest.raises(InputError):
        ExperimentConfig(task="svm", threads=0)
    with pytest.raises(InputError):
        ExperimentConfig(task="svm", seeds=())
    with pytest.raises(InputError):
        ExperimentConfig(task="svm", train_fraction=1.0)


def test_coerce_value():
    assert coerce_value("seeds", "0 1 2") == (0, 1, 2)
    assert coerce_value("kernels", "linear:bc rbf:projection:beta=1") \
        == ("linear:bc", "rbf:projection:beta=1")
    assert coerce_value("beta_grid", "0.5 1") == (0.5, 1.0)
    assert coerce_value("tune", "true") is True
    assert coerce_value("tune", "no") is False
    assert coerce_value("lam", "0.01") == 0.01
    with pytest.raises(InputError):
        coerce_value("tune", "maybe")
    with pytest.raises(InputError, match="^lam must be a float: "):
        coerce_value("lam", "abc")
    with pytest.raises(InputError, match="^seeds must be an int: "):
        coerce_value("seeds", "0 x")
    with pytest.raises(InputError, match="^seeds must be an int: "):
        coerce_value("seeds", "1.5")
    with pytest.raises(InputError):
        coerce_value("bogus_key", "1")


def test_build_config_merging():
    file_values = {"task": "cluster", "d": 12, "lam": 0.5}
    overrides = {"d": "6", "tune": None}
    config = build_config("svm", file_values, overrides)
    assert config.task == "svm"  # explicit task wins over the file
    assert config.d == 6         # override beats file value
    assert config.lam == 0.5
    assert config.tune is False  # None overrides are ignored


def test_resolved_items_omit_thread_count():
    config = ExperimentConfig(task="svm", threads=8, seeds=(0, 1))
    items = dict(config.resolved_items())
    assert "threads" not in items
    assert items["task"] == "svm"
    assert items["seeds"] == "0 1"
    assert items["svm_c"] == "10.0"
    assert items["tune"] == "false"


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nd=8\n  p = 2 \nkernels=linear:bc\n")
    values = load_config_file(str(path))
    assert values == {"d": 8, "p": 2, "kernels": ("linear:bc",)}
    bad = tmp_path / "dup.cfg"
    bad.write_text("d=8\nd=9\n")
    with pytest.raises(InputError):
        load_config_file(str(bad))
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just words\n")
    with pytest.raises(InputError):
        load_config_file(str(noeq))
    # an unknown key and a value of the wrong type are named with their
    # file and line, as a duplicate is
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("d=8\nsedes=0\n")
    with pytest.raises(InputError) as info:
        load_config_file(str(unknown))
    assert str(info.value) == f"{unknown}: line 2: unknown key 'sedes'"
    with pytest.raises(InputError) as info:
        load_config_file(str(bad))
    assert str(info.value) == f"{bad}: line 2: duplicate key 'd'"
    mistyped = tmp_path / "mistyped.cfg"
    mistyped.write_text("# seeds\nseeds=0 a\n")
    with pytest.raises(InputError) as info:
        load_config_file(str(mistyped))
    assert str(info.value) == (f"{mistyped}: line 2: seeds must be an int: "
                               "invalid literal for int() with base 10: 'a'")
    with pytest.raises(InputError):
        load_config_file(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize("line,message", [
    ("svm_c=0", "svm_c must be positive and finite, got 0.0"),
    ("seeds=1 1", "seeds must be nonempty and distinct, got '1 1'"),
    ("bits=", "bits must be nonempty and distinct, got ''"),
    ("seeds=0 -1", "seeds must be at least 0, got -1"),
], ids=["svm_c", "seeds-repeated", "bits-empty", "seeds-negative"])
def test_config_file_value_out_of_range_names_its_line(line, message,
                                                       tmp_path, capsys):
    """A config file value outside its field's range is named with its
    file and line, so it reads apart from the same value given as a
    flag."""
    path = tmp_path / "b.cfg"
    path.write_text(f"# run\n{line}\n")
    with pytest.raises(InputError) as info:
        load_config_file(str(path))
    assert str(info.value) == f"{path}: line 2: {message}"
    assert cli.main(["svm", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: {message}\n"


# -------------------------------------------------------------- reports


def test_format_float_round_trips():
    for value in (0.1, 1.0 / 3.0, 1e-17, 12345.6789, 2.0 ** -52, 1e308,
                  -0.0, 2.0, math.pi):
        assert float(format_float(value)) == value
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.25) == "0.25"
    assert format_value(7) == "7"


def test_report_builder_rendering():
    builder = ReportBuilder("demo 1.0")
    builder.add_section("config", [("a", 1), ("b", True), ("c", 0.5)])
    builder.add_section("result", [("score", 0.5)], label="svm")
    builder.add_table("scores", ("name", "value"),
                      [("alpha", "1"), ("bb", "22")])
    expected = (
        "format_version=1\n"
        "generator=demo 1.0\n"
        "\n"
        "[config]\n"
        "a=1\n"
        "b=true\n"
        "c=0.5\n"
        "\n"
        '[result "svm"]\n'
        "score=0.5\n"
        "\n"
        '[table "scores"]\n'
        "name   value\n"
        "alpha  1\n"
        "bb     22\n"
    )
    assert builder.render() == expected


def test_write_text_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"


# ---------------------------------------------------------- experiments


def test_counterexample_experiment_passes():
    config = build_config("counterexample")
    result = run_experiment(config)
    assert result.passed
    assert '[result "counterexample"]' in result.text
    assert "indefinite=true" in result.text
    assert result.text.endswith("[verdict]\npassed=true\n")


def test_gram_task_writes_csv(tmp_path):
    config = build_config("gram", overrides={
        "d": "5", "p": "2", "classes": "2", "per_class": "3",
        "kernels": "linear:bc", "out": str(tmp_path)})
    result = run_experiment(config)
    assert result.passed
    path = tmp_path / "gram_linear_bc.csv"
    text = path.read_text()
    assert text.startswith("# format_version=1 embedding=bc "
                           "family=linear alpha= beta=")
    values = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert values.shape == (6, 6)
    data = generate_planted(d=5, p=2, classes=2, per_class=3,
                            noise_angle=0.1, seed=0)
    spec = kernels.parse_kernel_token("linear:bc", 2)
    direct = kernels.gram(spec, data.subspaces)
    np.testing.assert_allclose(values, direct.values, rtol=1e-15)
    assert gram_csv_text(spec, direct, data.fingerprint).count("\n") == 7
    # the CSV header, the dataset section and each result section name
    # the dataset's fingerprint
    line = f"fingerprint={data.fingerprint}"
    assert text.splitlines()[0].endswith(" " + line)
    named = [section.splitlines()[0]
             for section in result.text.split("\n\n")
             if line in section.splitlines()]
    assert named == ["[dataset]", '[result "gram linear:bc"]']


def test_svm_report_written_and_stable(tmp_path):
    overrides = {"d": "6", "p": "2", "classes": "2", "per_class": "6",
                 "seeds": "0 1 2", "out": str(tmp_path / "r.txt")}
    first = run_experiment(build_config("svm", overrides=overrides))
    assert (tmp_path / "r.txt").read_text() == first.text
    assert 'result "svm rbf:projection:beta=0.5"' in first.text
    again = run_experiment(build_config("svm", overrides=overrides))
    assert again.text == first.text
    threaded = run_experiment(build_config(
        "svm", overrides=dict(overrides, threads="4")))
    assert threaded.text == first.text


@pytest.mark.parametrize("tune", ["false", "true"])
def test_svm_report_lists_solver_counters(tune):
    """Per seed, smo_iterations is the total and max_kkt_residual the
    largest final residual over the one-vs-rest machines of the final fit
    (with the tuned spec when tuning), and unconverged_machines counts
    those that stopped at the budget, recomputed here from svm_train;
    with tuning it also counts the cross-validation fits' machines."""
    config = build_config("svm", overrides={
        "d": "6", "p": "2", "classes": "3", "per_class": "6",
        "seeds": "0 1", "tune": tune, "beta_grid": "0.1 1.0",
        "cv_folds": "2"})
    text = run_experiment(config).text
    items = dict(line.split("=", 1) for line in text.splitlines()
                 if "=" in line)
    data = experiments._resolve_dataset(config)
    used = items["tuned"].split(" | ") if config.tune else [DEFAULT_KERNEL] * 2
    iterations, residuals, unconverged = [], [], []
    for seed, token in zip(config.seeds, used):
        train, _ = stratified_split(data.labels, config.train_fraction,
                                    np.random.default_rng([seed]))
        k_train = kernels.gram(kernels.parse_kernel_token(token, 2),
                               data.subspaces).take(train)
        models = [svm_train(k_train,
                            np.where(data.labels[None, train] == value,
                                     1.0, -1.0),
                            c=config.svm_c).models[0]
                  for value in np.unique(data.labels[train])]
        iterations.append(str(sum(m.iterations for m in models)))
        residuals.append(format_float(max(m.kkt_residual for m in models)))
        unconverged.append(str(sum(not m.converged for m in models)))
    assert items["smo_iterations"] == " ".join(iterations)
    assert items["max_kkt_residual"] == " ".join(residuals)
    assert all(float(r) <= 1e-6 for r in residuals)
    assert items["unconverged_machines"] == " ".join(unconverged) == "0 0"


def test_svm_tuning_path():
    config = build_config("svm", overrides={
        "d": "6", "p": "2", "classes": "2", "per_class": "6",
        "seeds": "0", "tune": "true", "beta_grid": "0.5 1.0",
        "cv_folds": "2"})
    result = run_experiment(config)
    assert result.passed
    assert "tuned=rbf:projection:beta=" in result.text


def _items(text):
    """The key=value rows of a report with one result section."""
    return dict(line.split("=", 1) for line in text.splitlines()
                if "=" in line)


def _table_rows(text):
    """The data rows of a report's table, split on whitespace."""
    table = text[text.index("[table "):text.index("\n\n[verdict]")]
    return [row.split() for row in table.splitlines()[2:]]


SMALL = {"d": "6", "p": "2", "classes": "2", "per_class": "6",
         "seeds": "0 1"}


def test_svm_tuning_skips_invalid_grid_values():
    """alpha=0 is no polynomial degree, so its candidates are left out."""
    config = build_config("svm", overrides=dict(
        SMALL, kernels="polynomial:projection:alpha=2:beta=0.5", tune="true",
        alpha_grid="0 1 2", beta_grid="0.5 1", cv_folds="2"))
    spec = kernels.parse_kernel_token(config.kernels[0], 2)
    candidates = experiments._candidate_specs(spec, config)
    assert [(c.alpha, c.beta) for c in candidates] == [
        (1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)]
    result = run_experiment(config)
    assert result.passed
    tuned = _items(result.text)["tuned"].split(" | ")
    assert len(tuned) == 2
    assert {token.split(":")[2] for token in tuned} <= {"alpha=1.0",
                                                         "alpha=2.0"}


def test_svm_tuning_keeps_a_parameterless_kernel():
    overrides = dict(SMALL, kernels="linear:projection")
    plain = _items(run_experiment(build_config("svm", overrides=overrides))
                   .text)
    tuned = _items(run_experiment(build_config(
        "svm", overrides=dict(overrides, tune="true"))).text)
    assert tuned["tuned"] == "linear:projection | linear:projection"
    for key in ("accuracies", "mean_accuracy", "std_accuracy",
                "smo_iterations", "max_kkt_residual"):
        assert tuned[key] == plain[key]


def test_svm_tuning_when_every_fold_leaves_a_class_out():
    """Two points per class put one of each on the train side, both in
    fold 0, so no fold can be fit and no candidate can be validated: an
    input error, not a tuned parameter nobody scored."""
    config = build_config("svm", overrides=dict(
        SMALL, per_class="2", tune="true", beta_grid="0.1 1", cv_folds="3"))
    with pytest.raises(InputError, match="no cross-validation fold"):
        run_experiment(config)


def test_cluster_report_lists_lloyd_counters(monkeypatch):
    """Per seed, the winning restart's Lloyd iterations and the restarts
    stopped at the iteration budget, here with and without a budget."""
    config = build_config("cluster", overrides={
        "d": "8", "p": "2", "classes": "3", "per_class": "10",
        "noise_angle": "0.3", "seed": "5", "seeds": "0 1 2",
        "restarts": "6"})
    items = _items(run_experiment(config).text)
    assert items["lloyd_iterations"] == "1 0 0"
    assert items["unconverged_restarts"] == "0 0 0"
    monkeypatch.setattr(kkmeans_mod, "MAX_ITERATIONS", 0)
    items = _items(run_experiment(config).text)
    assert items["lloyd_iterations"] == "0 0 0"
    assert items["unconverged_restarts"] == "1 1 0"


@pytest.mark.parametrize("task,overrides,cells", [
    ("cluster", {"clusters": "3"}, 2),
    ("hash", {"bits": "5", "anchors": "4", "top_m": "3"}, 1),
])
def test_unlabeled_tasks_leave_label_scores_out(task, overrides, cells,
                                                tmp_path):
    pts = tuple(grassmann.random_subspace(6, 2, np.random.default_rng([9, i]))
                for i in range(8))
    path = tmp_path / "plain.txt"
    save_dataset(Dataset(subspaces=pts, name="plain"), str(path))
    result = run_experiment(build_config(task, overrides=dict(
        overrides, dataset=str(path), seeds="0 1")))
    assert result.passed
    assert "nmi=" not in result.text and "accuracy=" not in result.text
    rows = _table_rows(result.text)
    assert len(rows) == 1 and rows[0][-cells:] == ["-"] * cells
    assert "-" not in rows[0][:-cells]


def test_sparse_code_falls_back_on_every_zero_code():
    """A penalty of 1e300 zeroes every code, so each test point takes the
    label of its most similar atom."""
    config = build_config("sparse-code", overrides={"lam": "1e300",
                                                    "seeds": "0 1"})
    items = _items(run_experiment(config).text)
    data = experiments._resolve_dataset(config)
    test_sizes = [str(stratified_split(data.labels, config.train_fraction,
                                       np.random.default_rng([seed]))[1].size)
                  for seed in config.seeds]
    assert items["zero_code_fallbacks"] == " ".join(test_sizes)
    assert items["unconverged_codes"] == "0 0"


def test_sparse_code_large_penalty_is_pinned():
    """`sparse-code --lam 1000 --seeds 0,1` zeroes all 20 test codes of
    each split, and the most similar atom labels every one right."""
    config = build_config("sparse-code", overrides={"lam": "1000",
                                                    "seeds": "0 1"})
    items = _items(run_experiment(config).text)
    assert items["zero_code_fallbacks"] == "20 20"
    assert items["accuracies"] == "1 1"


def test_tasks_that_need_labels_reject_unlabeled_data(tmp_path):
    pts = tuple(grassmann.random_subspace(6, 2, np.random.default_rng([9, i]))
                for i in range(8))
    path = tmp_path / "plain.txt"
    save_dataset(Dataset(subspaces=pts, name="plain"), str(path))
    config = build_config("svm", overrides={"dataset": str(path)})
    with pytest.raises(InputError):
        run_experiment(config)


def _per_row_hash_scores(gram_matrix, labels, bits, anchors, seed, top_m):
    """Reference for experiments._hash_cell: each query ranked alone."""
    keys = klsh_hash_gram(klsh_build(gram_matrix, bits=bits,
                                     anchors=anchors, seed=seed),
                          gram_matrix)
    k = gram_matrix.values
    n = k.shape[0]
    recalls = np.empty(n)
    hits = np.zeros(n)
    for i in range(n):
        similarity = k[i].copy()
        similarity[i] = -np.inf
        exact = np.argsort(-similarity, kind="stable")[:top_m]
        distance = np.count_nonzero(keys != keys[i], axis=1)
        distance[i] = bits + 1
        approx = np.argsort(distance, kind="stable")[:top_m]
        recalls[i] = np.intersect1d(exact, approx).size / top_m
        hits[i] = float(labels[approx[0]] == labels[i])
    return float(np.mean(recalls)), float(np.mean(hits))


def test_hash_ranking_matches_per_row_loop():
    """The whole-matrix ranking scores every cell as the per-row loop
    does, exactly, ties in similarity and in Hamming distance included."""
    data = generate_planted(d=8, p=2, classes=3, per_class=10,
                            noise_angle=0.2, seed=5)
    for token in ("linear:bc", "rbf:projection:beta=0.5",
                  "logarithm:projection"):
        g = kernels.gram(kernels.parse_kernel_token(token, 2),
                         data.subspaces)
        for bits, top_m, seed in ((4, 5, 0), (60, 10, 1), (8, 29, 2),
                                  (16, 40, 3)):
            args = (g, data.labels, bits, 12, seed, top_m)
            exact = experiments._exact_neighbours(g, top_m)
            assert experiments._hash_cell(*args, exact) \
                == _per_row_hash_scores(*args), (token, bits, top_m)
    exact = experiments._exact_neighbours(g, 5)
    assert experiments._hash_cell(g, None, 8, 12, 0, 5, exact)[1] is None


def test_hash_task_rejects_oversized_anchor_count():
    config = build_config("hash", overrides={
        "d": "6", "p": "2", "classes": "2", "per_class": "3",
        "anchors": "30"})
    with pytest.raises(InputError):
        run_experiment(config)


def test_hash_task_rejects_top_m_beyond_other_points():
    """Six points leave each query five others to rank; a sixth would be
    the query itself."""
    config = build_config("hash", overrides={
        "d": "6", "p": "2", "classes": "2", "per_class": "3",
        "anchors": "3", "top_m": "6"})
    with pytest.raises(InputError):
        run_experiment(config)
    assert run_experiment(dataclasses.replace(config, top_m=5)).passed


def test_bench_caps_hash_short_list_at_other_points():
    """Eight points leave each query seven others to rank; a short list
    of the default ten once counted the query itself and read 8/10."""
    text = run_experiment(build_config("bench", overrides={
        "d": "6", "p": "2", "classes": "2", "per_class": "4",
        "seeds": "0 1"})).text
    hash_section = text[text.index('[result "hash '):]
    assert "\ntop_m=7\n" in hash_section
    assert "\nmean_recall=1\n" in hash_section


def test_task_run_never_serializes_its_dataset(monkeypatch):
    calls = []

    def counting(dataset):
        calls.append(dataset.name)
        return serialize_dataset(dataset)

    monkeypatch.setattr(ds_mod, "serialize_dataset", counting)
    run_experiment(build_config("svm", overrides={
        "d": "6", "p": "2", "classes": "2", "per_class": "4",
        "seeds": "0 1", "kernels": "linear:projection linear:bc"}))
    assert len(calls) == 0


def _count_gram_work(monkeypatch):
    """Record the embedding of each similarity matrix and each Gram's label."""
    similarities = []
    labels = []
    similarity, grams = grassmann.similarity, kernels.grams

    def counting_similarity(embedding, xs, ys):
        similarities.append(embedding)
        return similarity(embedding, xs, ys)

    def counting_grams(specs, data):
        result = grams(specs, data)
        labels.extend(spec.label() for spec in result)
        return result

    monkeypatch.setattr(grassmann, "similarity", counting_similarity)
    monkeypatch.setattr(kernels, "grams", counting_grams)
    return similarities, labels


def test_bench_builds_each_gram_once(monkeypatch):
    similarities, built = _count_gram_work(monkeypatch)
    run_experiment(build_config("bench", overrides={
        "d": "6", "p": "2", "classes": "2", "per_class": "4",
        "seeds": "0", "lam": "0.01"}))
    # the default focus kernel is one of the catalog's, so the run
    # builds the catalog's 14 Grams and no more, from one similarity
    # matrix per embedding
    catalog = [spec.label() for spec in kernels.catalog(2)]
    assert sorted(built) == sorted(catalog)
    assert sorted(similarities) == ["bc", "projection"]


def test_tuning_builds_each_candidate_gram_once(monkeypatch):
    similarities, built = _count_gram_work(monkeypatch)
    config = build_config("svm", overrides={
        "d": "6", "p": "2", "classes": "2", "per_class": "6",
        "seeds": "0 1 2 3 4", "tune": "true"})
    run_experiment(config)
    # the default kernel's beta=0.5 is on the grid, so the focus kernel
    # and its candidates are seven distinct specs, all on the projection
    # embedding
    focus = kernels.parse_kernel_token(DEFAULT_KERNEL, 2)
    expected = {dataclasses.replace(focus, beta=beta).label()
                for beta in config.beta_grid} | {focus.label()}
    assert len(expected) == 7
    assert sorted(built) == sorted(expected)
    assert similarities == ["projection"]


def test_generate_task_round_trip(tmp_path, monkeypatch):
    out = tmp_path / "made.txt"
    config = build_config("generate", overrides={
        "d": "5", "p": "2", "classes": "2", "per_class": "3",
        "out": str(out)})
    serialized = []
    serialize = ds_mod.serialize_dataset
    monkeypatch.setattr(ds_mod, "serialize_dataset",
                        lambda data: serialized.append(1) or serialize(data))
    result = run_experiment(config)
    monkeypatch.undo()
    assert result.passed
    # writing the file is the one serialization, and the reported
    # fingerprint is the one any later task run on the file reports
    assert len(serialized) == 1
    first = out.read_bytes()
    data = load_dataset(str(out))
    assert data.n == 6 and data.d == 5 and data.p == 2
    assert f"fingerprint={data.fingerprint}\n" in result.text
    task = run_experiment(build_config("pd-check", overrides={
        "dataset": str(out), "kernels": "linear:bc"}))
    assert f"fingerprint={data.fingerprint}\n" in task.text
    run_experiment(config)
    assert out.read_bytes() == first
    with pytest.raises(InputError):
        run_experiment(build_config("generate", overrides={
            "dataset": str(out), "out": str(out)}))


# ------------------------------------------------------------------ cli


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    data_file = str(tmp_path / "data.txt")
    assert cli.main(["generate", "--d", "8", "--p", "2", "--classes", "3",
                     "--per-class", "6", "--seed", "0",
                     "--out", data_file]) == 0
    assert os.path.exists(data_file)
    # generate creates the directories of its output path, as reports do
    nested = tmp_path / "new" / "dir" / "data.txt"
    assert cli.main(["generate", "--out", str(nested)]) == 0
    assert load_dataset(str(nested)).n == 40
    # success: the witness matrix lands in its regression band
    assert cli.main(["counterexample",
                     "--out", str(tmp_path / "ce.txt")]) == 0
    # the determinant-similarity linear kernel fails certification on
    # this dataset, but theory calls it indefinite, so the verdict holds
    assert cli.main(["pd-check", "--dataset", data_file,
                     "--kernels", "linear:bc",
                     "--out", str(tmp_path / "pd.txt")]) == 0
    pd_text = (tmp_path / "pd.txt").read_text()
    assert "theory=indefinite" in pd_text and "passed=false" in pd_text
    assert pd_text.endswith("[verdict]\npassed=true\n")
    # assertion failure: a kernel that theory calls pd fails
    # certification (under a negative tolerance), so pd-check exits 1
    monkeypatch.setattr(kernels, "PD_TOLERANCE", -1.0)
    assert cli.main(["pd-check", "--dataset", data_file,
                     "--kernels", "linear:projection",
                     "--out", str(tmp_path / "pd-fail.txt")]) == 1
    fail_text = (tmp_path / "pd-fail.txt").read_text()
    assert "theory=pd" in fail_text
    assert fail_text.endswith("[verdict]\npassed=false\n")
    monkeypatch.undo()
    # input errors: exit 2
    assert cli.main(["svm", "--dataset", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "x.txt")]) == 2
    assert cli.main(["svm", "--dataset", data_file,
                     "--kernels", "nope:bc",
                     "--out", str(tmp_path / "y.txt")]) == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("bogus_key=1\n")
    assert cli.main(["svm", "--config", str(bad_cfg),
                     "--dataset", data_file,
                     "--out", str(tmp_path / "z.txt")]) == 2
    capsys.readouterr()


def test_pd_check_default_catalog_verdict(tmp_path, capsys):
    """`pd-check --seed 0` passes: its failing rows are all ones that
    theory does not call pd or cpd, and every row carries the status the
    `kernels` module table gives its family and embedding."""
    out = tmp_path / "pd.txt"
    assert cli.main(["pd-check", "--seed", "0", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("[verdict]\npassed=true\n")
    bc_theory = {"baseline": "pd", "laplace": "unproven"}
    rows = {}
    for section in text.split("\n\n"):
        lines = section.splitlines()
        if lines[0].startswith('[result "pd-check '):
            items = dict(line.split("=", 1) for line in lines[1:])
            family, embedding = items["kernel"].split(":")[:2]
            if embedding == "bc":
                expected = bc_theory.get(family, "indefinite")
            else:
                expected = "cpd" if family == "logarithm" else "pd"
            assert items["theory"] == expected
            rows[items["kernel"]] = items
    assert len(rows) == 14
    failing = {label for label, items in rows.items()
               if items["passed"] == "false"}
    # exactly the `bc` witnesses the `kernels` docstring cites for this
    # command; laplace:bc, unproven, passes
    assert failing == {"linear:bc", "polynomial:bc:alpha=2.0:beta=0.5",
                       "rbf:bc:beta=0.5", "binomial:bc:alpha=1.0:beta=2.0",
                       "logarithm:bc"}
    assert all(rows[label]["theory"] == "indefinite" for label in failing)
    capsys.readouterr()


@pytest.mark.parametrize("shape", [("8", "2", "5"), ("2", "1", "3")],
                         ids=["d8-p2", "d2-p1"])
def test_pd_check_passes_coincident_points(shape, tmp_path, capsys):
    """With no noise every point of one class is its prototype, so the
    centered Gram of a cpd kernel is roundoff alone, of either sign;
    certification treats it as zero and the verdict passes."""
    d, p, per_class = shape
    out = tmp_path / "pd.txt"
    assert cli.main(["pd-check", "--d", d, "--p", p, "--classes", "1",
                     "--per-class", per_class, "--noise-angle", "0",
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("[verdict]\npassed=true\n")
    [row] = [row for row in _table_rows(text)
             if row[0] == "logarithm:projection"]
    assert row[2] == "cpd" and float(row[3]) < 0.0 and row[-1] == "pass"
    capsys.readouterr()


# hand-written dataset and config files the exit-2 test below names
BAD_FILES = {
    "name-with-equals.txt":
        b"format_version=1\nname=a=b\nd=3\np=1\nn=1\nsubspace=1 0 0\n",
    "no-points.txt": b"format_version=1\nname=empty\nd=3\np=1\nn=0\n",
    "no-bits.cfg": b"bits=\n",
    "not-utf8.bin": b"\xff\xfe\x00bad",
}


@pytest.mark.parametrize("argv", [
    ["svm", "--svm-c", "0"],
    ["sparse-code", "--lam", "0"],
    ["cluster", "--restarts", "0"],
    ["hash", "--bits", "0"],
    ["hash", "--anchors", "0"],
    ["hash", "--anchors", "1"],
    ["hash", "--top-m", "0"],
    ["svm", "--seeds", "-1"],
    ["svm", "--seed", "-1"],
    ["svm", "--threads", "0"],
    ["svm", "--tune", "--cv-folds", "0"],
    ["svm", "--tune", "--cv-folds", "1"],
    ["svm", "--noise-angle", "2"],
    ["svm", "--d", "2", "--p", "3"],
    ["svm", "--classes", "0"],
    ["svm", "--per-class", "0"],
    ["generate", "--name", "two=parts"],
    ["generate", "--name", "abc "],
    ["generate", "--name", " abc"],
    ["cluster", "--clusters", "41"],
    ["cluster", "--clusters", "-1"],
    ["svm", "--classes", "1"],
    ["sparse-code", "--classes", "1"],
    ["bench", "--classes", "1"],
    ["svm", "--per-class", "1"],
    ["pd-check", "--kernels", "rbf:projection:beta=1000"],
    ["svm", "--d", "6", "--p", "2", "--per-class", "4", "--seeds", "0,0",
     "--kernels", "linear:projection"],
    ["svm", "--dataset", "name-with-equals.txt"],
    ["svm", "--dataset", "no-points.txt"],
    ["hash", "--bits", ""],
    ["hash", "--config", "no-bits.cfg"],
    ["svm", "--dataset", "not-utf8.bin"],
    ["svm", "--config", "not-utf8.bin"],
    ["hash", "--bits", "5,5"],
    ["svm", "--kernels", "linear:bc,linear:bc"],
    ["svm", "--kernels", "catalog,linear:bc"],
    ["svm", "--kernels", "rbf:projection:beta=0.5:beta=2", "--seeds", "0"],
    # every binomial:projection beta must exceed p, so 0.1 leaves no
    # tuning candidate
    ["svm", "--tune", "--kernels", "binomial:projection:alpha=1:beta=3",
     "--beta-grid", "0.1"],
    # the kernel fails certification on a split's dictionary
    ["sparse-code", "--d", "8", "--p", "2", "--classes", "3",
     "--per-class", "6", "--kernels", "logarithm:bc"],
], ids=" ".join)
def test_cli_rejects_bad_input_with_exit_2(argv, tmp_path, tmp_path_factory,
                                           capsys):
    """Each argv exits 2 with one error line and writes nothing; most of
    them once exited 1 with a traceback or 0 with a bogus report."""
    inputs = tmp_path_factory.mktemp("inputs")
    for name, text in BAD_FILES.items():
        (inputs / name).write_bytes(text)
    argv = [str(inputs / arg) if arg in BAD_FILES else arg
            for arg in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("task,out,written", [
    # a report path under a file; the parent cannot be made
    ("counterexample", "file/x.txt", "file/x.txt"),
    # a dataset path that is a directory
    ("generate", "dir", "dir"),
    # a gram directory that is a file
    ("gram", "file", "file/gram_rbf_projection_beta_0.5.csv"),
])
def test_cli_write_failure_names_the_path(task, out, written, tmp_path,
                                          capsys):
    """A file that cannot be written ends in one `cannot write` error
    line naming it, as a file that cannot be read does, and exit 2; it
    once printed only the OS error."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    argv = [task, "--out", str(tmp_path / out)]
    if task == "gram":
        argv += ["--kernels", DEFAULT_KERNEL]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write "
                             f"{str(tmp_path / written)!r}: [Errno ")


def test_cli_prints_a_library_warning_as_one_line(tmp_path, capsys):
    """A library warning reaches stderr as one `warning:` line, without
    the source location and source line that Python's default format
    adds; stdout is the same as with the warning ignored."""
    argv = ["generate", "--d", "6", "--p", "2", "--classes", "6",
            "--per-class", "20", "--noise-angle", "0.9", "--seed", "3",
            "--out", str(tmp_path / "hard.txt")]
    assert cli.main(argv) == 0
    warned = capsys.readouterr()
    assert warned.err == (
        "warning: classes * p = 12 exceeds d = 6; prototypes cannot be "
        "mutually orthogonal and are drawn independently\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == "" and warned.out == quiet.out != ""


@pytest.mark.parametrize("argv,module,budget,key,counts", [
    # one machine per two-class split, each stopped after one selection;
    # with tuning, 7 beta candidates times 3 folds add 21 fold machines
    (["svm"], svm_mod, ("MAX_ITERATIONS", 1), "unconverged_machines",
     ["1"] * 10),
    (["svm", "--tune"], svm_mod, ("MAX_ITERATIONS", 1),
     "unconverged_machines", ["22"] * 10),
    (["sparse-code"], sparse_mod, ("MAX_SWEEPS", 1), "unconverged_codes",
     ["20"] * 10),
    # two classes in three clusters leave some k-means++ seedings unstable
    (["cluster", "--clusters", "3"], kkmeans_mod, ("MAX_ITERATIONS", 0),
     "unconverged_restarts", None),
], ids=["svm", "svm-tune", "sparse-code", "cluster"])
def test_every_solver_at_its_budget_exits_0_and_reports_it(
        argv, module, budget, key, counts, monkeypatch, tmp_path, capsys):
    """One stop policy: an SMO, feature-sign or Lloyd solve that spends
    its budget returns what it has, and the task exits 0 with the report
    counting it per seed.  The svm case once exited 2, and before that
    escaped cli.main as a traceback."""
    monkeypatch.setattr(module, *budget)
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and out.read_text() == captured.out
    found = _items(captured.out)[key].split()
    assert len(found) == 10 and any(value != "0" for value in found)
    if counts is not None:
        assert found == counts


@pytest.mark.parametrize("task", ["cluster", "bench"])
@pytest.mark.parametrize("token", [
    "rbf:projection:beta=354", "rbf:projection:beta=354.8",
    "polynomial:projection:alpha=102:beta=1000"])
def test_overflowing_kernel_values_exit_2(task, token, tmp_path, capsys):
    """Kernels that pass their own overflow guard on the default data but
    whose machines' sums of kernel values leave the float range end in
    one error line naming the kernel and the seed: k-means++ weight
    totals at beta=354, K_ii + K_jj at beta=354.8 (in bench's svm section
    first), Lloyd's centroid distances for the polynomial.  They once
    ended in a ValueError traceback from Generator.choice, in 1,000,000
    SMO iterations on NaN curvatures, or in a report of infinite
    inertias."""
    out = tmp_path / "out.txt"
    assert cli.main([task, "--kernels", token, "--seeds", "0",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    label = kernels.parse_kernel_token(token, 2).label()
    assert f" with kernel {label!r} on " in err[0]
    assert "seed 0: " in err[0] and " overflow a float; " in err[0]


@pytest.mark.parametrize("task", ["gram", "pd-check", "svm", "cluster",
                                  "hash", "sparse-code"])
@pytest.mark.parametrize("token", [
    "rbf:projection:beta=354.891356446692",
    "binomial:projection:alpha=1.5:beta=2.0000000000000004"])
def test_kernel_overflowing_past_smax_exits_2(task, token, tmp_path,
                                              capsys):
    """A kernel finite at s = smax whose Gram is not, because roundoff
    puts self-similarities of the default data up to 8.9e-16 past smax
    (for the binomial, onto or past its pole at beta), ends in one error
    line naming the kernel and no warning line; it once ended in a
    ValueError traceback from GramMatrix.  The hint points the binomial
    to a beta further above smax; it once asked for a smaller parameter."""
    out = tmp_path / "out"
    assert cli.main([task, "--kernels", token, "--seeds", "0",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {task}: ")
    assert err[0].endswith(
        f"values of kernel {token!r} overflow a float; pick parameters that "
        "give smaller kernel values; for binomial, a beta further above smax")


def test_polynomial_overflowing_at_smax_exits_2(capsys):
    """The power overflows at s = smax although its log, computed as
    alpha * log(beta + smax), rounds to the log of the largest float; a
    guard on that log once accepted the kernel, and the run ended in a
    traceback."""
    assert cli.main(["svm", "--d", "8", "--p", "3", "--seeds", "0",
                     "--kernels", "polynomial:projection:alpha=221:"
                     "beta=21.820911007616182"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: ") and "overflows" in err[0]


# the section of each task that first meets the kernel's values; bench
# reaches its svm section first
_FIRST_FAILURE = {
    "pd-check": "pd-check with kernel {label!r}: ",
    "sparse-code": "sparse-code with kernel {label!r} on split seed 1: ",
    "svm": "svm with kernel {label!r} on split seed 1: ",
    "cluster": "cluster with kernel {label!r} on seed 1: ",
    "bench": "svm with kernel {label!r} on split seed 1: ",
}


@pytest.mark.parametrize("task", [task for task in TASKS
                                  if task not in ("generate",
                                                  "counterexample")])
def test_no_dataset_task_crashes_on_overflowing_kernel_values(task, tmp_path,
                                                              capsys):
    """At rbf beta=354.8 the default data's Gram reaches 1.5e308.  Every
    task that certifies it or runs a machine on it exits 2 with one error
    line naming the task, the kernel and the seed it was on; gram and hash
    still exit 0.  pd-check and sparse-code once ended in a LinAlgError
    traceback from the certification's eigenvalues."""
    token = "rbf:projection:beta=354.8"
    out = tmp_path / "out"
    code = cli.main([task, "--kernels", token, "--seeds", "1,0",
                     "--out", str(out)])
    captured = capsys.readouterr()
    if task not in _FIRST_FAILURE:
        assert code == 0 and captured.err == ""
        return
    assert code == 2 and captured.out == "" and not out.exists()
    err = captured.err.splitlines()
    label = kernels.parse_kernel_token(token, 2).label()
    assert len(err) == 1
    assert err[0].startswith(
        "error: " + _FIRST_FAILURE[task].format(label=label))
    assert err[0].endswith(
        " overflow a float; pick parameters that give smaller kernel "
        "values; for binomial, a beta further above smax")


def test_cli_options_match_config_fields(capsys):
    """One parser takes every task, then --config and one flag per config
    field, dashed, each with help text; --help lists the tasks and every
    range requirement."""
    options = [field for field in dataclasses.fields(ExperimentConfig)
               if field.name != "task"]
    assert all(field.metadata["help"] for field in options)
    parser = cli._build_parser()
    flags = {flag for action in parser._actions
             for flag in action.option_strings} - {"-h", "--help"}
    assert flags == {"--" + field.name.replace("_", "-")
                     for field in options} | {"--config"}
    for task in TASKS:
        assert parser.parse_args([task]).task == task
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for task in TASKS:
        assert f"{task} {TASK_DESCRIPTIONS[task]}" in text
    for field in options:
        if field.metadata["check"]:
            assert f"must {field.metadata['check'][0]}" in text


def test_cli_accepts_comma_separated_lists(tmp_path, capsys):
    report = tmp_path / "svm.txt"
    code = cli.main(["svm", "--d", "6", "--p", "2", "--classes", "2",
                     "--per-class", "6", "--seeds", "0,1",
                     "--kernels", "linear:projection",
                     "--out", str(report)])
    assert code == 0
    text = report.read_text()
    assert "seeds=0 1" in text
    assert 'result "svm linear:projection"' in text
    captured = capsys.readouterr()
    assert captured.out == text  # the report is echoed to stdout
    # a config file takes the same comma-separated lists as the flags
    shape = ["--d", "6", "--p", "2", "--classes", "2", "--per-class", "6"]
    assert cli.main(["svm"] + shape + [
        "--seeds", "0,1",
        "--kernels", "linear:bc,rbf:projection:beta=0.5"]) == 0
    from_flags = capsys.readouterr().out
    cfg = tmp_path / "lists.cfg"
    cfg.write_text("seeds=0,1\nkernels=linear:bc, rbf:projection:beta=0.5\n")
    assert cli.main(["svm", "--config", str(cfg)] + shape) == 0
    assert capsys.readouterr().out == from_flags


def test_cli_threads_flag_leaves_output_alone(capsys):
    """`--threads` is accepted and has no effect on stdout or exit code."""
    argv = ["svm", "--d", "6", "--p", "2", "--classes", "2",
            "--per-class", "6", "--seeds", "0,1"]
    outputs = []
    for threads in ("1", "2"):
        code = cli.main(argv + ["--threads", threads])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_cli_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=6\np=2\nclasses=2\nper_class=6\nseeds=0\n")
    report = tmp_path / "out.txt"
    assert cli.main(["cluster", "--config", str(cfg), "--restarts", "2",
                     "--out", str(report)]) == 0
    text = report.read_text()
    assert "restarts=2" in text
    assert "mean_nmi=" in text
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["svm", "--seeds", "0,1", "--kernels", "linear:bc,rbf:projection:beta=0.5",
     "--tune"],
    ["hash", "--seeds", "0", "--bits", "20,30"],
    ["pd-check"],
    ["hash", "--seeds", "0", "--bits", "20", "--dataset", "hard.txt",
     "--d", "8"],
], ids=" ".join)
def test_report_config_section_reruns_the_experiment(argv, tmp_path, capsys,
                                                     monkeypatch):
    """A report's `[config]` section, saved as a config file and given to
    the same task with nothing else, reproduces the report byte for
    byte."""
    monkeypatch.chdir(tmp_path)
    if "hard.txt" in argv:
        save_dataset(generate_planted(d=6, p=2, classes=3, per_class=10,
                                      noise_angle=0.9, seed=3), "hard.txt")
    first = cli.main(argv)
    report = capsys.readouterr().out
    section = report.split("\n[config]\n", 1)[1].split("\n\n", 1)[0]
    config = tmp_path / "rerun.cfg"
    config.write_text(section + "\n")
    assert cli.main([argv[0], "--config", str(config)]) == first
    assert capsys.readouterr().out == report


def test_hash_on_a_dataset_file_reports_no_generation_keys(tmp_path,
                                                            capsys):
    """`[config]` of a `--dataset` run holds no generation option, so it
    cannot contradict `[dataset]`; it once printed the default d=8 next
    to a d=6 file."""
    path = tmp_path / "hard.txt"
    save_dataset(generate_planted(d=6, p=2, classes=3, per_class=10,
                                  noise_angle=0.9, seed=3), str(path))
    assert cli.main(["hash", "--dataset", str(path), "--seeds", "0",
                     "--bits", "20"]) == 0
    report = capsys.readouterr().out
    config = report.split("\n[config]\n", 1)[1].split("\n\n", 1)[0]
    keys = {line.split("=", 1)[0] for line in config.splitlines()}
    assert {"dataset", "seeds", "bits", "lam"} <= keys
    assert not {"name", "seed", "d", "p", "classes", "per_class",
                "noise_angle", "threads"} & keys
    assert "\nd=6\n" in report.split("\n[dataset]\n", 1)[1]


def test_cli_names_a_kernel_given_twice_through_the_catalog(capsys):
    """The catalog holds linear:bc, so naming it again is an input error
    that names the kernel."""
    assert cli.main(["svm", "--kernels", "catalog,linear:bc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kernel 'linear:bc' is given twice\n"


def test_sparse_code_reports_solver_counters():
    """Each seed's feature-sign sweeps and largest KKT residual sit in the
    result, before the fallback count, as the svm counters do; with
    beta=20 the Gram entries reach 2.35e17 and no code converges."""
    config = build_config("sparse-code", overrides={
        "kernels": "rbf:projection:beta=20", "seeds": "0 1"})
    text = run_experiment(config).text
    keys = [line.split("=", 1)[0] for line in text.splitlines()]
    assert keys.index("feature_sign_sweeps") + 1 \
        == keys.index("max_kkt_residual") \
        == keys.index("zero_code_fallbacks") - 1
    items = _items(text)
    assert items["feature_sign_sweeps"] == "40 40"
    assert items["max_kkt_residual"] == \
        "97053712279598432 1.2070628840166464e+17"
    assert items["unconverged_codes"] == "20 20"


def test_traced_benchmark_names_resolve():
    """Every function the benchmark's tracer wraps still exists.

    The tracer looks each (module, attribute) pair up by name, so
    removing or renaming one would break a traced run.
    """
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = ([entry[:2] for entry in tracing.SPANNED]
             + [entry[:2] for entry in tracing.COUNTED])
    assert names
    for module, attr in names:
        function = getattr(importlib.import_module(module), attr, None)
        assert callable(function), f"{module}.{attr}"


def test_packages_bind_only_submodules():
    """One import path per name: the package modules bind no public name
    but their submodules (and the root's `__version__`), so a submodule
    is never hidden by a function of the same name."""
    import grasskernels.harness.cli
    import grasskernels.machines.kkmeans as kkmeans_module
    assert isinstance(kkmeans_module, types.ModuleType)
    for package in (grasskernels, grasskernels.machines,
                    grasskernels.harness):
        for name, value in vars(package).items():
            if not name.startswith("_"):
                assert isinstance(value, types.ModuleType), name
                assert value.__name__ == f"{package.__name__}.{name}"


def test_package_imports_no_scipy():
    """numpy is the only run-time dependency: a fresh interpreter that
    imports the package and its command line loads no scipy module."""
    src = os.path.dirname(os.path.dirname(grasskernels.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, grasskernels, grasskernels.harness.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
