"""Property tests on damaged input files.

Each test starts from a valid file of one format, damages one line (drops,
duplicates or swaps it, cuts a field, or writes ``nan``, ``inf`` or
``1e309`` into a field) and loads the result the way the command line does.
The load must either succeed with only finite numbers, or fail with a
one-line ``ValueError`` (``GraphParseError`` is one) that names the file.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynstack.cli import _parse_file
from dynstack.graph import attach_labels, parse_edge_list, read_label_file
from dynstack.naive_bayes import parse_feature_file
from dynstack.simulation import fit_method, generate_case
from dynstack.stacking import (
    default_basis,
    fit_dynamic,
    load_model,
    read_level1,
    save_model,
    write_level1,
)

EDGES = ["# toy network", "a b 1", "b c 2.5", "c d", "d a 0.5", "a c 3"]
LABELS = ["node_id,label", "a,X", "b,Y", "c,X", "d,Y"]
FEATURES = ["a w1:1 w2:2", "b w2:0.5", "c w3:1 w1:4", "d w1:3"]
TOKENS = ("nan", "inf", "1e309")

MUTATE = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def mutations(draw, lines, sep):
    """``lines`` with one line dropped, duplicated, swapped with the next, cut
    by one field, or with one field replaced by a non-finite token."""
    lines = list(lines)
    k = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("drop", "duplicate", "swap", "cut", "token")))
    if op == "drop":
        del lines[k]
    elif op == "duplicate":
        lines.insert(k, lines[k])
    elif op == "swap":
        j = (k + 1) % len(lines)
        lines[k], lines[j] = lines[j], lines[k]
    else:
        fields = lines[k].split(sep)
        f = draw(st.integers(0, len(fields) - 1))
        if op == "cut":
            del fields[f]
        else:
            token = draw(st.sampled_from(TOKENS))
            # a term:weight field keeps its term, so the token lands on the weight
            term, colon, _ = fields[f].rpartition(":")
            fields[f] = f"{term}{colon}{token}" if colon and draw(st.booleans()) else token
        lines[k] = sep.join(fields)
    return lines


def load_or_reject(path, load):
    """``load(path)``, or None if it failed with a one-line error naming ``path``."""
    try:
        return load(path)
    except ValueError as err:
        message = str(err)
        assert str(path) in message, message
        assert "\n" not in message, message
        return None


def write(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


@given(lines=mutations(EDGES, " "))
@MUTATE
def test_damaged_edge_list(tmp_path, lines):
    path = write(tmp_path / "edges.txt", lines)
    graph = load_or_reject(path, lambda p: _parse_file(parse_edge_list, p))
    if graph is not None:
        assert np.isfinite(graph.adjacency().data).all()


@given(lines=mutations(LABELS, ","))
@MUTATE
def test_damaged_label_file(tmp_path, lines):
    graph = parse_edge_list(EDGES)
    path = write(tmp_path / "labels.csv", lines)
    labeled = load_or_reject(path, lambda p: attach_labels(graph, read_label_file(p)))
    if labeled is not None:
        assert labeled.labels.min() >= -1 and labeled.labels.max() < labeled.class_count


@given(lines=mutations(FEATURES, " "))
@MUTATE
def test_damaged_feature_file(tmp_path, lines):
    ids = parse_edge_list(EDGES).node_ids
    path = write(tmp_path / "features.txt", lines)
    features = load_or_reject(path, lambda p: _parse_file(parse_feature_file, p, ids))
    if features is not None:
        assert np.isfinite(features.matrix.data).all()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    data = generate_case(3, 40, 2).to_level1()
    write_level1(root / "level1.csv", data)
    save_model(root / "dynamic.txt", fit_dynamic(data, 1.0, default_basis(data.u)))
    ridge, _ = fit_method("ridge_m3", data, 3, 0)
    save_model(root / "ridge_m3.txt", ridge)
    return root


@given(data=st.data())
@MUTATE
def test_damaged_level1_csv(valid_files, tmp_path, data):
    lines = data.draw(mutations((valid_files / "level1.csv").read_text().splitlines(), ","))
    data = load_or_reject(write(tmp_path / "level1.csv", lines), read_level1)
    if data is not None:
        assert np.isfinite(data.z).all() and np.isfinite(data.u).all()


@given(name=st.sampled_from(("dynamic.txt", "ridge_m3.txt")), data=st.data())
@MUTATE
def test_damaged_model_file(valid_files, tmp_path, name, data):
    lines = data.draw(mutations((valid_files / name).read_text().splitlines(), " "))
    model = load_or_reject(write(tmp_path / "model.txt", lines), load_model)
    if model is not None:
        assert np.isfinite(model.coef).all() and np.isfinite(model.strength)
        if model.basis is not None:
            assert np.isfinite(model.basis.knots).all()
