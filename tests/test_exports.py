"""Artifact emission helpers: lossless formatting and file layout."""

import numpy as np

from circulant_ilc.exports import fmt, matrix_filename, write_matrix, write_rows
from oracles import circulant_deviation


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(19)
    values = np.concatenate([rng.standard_normal(50), 10.0 ** rng.uniform(-300, 300, 20)])
    for v in values:
        assert float(fmt(v)) == v


def test_matrix_filename_pattern():
    assert matrix_filename("toeplitz", 51, 1) == "toeplitz_N51_q1.csv"


def test_write_matrix_round_trips(tmp_path):
    rng = np.random.default_rng(20)
    M = rng.standard_normal((4, 6))
    path = write_matrix(tmp_path / "m.csv", M)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, M)


def test_write_rows_formats_floats(tmp_path):
    path = write_rows(tmp_path / "r.csv", ["i", "x"], [(0, 1.0 / 3.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "i,x"
    assert float(lines[1].split(",")[1]) == 1.0 / 3.0


def test_circulant_deviation_detects_perturbation():
    base = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    assert circulant_deviation(base) == 0.0
    bumped = base.copy()
    bumped[2, 0] += 1e-3
    assert abs(circulant_deviation(bumped) - 1e-3) < 1e-12
