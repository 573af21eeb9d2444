"""CSV and JSON emission for experiment artifacts.

All floating point output is written at 17 significant digits so files
round-trip losslessly and reruns are byte-identical.
"""

import csv
import json
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "write_matrix",
    "write_rows",
    "write_json",
    "matrix_filename",
]


def fmt(x) -> str:
    """Render a float with 17 significant digits."""
    return format(float(x), ".17g")


def matrix_filename(tag: str, horizon: int, q: int) -> str:
    return f"{tag}_N{horizon}_q{q}.csv"


def write_matrix(path, matrix: np.ndarray) -> Path:
    """Dump a matrix as row-major CSV, one row per line."""
    path = Path(path)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([fmt(v) for v in row])
    return path


def write_rows(path, header, rows) -> Path:
    """Dump tabular data with a header row; floats at full precision."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, (float, np.floating)) else v for v in row])
    return path


def write_json(path, payload) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
