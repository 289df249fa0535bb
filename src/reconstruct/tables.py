"""Numeric CSV tables with a header row, as the command line and the
power-plant loader read them.

The header is read in Python; the body goes through ``np.loadtxt``,
whose parser is written in C.  A table is comma-delimited, skips blank
lines and ``#`` comments, has no quoted or empty cells, and every row is
as wide as the header.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BadSchema


def _header_names(fh, path):
    """Names from the first line that is not blank once a leading ``#``
    is dropped; whitespace and surrounding double quotes are stripped from
    each name."""
    for line in iter(fh.readline, ""):
        text = line.strip().removeprefix("#").split("#")[0]
        if text.strip():
            return [name.strip().strip('"') for name in text.split(",")]
    raise BadSchema(f"{path}: expected a header row")


def read_table(path):
    """The header names of the CSV file at ``path`` and its body as one
    float array with a column per name.

    Raises ``BadSchema`` naming the file when there is no header, a cell
    is not a finite number, or a row is not as wide as the header.  A file
    with only a header reads as zero rows.
    """
    with open(path) as fh:
        names = _header_names(fh, path)
        ragged = f"{path}: every row must have {len(names)} cells, as the header has"
        non_numeric = f"{path}: non-numeric or infinite entries"
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            # loadtxt's two complaints: a cell it cannot convert, and a row
            # whose width differs from the rows before it
            if str(exc).startswith("the number of columns changed"):
                raise BadSchema(ragged) from None
            raise BadSchema(non_numeric) from None
    if table.size == 0:
        table = table.reshape(0, len(names))
    if table.shape[1] != len(names):
        raise BadSchema(ragged)
    if not np.isfinite(table).all():
        raise BadSchema(non_numeric)
    return names, table
