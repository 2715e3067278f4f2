"""Loading and saving interval collections.

The paper's datasets ship as plain text files with one ``start end`` pair per
line; this module reads and writes the equivalent CSV form (``id,start,end``
or ``start,end``) so users can plug in their own data.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.core.errors import InvalidIntervalError
from repro.core.interval import IntervalCollection, _reject_repeated_ids

__all__ = ["load_intervals_csv", "save_intervals_csv"]


def load_intervals_csv(path: Union[str, Path], has_header: bool = False) -> IntervalCollection:
    """Load a collection from a CSV file.

    Rows may have two columns (``start,end``; ids are assigned sequentially)
    or three (``id,start,end``); in a file whose rows are wider, only the
    first three columns are read.  Rows of two or three columns must all have
    the same width, and blank lines are skipped.  The whole file is parsed by
    one ``np.loadtxt`` call.

    Raises:
        InvalidIntervalError: on malformed, single-column or ragged rows,
            naming the row as ``np.loadtxt`` counts it, and on a
            three-column file that repeats an id, naming the id.
    """
    path = Path(path)
    skip = 1 if has_header else 0
    line, width = _first_row(path, skip)
    if width == 0:
        return IntervalCollection.empty()
    if width < 2:
        raise InvalidIntervalError(f"{path}:{line}: expected 2 or 3 columns, got {width}")
    try:
        rows = np.loadtxt(
            path,
            dtype=np.int64,
            delimiter=",",
            ndmin=2,
            skiprows=skip,
            comments=None,
            quotechar='"',
            usecols=range(3) if width > 3 else None,
        )
    except ValueError as exc:
        raise InvalidIntervalError(f"{path}: malformed row: {exc}") from exc
    columns = rows.T.copy()  # contiguous columns, not strided views of the rows
    if width == 2:
        return IntervalCollection(np.arange(len(rows), dtype=np.int64), *columns)
    _reject_repeated_ids(columns[0], path)
    return IntervalCollection(*columns)


def _first_row(path: Path, skip: int) -> Tuple[int, int]:
    """1-based line number and column count of the first data row.

    ``(0, 0)`` when the file holds no data row.  Only empty lines are
    blank, as ``np.loadtxt`` reads them.
    """
    with path.open() as handle:
        for number, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if number > skip and line:
                return number, len(line.split(","))
    return 0, 0


def save_intervals_csv(collection: IntervalCollection, path: Union[str, Path]) -> None:
    """Write a collection as ``id,start,end`` rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = np.column_stack([collection.ids, collection.starts, collection.ends])
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerows(data.tolist())
