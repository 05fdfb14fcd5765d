"""Text sinks and the one CSV dialect every table is written in.

Every table the package writes goes through :func:`write_csv` (comma
separated, minimal quoting, ``\\n`` line endings), and every table it reads
back goes through :func:`read_csv`.
"""

from __future__ import annotations

import csv
import sys
from contextlib import contextmanager


@contextmanager
def open_text_sink(target):
    """Yield a writable text file for a path, "-" (stdout), or file object."""
    if target == "-":
        yield sys.stdout
    elif hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", newline="") as fh:
            yield fh


def write_csv(target, header, rows) -> None:
    """Write a header row and then ``rows`` to a path, "-" or file object."""
    with open_text_sink(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header=None) -> tuple[list[str], list[list[str]]]:
    """The first row of a CSV file and the data rows after it.

    Raises ``ParameterError`` when ``header`` is given and the first row is
    anything else, or when a data row has more or fewer fields than the
    first row.
    """
    from .measures import ParameterError

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if header is not None and first != list(header):
            raise ParameterError(f"{path}: expected CSV header {','.join(header)!r}, "
                                 f"got {first}")
        rows = list(reader)
    for k, row in enumerate(rows, 1):
        if len(row) != len(first):
            raise ParameterError(f"{path}: data row {k} has {len(row)} fields, "
                                 f"expected {len(first)}")
    return first or [], rows
