"""Text sinks, the one CSV dialect every table is written in, and the one
JSON dialect.

Every table the package writes goes through :func:`write_csv` (comma
separated, minimal quoting, ``\\n`` line endings), and every JSON file
through :func:`write_json`.  Every table it reads goes
through :func:`read_csv`, which checks the header first, and every field
through :func:`column`, whose errors name the file, data row and column.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager


class ParameterError(ValueError):
    """A parameter, argument or input field is outside its supported domain."""


@contextmanager
def open_text_sink(target):
    """Yield a writable text file for a path or "-" (stdout)."""
    if target == "-":
        yield sys.stdout
    else:
        with open(target, "w", newline="") as fh:
            yield fh


def write_csv(target, header, rows) -> None:
    """Write a header row and then ``rows`` to a path or "-" (stdout)."""
    with open_text_sink(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(target, obj) -> None:
    """Write ``obj`` as JSON indented by 2, then a newline, to a path or "-"."""
    with open_text_sink(target) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_csv(path, *headers) -> tuple[tuple[str, ...], list[list[str]]]:
    """The first row of a CSV file, as a tuple, and the data rows after it.

    Raises ``ParameterError`` when ``headers`` are given and the first row is
    none of them, before any data row is read, or when a data row has more or
    fewer fields than the first row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = tuple(next(reader, ()))
        if headers and first not in headers:
            expected = " or ".join(repr(",".join(header)) for header in headers)
            raise ParameterError(f"{path}: expected CSV header {expected}, got {','.join(first)!r}")
        rows = list(reader)
    for k, row in enumerate(rows, 1):
        if len(row) != len(first):
            raise ParameterError(f"{path}: data row {k} has {len(row)} fields, "
                                 f"expected {len(first)}")
    return first, rows


def column(path, header, rows, name: str, kind) -> list:
    """Column ``name`` of a table from :func:`read_csv`, each field converted
    by ``kind``: ``int`` (within int64, the type of every array built from it),
    ``float`` or ``str``.  A ``ParameterError`` names a missing column, or the
    file, 1-based data row, column and text of a bad field.
    """
    if name not in header:
        raise ParameterError(f"{path}: no column {name!r} in CSV header {','.join(header)!r}")
    index = header.index(name)
    values = []
    for k, row in enumerate(rows, 1):
        try:
            values.append(kind(row[index]))
            if kind is int and not -2**63 <= values[-1] < 2**63:
                raise ValueError
        except ValueError:
            expected = "a number" if kind is float else "an integer in [-2**63, 2**63)"
            raise ParameterError(f"{path}: data row {k} has {name} {row[index]!r}, "
                                 f"expected {expected}") from None
    return values
