"""CSV and JSON round trips for tables.

The on-disk CSV layout mirrors Figure 1: an ``id`` column, one column per
attribute, and a ``weight`` column.  Values are read back as strings
(numbers are not coerced — FD satisfaction only needs equality), except
that weights are parsed as floats.  JSON uses the analogous record
structure.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..core.table import Table

__all__ = [
    "table_to_csv",
    "table_from_csv",
    "table_to_json",
    "table_from_json",
]

PathLike = Union[str, Path]


def table_to_csv(table: Table, path: Optional[PathLike] = None) -> str:
    """Serialise a table to CSV; write to *path* when given.

    Returns the CSV text either way.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["id", *table.schema, "weight"])
    for tid, row, weight in table.tuples():
        writer.writerow([tid, *row, weight])
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def table_from_csv(
    source: PathLike,
    name: str = "R",
    text: Optional[str] = None,
) -> Table:
    """Load a table from a CSV file (or from *text* when provided).

    The header must start with ``id`` and end with ``weight``; everything
    between is the schema.  Identifiers are read as integers when they
    look like integers, so a round trip through
    :func:`table_to_csv` preserves the common integer ids.
    """
    if text is None:
        text = Path(source).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if len(header) < 3 or header[0] != "id" or header[-1] != "weight":
        raise ValueError(
            "CSV header must be 'id,<attributes...>,weight', got "
            f"{header!r}"
        )
    schema = tuple(header[1:-1])
    rows = {}
    weights = {}
    for record in reader:
        if not record:
            continue
        raw_id, *values, raw_weight = record
        tid = int(raw_id) if raw_id.lstrip("-").isdigit() else raw_id
        rows[tid] = tuple(values)
        try:
            weights[tid] = float(raw_weight)
        except ValueError:
            raise ValueError(
                f"tuple {tid!r} has a non-numeric weight {raw_weight!r}"
            ) from None
    return Table(schema, rows, weights, name=name)


def table_to_json(table: Table, path: Optional[PathLike] = None) -> str:
    """Serialise a table to a JSON document (schema + records)."""
    doc = {
        "name": table.name,
        "schema": list(table.schema),
        "rows": [
            {"id": tid, "values": list(row), "weight": weight}
            for tid, row, weight in table.tuples()
        ],
    }
    text = json.dumps(doc, indent=2, default=str)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def table_from_json(source: PathLike, text: Optional[str] = None) -> Table:
    """Load a table from a JSON document produced by
    :func:`table_to_json`."""
    if text is None:
        text = Path(source).read_text(encoding="utf-8")
    doc = json.loads(text)
    rows = {}
    weights = {}
    for record in doc["rows"]:
        tid = record["id"]
        rows[tid] = tuple(record["values"])
        weights[tid] = float(record["weight"])
    return Table(tuple(doc["schema"]), rows, weights, name=doc.get("name", "R"))
