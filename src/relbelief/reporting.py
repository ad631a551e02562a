"""CSV reports with mirrored JSON documents.

CSV is the canonical report format: a header row, '.' decimal separator,
12 significant digits, and a text field holding a comma, a double quote or
a line break quoted as RFC 4180 says.  Every report is also mirrored as a
JSON document with the same columns and rows for programmatic use; its
bytes are those ``json.dumps(mirror, indent=2)`` gives, written in one pass
from each value's CSV field without building the mirror or calling the
pure-Python indenting encoder.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii
from pathlib import Path


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` with the bytes ``Path.write_text`` gives.

    An existing file is overwritten in place and cut at the end of the new
    text: truncating it to zero first costs far more than the write on some
    filesystems.  Not atomic: a crash mid-write can mix old and new bytes.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        f.truncate()


# The JSON text of a non-finite CSV field, as json.dumps writes it.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fields(value) -> tuple[str, str]:
    """A report value's CSV field and its JSON text, each formatted once.

    A float's JSON text is the double its 12-digit field reads back as.
    """
    if isinstance(value, str):
        field = value
        if "," in value or '"' in value or "\r" in value or "\n" in value:  # RFC 4180: quote
            field = '"' + value.replace('"', '""') + '"'  # the field, double its quotes
        return field, encode_basestring_ascii(value)
    if isinstance(value, float):
        field = format(value, ".12g")
        return field, _NON_FINITE.get(field) or repr(float(field))
    if isinstance(value, bool):
        return ("true", "true") if value else ("false", "false")
    if value is None:
        return "", "null"
    if isinstance(value, int):
        return str(value), int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_list(items: list[str]) -> str:
    """JSON texts as ``json.dumps(indent=2)`` lays out a list inside the top-level object."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def write_report(base: str | Path, columns: list[str], rows: list[list]) -> list[Path]:
    """Write ``base.csv`` and the mirrored ``base.json``; returns both paths.

    A header that repeats a column name, which no mirrored row could hold,
    is refused before anything is written, as is a row of another width.
    """
    base = Path(base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    if len(set(columns)) != len(columns):
        raise ValueError("the header repeats a column name")
    names = [encode_basestring_ascii(c) for c in columns]
    keys = [f"\n      {name}: " for name in names]
    lines, objects = [",".join(columns)], []
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match the header")
        fields, members = [], []
        for key, value in zip(keys, row):
            field, text = _fields(value)
            fields.append(field)
            members.append(key + text)
        lines.append(",".join(fields))
        objects.append("{" + ",".join(members) + "\n    }" if members else "{}")
    write_text(csv_path, "\n".join(lines) + "\n")
    write_text(json_path, '{\n  "columns": ' + _json_list(names) + ',\n  "rows": '
               + _json_list(objects) + "\n}\n")
    return [csv_path, json_path]
