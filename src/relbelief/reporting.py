"""CSV reports with mirrored JSON documents.

CSV is the canonical report format: a header row, '.' decimal separator,
12 significant digits, and a text field holding a comma, a double quote or
a line break quoted as RFC 4180 says.  Every report is also mirrored as a
JSON document with the same columns and rows for programmatic use.
"""

from __future__ import annotations

import json
import os
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


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\r\n'):  # RFC 4180: quote the field, double its quotes
        return '"' + text.replace('"', '""') + '"'
    return text


def write_report(base: str | Path, columns: list[str], rows: list[list]) -> list[Path]:
    """Write ``base.csv`` and the mirrored ``base.json``; returns both paths."""
    base = Path(base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match the header")
        lines.append(",".join(format_value(v) for v in row))
    write_text(csv_path, "\n".join(lines) + "\n")
    mirror = {
        "columns": columns,
        "rows": [
            {col: (v if not isinstance(v, float) else float(format(v, ".12g")))
             for col, v in zip(columns, row)}
            for row in rows
        ],
    }
    write_text(json_path, json.dumps(mirror, indent=2) + "\n")
    return [csv_path, json_path]
