"""CSV reports with mirrored JSON documents.

CSV is the canonical report format: a header row, '.' decimal separator,
12 significant digits.  Every report is also mirrored as a JSON document
with the same columns and rows for programmatic use.
"""

from __future__ import annotations

import json
from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


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
    csv_path.write_text("\n".join(lines) + "\n")
    mirror = {
        "columns": columns,
        "rows": [
            {col: (v if not isinstance(v, float) else float(format(v, ".12g")))
             for col, v in zip(columns, row)}
            for row in rows
        ],
    }
    json_path.write_text(json.dumps(mirror, indent=2) + "\n")
    return [csv_path, json_path]
