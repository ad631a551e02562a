"""The two-pass report writer, kept as the oracle for ``relbelief.reporting``.

``format_value`` gives each CSV field, and the JSON mirror is a dict of the
columns and one dict per row, each float replaced by the double its CSV
field reads back as, encoded by ``json.dumps(indent=2)``.  The library now
formats each value once and writes the mirror's text itself; its bytes must
stay these.
"""

import json


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


def report_texts(columns: list[str], rows: list[list]) -> tuple[str, str]:
    """The CSV text and the JSON mirror's text of one report."""
    lines = [",".join(columns)] + [",".join(format_value(v) for v in row) for row in rows]
    mirror = {
        "columns": columns,
        "rows": [
            {col: (v if not isinstance(v, float) else float(format(v, ".12g")))
             for col, v in zip(columns, row)}
            for row in rows
        ],
    }
    return "\n".join(lines) + "\n", json.dumps(mirror, indent=2) + "\n"
