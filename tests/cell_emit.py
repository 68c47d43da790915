"""The per-cell CSV and JSON formatting that ``cli.emit`` replaced.

Each cell is formatted on its own by ``format_value``: booleans as
true/false, integers (numpy ones too) in decimal, floats (numpy ones too)
to 9 significant digits, anything else by ``str``. ``emit`` writes a sweep's
plans by one template per (M, fc) entry and other rows through a fast path
per exact cell type, and must give the same text; JSON rounds each float
cell to 9 significant digits.
"""

import json

import numpy as np


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def render(fmt: str, columns, rows, config) -> str:
    """The text ``emit`` writes for ``rows``, tuples in column order."""
    if fmt == "csv":
        lines = [f"# {key} = {format_value(value)}" for key, value in vars(config).items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(format_value(value) for value in row))
        return "\n".join(lines) + "\n"
    payload = {
        "config": vars(config),
        "columns": list(columns),
        "rows": [
            {
                column: (
                    float(format(value, ".9g"))
                    if isinstance(value, (float, np.floating))
                    else value
                )
                for column, value in zip(columns, row)
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
