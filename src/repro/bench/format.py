"""Minimal fixed-width table formatting for experiment output."""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table", "print_table"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[dict], *, title: str | None = None) -> str:
    """Render a list of dicts as a fixed-width text table.

    The columns are every key of every row, in first-seen order; a row
    without a column leaves its cell blank.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(rows: Sequence[dict], *, title: str | None = None) -> None:
    print(format_table(rows, title=title))
    print()
