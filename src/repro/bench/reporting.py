"""Plain-text reporting of benchmark results in the paper's table/figure shapes."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

__all__ = [
    "format_table",
    "format_series",
]

Number = Union[int, float]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render an aligned text table (one per paper table)."""
    materialised: List[List[str]] = [[_format_value(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[Number]],
) -> str:
    """Render one figure panel as a table: one row per x value, one column per series."""
    columns = [x_label, *series.keys()]
    rows = []
    for position, x in enumerate(x_values):
        row: List[object] = [x]
        for values in series.values():
            row.append(values[position] if position < len(values) else float("nan"))
        rows.append(row)
    return format_table(title, columns, rows)
