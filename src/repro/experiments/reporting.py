"""Plain-text reporting of experiment results (paper-style tables)."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["format_table", "mean_std"]


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and (population) standard deviation of a sequence."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std())


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Align a list of dict rows into a monospace table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_render(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
