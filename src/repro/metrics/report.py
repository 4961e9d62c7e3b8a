"""Markdown rendering of experiment tables."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["markdown_table"]


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a GitHub-markdown table with right-aligned numeric columns."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in materialized)) if materialized
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    out = [
        "| " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)) + " |",
        "|" + "|".join("-" * (w + 2) for w in widths) + "|",
    ]
    for row in materialized:
        out.append("| " + " | ".join(c.rjust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(out)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
