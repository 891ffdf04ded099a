"""Plain-text rendering of tables, histograms and paper-vs-measured reports.

Every benchmark prints its artifact through these helpers so the harness
output reads like the paper's tables/figures with a "measured" column next
to the published values.  :class:`Report` is the one protocol the
observability reports (fleet, host record, SLO) render through: a
terminal table, GitHub-flavoured markdown, or JSON.

The module imports the stdlib only, so the CLI and the observers that
render through it never pay for numpy unless a histogram is drawn.
"""

from __future__ import annotations

import json
import numbers
from typing import Any, Sequence

__all__ = [
    "FORMATS",
    "Report",
    "render_table",
    "render_histogram",
    "paper_vs_measured",
    "format_number",
]

#: what :meth:`Report.render` takes: a fixed-width terminal table,
#: GitHub-flavoured markdown, or the report's ``as_dict()`` as JSON
FORMATS = ("table", "md", "json")


def format_number(value: float | int | str) -> str:
    """Humane formatting: thousands separators, trimmed floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return f"{int(value):,}"
    if value != value:  # NaN
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[float | int | str]],
    fmt: str = "table",
) -> str:
    """Fixed-width text table, or (``fmt="md"``) a GitHub-flavoured
    markdown table with the same cell formatting, so terminal and
    markdown reports agree.

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.5
    >>> print(render_table(["a", "b"], [[1, 2.5]], fmt="md"))
    | a | b |
    | --- | --- |
    | 1 | 2.5 |
    """
    if fmt not in ("table", "md"):
        raise ValueError(f"unknown table format {fmt!r} (expected table or md)")
    cells = [[format_number(v) for v in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    if fmt == "md":
        return "\n".join(
            "| " + " | ".join(row) + " |"
            for row in [list(headers), ["---"] * len(headers), *cells]
        )
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "-+-".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


class Report:
    """The one report protocol: ``as_dict()`` plus ``render(fmt)``.

    A report writes its two text layouts in ``_text(fmt, **options)``
    (``fmt`` is ``"table"`` or ``"md"``); its JSON form is the
    ``as_dict()`` document, written here once for every report.
    """

    def as_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    def _text(self, fmt: str, **options: Any) -> str:
        raise NotImplementedError

    def render(self, fmt: str = "table", **options: Any) -> str:
        """The report in ``fmt`` (one of :data:`FORMATS`); ``options``
        tune the text layouts and are ignored by JSON."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown report format {fmt!r} "
                             f"(expected {', '.join(FORMATS)})")
        if fmt == "json":
            return json.dumps(self.as_dict(), indent=2, sort_keys=True)
        return self._text(fmt, **options)


def render_histogram(
    bin_edges,
    counts,
    width: int = 50,
    label=lambda lo, hi: f"[{lo:g}, {hi:g})",
) -> str:
    """ASCII bar chart of a histogram (one row per bin)."""
    import numpy as np

    edges = np.asarray(bin_edges, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if len(edges) != len(counts) + 1:
        raise ValueError("need len(edges) == len(counts) + 1")
    peak = counts.max() if counts.size else 0.0
    lines = []
    for k, count in enumerate(counts):
        bar = "#" * (int(round(count / peak * width)) if peak > 0 else 0)
        lines.append(f"{label(edges[k], edges[k + 1]):>18} {format_number(count):>12} {bar}")
    return "\n".join(lines)


def paper_vs_measured(
    rows: Sequence[tuple[str, float | int | str, float | int | str]]
) -> str:
    """Three-column report: quantity, paper value, measured value."""
    table_rows = []
    for name, paper, measured in rows:
        row = [name, format_number(paper), format_number(measured)]
        if (
            isinstance(paper, numbers.Real)
            and isinstance(measured, numbers.Real)
            and float(paper) != 0
        ):
            ratio = float(measured) / float(paper)
            row.append(f"{ratio - 1:+.1%}")
        else:
            row.append("")
        table_rows.append(row)
    return render_table(["quantity", "paper", "measured", "delta"], table_rows)
