"""Shared helpers of the paper-artifact scripts: table formatting and result persistence.

Every bench regenerates one of the paper's tables/figures as a text table,
asserts the *shape* the paper reports (who wins, by what factor, where
crossovers fall), and writes the series to ``benchmarks/paper/results/<name>.txt``
so EXPERIMENTS.md's numbers can be traced back to a concrete run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

RESULTS_DIR = Path(__file__).parent / "results"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text aligned table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(r[col]) for r in str_rows)) if str_rows else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_report(name: str, title: str, body: str) -> Path:
    """Persist one experiment's regenerated series under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(f"# {title}\n\n{body}\n")
    return path
