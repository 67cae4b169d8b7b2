"""F9b — Figure 9(b): base-set size limits, all approaches compared.

Regenerates the head-to-head chart at the paper's fixed limits
(maxws = 200 MB, maxis = 1 TB): the maximum dataset cardinality per
scheme over element sizes 10¹…10⁴ KB.

Shape asserted (the paper's two observations):
1. "the broadcast approach is only reasonable for smaller datasets" —
   lowest curve everywhere;
2. "the design and block approach have a cross-over point and for large
   elements (> 1 MB) the design approach allows a few more elements" —
   block wins below 1 MB, design above, crossing exactly at 1 MB.
"""

from __future__ import annotations

from harness import format_table, write_report

from repro._util import KB, MB
from repro.core.cost_model import (
    PAPER_MAXIS,
    PAPER_MAXWS,
    design_block_crossover,
    fig9b_curves,
    log_spaced_sizes,
)

SIZES = log_spaced_sizes(10 * KB, 10_000 * KB, per_decade=3)


def compute():
    return fig9b_curves(SIZES, PAPER_MAXWS, PAPER_MAXIS)


def test_fig9b_scheme_comparison(benchmark):
    points = benchmark(compute)

    crossover = design_block_crossover(PAPER_MAXWS, PAPER_MAXIS)
    assert abs(crossover - 1 * MB) < 1  # the paper's 1 MB crossover

    for point in points:
        # Observation 1: broadcast admits the fewest elements everywhere.
        assert point.broadcast <= point.block
        assert point.broadcast <= point.design
        # Observation 2: block vs design flips at the crossover.
        if point.element_size < crossover * 0.99:
            assert point.block > point.design, point
        elif point.element_size > crossover * 1.01:
            assert point.design > point.block, point

    # "a few more elements": the win above the crossover is a modest factor,
    # not an order of magnitude, at 10 MB elements.
    at_10mb = next(p for p in points if p.element_size == 10_000 * KB)
    assert 1 < at_10mb.design / at_10mb.block < 5

    rows = [
        [p.element_size // KB, p.broadcast, p.block, p.design, p.design_strict]
        for p in points
    ]
    from repro.report import loglog_chart

    chart = loglog_chart(
        {
            "broadcast": [(p.element_size, p.broadcast) for p in points],
            "block": [(p.element_size, p.block) for p in points],
            "design": [(p.element_size, p.design) for p in points],
        },
        x_label="element size (bytes)",
        y_label="max v",
    )
    write_report(
        "fig9b",
        "Fig 9b — max(v) per scheme (maxws=200MB, maxis=1TB); "
        "design_strict additionally applies the unplotted design maxws bound",
        format_table(
            ["elem_KB", "broadcast", "block", "design", "design_strict"], rows
        )
        + "\n\n" + chart,
    )
