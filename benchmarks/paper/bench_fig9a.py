"""F9a — Figure 9(a): lower and upper bounds on h for the block approach.

Regenerates: the valid blocking-factor interval
``2vs/maxws ≤ h ≤ maxis/vs`` over dataset sizes vs ∈ 10⁰…10² GB, for all
combinations of maxws ∈ {200 MB, 400 MB, 1 GB} (rising lower-bound lines)
and maxis ∈ {100 GB, 1 TB, 10 TB} (falling upper-bound lines).

Shape asserted: rising × falling bounds intersect at
``vs* = sqrt(maxws·maxis/2)``; beyond vs* no h exists.  Paper anchor: a
4 GB dataset at (200 MB, 1 TB) admits h roughly in [39, 263] — decimal
units give exactly [40, 250] (the paper read values off a log chart).
"""

from __future__ import annotations

from harness import format_table, write_report

from repro._util import GB, MB, TB
from repro.core.cost_model import (
    block_h_bounds,
    log_spaced_sizes,
    max_dataset_bytes_block,
)

MAXWS_VALUES = [200 * MB, 400 * MB, 1 * GB]
MAXIS_VALUES = [100 * GB, 1 * TB, 10 * TB]
DATASETS = log_spaced_sizes(1 * GB, 100 * GB, per_decade=3)


def compute_bounds():
    table = {}
    for maxws in MAXWS_VALUES:
        for maxis in MAXIS_VALUES:
            table[(maxws, maxis)] = [
                block_h_bounds(vs, maxws, maxis) for vs in DATASETS
            ]
    return table


def test_fig9a_block_factor_bounds(benchmark):
    table = benchmark(compute_bounds)

    for (maxws, maxis), bounds in table.items():
        lows = [b.h_min for b in bounds]
        highs = [b.h_max for b in bounds]
        # Lower bound rises with vs, upper bound falls (the chart's X shape).
        assert lows == sorted(lows)
        assert highs == sorted(highs, reverse=True)
        # Feasibility flips exactly at the intersection.
        crossover = max_dataset_bytes_block(maxws, maxis)
        for vs, b in zip(DATASETS, bounds):
            assert b.feasible == (vs <= crossover), (vs, crossover)

    # Paper anchor: 4 GB dataset, default limits.
    anchor = block_h_bounds(4 * GB, 200 * MB, 1 * TB)
    assert anchor.h_min == 40 and anchor.h_max == 250  # paper: ~39..263

    # Larger maxws lowers the lower bound; larger maxis raises the upper.
    base = table[(200 * MB, 1 * TB)]
    more_mem = table[(1 * GB, 1 * TB)]
    more_disk = table[(200 * MB, 10 * TB)]
    for b0, b1 in zip(base, more_mem):
        assert b1.h_min <= b0.h_min
    for b0, b1 in zip(base, more_disk):
        assert b1.h_max >= b0.h_max

    rows = []
    for vs, b in zip(DATASETS, table[(200 * MB, 1 * TB)]):
        rows.append([round(vs / GB, 2), b.h_min, b.h_max, "yes" if b.feasible else "no"])
    from repro.report import loglog_chart

    base_bounds = table[(200 * MB, 1 * TB)]
    chart = loglog_chart(
        {
            "h_min (maxws)": [(vs, b.h_min) for vs, b in zip(DATASETS, base_bounds)],
            "h_max (maxis)": [(vs, b.h_max) for vs, b in zip(DATASETS, base_bounds)],
        },
        x_label="dataset bytes",
        y_label="blocking factor h",
    )
    write_report(
        "fig9a",
        "Fig 9a — valid h range for the block approach (maxws=200MB, maxis=1TB)",
        format_table(["vs_GB", "h_min", "h_max", "feasible"], rows) + "\n\n" + chart,
    )
