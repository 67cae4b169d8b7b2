"""F8a — Figure 8(a): base-set size limit for the broadcast approach.

Regenerates the paper's chart: the maximum dataset cardinality ``max(v)``
before a broadcast working set (the whole dataset) exceeds per-task memory
``maxws``, as a function of element size (10¹…10⁴ KB, log-log), for
maxws ∈ {200 MB, 400 MB, 1 GB}.

Shape asserted: each curve is max(v) = maxws/s — a straight line of slope
−1 on the log-log chart — and doubling maxws doubles max(v) everywhere.
"""

from __future__ import annotations

from harness import format_table, write_report

from repro._util import GB, KB, MB
from repro.core.cost_model import log_spaced_sizes, max_v_broadcast

MAXWS_VALUES = [200 * MB, 400 * MB, 1 * GB]
SIZES = log_spaced_sizes(10 * KB, 10_000 * KB, per_decade=3)


def compute_curves():
    return {
        maxws: [max_v_broadcast(s, maxws) for s in SIZES] for maxws in MAXWS_VALUES
    }


def test_fig8a_broadcast_working_set_limit(benchmark):
    curves = benchmark(compute_curves)

    for maxws, values in curves.items():
        # Monotone decreasing in element size; exact hyperbola maxws/s.
        assert values == sorted(values, reverse=True)
        for s, v in zip(SIZES, values):
            assert v == maxws // s

    # Doubling memory doubles capacity (the chart's parallel lines).
    for v200, v400 in zip(curves[200 * MB], curves[400 * MB]):
        assert abs(v400 - 2 * v200) <= 1

    # Paper-scale anchor: 500 KB elements on a 200 MB slot → only 400
    # elements; broadcast is "only reasonable for smaller datasets".
    assert max_v_broadcast(500 * KB, 200 * MB) == 400

    rows = [
        [s // KB] + [curves[m][i] for m in MAXWS_VALUES]
        for i, s in enumerate(SIZES)
    ]
    from repro.report import loglog_chart

    chart = loglog_chart(
        {
            "200MB": list(zip(SIZES, curves[200 * MB])),
            "400MB": list(zip(SIZES, curves[400 * MB])),
            "1GB": list(zip(SIZES, curves[1 * GB])),
        },
        x_label="element size (bytes)",
        y_label="max v (broadcast)",
    )
    write_report(
        "fig8a",
        "Fig 8a — max(v) before broadcast hits maxws (element size in KB)",
        format_table(
            ["elem_KB", "maxws=200MB", "maxws=400MB", "maxws=1GB"], rows
        )
        + "\n\n" + chart,
    )
