"""F8b — Figure 8(b): intermediate-storage limit for the design approach.

Regenerates: max(v) before the design scheme's materialized intermediate
data (replication ≈ √v ⇒ bytes ≈ v^{3/2}·s) exceeds ``maxis``, over
element sizes 10¹…10⁴ KB for maxis ∈ {100 GB, 1 TB, 10 TB}.

Shape asserted: max(v) = (maxis/s)^{2/3} — log-log slope −2/3 (flatter
than Fig 8a's −1) — and a 10× maxis raises max(v) by 10^{2/3} ≈ 4.64×.
"""

from __future__ import annotations

import math

from harness import format_table, write_report

from repro._util import GB, KB, TB
from repro.core.cost_model import log_spaced_sizes, max_v_design_storage

MAXIS_VALUES = [100 * GB, 1 * TB, 10 * TB]
SIZES = log_spaced_sizes(10 * KB, 10_000 * KB, per_decade=3)


def compute_curves():
    return {
        maxis: [max_v_design_storage(s, maxis) for s in SIZES]
        for maxis in MAXIS_VALUES
    }


def test_fig8b_design_storage_limit(benchmark):
    curves = benchmark(compute_curves)

    for maxis, values in curves.items():
        assert values == sorted(values, reverse=True)
        # The -2/3 log-log slope: a 100× element size costs 100^(2/3) ≈
        # 21.5× in capacity (checked directly, not via grid indices).
        ratio = max_v_design_storage(10 * KB, maxis) / max_v_design_storage(
            1000 * KB, maxis
        )
        assert math.isclose(ratio, 100 ** (2 / 3), rel_tol=0.02)

    # 10× storage → 10^(2/3) ≈ 4.64× capacity.
    for v100g, v1t in zip(curves[100 * GB], curves[1 * TB]):
        assert math.isclose(v1t / v100g, 10 ** (2 / 3), rel_tol=0.02)

    # Anchor from the paper's arithmetic: 1 MB elements, 1 TB → v = 10,000.
    assert max_v_design_storage(1000 * KB, 1 * TB) == 10_000

    rows = [
        [s // KB] + [curves[m][i] for m in MAXIS_VALUES]
        for i, s in enumerate(SIZES)
    ]
    from repro.report import loglog_chart

    chart = loglog_chart(
        {
            "100GB": list(zip(SIZES, curves[100 * GB])),
            "1TB": list(zip(SIZES, curves[1 * TB])),
            "10TB": list(zip(SIZES, curves[10 * TB])),
        },
        x_label="element size (bytes)",
        y_label="max v (design)",
    )
    write_report(
        "fig8b",
        "Fig 8b — max(v) before design hits maxis (element size in KB)",
        format_table(
            ["elem_KB", "maxis=100GB", "maxis=1TB", "maxis=10TB"], rows
        )
        + "\n\n" + chart,
    )
