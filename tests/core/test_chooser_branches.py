"""Chooser edge-branch tests: the fall-through paths."""

import pytest

from repro._util import GB, KB, MB, TB
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.chooser import choose_scheme
from repro.core.runner import auto_pairwise


class TestBroadcastMaxisFallthrough:
    def test_broadcast_skipped_when_intermediate_blows_maxis(self):
        # Dataset fits a slot (10 MB), but p-fold replication (16×10 MB)
        # exceeds a pathologically small maxis → falls through to block.
        choice = choose_scheme(
            100, 100 * KB, maxws=200 * MB, maxis=50 * MB, num_nodes=8
        )
        assert not isinstance(choice.scheme, BroadcastScheme)
        assert any("exceed maxis" in line for line in choice.rationale)


class TestDiscreteWorkingSetBump:
    def test_h_bumped_past_ceiling_rounding(self):
        """When 2⌈v/h_min⌉·s > maxws due to rounding, h rises until the
        discrete working set fits."""
        # v=10000, s=1MB, maxws=25MB: analytic h_min=800 gives e=13 →
        # 26 MB > 25 MB; the chooser must end at h with 2⌈v/h⌉ ≤ 25.
        choice = choose_scheme(
            10_000, 1 * MB, maxws=25 * MB, maxis=100 * TB, num_nodes=8
        )
        assert isinstance(choice.scheme, BlockScheme)
        scheme = choice.scheme
        assert 2 * scheme.e * 1 * MB <= 25 * MB


def tag_gap(a, b):
    """Order-sensitive and module-level, so a pooled engine can pickle it."""
    return a.tag - b.tag


def declared_huge(count=30):
    """``count`` × 100 MB declared: no flat scheme fits, the chooser goes hierarchical."""
    from repro.mapreduce import SizedPayload

    return [SizedPayload(100 * MB, tag=i) for i in range(count)]


HUGE_LIMITS = {"maxws": 400 * MB, "maxis": int(1.2 * GB)}


def closed_trace(path):
    """The JSONL trace's objects, once its last line is a span — ``close()`` writes those."""
    import json

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines and set(lines[-1]) == {"task", "node", "slot", "start", "end"}
    return lines


class TestRunnerEdges:
    def test_asymmetric_hierarchical_matches_brute_force(self):
        from repro.core.element import ordered_results
        from repro.core.pairwise import brute_force_asymmetric
        from repro.mapreduce import SerialEngine, SizedPayload

        data = [SizedPayload(40 * MB, tag=i) for i in range(30)]
        for engine in (None, SerialEngine()):
            merged, choice = auto_pairwise(
                data, tag_gap, maxws=100 * MB, maxis=600 * MB, symmetric=False, engine=engine
            )
            assert choice.is_hierarchical
            assert ordered_results(merged) == brute_force_asymmetric(data, tag_gap)

    def test_hierarchical_choice_keeps_the_engine_knobs(self, tmp_path):
        """Bugfix: auto_engine / trace_sink were dropped on the floor.

        At the parent this call returned with 0 bytes traced and the sink open.
        """
        from repro.core.element import results_matrix
        from repro.mapreduce.controlplane.events import JsonlTraceSink

        merged, choice = auto_pairwise(
            declared_huge(), tag_gap, **HUGE_LIMITS, auto_engine=True,
            trace_sink=JsonlTraceSink(tmp_path / "trace.jsonl"),
        )
        assert choice.is_hierarchical
        pairs = results_matrix(merged)
        assert len(pairs) == 30 * 29 // 2 and pairs[(30, 1)] == 29
        # Every round ran its two jobs on the engine this call built, and closed it.
        events = closed_trace(tmp_path / "trace.jsonl")
        measured = [event for event in events if event.get("type") == "ReplicationMeasured"]
        assert len(measured) == choice.scheme.num_rounds

    def test_trace_sink_alone_is_served_by_a_serial_engine_and_closed(self, tmp_path):
        from repro.mapreduce.controlplane.events import JsonlTraceSink

        small = [float(x) for x in range(10)]
        for name, data, comp, limits in (
            ("flat", small, lambda a, b: a - b, {}),
            ("hierarchical", declared_huge(), tag_gap, HUGE_LIMITS),
        ):
            path = tmp_path / f"{name}.jsonl"
            _merged, choice = auto_pairwise(data, comp, trace_sink=JsonlTraceSink(path), **limits)
            assert choice.is_hierarchical == (name == "hierarchical")
            assert closed_trace(path)

    def test_engine_knobs_with_an_explicit_engine_raise(self, tmp_path):
        from repro.mapreduce import SerialEngine
        from repro.mapreduce.controlplane.events import JsonlTraceSink

        with JsonlTraceSink(tmp_path / "trace.jsonl") as sink:
            with pytest.raises(ValueError, match="to the engine itself"):
                auto_pairwise([1.0, 2.0], tag_gap, engine=SerialEngine(), trace_sink=sink)

    def test_asymmetric_flat_works(self):
        data = [float(x) for x in range(10)]
        merged, choice = auto_pairwise(
            data, lambda a, b: a - b, symmetric=False
        )
        from repro.core.element import ordered_results

        results = ordered_results(merged)
        assert results[(3, 7)] == -4.0
        assert results[(7, 3)] == 4.0

    def test_explicit_element_size_overrides_estimate(self):
        data = [0.0, 1.0, 2.0]
        _merged, small = auto_pairwise(data, lambda a, b: a - b)
        _merged, large = auto_pairwise(
            data, lambda a, b: a - b, element_size=80 * MB
        )
        # Small payloads → broadcast; declared 150 MB → not broadcast.
        assert small.scheme.name == "broadcast"
        assert large.scheme.name != "broadcast"
