"""One-call pairwise execution with automatic scheme selection.

:func:`auto_pairwise` glues the pieces a user would otherwise assemble by
hand: estimate the element size, let :func:`repro.core.chooser.choose_scheme`
pick the scheme the paper's analysis recommends for the environment and
the payload route it prices cheapest, and run it — a flat scheme through
the plan its :attr:`~repro.core.chooser.SchemeChoice.routing` names
(one-job broadcast, cached, or the two-job shuffle pipeline), a
hierarchical schedule round by round (:func:`~repro.core.hierarchical.run_rounds`).
Either way it is one :class:`~repro.core.pairwise.PairwiseComputation`
keyword set on one engine, both built before the branch.  Returns the
merged elements together with the :class:`~repro.core.chooser.SchemeChoice`
so callers can log the decision trail.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .._util import GB, MB, TB, ceil_div
from ..mapreduce.runtime import choose_engine
from ..mapreduce.serialization import estimate_element_size
from .chooser import SchemeChoice, choose_scheme, route_payloads
from .element import Element
from .hierarchical import run_rounds
from .pairwise import PairwiseComputation
from .scheme import DistributionScheme


def _forced_choice(
    v: int,
    scheme: Any,
    *,
    element_size: int,
    maxws: int,
    num_nodes: int,
) -> SchemeChoice:
    """Build the (routed) SchemeChoice for an explicit ``scheme=`` override."""

    def routed(built: DistributionScheme, note: str = "") -> SchemeChoice:
        choice = SchemeChoice(built, [f"scheme forced by caller: {built.describe()}{note}"])
        return route_payloads(choice, element_size, maxws=maxws, num_nodes=num_nodes)

    if isinstance(scheme, DistributionScheme):
        if scheme.v != v:
            raise ValueError(
                f"supplied scheme is for v={scheme.v}, dataset has {v} elements"
            )
        return routed(scheme)
    name = str(scheme)
    if name == "broadcast":
        from .broadcast import BroadcastScheme

        built: DistributionScheme = BroadcastScheme(v, max(1, 2 * num_nodes))
    elif name == "block":
        from .block import BlockScheme

        h = min(v, max(1, ceil_div(2 * v * element_size, maxws)))
        built = BlockScheme(v, h)
    elif name == "design":
        from .design import DesignScheme

        built = DesignScheme(v, num_nodes=num_nodes)
    elif name == "quorum":
        from .quorum import QuorumScheme

        built = QuorumScheme(v)
    else:
        raise ValueError(
            f"unknown scheme family {name!r}: expected broadcast/block/"
            "design/quorum, or a DistributionScheme instance"
        )
    return routed(built, " (feasibility checks skipped)")


#: ``SchemeChoice.routing`` → the :class:`PairwiseComputation` preset that runs it
_PRESETS = {"one-job": "run_broadcast_job", "cache": "run_cached", "shuffle": "run"}


def auto_pairwise(
    dataset: Sequence[Any],
    comp: Callable[[Any, Any], Any],
    *,
    element_size: int | None = None,
    maxws: int = 200 * MB,
    maxis: int = 1 * TB,
    num_nodes: int = 8,
    aggregator=None,
    engine=None,
    symmetric: bool = True,
    auto_engine: bool = False,
    trace_sink=None,
    data_plane: str | None = None,
    journal_dir=None,
    threshold: float | None = None,
    top_k: int | None = None,
    pruning: str = "off",
    exact_fallback: bool = True,
    sketch_params=None,
    scheme: str | Any = None,
) -> tuple[dict[int, Element], SchemeChoice]:
    """Evaluate all pairs of ``dataset`` under an auto-chosen scheme.

    ``element_size`` defaults to a pickled-size estimate of the payloads;
    pass the real deployment size when simulating capacity decisions for
    data bigger than the in-process sample.

    ``scheme`` overrides the chooser: a family name (``"broadcast"`` /
    ``"block"`` / ``"design"`` / ``"quorum"``) builds that scheme with
    default parameters for v, or pass a ready
    :class:`~repro.core.scheme.DistributionScheme` instance (e.g. a
    skew-aware ``QuorumScheme(v, element_sizes=...)``) to use it as-is.
    Forced schemes skip the maxws/maxis feasibility analysis — the
    rationale records that.  Chosen or forced, a flat scheme runs on the
    payload route :func:`~repro.core.chooser.route_payloads` prices for
    it (``choice.routing``; the rationale's last line).

    ``auto_engine=True`` (``engine=None``) sizes the engine too, through
    the :func:`repro.mapreduce.runtime.choose_engine` crossover, keyed on
    the records one run pushes through the shuffle — a flat scheme's
    ``metrics().communication_records``, a schedule's peak round
    (``2 × replicas``); ``comp`` must then be picklable in case the
    multiprocess engine is selected.  ``trace_sink`` / ``data_plane`` /
    ``journal_dir`` configure the engine this call builds (pass them to your own ``engine`` instead when
    supplying one; ``data_plane`` and ``journal_dir`` additionally
    require ``auto_engine=True``, since only a pooled engine has a
    broadcast data plane to pick or a direct shuffle to journal —
    ``journal_dir`` forces the pooled engine regardless of scale).  The
    built engine is closed before returning, whichever branch ran.

    ``aggregator`` / ``symmetric`` / ``threshold`` / ``top_k`` /
    ``pruning`` / ``exact_fallback`` / ``sketch_params`` forward to
    :class:`PairwiseComputation` — the declarative objective plus
    sketch-based candidate pruning (DESIGN.md §3.1.7) — for a flat scheme
    and for every round of a schedule alike.  Without any engine a
    schedule runs in-process (``run_local`` per round: the objective
    applies, nothing is pruned).
    """
    if len(dataset) < 2:
        raise ValueError("pairwise computation needs at least two elements")
    engine_knobs = (trace_sink, data_plane, journal_dir)
    if engine is not None and any(knob is not None for knob in engine_knobs):
        raise ValueError(
            "pass trace_sink/data_plane/journal_dir to the engine itself "
            "when supplying an explicit engine"
        )
    if (data_plane is not None or journal_dir is not None) and not auto_engine:
        raise ValueError(
            "data_plane/journal_dir require auto_engine=True or an explicit engine"
        )
    if element_size is None:
        element_size = estimate_element_size(dataset)
    if scheme is None:
        choice = choose_scheme(
            len(dataset), element_size, maxws=maxws, maxis=maxis, num_nodes=num_nodes
        )
    else:
        choice = _forced_choice(
            len(dataset),
            scheme,
            element_size=element_size,
            maxws=maxws,
            num_nodes=num_nodes,
        )
    owned_engine = None
    if engine is None and (auto_engine or trace_sink is not None):
        records = None  # unknown workload: the serial engine, carrying the sink
        if auto_engine and choice.is_hierarchical:
            records = 2 * choice.scheme.peak_round_replicas()
        elif auto_engine:
            records = choice.scheme.metrics().communication_records
        engine = owned_engine = choose_engine(
            records,
            trace_sink=trace_sink,
            data_plane=data_plane,
            journal_dir=journal_dir,
        )
    options = dict(
        aggregator=aggregator,
        engine=engine,
        symmetric=symmetric,
        threshold=threshold,
        top_k=top_k,
        pruning=pruning,
        exact_fallback=exact_fallback,
        sketch_params=sketch_params,
    )
    try:
        if choice.is_hierarchical:
            merged = run_rounds(dataset, comp, choice.scheme, **options)
        else:
            computation = PairwiseComputation(choice.scheme, comp, **options)
            merged = getattr(computation, _PRESETS[choice.routing])(list(dataset))
    finally:
        if owned_engine is not None:
            owned_engine.close()
    return merged, choice
