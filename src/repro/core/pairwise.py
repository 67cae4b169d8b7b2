"""The generic parallel pairwise algorithm (paper §4, Algorithms 1 & 2).

Three execution paths, all driven by a :class:`DistributionScheme`:

1. :meth:`PairwiseComputation.run` — the faithful **two-MR-job** pipeline:

   - *Job 1* (Algorithm 1): the map phase calls ``getSubsets`` and emits a
     copy of each element per working set; the shuffle groups working
     sets onto reducers; each reducer calls ``getPairs``, evaluates them,
     attaches both orientations of every result (``addResult``), and
     re-emits the copies keyed by element id.
   - *Job 2* (Algorithm 2): identity map; the shuffle groups an element's
     copies; the reducer applies ``aggregateResults``.

2. :meth:`PairwiseComputation.run_broadcast_job` — the paper's optimized
   **one-job** form for the broadcast scheme: the dataset travels in the
   distributed cache, map tasks evaluate their label chunk, the single
   reduce phase aggregates per element.

3. :meth:`PairwiseComputation.run_cached` — the two-job pipeline with the
   payload store in the **distributed cache**: the shuffle routes element
   ids and partial result maps only, and a pooled engine broadcasts the
   store once per worker instead of once per task.  Works with *any*
   scheme (it generalizes the broadcast optimization's cache usage).

4. :meth:`PairwiseComputation.run_local` — the same three abstract steps
   without the MR machinery (fast in-process reference; tests compare the
   MR paths against it).

The pair function ``comp(payload_i, payload_j)`` must be symmetric (§1's
standing assumption) and picklable for the multiprocess engine.

**Kernels.**  The compute phases work one *block* at a time, not one pair:
each working set's pair relation becomes an ``(n, 2)`` index array once,
stays an array through pruner → :class:`~repro.kernels.PairKernel`
(``config["kernel"]``; ``None`` → the scalar kernel, bit-identical to the
historical loop; ``"auto"`` → registry selection from the pair function
and payload type) → :func:`scatter_results`, which hands every element its
results in one bulk ``addResult``.  ``run_local`` always evaluates scalar,
pair by pair — the reference the block paths are parity-tested against.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..kernels import pair_index_array, resolve_kernel
from ..mapreduce.job import Context, Job, Mapper, Reducer
from ..mapreduce.pipeline import Pipeline, PipelineResult
from ..mapreduce.runtime import Engine, MultiprocessEngine, SerialEngine
from ..mapreduce.serialization import record_size
from ..sketches import (
    DISTANCE_KINDS,
    PRUNING_MODES,
    PairPruner,
    ThresholdPruner,
    TopKPruner,
    build_sketches,
    build_topk_taus,
    sketch_kind_for_comp,
)
from .aggregate import (
    Aggregator,
    ConcatAggregator,
    ThresholdAggregator,
    TopKAggregator,
)
from .broadcast import BroadcastScheme
from .element import Element, results_matrix
from .scheme import DistributionScheme

PairFunction = Callable[[Any, Any], Any]

#: counter group for application-level metering
PAIRWISE_GROUP = "pairwise"
EVALUATIONS = "evaluations"
REPLICAS_EMITTED = "replicas_emitted"
MAX_WORKING_SET_RECORDS = "max_working_set_records"
MAX_WORKING_SET_BYTES = "max_working_set_bytes"
#: pairs dropped by the sketch pruner before kernel dispatch;
#: EVALUATIONS + PAIRS_PRUNED == v(v−1)/2 on every symmetric pruned run
PAIRS_PRUNED = "pairs_pruned"
#: sketch-suite footprint gauge (max across tasks; it is one shared object)
SKETCH_BYTES = "max_sketch_bytes"
#: survivors of a threshold pruner whose true score then failed the
#: threshold anyway — the bound's looseness, measured
PRUNE_FALSE_POSITIVES = "prune_false_positives"


class DistributeMapper(Mapper):
    """Algorithm 1's map: emit (working set, element copy) per getSubsets."""

    def map(self, key: Any, value: Element, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        for subset_id in scheme.get_subsets(value.eid):
            context.emit(subset_id, value.copy_without_results())
            context.counters.increment(PAIRWISE_GROUP, REPLICAS_EMITTED)


def _apply_pruner(block: np.ndarray, context: Context) -> np.ndarray:
    """Intersect a working set's pair block with the configured pruner.

    No-op without a ``config["pruner"]``.  The pruner and the sketch
    suite (``cache["sketches"]``) are both built driver-side before job
    submission, so the surviving rows are a pure function of the pair
    block — identical across workers, retries and speculative attempts.
    Meters ``PAIRS_PRUNED`` (the skipped evaluations) and the
    ``SKETCH_BYTES`` footprint gauge.
    """
    pruner: PairPruner | None = context.config.get("pruner")
    if pruner is None or len(block) == 0:
        return block
    suite = context.cache_file("sketches")
    context.counters.set_max(PAIRWISE_GROUP, SKETCH_BYTES, suite.nbytes)
    keep = pruner.keep_mask(suite, block)
    pruned = len(block) - int(np.count_nonzero(keep))
    if pruned:
        context.counters.increment(PAIRWISE_GROUP, PAIRS_PRUNED, pruned)
        block = block[keep]
    return block


def _meter_false_positives(forward: Sequence[Any], context: Context) -> None:
    """Count threshold-pruner survivors whose true score failed anyway."""
    pruner = context.config.get("pruner")
    threshold = getattr(pruner, "threshold", None)
    if threshold is None:
        return
    scores = np.asarray(forward, dtype=float)
    passed = scores < threshold if pruner.keep_below else scores > threshold
    misses = len(scores) - int(np.count_nonzero(passed))
    if misses:
        context.counters.increment(PAIRWISE_GROUP, PRUNE_FALSE_POSITIVES, misses)


def _evaluate_pairs(
    block: np.ndarray, payloads: Mapping[int, Any], context: Context
) -> tuple[list[Any], list[Any]]:
    """Evaluate one non-empty pair block through the configured kernel.

    Returns ``(forward, backward)`` lists of plain Python results aligned
    with the rows: ``forward[k] = comp(s_i, s_j)`` for row ``(i, j)``; with
    ``symmetric=True`` (the paper's standing assumption) ``backward`` *is*
    ``forward``, otherwise it is ``comp(s_j, s_i)`` (§1's "marginal
    modification").  Meters ``EVALUATIONS`` like the historical per-pair
    loop: one per pair, two when both orientations are computed.
    """
    sample = payloads[int(block[0, 0])]
    kernel = resolve_kernel(context.config.get("kernel"), context.config["comp"], sample)

    def evaluate(oriented: np.ndarray) -> list[Any]:
        values = kernel.evaluate_block(payloads, oriented)
        context.counters.increment(PAIRWISE_GROUP, EVALUATIONS, len(oriented))
        return values.tolist() if isinstance(values, np.ndarray) else values

    forward = evaluate(block)
    _meter_false_positives(forward, context)
    if context.config.get("symmetric", True):
        return forward, forward
    return forward, evaluate(block[:, ::-1])


def scatter_results(
    block: np.ndarray, forward: Sequence[Any], backward: Sequence[Any]
) -> Iterator[tuple[int, list[int], list[Any]]]:
    """Group a pair block's results by owning element (bulk ``addResult``).

    Row k = ``(i, j)`` gives ``i`` the entry ``j → forward[k]`` and ``j``
    the entry ``i → backward[k]``.  Yields ``(eid, partners, values)`` once
    per element, for :meth:`Element.add_results`; the stable sort keeps an
    element's entries in row order — the order the per-pair loop stored
    them.  Values travel as objects, so tuple results scatter like floats.
    """
    n = len(block)
    if n == 0:
        return
    values = np.empty(2 * n, dtype=object)
    values[0::2] = np.fromiter(forward, dtype=object, count=n)
    values[1::2] = np.fromiter(backward, dtype=object, count=n)
    order = np.argsort(block.ravel(), kind="stable")  # owners: i0, j0, i1, j1, …
    owners = block.ravel()[order]
    cuts = (np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist()
    starts = [0, *cuts]
    partners = block[:, ::-1].ravel()[order].tolist()
    values = values[order].tolist()
    for eid, lo, hi in zip(owners[starts].tolist(), starts, [*cuts, 2 * n]):
        yield eid, partners[lo:hi], values[lo:hi]


def _compute_block(
    pairs: Sequence[tuple[int, int]], payloads: Mapping[int, Any], context: Context
) -> Iterator[tuple[int, list[int], list[Any]]]:
    """One working set, block-granular: index once → prune → kernel → scatter."""
    block = _apply_pruner(pair_index_array(pairs), context)
    if len(block):
        yield from scatter_results(block, *_evaluate_pairs(block, payloads, context))


class ComputeReducer(Reducer):
    """Algorithm 1's reduce: getPairs, batch-evaluate, addResult both ways.

    The pair relation is materialized once and dispatched to the
    configured :mod:`repro.kernels` kernel (scalar by default — see
    :func:`_evaluate_pairs`).  With ``symmetric=False`` in the job config
    (the paper's "marginal modification" for non-symmetric evaluations,
    §1) each unordered pair is still *visited* once — the schemes
    guarantee that — but both orientations are computed: element i stores
    ``comp(sᵢ, sⱼ)`` and element j stores ``comp(sⱼ, sᵢ)``.
    """

    def setup(self, context: Context) -> None:
        # Element payloads are identical across the working sets a task
        # handles (copies share the payload, results are empty at compute
        # time), so each element's accounting size is measured once per
        # task instead of re-pickled on every reduce call.
        self._element_sizes: dict[int, int] = {}

    def _element_size(self, element: Element) -> int:
        size = self._element_sizes.get(element.eid)
        if size is None:
            size = record_size(element.eid, element)
            self._element_sizes[element.eid] = size
        return size

    def reduce(self, key: int, values: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        elements: dict[int, Element] = {}
        for element in values:
            if element.eid in elements:
                raise ValueError(
                    f"working set {key} received element {element.eid} twice"
                )
            elements[element.eid] = element
        member_ids = sorted(elements)
        # §6's measured quantity: the peak working set actually held by a
        # reduce task — records and (declared) bytes — as a max-gauge.
        context.counters.set_max(
            PAIRWISE_GROUP, MAX_WORKING_SET_RECORDS, len(elements)
        )
        context.counters.set_max(
            PAIRWISE_GROUP,
            MAX_WORKING_SET_BYTES,
            sum(self._element_size(el) for el in elements.values()),
        )
        payloads = {eid: el.payload for eid, el in elements.items()}
        pairs = scheme.get_pairs(key, member_ids)
        for eid, partners, results in _compute_block(pairs, payloads, context):
            elements[eid].add_results(partners, results)
        for eid in member_ids:
            context.emit(eid, elements[eid])


class AggregateReducer(Reducer):
    """Algorithm 2's reduce: fuse all copies of one element."""

    def reduce(self, key: int, values: Any, context: Context) -> None:
        aggregator: Aggregator = context.config["aggregator"]
        context.emit(key, aggregator(list(values)))


class CachedDistributeMapper(Mapper):
    """Algorithm 1's map for cache-resident payloads: emit ids only.

    When the dataset rides the distributed cache (broadcast once per
    worker by a pooled engine), the shuffle only needs to route element
    *ids* into working sets — the replication cost drops from
    ``b·k`` payload copies to ``b·k`` integers.
    """

    def map(self, key: int, value: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        for subset_id in scheme.get_subsets(key):
            context.emit(subset_id, key)
            context.counters.increment(PAIRWISE_GROUP, REPLICAS_EMITTED)


class CachedComputeReducer(Reducer):
    """Algorithm 1's reduce against the cached payload store.

    Same pair relation and orientation semantics as
    :class:`ComputeReducer`; emits per-element *partial result maps*
    (partner id → result) instead of full element copies.
    """

    def setup(self, context: Context) -> None:
        # The payload store is immutable for the task's lifetime, so each
        # element's size is measured once even when getSubsets places it
        # in many of the task's working sets.
        self._payload_sizes: dict[int, int] = {}

    def _payload_size(self, eid: int, payloads: Mapping[int, Any]) -> int:
        size = self._payload_sizes.get(eid)
        if size is None:
            size = record_size(eid, payloads[eid])
            self._payload_sizes[eid] = size
        return size

    def reduce(self, key: int, values: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        payloads: Mapping[int, Any] = context.cache_file("dataset")
        seen: set[int] = set()
        for eid in values:
            if eid in seen:
                raise ValueError(
                    f"working set {key} received element {eid} twice"
                )
            seen.add(eid)
        member_ids = sorted(seen)
        partials: dict[int, dict[int, Any]] = {eid: {} for eid in member_ids}
        context.counters.set_max(
            PAIRWISE_GROUP, MAX_WORKING_SET_RECORDS, len(member_ids)
        )
        context.counters.set_max(
            PAIRWISE_GROUP,
            MAX_WORKING_SET_BYTES,
            sum(self._payload_size(eid, payloads) for eid in member_ids),
        )
        pairs = scheme.get_pairs(key, member_ids)
        for eid, partners, results in _compute_block(pairs, payloads, context):
            partials[eid] = dict(zip(partners, results))
        for eid in member_ids:
            context.emit(eid, partials[eid])


class CachedAggregateReducer(Reducer):
    """Algorithm 2's reduce for the cached variant: fuse partial maps.

    Rebuilds the element from the cached payload store and folds every
    working set's partial result map into it; duplicate pairs still raise
    through :meth:`Element.add_results` (the exactly-once guarantee).

    An aggregator may declare ``needs_payload = False`` (e.g.
    :class:`~repro.core.aggregate.ReduceAggregator`, a pure fold over
    result values): the payload lookup is then skipped and the output
    elements are payload-free — the aggregate phase never touches the
    cached store at all.
    """

    def reduce(self, key: int, values: Any, context: Context) -> None:
        aggregator: Aggregator = context.config["aggregator"]
        if getattr(aggregator, "needs_payload", True):
            payloads: Mapping[int, Any] = context.cache_file("dataset")
            element = Element(key, payloads[key])
        else:
            element = Element(key)
        for partial in filter(None, values):  # pruned joins leave most partial maps empty
            element.add_results(partial.keys(), partial.values())
        context.emit(key, aggregator([element]))


class BroadcastPairMapper(Mapper):
    """One-job broadcast map: evaluate a task's label chunk from the cache.

    Input records are ``(task_id, None)`` descriptors; the dataset comes
    from the distributed cache as ``{eid: payload}``.  Emits partial
    results keyed by element id — both orientations, like addResult.
    """

    def map(self, key: int, value: Any, context: Context) -> None:
        scheme: BroadcastScheme = context.config["scheme"]
        payloads: Mapping[int, Any] = context.cache_file("dataset")
        for eid, partners, results in _compute_block(scheme.get_pairs(key), payloads, context):
            for record in zip(partners, results):
                context.emit(eid, record)


class BroadcastAggregateReducer(Reducer):
    """One-job broadcast reduce: rebuild the element, aggregate its results."""

    def reduce(self, key: int, values: Any, context: Context) -> None:
        aggregator: Aggregator = context.config["aggregator"]
        payloads: Mapping[int, Any] = context.cache_file("dataset")
        element = Element(key, payloads[key])
        element.add_results(*zip(*values))
        context.emit(key, aggregator([element]))


class PairwiseComputation:
    """End-to-end pairwise evaluation under a distribution scheme.

    Parameters
    ----------
    scheme:
        Any :class:`DistributionScheme`; its ``v`` must equal the dataset
        cardinality passed to the run methods.
    comp:
        Symmetric pair function over element payloads.  Must be defined at
        module level (picklable) to use :class:`MultiprocessEngine`.
    aggregator:
        ``aggregateResults`` strategy; default concatenates partial maps
        and treats duplicate evaluations as errors.
    engine:
        MapReduce engine; default :class:`SerialEngine`.
    num_reduce_tasks:
        Reducer parallelism for both jobs (default: a reducer per 8 tasks,
        at least 1 — working sets are spread over reducers like Hadoop
        spreads partitions over reduce slots).
    symmetric:
        ``True`` (the paper's standing assumption): one evaluation serves
        both elements of a pair.  ``False``: ``comp`` is order-sensitive
        and both orientations are evaluated — element i receives
        ``comp(sᵢ, sⱼ)``, element j receives ``comp(sⱼ, sᵢ)`` (the §1
        footnote's "marginal modification").
    kernel:
        Batch pair-evaluation strategy for the compute phases (see
        :mod:`repro.kernels`).  ``None`` (default) evaluates through the
        scalar kernel — bit-identical to the historical per-pair loop;
        ``"auto"`` selects a vectorized kernel from the pair function's
        registry binding and the payload type (scalar fallback when
        nothing matches); a kernel name or :class:`~repro.kernels.PairKernel`
        instance forces that kernel.  Vectorized kernels match
        :meth:`run_local` within float tolerance, not bit-for-bit.
    runtime_config:
        Extra ``job.config`` entries merged into every job this
        computation builds — the pass-through for the engine's
        fault-tolerance knobs (``task_timeout_seconds``,
        ``speculative_execution``, ``fault_plan``, …; see
        :class:`~repro.mapreduce.job.Job`).  Application keys
        (``scheme``/``comp``/``aggregator``/``symmetric``) always win.
    max_attempts:
        Task retry budget applied to every job built here (Hadoop's
        ``mapred.map.max.attempts``); default 1, i.e. fail fast.
    scheduling_policy, trace_sink:
        Control-plane knobs forwarded to the engine this computation
        builds when ``engine`` is not supplied (see
        :class:`~repro.mapreduce.runtime.Engine`).  Passing either
        together with an explicit ``engine`` raises — configure the
        engine directly in that case.
    data_plane:
        Broadcast data plane when this computation builds its own engine:
        a non-``None`` value (``"default"`` or ``"shm"``) builds an owned
        :class:`~repro.mapreduce.runtime.MultiprocessEngine` with that
        plane (``"shm"`` shares the cached payload store once per machine
        — the natural pairing with :meth:`run_cached` /
        :meth:`run_broadcast_job`).  Raises with an explicit ``engine``,
        like the other engine-construction knobs.  Close the owned engine
        with :meth:`close` (the computation is a context manager).
    journal_dir:
        Durable job journal directory when this computation builds its
        own engine: a non-``None`` value builds an owned journaled
        :class:`~repro.mapreduce.runtime.MultiprocessEngine`, so a
        driver killed mid-computation can be resumed with
        :func:`repro.mapreduce.journal.resume_job`.  Composes with
        ``data_plane``; raises with an explicit ``engine``, like the
        other engine-construction knobs.
    threshold, top_k:
        Declarative objective (mutually exclusive): keep only results
        passing ``threshold``, or each element's ``top_k`` best.  The
        matching aggregator is built automatically — a
        :class:`~repro.core.aggregate.ThresholdAggregator` /
        :class:`~repro.core.aggregate.TopKAggregator` oriented by the
        comp's registered sketch kind (distances keep below / smallest,
        similarities above / largest; see
        :func:`repro.sketches.register_sketch`) — so passing an explicit
        ``aggregator`` alongside either knob raises.  Declaring the
        objective is what lets ``pruning="sketch"`` skip evaluations.
    pruning:
        ``"off"`` (default) evaluates every pair; ``"sketch"`` builds a
        :class:`~repro.sketches.SketchSuite` driver-side, ships it in
        the distributed cache, and drops pairs whose bounds prove they
        cannot pass the objective *before* kernel dispatch (requires
        ``symmetric=True`` and a sketch-registered comp); ``"exact"``
        names the reference arm — every pair evaluated, the objective
        applied in aggregation only (identical to ``"off"`` plus an
        objective; benches compare ``"sketch"`` against it).
    exact_fallback:
        ``True`` (default) restricts pruning to **sound** bounds: the
        pruned output is identical to the unpruned run (DESIGN.md
        §3.1.7's recall proof).  ``False`` additionally prunes on the
        MinHash overlap estimate with a safety ``margin``
        (``sketch_params``) — more pruning, recall no longer guaranteed.
    sketch_params:
        Extra keyword arguments for the sketch builders (``num_buckets``,
        ``proj_dim``, ``seed``, …) plus ``margin`` for estimate mode.
    """

    def __init__(
        self,
        scheme: DistributionScheme,
        comp: PairFunction,
        *,
        aggregator: Aggregator | None = None,
        engine: Engine | None = None,
        num_reduce_tasks: int | None = None,
        symmetric: bool = True,
        kernel: Any = None,
        runtime_config: Mapping[str, Any] | None = None,
        max_attempts: int = 1,
        scheduling_policy: Any = None,
        trace_sink: Any = None,
        data_plane: str | None = None,
        journal_dir: Any = None,
        threshold: float | None = None,
        top_k: int | None = None,
        pruning: str = "off",
        exact_fallback: bool = True,
        sketch_params: Mapping[str, Any] | None = None,
    ):
        self.scheme = scheme
        self.comp = comp
        self.symmetric = symmetric
        self.kernel = kernel
        if pruning not in PRUNING_MODES:
            raise ValueError(
                f"pruning must be one of {PRUNING_MODES}, got {pruning!r}"
            )
        if threshold is not None and top_k is not None:
            raise ValueError("threshold and top_k are mutually exclusive")
        if pruning != "off" and threshold is None and top_k is None:
            raise ValueError(
                f"pruning={pruning!r} needs a threshold= or top_k= objective"
            )
        self.threshold = threshold
        self.top_k = top_k
        self.pruning = pruning
        self.exact_fallback = exact_fallback
        self.sketch_params = dict(sketch_params or {})
        self._sketch_kind: str | None = None
        if threshold is not None or top_k is not None:
            if aggregator is not None:
                raise ValueError(
                    "threshold=/top_k= build their own aggregator; drop the "
                    "explicit aggregator (or apply the objective yourself)"
                )
            kind = sketch_kind_for_comp(comp)
            if kind is None:
                raise ValueError(
                    f"{getattr(comp, '__name__', comp)!r} has no registered "
                    "sketch kind, so the objective's orientation is unknown; "
                    "call repro.sketches.register_sketch(comp, kind) or pass "
                    "an explicit aggregator without threshold=/top_k="
                )
            keep_below = kind in DISTANCE_KINDS
            if pruning == "sketch":
                if not symmetric:
                    raise ValueError(
                        "sketch pruning requires symmetric=True (one sound "
                        "decision must cover both orientations)"
                    )
                if top_k is not None and not keep_below:
                    raise NotImplementedError(
                        "top-k pruning is implemented for distance sketches "
                        f"only; {kind!r} is a similarity kind"
                    )
                self._sketch_kind = kind
            if threshold is not None:
                aggregator = ThresholdAggregator(threshold, keep_below=keep_below)
            else:
                aggregator = TopKAggregator(top_k, smallest=keep_below)
        self.aggregator = aggregator or ConcatAggregator()
        if engine is not None and (
            scheduling_policy is not None
            or trace_sink is not None
            or data_plane is not None
            or journal_dir is not None
        ):
            raise ValueError(
                "pass scheduling_policy/trace_sink/data_plane/journal_dir to "
                "the engine itself when supplying an explicit engine"
            )
        self._owns_engine = engine is None
        if engine is not None:
            self.engine = engine
        elif data_plane is not None or journal_dir is not None:
            self.engine = MultiprocessEngine(
                data_plane=data_plane or "default",
                scheduling_policy=scheduling_policy,
                trace_sink=trace_sink,
                journal_dir=journal_dir,
            )
        else:
            self.engine = SerialEngine(
                scheduling_policy=scheduling_policy, trace_sink=trace_sink
            )
        if num_reduce_tasks is None:
            num_reduce_tasks = max(1, scheme.num_tasks // 8)
        if num_reduce_tasks < 1:
            raise ValueError(f"num_reduce_tasks must be >= 1, got {num_reduce_tasks}")
        self.num_reduce_tasks = num_reduce_tasks
        self.runtime_config = dict(runtime_config or {})
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts

    def _job_config(self) -> dict[str, Any]:
        """Runtime knobs first, application keys on top (apps win)."""
        return {
            **self.runtime_config,
            "scheme": self.scheme,
            "comp": self.comp,
            "aggregator": self.aggregator,
            "symmetric": self.symmetric,
            "kernel": self.kernel,
        }

    def _build_pruning(
        self, payloads: Mapping[int, Any]
    ) -> tuple[Any, PairPruner] | None:
        """Sketch suite + pruner for one run, or None when pruning is off.

        Built driver-side exactly once per run and shipped through the
        distributed cache / job config, so every task attempt — retries
        and speculative launches included — prunes against the same
        frozen state.
        """
        if self.pruning != "sketch":
            return None
        params = {
            key: value
            for key, value in self.sketch_params.items()
            if key != "margin"
        }
        if (
            self._sketch_kind == "sparse-cosine"
            and self.exact_fallback
            and "num_hashes" not in params
        ):
            # Sound mode never consults MinHash; skip the signature build.
            params["num_hashes"] = 0
        suite = build_sketches(payloads, self._sketch_kind, **params)
        if self.top_k is not None:
            pruner: PairPruner = TopKPruner(
                self.top_k, build_topk_taus(suite, self.top_k)
            )
        else:
            pruner = ThresholdPruner(
                self.threshold,
                keep_below=self._sketch_kind in DISTANCE_KINDS,
                estimate=not self.exact_fallback,
                margin=self.sketch_params.get("margin", 0.15),
            )
        return suite, pruner

    def _meter_replication(
        self, counters: Any, elements: Sequence[Element], *, legs: int
    ) -> None:
        """Record achieved-vs-bound replication after a pipeline completes.

        Sets the three :class:`~repro.mapreduce.stats.EngineStats`
        replication meters (pooled engines only — the serial engine has
        no stats object) and emits a
        :class:`~repro.mapreduce.controlplane.events.ReplicationMeasured`
        event on the engine's bus, which the JSONL trace sink serializes
        like every other event.  ``legs`` is how many shuffle legs the
        executed path has (2 for the two-job pipelines, 1 for the one-job
        broadcast form); the byte floor scales with it.  Cached runs
        shuffle ids instead of payloads, so their ``shuffle_bytes_vs_bound``
        dropping far below 1.0 is the meter showing the cache optimization
        beating the naive payload-shuffle floor.
        """
        report_hook = getattr(self.scheme, "replication_report", None)
        if report_hook is None:
            return  # ad-hoc schemes (hierarchical round wrappers) aren't metered
        report = report_hook()
        v = self.scheme.v
        replicas = counters.get(PAIRWISE_GROUP, REPLICAS_EMITTED)
        achieved = replicas / v if replicas else report.replication_achieved
        bound = report.replication_lower_bound
        from ..mapreduce.counters import FRAMEWORK_GROUP, SHUFFLE_BYTES

        shuffle_bytes = counters.get(FRAMEWORK_GROUP, SHUFFLE_BYTES)
        from .runner import estimate_element_size  # local import avoids cycle

        element_size = estimate_element_size([el.payload for el in elements])
        floor = legs * report.shuffle_bytes_floor(element_size)
        vs_bound = shuffle_bytes / floor if floor and shuffle_bytes else 0.0
        stats = getattr(self.engine, "stats", None)
        if stats is not None:
            stats.replication_factor_achieved = achieved
            stats.replication_lower_bound = bound
            stats.shuffle_bytes_vs_bound = vs_bound
        events = getattr(self.engine, "events", None)
        if events is not None:
            from ..mapreduce.controlplane.events import ReplicationMeasured

            events.emit(
                ReplicationMeasured(
                    time=time.monotonic(),
                    scheme=self.scheme.name,
                    v=v,
                    capacity_elements=report.capacity_elements,
                    replication_achieved=achieved,
                    replication_lower_bound=bound,
                    optimality_ratio=achieved / bound,
                    shuffle_bytes=shuffle_bytes,
                    shuffle_bytes_floor=floor,
                    shuffle_bytes_vs_bound=vs_bound,
                )
            )

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close the engine this computation built (noop for a supplied one)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "PairwiseComputation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- input handling --------------------------------------------------------
    def _as_elements(self, dataset: Sequence[Any]) -> list[Element]:
        """Accept Elements or raw payloads; enforce ids 1..v and v == scheme.v."""
        if len(dataset) != self.scheme.v:
            raise ValueError(
                f"dataset has {len(dataset)} elements but the scheme was "
                f"built for v={self.scheme.v}"
            )
        if dataset and isinstance(dataset[0], Element):
            elements = list(dataset)  # type: ignore[arg-type]
            ids = sorted(element.eid for element in elements)
            if ids != list(range(1, len(elements) + 1)):
                raise ValueError(
                    "element ids must be exactly 1..v; "
                    f"got min={ids[0]}, max={ids[-1]}, count={len(ids)}"
                )
            return elements
        return [Element(i + 1, payload) for i, payload in enumerate(dataset)]

    # -- execution paths --------------------------------------------------------
    def build_jobs(self) -> tuple[Job, Job]:
        """The two MR jobs of the generic algorithm (for inspection/chaining)."""
        config = self._job_config()
        job1 = Job(
            name="pairwise-distribute-compute",
            mapper=DistributeMapper,
            reducer=ComputeReducer,
            num_reducers=self.num_reduce_tasks,
            config=config,
            max_attempts=self.max_attempts,
        )
        job2 = Job(
            name="pairwise-aggregate",
            reducer=AggregateReducer,
            num_reducers=self.num_reduce_tasks,
            config=config,
            max_attempts=self.max_attempts,
        )
        return job1, job2

    def run(
        self,
        dataset: Sequence[Any],
        *,
        num_map_tasks: int | None = None,
        return_pipeline: bool = False,
    ) -> dict[int, Element] | tuple[dict[int, Element], PipelineResult]:
        """Run the faithful two-job pipeline; returns ``{eid: Element}``.

        ``return_pipeline=True`` additionally returns the
        :class:`PipelineResult` with per-stage counters (shuffle volume,
        evaluations — the measured Table-1 quantities); it also disables
        stage fusion so every stage's records are materialized for
        inspection.  Without it, a direct-shuffle engine fuses Job 1's
        reduce into Job 2's (identity) map — same merged elements, no
        driver round-trip for the intermediate copies.
        """
        elements = self._as_elements(dataset)
        job1, job2 = self.build_jobs()
        pruning = self._build_pruning(
            {element.eid: element.payload for element in elements}
        )
        if pruning is not None:
            suite, pruner = pruning
            job1.config = {**job1.config, "pruner": pruner}
            job1.cache = {**job1.cache, "sketches": suite}
        pipeline = Pipeline([job1, job2], engine=self.engine)
        input_records = [(element.eid, element) for element in elements]
        result = pipeline.run(
            input_records,
            num_map_tasks=num_map_tasks,
            fuse=False if return_pipeline else None,
        )
        self._meter_replication(result.counters, elements, legs=2)
        merged = {key: value for key, value in result.records}
        if return_pipeline:
            return merged, result
        return merged

    def run_cached(
        self,
        dataset: Sequence[Any],
        *,
        num_map_tasks: int | None = None,
        return_pipeline: bool = False,
    ) -> dict[int, Element] | tuple[dict[int, Element], PipelineResult]:
        """Two-job pipeline with the payload store in the distributed cache.

        Semantically identical to :meth:`run` (same pair relation, same
        merged elements), but element payloads never flow through the
        shuffle: both jobs attach ``{eid: payload}`` to the distributed
        cache, Job 1 shuffles bare ids into working sets and emits partial
        result maps, Job 2 rebuilds each element from the store.  On a
        :class:`~repro.mapreduce.runtime.MultiprocessEngine` the store is
        broadcast **once per worker per job** instead of once per task —
        the dispatch-cost profile the engine-scaling bench measures.
        """
        elements = self._as_elements(dataset)
        payloads = {element.eid: element.payload for element in elements}
        cache = {"dataset": payloads}
        config = self._job_config()
        pruning = self._build_pruning(payloads)
        if pruning is not None:
            suite, pruner = pruning
            # Same cache dict for both jobs → one broadcast / shm segment.
            cache["sketches"] = suite
            config = {**config, "pruner": pruner}
        job1 = Job(
            name="pairwise-distribute-compute-cached",
            mapper=CachedDistributeMapper,
            reducer=CachedComputeReducer,
            num_reducers=self.num_reduce_tasks,
            cache=cache,
            config=config,
            max_attempts=self.max_attempts,
        )
        job2 = Job(
            name="pairwise-aggregate-cached",
            reducer=CachedAggregateReducer,
            num_reducers=self.num_reduce_tasks,
            cache=cache,
            config=config,
            max_attempts=self.max_attempts,
        )
        pipeline = Pipeline([job1, job2], engine=self.engine)
        input_records = [(element.eid, None) for element in elements]
        result = pipeline.run(
            input_records,
            num_map_tasks=num_map_tasks,
            fuse=False if return_pipeline else None,
        )
        self._meter_replication(result.counters, elements, legs=2)
        merged = {key: value for key, value in result.records}
        if return_pipeline:
            return merged, result
        return merged

    def run_broadcast_job(
        self,
        dataset: Sequence[Any],
        *,
        return_result: bool = False,
    ):
        """The broadcast scheme's one-job optimization (paper §5.1).

        Requires a :class:`BroadcastScheme`; the dataset is attached to the
        distributed cache and map tasks do the evaluations directly.
        """
        if not isinstance(self.scheme, BroadcastScheme):
            raise TypeError(
                "run_broadcast_job requires a BroadcastScheme, got "
                f"{type(self.scheme).__name__}"
            )
        elements = self._as_elements(dataset)
        payloads = {element.eid: element.payload for element in elements}
        cache = {"dataset": payloads}
        config = self._job_config()
        pruning = self._build_pruning(payloads)
        if pruning is not None:
            suite, pruner = pruning
            cache["sketches"] = suite
            config = {**config, "pruner": pruner}
        job = Job(
            name="pairwise-broadcast",
            mapper=BroadcastPairMapper,
            reducer=BroadcastAggregateReducer,
            num_reducers=self.num_reduce_tasks,
            cache=cache,
            config=config,
            max_attempts=self.max_attempts,
        )
        # One input record per task; one split per task mirrors Hadoop's
        # one-mapper-per-task launch of the paper's implementation.
        task_records = [(task, None) for task in range(self.scheme.num_tasks)]
        result = self.engine.run(job, task_records, num_map_tasks=self.scheme.num_tasks)
        self._meter_replication(result.counters, elements, legs=1)
        merged = {key: value for key, value in result.records}
        if return_result:
            return merged, result
        return merged

    def run_local(self, dataset: Sequence[Any]) -> dict[int, Element]:
        """In-process reference: same three steps, no MR framework.

        Step 1 builds the working sets, step 2 evaluates each pair relation
        on copies, step 3 merges copies per element — exactly the semantics
        of the two-job pipeline, minus serialization.  Pruning is never
        applied here: this is the reference every pruned path is compared
        against (the threshold/top-k objective still applies, through the
        aggregator).
        """
        elements = self._as_elements(dataset)
        by_id = {element.eid: element for element in elements}
        copies: dict[int, list[Element]] = {eid: [] for eid in by_id}

        for subset_id, member_ids in self.scheme.iter_subsets():
            local = {eid: by_id[eid].copy_without_results() for eid in member_ids}
            for i, j in self.scheme.get_pairs(subset_id, member_ids):
                result = self.comp(local[i].payload, local[j].payload)
                local[i].add_result(j, result)
                if self.symmetric:
                    local[j].add_result(i, result)
                else:
                    local[j].add_result(i, self.comp(local[j].payload, local[i].payload))
            for eid, copy in local.items():
                copies[eid].append(copy)

        merged: dict[int, Element] = {}
        for eid, element_copies in copies.items():
            if element_copies:
                merged[eid] = self.aggregator(element_copies)
            else:  # element in no working set (can't happen for valid schemes)
                merged[eid] = self.aggregator([by_id[eid].copy_without_results()])
        return merged


def pairwise_results(
    dataset: Sequence[Any],
    comp: PairFunction,
    scheme: DistributionScheme,
    **kwargs: Any,
) -> dict[tuple[int, int], Any]:
    """Convenience: run the two-job pipeline and return the flat pair map.

    Returns ``{(i, j): comp(s_i, s_j)}`` with i > j, 1-indexed ids.
    """
    computation = PairwiseComputation(scheme, comp, **kwargs)
    merged = computation.run(dataset)
    return results_matrix(merged)


def brute_force_results(
    dataset: Sequence[Any], comp: PairFunction
) -> dict[tuple[int, int], Any]:
    """Single-machine reference: evaluate all pairs directly (for tests)."""
    out: dict[tuple[int, int], Any] = {}
    for i in range(2, len(dataset) + 1):
        for j in range(1, i):
            out[(i, j)] = comp(dataset[i - 1], dataset[j - 1])
    return out


def brute_force_asymmetric(
    dataset: Sequence[Any], comp: PairFunction
) -> dict[tuple[int, int], Any]:
    """Reference for non-symmetric ``comp``: all *ordered* pairs i ≠ j."""
    out: dict[tuple[int, int], Any] = {}
    v = len(dataset)
    for i in range(1, v + 1):
        for j in range(1, v + 1):
            if i != j:
                out[(i, j)] = comp(dataset[i - 1], dataset[j - 1])
    return out
