"""The generic parallel pairwise algorithm (paper §4, Algorithms 1 & 2).

One idea — a mapping schema ``(D, P)`` (a :class:`DistributionScheme`)
driven through *distribute → compute → aggregate* — and one executor,
:meth:`PairwiseComputation._execute`, that runs it.  The public run
methods are presets: each names a plan row and nothing else.

===================== ========================================== ======== ====================== ==== =========
preset                stages (map → reduce)                      payloads leg 1 carries          legs routing
===================== ========================================== ======== ====================== ==== =========
``run``               ``DistributeMapper`` → ``ComputeReducer``; shuffle  blocks of ids +        2    shuffle
                      identity → ``AggregateReducer``                     payload references
``run_cached``        ``DistributeMapper`` →                     cache    blocks of ids          2    cache
                      ``CachedComputeReducer``; identity →
                      ``CachedAggregateReducer``
``run_broadcast_job`` ``BroadcastPairMapper`` →                  cache    partial result maps    1    one-job
                      ``CachedAggregateReducer``                          (its only leg)
===================== ========================================== ======== ====================== ==== =========

*Stages* are the plan's MR jobs in chain order (``;`` separates jobs; the
job ``name`` strings are in :data:`_SHUFFLE_PLAN`, :data:`_CACHED_PLAN` and
:data:`_ONE_JOB_PLAN`).  *Payloads* says whether element payloads travel in
the shuffle or sit in the distributed cache as ``{eid: payload}``.  *Leg 1
carries* is what crosses the first shuffle: the distribute map ships
working sets, not records — one :class:`WorkingSetBlock` per (map task,
working set), keyed by subset id — so leg 1 counts ``map tasks × working
sets reached`` records while ``REPLICAS_EMITTED`` still counts the ``v·r``
memberships; the input records are ``(eid, Element)``, ``(eid, None)`` and
one ``(task, None)`` descriptor per task (a split each).  *Legs* is the
number of shuffles crossed.  *Routing* is the
:attr:`~repro.core.chooser.SchemeChoice.routing` value under which
:func:`~repro.core.runner.auto_pairwise` picks the row.  Everything else —
dataset normalisation, job construction, pruner / sketch attach, the
:class:`~repro.mapreduce.pipeline.Pipeline` run, replication metering and
the result map — happens once, in the executor.

**Payloads travel once.**  Whatever the row, an aggregator that declares
``needs_payload = False`` (every built-in one) never sees a payload, so
the executor sets ``config["results_only"]``: the compute phase emits
``Element(eid, None, results)``, only the compute job gets the payload
store, and the driver re-attaches the payloads it already holds — leg 2,
the fused hand-over and the pool → driver result pickle carry results
only.  :meth:`PairwiseComputation.build_jobs` never sets the key, so
hand-chained jobs keep writing payload-carrying elements.

- ``run`` is the faithful **two-MR-job** pipeline.  *Job 1* (Algorithm 1):
  the map phase calls ``getSubsets`` per element and emits, per working
  set, the block of its members this map task holds; the shuffle groups
  working sets onto reducers; each reducer admits the blocks
  (:func:`_admit_working_set`), calls ``getPairs``, evaluates them,
  attaches both orientations of every result (``addResult``) to one copy
  per member, and emits the copies keyed by element id.
  *Job 2* (Algorithm 2): identity map; the shuffle groups an element's
  copies; the reducer applies ``aggregateResults``.
- ``run_cached`` is the same two jobs with the payload store
  ``{eid: payload}`` in the **distributed cache**: the shuffle routes
  id blocks and partial result maps only, and a pooled engine broadcasts
  the store once per worker instead of once per task.  Works with *any*
  scheme (it generalizes the broadcast optimization's cache usage).
- ``run_broadcast_job`` is the paper's optimized **one-job** form for the
  broadcast scheme (§5.1) — the same steps folded into a single job: map
  tasks evaluate their label chunk against the cached store and emit the
  partial result maps ``run_cached``'s compute phase emits; the single
  reduce phase aggregates per element.

:meth:`PairwiseComputation.run_local` is not a plan: it is the same three
abstract steps without the MR machinery (fast in-process reference; tests
compare every preset against it).

The pair function ``comp(payload_i, payload_j)`` must be symmetric (§1's
standing assumption) and picklable for the multiprocess engine.

**Kernels.**  The compute phases work one *block* at a time, not one pair:
the two compute reducers admit a working set's payloads as one
:class:`~repro.kernels.WorkingSetStore` (a ``dict`` that stacks its rows
once for the kernels that want a matrix), its pair relation becomes an
``(n, 2)`` index array once,
stays an array through pruner → :class:`~repro.kernels.PairKernel`
(``config["kernel"]``; ``None`` → the scalar kernel, bit-identical to the
historical loop; ``"auto"`` → registry selection from the pair function
and payload type) → :func:`scatter_results`, which hands every element its
results in one bulk ``addResult``.  ``run_local`` always evaluates scalar,
pair by pair — the reference the block paths are parity-tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..kernels import WorkingSetStore, pair_index_array, resolve_kernel
from ..mapreduce.controlplane.events import ReplicationMeasured
from ..mapreduce.counters import FRAMEWORK_GROUP, SHUFFLE_BYTES
from ..mapreduce.job import Context, IdentityMapper, Job, Mapper, Reducer
from ..mapreduce.pipeline import Pipeline, PipelineResult
from ..mapreduce.runtime import Engine, SerialEngine
from ..mapreduce.serialization import estimate_element_size, record_size
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
#: pairs dropped by the sketch pruner before kernel dispatch; EVALUATIONS +
#: PAIRS_PRUNED == |the scheme's required pairs| on every symmetric pruned run
PAIRS_PRUNED = "pairs_pruned"
#: sketch-suite footprint gauge (max across tasks; it is one shared object)
SKETCH_BYTES = "max_sketch_bytes"
#: survivors of a threshold pruner whose true score then failed the
#: threshold anyway — the bound's looseness, measured
PRUNE_FALSE_POSITIVES = "prune_false_positives"


@dataclass(slots=True, eq=False)
class WorkingSetBlock:
    """One map task's share of one working set: the leg-1 shuffle value.

    ``ids`` lists the members this map task saw, in input order, as
    Python ``int``s (two or three pickled bytes each — an id array's
    out-of-band frame costs more than that per block); ``payloads`` holds *references* to their payload objects in the
    same order (``None`` on the cached plan, where the shuffle routes ids
    only) — references, not a stacked copy, so a payload that lands in
    several blocks of one spill chunk is still written once (pickle's
    memo).  ``size_bytes`` is the block's accounted size, which
    :func:`~repro.mapreduce.serialization.record_size` takes as stated:
    8 B per id plus each payload's own size, never more than the
    per-member records the block stands for.
    """

    ids: list[int]
    payloads: list[Any] | None
    size_bytes: int


class DistributeMapper(Mapper):
    """Algorithm 1's map: one :class:`WorkingSetBlock` per working set reached.

    ``getSubsets`` is called per input record and the memberships are
    buffered; ``cleanup`` emits, per working set, what this map task has
    for it.  An ``(eid, Element)`` record carries its payload through the
    shuffle, sized once per map task however many working sets it joins;
    an ``(eid, None)`` record says the payload rides the distributed cache
    (broadcast once per worker by a pooled engine), so the shuffle only
    routes the bare *id* — the replication cost drops from ``b·k`` payload
    copies to ``b·k`` integers.  ``REPLICAS_EMITTED`` counts memberships
    either way.
    """

    def setup(self, context: Context) -> None:
        self._members: dict[int, list[int]] = {}  # subset id → member ids, input order
        self._payloads: dict[int, tuple[Any, int]] = {}  # eid → (payload, accounted bytes)

    def map(self, key: int, value: Element | None, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        if value is None:
            eid = key
        else:
            eid = value.eid
            self._payloads[eid] = (value.payload, record_size(eid, value.payload))
        subsets = scheme.get_subsets(eid)
        for subset_id in subsets:
            self._members.setdefault(subset_id, []).append(eid)
        context.counters.increment(PAIRWISE_GROUP, REPLICAS_EMITTED, len(subsets))

    def cleanup(self, context: Context) -> None:
        carried = self._payloads
        for subset_id, members in self._members.items():
            if carried:
                payloads, sizes = zip(*(carried[eid] for eid in members))
                block = WorkingSetBlock(members, list(payloads), sum(sizes))
            else:
                block = WorkingSetBlock(members, None, 8 * len(members))
            context.emit(subset_id, block)


def _apply_pruner(block: np.ndarray, context: Context) -> np.ndarray:
    """Intersect a working set's pair block with the configured pruner.

    No-op without a ``config["pruner"]``.  The pruner and the sketch
    suite (``cache["sketches"]``) are both built driver-side before job
    submission, so the surviving rows are a pure function of the pair
    block — identical across workers and retries.
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


def _admit_working_set(
    key: int,
    blocks: Iterable[WorkingSetBlock],
    context: Context,
    store: Mapping[int, Any] | None = None,
) -> WorkingSetStore:
    """Take delivery of one working set; returns its payloads by ascending id.

    ``blocks`` are the map tasks' shares of working set ``key``; their
    members' payloads come with them, or from the cached ``store`` when
    the blocks carry ids only.  A member delivered twice is a scheme or
    shuffle bug and raises.  Meters §6's measured quantity — the peak
    working set actually delivered to a reduce task, records and the
    blocks' accounted bytes — as max-gauges.  Payload arrays decoded by a
    pooled engine are read-only views over the spill file: nothing here
    writes to them.
    """
    blocks = list(blocks)
    ids = np.array([eid for block in blocks for eid in block.ids], dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    twice = np.flatnonzero(ids[1:] == ids[:-1])
    if len(twice):
        raise ValueError(f"working set {key} received element {int(ids[twice[0]])} twice")
    if store is None:
        arrived = [payload for block in blocks for payload in block.payloads]
        payloads = [arrived[index] for index in order.tolist()]
    else:
        payloads = [store[eid] for eid in ids.tolist()]
    context.counters.set_max(PAIRWISE_GROUP, MAX_WORKING_SET_RECORDS, len(ids))
    context.counters.set_max(
        PAIRWISE_GROUP, MAX_WORKING_SET_BYTES, sum(block.size_bytes for block in blocks)
    )
    return WorkingSetStore(ids, payloads)


class ComputeReducer(Reducer):
    """Algorithm 1's reduce: getPairs, batch-evaluate, addResult both ways.

    The pair relation is materialized once and dispatched to the
    configured :mod:`repro.kernels` kernel (scalar by default — see
    :func:`_evaluate_pairs`).  With ``symmetric=False`` in the job config
    (the paper's "marginal modification" for non-symmetric evaluations,
    §1) each unordered pair is still *visited* once — the schemes
    guarantee that — but both orientations are computed: element i stores
    ``comp(sᵢ, sⱼ)`` and element j stores ``comp(sⱼ, sᵢ)``.

    The working set's element copies are made here, one per admitted
    member.  Under ``config["results_only"]`` they leave without their
    payloads: nothing downstream reads them (module docstring).
    """

    def reduce(self, key: int, values: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        payloads = _admit_working_set(key, values, context)
        pairs = scheme.get_pairs(key, list(payloads))
        results_only = context.config.get("results_only", False)
        copies = {
            eid: Element(eid, None if results_only else payload)
            for eid, payload in payloads.items()
        }
        for eid, partners, results in _compute_block(pairs, payloads, context):
            copies[eid].add_results(partners, results)
        for eid, copy in copies.items():
            context.emit(eid, copy)


class AggregateReducer(Reducer):
    """Algorithm 2's reduce: fuse all copies of one element."""

    def reduce(self, key: int, values: Any, context: Context) -> None:
        aggregator: Aggregator = context.config["aggregator"]
        context.emit(key, aggregator(list(values)))


class CachedComputeReducer(Reducer):
    """Algorithm 1's reduce against the cached payload store.

    Same pair relation and orientation semantics as
    :class:`ComputeReducer`; receives id-only blocks and emits
    per-element *partial result maps* (partner id → result) instead of
    full element copies.
    """

    def reduce(self, key: int, values: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        payloads = _admit_working_set(key, values, context, context.cache_file("dataset"))
        partials: dict[int, dict[int, Any]] = {eid: {} for eid in payloads}
        pairs = scheme.get_pairs(key, list(payloads))
        for eid, partners, results in _compute_block(pairs, payloads, context):
            partials[eid] = dict(zip(partners, results))
        for eid, partial in partials.items():
            context.emit(eid, partial)


class CachedAggregateReducer(Reducer):
    """Algorithm 2's reduce over partial result maps: rebuild, fold, aggregate.

    Rebuilds element ``key`` — from the cached payload store, or
    payload-free under ``config["results_only"]``, when the aggregate
    phase never touches the store at all — and folds every partial map
    into it; duplicate pairs still raise through
    :meth:`Element.add_results` (the exactly-once guarantee).
    """

    def reduce(self, key: int, values: Any, context: Context) -> None:
        aggregator: Aggregator = context.config["aggregator"]
        if context.config.get("results_only", False):
            element = Element(key)
        else:
            element = Element(key, context.cache_file("dataset")[key])
        for partial in filter(None, values):  # pruned joins leave most partial maps empty
            element.add_results(partial.keys(), partial.values())
        context.emit(key, aggregator([element]))


class BroadcastPairMapper(Mapper):
    """One-job broadcast map: evaluate a task's label chunk from the cache.

    Input records are ``(task_id, None)`` descriptors; the dataset comes
    from the distributed cache as ``{eid: payload}``.  Emits one partial
    result map per element with results in the task — both orientations,
    like addResult; the wire format of :class:`CachedComputeReducer`.
    """

    def map(self, key: int, value: Any, context: Context) -> None:
        scheme: BroadcastScheme = context.config["scheme"]
        payloads: Mapping[int, Any] = context.cache_file("dataset")
        for eid, partners, results in _compute_block(scheme.get_pairs(key), payloads, context):
            context.emit(eid, dict(zip(partners, results)))


#: one MR job of a plan: ``(job name, mapper, reducer)``
_Stage = tuple[str, type[Mapper], type[Reducer]]


class _Plan(NamedTuple):
    """One row of the module docstring's plan table.

    ``stages`` is one :data:`_Stage` per MR job, in chain order; the
    compute phase is always in the first.  ``inputs`` names the first
    job's input records and thereby how payloads travel: ``"elements"`` —
    ``(eid, Element)``, payloads ride the shuffle; ``"ids"`` —
    ``(eid, None)``, and ``"tasks"`` — one ``(task, None)`` descriptor per
    task: payloads ride the distributed cache.
    """

    stages: tuple[_Stage, ...]
    inputs: str


_SHUFFLE_PLAN = _Plan(
    (
        ("pairwise-distribute-compute", DistributeMapper, ComputeReducer),
        ("pairwise-aggregate", IdentityMapper, AggregateReducer),
    ),
    "elements",
)
_CACHED_PLAN = _Plan(
    (
        ("pairwise-distribute-compute-cached", DistributeMapper, CachedComputeReducer),
        ("pairwise-aggregate-cached", IdentityMapper, CachedAggregateReducer),
    ),
    "ids",
)
_ONE_JOB_PLAN = _Plan(
    (("pairwise-broadcast", BroadcastPairMapper, CachedAggregateReducer),),
    "tasks",
)


class PairwiseComputation:
    """End-to-end pairwise evaluation under a distribution scheme.

    Parameters
    ----------
    scheme:
        Any :class:`DistributionScheme`; its ``v`` must equal the dataset
        cardinality passed to the run methods.  Only its
        :meth:`~DistributionScheme.participants` are shipped, stored and
        returned: a flat scheme's are all of ``1..v``, a schedule round's
        or a some-pairs schema's may be fewer.
    comp:
        Symmetric pair function over element payloads.  Must be defined at
        module level (picklable) to use :class:`MultiprocessEngine`.
    aggregator:
        ``aggregateResults`` strategy; default concatenates partial maps
        and treats duplicate evaluations as errors.
    engine:
        MapReduce engine; default :class:`SerialEngine`.  The engine object
        *is* the engine configuration — scheduling policy, trace sink, data
        plane and journal are arguments of the engine's own constructor
        (``engine=MultiprocessEngine(data_plane="shm")``), and whoever
        built it closes it.
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
        ``retry_backoff_seconds``, ``fault_plan``; see
        :class:`~repro.mapreduce.job.Job`).  Application keys
        (``scheme``/``comp``/``aggregator``/``symmetric``) always win.
    max_attempts:
        Task retry budget applied to every job built here (Hadoop's
        ``mapred.map.max.attempts``); default 1, i.e. fail fast.
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
        threshold: float | None = None,
        top_k: int | None = None,
        pruning: str = "off",
        exact_fallback: bool = True,
        sketch_params: Mapping[str, Any] | None = None,
    ):
        if num_reduce_tasks is None:
            num_reduce_tasks = max(1, scheme.num_tasks // 8)
        if num_reduce_tasks < 1:
            raise ValueError(f"num_reduce_tasks must be >= 1, got {num_reduce_tasks}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.scheme = scheme
        self.comp = comp
        self.symmetric = symmetric
        self.kernel = kernel
        self.num_reduce_tasks = num_reduce_tasks
        self.runtime_config = dict(runtime_config or {})
        self.max_attempts = max_attempts
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
        self.engine = SerialEngine() if engine is None else engine

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

    def _attach_pruning(self, compute: Job, payloads: Mapping[int, Any]) -> None:
        """Give the compute job its sketch suite + pruner (no-op when pruning is off).

        Built driver-side exactly once per run and shipped through the
        distributed cache / job config, so every task attempt — retries
        included — prunes against the same frozen state.  The suite joins the job's cache dict in place, so
        beside a payload store it stays one broadcast / shm segment.
        """
        if self.pruning != "sketch":
            return
        if self.top_k is not None and len(payloads) != self.scheme.v:
            raise NotImplementedError(
                "top-k sketch pruning indexes its taus by dense element id, so "
                f"every element must be in some working set; {self.scheme.describe()} "
                f"leaves {self.scheme.v - len(payloads)} out (threshold pruning, or "
                "pruning='exact', works on such a schema)"
            )
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
        compute.cache["sketches"] = suite
        compute.config = {**compute.config, "pruner": pruner}

    def _meter_replication(
        self, counters: Any, elements: Sequence[Element], *, legs: int
    ) -> None:
        """Record achieved-vs-bound replication after a pipeline completes.

        Sets the three :class:`~repro.mapreduce.stats.EngineStats`
        replication meters (pooled engines only — the serial engine has
        no stats object) and emits a
        :class:`~repro.mapreduce.controlplane.events.ReplicationMeasured`
        event on the engine's bus, which the JSONL trace sink serializes
        like every other event.  ``legs`` is how many shuffle legs of the
        executed path the byte floor prices: the ones that carry payloads
        on the shuffle plan (1 when results come home payload-free, else
        2), every leg of a cached plan (2, or 1 for the one-job form).
        Cached runs shuffle ids instead of payloads, so their
        ``shuffle_bytes_vs_bound`` dropping far below 1.0 is the meter
        showing the cache optimization beating the naive payload-shuffle
        floor.
        """
        report = self.scheme.replication_report()
        v = self.scheme.v
        replicas = counters.get(PAIRWISE_GROUP, REPLICAS_EMITTED)
        achieved = replicas / v if replicas else report.replication_achieved
        bound = report.replication_lower_bound
        shuffle_bytes = counters.get(FRAMEWORK_GROUP, SHUFFLE_BYTES)
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
            events.emit(
                ReplicationMeasured(
                    time=time.monotonic(),
                    scheme=self.scheme.name,
                    v=v,
                    capacity_elements=report.capacity_elements,
                    replication_achieved=achieved,
                    replication_lower_bound=bound,
                    optimality_ratio=achieved / bound if bound else 0.0,
                    shuffle_bytes=shuffle_bytes,
                    shuffle_bytes_floor=floor,
                    shuffle_bytes_vs_bound=vs_bound,
                )
            )

    # -- input handling --------------------------------------------------------
    def _as_elements(self, dataset: Sequence[Any]) -> list[Element]:
        """Accept Elements or raw payloads; enforce ids 1..v and v == scheme.v.

        Returns the scheme's participants — every element, unless the
        scheme says some sit this computation out.
        """
        if len(dataset) != self.scheme.v:
            raise ValueError(
                f"dataset has {len(dataset)} elements but the scheme was "
                f"built for v={self.scheme.v}"
            )
        participants = self.scheme.participants()
        if dataset and isinstance(dataset[0], Element):
            elements = list(dataset)  # type: ignore[arg-type]
            ids = sorted(element.eid for element in elements)
            if ids != list(range(1, len(elements) + 1)):
                raise ValueError(
                    "element ids must be exactly 1..v; "
                    f"got min={ids[0]}, max={ids[-1]}, count={len(ids)}"
                )
            if len(participants) != len(elements):
                taking_part = set(participants)
                elements = [element for element in elements if element.eid in taking_part]
            return elements
        return [Element(eid, dataset[eid - 1]) for eid in participants]

    # -- execution paths --------------------------------------------------------
    def _job(
        self, stage: _Stage, config: dict[str, Any], cache: dict[str, Any] | None = None
    ) -> Job:
        """Every MR job this computation builds is built here."""
        name, mapper, reducer = stage
        return Job(
            name=name,
            mapper=mapper,
            reducer=reducer,
            num_reducers=self.num_reduce_tasks,
            cache={} if cache is None else cache,
            config=config,
            max_attempts=self.max_attempts,
        )

    def build_jobs(self) -> tuple[Job, Job]:
        """The two MR jobs of the generic algorithm (for inspection/chaining)."""
        config = self._job_config()
        job1, job2 = (self._job(stage, config) for stage in _SHUFFLE_PLAN.stages)
        return job1, job2

    def _execute(
        self,
        plan: _Plan,
        dataset: Sequence[Any],
        *,
        num_map_tasks: int | None = None,
        return_result: bool = False,
    ):
        """Run ``plan`` over ``dataset``: the one path behind every preset.

        Returns ``{eid: Element}`` over the scheme's participants (the
        only elements shipped, stored and re-attached); with
        ``return_result`` additionally
        the engine's account of the run — the :class:`PipelineResult` of a
        job chain, the bare :class:`~repro.mapreduce.job.JobResult` of a
        one-job plan — and stage fusion is disabled so every stage's
        records are materialized for inspection.
        """
        elements = self._as_elements(dataset)
        payloads = {element.eid: element.payload for element in elements}
        # An aggregator that never reads payloads gets none: the compute
        # phase emits results only and the payloads are re-attached below.
        results_only = not getattr(self.aggregator, "needs_payload", True)
        config = {**self._job_config(), "results_only": results_only}
        on_shuffle = plan.inputs == "elements"
        # Jobs that read the payload store share one cache dict → one
        # broadcast / shm segment; under results_only only the compute job reads it.
        store = None if on_shuffle else {"dataset": payloads}
        jobs = [
            self._job(stage, config, None if results_only and index else store)
            for index, stage in enumerate(plan.stages)
        ]
        self._attach_pruning(jobs[0], payloads)
        if plan.inputs == "tasks":
            # One input record per task; one split per task mirrors Hadoop's
            # one-mapper-per-task launch of the paper's implementation.
            input_records = [(task, None) for task in range(self.scheme.num_tasks)]
            num_map_tasks = self.scheme.num_tasks
        else:
            input_records = [
                (element.eid, element if on_shuffle else None) for element in elements
            ]
        result = Pipeline(jobs, engine=self.engine).run(
            input_records,
            num_map_tasks=num_map_tasks,
            fuse=False if return_result else None,
        )
        payload_legs = 1 if on_shuffle and results_only else len(jobs)
        self._meter_replication(result.counters, elements, legs=payload_legs)
        merged = dict(result.records)
        for element in elements:
            # An element whose every pair was pruned is emitted by no map
            # task of the one-job plan; give it what run_local gives an
            # element that received no copies.
            if element.eid not in merged:
                merged[element.eid] = self.aggregator([element.copy_without_results()])
            elif results_only:
                merged[element.eid].payload = element.payload
        if not return_result:
            return merged
        return merged, (result if len(jobs) > 1 else result.stages[0])

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
        return self._execute(
            _SHUFFLE_PLAN, dataset, num_map_tasks=num_map_tasks, return_result=return_pipeline
        )

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
        cache, Job 1 shuffles id blocks into working sets and emits partial
        result maps, Job 2 rebuilds each element from the store.  On a
        :class:`~repro.mapreduce.runtime.MultiprocessEngine` the store is
        broadcast **once per worker per job** instead of once per task.
        """
        return self._execute(
            _CACHED_PLAN, dataset, num_map_tasks=num_map_tasks, return_result=return_pipeline
        )

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
        return self._execute(_ONE_JOB_PLAN, dataset, return_result=return_result)

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
