"""The generic parallel pairwise algorithm (paper §4, Algorithms 1 & 2).

One idea — a mapping schema ``(D, P)`` (a :class:`DistributionScheme`)
driven through *distribute → compute → aggregate* — and one executor,
:meth:`PairwiseComputation._execute`, that runs it.  The public run
methods are presets: each names a plan row and nothing else.

===================== ========================================== ======== ================== ==================== ==== =========
preset                stages (map → reduce)                      payloads leg 1 carries      leg 2 carries        legs routing
===================== ========================================== ======== ================== ==================== ==== =========
``run``               ``DistributeMapper`` → ``ComputeReducer``; shuffle  blocks of ids +    result blocks:       2    shuffle
                      identity → ``AggregateReducer``                     payload references ``bytes`` columns
                                                                                             (+ payload refs)
``run_cached``        ``DistributeMapper`` →                     cache    blocks of ids      result blocks:       2    cache
                      ``CachedComputeReducer``; identity →                                   ``bytes`` columns
                      ``AggregateReducer``
``run_broadcast_job`` ``BroadcastPairMapper`` →                  cache    result blocks      —                    1    one-job
                      ``AggregateReducer``                                (its only leg)
===================== ========================================== ======== ================== ==================== ==== =========

*Stages* are the plan's MR jobs in chain order (``;`` separates jobs; the
job ``name`` strings are in :data:`_SHUFFLE_PLAN`, :data:`_CACHED_PLAN` and
:data:`_ONE_JOB_PLAN`).  *Payloads* says whether element payloads travel in
the shuffle or sit in the distributed cache as ``{eid: payload}``.  *Leg 1
carries* is what crosses the first shuffle: the distribute map ships
working sets, not records — one :class:`WorkingSetBlock` per (map task,
working set), keyed by subset id — so leg 1 counts ``map tasks × working
sets reached`` records while ``REPLICAS_EMITTED`` still counts the ``v·r``
memberships; the input records are ``(eid, Element)``, ``(eid, None)`` and
one ``(task, None)`` descriptor per task (a split each).  *Leg 2 carries*
is what crosses into the one :class:`AggregateReducer`: results, not
records — one result block per (compute task, aggregate partition), keyed
by the partition index (:class:`_ResultBlocks`) — so it counts at most
``compute tasks × aggregate partitions`` records, not one copy per
membership; a block's partner ids are one ``bytes`` column of the
narrowest unsigned dtype holding ``v`` and its results float64 ``bytes``
whenever the kernel returned a float64 array
(:func:`~repro.core.element.encode_block`).  The one-job plan's map
tasks are its compute tasks, and their blocks cross its only leg.
*Legs* is the number of shuffles crossed.  *Routing* is the
:attr:`~repro.core.chooser.SchemeChoice.routing` value under which
:func:`~repro.core.runner.auto_pairwise` picks the row.
Everything else — dataset normalisation, job construction, pruner /
sketch attach, the :meth:`~repro.mapreduce.runtime.Engine.run_chain` call,
replication metering and the :class:`~repro.core.element.PairResults`
every preset returns — happens once, in the executor.

**Payloads travel once.**  Whatever the row, an aggregator that declares
``needs_payload = False`` (every built-in one) never sees a payload, so
the executor sets ``config["results_only"]``: the result blocks carry no
payload column, only the compute job gets the payload store, and the
driver re-attaches the payloads it already holds — leg 2, the fused
hand-over and the pool → driver result pickle carry results only.  An
aggregator that may read payloads gets them from the block on the
shuffle row, where a block references its members' payloads and pickle
writes each one once per block however many of the task's working sets
hold it, and from the store on the cached rows.

- ``run`` is the faithful **two-MR-job** pipeline.  *Job 1* (Algorithm 1):
  the map phase calls ``getSubsets`` per element and emits, per working
  set, the block of its members this map task holds; the shuffle groups
  working sets onto reducers; each reducer admits the blocks
  (:func:`_admit_working_set`), takes ``getPairs`` as the scheme's pair
  array, evaluates it,
  and files both orientations of every result (``addResult``) under the
  member's aggregate partition; at task end it emits one result block per
  partition reached.
  *Job 2* (Algorithm 2): identity map; the shuffle groups a partition's
  blocks; the reducer rebuilds each element from its slices — the
  partial result lists of all its copies — and applies
  ``aggregateResults``.
- ``run_cached`` is the same two jobs with the payload store
  ``{eid: payload}`` in the **distributed cache**: the shuffle routes
  id blocks and result blocks only, and a pooled engine broadcasts
  the store once per worker instead of once per task.  Works with *any*
  scheme (it generalizes the broadcast optimization's cache usage).
- ``run_broadcast_job`` is the paper's optimized **one-job** form for the
  broadcast scheme (§5.1) — the same steps folded into a single job: map
  tasks evaluate their label chunk against the cached store and emit the
  result blocks ``run_cached``'s compute phase emits; the single reduce
  phase aggregates per element.

:meth:`PairwiseComputation.run_local` is not a plan: it is the same three
abstract steps without the MR machinery (fast in-process reference; tests
compare every preset against it).

The pair function ``comp(payload_i, payload_j)`` must be symmetric (§1's
standing assumption) and picklable for the multiprocess engine.

**Kernels.**  The compute phases work one *block* at a time, not one pair:
the two compute reducers admit a working set's payloads as one
:class:`~repro.kernels.WorkingSetStore`, a ``dict`` that builds a
kernel's matrix form once — per working set on the shuffle plan; on the
cached plans the cache holds one root store of every participant, a
working set is a view of it, and the form is built once per process per
job.  Its pair relation comes from the scheme as tiles of the pair matrix
(:meth:`~repro.core.scheme.DistributionScheme.pair_tiles`: triangles,
cross products, or plain ``(n, 2)`` int64 rows — no Python tuple per
pair).  A kernel with a tile form evaluates a triangle or a cross tile as
one matrix product and scatters it as row and column slices
(:func:`_evaluate_tiles`).  Otherwise the tiles' rows stay an array
through pruner → :class:`~repro.kernels.PairKernel`
(``config["kernel"]``; ``None`` → the scalar kernel, bit-identical to the
historical loop; ``"auto"`` → registry selection from the pair function
and payload type) → :func:`scatter_results`.  Either way the results
leave as :data:`Columns` grouped by element — a vectorized kernel's
float64 array is never boxed — for the task's result blocks; the
aggregate reducer folds each partition's columns (a built-in aggregator)
or rebuilds its elements (any other), and the caller's
:class:`~repro.core.element.PairResults` builds an element only when one
is looked up.  ``run_local`` always evaluates scalar, pair by pair — the
reference the block paths are parity-tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .._util import distinct_sorted
from ..kernels import PairKernel, WorkingSetStore, resolve_kernel
from ..mapreduce.controlplane.events import ReplicationMeasured
from ..mapreduce.counters import FRAMEWORK_GROUP, SHUFFLE_BYTES
from ..mapreduce.job import Context, IdentityMapper, Job, Mapper, Reducer
from ..mapreduce.pipeline import PipelineResult
from ..mapreduce.runtime import Engine, SerialEngine
from ..mapreduce.serialization import estimate_element_size, record_size
from ..mapreduce.shuffle import hash_partition
from ..mapreduce.tasks import use_one_blas_thread
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
    fold_columns,
)
from .broadcast import BroadcastScheme
from .element import (
    Element,
    PairResults,
    check_pairs,
    decode_blocks,
    element_block,
    encode_block,
    join_results,
)
from .scheme import Cross, DistributionScheme, Rows, Tile, Triangle, tile_rows

PairFunction = Callable[[Any, Any], Any]

#: counter group for application-level metering
PAIRWISE_GROUP = "pairwise"
EVALUATIONS = "evaluations"
REPLICAS_EMITTED = "replicas_emitted"
MAX_WORKING_SET_RECORDS = "max_working_set_records"
MAX_WORKING_SET_BYTES = "max_working_set_bytes"
#: pairs dropped by the sketch pruner before kernel dispatch; EVALUATIONS +
#: PAIRS_PRUNED == the size of the scheme's required tiles on every symmetric pruned run
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


def _apply_pruner(tiles: Sequence[Tile], context: Context) -> np.ndarray:
    """A working set's pair rows that survive the configured pruner, in :func:`tile_rows` order.

    No pruning without a ``config["pruner"]``.  The pruner and the sketch
    suite (``cache["sketches"]``) are both built driver-side before job
    submission, so the surviving rows are a pure function of the tiles —
    identical across workers and retries.  A :class:`Triangle` or
    :class:`Cross` tile is bounded as one matrix when the pruner has a tile
    form (:meth:`~repro.sketches.PairPruner.keep_tile`), its survivors read
    off the mask in row order; anything else through ``keep_mask`` on the
    tile's rows.  Meters ``PAIRS_PRUNED`` (the skipped evaluations) and the
    ``SKETCH_BYTES`` footprint gauge.
    """
    pruner: PairPruner | None = context.config.get("pruner")
    if pruner is None:
        return tile_rows(tiles)
    suite = context.cache_file("sketches")
    kept, considered = zip(*(_prune_tile(tile, pruner, suite) for tile in tiles))
    if sum(considered):
        context.counters.set_max(PAIRWISE_GROUP, SKETCH_BYTES, suite.nbytes)
        pruned = sum(considered) - sum(map(len, kept))
        if pruned:
            context.counters.increment(PAIRWISE_GROUP, PAIRS_PRUNED, pruned)
    return np.concatenate(kept)


def _prune_tile(tile: Tile, pruner: PairPruner, suite: Any) -> tuple[np.ndarray, int]:
    """``(surviving rows, pairs considered)`` of one tile."""
    keep = None
    if isinstance(tile, Triangle):
        high = low = np.asarray(tile.points, dtype=np.int64)
        keep = pruner.keep_tile(suite, high, low)
        if keep is not None:
            keep, considered = np.tril(keep, -1), len(high) * (len(high) - 1) // 2
    elif isinstance(tile, Cross):
        high, low = (np.asarray(side, dtype=np.int64) for side in tile)
        keep = pruner.keep_tile(suite, high, low)
        considered = len(high) * len(low)
    if keep is None:
        rows = tile.rows()
        return rows[pruner.keep_mask(suite, rows)], len(rows)
    a, b = np.nonzero(keep)  # row-major: the order of the tile's rows
    return np.column_stack((high[a], low[b])), considered


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
) -> tuple[Any, Any]:
    """Evaluate one non-empty pair block through the configured kernel.

    Returns ``(forward, backward)`` as the kernel returned them — an
    ndarray or a list — aligned with the rows: ``forward[k] = comp(s_i,
    s_j)`` for row ``(i, j)``; with ``symmetric=True`` (the paper's
    standing assumption) ``backward`` *is* ``forward``, otherwise it is
    ``comp(s_j, s_i)`` (§1's "marginal modification").  Meters
    ``EVALUATIONS`` like the historical per-pair loop: one per pair, two
    when both orientations are computed.
    """
    sample = payloads[int(block[0, 0])]
    kernel = resolve_kernel(context.config.get("kernel"), context.config["comp"], sample)

    def evaluate(oriented: np.ndarray) -> Any:
        context.counters.increment(PAIRWISE_GROUP, EVALUATIONS, len(oriented))
        return kernel.evaluate_block(payloads, oriented)

    forward = evaluate(block)
    _meter_false_positives(forward, context)
    if context.config.get("symmetric", True):
        return forward, forward
    return forward, evaluate(block[:, ::-1])


#: one working set's results, grouped by owner ascending: ``(owners,
#: partners, results)`` — two int64 columns and a float64 or object one
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def scatter_results(block: np.ndarray, forward: Any, backward: Any) -> Columns:
    """Group a pair block's results by owning element (bulk ``addResult``).

    Row k = ``(i, j)`` gives ``i`` the entry ``j → forward[k]`` and ``j``
    the entry ``i → backward[k]``.  Returns the :data:`Columns` of the
    block; the stable sort keeps an element's entries in row order — the
    order the per-pair loop stored them.  A kernel's float64 array stays
    one; list results (the scalar kernel's) become an object column, so
    tuple results scatter like floats.
    """
    forward, backward = (
        out if isinstance(out, np.ndarray) else np.fromiter(out, object, len(out))
        for out in (forward, backward)
    )
    results = np.empty(2 * len(block), dtype=np.result_type(forward, backward))
    results[0::2], results[1::2] = forward, backward
    order = np.argsort(block.ravel(), kind="stable")  # owners: i0, j0, i1, j1, …
    return block.ravel()[order], block[:, ::-1].ravel()[order], results[order]


def _compute_block(
    tiles: Sequence[Tile], payloads: Mapping[int, Any], context: Context
) -> Columns:
    """One working set, block-granular: the scheme's tiles → kernel → scatter.

    A kernel with an ``evaluate_tile`` takes each :class:`Triangle` /
    :class:`Cross` tile as one matrix product (:func:`_evaluate_tiles`).
    Everything else walks the tiles' rows — prune → kernel →
    :func:`scatter_results`: a configured pruner (its survivors are rows;
    a threshold on a similarity bounds each tile as one matrix,
    :func:`_apply_pruner`), ``symmetric=False`` (two orientations per row),
    a relation with no tile shape (:class:`Rows`) and a kernel with no tile
    form (scalar).
    """
    config = context.config
    if (
        config.get("pruner") is None
        and config.get("symmetric", True)
        and not any(isinstance(tile, Rows) for tile in tiles)
    ):
        sample = next(iter(payloads.values()))
        kernel = resolve_kernel(config.get("kernel"), config["comp"], sample)
        if hasattr(kernel, "evaluate_tile"):
            return _evaluate_tiles(tiles, payloads, kernel, context)
    block = _apply_pruner(tiles, context)
    if len(block) == 0:
        return block[:, 0], block[:, 1], np.empty(0)
    return scatter_results(block, *_evaluate_pairs(block, payloads, context))


def _evaluate_tiles(
    tiles: Sequence[Tile], store: WorkingSetStore, kernel: PairKernel, context: Context
) -> Columns:
    """Evaluate a working set tile by tile into :data:`Columns`: no gather.

    A cross tile's ``(|H|, |L|)`` result ``M`` gives each high member its
    row and each low member its column: ``M.ravel()`` then
    ``M.T.ravel()``.  A triangle's ``(n, n)`` result ``T`` is read below
    the diagonal only — ``np.where(lower, T, T.T)`` off the diagonal — so
    both elements of a pair hold the one entry computed for it, bit for
    bit (a BLAS ``X @ X.T`` need not be symmetric).  One stable sort by
    owner then puts each element's partners in the order
    :func:`scatter_results` gives the tiles' rows — ascending within a
    tile, tile after tile.  Meters ``EVALUATIONS`` as the rows path does:
    one per pair.
    """
    use_one_blas_thread()
    matrix = store.form(kernel.to_matrix)
    owners, partners, results = [], [], []
    for tile in tiles:
        if isinstance(tile, Triangle):
            points = np.asarray(tile.points, dtype=np.int64)
            n = len(points)
            operand = _tile_operand(matrix, store, points)
            full = kernel.evaluate_tile(operand, operand)
            off = ~np.eye(n, dtype=bool)
            owners.append(np.repeat(points, n - 1))
            partners.append(np.broadcast_to(points, (n, n))[off])
            results.append(np.where(np.tri(n, k=-1, dtype=bool), full, full.T)[off])
        else:
            high, low = (np.asarray(side, dtype=np.int64) for side in (tile.high, tile.low))
            left, right = (_tile_operand(matrix, store, side) for side in (high, low))
            grid = kernel.evaluate_tile(left, right)
            owners += [np.repeat(high, len(low)), np.repeat(low, len(high))]
            partners += [np.tile(low, len(high)), np.tile(high, len(low))]
            results += [grid.ravel(), grid.T.ravel()]
        context.counters.increment(PAIRWISE_GROUP, EVALUATIONS, tile.size())
    owners = np.concatenate(owners)
    order = np.argsort(owners, kind="stable")
    return owners[order], np.concatenate(partners)[order], join_results(results)[order]


def _tile_operand(matrix: Any, store: WorkingSetStore, points: np.ndarray) -> Any:
    """The rows of ascending member ids in the store's matrix form: a slice when consecutive."""
    first, last = store.rows(points[[0, -1]]).tolist()
    if last - first + 1 == len(points):
        return matrix[first : last + 1]
    return matrix[store.rows(points)]


def _admit_working_set(
    key: int,
    blocks: Iterable[WorkingSetBlock],
    context: Context,
    store: WorkingSetStore | None = None,
) -> WorkingSetStore:
    """Take delivery of one working set; returns its payloads by ascending id.

    ``blocks`` are the map tasks' shares of working set ``key``; their
    members' payloads come with them — the working set is then a store of
    its own — or from the cached ``store`` when the blocks carry ids only,
    and it is a view of that store.  A member delivered twice is a scheme or
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
    context.counters.set_max(PAIRWISE_GROUP, MAX_WORKING_SET_RECORDS, len(ids))
    context.counters.set_max(
        PAIRWISE_GROUP, MAX_WORKING_SET_BYTES, sum(block.size_bytes for block in blocks)
    )
    if store is not None:
        return store.view(ids)
    arrived = [payload for block in blocks for payload in block.payloads]
    return WorkingSetStore(ids, [arrived[index] for index in order.tolist()])


#: an element's aggregate partition: the hash partition of its id, memoised
_partition_of = lru_cache(maxsize=1 << 16)(hash_partition)


def _block_partition(key: int, num_partitions: int) -> int:
    """The aggregate job's partitioner: a result block's key *is* its partition."""
    return key


class _ResultBlocks:
    """Leg 2's producer side: one result block per (task, aggregate partition).

    Mixed into the three compute steps (:class:`ComputeReducer`,
    :class:`CachedComputeReducer`, :class:`BroadcastPairMapper`).  Each
    working set's :data:`Columns` are buffered as they are; ``cleanup``
    splits the task's columns by their owner's aggregate partition — the
    hash partition of the id among ``config["aggregate_partitions"]``,
    where a per-element record would have gone — and emits one block per
    partition reached, keyed by the partition index, which the aggregate
    job's :func:`_block_partition` routes as is.  A block is the plain
    tuple ``(ids, counts, partners, results, payloads)`` of
    :func:`~repro.core.element.encode_block` — every member once per
    working set, with or without results; ``counts[k]`` of ``ids[k]``'s
    results in the flat ``partners`` (``bytes``, the narrowest unsigned
    dtype holding ``v``) and ``results`` (float64 ``bytes`` when every
    chunk is float64, else a list of objects) columns; ``payloads``
    referencing the members' payloads on the shuffle plan when the
    aggregator may read them, else ``None``.
    """

    #: whether the members' payloads arrive on the shuffle (and may leave on it)
    ships_payloads = False

    def setup(self, context: Context) -> None:
        self._partitions = context.config["aggregate_partitions"]
        self._carry = self.ships_payloads and not context.config.get("results_only", False)
        self._runs: list[tuple] = []  # per working set: ids, counts, partners, results, payloads

    def _keep(self, columns: Columns, members: WorkingSetStore | None = None) -> None:
        """Buffer one working set's results; ``members`` is its admitted store."""
        owners, partners, results = columns
        if members is None:  # owners ascending: each one's first entry
            ids = np.concatenate((owners[:1], owners[1:][owners[1:] != owners[:-1]]))
        else:
            ids = members.ids
        counts = np.searchsorted(owners, ids, side="right") - np.searchsorted(owners, ids)
        carried = [members[eid] for eid in ids.tolist()] if self._carry else []
        self._runs.append((ids, counts, partners, results, carried))

    def cleanup(self, context: Context) -> None:
        """Emit the task's results as one block per aggregate partition, working-set order kept."""
        if not self._runs:
            return
        ids, counts, partners, results, carried = zip(*self._runs)
        ids, counts, carried = np.concatenate(ids), np.concatenate(counts), [*chain(*carried)]
        partners, results = np.concatenate(partners), join_results(results)
        where = np.array([_partition_of(eid, self._partitions) for eid in ids.tolist()])
        v = context.config["scheme"].v
        for partition in sorted(set(where.tolist())):
            mine = where == partition
            entries = np.repeat(mine, counts)
            payloads = [p for p, m in zip(carried, mine.tolist()) if m] if self._carry else None
            columns = ids[mine].tolist(), counts[mine].tolist(), partners[entries], results[entries]
            context.emit(partition, encode_block(*columns, v, payloads))


class ComputeReducer(_ResultBlocks, Reducer):
    """Algorithm 1's reduce: getPairs, batch-evaluate, addResult both ways.

    The pair relation arrives from the scheme as one int64 array and is
    dispatched to the configured :mod:`repro.kernels` kernel (scalar by
    default — see :func:`_evaluate_pairs`).  With ``symmetric=False`` in the job config
    (the paper's "marginal modification" for non-symmetric evaluations,
    §1) each unordered pair is still *visited* once — the schemes
    guarantee that — but both orientations are computed: element i stores
    ``comp(sᵢ, sⱼ)`` and element j stores ``comp(sⱼ, sᵢ)``.

    The results leave in the task's result blocks (:class:`_ResultBlocks`),
    with the members' payloads unless ``config["results_only"]`` says
    nothing downstream reads them (module docstring).
    """

    ships_payloads = True

    def reduce(self, key: int, values: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        payloads = _admit_working_set(key, values, context)
        tiles = scheme.pair_tiles(key, list(payloads))
        self._keep(_compute_block(tiles, payloads, context), payloads)


class CachedComputeReducer(_ResultBlocks, Reducer):
    """Algorithm 1's reduce against the cached payload store.

    Same pair relation, orientation semantics and result blocks as
    :class:`ComputeReducer`; receives id-only blocks, and its result
    blocks never carry payloads: the aggregate side reads the same store.
    """

    def reduce(self, key: int, values: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        payloads = _admit_working_set(key, values, context, context.cache_file("dataset"))
        tiles = scheme.pair_tiles(key, list(payloads))
        self._keep(_compute_block(tiles, payloads, context), payloads)


class BroadcastPairMapper(_ResultBlocks, Mapper):
    """One-job broadcast map: evaluate a task's label chunk from the cache.

    Input records are ``(task_id, None)`` descriptors; the dataset comes
    from the distributed cache as ``{eid: payload}``.  Every element with
    results in the task joins the map task's result blocks — both
    orientations, like addResult; the wire format of the compute reducers.
    """

    def map(self, key: int, value: Any, context: Context) -> None:
        scheme: BroadcastScheme = context.config["scheme"]
        payloads: Mapping[int, Any] = context.cache_file("dataset")
        self._keep(_compute_block(scheme.pair_tiles(key), payloads, context))


class AggregateReducer(Reducer):
    """Algorithm 2's reduce: fold a partition's result blocks, emit one block.

    The blocks arrive in producing-task order.  Their columns are decoded
    once and their runs — one per (block, member) — ordered by owner with
    a stable sort, so each element's entries stand in ascending id, each
    element's in arrival order: the order its copies arrived in when leg 2
    carried one record per membership.  :func:`check_pairs` then refuses a
    self pair or a pair delivered twice, naming it.  A built-in aggregator
    folds the columns as they are
    (:func:`~repro.core.aggregate.fold_columns`); any other gets each
    element rebuilt — the block's payload when it carries one, else the
    cached store's, else (``results_only``) none — and ``aggregator([element])``,
    so its contract is unchanged, and its output is flattened back into
    columns.  Emits one payload-free result block for the partition.
    """

    def reduce(self, key: int, values: Iterable[tuple], context: Context) -> None:
        aggregator: Aggregator = context.config["aggregator"]
        blocks = list(values)
        ids, counts, partners, results = decode_blocks(blocks)
        order = np.argsort(ids, kind="stable")  # runs by owner, then their entries
        sizes, ends = counts[order], np.cumsum(counts[order])
        gather = np.repeat(np.cumsum(counts)[order] - ends, sizes) + np.arange(len(partners))
        owners = np.repeat(ids[order], sizes)
        partners, results = partners[gather], results[gather]
        check_pairs(owners, partners)
        eids, v = distinct_sorted(ids[order]), context.config["scheme"].v
        folded = fold_columns(aggregator, owners, partners, results)
        owners, partners, results = (owners, partners, results) if folded is None else folded
        counts = np.searchsorted(owners, eids, side="right") - np.searchsorted(owners, eids)
        block = encode_block(eids.tolist(), counts.tolist(), partners, results, v)
        if folded is None:
            carried = [(sent[0], sent[4]) for sent in blocks if sent[4] is not None]
            payloads = {eid: payload for got, sent in carried for eid, payload in zip(got, sent)}
            if not payloads and not context.config.get("results_only", False):
                payloads = context.cache_file("dataset")
            elements = PairResults([block], v=v, payloads=payloads).values()
            block = element_block([aggregator([element]) for element in elements], v)
        context.emit(key, block)


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
        ("pairwise-aggregate-cached", IdentityMapper, AggregateReducer),
    ),
    "ids",
)
_ONE_JOB_PLAN = _Plan(
    (("pairwise-broadcast", BroadcastPairMapper, AggregateReducer),),
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
        *is* the engine configuration — task retries (``max_attempts``,
        timeout, backoff, fault plan), trace sink, data plane and journal
        are arguments of the engine's own constructor
        (``engine=MultiprocessEngine(max_attempts=3)``), and whoever
        built it closes it.
    num_reduce_tasks:
        Reducer parallelism for both jobs.  Default: a reducer per 8
        tasks, at least 1, and at most the engine's
        :attr:`~repro.mapreduce.runtime.Engine.reduce_slots` — one wave,
        as Hadoop sizes its reduce tasks from the cluster's reduce slots
        (a pool's two per worker; the serial engine has no cap).  An
        explicit value always wins.
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
        ``symmetric=True`` and a sketch-registered comp).  The reference
        arm for ``"sketch"`` is ``"off"`` with the same objective: every
        pair evaluated, the objective applied in aggregation only.  The
        bounds are sound, so the two return the same output on every
        schema (DESIGN.md §3.1.7): top-k taus come from the schema's
        required tiles, not from the triangle.
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
        threshold: float | None = None,
        top_k: int | None = None,
        pruning: str = "off",
    ):
        if num_reduce_tasks is None:
            num_reduce_tasks = max(1, scheme.num_tasks // 8)
            # the default engine is serial: no slot cap
            slots = getattr(engine, "reduce_slots", None)
            if slots is not None:
                num_reduce_tasks = min(num_reduce_tasks, slots)
        if num_reduce_tasks < 1:
            raise ValueError(f"num_reduce_tasks must be >= 1, got {num_reduce_tasks}")
        self.scheme = scheme
        self.comp = comp
        self.symmetric = symmetric
        self.kernel = kernel
        self.num_reduce_tasks = num_reduce_tasks
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
        """What every task of this computation reads from ``job.config``."""
        return {
            "scheme": self.scheme,
            "comp": self.comp,
            "aggregator": self.aggregator,
            "symmetric": self.symmetric,
            "kernel": self.kernel,
            # the compute side routes result blocks to the aggregate reducers
            "aggregate_partitions": self.num_reduce_tasks,
        }

    def _attach_pruning(self, compute: Job, payloads: Mapping[int, Any]) -> None:
        """Give the compute job its sketch suite + pruner (no-op when pruning is off).

        Built driver-side exactly once per run and shipped through the
        distributed cache / job config, so every task attempt — retries
        included — prunes against the same frozen state.  The suite joins the job's cache dict in place, so
        beside a payload store it stays one broadcast file.
        """
        if self.pruning != "sketch":
            return
        suite = build_sketches(payloads, self._sketch_kind)
        if self.top_k is not None:
            # Taus over the tiles this schema must cover: a rectangle's or a
            # round's elements rank only their required partners.
            taus = build_topk_taus(suite, self.top_k, self.scheme.required_tiles())
            pruner: PairPruner = TopKPruner(self.top_k, taus)
        else:
            pruner = ThresholdPruner(self.threshold, keep_below=self._sketch_kind in DISTANCE_KINDS)
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
            partitioner=_block_partition if reducer is AggregateReducer else None,
            cache={} if cache is None else cache,
            config=config,
        )

    def _execute(
        self,
        plan: _Plan,
        dataset: Sequence[Any],
        *,
        num_map_tasks: int | None = None,
        return_result: bool = False,
    ):
        """Run ``plan`` over ``dataset``: the one path behind every preset.

        Returns the :class:`PairResults` of the scheme's participants (the
        only elements shipped, stored and re-attached), which attaches the
        caller's payloads; with
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
        # Jobs that read the payload store share one cache dict; under
        # results_only only the compute job reads it.  The store is a root
        # WorkingSetStore, pickled as a dict: each process's copy builds a
        # kernel's matrix form at most once.
        store = None if on_shuffle else {"dataset": WorkingSetStore(payloads=payloads)}
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
        result = PipelineResult(
            self.engine.run_chain(
                jobs, input_records, num_map_tasks=num_map_tasks, fuse=not return_result
            )
        )
        payload_legs = 1 if on_shuffle and results_only else len(jobs)
        self._meter_replication(result.counters, elements, legs=payload_legs)
        blocks = [block for _partition, block in result.records]
        reached = set(chain.from_iterable(block[0] for block in blocks))
        # An element whose every pair was pruned is emitted by no map task
        # of the one-job plan; give it what run_local gives an element that
        # received no copies.
        unreached = [self.aggregator([element.copy_without_results()])
                     for element in elements if element.eid not in reached]
        blocks.append(element_block(unreached, self.scheme.v))
        merged = PairResults(blocks, v=self.scheme.v, payloads=payloads)
        if not return_result:
            return merged
        return merged, (result if len(jobs) > 1 else result.stages[0])

    def run(
        self,
        dataset: Sequence[Any],
        *,
        num_map_tasks: int | None = None,
        return_pipeline: bool = False,
    ) -> PairResults | tuple[PairResults, PipelineResult]:
        """Run the faithful two-job pipeline; returns its :class:`PairResults`.

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
    ) -> PairResults | tuple[PairResults, PipelineResult]:
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

    def run_local(self, dataset: Sequence[Any]) -> PairResults:
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

        merged = [
            # an element in no working set can't happen for valid schemes
            self.aggregator(element_copies or [by_id[eid].copy_without_results()])
            for eid, element_copies in copies.items()
        ]
        payloads = {eid: element.payload for eid, element in by_id.items()}
        v = self.scheme.v
        return PairResults([element_block(merged, v)], v=v, payloads=payloads)


def pairwise_results(
    dataset: Sequence[Any],
    comp: PairFunction,
    scheme: DistributionScheme,
    **kwargs: Any,
) -> dict[tuple[int, int], Any]:
    """Convenience: run the two-job pipeline and return the flat pair map.

    Returns ``{(i, j): comp(s_i, s_j)}`` with i > j, 1-indexed ids.
    """
    return PairwiseComputation(scheme, comp, **kwargs).run(dataset).pairs()


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
