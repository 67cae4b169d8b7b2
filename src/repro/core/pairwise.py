"""The generic parallel pairwise algorithm (paper §4, Algorithms 1 & 2).

One idea — a mapping schema ``(D, P)`` (a :class:`DistributionScheme`)
driven through *distribute → compute → aggregate* — and one executor,
:meth:`PairwiseComputation._execute`, that runs it.  The public run
methods are presets: each names a plan row and nothing else.

============== ============================================== ======== ================== ==================== ==== =======
preset         stages (map → reduce)                          payloads leg 1 carries      leg 2 carries        legs routing
============== ============================================== ======== ================== ==================== ==== =======
``run``        ``DistributeMapper`` → ``ComputeReducer``;     shuffle  blocks of ids +    result blocks        2    shuffle
               identity → ``AggregateReducer``                         payload references folded by the
                                                                                          objective, filed
                                                                                          once when symmetric:
                                                                                          ``bytes`` columns,
                                                                                          no payload
``run_cached`` ``CachedComputeMapper`` → ``AggregateReducer`` cache    result blocks      —                    1    cache
                                                                       folded by the
                                                                       objective, filed
                                                                       once when
                                                                       symmetric (its
                                                                       only leg)
============== ============================================== ======== ================== ==================== ==== =======

*Stages* are the plan's MR jobs in chain order (``;`` separates jobs; the
job ``name`` strings are in :data:`_SHUFFLE_PLAN` and :data:`_CACHED_PLAN`).
*Payloads* says whether element payloads travel in the shuffle or sit in
the distributed cache as ``{eid: payload}``.  *Leg 1 carries* is what
crosses the first shuffle.  On ``run`` the distribute map ships working
sets, not records — one :class:`WorkingSetBlock` per (map task, working
set), keyed by subset id — so leg 1 counts ``map tasks × working sets
reached`` records while ``REPLICAS_EMITTED`` still counts the ``v·r``
memberships; its input records are ``(eid, payload)``.  ``run_cached``'s
input records are one ``(task, None)`` descriptor per task, batched into
``num_reduce_tasks`` map splits, and its map tasks are its compute tasks.
*Leg 2 carries* (leg 1 on ``run_cached``) is what crosses into the one
:class:`AggregateReducer`: results, not records — one result block per
(compute task, aggregate partition), keyed by the partition index
(:class:`_ResultBlocks`) — so it counts at most ``compute tasks ×
aggregate partitions`` records, not one copy per membership; a block's
partner ids are one ``bytes`` column of the narrowest unsigned dtype
holding ``v`` and its results float64 ``bytes`` whenever the kernel
returned a float64 array (:func:`~repro.core.element.encode_block`).
*Filed once*: on a symmetric run under a built-in concat or threshold
aggregator a pair's one result is filed once, under ``(max(i, j), min(i,
j))``, and the :class:`~repro.core.element.PairResults` the run returns
mirrors it when read (:func:`_files_once`); top-k, any other aggregator
and ``symmetric=False`` file both orientations.
*Folded by the objective*: under a built-in threshold or top-k aggregator
a compute task keeps only the entries that can survive the aggregate's
fold — a threshold's passing ones, each member's k best per task — so the
leg scales with the output, not with ``r·q``.  Every run checks, before
returning, that its compute tasks evaluated or pruned as many pairs as the
required tiles hold; a folding run also sums each compute task's pair
fingerprint and checks it against the required tiles
(:func:`_check_coverage`).
*Legs* is the number of shuffles crossed.  *Routing* is the
:attr:`~repro.core.chooser.SchemeChoice.routing` value under which
:func:`~repro.core.runner.auto_pairwise` picks the row.
Everything else — dataset normalisation, job construction, pruner /
sketch attach, the :meth:`~repro.mapreduce.runtime.Engine.run_chain` call,
replication metering and the :class:`~repro.core.element.PairResults`
every preset returns — happens once, in the executor.

**Payloads travel once.**  Whatever the row, only the way in carries
payloads — leg 1 of ``run``, the cache of ``run_cached``.  An aggregator
folds results and never sees a payload (Algorithm 2's merge does not need
it: it is the same in every copy), so the result blocks carry none, and
the aggregate leg, the fused hand-over and the pool → driver result
pickle carry results only; the driver re-attaches the payloads it already
holds.

- ``run`` is the faithful **two-MR-job** pipeline.  *Job 1* (Algorithm 1):
  the map phase calls ``getSubsets`` per element and emits, per working
  set, the block of its members this map task holds; the shuffle groups
  working sets onto reducers; each reducer admits the blocks
  (:func:`_admit_working_set`), takes ``getPairs`` as the scheme's pair
  array, evaluates it,
  and files every result (``addResult``: once, under its higher id, when
  one number serves both elements; else both orientations) under the
  owner's aggregate partition; at task end it emits one result block per
  partition reached.
  *Job 2* (Algorithm 2): identity map; the shuffle groups a partition's
  blocks; the reducer folds each element's slices — the partial result
  lists of all its copies — by ``aggregateResults``.
- ``run_cached`` is the paper's **one-job** form (§5.1), for every scheme:
  with the payload store ``{eid: payload}`` in the **distributed cache**
  (a pooled engine broadcasts it once per worker, not once per task) a
  working set needs no shuffle — a compute task reads its members in
  closed form (:meth:`~repro.core.scheme.DistributionScheme.subset_members`)
  as a view of the store, evaluates them and emits the result blocks
  ``run``'s compute reducers emit; the single reduce phase aggregates per
  element.

:meth:`PairwiseComputation.run_local` is not a plan: it is the same three
abstract steps without the MR machinery, the in-process reference the tests
compare every preset against; no entry point of the package falls back to it.

The pair function ``comp(payload_i, payload_j)`` must be symmetric (§1's
standing assumption) and picklable for the multiprocess engine.

**Kernels.**  The compute phases work one *block* at a time, not one pair:
a compute task holds a working set's payloads as one
:class:`~repro.kernels.WorkingSetStore`, a ``dict`` that builds a
kernel's matrix form once — per working set on the shuffle plan; on the
cached plan the cache holds one root store of every participant, a
working set is a view of it, and the form is built once per process per
job.  Its pair relation comes from the scheme as tiles of the pair matrix
(:meth:`~repro.core.scheme.DistributionScheme.pair_tiles`: triangles,
cross products, or plain ``(n, 2)`` int64 rows — no Python tuple per
pair).  A kernel with a tile form evaluates a triangle or a cross tile as
one matrix product, one entry per pair (:func:`_evaluate_tiles`).
Otherwise the tiles' rows stay an array through pruner →
:class:`~repro.kernels.PairKernel` (``config["kernel"]``; ``None`` → the
scalar kernel, bit-identical to the historical loop; ``"auto"`` →
registry selection from the pair function and payload type).  Either
way :func:`_file` files the results — once per pair, or both
orientations through :func:`~repro.core.element.scatter_results` — and
they leave as :data:`Columns` grouped by element — a vectorized kernel's
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
from typing import Any, Callable, Iterable, Mapping, Sequence

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
from .element import (
    Element,
    PairCoverageError,
    PairResults,
    check_pairs,
    decode_blocks,
    element_block,
    encode_block,
    join_results,
    result_column,
    scatter_results,
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
#: the pair fingerprints of the tiles every compute task was given, summed
#: (mod 2⁶⁴ it equals the required tiles' own; metered on folding runs only)
PAIR_FINGERPRINT = "pair_fingerprint"


@dataclass(slots=True, eq=False)
class WorkingSetBlock:
    """One map task's share of one working set: the leg-1 shuffle value.

    ``ids`` lists the members this map task saw, in input order, as
    Python ``int``s (two or three pickled bytes each — an id array's
    out-of-band frame costs more than that per block); ``payloads`` holds
    *references* to their payload objects in the same order — references,
    not a stacked copy, so a payload that lands in several blocks of one
    spill chunk is still written once (pickle's memo).  ``size_bytes`` is
    the block's accounted size, which
    :func:`~repro.mapreduce.serialization.record_size` takes as stated:
    8 B per id plus each payload's own size, never more than the
    per-member records the block stands for.
    """

    ids: list[int]
    payloads: list[Any]
    size_bytes: int


class DistributeMapper(Mapper):
    """Algorithm 1's map: one :class:`WorkingSetBlock` per working set reached.

    ``getSubsets`` is called per ``(eid, payload)`` input record and the
    memberships are buffered; ``cleanup`` emits, per working set, what this
    map task has for it.  A payload crosses the shuffle once per working
    set it joins, sized once per map task.  ``REPLICAS_EMITTED`` counts the
    memberships.
    """

    def setup(self, context: Context) -> None:
        self._members: dict[int, list[int]] = {}  # subset id → member ids, input order
        self._payloads: dict[int, tuple[Any, int]] = {}  # eid → (payload, accounted bytes)

    def map(self, key: int, value: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        self._payloads[key] = (value, record_size(key, value))
        subsets = scheme.get_subsets(key)
        for subset_id in subsets:
            self._members.setdefault(subset_id, []).append(key)
        context.counters.increment(PAIRWISE_GROUP, REPLICAS_EMITTED, len(subsets))

    def cleanup(self, context: Context) -> None:
        for subset_id, members in self._members.items():
            payloads, sizes = zip(*(self._payloads[eid] for eid in members))
            context.emit(subset_id, WorkingSetBlock(members, list(payloads), sum(sizes)))


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


def _files_once(config: Mapping[str, Any]) -> bool:
    """Whether a run files each pair's result once, under ``(max(i, j), min(i, j))``.

    A symmetric run under a built-in concat or threshold: one number
    serves both elements of a pair, and neither fold needs an element's
    every partner (top-k does; a custom aggregator may), so the result
    crosses leg 2 once and :class:`~repro.core.element.PairResults`
    mirrors it when read.
    """
    aggregator = type(config.get("aggregator"))
    return config.get("symmetric", True) and aggregator in (ConcatAggregator, ThresholdAggregator)


def _file(block: np.ndarray, forward: Any, backward: Any, config: Mapping[str, Any]) -> Columns:
    """Algorithm 1's ``addResult`` over an evaluated pair block: its :data:`Columns`.

    A run that files once (:func:`_files_once`) keys row ``(i, j)``'s
    result ``(max(i, j), min(i, j))`` whatever tile produced it — so a pair
    delivered twice, in either orientation, reaches one owner twice and
    the aggregate's check — and groups the rows by owner with one stable
    sort.  Any other run files both orientations (:func:`scatter_results`).
    """
    if not _files_once(config):
        return scatter_results(block, forward, backward)
    high, low = np.maximum(block[:, 0], block[:, 1]), np.minimum(block[:, 0], block[:, 1])
    order = np.argsort(high, kind="stable")
    return high[order], low[order], result_column(forward)[order]


def _compute_block(
    tiles: Sequence[Tile], payloads: Mapping[int, Any], context: Context
) -> Columns:
    """One working set, block-granular: the scheme's tiles → kernel → :func:`_file`.

    A kernel with an ``evaluate_tile`` takes each :class:`Triangle` /
    :class:`Cross` tile as one matrix product (:func:`_evaluate_tiles`).
    Everything else walks the tiles' rows — prune → kernel: a configured
    pruner (its survivors are rows; a threshold on a similarity bounds
    each tile as one matrix, :func:`_apply_pruner`), ``symmetric=False``
    (two orientations per row), a relation with no tile shape
    (:class:`Rows`) and a kernel with no tile form (scalar).
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
            block, results = _evaluate_tiles(tiles, payloads, kernel, context)
            return _file(block, results, results, config)
    block = _apply_pruner(tiles, context)
    if len(block) == 0:
        return block[:, 0], block[:, 1], np.empty(0)
    return _file(block, *_evaluate_pairs(block, payloads, context), config)


def _evaluate_tiles(
    tiles: Sequence[Tile], store: WorkingSetStore, kernel: PairKernel, context: Context
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a working set tile by tile, no gather: ``(rows, results)``, one entry per pair.

    ``rows`` are the tiles' :func:`tile_rows`; a triangle's ``(n, n)``
    result is read below the diagonal only, in the same row-major order —
    the one entry computed for a pair, bit for bit (a BLAS ``X @ X.T``
    need not be symmetric) — and a cross tile's ``(|H|, |L|)`` result
    ``M`` is ``M.ravel()``.  Meters ``EVALUATIONS`` as the rows path does:
    one per pair.
    """
    use_one_blas_thread()
    matrix = store.form(kernel.to_matrix)
    results = []
    for tile in tiles:
        if isinstance(tile, Triangle):
            operand = _tile_operand(matrix, store, np.asarray(tile.points, dtype=np.int64))
            full = kernel.evaluate_tile(operand, operand)
            results.append(full[np.tri(len(full), k=-1, dtype=bool)])
        else:
            left, right = (_tile_operand(matrix, store, np.asarray(ids, np.int64)) for ids in tile)
            results.append(kernel.evaluate_tile(left, right).ravel())
        context.counters.increment(PAIRWISE_GROUP, EVALUATIONS, tile.size())
    return tile_rows(tiles), join_results(results)


def _tile_operand(matrix: Any, store: WorkingSetStore, points: np.ndarray) -> Any:
    """The rows of ascending member ids in the store's matrix form: a slice when consecutive."""
    first, last = store.rows(points[[0, -1]]).tolist()
    if last - first + 1 == len(points):
        return matrix[first : last + 1]
    return matrix[store.rows(points)]


def _admit_working_set(
    key: int, blocks: Iterable[WorkingSetBlock], context: Context
) -> WorkingSetStore:
    """Take delivery of one working set; returns its payloads by ascending id.

    ``blocks`` are the map tasks' shares of working set ``key``; their
    members' payloads come with them, and the working set is a store of
    its own.  A member delivered twice is a scheme or shuffle bug and
    raises.  Meters §6's measured quantity — the peak working set actually
    delivered to a reduce task, records and the blocks' accounted bytes —
    as max-gauges.  Payload arrays decoded by
    a pooled engine are read-only views over the spill file: nothing here
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
    arrived = [payload for block in blocks for payload in block.payloads]
    return WorkingSetStore(ids, [arrived[index] for index in order.tolist()])


#: an element's aggregate partition: the hash partition of its id, memoised
_partition_of = lru_cache(maxsize=1 << 16)(hash_partition)

_MASK = (1 << 64) - 1


def _folds(aggregator: Aggregator) -> bool:
    """Whether compute tasks fold ``aggregator`` before leg 2: a built-in threshold or top-k."""
    return type(aggregator) in (ThresholdAggregator, TopKAggregator)


@lru_cache(maxsize=4)
def _fingerprint_keys(v: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-element uint64 keys — rows ``a``, ``b``, ``a·b``, column = element id — and their prefix sums.

    Drawn from a seed fixed per ``v``, so every process and attempt of a
    run — and every run at that ``v`` — meters the same fingerprints.
    uint64 array arithmetic wraps mod 2⁶⁴ without a warning.
    """
    a, b = np.random.default_rng(v).integers(0, 1 << 64, size=(2, v + 1), dtype=np.uint64)
    a[0] = b[0] = 0
    keys = np.stack((a, b, a * b))
    prefix = np.cumsum(keys, axis=1, dtype=np.uint64)
    keys.flags.writeable = prefix.flags.writeable = False  # shared by every caller in the process
    return keys, prefix


def _side_sums(points: Sequence[int], v: int) -> list[int]:
    """``[Σa, Σb, Σa·b]`` mod 2⁶⁴ over ascending ``points``: two prefix reads when consecutive."""
    if not len(points):
        return [0, 0, 0]
    keys, prefix = _fingerprint_keys(v)
    first, last = int(points[0]), int(points[-1])
    if last - first + 1 == len(points):
        return (prefix[:, last] - prefix[:, first - 1]).tolist()
    return keys[:, np.asarray(points, dtype=np.int64)].sum(axis=1).tolist()


def _fingerprint(tiles: Iterable[Tile], v: int) -> int:
    """The sum mod 2⁶⁴ of ``a_i·b_j + a_j·b_i`` over every pair of ``tiles``, in closed form.

    A :class:`Cross` ``H × L`` is ``A_H·B_L + A_L·B_H``, a :class:`Triangle`
    over ``P`` is ``A_P·B_P − Σ_P a·b`` (each a few prefix reads, or a
    gather over the sides), and :class:`Rows` a gathered sum over the rows.
    Products are taken as Python ints: NumPy's scalar uint64 arithmetic
    warns on overflow.
    """
    total = 0
    for tile in tiles:
        if isinstance(tile, Triangle):
            a, b, ab = _side_sums(tile.points, v)
            total += a * b - ab
        elif isinstance(tile, Cross):
            (a_high, b_high, _), (a_low, b_low, _) = (_side_sums(side, v) for side in tile)
            total += a_high * b_low + a_low * b_high
        else:
            a, b, _ = _fingerprint_keys(v)[0]
            i, j = tile.array[:, 0], tile.array[:, 1]
            total += int((a[i] * b[j] + a[j] * b[i]).sum())
    return total & _MASK


def _check_coverage(
    scheme: DistributionScheme, counters: Any, stage: str, *, orientations: int, fingerprinted: bool
) -> None:
    """Raise :class:`PairCoverageError` unless the compute tasks covered the required pairs once each.

    Every run: ``EVALUATIONS + PAIRS_PRUNED`` must equal the required
    tiles' pair count (times ``orientations``, 2 when both orientations
    are evaluated) — a task that drops a pair leaves no other trace when
    no objective folds.  A folding run also checks ``PAIR_FINGERPRINT``
    against the tiles' own, which a pair dropped once and repeated once
    cannot pass.  The universe is the scheme's required tiles, else the
    triangle over ``1..v``.
    """
    universe = scheme.required_tiles() or (Triangle(range(1, scheme.v + 1)),)
    required = orientations * sum(tile.size() for tile in universe)
    counted = counters.get(PAIRWISE_GROUP, EVALUATIONS) + counters.get(PAIRWISE_GROUP, PAIRS_PRUNED)
    if counted != required:
        raise PairCoverageError(
            f"{scheme.describe()}: the compute tasks of stage {stage!r} did not cover the "
            f"required pairs exactly once ({counted} evaluations and pruned pairs, "
            f"required {required})"
        )
    if not fingerprinted:
        return
    expected = _fingerprint(universe, scheme.v)
    metered = counters.get(PAIRWISE_GROUP, PAIR_FINGERPRINT) & _MASK
    if metered != expected:
        raise PairCoverageError(
            f"{scheme.describe()}: the tiles the compute tasks of stage {stage!r} were given "
            f"do not cover the required pairs exactly once (pair fingerprint {metered:#018x}, "
            f"required {expected:#018x})"
        )


def _block_partition(key: int, num_partitions: int) -> int:
    """The aggregate job's partitioner: a result block's key *is* its partition."""
    return key


class _ResultBlocks:
    """Leg 2's producer side: one result block per (task, aggregate partition).

    Mixed into the two compute steps (:class:`ComputeReducer`,
    :class:`CachedComputeMapper`).  Each working set's :data:`Columns` are
    buffered folded by the objective — :func:`~repro.core.aggregate.fold_columns`
    under a built-in threshold or top-k aggregator, as is otherwise.  The fold is sound because the aggregate applies the same
    fold again: a threshold is a per-entry mask, and an element's global
    top-k lies in the union of its copies' top-k under the one total order
    (NaN last, value, partner id).  On such a run each working set's tiles
    add their pair fingerprint (:func:`_fingerprint`, pruned pairs
    included) to ``PAIR_FINGERPRINT``: the fold may drop both copies
    of a pair delivered twice, which the aggregate's check would no longer
    see, and the driver's sum check does.  ``cleanup``
    splits the task's columns by their owner's aggregate partition — the
    hash partition of the id among ``config["aggregate_partitions"]``,
    where a per-element record would have gone — and emits one block per
    partition reached, keyed by the partition index, which the aggregate
    job's :func:`_block_partition` routes as is.  A block is the plain
    tuple ``(ids, counts, partners, results)`` of
    :func:`~repro.core.element.encode_block` — every member once per
    working set (once per task under top-k, whose ``cleanup`` folds the
    task's runs again), with or without results; ``counts[k]`` of ``ids[k]``'s
    results in the flat ``partners`` (``bytes``, the narrowest unsigned
    dtype holding ``v``) and ``results`` (float64 ``bytes`` when every
    chunk is float64, else a list of objects) columns.  A block carries
    results only, never a payload.  On a run that files each result once
    (:func:`_files_once`) the columns hold each pair under its higher id
    only, and a member with no lower partner is listed with count 0.
    """

    def setup(self, context: Context) -> None:
        self._partitions = context.config["aggregate_partitions"]
        aggregator = context.config.get("aggregator")
        self._fold = aggregator if _folds(aggregator) else None
        self._runs: list[tuple] = []  # per working set: ids, counts, partners, results

    def _compute(self, tiles: Sequence[Tile], members: WorkingSetStore, context: Context) -> None:
        """Evaluate one working set's tiles and buffer its results; ``members`` is its store.

        On a folding run the tiles' pair fingerprint joins ``PAIR_FINGERPRINT``
        — pruned pairs included — and the working set's columns (grouped by
        owner, ascending) are folded by the objective.
        """
        owners, partners, results = _compute_block(tiles, members, context)
        if self._fold is not None:
            v = context.config["scheme"].v
            context.counters.increment(PAIRWISE_GROUP, PAIR_FINGERPRINT, _fingerprint(tiles, v))
            folded = fold_columns(self._fold, owners, partners, results)
            owners, partners, results = (owners, partners, results) if folded is None else folded
        ids = members.ids
        counts = np.searchsorted(owners, ids, side="right") - np.searchsorted(owners, ids)
        self._runs.append((ids, counts, partners, results))

    def cleanup(self, context: Context) -> None:
        """Emit the task's results as one block per aggregate partition, working-set order kept.

        Top-k folds the task's runs once more, so each member leaves with
        one run of at most k entries (ascending ids, then).
        """
        if not self._runs:
            return
        ids, counts, partners, results = zip(*self._runs)
        ids, counts = np.concatenate(ids), np.concatenate(counts)
        partners, results = np.concatenate(partners), join_results(results)
        if isinstance(self._fold, TopKAggregator) and len(self._runs) > 1:
            owners = np.repeat(ids, counts)
            order = np.argsort(owners, kind="stable")
            folded = fold_columns(self._fold, owners[order], partners[order], results[order])
            if folded is not None:
                owners, partners, results = folded
                ids = distinct_sorted(np.sort(ids))
                counts = np.searchsorted(owners, ids, side="right") - np.searchsorted(owners, ids)
        where = np.array([_partition_of(eid, self._partitions) for eid in ids.tolist()])
        v = context.config["scheme"].v
        for partition in sorted(set(where.tolist())):
            mine = where == partition
            entries = np.repeat(mine, counts)
            columns = ids[mine].tolist(), counts[mine].tolist(), partners[entries], results[entries]
            context.emit(partition, encode_block(*columns, v))


class ComputeReducer(_ResultBlocks, Reducer):
    """Algorithm 1's reduce: getPairs, batch-evaluate, addResult (:func:`_file`).

    The pair relation arrives from the scheme as one int64 array and is
    dispatched to the configured :mod:`repro.kernels` kernel (scalar by
    default — see :func:`_evaluate_pairs`).  With ``symmetric=False`` in the job config
    (the paper's "marginal modification" for non-symmetric evaluations,
    §1) each unordered pair is still *visited* once — the schemes
    guarantee that — but both orientations are computed: element i stores
    ``comp(sᵢ, sⱼ)`` and element j stores ``comp(sⱼ, sᵢ)``.

    The results leave in the task's result blocks (:class:`_ResultBlocks`):
    the payloads that arrived on leg 1 go no further.
    """

    def reduce(self, key: int, values: Any, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        payloads = _admit_working_set(key, values, context)
        self._compute(scheme.pair_tiles(key, list(payloads)), payloads, context)


class CachedComputeMapper(_ResultBlocks, Mapper):
    """The cached plan's map: Algorithm 1's compute step, no shuffle before it.

    Input records are ``(task, None)`` descriptors.  The task's working set
    is the view of the cached root store (``{eid: payload}``) at
    :meth:`~DistributionScheme.subset_members` — the scheme's closed form,
    where :class:`ComputeReducer` takes delivery of shuffled blocks — and
    the same pair relation, orientation semantics and result blocks follow.
    Meters what the shuffle plan meters: ``REPLICAS_EMITTED`` (summed over
    the tasks, ``Σ|D_l| = v·r``) and the working-set gauges, 8 B per id.
    """

    def map(self, key: int, value: None, context: Context) -> None:
        scheme: DistributionScheme = context.config["scheme"]
        members = scheme.subset_members(key)
        counters = context.counters
        counters.increment(PAIRWISE_GROUP, REPLICAS_EMITTED, len(members))
        counters.set_max(PAIRWISE_GROUP, MAX_WORKING_SET_RECORDS, len(members))
        counters.set_max(PAIRWISE_GROUP, MAX_WORKING_SET_BYTES, 8 * len(members))
        payloads = context.cache_file("dataset").view(np.array(members, dtype=np.int64))
        self._compute(scheme.pair_tiles(key, members), payloads, context)


class AggregateReducer(Reducer):
    """Algorithm 2's reduce: fold a partition's result blocks, emit one block.

    The blocks arrive in producing-task order.  Their columns are decoded
    once and their runs — one per (block, member) — ordered by owner with
    a stable sort, so each element's entries stand in ascending id, each
    element's in arrival order: the order its copies arrived in when leg 2
    carried one record per membership.  :func:`check_pairs` then refuses a
    self pair or a pair delivered twice, naming it — among the entries that
    arrived: under a threshold or top-k the blocks are result blocks folded
    by the objective (:class:`_ResultBlocks`), and a pair whose copies were
    all folded away is the fingerprint's to catch.  A built-in aggregator
    folds the columns as they are
    (:func:`~repro.core.aggregate.fold_columns`); any other gets each
    element rebuilt from its columns, with ``payload=None``, as
    ``aggregator([element])`` — the paper's ``aggregateResults`` extension
    point — and its output is flattened back into columns.  Emits one
    result block for the partition.
    """

    def reduce(self, key: int, values: Iterable[tuple], context: Context) -> None:
        aggregator: Aggregator = context.config["aggregator"]
        ids, counts, partners, results = decode_blocks(list(values))
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
            elements = PairResults([block], v=v).values()
            block = element_block([aggregator([element]) for element in elements], v)
        context.emit(key, block)


#: one MR job of a plan: ``(job name, mapper, reducer)``
_Stage = tuple[str, type[Mapper], type[Reducer]]

#: the rows of the module docstring's plan table: one stage per MR job, in chain order
_SHUFFLE_PLAN: tuple[_Stage, ...] = (
    ("pairwise-distribute-compute", DistributeMapper, ComputeReducer),
    ("pairwise-aggregate", IdentityMapper, AggregateReducer),
)
_CACHED_PLAN: tuple[_Stage, ...] = (("pairwise-cached", CachedComputeMapper, AggregateReducer),)


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
        Reducer parallelism of every job, and :meth:`run_cached`'s default
        count of compute (map) tasks.  Default: a reducer per 8 tasks, at
        least 1, and at most the engine's
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
        pair evaluated, the objective applied after evaluation only.  The
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

    def _meter_replication(self, counters: Any, payloads: Mapping[int, Any]) -> None:
        """Record achieved-vs-bound replication after a pipeline completes.

        Sets the three :class:`~repro.mapreduce.stats.EngineStats`
        replication meters (pooled engines only — the serial engine has
        no stats object) and emits a
        :class:`~repro.mapreduce.controlplane.events.ReplicationMeasured`
        event on the engine's bus, which the JSONL trace sink serializes
        like every other event.  The byte floor prices one leg of replicas,
        ``r·v·s``: only leg 1 of the shuffle plan carries payloads.  Cached
        runs shuffle results only, so their ``shuffle_bytes_vs_bound``
        dropping far below 1.0 is the meter showing the cache optimization
        beating the naive payload-shuffle floor.
        """
        report = self.scheme.replication_report()
        v = self.scheme.v
        replicas = counters.get(PAIRWISE_GROUP, REPLICAS_EMITTED)
        achieved = replicas / v if replicas else report.replication_achieved
        bound = report.replication_lower_bound
        shuffle_bytes = counters.get(FRAMEWORK_GROUP, SHUFFLE_BYTES)
        element_size = estimate_element_size(list(payloads.values()))
        floor = report.shuffle_bytes_floor(element_size)
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
    def _payloads(self, dataset: Sequence[Any]) -> dict[int, Any]:
        """``{eid: payload}`` of the scheme's participants; element ``i`` is ``dataset[i-1]``.

        Every element takes part unless the scheme says some sit this
        computation out; ``len(dataset)`` must be the scheme's ``v``.
        """
        if len(dataset) != self.scheme.v:
            raise ValueError(
                f"dataset has {len(dataset)} elements but the scheme was "
                f"built for v={self.scheme.v}"
            )
        return {eid: dataset[eid - 1] for eid in self.scheme.participants()}

    # -- execution paths --------------------------------------------------------
    def _job(self, stage: _Stage, config: dict[str, Any], cache: dict[str, Any]) -> Job:
        """Every MR job this computation builds is built here."""
        name, mapper, reducer = stage
        return Job(
            name=name,
            mapper=mapper,
            reducer=reducer,
            num_reducers=self.num_reduce_tasks,
            partitioner=_block_partition if reducer is AggregateReducer else None,
            cache=cache,
            config=config,
        )

    def _execute(
        self,
        plan: tuple[_Stage, ...],
        dataset: Sequence[Any],
        num_map_tasks: int | None,
        return_pipeline: bool,
    ) -> PairResults | tuple[PairResults, PipelineResult]:
        """Run ``plan`` over ``dataset``: the one path behind every preset.

        Returns the :class:`PairResults` of the scheme's participants (the
        only elements shipped, stored and re-attached), which attaches the
        caller's payloads; with ``return_pipeline`` additionally the
        engine's account of the run, a :class:`PipelineResult` of one stage
        per job, and stage fusion is disabled so every stage's records are
        materialized for inspection.
        """
        payloads = self._payloads(dataset)
        config = self._job_config()
        if plan is _CACHED_PLAN:
            # The store is a root WorkingSetStore, pickled as a dict: each
            # process's copy builds a kernel's matrix form at most once.
            # One descriptor per task, batched into as many compute tasks as
            # the shuffle plan runs.
            cache = {"dataset": WorkingSetStore(payloads=payloads)}
            input_records = [(task, None) for task in range(self.scheme.num_tasks)]
            if num_map_tasks is None:
                num_map_tasks = self.num_reduce_tasks
        else:
            cache = {}
            input_records = list(payloads.items())
        # Only the first job reads the store and the sketches: results are
        # aggregated without payloads.
        jobs = [self._job(stage, config, {} if i else cache) for i, stage in enumerate(plan)]
        self._attach_pruning(jobs[0], payloads)
        result = PipelineResult(
            self.engine.run_chain(
                jobs, input_records, num_map_tasks=num_map_tasks, fuse=not return_pipeline
            )
        )
        _check_coverage(
            self.scheme, result.counters, plan[0][0],
            orientations=1 if self.symmetric else 2, fingerprinted=_folds(self.aggregator),
        )
        self._meter_replication(result.counters, payloads)
        blocks = [block for _partition, block in result.records]
        mirrored = _files_once(config)  # True when the compute tasks filed each result once
        merged = PairResults(blocks, v=self.scheme.v, payloads=payloads, mirrored=mirrored)
        return (merged, result) if return_pipeline else merged

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
        return self._execute(_SHUFFLE_PLAN, dataset, num_map_tasks, return_pipeline)

    def run_cached(
        self,
        dataset: Sequence[Any],
        *,
        num_map_tasks: int | None = None,
        return_pipeline: bool = False,
    ) -> PairResults | tuple[PairResults, PipelineResult]:
        """One job with the payload store in the distributed cache (paper §5.1, any scheme).

        Semantically identical to :meth:`run` (same pair relation, same
        merged elements), but element payloads never flow through the
        shuffle: the job attaches ``{eid: payload}`` to the distributed
        cache, its map tasks read their working sets from it and emit
        result blocks, and its reduce phase aggregates per element.  On a
        :class:`~repro.mapreduce.runtime.MultiprocessEngine` the store is
        broadcast **once per worker** instead of once per task.  The task
        descriptors are carved into ``num_map_tasks`` splits, by default
        ``num_reduce_tasks``.  ``return_pipeline=True`` additionally
        returns the one-stage :class:`PipelineResult`.
        """
        return self._execute(_CACHED_PLAN, dataset, num_map_tasks, return_pipeline)

    def run_local(self, dataset: Sequence[Any]) -> PairResults:
        """In-process reference: same three steps, no MR framework.

        Step 1 builds the working sets, step 2 evaluates each pair relation
        on copies, step 3 merges copies per element — exactly the semantics
        of the two-job pipeline, minus serialization.  Pruning is never
        applied here: this is the reference every pruned path is compared
        against (the threshold/top-k objective still applies, through the
        aggregator).
        """
        payloads = self._payloads(dataset)
        by_id = {eid: Element(eid, payload) for eid, payload in payloads.items()}
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
