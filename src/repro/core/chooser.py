"""Automatic scheme selection — Fig 9b's decision logic as an API.

Given the workload (cardinality v, element size s) and the environment
limits (maxws, maxis, node count), pick the distribution scheme the
paper's own analysis recommends:

1. **broadcast** when the whole dataset fits a task slot (``v·s ≤ maxws``)
   and its p-fold replication fits ``maxis`` — cheapest structure, its
   store in the distributed cache (one MR job, §5.1);
2. otherwise **block** when a valid blocking factor exists
   (``v·s ≤ sqrt(maxws·maxis/2)``), choosing h inside the Fig 9a
   interval (minimal h ⇒ minimal replication/communication by Table 1,
   optionally balanced against a minimum task count for parallelism);
3. otherwise the **√v step**: build the two √v schemes — the design
   scheme on the smallest GF(q) plane (prime-power orders, truncated to
   v) and the difference-cover quorum — and keep those whose own
   :meth:`~repro.core.scheme.DistributionScheme.metrics` fit both
   limits; the lowest replication wins, then the smaller working set,
   then design.  Replication at a fixed reducer size is the cost to
   minimise ("Upper and Lower Bounds on the Cost of a Map-Reduce
   Computation"), and the quorum is the plane wherever v is a plane size
   (Kleinheksel & Somani), so the two compete on their real Table-1
   rows, not on the ``√v`` approximation.  A candidate whose floor
   cannot fit is not built: a truncated plane keeps a line of at least
   q points and replicates at least ``(v−1)/q`` times, a cover has
   ``|D|(|D|−1) ≥ v−1`` and replicates ``|D|`` times;
4. otherwise a **hierarchical** two-level block schedule with the
   smallest coarse factor H whose per-round requirements fit (§7).

Every flat scheme returned fits: its own ``metrics()`` working set is at
most ``maxws`` and its intermediate bytes at most ``maxis``
(:meth:`~repro.core.scheme.SchemeMetrics.fits`).

The returned :class:`SchemeChoice` carries the configured scheme (or
schedule) plus a rationale trail suitable for logging.

**Payload routing.**  Choosing the scheme fixes *which* elements meet;
:func:`route_payloads` then prices *how* their payloads get there, from
the same numbers (``v·s``, ``maxws``, the node count, the scheme's
replication) — communication per reducer is the cost, in the frame of
Afrati et al., "Upper and Lower Bounds on the Cost of a Map-Reduce
Computation":

- ``"shuffle"`` when ``v·s > maxws``: the payload store cannot sit in a
  task's memory (the paper's premise), so replicas ride the shuffle;
- else ``"cache"`` for a broadcast scheme (§5.1: the store in the
  distributed cache, one MR job);
- else ``"cache"`` when ``num_nodes < replication`` — ``n`` store
  localisations move fewer bytes than ``r`` shuffled replicas of every
  element (the different-sized-inputs trade-off of "Assignment Problems of
  Different-Sized Inputs in MapReduce");
- else ``"shuffle"``.

:func:`~repro.core.runner.auto_pairwise` executes the route chosen here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .._util import ceil_div, format_bytes
from ..designs.difference_covers import cover_size_lower_bound
from ..designs.primes import plane_order_for
from .block import BlockScheme
from .broadcast import BroadcastScheme
from .cost_model import block_h_bounds
from .design import DesignScheme
from .hierarchical import HierarchicalBlockScheme
from .quorum import QuorumScheme
from .scheme import DistributionScheme


class InfeasibleWorkloadError(RuntimeError):
    """No scheme (flat or hierarchical, within the round cap) fits."""


#: how payloads reach the tasks (see :func:`route_payloads`)
ROUTINGS = ("cache", "shuffle")


@dataclass
class SchemeChoice:
    """Outcome of automatic selection.

    ``routing`` is one of :data:`ROUTINGS` — the payload route
    :func:`route_payloads` priced for a flat scheme; hierarchical
    schedules are not routed and keep the default.
    """

    scheme: Union[DistributionScheme, HierarchicalBlockScheme]
    rationale: list[str] = field(default_factory=list)
    routing: str = "shuffle"

    @property
    def is_hierarchical(self) -> bool:
        return isinstance(self.scheme, HierarchicalBlockScheme)

    def explain(self) -> str:
        return "\n".join(self.rationale)


def route_payloads(
    choice: SchemeChoice, element_size: int, *, maxws: int, num_nodes: int
) -> SchemeChoice:
    """Set ``choice.routing`` by the module docstring's rule; returns ``choice``.

    Appends one rationale line naming the route and both predicted byte
    totals: ``r·v·s`` for replicas through the shuffle, ``n·v·s`` for one
    store localisation per node.  No-op for a hierarchical schedule.
    """
    if choice.is_hierarchical:
        return choice
    scheme = choice.scheme
    metrics = scheme.metrics()
    replication = metrics.replication_factor
    dataset_bytes = scheme.v * element_size
    shuffled = metrics.intermediate_bytes(element_size)  # r·v·s, Table 1's maxis quantity
    cached = num_nodes * dataset_bytes
    if dataset_bytes > maxws:
        choice.routing = "shuffle"
        why = f"store {format_bytes(dataset_bytes)} > maxws {format_bytes(maxws)}"
    elif isinstance(scheme, BroadcastScheme):
        choice.routing = "cache"
        why = "broadcast scheme, store fits a slot (§5.1)"
    elif num_nodes < replication:
        choice.routing = "cache"
        why = f"n={num_nodes} localisations < replication {replication:g}"
    else:
        choice.routing = "shuffle"
        why = f"replication {replication:g} <= n={num_nodes} localisations"
    choice.rationale.append(
        f"routing: {choice.routing} ({why}); predicted payload bytes: "
        f"shuffle {format_bytes(shuffled)}, cache {format_bytes(cached)}"
    )
    return choice


def choose_scheme(
    v: int,
    element_size: int,
    *,
    maxws: int,
    maxis: int,
    num_nodes: int = 8,
    min_tasks: int | None = None,
    max_rounds: int = 10_000,
) -> SchemeChoice:
    """Pick and configure the scheme the paper's analysis recommends.

    ``min_tasks`` (default: 2× the node count) is the parallelism floor;
    broadcast task count and the block factor are raised to meet it when
    the limits allow.  ``max_rounds`` caps the hierarchical fallback's
    sequential rounds before declaring the workload infeasible.
    """
    if v < 2:
        raise ValueError(f"pairwise computation needs v >= 2, got {v}")
    if element_size < 1 or maxws < 1 or maxis < 1:
        raise ValueError("element_size, maxws and maxis must be positive")
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if min_tasks is None:
        min_tasks = 2 * num_nodes
    choice = _select_scheme(v, element_size, maxws, maxis, num_nodes, min_tasks, max_rounds)
    return route_payloads(choice, element_size, maxws=maxws, num_nodes=num_nodes)


def _select_scheme(
    v: int,
    element_size: int,
    maxws: int,
    maxis: int,
    num_nodes: int,
    min_tasks: int,
    max_rounds: int,
) -> SchemeChoice:
    """Steps 1–4 of the module docstring over validated arguments."""
    rationale: list[str] = [
        f"workload: v={v}, s={format_bytes(element_size)} "
        f"(dataset {format_bytes(v * element_size)}); "
        f"limits: maxws={format_bytes(maxws)}, maxis={format_bytes(maxis)}, "
        f"n={num_nodes}"
    ]
    dataset_bytes = v * element_size
    limits = dict(maxws=maxws, maxis=maxis)

    # 1. Broadcast: the dataset fits one task slot, its p copies fit maxis.
    broadcast = BroadcastScheme(v, max(min_tasks, num_nodes))
    if broadcast.metrics().fits(element_size, **limits):
        rationale.append(
            f"broadcast: dataset fits a slot ({format_bytes(dataset_bytes)} "
            f"<= {format_bytes(maxws)}); p={broadcast.num_tasks} tasks"
        )
        return SchemeChoice(broadcast, rationale)
    if dataset_bytes > maxws:
        rationale.append(
            f"broadcast infeasible: working set {format_bytes(dataset_bytes)} "
            f"> maxws {format_bytes(maxws)}"
        )
    else:
        rationale.append(
            "broadcast working set fits but p-fold intermediate storage "
            "would exceed maxis; falling through to block"
        )

    # 2. Block: valid h interval (Fig 9a), pick the smallest h that also
    #    reaches the parallelism floor.
    bounds = block_h_bounds(dataset_bytes, maxws, maxis)
    if bounds.feasible:
        h = bounds.h_min
        # h(h+1)/2 tasks; raise h (within the interval) for parallelism.
        while h < bounds.h_max and h * (h + 1) // 2 < min_tasks:
            h += 1
        # The analytic lower bound uses the continuous 2vs/h; the real
        # working set is 2⌈v/h⌉·s, which can exceed maxws by one group's
        # rounding — bump h until the scheme's own working set fits too
        # (raising h only raises replication, so maxis is judged once, below).
        h, h_top = min(h, v), min(bounds.h_max, v)
        while h < h_top and BlockScheme(v, h).metrics().working_set_bytes(element_size) > maxws:
            h += 1
        block = BlockScheme(v, h)
        if block.metrics().fits(element_size, **limits):
            rationale.append(
                f"block: h ∈ [{bounds.h_min}, {bounds.h_max}] valid; chose h={h} "
                f"({h * (h + 1) // 2} tasks, replication {h})"
            )
            return SchemeChoice(block, rationale)
        rationale.append(
            f"block: analytic h interval exists but no h <= {h_top} has a row "
            "that fits both maxws and maxis; falling through"
        )
    rationale.append(
        f"block infeasible: no valid h (needs vs <= "
        f"{format_bytes(int((maxws * maxis / 2) ** 0.5))})"
    )

    # 3. The √v step: the GF plane and the cover's quorum, each built and
    #    judged by its own metrics; lowest replication, then smaller
    #    working set, then design (listed first) wins.  A candidate whose
    #    floor cannot fit is not built.  A truncated plane keeps a line of
    #    >= q points, and a point meets its v−1 partners on lines of <= q
    #    others, so it replicates >= (v−1)/q times; a cover has
    #    k(k−1) >= v−1 and every element replicates k times.
    q = plane_order_for(v, allow_prime_powers=True)
    k = cover_size_lower_bound(v)
    builders = [
        (
            "design", q, dataset_bytes * (v - 1) // q,
            lambda: DesignScheme(v, allow_prime_powers=True, num_nodes=num_nodes),
        ),
        ("quorum", k, dataset_bytes * k, lambda: QuorumScheme(v)),
    ]
    feasible = []
    for name, ws_floor, is_floor, build in builders:
        if ws_floor * element_size > maxws or is_floor > maxis:
            rationale.append(
                f"{name} not built: even its floor ({ws_floor} elements per task = "
                f"{format_bytes(ws_floor * element_size)}, "
                f"{format_bytes(is_floor)} intermediate) exceeds a limit"
            )
            continue
        scheme = build()
        m = scheme.metrics()
        ok = m.fits(element_size, **limits)
        rationale.append(
            f"{scheme.describe()}: replication {m.replication_factor:.4g}, working set "
            f"{format_bytes(m.working_set_bytes(element_size))}, intermediate "
            f"{format_bytes(m.intermediate_bytes(element_size))} — "
            + ("fits" if ok else "exceeds a limit")
        )
        if ok:
            feasible.append((m.replication_factor, m.working_set_elements, scheme))
    if feasible:
        best = min(feasible, key=lambda row: row[:2])[2]
        rationale.append(f"{best.name}: lowest replication among the √v schemes that fit")
        return SchemeChoice(best, rationale)

    # 4. Hierarchical fallback: smallest H whose rounds fit both limits.
    #    A task holds two fine chunks of ⌈E/f⌉ elements, so a chunk takes at
    #    most maxws // 2s of them...
    chunk = maxws // (2 * element_size)
    for H in range(2, v + 1) if chunk else ():
        E = ceil_div(v, H)  # coarse group size
        f_min = ceil_div(E, chunk)
        # ...while one round's replicas (≈ 2E·f) stay under maxis.
        if 2 * E * f_min * element_size > maxis:
            continue
        rounds = H * (H + 1) // 2
        if rounds > max_rounds:
            break
        rationale.append(
            f"hierarchical block: H={H} (E={E}, {rounds} sequential rounds), "
            f"fine factor f={f_min}"
        )
        return SchemeChoice(HierarchicalBlockScheme(v, H, f_min), rationale)

    raise InfeasibleWorkloadError(
        "no scheme fits: " + "; ".join(rationale)
    )
