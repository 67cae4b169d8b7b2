"""Automatic scheme selection — Fig 9b's decision logic as an API.

Given the workload (cardinality v, element size s) and the environment
limits (maxws, maxis, node count), pick the distribution scheme the
paper's own analysis recommends:

1. **broadcast** when the whole dataset fits a task slot (``v·s ≤ maxws``)
   — cheapest structure, one-job execution;
2. otherwise **block** when a valid blocking factor exists
   (``v·s ≤ sqrt(maxws·maxis/2)``), choosing h inside the Fig 9a
   interval (minimal h ⇒ minimal replication/communication by Table 1,
   optionally balanced against a minimum task count for parallelism);
3. otherwise **quorum** when v is *not* an exact plane size — the design
   scheme would pad v up to the next prime plane and replicate ``q + 1``
   times, while a difference cover of Z_v exists for the exact v at
   ``|D| ≈ √v``; chosen when the cover fits both limits and strictly
   beats the padded design replication;
4. otherwise **design** when its working set and intermediate storage
   both fit;
5. otherwise a **hierarchical** two-level block schedule with the
   smallest coarse factor H whose per-round requirements fit (§7).

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
- else ``"one-job"`` for a broadcast scheme (§5.1: the store in the
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
from .block import BlockScheme
from .broadcast import BroadcastScheme
from .cost_model import (
    block_h_bounds,
    max_v_broadcast,
    max_v_design_memory,
    max_v_design_storage,
)
from .design import DesignScheme
from .hierarchical import HierarchicalBlockScheme
from .quorum import QuorumScheme
from .scheme import DistributionScheme


class InfeasibleWorkloadError(RuntimeError):
    """No scheme (flat or hierarchical, within the round cap) fits."""


#: how payloads reach the tasks (see :func:`route_payloads`)
ROUTINGS = ("one-job", "cache", "shuffle")


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
        choice.routing = "one-job"
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
    allow_prime_powers: bool = False,
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
    choice = _select_scheme(
        v, element_size, maxws, maxis, num_nodes, min_tasks, max_rounds, allow_prime_powers
    )
    return route_payloads(choice, element_size, maxws=maxws, num_nodes=num_nodes)


def _select_scheme(
    v: int,
    element_size: int,
    maxws: int,
    maxis: int,
    num_nodes: int,
    min_tasks: int,
    max_rounds: int,
    allow_prime_powers: bool,
) -> SchemeChoice:
    """Steps 1–5 of the module docstring over validated arguments."""
    rationale: list[str] = [
        f"workload: v={v}, s={format_bytes(element_size)} "
        f"(dataset {format_bytes(v * element_size)}); "
        f"limits: maxws={format_bytes(maxws)}, maxis={format_bytes(maxis)}, "
        f"n={num_nodes}"
    ]
    dataset_bytes = v * element_size

    # 1. Broadcast: dataset fits one task slot.
    if v <= max_v_broadcast(element_size, maxws):
        tasks = max(min_tasks, num_nodes)
        # Replication = tasks; keep intermediate storage honest too.
        if dataset_bytes * tasks <= maxis:
            rationale.append(
                f"broadcast: dataset fits a slot ({format_bytes(dataset_bytes)} "
                f"<= {format_bytes(maxws)}); p={tasks} tasks"
            )
            return SchemeChoice(BroadcastScheme(v, tasks), rationale)
        rationale.append(
            "broadcast working set fits but p-fold intermediate storage "
            "would exceed maxis; falling through to block"
        )
    else:
        rationale.append(
            f"broadcast infeasible: working set {format_bytes(dataset_bytes)} "
            f"> maxws {format_bytes(maxws)}"
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
        # rounding — bump h until the discrete working set fits too.
        while h < min(bounds.h_max, v) and 2 * ceil_div(v, h) * element_size > maxws:
            h += 1
        h = min(h, v)  # a factor beyond v is meaningless
        if 2 * ceil_div(v, h) * element_size <= maxws:
            rationale.append(
                f"block: h ∈ [{bounds.h_min}, {bounds.h_max}] valid; chose h={h} "
                f"({h * (h + 1) // 2} tasks, replication {h})"
            )
            return SchemeChoice(BlockScheme(v, h), rationale)
        rationale.append(
            "block: analytic h interval exists but the discrete working set "
            "2⌈v/h⌉·s never fits; falling through"
        )
    rationale.append(
        f"block infeasible: no valid h (needs vs <= "
        f"{format_bytes(int((maxws * maxis / 2) ** 0.5))})"
    )

    # 3. Quorum: exact-v difference-cover working sets, preferred over a
    #    padded design when the cover replicates strictly less.
    from ..designs.difference_covers import difference_cover
    from ..designs.primes import plane_order_for, plane_size

    q = plane_order_for(v, allow_prime_powers=allow_prime_powers)
    if plane_size(q) == v:
        rationale.append(
            f"quorum not needed: v={v} is exactly the q={q} plane, "
            "design pays no padding"
        )
    else:
        cover = difference_cover(v)
        k = cover.size
        if k >= q + 1:
            rationale.append(
                f"quorum not competitive: |D|={k} ({cover.kind} cover) vs "
                f"padded design replication {q + 1}"
            )
        elif k * element_size > maxws:
            rationale.append(
                f"quorum infeasible: working set |D|·s = "
                f"{format_bytes(k * element_size)} > maxws"
            )
        elif v * k * element_size > maxis:
            rationale.append(
                f"quorum infeasible: intermediate v·|D|·s = "
                f"{format_bytes(v * k * element_size)} > maxis"
            )
        else:
            rationale.append(
                f"quorum: design would pad v={v} to the q={q} plane "
                f"(replication {q + 1}); {cover.kind} difference cover of "
                f"Z_{v} replicates only |D|={k} — {v} tasks, working set "
                f"{format_bytes(k * element_size)}"
            )
            return SchemeChoice(QuorumScheme(v, cover=cover), rationale)

    # 4. Design: both its limits must hold.
    if v <= max_v_design_storage(element_size, maxis) and v <= max_v_design_memory(
        element_size, maxws
    ):
        rationale.append(
            "design: √v working set and v√v·s intermediate both fit"
        )
        return SchemeChoice(
            DesignScheme(v, allow_prime_powers=allow_prime_powers, num_nodes=num_nodes),
            rationale,
        )
    rationale.append("design infeasible: √v·s or v^{3/2}·s exceeds a limit")

    # 5. Hierarchical fallback: smallest H whose rounds fit both limits.
    for H in range(2, v + 1):
        E = ceil_div(v, H)  # coarse group size
        # Fine factor must shrink 2E elements under maxws...
        f_min = max(1, ceil_div(2 * E * element_size, maxws))
        if f_min > E:
            continue  # cannot tile finely enough
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
