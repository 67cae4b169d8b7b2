"""Two-set pairwise computation (the paper's §1 generalization).

The paper notes "it is possible to generalize some of the approaches such
that elements of one set can be paired with elements of another set" —
the R × S cross product (a θ-join's evaluation pattern) instead of the
S × S triangle.  This module carries that generalization through:

- :class:`BipartiteBroadcastScheme` — one side (the smaller, by
  convention R) is replicated to every task; the rectangle of pairs is
  enumerated row-major and chunked, exactly like §5.1's triangle chunks.
- :class:`BipartiteBlockScheme` — the rectangle is tiled into an
  ``h_r × h_s`` grid of blocks, each task receiving one R-chunk and one
  S-chunk; replication is h_s for R-elements and h_r for S-elements
  (§5.2 without the diagonal special case, which a rectangle doesn't
  have).

There is no natural design-scheme analogue: a projective plane's
exactly-once property is about 2-subsets of *one* point set.  (The
algebraic counterpart — transversal designs / orthogonal arrays — reduces
to exactly the grid tiling the block scheme already provides.)

Element addressing: both sets live in the scheme's one id space, side S
first — S's k-th element is id ``k``, R's k-th is ``vs + k``
(:meth:`BipartiteScheme.eid`) — so a cross pair's canonical form
``(vs + r, s)``, larger id first, evaluates ``comp(r, s)`` like any other
pair.  A two-set scheme is then an ordinary
:class:`~repro.core.scheme.DistributionScheme` whose declared universe
(:meth:`~repro.core.scheme.DistributionScheme.required_pairs`) is the
rectangle instead of the triangle: the one validator, executor and
simulator take it as they take a flat scheme.
"""

from __future__ import annotations

from typing import Sequence

from .._util import ceil_div
from .element import results_matrix
from .pairwise import PairwiseComputation
from .scheme import DistributionScheme, Pair, SchemeMetrics

CrossPair = tuple[int, int]  #: (r_id, s_id), each 1-based within its side


class BipartiteScheme(DistributionScheme):
    """Partition the rectangle R × S into tasks, each cross pair exactly once."""

    name = "bipartite-abstract"

    def __init__(self, vr: int, vs: int):
        if vr < 1 or vs < 1:
            raise ValueError(f"both sides need >= 1 element, got vr={vr}, vs={vs}")
        super().__init__(vr + vs)
        self.vr = vr
        self.vs = vs

    def eid(self, side: str, element_id: int) -> int:
        """Id, in the scheme's one id space, of a side's ``element_id``-th element."""
        if side not in ("r", "s"):
            raise ValueError(f"side must be 'r' or 's', got {side!r}")
        bound = self.vr if side == "r" else self.vs
        if not 1 <= element_id <= bound:
            raise ValueError(
                f"element id {element_id} out of range [1, {bound}] for side {side}"
            )
        return element_id + self.vs if side == "r" else element_id

    def required_pairs(self) -> frozenset[Pair]:
        """The rectangle: every R element against every S element."""
        r_ids = range(self.vs + 1, self.v + 1)
        return frozenset((r, s) for r in r_ids for s in range(1, self.vs + 1))

    def describe(self) -> str:
        return f"{self.name}(vr={self.vr}, vs={self.vs}, tasks={self.num_tasks})"


class BipartiteBroadcastScheme(BipartiteScheme):
    """Replicate side R everywhere; chunk the rectangle's pair labels.

    Pair label ``p(r, s) = (s − 1)·vr + r`` enumerates the rectangle
    column-by-column (all of R against s₁, then against s₂, …); task l
    takes labels ``l·h+1 … (l+1)·h`` with ``h = ⌈vr·vs / p⌉``.  Like the
    §5.1 triangle form, every task needs all of R but only the S-slice
    its chunk touches — and R travels once via the distributed cache in
    the one-job implementation.
    """

    name = "bipartite-broadcast"

    def __init__(self, vr: int, vs: int, num_tasks: int):
        super().__init__(vr, vs)
        if num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
        self._num_tasks = num_tasks
        self.chunk = ceil_div(vr * vs, num_tasks)

    @property
    def num_tasks(self) -> int:
        return self._num_tasks

    def task_labels(self, subset_id: int) -> range:
        self._check_subset_id(subset_id)
        total = self.vr * self.vs
        lo = subset_id * self.chunk + 1
        hi = min((subset_id + 1) * self.chunk, total)
        return range(lo, hi + 1)

    def label_to_pair(self, p: int) -> CrossPair:
        if not 1 <= p <= self.vr * self.vs:
            raise ValueError(f"label {p} out of range [1, {self.vr * self.vs}]")
        s_id = (p - 1) // self.vr + 1
        r_id = (p - 1) % self.vr + 1
        return (r_id, s_id)

    def get_pairs(self, subset_id: int, members: Sequence[int] | None = None) -> list[Pair]:
        labels = self.task_labels(subset_id)
        return [(self.vs + r, s) for r, s in map(self.label_to_pair, labels)]

    def get_subsets(self, element_id: int) -> list[int]:
        self._check_element_id(element_id)
        if element_id > self.vs:
            return list(range(self._num_tasks))  # R is broadcast
        # Side S: only tasks whose label chunk touches column element_id.
        first_label = (element_id - 1) * self.vr + 1
        last_label = element_id * self.vr
        first_task = (first_label - 1) // self.chunk
        last_task = min((last_label - 1) // self.chunk, self._num_tasks - 1)
        return list(range(first_task, last_task + 1))

    def subset_members(self, subset_id: int) -> list[int]:
        s_ids = sorted({(p - 1) // self.vr + 1 for p in self.task_labels(subset_id)})
        return [*s_ids, *range(self.vs + 1, self.v + 1)]

    def metrics(self) -> SchemeMetrics:
        p = self._num_tasks
        # Every S element is in ⌈its column span⌉ tasks ≈ 1 + vr/chunk.
        replicas = self.vr * p + sum(len(self.get_subsets(s)) for s in range(1, self.vs + 1))
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=p,
            communication_records=2 * replicas,
            replication_factor=replicas / self.v,
            working_set_elements=max(len(self.subset_members(t)) for t in range(p)),
            evaluations_per_task=self.vr * self.vs / p,
        )


class BipartiteBlockScheme(BipartiteScheme):
    """Tile R × S with an ``h_r × h_s`` grid of rectangular blocks.

    Task ``(a, b)`` (0-indexed, id ``a·h_s + b``) pairs R-chunk ``a``
    against S-chunk ``b``: every R element appears in ``h_s`` tasks and
    every S element in ``h_r`` — the bipartite analogue of §5.2's
    "replication factor h".
    """

    name = "bipartite-block"

    def __init__(self, vr: int, vs: int, hr: int, hs: int):
        super().__init__(vr, vs)
        if not 1 <= hr <= vr:
            raise ValueError(f"hr must be in [1, {vr}], got {hr}")
        if not 1 <= hs <= vs:
            raise ValueError(f"hs must be in [1, {vs}], got {hs}")
        self.er = ceil_div(vr, hr)
        self.es = ceil_div(vs, hs)
        self.hr = ceil_div(vr, self.er)  # effective factors
        self.hs = ceil_div(vs, self.es)

    @property
    def num_tasks(self) -> int:
        return self.hr * self.hs

    def _chunk(self, side: str, index: int) -> range:
        """Element ids of chunk ``index`` (0-indexed) on a side."""
        edge, bound = (self.er, self.vr) if side == "r" else (self.es, self.vs)
        lo = self.eid(side, index * edge + 1)
        return range(lo, lo + min(edge, bound - index * edge))

    def task_position(self, subset_id: int) -> tuple[int, int]:
        self._check_subset_id(subset_id)
        return divmod(subset_id, self.hs)

    def get_pairs(self, subset_id: int, members: Sequence[int] | None = None) -> list[Pair]:
        a, b = self.task_position(subset_id)
        return [(r, s) for r in self._chunk("r", a) for s in self._chunk("s", b)]

    def get_subsets(self, element_id: int) -> list[int]:
        self._check_element_id(element_id)
        if element_id > self.vs:
            a = (element_id - self.vs - 1) // self.er
            return [a * self.hs + b for b in range(self.hs)]
        b = (element_id - 1) // self.es
        return [a * self.hs + b for a in range(self.hr)]

    def subset_members(self, subset_id: int) -> list[int]:
        a, b = self.task_position(subset_id)
        return [*self._chunk("s", b), *self._chunk("r", a)]

    def metrics(self) -> SchemeMetrics:
        replicas = self.vr * self.hs + self.vs * self.hr
        return SchemeMetrics(
            scheme=self.name,
            v=self.v,
            num_tasks=self.num_tasks,
            communication_records=2 * replicas,
            replication_factor=replicas / self.v,
            working_set_elements=self.er + self.es,
            evaluations_per_task=float(self.er * self.es),
        )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_bipartite(
    r_payloads: Sequence,
    s_payloads: Sequence,
    comp,
    scheme: BipartiteScheme,
    *,
    engine=None,
) -> dict[CrossPair, object]:
    """Evaluate ``comp(r, s)`` on every cross pair under the scheme.

    One :class:`~repro.core.pairwise.PairwiseComputation` over S's payloads
    followed by R's: the in-process reference without an ``engine``, the
    two-job pipeline on it with one.  Returns ``{(r_id, s_id): result}``.
    """
    if len(r_payloads) != scheme.vr or len(s_payloads) != scheme.vs:
        raise ValueError(
            f"payload sizes ({len(r_payloads)}, {len(s_payloads)}) do not "
            f"match scheme ({scheme.vr}, {scheme.vs})"
        )
    computation = PairwiseComputation(scheme, comp, engine=engine)
    dataset = [*s_payloads, *r_payloads]
    merged = computation.run_local(dataset) if engine is None else computation.run(dataset)
    return {(i - scheme.vs, j): result for (i, j), result in results_matrix(merged).items()}


def brute_force_bipartite(r_payloads: Sequence, s_payloads: Sequence, comp):
    """Oracle: the full rectangle, directly."""
    return {
        (r + 1, s + 1): comp(r_payloads[r], s_payloads[s])
        for r in range(len(r_payloads))
        for s in range(len(s_payloads))
    }
