"""The five workloads: sizes, inputs, and the public entry point each drives.

A workload knows how to generate its inputs from a seed, build the scheme
and engine the caller would build, submit one job through the public
entry point, and check the result.  ``plan`` describes the same job to
the layer probes (which scheme, pair function, kernel, aggregator and
payload routing the entry point uses) so they can call each layer
directly on the workload's own inputs.

Each workload has two sizes: the full one ``BENCHMARK.json`` measures, and
a smoke one (~1/10 of the pairs) for ``run.py --smoke``, never comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

import check
import gen

POOL_WORKERS = 2


def blob_comp(a: np.ndarray, b: np.ndarray) -> int:
    """Cheap pair function over byte blobs: a 1-in-4096 strided dot product.

    Touches bytes across the whole buffer (so a mis-decoded payload shows)
    while costing microseconds — the blob workload measures moving bytes,
    not computing on them.
    """
    return int(a[::4096].astype(np.int64) @ b[::4096].astype(np.int64))


def _inner_product(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


@dataclass
class Plan:
    """What one job does, layer by layer — the probes' view of a workload."""

    scheme: Any
    payloads: list  #: element payloads in id order, as the pipeline sees them
    comp: Any
    kernel: Any  #: the ``kernel=`` the entry point passes down
    cached: bool  #: payloads ride the distributed cache; ids are shuffled
    aggregator: Any
    threshold: float | None = None  #: sketch-pruned threshold join when set
    #: what the entry point does with the merged ``{eid: Element}`` map before
    #: returning (None: it returns the map as is)
    assemble: Any = None


class Workload:
    name = ""
    why = ""
    pooled = False
    warmups = 1
    full_sizes: dict = {}
    smoke_sizes: dict = {}

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self._sizes = self.smoke_sizes if smoke else self.full_sizes

    # -- what the caller does ------------------------------------------------------
    def inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def scheme(self) -> Any:
        """The scheme the caller builds and hands to the entry point (or None)."""
        return None

    def engine(self, *, serial: bool = False, trace_sink: Any = None, **knobs: Any) -> Any:
        """The engine the caller builds; ``serial``/``knobs`` select a variant."""
        from repro import MultiprocessEngine, SerialEngine

        if self.pooled and not serial:
            return MultiprocessEngine(max_workers=POOL_WORKERS, trace_sink=trace_sink, **knobs)
        return SerialEngine(trace_sink=trace_sink)

    def submit(self, inputs: Any, scheme: Any, engine: Any, trace_sink: Any = None) -> Any:
        """One job through the public entry point; returns its result."""
        raise NotImplementedError

    # -- correctness ---------------------------------------------------------------
    def reference(self, inputs: Any) -> Any:
        raise NotImplementedError

    def verify(self, output: Any, reference: Any) -> str | None:
        """``None`` when ``output`` matches ``reference``, else a one-line reason."""
        raise NotImplementedError

    # -- probes --------------------------------------------------------------------
    #: informational variants: metric name -> engine() keyword arguments
    variants: dict[str, dict] = {}

    def job_scheme(self, inputs: Any) -> Any:
        """The scheme the job runs under (the caller's, unless the entry point picks it)."""
        return self.scheme()

    def plan(self, inputs: Any, scheme: Any) -> Plan:
        """Describe the job to the probes; ``scheme`` comes from :meth:`job_scheme`."""
        raise NotImplementedError

    @property
    def sizes(self) -> dict:
        return dict(self._sizes)

    @property
    def v(self) -> int:
        return self._sizes["v"]

    @property
    def pairs(self) -> int:
        return self.v * (self.v - 1) // 2


class CovRecordsSerial(Workload):
    name = "cov-records-serial"
    why = (
        "900x256 rows, BlockScheme h=12, SerialEngine: payloads cross the shuffle as ~11k small "
        "records and every pair is materialised, so per-record sizing/sort/bookkeeping dominate"
    )

    full_sizes = {"v": 900, "dim": 256, "h": 12}
    smoke_sizes = {"v": 280, "dim": 64, "h": 6}

    def inputs(self, seed):
        return gen.dense_matrix(self.v, self._sizes["dim"], seed)

    def scheme(self):
        from repro import BlockScheme

        return BlockScheme(self.v, self._sizes["h"])

    def submit(self, inputs, scheme, engine, trace_sink=None):
        from repro.apps.covariance import covariance_via_pairwise

        return covariance_via_pairwise(inputs, scheme, engine=engine, kernel="auto")

    def reference(self, inputs):
        return check.covariance_reference(inputs)

    verify = staticmethod(check.check_covariance)

    def plan(self, inputs, scheme):
        from repro.apps.covariance import assemble_covariance, center_rows, row_inner_product
        from repro.core.aggregate import ConcatAggregator
        from repro.core.element import results_matrix

        rows = center_rows(inputs)
        return Plan(
            scheme, rows, row_inner_product, "auto", False, ConcatAggregator(),
            assemble=lambda merged: assemble_covariance(results_matrix(merged), rows),
        )


class KnnKernelPool(Workload):
    name = "knn-kernel-pool"
    pooled = True
    why = (
        "800x512 points, k=10, BlockScheme h=10, 2-worker pool: the gather-bound euclidean kernel "
        "is the largest layer and top-k keeps job 2 small; a kernel or pool change shows here"
    )
    K = 10
    variants = {"variant.serial_wall_ratio": {"serial": True}}

    full_sizes = {"v": 800, "dim": 512, "h": 10}
    smoke_sizes = {"v": 250, "dim": 128, "h": 5}

    def inputs(self, seed):
        return gen.points(self.v, self._sizes["dim"], seed)

    def scheme(self):
        from repro import BlockScheme

        return BlockScheme(self.v, self._sizes["h"])

    def submit(self, inputs, scheme, engine, trace_sink=None):
        from repro.apps.knn import knn_graph

        return knn_graph(inputs, self.K, scheme, engine=engine, kernel="auto")

    def reference(self, inputs):
        return check.knn_reference(inputs, self.K)

    verify = staticmethod(check.check_knn)

    def plan(self, inputs, scheme):
        import heapq

        from repro.apps.dbscan import euclidean_distance
        from repro.core.aggregate import TopKAggregator

        def neighbours(merged):  # knn_graph's own selection over the capped result maps
            return {
                eid: heapq.nsmallest(self.K, element.results.items(), key=lambda kv: (kv[1], kv[0]))
                for eid, element in merged.items()
            }

        return Plan(
            scheme, list(inputs), euclidean_distance, "auto", False, TopKAggregator(self.K),
            assemble=neighbours,
        )


class DocsimJoinPruned(Workload):
    name = "docsim-join-pruned"
    pooled = True
    why = (
        "1200 tf-idf docs, BlockScheme h=24, 2-worker pool, threshold 0.7 with sketch pruning: "
        "payloads ride the distributed cache, >90% of pairs are pruned before the CSR kernel"
    )
    THRESHOLD = 0.7
    variants = {
        "variant.serial_wall_ratio": {"serial": True},
        "variant.shm_wall_ratio": {"data_plane": "shm"},
    }

    full_sizes = {"v": 1200, "h": 24}
    smoke_sizes = {"v": 380, "h": 8}

    def inputs(self, seed):
        return gen.tfidf_documents(self.v, seed)

    def scheme(self):
        from repro import BlockScheme

        return BlockScheme(self.v, self._sizes["h"])

    def submit(self, inputs, scheme, engine, trace_sink=None):
        from repro.apps.docsim import pairwise_similarity

        return pairwise_similarity(
            inputs, scheme, engine=engine, threshold=self.THRESHOLD, pruning="sketch"
        )

    def reference(self, inputs):
        return check.threshold_join_reference(inputs, self.THRESHOLD)

    verify = staticmethod(check.check_threshold_join)

    def plan(self, inputs, scheme):
        from repro.apps.docsim import cosine_similarity
        from repro.core.aggregate import ThresholdAggregator
        from repro.core.element import results_matrix

        return Plan(
            scheme,
            list(inputs),
            cosine_similarity,
            "auto",
            True,
            ThresholdAggregator(self.THRESHOLD, keep_below=False),
            threshold=self.THRESHOLD,
            assemble=results_matrix,
        )


class BlobBytesPool(Workload):
    name = "blob-bytes-pool"
    pooled = True
    why = (
        "273 x 128 KiB blobs, quorum scheme (replication 17), 2-worker pool: few huge records, "
        "~1 GB spilled per job, so encode/spill/mmap-read/decode is the work, not the kernel"
    )

    variants = {
        "variant.serial_wall_ratio": {"serial": True},
        "variant.relay_wall_ratio": {"shuffle_mode": "relay"},
    }

    # v = q^2 + q + 1 (q = 16, 7): the quorum scheme's perfect difference sets.
    full_sizes = {"v": 273, "blob_bytes": 128 * 1024}
    smoke_sizes = {"v": 57, "blob_bytes": 32 * 1024}

    def inputs(self, seed):
        return gen.blobs(self.v, self._sizes["blob_bytes"], seed)

    def submit(self, inputs, scheme, engine, trace_sink=None):
        from repro.core.runner import auto_pairwise

        merged, _choice = auto_pairwise(inputs, blob_comp, engine=engine, scheme="quorum")
        return merged

    def reference(self, inputs):
        return check.all_pairs_reference(inputs, blob_comp)

    verify = staticmethod(check.check_pair_map)

    def job_scheme(self, inputs):
        from repro.core import QuorumScheme

        return QuorumScheme(self.v)  # what scheme="quorum" builds

    def plan(self, inputs, scheme):
        from repro.core.aggregate import ConcatAggregator

        return Plan(scheme, list(inputs), blob_comp, None, False, ConcatAggregator())


class TinyAutoLatency(Workload):
    name = "tiny-auto-latency"
    warmups = 20
    why = (
        "60x16 rows through auto_pairwise(auto_engine=True), ~40 ms per job: chooser, engine choice "
        "and two-job set-up are the whole cost, so any fixed per-job overhead shows only here"
    )

    full_sizes = smoke_sizes = {"v": 60, "dim": 16}

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        if smoke:
            self.warmups = 5

    def inputs(self, seed):
        return gen.small_rows(self.v, self._sizes["dim"], seed)

    def engine(self, **_knobs):
        return None  # auto_pairwise sizes and owns its engine

    def submit(self, inputs, scheme, engine, trace_sink=None):
        from repro.apps.covariance import row_inner_product
        from repro.core.runner import auto_pairwise

        if engine is not None:  # the counted run hands in a tapped engine
            merged, _choice = auto_pairwise(inputs, row_inner_product, engine=engine)
        else:
            merged, _choice = auto_pairwise(
                inputs, row_inner_product, auto_engine=True, trace_sink=trace_sink
            )
        return merged

    def reference(self, inputs):
        return check.all_pairs_reference(inputs, _inner_product)

    verify = staticmethod(check.check_pair_map)

    def job_scheme(self, inputs):
        from repro._util import MB, TB
        from repro.core.chooser import choose_scheme
        from repro.core.runner import estimate_element_size

        # auto_pairwise's own defaults (maxws 200 MB, maxis 1 TB, 8 nodes).
        return choose_scheme(
            self.v, estimate_element_size(inputs), maxws=200 * MB, maxis=1 * TB, num_nodes=8
        ).scheme

    def plan(self, inputs, scheme):
        from repro.apps.covariance import row_inner_product
        from repro.core.aggregate import ConcatAggregator

        return Plan(scheme, list(inputs), row_inner_product, None, False, ConcatAggregator())


WORKLOADS = (CovRecordsSerial, KnnKernelPool, DocsimJoinPruned, BlobBytesPool, TinyAutoLatency)
BY_NAME = {cls.name: cls for cls in WORKLOADS}
