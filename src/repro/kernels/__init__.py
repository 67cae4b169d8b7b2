"""repro.kernels — vectorized batch pair-evaluation for the compute phase.

The compute reducers of :mod:`repro.core.pairwise` materialize each
working set's pair relation into an index block and dispatch it to a
:class:`PairKernel`; the built-in kernels below evaluate whole blocks
with NumPy/SciPy instead of one Python call per pair, which is what makes
the paper's replication-vs-computation trade-offs measurable at
realistically large ``v``.

Built-ins (registered here, selectable by name in ``config["kernel"]``):

==================  ========================================================
``scalar``          wrap any ``comp``; bit-identical to the per-pair loop
``dense-dot``       inner products of dense vectors (einsum gather, BLAS tile)
``dense-cosine``    cosine of dense vectors, zero-norm safe
``dense-euclidean`` L2 distance (the kNN/DBSCAN pair function)
``covariance``      centered-row inner products (``dense-dot`` under its own name)
``csr-cosine``      tf-idf dict vectors → one CSR matrix per store (sparse tile)
==================  ========================================================

Applications bind their pair functions via :func:`register_comp` so that
``kernel="auto"`` picks the right kernel from the payload type; anything
unbound (or with an unsupported payload) falls back to ``scalar``.
"""

from .base import PairFunction, PairKernel, ScalarKernel, WorkingSetStore, pair_index_array
from .dense import (
    CovarianceKernel,
    DenseCosineKernel,
    DenseDotKernel,
    DenseEuclideanKernel,
)
from .registry import (
    available_kernels,
    get_kernel,
    kernel_for_comp,
    register_comp,
    register_kernel,
    resolve_kernel,
    select_kernel,
)
from .sparse import CsrCosineKernel

# Built-in kernels are always available by name.  ``replace=True`` keeps
# re-imports (e.g. importlib.reload in tests) idempotent.
register_kernel(DenseDotKernel(), replace=True)
register_kernel(DenseCosineKernel(), replace=True)
register_kernel(DenseEuclideanKernel(), replace=True)
register_kernel(CovarianceKernel(), replace=True)
register_kernel(CsrCosineKernel(), replace=True)

__all__ = [
    "CovarianceKernel",
    "CsrCosineKernel",
    "DenseCosineKernel",
    "DenseDotKernel",
    "DenseEuclideanKernel",
    "PairFunction",
    "PairKernel",
    "ScalarKernel",
    "WorkingSetStore",
    "available_kernels",
    "get_kernel",
    "kernel_for_comp",
    "pair_index_array",
    "register_comp",
    "register_kernel",
    "resolve_kernel",
    "select_kernel",
]
