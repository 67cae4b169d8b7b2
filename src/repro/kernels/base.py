"""The pair-evaluation kernel contract and the scalar fallback.

The paper's cost model (§3, and the bounds literature it sits in — Afrati
et al.'s replication/computation trade-off, Ullman's "some pairs"
problems) treats the per-pair evaluation cost of ``comp(si, sj)`` as the
dominant term of the compute phase.  The reducers of
:mod:`repro.core.pairwise` therefore no longer hard-code a Python-level
``comp`` call per pair: they take a working set's pair relation as the
scheme's index array (``DistributionScheme.pair_array``) and hand the
whole block to a :class:`PairKernel`.

A kernel answers one question — *evaluate this block of pairs over these
payloads* — and is free to vectorize however it likes (NumPy gathers,
sparse-matrix products, BLAS grams).  :class:`ScalarKernel` wraps any
existing pair function in the same interface, evaluating pairs one by one
in block order, so every scheme and application keeps working unchanged;
it is the default and its results are bit-identical to the historical
per-pair loop.

Kernel instances travel inside ``job.config`` to worker processes, so
they must be picklable and stateless across calls (any conversion state
is built per :meth:`~PairKernel.evaluate_block` invocation, i.e. once per
working set).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

PairFunction = Callable[[Any, Any], Any]


def pair_index_array(pairs: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Materialize a pair relation into an ``(n, 2)`` int64 index array.

    Accepts a list of ``(i, j)`` id tuples (what ``scheme.get_pairs``
    returns) or an existing array.  An empty relation becomes a ``(0, 2)``
    array so kernels can rely on the shape unconditionally.  The compute
    steps do not call it: ``scheme.pair_array`` already is this array.
    """
    if isinstance(pairs, np.ndarray):
        arr = pairs.astype(np.int64, copy=False)
    else:
        arr = np.asarray(list(pairs), dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pair index array must have shape (n, 2), got {arr.shape}")
    return arr


class WorkingSetStore(dict):
    """``{eid: payload}`` of one admitted working set, ids ascending.

    What the compute reducers hand :meth:`PairKernel.evaluate_block`
    after taking delivery of a working set: a ``dict`` (so every kernel
    written against a plain payload store works on it unchanged) that
    also knows its members' stacked form.  ``ids`` is the sorted int64 id
    array; ``matrix`` is the ``(k, m)`` float matrix whose row ``r`` is
    the payload of ``ids[r]`` — built the first time a kernel asks for
    it, kept for the working set's remaining calls (the second
    orientation of a non-symmetric run), and never built for kernels
    that read payloads one at a time.  Both are read-only.
    """

    __slots__ = ("ids", "_matrix")

    def __init__(self, ids: np.ndarray, payloads: Iterable[Any]):
        super().__init__(zip(ids.tolist(), payloads))
        self.ids = ids
        self._matrix: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = stack_rows(self.values())
            self._matrix.flags.writeable = False
        return self._matrix


def stack_rows(rows: Iterable[Any]) -> np.ndarray:
    """Dense 1-D payloads stacked into one ``(k, m)`` float64 matrix.

    ``np.asarray(..., dtype=float)`` on a float64 row is a zero-copy
    pass-through — rows living in a shared-memory segment or an mmapped
    spill file are read (never copied) straight from the shared buffer;
    the stack is the working set's single gather copy.
    """
    return np.stack([np.asarray(row, dtype=float) for row in rows])


class PairKernel(abc.ABC):
    """Evaluate a block of pairs over a payload store in one call.

    Implementations are registered under :attr:`name` in
    :mod:`repro.kernels.registry`; the reducers resolve the job's
    ``config["kernel"]`` entry (``None`` → scalar, ``"auto"`` →
    registry selection by pair function, a name or an instance →
    explicit) once per working set and dispatch the whole pair block.
    """

    #: short machine-readable identifier used by the registry
    name: str = "abstract"

    @abc.abstractmethod
    def supports(self, payload: Any) -> bool:
        """Whether a payload of this shape can be evaluated by this kernel.

        Auto-selection probes one sample payload; a ``False`` answer makes
        the dispatch fall back to :class:`ScalarKernel`.
        """

    @abc.abstractmethod
    def evaluate_block(
        self, payloads: Mapping[int, Any], pairs: np.ndarray
    ) -> list[Any] | np.ndarray:
        """Evaluate ``comp(payloads[i], payloads[j])`` for every pair row.

        ``pairs`` is an ``(n, 2)`` int64 array of element ids (a scheme's
        ``pair_array``, possibly pruned); the return value is a list or a
        1-D ndarray of exactly ``n`` results, aligned with the rows.  The
        reducers scatter the block as a whole, as a column: a float64
        ndarray (what the built-in vectorized kernels return) stays one
        all the way to the caller's :class:`~repro.core.element.PairResults`,
        a list becomes a column of its objects, and elements are only ever
        built with Python scalars (``.tolist()``).  ``payloads`` is any
        ``{eid: payload}`` mapping and may contain more ids than the pairs reference (the
        one-job map hands the whole cached store); kernels must only
        touch referenced ids and never write to the mapping.  From the
        two compute reducers it is a :class:`WorkingSetStore`, whose
        ``ids`` / ``matrix`` save an array kernel its own stacking.

        This is the **gather** form: it serves any relation, as rows.  A
        kernel may also offer the **tile** form, ``evaluate_tile(left,
        right)`` → the ``(|L|, |R|)`` array of ``comp(left[a], right[b])``
        over two row blocks of the working set's matrix (the dense kernels
        do: one BLAS product, :mod:`repro.kernels.dense`).  The compute
        steps call it for the :class:`~repro.core.scheme.Triangle` and
        :class:`~repro.core.scheme.Cross` tiles a scheme's ``pair_tiles``
        returns, with no pruner and ``symmetric=True``; otherwise, and for
        a kernel without it, they call this method on the tiles' rows.

        Payload arrays may be **read-only zero-copy views** over a shared
        data plane (a shared-memory segment or an mmapped spill file —
        see :mod:`repro.mapreduce.shm`): kernels must never write to a
        payload buffer, and their ingest conversions must pass matching
        dtypes through as views (``np.asarray`` on a float64 row shares
        memory) rather than forcing private copies.
        """

    def describe(self) -> str:
        """Human-readable kernel description."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()!r})"


class ScalarKernel(PairKernel):
    """Fallback kernel: call the wrapped pair function once per pair.

    Evaluation order, argument order and result objects are exactly those
    of the historical per-pair reducer loop, so runs configured with the
    scalar kernel (the default) are bit-identical to pre-kernel builds.
    The rows are walked as ``pairs.tolist()``: one conversion for the
    block instead of an ndarray row and two ``int()`` calls per pair.
    """

    name = "scalar"

    def __init__(self, comp: PairFunction):
        if not callable(comp):
            raise TypeError(f"comp must be callable, got {type(comp).__name__}")
        self.comp = comp

    def supports(self, payload: Any) -> bool:
        """Any payload the wrapped pair function accepts."""
        return True

    def evaluate_block(
        self, payloads: Mapping[int, Any], pairs: np.ndarray
    ) -> list[Any]:
        comp = self.comp
        return [comp(payloads[i], payloads[j]) for i, j in pairs.tolist()]

    def describe(self) -> str:
        comp_name = getattr(self.comp, "__name__", repr(self.comp))
        return f"scalar({comp_name})"
