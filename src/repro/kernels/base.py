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
they must be picklable and stateless across calls.  Conversion state
lives on the payload store, not the kernel: an array kernel names its
matrix form (``to_matrix``) and a :class:`WorkingSetStore` builds and
keeps it — once per process per job for the cached plan's store.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .._util import distinct_sorted

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
    """``{eid: payload}`` plus the matrix forms the array kernels read.

    A ``dict`` — so every kernel written against a plain payload store works
    on it unchanged — that is either a **root** or a **view** of one:

    - the cached plan's payload store of every participant is a root, and
      so is a working set admitted on the shuffle plan (its payloads came
      with it);
    - a working set read from the cached store is a view
      (:meth:`view`): its members' ids and payloads, reading the root's
      matrix forms through :meth:`rows`.

    :meth:`form` is a kernel's matrix form of the root — row ``r`` is the
    payload of ``root.ids[r]``, the ``r``-th item — built the first time a kernel asks for it
    with its ``to_matrix`` and kept for the root's lifetime: once per
    process per job for the cached store, once per working set on the
    shuffle plan, never for kernels that read payloads one at a time.
    ``ids`` is the sorted int64 id array.  All of it is read-only.  A store
    pickles as the plain dict it holds — no ids, no forms — so the cache
    costs on the wire what a dict costs.
    """

    __slots__ = ("_ids", "_root", "_forms")

    def __init__(self, ids: np.ndarray | None = None, payloads: Iterable[Any] = ()):
        """``payloads`` in the order of the ascending ``ids``; without ``ids``, a mapping.

        Either way the store holds its items in ascending id order — the
        order of its matrix forms' rows, kept through a pickle.
        """
        if ids is None:
            super().__init__({eid: payloads[eid] for eid in sorted(payloads)})
        else:
            super().__init__(zip(ids.tolist(), payloads))
        self._ids = ids
        self._root: WorkingSetStore | None = None
        self._forms: dict[Callable, Any] = {}

    def __reduce__(self):
        return type(self), (), None, None, iter(self.items())

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = np.fromiter(self, np.int64, len(self))
        return self._ids

    @property
    def root(self) -> WorkingSetStore:
        return self if self._root is None else self._root

    def view(self, ids: np.ndarray) -> WorkingSetStore:
        """The members ``ids`` (ascending) of this store, sharing its root's forms."""
        view = WorkingSetStore(ids, map(self.__getitem__, ids.tolist()))
        view._root = self.root
        return view

    def rows(self, eids: np.ndarray) -> np.ndarray:
        """The root's matrix rows of ``eids``."""
        return np.searchsorted(self.root.ids, eids)

    def form(self, to_matrix: Callable[[list[Any]], Any]) -> Any:
        """The root's matrix form under ``to_matrix``, built on first ask."""
        root = self.root
        matrix = root._forms.get(to_matrix)
        if matrix is None:
            matrix = to_matrix(list(root.values()))
            if isinstance(matrix, np.ndarray):
                matrix.flags.writeable = False
            root._forms[to_matrix] = matrix
        return matrix


def matrix_rows(
    payloads: Mapping[int, Any], pairs: np.ndarray, to_matrix: Callable[[list[Any]], Any]
) -> tuple[Any, np.ndarray, np.ndarray]:
    """A kernel's matrix form of ``payloads`` and the rows of each pair's two ends.

    From a :class:`WorkingSetStore` the form is its root's, built once; from
    any other mapping it is a fresh one over the referenced ids only.
    """
    if isinstance(payloads, WorkingSetStore):
        return payloads.form(to_matrix), payloads.rows(pairs[:, 0]), payloads.rows(pairs[:, 1])
    ids = distinct_sorted(np.sort(pairs, axis=None))
    matrix = to_matrix([payloads[eid] for eid in ids.tolist()])
    return matrix, np.searchsorted(ids, pairs[:, 0]), np.searchsorted(ids, pairs[:, 1])


def stack_rows(rows: Iterable[Any]) -> np.ndarray:
    """Dense 1-D payloads stacked into one ``(k, m)`` float64 matrix.

    ``np.asarray(..., dtype=float)`` on a float64 row is a zero-copy
    pass-through — rows living in an mmapped broadcast or spill file are
    read (never copied) straight from the shared buffer;
    the stack is the store's single gather copy.
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
        ``{eid: payload}`` mapping and may contain more ids than the pairs reference (a
        broadcast task's working set is the whole cached store); kernels must only
        touch referenced ids and never write to the mapping.  From the
        compute steps it is a :class:`WorkingSetStore`: an array kernel
        reads its rows off the store's :meth:`~WorkingSetStore.form`
        (:func:`matrix_rows`) and never writes to it.

        This is the **gather** form: it serves any relation, as rows.  A
        kernel may also offer the **tile** form, ``evaluate_tile(left,
        right)`` → the ``(|L|, |R|)`` array of ``comp(left[a], right[b])``
        over two row blocks of its matrix form — the static
        ``to_matrix(payloads)`` it also names (the dense kernels: one BLAS
        product, :mod:`repro.kernels.dense`; the CSR kernel: one sparse
        product).  The compute steps call it for the
        :class:`~repro.core.scheme.Triangle` and
        :class:`~repro.core.scheme.Cross` tiles a scheme's ``pair_tiles``
        returns, with no pruner and ``symmetric=True``; otherwise, and for
        a kernel without it, they call this method on the tiles' rows.

        Payload arrays may be **read-only zero-copy views** over an
        mmapped broadcast or spill file (see
        :mod:`repro.mapreduce.serialization`): kernels must never write to a
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
