"""The pair relation as an array: ``pair_array`` is what every scheme implements.

Each of the seven scheme classes builds a task's pairs as one ``(n, 2)``
int64 array in closed form; ``get_pairs`` is the base class's list view
of it.  ``DIGESTS`` pins every task's rows, in order, to what the
tuple-building ``get_pairs`` of the commit before returned (through
``pair_index_array``), so a vectorised construction that reorders,
drops or duplicates a row fails here before any engine runs.  Block,
design, bipartite block and a schedule's round build that array as the
rows of their ``pair_tiles`` (triangles and cross products), so the
digests pin the tiles' pairs too.  The ``design-gf`` rows (planes of non-prime order,
built over GF(q)) came later: their digests were recorded from the
``get_pairs`` list view.
"""

import hashlib

import numpy as np
import pytest

from repro.core.bipartite import BipartiteBlockScheme, BipartiteBroadcastScheme
from repro.core.block import BlockScheme
from repro.core.broadcast import BroadcastScheme
from repro.core.design import DesignScheme
from repro.core.hierarchical import HierarchicalBlockScheme, SequentialDesignSchedule
from repro.core.quorum import QuorumScheme
from repro.core.scheme import Cross, Rows, Triangle, tile_rows


def heavy_tailed(v):
    return [1 + (eid * 7919) % 97 + (5000 if eid % 11 == 0 else 0) for eid in range(1, v + 1)]


#: case → the schemes it covers (a schedule contributes every round)
CASES = {
    "block-10-3-ragged": lambda: [BlockScheme(10, 3)],
    "block-30-3": lambda: [BlockScheme(30, 3)],
    "block-2-2-empty-diagonals": lambda: [BlockScheme(2, 2)],
    "block-37-5-paired-ragged": lambda: [BlockScheme(37, 5, pair_diagonals=True)],
    "block-24-4-paired": lambda: [BlockScheme(24, 4, pair_diagonals=True)],
    "broadcast-10-4": lambda: [BroadcastScheme(10, 4)],
    "broadcast-57-7": lambda: [BroadcastScheme(57, 7)],
    "broadcast-5-20-empty-tasks": lambda: [BroadcastScheme(5, 20)],
    "broadcast-2-1": lambda: [BroadcastScheme(2, 1)],
    "quorum-7": lambda: [QuorumScheme(7)],
    "quorum-16-even": lambda: [QuorumScheme(16)],
    "quorum-31": lambda: [QuorumScheme(31)],
    "quorum-40-even-sizes": lambda: [QuorumScheme(40, element_sizes=heavy_tailed(40))],
    "quorum-33-sizes": lambda: [QuorumScheme(33, element_sizes=heavy_tailed(33))],
    "design-7": lambda: [DesignScheme(7)],
    "design-13": lambda: [DesignScheme(13)],
    "design-20-truncated": lambda: [DesignScheme(20)],
    "design-31": lambda: [DesignScheme(31)],
    "design-gf-21": lambda: [DesignScheme(21, allow_prime_powers=True)],
    "design-gf-70-truncated": lambda: [DesignScheme(70, allow_prime_powers=True)],
    "bipartite-broadcast-1-1-1-one-pair": lambda: [BipartiteBroadcastScheme(1, 1, 1)],
    "bipartite-broadcast-1-1-3-empty-tasks": lambda: [BipartiteBroadcastScheme(1, 1, 3)],
    "bipartite-broadcast-3-4-5": lambda: [BipartiteBroadcastScheme(3, 4, 5)],
    "bipartite-broadcast-7-5-3": lambda: [BipartiteBroadcastScheme(7, 5, 3)],
    "bipartite-block-1-1-one-pair": lambda: [BipartiteBlockScheme(1, 1, 1, 1)],
    "bipartite-block-6-9-2-3": lambda: [BipartiteBlockScheme(6, 9, 2, 3)],
    "bipartite-block-8-3-4-1": lambda: [BipartiteBlockScheme(8, 3, 4, 1)],
    "bipartite-block-7-10-3-4-ragged": lambda: [BipartiteBlockScheme(7, 10, 3, 4)],
    "rounds-hierarchical-40-4-2": lambda: list(HierarchicalBlockScheme(40, 4, 2).rounds()),
    "rounds-hierarchical-25-3-3": lambda: list(HierarchicalBlockScheme(25, 3, 3).rounds()),
    "rounds-hierarchical-6-6-1": lambda: list(HierarchicalBlockScheme(6, 6, 1).rounds()),
    "rounds-sequential-design-13-3": lambda: list(
        SequentialDesignSchedule(DesignScheme(13), 3).rounds()
    ),
}

#: the seven classes the cases must reach, each at three or more sizes
CLASSES = {
    "BlockScheme", "BroadcastScheme", "QuorumScheme", "DesignScheme",
    "BipartiteBroadcastScheme", "BipartiteBlockScheme", "Round",
}


def tasks(case):
    """``(scheme, task, members)`` for every task of every scheme of a case."""
    for scheme in CASES[case]():
        for task in range(scheme.num_tasks):
            yield scheme, task, scheme.subset_members(task)


def digest(case, rows_of):
    """Every task's row count and rows, in task order, hashed."""
    h = hashlib.sha256()
    for scheme, task, members in tasks(case):
        rows = np.ascontiguousarray(rows_of(scheme, task, members), dtype="<i8")
        h.update(f"{task}:{len(rows)};".encode())
        h.update(rows.tobytes())
    return h.hexdigest()[:16]


#: recorded from ``pair_index_array(scheme.get_pairs(task, members))`` before
#: ``pair_array`` existed
DIGESTS = {
    "block-10-3-ragged": "f24acd1ba12f0b34",
    "block-30-3": "4e26b0e948fbb9c7",
    "block-2-2-empty-diagonals": "692de943359cd244",
    "block-37-5-paired-ragged": "6097fa6f8d6ef4b9",
    "block-24-4-paired": "f619205a7c344b84",
    "broadcast-10-4": "b749d588c82a5589",
    "broadcast-57-7": "51acc06e8809e6d0",
    "broadcast-5-20-empty-tasks": "07b58c6e8aef98a1",
    "broadcast-2-1": "b71e37be3795359e",
    "quorum-7": "85802dc69d05867e",
    "quorum-16-even": "7a44e4386a736a62",
    "quorum-31": "84ce98da4ddac37b",
    "quorum-40-even-sizes": "eb733de88cd5842a",
    "quorum-33-sizes": "c695ff8fc693d9c3",
    "design-7": "868dd0f0b58a4ecb",
    "design-13": "ec29bf40d2b675d2",
    "design-20-truncated": "96353f8c7e5f9ead",
    "design-31": "5293e1cb29e435cc",
    "design-gf-21": "7c6bef7cedbe6793",
    "design-gf-70-truncated": "1bdc30a50d4554bd",
    "bipartite-broadcast-1-1-1-one-pair": "b71e37be3795359e",
    "bipartite-broadcast-1-1-3-empty-tasks": "c4bd7aa48b6e95b5",
    "bipartite-broadcast-3-4-5": "d860418c052908a0",
    "bipartite-broadcast-7-5-3": "120ea7566f21328d",
    "bipartite-block-1-1-one-pair": "b71e37be3795359e",
    "bipartite-block-6-9-2-3": "e5e109d21b68bbc2",
    "bipartite-block-8-3-4-1": "559edf78d5302eb3",
    "bipartite-block-7-10-3-4-ragged": "6992c0f0a1e583df",
    "rounds-hierarchical-40-4-2": "3526fa029f186eb3",
    "rounds-hierarchical-25-3-3": "38cc499bffbeada9",
    "rounds-hierarchical-6-6-1": "21c6716c5349da59",
    "rounds-sequential-design-13-3": "7b5696fde342ff68",
}


def test_every_class_is_covered_at_three_sizes():
    seen = {}
    for case in CASES:
        for scheme in CASES[case]():
            seen.setdefault(type(scheme).__name__, set()).add(case)
    assert set(seen) == CLASSES
    assert {name: len(cases) for name, cases in seen.items() if len(cases) < 3} == {}
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_are_the_ones_recorded_from_get_pairs(case):
    assert digest(case, lambda s, t, m: s.pair_array(t, m)) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_int64_n_by_2_larger_id_first(case):
    empty = 0
    for scheme, task, members in tasks(case):
        rows = scheme.pair_array(task, members)
        assert type(rows) is np.ndarray and rows.dtype == np.int64
        assert rows.ndim == 2 and rows.shape[1] == 2
        assert bool(np.all(rows[:, 0] > rows[:, 1]))
        empty += len(rows) == 0
    if "empty" in case:
        assert empty, "the case was named for its empty tasks and has none"


@pytest.mark.parametrize("case", sorted(CASES))
def test_get_pairs_is_the_list_view(case):
    for scheme, task, members in tasks(case):
        pairs = scheme.get_pairs(task, members)
        assert pairs == [tuple(row) for row in scheme.pair_array(task, members).tolist()]
        assert all(type(pair) is tuple for pair in pairs)
        assert all(type(eid) is int for pair in pairs for eid in pair)


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_empty_task_is_zero_by_two(case):
    for scheme, task, members in tasks(case):
        if not scheme.task_profile(task).num_evaluations:
            assert scheme.pair_array(task, members).shape == (0, 2)
            assert scheme.get_pairs(task, members) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_task_ids_out_of_range_raise(case):
    for scheme in CASES[case]():
        for bad in (-1, scheme.num_tasks):
            with pytest.raises(ValueError, match="out of range"):
                scheme.pair_array(bad)
            with pytest.raises(ValueError, match="out of range"):
                scheme.get_pairs(bad)


#: the classes whose tasks are tiles of the pair matrix; the rest are rows
TILED = {"BlockScheme", "DesignScheme", "BipartiteBlockScheme", "Round"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pair_array_is_the_rows_of_the_tiles(case):
    """One construction: tile-shaped schemes build ``pair_array`` from ``pair_tiles``."""
    for scheme, task, members in tasks(case):
        tiles = scheme.pair_tiles(task, members)
        shapes = {type(tile) for tile in tiles}
        assert shapes <= ({Triangle, Cross} if type(scheme).__name__ in TILED else {Rows})
        assert np.array_equal(tile_rows(tiles), scheme.pair_array(task, members))
        for tile in tiles:  # ascending, and members of the task: a tile reads matrix slices
            for side in tile if isinstance(tile, (Triangle, Cross)) else ():
                assert list(side) == sorted(side) and set(side) <= set(members)
