"""The wordcount job the engine tests share.

Lives in a module (not a test file) so pool workers and every test module
import the same mapper and reducer classes under one stable path.
"""

from __future__ import annotations

from repro.mapreduce import Job, Mapper, Reducer

LINES = [
    "the quick brown fox",
    "the lazy dog",
    "the fox jumps over the lazy dog",
]
EXPECTED_COUNTS = {
    "the": 4, "quick": 1, "brown": 1, "fox": 2, "lazy": 2,
    "dog": 2, "jumps": 1, "over": 1,
}


class WordSplitMapper(Mapper):
    def map(self, key, value, context):
        for word in value.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


def wordcount_job(**overrides) -> Job:
    """Wordcount over three reducers; ``overrides`` replace any ``Job`` field."""
    settings = dict(
        name="wordcount", mapper=WordSplitMapper, reducer=SumReducer, num_reducers=3
    )
    settings.update(overrides)
    return Job(**settings)
