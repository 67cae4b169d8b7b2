#!/usr/bin/env python
"""The MapReduce substrate standing alone: wordcount.

The pairwise library rides on a complete local MR runtime; this example
shows it is usable as a general-purpose engine — the classic wordcount,
run twice over the same in-memory records:

1. serial engine, native Python mapper/reducer;
2. multiprocess engine (identical results, parallel tasks).

Run:  python examples/mapreduce_wordcount.py
"""

from repro.mapreduce import (
    FRAMEWORK_GROUP,
    Job,
    Mapper,
    MultiprocessEngine,
    Reducer,
    SHUFFLE_RECORDS,
    SerialEngine,
    records_from,
)

LINES = [
    "the quick brown fox jumps over the lazy dog",
    "pairwise element computation with mapreduce",
    "the fox computes pairs the dog aggregates results",
    "every pair exactly once every task balanced",
]


class TokenizeMapper(Mapper):
    def map(self, key, value, context):
        for word in value.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


def main() -> None:
    records = records_from(LINES)  # [(line number, line), ...]
    job = Job(
        name="wordcount",
        mapper=TokenizeMapper,
        reducer=SumReducer,
        num_reducers=3,
    )
    with SerialEngine() as engine:
        serial = engine.run(job, records, num_map_tasks=len(LINES))
    counts = serial.as_dict()
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    print("serial engine:")
    for word, count in top:
        print(f"   {word:<10} {count}")
    shuffled = serial.counters.get(FRAMEWORK_GROUP, SHUFFLE_RECORDS)
    print(f"   shuffle records: {shuffled}\n")

    with MultiprocessEngine(2) as engine:
        parallel = engine.run(job, records, num_map_tasks=len(LINES))
    assert parallel.as_dict() == counts
    assert parallel.records == serial.records
    print("multiprocess engine: identical counts ✓")


if __name__ == "__main__":
    main()
