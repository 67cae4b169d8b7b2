#!/usr/bin/env python
"""Quickstart: parallel pairwise computation in a few lines.

Evaluates a symmetric function on all pairs of a small dataset under each
of the paper's three distribution schemes, shows that they produce the
same results, and prints each scheme's Table-1 characteristics.

Run:  python examples/quickstart.py
"""

from repro import (
    KB,
    BlockScheme,
    BroadcastScheme,
    DesignScheme,
    PairwiseComputation,
)


def distance(a: float, b: float) -> float:
    """The pairwise function: any symmetric computation over two payloads."""
    return abs(a - b)


def main() -> None:
    # A dataset is just a list of payloads; elements get ids 1..v.
    data = [float((x * 17 + 5) % 101) for x in range(60)]
    v = len(data)

    schemes = [
        BroadcastScheme(v, num_tasks=8),  # §5.1: replicate all, split pairs
        BlockScheme(v, h=5),              # §5.2: tile the pair matrix
        DesignScheme(v),                  # §5.3: projective-plane working sets
    ]

    reference = None
    for scheme in schemes:
        computation = PairwiseComputation(scheme, distance)
        # run() executes the paper's two MapReduce jobs: distribute+compute,
        # then aggregate. The result maps element id -> Element with the
        # pairwise results against every other element.
        elements = computation.run(data)
        pairs = elements.pairs()

        if reference is None:
            reference = pairs
        assert pairs == reference, "schemes must agree pair-for-pair"

        print(scheme.describe())
        print("   ", scheme.metrics().summary(element_size=100 * KB))
        sample = elements[1]
        closest = min(sample.results.items(), key=lambda kv: kv[1])
        print(f"    element 1: {len(sample.results)} results, "
              f"closest partner s{closest[0]} at distance {closest[1]}\n")

    total = v * (v - 1) // 2
    print(f"All {len(schemes)} schemes computed the same {total} pairs exactly once.")


if __name__ == "__main__":
    main()
