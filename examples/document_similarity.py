#!/usr/bin/env python
"""Cross-document similarity (paper §1, example 2; §2's baseline contrast).

Computes all-pairs cosine similarity over tf-idf document vectors twice:

1. with the paper's *generic* pairwise pipeline (design scheme) — works
   for any pair function, pays the full v(v−1)/2;
2. with the Elsayed-et-al *inverted-index* baseline the paper's related
   work cites — cheaper, but only because this application lets document
   pairs without shared terms be skipped.

Prints agreement plus the work each method did.

Run:  python examples/document_similarity.py
"""

from repro import DesignScheme, PairwiseComputation
from repro.apps import build_tfidf, cosine_similarity, elsayed_similarity, most_similar
from repro.core.pairwise import EVALUATIONS, PAIRWISE_GROUP
from repro.workloads import make_documents

V = 50


def main() -> None:
    documents = make_documents(
        V, vocabulary=1500, length=40, num_topics=5, topic_strength=0.7, seed=7
    )
    vectors = build_tfidf(documents)

    # Route 1: generic pairwise under the design scheme.
    computation = PairwiseComputation(DesignScheme(V), cosine_similarity)
    merged, pipeline = computation.run(vectors, return_pipeline=True)
    generic = merged.pairs()
    generic_evals = pipeline.counters.get(PAIRWISE_GROUP, EVALUATIONS)

    # Route 2: the §2 baseline (term postings → per-term pair products).
    baseline, result = elsayed_similarity(vectors, threshold=1e-12)
    partials = result.counters.get("docsim", "partial_products")

    mismatches = [
        pair
        for pair, sim in baseline.items()
        if abs(generic[pair] - sim) > 1e-9
    ]
    assert not mismatches, f"methods disagree on {mismatches[:3]}"

    print(f"{V} documents, {sum(len(d) for d in documents)} tokens total")
    print(f"  generic pairwise : {generic_evals} cosine evaluations "
          f"(the full triangle)")
    print(f"  inverted index   : {partials} per-term partial products, "
          f"{len(baseline)} non-zero pairs reported")
    print("  both methods agree on every shared-term pair ✓\n")

    query = 1
    print(f"documents most similar to d{query}:")
    for doc, sim in most_similar(generic, query, k=5):
        shared = set(vectors[query - 1]) & set(vectors[doc - 1])
        print(f"  d{doc:<3d} cosine={sim:.3f}  shared terms: {len(shared)}")


if __name__ == "__main__":
    main()
