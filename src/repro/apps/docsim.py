"""Pairwise document similarity (paper §1's cross-referencing example).

Two routes to the same answer:

1. **Generic pairwise** — tf-idf vectors as element payloads, cosine
   similarity as the pair function, any distribution scheme.  This is the
   paper's own approach: it works even when "the quadratic complexity of
   the pairwise comparison cannot be reduced".

2. **Inverted-index baseline** — the Elsayed/Lin/Oard (ACL-08) method the
   paper's §2 contrasts against: build a term → (doc, weight) postings
   index, evaluate pairs *within a posting list* only, aggregate partial
   products over terms.  For normalized vectors the sum of per-term weight
   products *is* the cosine, and pairs sharing no term are never touched —
   the complexity reduction the paper says is application-specific.

Both are implemented over :mod:`repro.mapreduce`, so the baseline bench
can compare shuffle volumes and evaluation counts, not just results.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter, defaultdict
from typing import Iterator, Mapping, Sequence

from ..kernels import register_comp
from ..mapreduce.job import Context, Job, Mapper, Reducer
from ..mapreduce.pipeline import PipelineResult
from ..mapreduce.runtime import Engine, SerialEngine
from ..sketches import register_sketch

TfIdfVector = dict[str, float]

#: Maximal runs of alphanumeric characters.  ``\w`` matches exactly the
#: characters ``str.isalnum`` accepts plus the underscore, so excluding
#: ``_`` makes the regex reproduce the historical char-by-char tokenizer
#: (isalnum runs, everything else separates) at C speed.
_TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; punctuation-separated."""
    return _TOKEN_RE.findall(text.lower())


def build_tfidf(documents: Sequence[Sequence[str]]) -> list[TfIdfVector]:
    """L2-normalized tf-idf vectors for tokenized documents.

    idf = ln(N / df); documents with no tokens get empty vectors.
    Normalization makes the dot product of two vectors their cosine.
    """
    n = len(documents)
    if n == 0:
        return []
    df: Counter = Counter()
    for tokens in documents:
        df.update(set(tokens))
    vectors: list[TfIdfVector] = []
    for tokens in documents:
        tf = Counter(tokens)
        vector: TfIdfVector = {}
        for term, count in tf.items():
            idf = math.log(n / df[term])
            weight = count * idf
            if weight != 0.0:
                vector[term] = weight
        norm = math.sqrt(sum(w * w for w in vector.values()))
        if norm > 0:
            vector = {term: w / norm for term, w in vector.items()}
        vectors.append(vector)
    return vectors


def cosine_similarity(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Pair function: cosine of two (normalized) sparse vectors."""
    if len(b) < len(a):
        a, b = b, a
    return sum(weight * b.get(term, 0.0) for term, weight in a.items())


# With kernel="auto", pairwise runs over tf-idf dict payloads batch
# through the CSR sparse-matrix kernel instead of one cosine per call.
register_comp(cosine_similarity, "csr-cosine")

# With pruning="sketch", threshold runs bound the sparse dot product by
# per-bucket norms (heavy-hitter terms isolated via count-min).
register_sketch(cosine_similarity, "sparse-cosine")


def pairwise_similarity(
    vectors: Sequence[TfIdfVector],
    scheme,
    *,
    engine: Engine | None = None,
    kernel: object = "auto",
    threshold: float | None = None,
    pruning: str = "off",
) -> dict[tuple[int, int], float]:
    """All-pairs cosine through the generic pairwise pipeline, vectorized.

    Runs through :func:`~repro.core.runner.auto_pairwise` under any
    :class:`~repro.core.scheme.DistributionScheme`, on the payload route
    :func:`~repro.core.chooser.route_payloads` prices for it (the one-job
    cached plan when the scheme replicates more than the node count or
    broadcasts, the two-job shuffle otherwise), with the CSR
    cosine kernel selected by default; returns the canonical
    ``(i, j) → cosine`` map (i > j, 1-indexed), directly comparable to
    :func:`elsayed_similarity` and :func:`brute_force_similarity`.  Pass
    ``kernel=None`` to force the scalar pair loop.

    ``threshold=`` turns this into a similarity join: only pairs with
    cosine above the threshold are returned (the
    :func:`brute_force_similarity` contract), and ``pruning="sketch"``
    skips pairs whose bucket-norm bound proves they cannot qualify — a
    sound bound, so the result is identical to the unpruned join
    (DESIGN.md §3.1.7).
    """
    from ..core.element import PairResults
    from ..core.runner import auto_pairwise

    merged, _choice = auto_pairwise(
        vectors,
        cosine_similarity,
        scheme=scheme,
        engine=engine,
        kernel=kernel,
        threshold=threshold,
        pruning=pruning,
    )
    return PairResults.of(merged).pairs()


# ---------------------------------------------------------------------------
# Elsayed et al. inverted-index baseline, as two MR jobs
# ---------------------------------------------------------------------------

class IndexMapper(Mapper):
    """Job 1 map: (doc_id, tfidf vector) → (term, (doc_id, weight))."""

    def map(self, key: int, value: TfIdfVector, context: Context) -> None:
        for term, weight in value.items():
            context.emit(term, (key, weight))


class PostingsPairReducer(Reducer):
    """Job 1 reduce: emit per-term partial products for doc pairs.

    For each posting list, every pair of documents sharing the term
    contributes ``w_i · w_j`` toward their cosine (Elsayed's Figure 2).
    ``min_df_prune`` drops ultra-common terms whose postings would explode
    quadratically (their idf weight is near zero anyway) — the baseline's
    standard df-cut optimization; None disables it.
    """

    def reduce(self, key: str, values: Iterator, context: Context) -> None:
        prune = context.config.get("df_prune")
        postings = sorted(values)  # by doc id for deterministic pair order
        if prune is not None and len(postings) > prune:
            context.counters.increment("docsim", "pruned_terms")
            return
        for a in range(len(postings)):
            doc_a, weight_a = postings[a]
            for b in range(a):
                doc_b, weight_b = postings[b]
                hi, lo = (doc_a, doc_b) if doc_a > doc_b else (doc_b, doc_a)
                context.emit((hi, lo), weight_a * weight_b)
                context.counters.increment("docsim", "partial_products")


class SimilaritySumReducer(Reducer):
    """Job 2 reduce: sum partial products per pair → final similarity."""

    def reduce(self, key: tuple[int, int], values: Iterator, context: Context) -> None:
        threshold = context.config.get("threshold", 0.0)
        total = sum(values)
        if total > threshold:
            context.emit(key, total)


def elsayed_similarity(
    vectors: Sequence[TfIdfVector],
    *,
    engine: Engine | None = None,
    threshold: float = 0.0,
    df_prune: int | None = None,
    num_reduce_tasks: int = 4,
) -> tuple[dict[tuple[int, int], float], object]:
    """Run the inverted-index pipeline; returns (pair→cosine, PipelineResult).

    Pair keys are canonical ``(i, j)`` with i > j, 1-indexed doc ids —
    directly comparable to :func:`repro.core.pairwise.pairwise_results`.
    Pairs with no shared term are absent (implicitly zero).
    """
    config = {"threshold": threshold, "df_prune": df_prune}
    job1 = Job(
        name="docsim-index-pairs",
        mapper=IndexMapper,
        reducer=PostingsPairReducer,
        num_reducers=num_reduce_tasks,
        config=config,
    )
    job2 = Job(
        name="docsim-sum",
        reducer=SimilaritySumReducer,
        num_reducers=num_reduce_tasks,
        config=config,
    )
    records = [(doc_id + 1, vector) for doc_id, vector in enumerate(vectors)]
    result = PipelineResult((engine or SerialEngine()).run_chain([job1, job2], records))
    return dict(result.records), result


def brute_force_similarity(
    vectors: Sequence[TfIdfVector], *, threshold: float = 0.0
) -> dict[tuple[int, int], float]:
    """Single-machine oracle: all-pairs cosine above threshold."""
    out: dict[tuple[int, int], float] = {}
    for i in range(1, len(vectors) + 1):
        for j in range(1, i):
            sim = cosine_similarity(vectors[i - 1], vectors[j - 1])
            if sim > threshold:
                out[(i, j)] = sim
    return out


def most_similar(
    similarities: Mapping[tuple[int, int], float], doc: int, k: int = 5
) -> list[tuple[int, float]]:
    """Top-k most similar documents to ``doc`` from a pair→cosine map."""
    scores: dict[int, float] = defaultdict(float)
    for (i, j), sim in similarities.items():
        if i == doc:
            scores[j] = max(scores[j], sim)
        elif j == doc:
            scores[i] = max(scores[i], sim)
    # heapq.nlargest is O(v log k) vs O(v log v) for a full sort; the key
    # (sim, -id) reproduces the historical (-sim, id) ascending order.
    return heapq.nlargest(k, scores.items(), key=lambda item: (item[1], -item[0]))
