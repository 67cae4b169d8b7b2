"""Seeded, vectorised input generators for the five e2e workloads.

Every function takes an explicit ``seed`` and returns plain payloads; the
program under test receives only these payloads — never the seed or the
workload name.  Each generator finishes in well under 2 s at the sizes in
``workloads.py``.
"""

from __future__ import annotations

import numpy as np


def dense_matrix(v: int, dim: int, seed: int) -> np.ndarray:
    """``v × dim`` float64 matrix with mild low-rank structure.

    A few shared factors make the covariance entries non-trivial (not all
    ≈ 0), so a wrong assembly cannot hide inside the tolerance.
    """
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(v, 4)) @ rng.normal(size=(4, dim))
    return factors + rng.normal(size=(v, dim))


def points(v: int, dim: int, seed: int) -> list[np.ndarray]:
    """``v`` float64 points in ``dim`` dimensions, Gaussian clusters.

    Continuous coordinates make distance ties a measure-zero event, so
    the kNN reference is unambiguous.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(max(2, v // 50), dim))
    cloud = centers[rng.integers(0, len(centers), size=v)] + rng.normal(size=(v, dim))
    return [cloud[i] for i in range(v)]


def tfidf_documents(
    v: int,
    seed: int,
    *,
    vocabulary: int = 600,
    length: int = 80,
    num_topics: int = 30,
    topic_strength: float = 0.95,
    zipf_s: float = 1.3,
) -> list[dict[str, float]]:
    """L2-normalised tf-idf dicts for a topic-structured corpus.

    Same recipe as ``repro.workloads.generator.make_documents`` +
    ``build_tfidf`` (each token comes from its document's topic slice with
    probability ``topic_strength``, else from a global Zipf law), drawn as
    whole ``v × length`` arrays instead of token by token.  Same-topic
    documents land above cosine 0.7, cross-topic ones near 0, so a
    threshold join keeps a few percent of all pairs.
    """
    rng = np.random.default_rng(seed)
    slice_size = vocabulary // num_topics
    topic = rng.integers(0, num_topics, size=v)
    zipf = 1.0 / np.arange(1, vocabulary + 1, dtype=float) ** zipf_s
    zipf /= zipf.sum()
    from_topic = rng.random((v, length)) < topic_strength
    topical = topic[:, None] * slice_size + rng.integers(0, slice_size, size=(v, length))
    background = rng.choice(vocabulary, size=(v, length), p=zipf)
    tokens = np.where(from_topic, topical, background)

    counts = np.zeros((v, vocabulary), dtype=np.float64)
    np.add.at(counts, (np.repeat(np.arange(v), length), tokens.ravel()), 1.0)
    df = np.count_nonzero(counts, axis=0)
    idf = np.log(v / np.maximum(df, 1))
    weights = counts * idf
    norms = np.sqrt((weights * weights).sum(axis=1, keepdims=True))
    np.divide(weights, norms, out=weights, where=norms > 0)

    words = [f"w{idx}" for idx in range(vocabulary)]
    documents = []
    for row in weights:
        terms = np.flatnonzero(row)
        documents.append({words[t]: float(row[t]) for t in terms})
    return documents


def blobs(v: int, size_bytes: int, seed: int) -> list[np.ndarray]:
    """``v`` uint8 arrays of ``size_bytes`` random bytes each."""
    rng = np.random.default_rng(seed)
    block = rng.integers(0, 256, size=(v, size_bytes), dtype=np.uint8)
    return [block[i] for i in range(v)]


def small_rows(v: int, dim: int, seed: int) -> list[np.ndarray]:
    """``v`` short float64 rows (the paper-scale front-door input)."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(v, dim))
    return [rows[i] for i in range(v)]
