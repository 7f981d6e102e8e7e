"""The benchmark's exact oracle agrees with ``dynaalign_ray.oracle``.

    python3 -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from dynaalign_ray import oracle as reference  # noqa: E402
from dynaalign_ray.config import DedupConfig  # noqa: E402
from oracle import exact_clusters, pair_recall  # noqa: E402

CFG = DedupConfig()


def _reference(texts, ids):
    pairs = reference.true_pairs(texts, ids, CFG)
    return pairs, reference.union_find_clusters(pairs, ids)


def _assert_same(texts, ids):
    got = exact_clusters(texts, ids, CFG)
    pairs, labels = _reference(texts, ids)
    assert dict(zip(got["doc_id"].tolist(), got["cluster_id"].tolist())) == labels
    assert set(zip(got["pair_a"].tolist(), got["pair_b"].tolist())) == pairs
    assert len(got["pair_a"]) == len(pairs)  # no pair listed twice
    return got


@pytest.mark.parametrize("boiler_frac", [0.05, 0.25])
def test_matches_reference_on_generated_corpus(boiler_frac):
    from dynaalign_ray.extract import extract_text
    from dynaalign_ray.fixtures import generate_pages
    from dynaalign_ray.hashing import doc_id_from_urls

    pages, _ = generate_pages(400, seed=11, boiler_frac=boiler_frac)
    texts = [extract_text(h) for h in pages.column("html").to_pylist()]
    ids = doc_id_from_urls(pages.column("url").to_pylist()).tolist()
    got = _assert_same(texts, ids)
    assert len(got["pair_a"]) > 0


def _words(seed: int, n: int = 40) -> list[str]:
    rng = np.random.default_rng(seed)
    return [f"w{int(x)}" for x in rng.integers(0, 10_000, n)]


def test_doc_ids_above_2_62():
    base = _words(1)
    near = base[:-1] + ["other"]  # 35 of 37 shingles shared: J = 0.9
    texts = [" ".join(base), " ".join(near), " ".join(_words(2)), " ".join(base)]
    top = (1 << 63) - 1
    ids = [top, (1 << 62) + 5, (1 << 62) + 1, top - 7]
    got = _assert_same(texts, ids)
    labels = dict(zip(got["doc_id"].tolist(), got["cluster_id"].tolist()))
    assert labels[top] == labels[top - 7] == labels[(1 << 62) + 5] == (1 << 62) + 5
    assert labels[(1 << 62) + 1] == (1 << 62) + 1


def test_empty_shingle_sets_stay_singletons():
    short = "too short"  # fewer tokens than shingle_k: empty set
    texts = [short, short, "", " ".join(_words(3)), " ".join(_words(3))]
    ids = [10, 11, 12, 13, 14]
    got = _assert_same(texts, ids)
    assert got["cluster_id"].tolist() == [10, 11, 12, 13, 13]


def test_pair_recall_counts_split_pairs():
    ids = np.array([1, 2, 3], dtype=np.int64)
    a, b = np.array([1, 1]), np.array([2, 3])
    assert pair_recall(ids, np.array([1, 1, 1]), a, b) == 1.0
    assert pair_recall(ids, np.array([1, 1, 3]), a, b) == 0.5
