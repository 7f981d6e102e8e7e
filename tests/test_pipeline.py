"""End-to-end flagship pipeline vs the brute-force oracle
(FIXTURES.md invariants 2-5): recall >= 0.99, cluster-assignment match,
determinism across partitionings, resume identity, salted-vs-unsalted
pair-set identity on the planted hot cluster."""

import shutil

import pytest

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.extract import extract_text
from dynaalign_ray.hashing import doc_id_from_urls
from dynaalign_ray.oracle import pair_recall, true_pairs, union_find_clusters
from dynaalign_ray.pipelines.neardup import near_dedup


@pytest.fixture(scope="module")
def corpus_and_oracle(ray_session, small_corpus):
    pages, truth = small_corpus
    cfg = DedupConfig()
    texts = [extract_text(h) for h in pages.column("html").to_pylist()]
    ids = doc_id_from_urls(pages.column("url").to_pylist()).tolist()
    tp = true_pairs(texts, ids, cfg)
    oracle = union_find_clusters(tp, ids)
    return pages, cfg, ids, tp, oracle


def _run(pages, cfg, **kw):
    import ray.data as rd

    res = near_dedup(pages_ds=rd.from_arrow(pages), cfg=cfg, **kw)
    return {r["doc_id"]: r["cluster_id"] for r in res.clusters.take_all()}, res


class TestFlagshipCorrectness:
    def test_recall_and_exact_cluster_match(self, corpus_and_oracle):
        pages, cfg, ids, tp, oracle = corpus_and_oracle
        clusters, res = _run(pages, cfg, num_partitions=4)
        assert len(clusters) == pages.num_rows
        assert pair_recall(clusters, tp) >= 0.99
        assert all(clusters[d] == oracle[d] for d in ids)

    def test_distributed_cc_matches_union_find(self, corpus_and_oracle):
        pages, _, ids, tp, oracle = corpus_and_oracle
        cfg = DedupConfig(small_cc_limit=0)
        clusters, res = _run(pages, cfg, num_partitions=4)
        assert res.stats["cc"]["mode"] == "contraction"
        assert res.stats["cc"]["converged"]
        assert all(clusters[d] == oracle[d] for d in ids)

    def test_partitioning_invariance(self, corpus_and_oracle):
        # FIXTURES invariant 3: identical output at different parallelism
        pages, cfg, *_ = corpus_and_oracle
        c2, _ = _run(pages, cfg, num_partitions=2)
        c8, _ = _run(pages, cfg, num_partitions=8)
        assert c2 == c8

    def test_salting_preserves_pairs(self, corpus_and_oracle):
        # FIXTURES invariant 5: hot-bucket salting must not change clusters
        pages, _, ids, tp, oracle = corpus_and_oracle
        cfg_salted = DedupConfig(salt_cap=8)  # force salting of the boiler bucket
        c_salted, _ = _run(pages, cfg_salted, num_partitions=4)
        c_plain, _ = _run(pages, DedupConfig(salt_cap=0), num_partitions=4)  # no salting
        assert pair_recall(c_salted, tp) >= 0.99
        assert c_salted == c_plain

    def test_resume_identical(self, corpus_and_oracle, tmp_path):
        # FIXTURES invariant 4: rerun from checkpoint -> identical output
        pages, cfg, *_ = corpus_and_oracle
        ck = str(tmp_path / "ck")
        shutil.rmtree(ck, ignore_errors=True)
        c1, r1 = _run(pages, cfg, num_partitions=4, checkpoint_dir=ck)
        c2, r2 = _run(pages, cfg, num_partitions=4, checkpoint_dir=ck)
        assert c1 == c2
        assert all(v.get("resumed") for v in r2.stats["stages"].values())
        # config change invalidates the checkpoint chain
        c3, r3 = _run(pages, DedupConfig(tau=0.8), num_partitions=4, checkpoint_dir=ck)
        assert not any(v.get("resumed") for v in r3.stats["stages"].values())

    def test_resume_after_partial_failure(self, corpus_and_oracle, tmp_path):
        # simulate a crash between stages: later-stage checkpoints are
        # missing, earlier ones valid -> rerun resumes the prefix and
        # rebuilds the rest, producing identical output
        import os
        import shutil as sh

        pages, cfg, *_ = corpus_and_oracle
        ck = str(tmp_path / "ck2")
        c1, r1 = _run(pages, cfg, num_partitions=4, checkpoint_dir=ck)
        sh.rmtree(os.path.join(ck, "edges"))
        sh.rmtree(os.path.join(ck, "clusters"))
        c2, r2 = _run(pages, cfg, num_partitions=4, checkpoint_dir=ck)
        assert c1 == c2
        stages = r2.stats["stages"]
        assert stages["signatures"].get("resumed") and stages["pairs"].get("resumed")
        assert not stages["edges"].get("resumed")

    def test_truth_exact_copies_clustered(self, corpus_and_oracle, small_corpus):
        # every 'exact' channel member must share a cluster with its seed
        pages, cfg, ids, tp, oracle = corpus_and_oracle
        _, truth = small_corpus
        clusters, _ = _run(pages, cfg, num_partitions=4)
        url_to_id = dict(zip(pages.column("url").to_pylist(), ids))
        by_true = {}
        for url, tc, ch in zip(
            truth.column("doc_url").to_pylist(),
            truth.column("true_cluster").to_pylist(),
            truth.column("channel").to_pylist(),
        ):
            by_true.setdefault(tc, []).append((url, ch))
        for members in by_true.values():
            seeds = [u for u, ch in members if ch == "seed"]
            exacts = [u for u, ch in members if ch == "exact"]
            for e in exacts:
                assert clusters[url_to_id[e]] == clusters[url_to_id[seeds[0]]]


class TestVerifyPhysicalPlans:
    def test_all_three_verify_plans_agree(self, corpus_and_oracle):
        # plan 1 (broadcast), plan 2 (semi-join hash joins), plan 3 (full
        # hash joins, the 100 TB path) must produce identical edge sets
        import ray.data as rd

        from dynaalign_ray.stages import verify as V
        from dynaalign_ray.stages.bands import candidate_pairs
        from dynaalign_ray.stages.minhash import signatures_dataset
        from dynaalign_ray.extract import extract_text_batch

        pages, cfg, *_ = corpus_and_oracle
        docs = rd.from_arrow(pages).map_batches(
            extract_text_batch, batch_format="pyarrow"
        ).materialize()
        sigs = signatures_dataset(docs, cfg).materialize()
        pairs = candidate_pairs(sigs, cfg, 4, dedup=True).materialize()
        n_pairs = pairs.count()

        def edge_set(ds):
            return sorted((r["a"], r["b"], round(r["jaccard"], 9)) for r in ds.take_all())

        e_broadcast = edge_set(V.verified_edges(pairs, sigs, cfg, 4, approx_pairs=n_pairs))
        # force plan 2: semi-join without broadcast
        old = V._BROADCAST_SKETCH_BYTES
        try:
            V._BROADCAST_SKETCH_BYTES = 0
            e_semi = edge_set(V.verified_edges(pairs, sigs, cfg, 4, approx_pairs=n_pairs))
        finally:
            V._BROADCAST_SKETCH_BYTES = old
        # plan 3: no size hint -> full hash joins
        e_full = edge_set(V.verified_edges(pairs, sigs, cfg, 4, approx_pairs=None))
        assert e_broadcast == e_semi == e_full
        assert len(e_full) > 0
