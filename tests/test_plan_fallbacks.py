"""Plan-agreement gates for the partitioned fallbacks behind every former
broadcast-only stage (round-3 item #1): each stage's "join" plan — the
10^12-doc path that never broadcasts — must produce byte-identical results
to its default "broadcast" plan, and the auto gate must ROUTE to the join
plan (not raise) when forced to 0.  Pattern: webpages.latest_snapshot_pages'
winner_limit=0 test."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


DOCS = [
    (3, "the quick brown fox jumps over the lazy dog again and again"),
    (1, "the quick brown fox jumps over the lazy dog again and again"),
    (2, "totally different words here that repeat the quick brown fox jumps over"),
    (4, ""),
    (5, "the quick brown fox"),
    (6, "zig zag zig zag zig zag unique tail words end here now ok"),
    (7, "zig zag zig zag zig zag unique tail words end here now ok"),
    (8, "left half shared prefix words then a totally unique suffix block eight"),
    (9, "left half shared prefix words then another different ending nine here"),
]


def _docs_ds(repartition=3):
    import ray.data as rd

    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t in DOCS]),
        }
    )
    return rd.from_arrow(t).repartition(repartition)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


class TestChunkDedupPlans:
    def test_join_plan_agrees_with_broadcast(self, ray_session):
        from dynaalign_ray.stages.chunk_dedup import chunk_dedup

        ds = _docs_ds()
        a = _norm(chunk_dedup(ds, 4, unit="words", chunk_words=3, plan="broadcast").to_pandas())
        b = _norm(chunk_dedup(ds, 4, unit="words", chunk_words=3, plan="join").to_pandas())
        pd.testing.assert_frame_equal(a, b)
        assert a["n_removed"].sum() > 0  # the fixture exercises real drops

    def test_gate_zero_routes_to_join(self, ray_session):
        from dynaalign_ray.stages.chunk_dedup import chunk_dedup

        ds = _docs_ds()
        # max_broadcast_rows=0 must fall through to the join plan, never raise
        a = _norm(chunk_dedup(ds, 4, unit="words", chunk_words=3, max_broadcast_rows=0).to_pandas())
        b = _norm(chunk_dedup(ds, 4, unit="words", chunk_words=3, plan="broadcast").to_pandas())
        pd.testing.assert_frame_equal(a, b)


class TestSpanDedupPlans:
    def test_join_plan_agrees_with_broadcast(self, ray_session):
        from dynaalign_ray.stages.span_dedup import span_dedup

        ds = _docs_ds()
        a = _norm(span_dedup(ds, 4, k=10, plan="broadcast").to_pandas())
        b = _norm(span_dedup(ds, 4, k=10, plan="join").to_pandas())
        pd.testing.assert_frame_equal(a, b)
        assert a["n_removed_bytes"].sum() > 0

    def test_gate_zero_routes_to_join(self, ray_session):
        from dynaalign_ray.stages.span_dedup import span_dedup

        ds = _docs_ds()
        a = _norm(span_dedup(ds, 4, k=10, max_broadcast_rows=0).to_pandas())
        b = _norm(span_dedup(ds, 4, k=10, plan="broadcast").to_pandas())
        pd.testing.assert_frame_equal(a, b)


class TestTopTermsPlans:
    def test_join_plan_agrees_with_broadcast(self, ray_session):
        from dynaalign_ray.functions.tfidf import top_terms

        ds = _docs_ds()
        a = _norm(top_terms(ds, 4, plan="broadcast").to_pandas())
        b = _norm(top_terms(ds, 4, plan="join").to_pandas())
        pd.testing.assert_frame_equal(a, b)
        # every non-empty doc has exactly one row on both plans
        assert len(a) == sum(1 for _, t in DOCS if t.strip())


class TestIncrementalEndpointPlans:
    def test_join_plan_agrees_with_broadcast(self, ray_session, tmp_path, monkeypatch):
        import ray.data as rd

        from dynaalign_ray.config import DedupConfig
        from dynaalign_ray.pipelines import incremental
        from dynaalign_ray.pipelines.incremental import build_index, incremental_dedup

        cfg = DedupConfig()
        base = [
            (i, f"base document number {i} with some shared boilerplate tail")
            for i in range(1, 21)
        ] + [
            (100, "a very duplicated page body that appears many times in the corpus"),
            (101, "a very duplicated page body that appears many times in the corpus"),
        ]
        new = [
            (200, "a very duplicated page body that appears many times in the corpus"),
            (201, "completely fresh new content never seen before in any snapshot"),
        ]

        def mk(rows):
            return rd.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array([d for d, _ in rows], pa.int64()),
                        "text": pa.array([t for _, t in rows]),
                    }
                )
            )

        idx = str(tmp_path / "idx")
        build_index(mk(base), cfg, index_dir=idx, num_partitions=4)
        res = {}
        for plan in ("broadcast", "join"):
            if plan == "join":
                # the edge count picks the plan: a zero limit routes to join
                monkeypatch.setattr(incremental, "_ENDPOINT_BROADCAST_LIMIT", 0)
            r = incremental_dedup(mk(new), index_dir=idx, cfg=cfg, num_partitions=4)
            res[plan] = (
                _norm(r.new_clusters.to_pandas()),
                _norm(r.merges.to_pandas()),
            )
        pd.testing.assert_frame_equal(res["broadcast"][0], res["join"][0])
        pd.testing.assert_frame_equal(res["broadcast"][1], res["join"][1])
        # the near-dup new doc really did attach to the existing cluster
        got = dict(
            zip(res["join"][0]["doc_id"], res["join"][0]["cluster_id"])
        )
        assert got[200] == 100 and got[201] == 201


class TestPackedListPayload:
    def test_roundtrip_including_empty_and_sliced(self):
        from dynaalign_ray.joins import pack_int64_list, unpack_int64_blob

        lst = pa.array(
            [[1, 2, 3], [], [7], [5, -9, 2**40, 0]], type=pa.list_(pa.int64())
        )
        packed = pack_int64_list(lst)
        got = [unpack_int64_blob(packed[i].as_py()).tolist() for i in range(len(lst))]
        assert got == [[1, 2, 3], [], [7], [5, -9, 2**40, 0]]
        # sliced input must not leak pre-slice offsets
        sl = lst.slice(1, 2)
        packed2 = pack_int64_list(sl)
        got2 = [unpack_int64_blob(packed2[i].as_py()).tolist() for i in range(len(sl))]
        assert got2 == [[], [7]]
        assert unpack_int64_blob(None).tolist() == []


class TestAllPairsStripedPlan:
    """Past the broadcast gate the exact all-pairs queries now SWITCH to
    the striped group-pair plan instead of raising (VERDICT r2 #2); the
    two plans must produce the identical pair set."""

    @staticmethod
    def _sorted(df, col):
        return (
            df.sort_values(["a", "b"]).reset_index(drop=True)[["a", "b", col]]
        )

    def test_jaccard_plan_agreement_forced_multigroup(
        self, ray_session, monkeypatch
    ):
        import pandas as pd

        import dynaalign_ray.pipelines.curation as cur

        sf = "/root/testdata/sf0.001"
        base = cur.doc_jaccard_pairs(sf, plan="broadcast").to_pandas()
        # tiny stripe target -> one group per input block, maximum
        # group-pair fan-out; gate 0 exercises the auto switch too
        monkeypatch.setattr(cur, "_ALLPAIRS_STRIPE_BYTES", 1)
        monkeypatch.setattr(cur, "_ALLPAIRS_CSR_BYTE_LIMIT", 0)
        striped = cur.doc_jaccard_pairs(sf).to_pandas()
        assert len(base) > 0
        pd.testing.assert_frame_equal(
            self._sorted(base, "jaccard"), self._sorted(striped, "jaccard")
        )

    def test_containment_plan_agreement(self, ray_session, monkeypatch):
        import pandas as pd

        import dynaalign_ray.pipelines.curation as cur

        sf = "/root/testdata/sf0.001"
        base = cur.doc_containment_pairs(sf, plan="broadcast").to_pandas()
        monkeypatch.setattr(cur, "_ALLPAIRS_STRIPE_BYTES", 1)
        striped = cur.doc_containment_pairs(sf, plan="striped").to_pandas()
        assert len(base) > 0
        pd.testing.assert_frame_equal(
            self._sorted(base, "containment"),
            self._sorted(striped, "containment"),
        )

    def test_cross_kernel_stripe_chunking_exact(self, monkeypatch):
        # force tiny dense-output stripes so the row-chunk loop is the
        # code path under test, and compare against the one-shot kernel
        import dynaalign_ray.pipelines.curation as cur
        from dynaalign_ray.stages.verify import build_sketch_csr
        import numpy as np
        import pyarrow as pa

        rng = np.random.default_rng(11)

        def mk(n, base):
            ids, sk = [], []
            for i in range(n):
                s = np.unique(rng.integers(0, 60, rng.integers(1, 20)))
                ids.append(base + i)
                sk.append(np.sort(s).astype(np.uint64))
            return build_sketch_csr(
                [pa.table({"doc_id": pa.array(ids, pa.int64()),
                           "sketch": pa.array(
                               [s.astype("<u8").tobytes() for s in sk],
                               pa.binary())})]
            )

        ca, cb = mk(23, 0), mk(17, 1000)
        one = cur._cross_pairs_from_csrs(ca, cb, 0.05, "jaccard")
        monkeypatch.setattr(cur, "_ALLPAIRS_DENSE_OUT_BYTES", 8)  # 1 row/stripe
        many = cur._cross_pairs_from_csrs(ca, cb, 0.05, "jaccard")

        def flat(t):
            a, b, s = t
            out = sorted(
                zip(
                    np.concatenate(a).tolist(),
                    np.concatenate(b).tolist(),
                    np.round(np.concatenate(s), 10).tolist(),
                )
            )
            return out

        assert len(flat(one)) > 0
        assert flat(one) == flat(many)

    def test_below_gate_unchanged(self, ray_session):
        from dynaalign_ray.pipelines.curation import doc_jaccard_pairs

        out = doc_jaccard_pairs("/root/testdata/sf0.001").to_pandas()
        assert len(out) > 0  # oracle hash-equality is the driver's job
        assert (out["jaccard"] >= 0.5).all()
