"""Round-3 additions, batch 2: batched linear-model inference
(functions/modelscore.py), deterministic split assignment, and
paragraph-granular fuzzy dedup (pipelines/curation.py) — DuckDB parity plus
semantic property tests independent of the oracle SQL."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest


def _canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _entry():
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    return entry


def _duck_parity(qname: str, tables: tuple = ("documents",)):
    entry = _entry()
    res = entry.queries()[qname]("/root/testdata/sf0.001")
    got = _canon(res.to_pandas())
    con = duckdb.connect()
    for t in tables:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('/root/testdata/sf0.001/{t}.parquet')"
        )
    want = _canon(con.sql(entry.oracle_sql()[qname]).df())
    assert len(got) == len(want) > 0
    assert list(got.columns) == list(want.columns)
    for c in got.columns:
        assert got[c].tolist() == want[c].tolist(), c


class TestModelScore:
    def test_duckdb_parity_sf0001(self, ray_session):
        _duck_parity("doc_model_scores")

    def test_argmax_first_max_tie_rule(self):
        # all-zero weights + equal biases: every class ties -> first wins
        from dynaalign_ray.functions.modelscore import LinearModelScorer

        model = {
            "classes": ["a", "b", "c"],
            "bias": [1.0, 1.0, 1.0],
            "weights": [[0.0] * 6, [0.0] * 6, [0.0] * 6],
        }
        batch = pa.table({"doc_id": [1, 2], "text": ["x", "the and of"]})
        out = LinearModelScorer(model)(batch)
        assert out.column("model_class").to_pylist() == ["a", "a"]
        assert out.column("keep").to_pylist() == [True, True]

    def test_keep_is_not_last_class(self):
        from dynaalign_ray.functions.modelscore import (
            QUALITY_MODEL,
            LinearModelScorer,
        )

        batch = pa.table(
            {
                "doc_id": [1, 2],
                "text": [
                    "1234 !!! 999 ### 111 $$$ 222",  # digit/punct heavy -> low
                    "the quick brown fox and the lazy dog were in the yard "
                    * 8,  # long clean stopwordy English -> hi tier
                ],
            }
        )
        out = LinearModelScorer(QUALITY_MODEL)(batch)
        cls = out.column("model_class").to_pylist()
        keep = out.column("keep").to_pylist()
        assert [k == (c != "low") for c, k in zip(cls, keep)] == [True, True]
        assert cls[0] == "low" and cls[1] != "low"

    def test_broadcast_ref_equals_dict(self, ray_session):
        import ray

        from dynaalign_ray.functions.modelscore import (
            QUALITY_MODEL,
            LinearModelScorer,
        )

        batch = pa.table(
            {"doc_id": [1, 2, 3], "text": ["a b c", "THE THE 99!", "words here"]}
        )
        via_dict = LinearModelScorer(QUALITY_MODEL)(batch)
        via_ref = LinearModelScorer(ray.put(QUALITY_MODEL))(batch)
        assert via_dict.equals(via_ref)

    def test_fixed_order_matches_sql_assoc(self):
        # score_fixed_order must equal the explicit left-assoc expression
        from dynaalign_ray.functions.modelscore import score_fixed_order

        feats = [np.array([3], dtype=np.int64) for _ in range(6)]
        w = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        got = score_fixed_order(feats, -1.5, w)[0]
        want = -1.5
        for wi in w:
            want = want + wi * 3.0
        assert got == want


class TestSplitAssign:
    def test_duckdb_parity_sf0001(self, ray_session):
        _duck_parity("doc_split_assign")

    def test_partition_law(self, ray_session):
        from dynaalign_ray.pipelines.curation import doc_split_assign

        t = doc_split_assign("/root/testdata/sf0.001").to_pandas()
        assert set(t["split"]) == {"train", "val", "test"}
        counts = t["split"].value_counts()
        n = len(t)
        # hash is near-uniform: train ~90%, val/test ~5% each
        assert counts["train"] > 0.8 * n
        assert counts["val"] + counts["test"] < 0.2 * n
        # one row per doc — a split never duplicates or drops
        assert t["doc_id"].is_unique and n == 500


class TestParagraphNeardup:
    def test_duckdb_parity_sf0001(self, ray_session):
        _duck_parity("doc_paragraph_neardup")

    def test_impossible_tau_reconstructs_corpus(self, ray_session):
        # tau > 1 -> no paragraph can ever be removed; clean_text must be
        # the whitespace-normalized original and n_removed all zero
        import ray.data as rd

        from dynaalign_ray.pipelines.curation import paragraph_neardup

        texts = [
            "alpha beta gamma delta " * 12,
            "one two three",
            "x",
        ]
        docs = pa.table({"doc_id": [1, 2, 3], "text": texts})
        out = (
            paragraph_neardup(rd.from_arrow(docs), tau=1.01, num_partitions=2)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["n_removed"].tolist() == [0, 0, 0]
        assert out["clean_text"].tolist() == [" ".join(t.split()) for t in texts]

    def test_shared_paragraph_removed_once(self, ray_session):
        # two docs share an identical 16-word paragraph: the later doc's
        # copy is removed (representative = min enc), private paragraphs
        # survive on both sides
        import ray.data as rd

        from dynaalign_ray.pipelines.curation import paragraph_neardup

        boiler = " ".join(f"w{i}" for i in range(16))
        a_tail = " ".join(f"a{i}" for i in range(16))
        b_tail = " ".join(f"b{i}" for i in range(16))
        docs = pa.table(
            {
                "doc_id": [10, 20],
                "text": [boiler + " " + a_tail, boiler + " " + b_tail],
            }
        )
        out = (
            paragraph_neardup(rd.from_arrow(docs), tau=0.7, num_partitions=2)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["clean_text"].tolist() == [boiler + " " + a_tail, b_tail]
        assert out["n_removed"].tolist() == [0, 1]
        assert out["n_paras"].tolist() == [2, 2]

    def test_short_paragraphs_are_singletons(self, ray_session):
        # identical tails SHORTER than shingle_k words produce no shingles
        # -> automatic singletons, never deduped (engine & oracle agree)
        import ray.data as rd

        from dynaalign_ray.pipelines.curation import paragraph_neardup

        pad_a = " ".join(f"a{i}" for i in range(16))
        pad_b = " ".join(f"b{i}" for i in range(16))
        docs = pa.table(
            {
                "doc_id": [1, 2],
                "text": [pad_a + " zz yy", pad_b + " zz yy"],
            }
        )
        out = (
            paragraph_neardup(rd.from_arrow(docs), tau=0.7, num_partitions=2)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["n_removed"].tolist() == [0, 0]
        assert out["clean_text"].tolist() == [pad_a + " zz yy", pad_b + " zz yy"]


class TestCountMinSketch:
    def test_bounds_vs_exact(self, ray_session):
        import duckdb as dk

        from dynaalign_ray.pipelines.curation import doc_token_cms

        got = doc_token_cms("/root/testdata/sf0.001").to_pandas()
        con = dk.connect()
        exact = dict(
            con.sql(
                """
            SELECT tok, count(*) FROM (
                SELECT unnest(regexp_extract_all(text, '\\S+')) AS tok
                FROM read_parquet('/root/testdata/sf0.001/documents.parquet'))
            GROUP BY tok
        """
            ).fetchall()
        )
        n_total = sum(exact.values())
        d, w = 4, 8192
        eps = np.e / w
        for _, row in got.iterrows():
            true = exact.get(row["token"], 0)
            assert row["est_count"] >= true, row["token"]
            # eps*N bound holds per row with prob 1-e^-d; over 11 fixed
            # probes with fixed seeds this is a deterministic regression
            assert row["est_count"] <= true + 2 * eps * n_total, row["token"]
        absent = got[got["token"] == "zzz_absent_token"]["est_count"].iloc[0]
        assert absent <= 2 * eps * n_total

    def test_merge_equals_single_pass(self):
        from dynaalign_ray.functions.sketches import (
            cms_from_hashes,
            cms_merge,
            cms_query,
        )

        rng = np.random.default_rng(7)
        h = rng.integers(0, 2**63, size=5000, dtype=np.int64).astype(np.uint64)
        whole = cms_from_hashes(h)
        parts = cms_merge([cms_from_hashes(h[:1700]), cms_from_hashes(h[1700:4000]),
                           cms_from_hashes(h[4000:])])
        assert np.array_equal(whole, parts)
        probe = h[:50]
        assert np.array_equal(cms_query(whole, probe), cms_query(parts, probe))

    def test_never_underestimates(self):
        from dynaalign_ray.functions.sketches import cms_from_hashes, cms_query

        # adversarially tiny width forces collisions; estimates must still
        # upper-bound the true multiplicity of every item
        rng = np.random.default_rng(11)
        items = rng.integers(0, 50, size=2000).astype(np.uint64)
        sk = cms_from_hashes(items, d=3, w=16)
        uniq, counts = np.unique(items, return_counts=True)
        est = cms_query(sk, uniq)
        assert (est >= counts).all()


class TestRound3Extras:
    def test_histogram_parity_sf0001(self, ray_session):
        _duck_parity("doc_neardup_histogram")

    def test_fullouter_parity_sf0001(self, ray_session):
        _duck_parity("customer_segment_fullouter", tables=("customer", "orders"))

    def test_blocklist_parity_sf0001(self, ray_session):
        _duck_parity("pages_blocklist_filter")

    def test_fullouter_keeps_both_exclusive_sides(self, ray_session):
        # synthetic keysets with BOTH exclusive sides (the driver data has
        # no order-less customers, so the query can't exercise left-nulls)
        import ray.data as rd

        from dynaalign_ray.joins import hash_join

        left = pa.table({"k": [1, 2, 3], "lv": [10, 20, 30]})
        right = pa.table({"k2": [2, 3, 4], "rv": [200, 300, 400]})
        j = hash_join(
            rd.from_arrow(left),
            rd.from_arrow(right),
            left_on="k",
            right_on="k2",
            left_schema=left.schema,
            right_schema=pa.schema([("k2", pa.int64()), ("rv", pa.int64())]),
            num_partitions=3,
            how="full outer",
        ).to_pandas()
        assert len(j) == 4
        got = {
            (int(r["k"]), None if r.isna()["lv"] else int(r["lv"]),
             None if r.isna()["rv"] else int(r["rv"]))
            for _, r in j.iterrows()
        }
        assert got == {(1, 10, None), (2, 20, 200), (3, 30, 300), (4, None, 400)}

    def test_fullouter_query_right_exclusive_rows(self, ray_session):
        from dynaalign_ray.pipelines.relational import customer_segment_fullouter

        t = customer_segment_fullouter("/root/testdata/sf0.001").to_pandas()
        # ordering customers OUTSIDE the segment (inner join drops them)
        assert ((~t["in_segment"]) & (t["n_orders"] > 0)).any()
        assert t["custkey"].notna().all() and t["custkey"].is_unique

    def test_blocklist_drops_only_blocked_hosts(self, ray_session):
        from dynaalign_ray.pipelines.webpages import pages_blocklist_filter

        t = pages_blocklist_filter("/root/testdata/sf0.001").to_pandas()
        blocked = {"www.site3.example", "www.site7.example", "www.site13.example"}
        assert set(t["host"]) & blocked == set()
        # the other 17 synthetic hosts all survive
        assert len(set(t["host"])) == 17

    def test_histogram_mass_equals_corpus(self, ray_session):
        from dynaalign_ray.pipelines.curation import doc_neardup_histogram

        t = doc_neardup_histogram("/root/testdata/sf0.001").to_pandas()
        assert int((t["cluster_size"] * t["n_clusters"]).sum()) == 500


class TestRankAndQuartile:
    def test_rank_parity_sf0001(self, ray_session):
        _duck_parity("doc_global_rank")

    def test_quartile_parity_sf0001(self, ray_session):
        _duck_parity("doc_top_quartile")

    def test_rank_is_a_permutation(self, ray_session):
        from dynaalign_ray.pipelines.curation import doc_global_rank

        t = doc_global_rank("/root/testdata/sf0.001").to_pandas()
        assert sorted(t["rank"]) == list(range(1, len(t) + 1))
        s = t.sort_values("rank")
        # rank order == (n_chars desc, doc_id asc) lexicographic order
        keys = list(zip(-s["n_chars"], s["doc_id"]))
        assert keys == sorted(keys)

    def test_rank_reshard_stable(self, ray_session):
        from dynaalign_ray.pipelines.curation import doc_global_rank

        a = (
            doc_global_rank("/root/testdata/sf0.001", num_partitions=3)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        b = (
            doc_global_rank("/root/testdata/sf0.001", num_partitions=13)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert a.equals(b)


class TestFuzzyDecontam:
    def test_parity_sf0001(self, ray_session):
        _duck_parity("doc_decontam_fuzzy")

    def test_flags_both_ways_and_excludes_benchmark(self, ray_session):
        from dynaalign_ray.pipelines.curation import doc_decontam_fuzzy

        t = doc_decontam_fuzzy("/root/testdata/sf0.001").to_pandas()
        # benchmark docs never appear in the output
        assert (t["doc_id"] % 10 != 7).all()
        # the driver corpus plants near-dups across the % 10 boundary:
        # both flag values must occur (4 contaminated at sf0.001)
        assert t["contaminated"].any() and (~t["contaminated"]).any()

    def test_hashed_id_mode_agrees_on_cluster_structure(self, ray_session):
        # hashed ids may pick a DIFFERENT representative per cluster than
        # packed ids (min hash vs earliest occurrence), but the cluster
        # structure is identical: same docs, same per-doc paragraph counts,
        # same TOTAL removed (exactly one representative kept per cluster
        # either way)
        from dynaalign_ray.pipelines.curation import _docs, paragraph_neardup

        docs = _docs("/root/testdata/sf0.001", ["doc_id", "text"])
        packed = (
            paragraph_neardup(docs, num_partitions=4, id_mode="packed")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        hashed = (
            paragraph_neardup(docs, num_partitions=4, id_mode="hashed")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert packed["doc_id"].tolist() == hashed["doc_id"].tolist()
        assert packed["n_paras"].tolist() == hashed["n_paras"].tolist()
        assert packed["n_removed"].sum() == hashed["n_removed"].sum() > 0


class TestTrainingShards:
    def _docs_tbl(self):
        return pa.table(
            {
                "doc_id": pa.array(range(1, 401), type=pa.int64()),
                "text": [f"doc {i} body" for i in range(1, 401)],
            }
        )

    def test_write_manifest_and_coverage(self, ray_session, tmp_path):
        import json

        import ray.data as rd

        from dynaalign_ray.sources.io import write_training_shards

        out = str(tmp_path / "shards")
        m = write_training_shards(
            rd.from_arrow(self._docs_tbl()), out, num_shards=8
        )
        assert sum(s["rows"] for s in m["shards"].values()) == 400
        with open(f"{out}/_manifest.json") as f:
            assert json.load(f) == m
        # every row written exactly once, shard column present
        back = rd.read_parquet(out).to_pandas()
        assert sorted(back["doc_id"]) == list(range(1, 401))
        # hive partition values read back as strings
        assert {str(v) for v in back["shard"].unique()} == set(m["shards"])

    def test_resume_rewrites_only_missing_shards(self, ray_session, tmp_path):
        import json
        import os
        import shutil

        import ray.data as rd

        from dynaalign_ray.sources.io import write_training_shards

        out = str(tmp_path / "shards")
        m1 = write_training_shards(
            rd.from_arrow(self._docs_tbl()), out, num_shards=8
        )
        # simulate a crash: one shard's dir exists but isn't in the manifest
        victim = sorted(m1["shards"])[2]
        with open(f"{out}/_manifest.json") as f:
            man = json.load(f)
        del man["shards"][victim]
        with open(f"{out}/_manifest.json", "w") as f:
            json.dump(man, f)
        # also corrupt the victim dir (partial write)
        vdir = f"{out}/shard={victim}"
        for p in os.listdir(vdir)[1:]:
            os.unlink(os.path.join(vdir, p))
        m2 = write_training_shards(
            rd.from_arrow(self._docs_tbl()), out, num_shards=8, resume=True
        )
        assert m2["shards"] == m1["shards"]  # identical write-verified stats
        back = rd.read_parquet(out).to_pandas()
        assert sorted(back["doc_id"]) == list(range(1, 401))

    def test_resume_num_shards_mismatch_raises(self, ray_session, tmp_path):
        import ray.data as rd
        import pytest as _pytest

        from dynaalign_ray.sources.io import write_training_shards

        out = str(tmp_path / "shards")
        write_training_shards(rd.from_arrow(self._docs_tbl()), out, num_shards=8)
        with _pytest.raises(ValueError, match="num_shards"):
            write_training_shards(
                rd.from_arrow(self._docs_tbl()), out, num_shards=16, resume=True
            )

    def test_distributed_premerge_exact(self, ray_session):
        # integer elementwise sums are order-independent: any merge_fanin
        # must give identical estimates (exactness of the pre-merge tree)
        import ray.data as rd

        from dynaalign_ray.functions.sketches import approx_token_counts

        docs = pa.table(
            {"text": [f"tok{i % 17} tok{i % 5} common" for i in range(500)]}
        )
        probes = ["common", "tok0", "tok4", "absent"]
        a = approx_token_counts(rd.from_arrow(docs), "text", probes, merge_fanin=1)
        b = approx_token_counts(rd.from_arrow(docs), "text", probes, merge_fanin=7)
        assert a.equals(b)
        assert a.column("est_count").to_pylist()[0] >= 500  # 'common' in every doc


class TestShardAssign:
    def test_parity_sf0001(self, ray_session):
        _duck_parity("doc_shard_assign")

    def test_matches_sink_assignment(self, ray_session, tmp_path):
        # the query and the sink must place every doc in the same shard
        import ray.data as rd

        from dynaalign_ray.pipelines.curation import doc_shard_assign
        from dynaalign_ray.sources.io import write_training_shards

        q = doc_shard_assign("/root/testdata/sf0.001").to_pandas()
        docs = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
        )
        out = str(tmp_path / "s")
        write_training_shards(docs, out, num_shards=16)
        back = rd.read_parquet(out).to_pandas()
        merged = q.merge(back, on="doc_id", suffixes=("_q", "_s"))
        assert len(merged) == 500
        assert (merged["shard_q"].astype(int) == merged["shard_s"].astype(int)).all()
