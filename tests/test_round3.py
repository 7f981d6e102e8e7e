"""Round-3 additions: per-doc novelty scoring and token-budget source mixing
(pipelines/curation.py), each with DuckDB parity plus semantic property
tests that don't depend on the oracle SQL."""

import duckdb
import numpy as np
import pytest


def _canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _entry():
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    return entry


class TestNovelty:
    @pytest.mark.parametrize("qname", ["doc_novelty", "doc_source_mix"])
    def test_duckdb_parity_sf0001(self, ray_session, qname):
        entry = _entry()
        got = _canon(entry.queries()[qname]("/root/testdata/sf0.001").to_pandas())
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            "read_parquet('/root/testdata/sf0.001/documents.parquet')"
        )
        want = _canon(con.sql(entry.oracle_sql()[qname]).df())
        assert len(got) == len(want) > 0
        assert list(got.columns) == list(want.columns)
        for c in got.columns:
            assert got[c].tolist() == want[c].tolist(), c

    def test_novelty_semantics(self, ray_session):
        """A doc duplicated verbatim has novelty 0 for both copies; a doc
        with a fully unique vocabulary has novelty 1."""
        import ray.data as rd

        from dynaalign_ray.pipelines.curation import doc_novelty

        # build a tiny corpus on disk so the query reads through the source
        import pyarrow as pa
        import pyarrow.parquet as pq
        import tempfile, os

        texts = [
            "alpha beta gamma delta epsilon",  # dup pair -> df 2 everywhere
            "alpha beta gamma delta epsilon",
            "zeta eta theta iota kappa",  # unique vocabulary -> novelty 1
        ]
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(
                pa.table({"doc_id": [1, 2, 3], "text": texts}),
                os.path.join(d, "documents.parquet"),
            )
            out = doc_novelty(d, num_partitions=2).to_pandas().set_index("doc_id")
        assert out.loc[1, "novelty"] == 0.0
        assert out.loc[2, "novelty"] == 0.0
        assert out.loc[3, "novelty"] == 1.0
        assert int(out.loc[3, "n_shingles"]) == 3  # 5 tokens -> 3 shingles

    def test_novelty_reshard_stable(self, ray_session):
        """Same result at different partition counts (keyed-shuffle plan)."""
        from dynaalign_ray.pipelines.curation import doc_novelty

        a = _canon(doc_novelty("/root/testdata/sf0.001", num_partitions=2).to_pandas())
        b = _canon(doc_novelty("/root/testdata/sf0.001", num_partitions=13).to_pandas())
        assert a.equals(b)


class TestSourceMix:
    def test_budget_respected_and_deterministic(self, ray_session):
        from dynaalign_ray.pipelines.curation import doc_source_mix

        out = doc_source_mix("/root/testdata/sf0.001", token_budget=700).to_pandas()
        per_src = out.groupby("source").n_tokens.sum()
        assert (per_src <= 700).all()
        out2 = doc_source_mix("/root/testdata/sf0.001", token_budget=700).to_pandas()
        assert sorted(out.doc_id) == sorted(out2.doc_id)

    def test_admission_is_prefix_in_mix_key_order(self, ray_session):
        """Every admitted doc's predecessors in mix-key order are admitted
        too (the greedy-prefix contract), and adding the next doc in order
        would break the budget."""
        from dynaalign_ray.pipelines.curation import _MIX_KNUTH, doc_source_mix

        budget = 700
        kept = doc_source_mix("/root/testdata/sf0.001", token_budget=budget).to_pandas()
        import duckdb as dk

        allrows = dk.sql(
            "SELECT doc_id, source, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)"
            " AS n_tokens FROM read_parquet('/root/testdata/sf0.001/documents.parquet')"
        ).df()
        allrows["mix_key"] = (
            allrows.doc_id.to_numpy().astype(np.uint64) * _MIX_KNUTH
        ) >> np.uint64(1)
        kept_ids = set(kept.doc_id)
        for src, grp in allrows.groupby("source"):
            ordered = grp.sort_values(["mix_key", "doc_id"])
            cum = ordered.n_tokens.cumsum()
            expect = set(ordered.doc_id[cum <= budget])
            assert expect == (kept_ids & set(grp.doc_id)), src


# ------------------------------------------- semantic dedup (SemDeDup)


@pytest.fixture
def rd(ray_session):
    import ray.data

    return ray.data


class TestSemanticDedup:
    def _emb(self, rd, n=200, dim=16, seed=7, planted=12):
        import pyarrow as pa

        rng = np.random.Generator(np.random.PCG64(seed))
        vecs = rng.standard_normal((n, dim))
        # plant near-dup copies: vec[i+n] ~ vec[i]; some chain via i+2n
        extra = vecs[:planted] + 0.04 * rng.standard_normal((planted, dim))
        extra2 = extra[: planted // 2] + 0.04 * rng.standard_normal(
            (planted // 2, dim)
        )
        allv = np.vstack([vecs, extra, extra2])
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(len(allv)), pa.int64()),
                "embedding": pa.array(list(allv), pa.list_(pa.float64())),
            }
        )
        return rd.from_arrow(tbl), allv

    @staticmethod
    def _brute_components(allv, thr):
        m = allv / np.linalg.norm(allv, axis=1, keepdims=True)
        sims = m @ m.T
        n = len(m)
        label = np.arange(n)
        ai, bi = np.nonzero(np.triu(sims >= thr, k=1))
        for _ in range(n):
            before = label.copy()
            np.minimum.at(label, bi, label[ai])
            np.minimum.at(label, ai, label[bi])
            label = label[label]
            if np.array_equal(label, before):
                break
        return label

    def test_exact_plan_matches_bruteforce_union_find(self, rd, ray_session):
        from dynaalign_ray.functions.similarity_search import semantic_dedup

        ds, allv = self._emb(rd)
        thr = 0.9
        want = self._brute_components(allv, thr)
        rows = semantic_dedup(ds, thr, plan="exact", num_partitions=4).take_all()
        assert len(rows) == len(allv)
        got = {r["vec_id"]: (r["cluster_id"], r["keep"]) for r in rows}
        n_multi = 0
        for vid, lbl in enumerate(want):
            assert got[vid][0] == lbl, vid
            assert got[vid][1] == (vid == lbl)
            n_multi += int(vid != lbl)
        assert n_multi >= 12  # the planted dups actually merged

    def test_kmeans_plan_agreement_and_recall(self, rd, ray_session):
        """With n_assign=2 on this fixture the bucketed SemDeDup plan finds
        enough boundary pairs that components agree with the exact plan;
        pair recall is additionally gated directly."""
        from dynaalign_ray.functions.similarity_search import (
            cosine_neardup_kmeans,
            cosine_neardup_pairs,
            semantic_dedup,
        )

        ds, allv = self._emb(rd)
        thr = 0.9
        exact_pairs = {
            (r["a"], r["b"]) for r in cosine_neardup_pairs(ds, thr).take_all()
        }
        got_pairs_rows = cosine_neardup_kmeans(
            ds, thr, n_centroids=8, n_assign=2, num_partitions=4
        ).take_all()
        got_pairs = {(r["a"], r["b"]) for r in got_pairs_rows}
        assert len(got_pairs) == len(got_pairs_rows)  # cross-assignment dedup held
        assert got_pairs <= exact_pairs  # precision 1.0 (scored exactly)
        recall = len(got_pairs & exact_pairs) / max(len(exact_pairs), 1)
        assert recall >= 0.9, (recall, len(exact_pairs))

        exact_cc = {
            r["vec_id"]: r["cluster_id"]
            for r in semantic_dedup(ds, thr, plan="exact", num_partitions=4).take_all()
        }
        km_cc = {
            r["vec_id"]: r["cluster_id"]
            for r in semantic_dedup(
                ds, thr, plan="kmeans", num_partitions=4, n_centroids=8, n_assign=2
            ).take_all()
        }
        agree = sum(1 for k in exact_cc if exact_cc[k] == km_cc[k])
        assert agree / len(exact_cc) >= 0.97, agree

    def test_pair_cap_star_fallback_preserves_components(self, rd, ray_session):
        """Forcing pair_cap far below the densest bucket must not change the
        connected components (star edges keep connectivity)."""
        from dynaalign_ray.functions.similarity_search import semantic_dedup

        ds, allv = self._emb(rd)
        thr = 0.9
        base = {
            r["vec_id"]: r["cluster_id"]
            for r in semantic_dedup(
                ds, thr, plan="kmeans", num_partitions=4, n_centroids=4, n_assign=2
            ).take_all()
        }
        capped = {
            r["vec_id"]: r["cluster_id"]
            for r in semantic_dedup(
                ds,
                thr,
                plan="kmeans",
                num_partitions=4,
                n_centroids=4,
                n_assign=2,
                pair_cap=3,
            ).take_all()
        }
        assert base == capped

    def test_duckdb_parity_sf0001(self, ray_session):
        entry = _entry()
        got = _canon(
            entry.queries()["embedding_semdedup"]("/root/testdata/sf0.001").to_pandas()
        )
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW embeddings AS SELECT * FROM "
            "read_parquet('/root/testdata/sf0.001/embeddings.parquet')"
        )
        want = _canon(con.sql(entry.oracle_sql()["embedding_semdedup"]).df())
        assert len(got) == len(want) > 0
        assert list(got.columns) == list(want.columns)
        for c in got.columns:
            assert got[c].tolist() == want[c].tolist(), c

    def test_exact_plan_distributed_cc_agreement(self, rd, ray_session):
        """Forcing the contraction-CC path (small_cc_limit=0) must produce
        the identical semantic-dedup assignment as the driver union-find."""
        from dynaalign_ray.functions.similarity_search import semantic_dedup

        ds, _ = self._emb(rd)
        thr = 0.9
        drv = {
            r["vec_id"]: (r["cluster_id"], r["keep"])
            for r in semantic_dedup(ds, thr, plan="exact", num_partitions=4).take_all()
        }
        dist = {
            r["vec_id"]: (r["cluster_id"], r["keep"])
            for r in semantic_dedup(
                ds, thr, plan="exact", num_partitions=4, small_cc_limit=0
            ).take_all()
        }
        assert drv == dist


# ------------------------------------------- greedy sequence packing


class TestPackSequences:
    def test_duckdb_parity_sf0001(self, ray_session):
        entry = _entry()
        got = _canon(
            entry.queries()["doc_pack_sequences"]("/root/testdata/sf0.001").to_pandas()
        )
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            "read_parquet('/root/testdata/sf0.001/documents.parquet')"
        )
        want = _canon(con.sql(entry.oracle_sql()["doc_pack_sequences"]).df())
        assert len(got) == len(want) > 0
        assert list(got.columns) == list(want.columns)
        for c in got.columns:
            assert got[c].tolist() == want[c].tolist(), c

    def test_packing_laws(self, ray_session):
        """Greedy invariants on real data: packs respect the budget unless
        singleton-oversized; pack members are contiguous in doc_id order;
        pack_id is the first member; greedy maximality (the doc after a
        pack's last member would not have fit)."""
        from dynaalign_ray.pipelines.curation import doc_pack_sequences

        budget = 160
        df = (
            doc_pack_sequences("/root/testdata/sf0.001", pack_budget=budget)
            .to_pandas()
            .sort_values(["source", "doc_id"])
            .reset_index(drop=True)
        )
        assert len(df) == 500
        n_multi = 0
        for (_, pid), grp in df.groupby(["source", "pack_id"]):
            total = grp.n_tokens.sum()
            assert pid == grp.doc_id.min()
            if len(grp) > 1:
                assert total <= budget
                n_multi += 1
        assert n_multi > 0  # the budget actually packs multiple docs
        for src, grp in df.groupby("source"):
            grp = grp.sort_values("doc_id").reset_index(drop=True)
            # contiguity: pack changes are the only boundaries
            changes = (grp.pack_id != grp.pack_id.shift()).cumsum()
            assert grp.groupby(changes).pack_id.nunique().eq(1).all()
            assert grp.pack_id.nunique() == len(set(changes))
            # greedy maximality: first doc of each new pack would overflow
            # the previous pack
            cum = 0
            prev_pack = None
            for _, row in grp.iterrows():
                if row.pack_id != prev_pack:
                    if prev_pack is not None:
                        assert cum + row.n_tokens > budget
                    cum = row.n_tokens
                    prev_pack = row.pack_id
                else:
                    cum += row.n_tokens

    def test_oversized_doc_packs_alone_and_reshard_stable(self, ray_session):
        """A doc bigger than the whole budget gets its own pack, and the
        assignment is identical across partition counts."""
        import pyarrow as pa
        import ray.data as rd

        from dynaalign_ray.pipelines.curation import doc_pack_sequences
        import dynaalign_ray.pipelines.curation as cur

        texts = ["w " * 50, "w " * 200, "w " * 30, "w " * 30, "w " * 90]
        tbl = pa.table(
            {
                "doc_id": pa.array(range(5), pa.int64()),
                "source": pa.array(["s"] * 5),
                "text": pa.array([t.strip() for t in texts]),
            }
        )
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            import pyarrow.parquet as pq

            pq.write_table(tbl, os.path.join(d, "documents.parquet"))
            out1 = (
                doc_pack_sequences(d, pack_budget=100, num_partitions=1)
                .to_pandas()
                .sort_values("doc_id")
            )
            out2 = (
                doc_pack_sequences(d, pack_budget=100, num_partitions=7)
                .to_pandas()
                .sort_values("doc_id")
            )
        assert out1.pack_id.tolist() == out2.pack_id.tolist()
        # doc0 (50) opens pack 0; doc1 (200) oversized -> alone; doc2+doc3
        # (30+30) share; doc4 (90) fits too (30+30+90=150>100 -> no); check:
        assert out1.pack_id.tolist() == [0, 1, 2, 2, 4]
