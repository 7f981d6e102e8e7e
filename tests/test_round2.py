"""Round-2 regression tests: vectorized NW DP parity vs a scalar reference
DP for every substitution matrix, the full BLOSUM table set, the substring
diagonal-run verify kernel (contiguity), LSH multiprobe expansion, and
checkpoint invalidation on runtime knobs outside DedupConfig."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from dynaalign_ray.config import DedupConfig


@pytest.fixture()
def rd(ray_session):
    return ray.data


# ---------------------------------------------------------------- NW parity


def _scalar_nw(s1, s2, alphabet, sub, gap_open, gap_ext):
    """Independent scalar 3-matrix affine-gap DP (the reference's loop
    structure, pairwiseSeqAlign.cpp:216-313) used as the parity oracle for
    the vectorized kernel."""
    idx = {c: i for i, c in enumerate(alphabet)}
    x = [idx[c] for c in s1]
    y = [idx[c] for c in s2]
    n, m = len(x), len(y)
    NEG = -(10**9)
    M = [[NEG] * (m + 1) for _ in range(n + 1)]
    Ix = [[NEG] * (m + 1) for _ in range(n + 1)]
    Iy = [[NEG] * (m + 1) for _ in range(n + 1)]
    M[0][0] = 0
    for i in range(1, n + 1):
        Ix[i][0] = -gap_open - gap_ext * (i - 1)
    for j in range(1, m + 1):
        Iy[0][j] = -gap_open - gap_ext * (j - 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            M[i][j] = (
                max(M[i - 1][j - 1], Ix[i - 1][j - 1], Iy[i - 1][j - 1])
                + sub[x[i - 1]][y[j - 1]]
            )
            Ix[i][j] = max(M[i - 1][j] - gap_open, Ix[i - 1][j] - gap_ext)
            Iy[i][j] = max(M[i][j - 1] - gap_open, Iy[i][j - 1] - gap_ext)
    # traceback (same tie conventions as the engine kernel)
    i, j = n, m
    cand = [M[n][m], Ix[n][m], Iy[n][m]]
    state = cand.index(max(cand))
    matches = length = 0
    while i > 0 or j > 0:
        length += 1
        if state == 0 and i > 0 and j > 0:
            if x[i - 1] == y[j - 1]:
                matches += 1
            cand = [M[i - 1][j - 1], Ix[i - 1][j - 1], Iy[i - 1][j - 1]]
            state = cand.index(max(cand))
            i, j = i - 1, j - 1
        elif state == 1 and i > 0:
            state = 0 if M[i - 1][j] - gap_open >= Ix[i - 1][j] - gap_ext else 1
            i -= 1
        elif state == 2 and j > 0:
            state = 0 if M[i][j - 1] - gap_open >= Iy[i][j - 1] - gap_ext else 2
            j -= 1
        else:
            state = 1 if i > 0 else 2
    return matches / length if length else 0.0


ALL_MATRICES = ["BLOSUM45", "BLOSUM50", "BLOSUM62", "BLOSUM80", "BLOSUM90", "BLOSUM100"]


class TestNW:
    @pytest.mark.parametrize("name", ALL_MATRICES + ["IDENTITY"])
    def test_vectorized_matches_scalar_dp(self, name):
        from dynaalign_ray.stages.nw import (
            AA_ALPHABET,
            get_substitution_matrix,
            nw_similarity,
        )

        alphabet, sub = get_substitution_matrix(name)
        rng = np.random.Generator(np.random.PCG64(7))
        letters = "ARNDCQEGHILKMFPSTWYV"
        for _ in range(6):
            la, lb = int(rng.integers(3, 40)), int(rng.integers(3, 40))
            s1 = "".join(rng.choice(list(letters), la))
            s2 = "".join(rng.choice(list(letters), lb))
            got = nw_similarity(s1, s2, name)
            want = _scalar_nw(s1, s2, alphabet, sub.tolist(), 10, 4)
            assert got == pytest.approx(want), (name, s1, s2)

    def test_all_six_reference_tables_present(self):
        from dynaalign_ray.stages.blosum import TABLES

        assert set(TABLES) == set(ALL_MATRICES)
        for name, t in TABLES.items():
            assert t.shape == (24, 24)
            assert (t == t.T).all(), name
        # spot values from the public NCBI tables
        assert TABLES["BLOSUM45"][0][0] == 5
        assert TABLES["BLOSUM80"][17][17] == 16  # W/W
        assert TABLES["BLOSUM100"][4][4] == 14  # C/C

    def test_long_pair_parity(self):
        # ~200-aa pair with a planted mutation — the vectorized Iy prefix-max
        # must agree with the scalar scan on long sequences too
        from dynaalign_ray.stages.nw import (
            get_substitution_matrix,
            nw_similarity,
        )

        rng = np.random.Generator(np.random.PCG64(11))
        letters = "ARNDCQEGHILKMFPSTWYV"
        s1 = "".join(rng.choice(list(letters), 200))
        s2 = s1[:80] + "GG" + s1[95:]
        alphabet, sub = get_substitution_matrix("BLOSUM62")
        assert nw_similarity(s1, s2) == pytest.approx(
            _scalar_nw(s1, s2, alphabet, sub.tolist(), 10, 4)
        )

    def test_unknown_matrix_errors(self):
        from dynaalign_ray.stages.nw import get_substitution_matrix

        with pytest.raises(ValueError, match="Unknown substitution matrix"):
            get_substitution_matrix("BLOSUM999")


# ------------------------------------------------- substring diagonal runs


class TestSubstringDiagonal:
    def test_scattered_membership_is_not_a_run(self):
        # consecutive A-grams each present in B but at scattered positions:
        # membership (np.isin) would report a 4-run; the diagonal kernel
        # must not (the ADVICE false-positive mode)
        from dynaalign_ray.stages.substring import _longest_diagonal_run

        ga = np.array([1, 2, 3, 4], dtype=np.uint64)
        gb = np.array([4, 9, 3, 9, 2, 9, 1], dtype=np.uint64)
        assert _longest_diagonal_run(ga, gb) == 1

    def test_contiguous_run_detected(self):
        from dynaalign_ray.stages.substring import _longest_diagonal_run

        ga = np.array([7, 1, 2, 3, 4, 8], dtype=np.uint64)
        gb = np.array([9, 9, 1, 2, 3, 4], dtype=np.uint64)
        assert _longest_diagonal_run(ga, gb) == 4

    def test_repetitive_doc_diagonal(self):
        # repeated grams: the true contiguous run must still be found among
        # the multi-occurrence expansion
        from dynaalign_ray.stages.substring import _longest_diagonal_run

        ga = np.array([5, 5, 5, 5, 5], dtype=np.uint64)
        gb = np.array([5, 5, 5], dtype=np.uint64)
        assert _longest_diagonal_run(ga, gb) == 3

    def test_verify_batch_end_to_end(self):
        import pyarrow as pa

        from dynaalign_ray.stages.substring import verify_substring_batch

        rng = np.random.Generator(np.random.PCG64(21))
        letters = list("abcdefghijklmnopqrstuvwxyz ")
        shared = "".join(rng.choice(letters, 250))
        ta = "AAA " * 50 + shared + " BBB" * 30
        tb = "CCC " * 40 + shared + " DDD" * 20
        tc = "totally different " * 40
        batch = pa.table(
            {
                "a": pa.array([1, 1], pa.int64()),
                "b": pa.array([2, 3], pa.int64()),
                "text_a": pa.array([ta, ta]),
                "text_b": pa.array([tb, tc]),
            }
        )
        out = verify_substring_batch(batch, min_len=200)
        assert out.num_rows == 1
        assert out.column("a")[0].as_py() == 1 and out.column("b")[0].as_py() == 2
        assert out.column("match_len")[0].as_py() >= 200


# --------------------------------------------------------- LSH multiprobe


class TestMultiprobe:
    def test_full_probe_radius_equals_bruteforce(self, rd, ray_session):
        # with multiprobe == n_bits every bucket is probed, so the LSH
        # result must equal exact brute force; the pre-fix expansion only
        # ever generated 1-bit flips and misses >= 2-bit-away vectors
        from dynaalign_ray.functions.similarity_search import (
            brute_force_topk,
            lsh_bucket_topk,
        )
        import pyarrow as pa

        rng = np.random.Generator(np.random.PCG64(3))
        vecs = rng.standard_normal((64, 16))
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(64), pa.int64()),
                "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
            }
        )
        ds = rd.from_arrow(tbl)
        queries = vecs[:3]
        exact = brute_force_topk(ds, queries, k=3)
        approx = lsh_bucket_topk(ds, queries, k=3, n_bits=6, multiprobe=6, seed=5)
        assert exact.column("vec_id").to_pylist() == approx.column("vec_id").to_pylist()

    def test_probe_set_grows_with_radius(self, rd, ray_session):
        # radius-2 candidates must be a superset of radius-1's (recall can
        # only grow) — regression for the silent multiprobe=1 behavior
        from dynaalign_ray.functions.similarity_search import lsh_bucket_topk
        import pyarrow as pa

        rng = np.random.Generator(np.random.PCG64(9))
        vecs = rng.standard_normal((128, 12))
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(128), pa.int64()),
                "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
            }
        )
        ds = rd.from_arrow(tbl)
        queries = vecs[:4]
        r1 = lsh_bucket_topk(ds, queries, k=8, n_bits=8, multiprobe=1, seed=5)
        r2 = lsh_bucket_topk(ds, queries, k=8, n_bits=8, multiprobe=2, seed=5)
        # cosine of the worst rank can only improve (more candidates seen)
        for qi in range(4):
            c1 = [
                r1.column("cosine")[i].as_py()
                for i in range(r1.num_rows)
                if r1.column("query_id")[i].as_py() == qi
            ]
            c2 = [
                r2.column("cosine")[i].as_py()
                for i in range(r2.num_rows)
                if r2.column("query_id")[i].as_py() == qi
            ]
            assert len(c2) >= len(c1)
            if c1 and c2:
                assert min(c2) >= min(c1) - 1e-12 or len(c2) > len(c1)


# ------------------------------------------- checkpoint lineage coverage


class TestCheckpointKnobs:
    def test_salt_hot_change_invalidates_checkpoint(self, rd, ray_session, small_corpus, tmp_path):
        """A knob outside DedupConfig (here the partition count) is part of
        the checkpoint lineage."""
        from dynaalign_ray.pipelines.neardup import near_dedup

        pages, _ = small_corpus
        cfg = DedupConfig()
        ck = str(tmp_path / "ck")
        res1 = near_dedup(
            pages_ds=rd.from_arrow(pages), cfg=cfg, num_partitions=4, checkpoint_dir=ck
        )
        res1.clusters.count()
        # same knobs -> resume
        res2 = near_dedup(
            pages_ds=rd.from_arrow(pages), cfg=cfg, num_partitions=4, checkpoint_dir=ck
        )
        assert res2.stats["stages"]["pairs"].get("resumed") is True
        # flipping a knob OUTSIDE DedupConfig must invalidate the lineage
        res3 = near_dedup(
            pages_ds=rd.from_arrow(pages), cfg=cfg, num_partitions=2, checkpoint_dir=ck
        )
        assert res3.stats["stages"]["pairs"].get("resumed") is not True


# ------------------------------------------------ sessionizer block kernel


class TestSessionizer:
    def test_block_kernel_matches_per_group_scan(self, rd, ray_session):
        import pyarrow as pa

        from dynaalign_ray.stages.windows import user_sessions

        rng = np.random.Generator(np.random.PCG64(13))
        n = 2000
        uid = rng.integers(0, 50, n)
        ts = rng.integers(0, 10_000_000_000, n)
        gap = 1_800_000_000
        tbl = pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")).cast(pa.timestamp("us")),
            }
        )
        got = {
            (r["user_id"], r["session_start_us"]): r["n_events"]
            for r in user_sessions(rd.from_arrow(tbl), 4, gap_us=gap).take_all()
        }
        # brute-force per-user scan
        want = {}
        for u in np.unique(uid):
            t = np.sort(ts[uid == u])
            start = t[0]
            cnt = 1
            for prev, cur in zip(t[:-1], t[1:]):
                if cur - prev > gap:
                    want[(int(u), int(start))] = cnt
                    start, cnt = cur, 1
                else:
                    cnt += 1
            want[(int(u), int(start))] = cnt
        assert got == want


# ------------------------------------------------- distributed quantile


class TestDistributedQuantile:
    def test_histogram_quantile_matches_exact(self, rd, ray_session):
        import pyarrow as pa

        from dynaalign_ray.pipelines.neardup import _approx_quantile

        rng = np.random.Generator(np.random.PCG64(17))
        vals = rng.beta(5, 2, 50_000)  # skewed mass near 1, like edge Jaccard
        ds = rd.from_arrow(pa.table({"jaccard": pa.array(vals, pa.float64())}))
        for q in (0.5, 0.8, 0.95):
            got = _approx_quantile(ds, "jaccard", q)
            assert got == pytest.approx(float(np.quantile(vals, q)), abs=1e-3)

    def test_empty_edges(self, rd, ray_session):
        import pyarrow as pa

        from dynaalign_ray.pipelines.neardup import _approx_quantile

        ds = rd.from_arrow(pa.table({"jaccard": pa.array([], pa.float64())}))
        assert _approx_quantile(ds, "jaccard", 0.9) == 0.0


# ------------------------------------------------------- size-gated dim join


class TestDimJoin:
    def test_broadcast_and_hash_plans_agree(self, rd, ray_session):
        import pyarrow as pa

        from dynaalign_ray.joins import dim_join

        rng = np.random.Generator(np.random.PCG64(19))
        fact = pa.table(
            {
                "k": pa.array(rng.integers(0, 30, 500), pa.int64()),
                "v": pa.array(rng.standard_normal(500), pa.float64()),
            }
        )
        dim = pa.table(
            {
                "dk": pa.array(np.arange(0, 25), pa.int64()),
                "name": pa.array([f"n{i}" for i in range(25)]),
            }
        )
        fs = pa.schema([("k", pa.int64()), ("v", pa.float64())])
        ds_schema = pa.schema([("dk", pa.int64()), ("name", pa.string())])
        kw = dict(
            left_on="k", right_on="dk", fact_schema=fs, dim_schema=ds_schema,
            num_partitions=4,
        )
        bc = dim_join(rd.from_arrow(fact), rd.from_arrow(dim), **kw).take_all()
        hj = dim_join(
            rd.from_arrow(fact), rd.from_arrow(dim), broadcast_limit=0, **kw
        ).take_all()
        key = lambda r: (r["k"], round(r["v"], 9), r["name"])
        assert sorted(map(key, bc)) == sorted(map(key, hj))


# ------------------------------------------------ clusterbreak size control


class TestClusterBreak:
    def _edges(self, rd, rows):
        import pyarrow as pa

        a, b, w = zip(*rows)
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array(a, pa.int64()),
                    "b": pa.array(b, pa.int64()),
                    "jaccard": pa.array(w, pa.float64()),
                }
            )
        )

    def _ids(self, rd, ids):
        import pyarrow as pa

        return rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64())}))

    def test_size_controller_semantics(self, rd, ray_session):
        # reference semantics (R/clusterbreak.R:224-254): drop < size_min,
        # emit [size_min, size_max] with "<round>.<cid>" labels, re-split
        # > size_max at the per-component thresh_p weight quantile
        from dynaalign_ray.pipelines.clusterbreak import cluster_break

        rows = []
        rows.append((1, 2, 0.9))  # pair -> size 2 -> filtered (size_min=3)
        for i in range(3, 7):  # path 3..7 -> size 5 -> emitted round 1
            rows.append((i, i + 1, 0.9))
        # oversized: two 6-cliques (8-13, 14-19) + one weak bridge
        import itertools

        for lo in (8, 14):
            for x, y in itertools.combinations(range(lo, lo + 6), 2):
                rows.append((x, y, 0.95))
        rows.append((13, 14, 0.75))  # the bridge the re-threshold must cut
        edges = self._edges(rd, rows)
        ids = self._ids(rd, list(range(1, 21)))  # node 20: singleton

        res = cluster_break(
            edges_ds=edges, all_ids_ds=ids, size_max=10, size_min=3,
            thresh_p=0.8, max_rounds=5, num_partitions=4,
        )
        out = {r["doc_id"]: (r["cluster_label"], r["round"]) for r in res.clustered.take_all()}
        filt = {r["doc_id"] for r in res.filtered.take_all()}

        assert res.converged is True
        assert res.rounds == 2
        assert filt == {1, 2, 20}
        assert set(out) | filt == set(range(1, 21))
        assert not (set(out) & filt)
        # round-1 emit: the size-5 path, label "1.<min doc_id>"
        for d in range(3, 8):
            assert out[d] == ("1.3", 1)
        # round-2 re-split: bridge cut, two 6-clusters
        for d in range(8, 14):
            assert out[d] == ("2.8", 2)
        for d in range(14, 20):
            assert out[d] == ("2.14", 2)

    def test_unsplittable_clique_flags_nonconvergence(self, rd, ray_session):
        # all-equal weights: the quantile threshold keeps every edge (the
        # reference recurses until max_itr with convergence=0); the engine
        # stops early, emits the cluster anyway, and flags converged=False
        from dynaalign_ray.pipelines.clusterbreak import cluster_break
        import itertools

        rows = [(x, y, 0.9) for x, y in itertools.combinations(range(1, 7), 2)]
        res = cluster_break(
            edges_ds=self._edges(rd, rows), all_ids_ds=self._ids(rd, list(range(1, 7))),
            size_max=3, size_min=1, thresh_p=0.8, max_rounds=4, num_partitions=2,
        )
        out = {r["doc_id"]: r["cluster_label"] for r in res.clustered.take_all()}
        assert res.converged is False
        assert set(out) == set(range(1, 7))  # nothing dropped
        assert all(v == "1.1" for v in out.values())

    def test_max_rounds_guard(self, rd, ray_session):
        # a chain that splits one level per round: max_rounds=1 must stop
        # after round 1 and emit the oversized remainder with convergence=0
        from dynaalign_ray.pipelines.clusterbreak import cluster_break
        import itertools

        # 8-clique with graded weights so re-thresholding makes progress
        rng = np.random.Generator(np.random.PCG64(5))
        rows = [
            (x, y, float(0.7 + 0.3 * rng.random()))
            for x, y in itertools.combinations(range(1, 9), 2)
        ]
        res = cluster_break(
            edges_ds=self._edges(rd, rows), all_ids_ds=self._ids(rd, list(range(1, 9))),
            size_max=4, size_min=1, thresh_p=0.5, max_rounds=1, num_partitions=2,
        )
        assert res.rounds == 1
        assert res.converged is False
        out = {r["doc_id"] for r in res.clustered.take_all()}
        assert out == set(range(1, 9))


# ------------------------------------------------- center-star consensus


class TestCenterStarConsensus:
    def _group(self, texts):
        import pandas as pd

        return pd.DataFrame(
            {
                "doc_id": np.arange(1, len(texts) + 1, dtype=np.int64),
                "cluster_id": np.ones(len(texts), dtype=np.int64),
                "text": texts,
                "n_chars": [len(t) for t in texts],
            }
        )

    def test_majority_restores_center(self):
        # ragged cluster: one deletion, one substitution — the center-star
        # profile must restore the undamaged sequence
        from dynaalign_ray.stages.consensus import make_center_star_consensus

        fn = make_center_star_consensus()
        out = fn(self._group(["ACDEFGHIK", "ACDFGHIK", "ACDEFGHIR"]))
        assert out["consensus"].iloc[0] == "ACDEFGHIK"
        assert out["n_members"].iloc[0] == 3

    def test_majority_deletion_wins(self):
        # two members carry the deletion: the consensus must drop the char
        from dynaalign_ray.stages.consensus import make_center_star_consensus

        fn = make_center_star_consensus()
        out = fn(self._group(["ACDEFGHIK", "ACDFGHIK", "ACDFGHIK"]))
        assert out["consensus"].iloc[0] == "ACDFGHIK"

    def test_equal_length_falls_through_to_majority_vote(self):
        from dynaalign_ray.stages.consensus import make_center_star_consensus

        fn = make_center_star_consensus()
        out = fn(self._group(["ACDEF", "ACDEF", "ACDEW"]))
        assert out["consensus"].iloc[0] == "ACDEF"

    def test_pluggable_in_cluster_consensus(self, rd, ray_session):
        import pyarrow as pa

        from dynaalign_ray.stages.consensus import (
            cluster_consensus,
            make_center_star_consensus,
        )

        docs = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(
                        ["ACDEFGHIK", "ACDFGHIK", "ACDEFGHIR", "WWWWW"]
                    ),
                }
            )
        )
        clusters = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "cluster_id": pa.array([1, 1, 1, 4], pa.int64()),
                }
            )
        )
        out = cluster_consensus(
            clusters, docs, 2, consensus_fn=make_center_star_consensus()
        ).take_all()
        rows = {r["cluster_id"]: r["consensus"] for r in out}
        assert rows == {1: "ACDEFGHIK"}  # singleton cluster 4 skipped


# ------------------------------------------- embedding-cosine near-dup


class TestCosineNearDup:
    def _emb(self, rd, n=300, dim=16, seed=23, planted=10):
        import pyarrow as pa

        rng = np.random.Generator(np.random.PCG64(seed))
        vecs = rng.standard_normal((n, dim))
        # plant near-dup pairs: vec[i+n] = vec[i] + tiny noise
        extra = vecs[:planted] + 0.05 * rng.standard_normal((planted, dim))
        allv = np.vstack([vecs, extra])
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(len(allv)), pa.int64()),
                "embedding": pa.array(list(allv), pa.list_(pa.float64())),
            }
        )
        return rd.from_arrow(tbl), allv

    def test_exact_pairs_match_bruteforce(self, rd, ray_session):
        from dynaalign_ray.functions.similarity_search import cosine_neardup_pairs

        ds, allv = self._emb(rd)
        thr = 0.9
        got = {
            (r["a"], r["b"]): r["cosine"]
            for r in cosine_neardup_pairs(ds, thr).take_all()
        }
        m = allv / np.linalg.norm(allv, axis=1, keepdims=True)
        sims = m @ m.T
        iu, ju = np.triu_indices(len(m), 1)
        want = {
            (int(i), int(j)): float(sims[i, j])
            for i, j in zip(iu[sims[iu, ju] >= thr], ju[sims[iu, ju] >= thr])
        }
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k])
        assert len(want) >= 10  # the planted pairs are present

    def test_lsh_recall_vs_exact(self, rd, ray_session):
        from dynaalign_ray.functions.similarity_search import (
            cosine_neardup_lsh,
            cosine_neardup_pairs,
        )

        ds, _ = self._emb(rd)
        thr = 0.9
        exact = {(r["a"], r["b"]) for r in cosine_neardup_pairs(ds, thr).take_all()}
        lsh_rows = cosine_neardup_lsh(ds, thr, num_partitions=4).take_all()
        approx = {(r["a"], r["b"]) for r in lsh_rows}
        assert len(lsh_rows) == len(approx)  # cross-band dedup held
        assert approx <= exact  # no false positives (scored exactly)
        recall = len(approx & exact) / max(len(exact), 1)
        assert recall >= 0.95, (recall, len(exact))


# ------------------------------------------- exact n-gram Jaccard pairs


class TestDocJaccardPairs:
    def test_matches_duckdb_bruteforce(self, rd, ray_session):
        """The exact all-pairs shingle-Jaccard query equals a DuckDB
        self-join on exploded shingles (same tokenization as the
        doc_shingle_counts oracle)."""
        import duckdb

        from dynaalign_ray.pipelines.curation import doc_jaccard_pairs

        sf = "/root/testdata/sf0.001"
        got = {
            (r["a"], r["b"]): r["jaccard"]
            for r in doc_jaccard_pairs(sf, k=3, threshold=0.5).take_all()
        }
        want_rows = duckdb.sql(
            f"""
            WITH t AS (
                SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks
                FROM '{sf}/documents.parquet'
            ),
            s AS (
                SELECT doc_id, unnest(list_distinct(list_transform(
                    generate_series(1, len(toks) - 2),
                    i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                ))) AS sh
                FROM t WHERE len(toks) >= 3
            ),
            c AS (SELECT doc_id, count(*) AS n FROM s GROUP BY doc_id),
            inter AS (
                SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
                FROM s x JOIN s y ON x.sh = y.sh AND x.doc_id < y.doc_id
                GROUP BY 1, 2
            )
            SELECT a, b, i * 1.0 / (ca.n + cb.n - i) AS j
            FROM inter JOIN c ca ON ca.doc_id = a JOIN c cb ON cb.doc_id = b
            WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.5
            """
        ).fetchall()
        want = {(a, b): j for a, b, j in want_rows}
        assert set(got) == set(want)
        for k_, v in want.items():
            assert got[k_] == pytest.approx(v, abs=1e-4)
        assert len(want) > 0


# ------------------------------------------- multi-format sources


class TestReadTableFormats:
    def test_jsonl_and_csv_roundtrip(self, rd, ray_session, tmp_path):
        import pyarrow.csv as pcsv

        from dynaalign_ray.sources.io import read_table

        rows = [
            {"doc_id": 1, "text": "alpha beta", "lang": "en"},
            {"doc_id": 2, "text": "gamma delta", "lang": "de"},
        ]
        jl = tmp_path / "docs.jsonl"
        jl.write_text("\n".join(__import__("json").dumps(r) for r in rows) + "\n")
        cv = tmp_path / "docs.csv"
        cv.write_text("doc_id,text,lang\n1,alpha beta,en\n2,gamma delta,de\n")

        for path, fmt in ((str(jl), "jsonl"), (str(cv), "csv")):
            got = sorted(
                read_table(path, columns=["doc_id", "text"], format=fmt).take_all(),
                key=lambda r: r["doc_id"],
            )
            assert [sorted(r) for r in got] == [["doc_id", "text"]] * 2
            assert [r["text"] for r in got] == ["alpha beta", "gamma delta"]


class TestSignLshTuner:
    def test_predicted_recall_meets_target(self):
        """For any threshold in (0,1) the solved (n_bands, band_bits) give
        analytic recall 1-(1-p^r)^b >= target (up to the b<=64 cap)."""
        from dynaalign_ray.functions.similarity_search import _tune_sign_lsh

        for thr in (0.05, 0.2, 0.35, 0.5, 0.7, 0.9, 0.99, 0.999):
            for target in (0.9, 0.95):
                b, r = _tune_sign_lsh(thr, target, None)
                p = 1.0 - np.arccos(thr) / np.pi
                recall = 1.0 - (1.0 - p**r) ** b
                if b < 64:  # below the band cap the target must be met
                    assert recall >= target - 1e-9, (thr, target, b, r, recall)
                assert 1 <= b <= 64 and 3 <= r <= 32

    def test_row_hint_raises_bits(self):
        from dynaalign_ray.functions.similarity_search import _tune_sign_lsh

        b_small, r_small = _tune_sign_lsh(0.35, 0.95, None)
        b_big, r_big = _tune_sign_lsh(0.35, 0.95, 10_000_000)
        assert r_big > r_small  # bucket-size control kicks in
        p = 1.0 - np.arccos(0.35) / np.pi
        if b_big < 64:
            assert 1.0 - (1.0 - p**r_big) ** b_big >= 0.95 - 1e-9


# ------------------------------------------- hot-key counting plans


class TestHotKeyPlans:
    def _bands(self, rd, n_hot=5000, n_cold=2000, seed=7):
        import pyarrow as pa

        rng = np.random.Generator(np.random.PCG64(seed))
        hot_key = 123456789
        keys = np.concatenate(
            [
                np.full(n_hot, hot_key, dtype=np.int64),
                rng.integers(1, 1 << 60, n_cold).astype(np.int64),
            ]
        )
        docs = np.arange(len(keys), dtype=np.int64)
        perm = rng.permutation(len(keys))
        tbl = pa.table({"band_key": pa.array(keys[perm]), "doc_id": pa.array(docs[perm])})
        return rd.from_arrow(tbl).repartition(num_blocks=6), hot_key

    def test_driver_merge_and_distributed_agree_on_hot_keys(self, rd, ray_session):
        from dynaalign_ray.config import DedupConfig
        from dynaalign_ray.stages import bands as B

        cfg = DedupConfig()  # salt_cap 4096
        ds, hot_key = self._bands(rd)
        k_drv, n_drv = B.find_hot_band_keys(ds, cfg, 4, approx_rows=7000)
        # force the beyond-limit plan (groupby over c>=2 partials)
        old = B._DRIVER_MERGE_LIMIT
        try:
            B._DRIVER_MERGE_LIMIT = 0
            k_dist, n_dist = B.find_hot_band_keys(ds, cfg, 4, approx_rows=7000)
        finally:
            B._DRIVER_MERGE_LIMIT = old
        assert hot_key in set(k_drv.tolist())
        # the distributed plan uses the conservative salt_cap/2 threshold, so
        # it must find every driver-merge hot key (it may salt extras)
        assert set(k_drv.tolist()) <= set(k_dist.tolist())
        # counts for the genuinely hot key agree to within the undercount bound
        i = int(np.searchsorted(k_dist, hot_key))
        assert abs(int(n_dist[i]) - 5000) <= 12  # <= one singleton per block


# ------------------------------------------- review-fix regressions


class TestReviewFixes:
    def test_large_string_offsets(self, rd, ray_session):
        """large_string columns (int64 offsets) hash identically to string —
        reading their offsets as int32 would silently corrupt every span."""
        import pyarrow as pa

        from dynaalign_ray.shingles import _hash_utf8_spans, batch_shingle_hashes

        texts = ["alpha beta gamma delta", "x", "", "one two three four five"]
        small = pa.array(texts, type=pa.string())
        large = pa.array(texts, type=pa.large_string())
        assert np.array_equal(
            _hash_utf8_spans(small, seed=7), _hash_utf8_spans(large, seed=7)
        )
        h1, c1 = batch_shingle_hashes(small, 3, "word")
        h2, c2 = batch_shingle_hashes(large, 3, "word")
        assert np.array_equal(h1, h2) and np.array_equal(c1, c2)

    def test_quantile_keeps_equal_valued_mass(self, rd, ray_session):
        """_approx_quantile returns a value <= the true quantile so the
        downstream `>= q` refilter keeps the mass AT the quantile."""
        import pyarrow as pa

        from dynaalign_ray.pipelines.neardup import _approx_quantile

        ds = rd.from_arrow(
            pa.table({"jaccard": pa.array([0.5] * 1000, pa.float64())})
        )
        q = _approx_quantile(ds, "jaccard", 0.5)
        assert q <= 0.5  # midpoint bug returned 0.500025 and dropped all edges
        assert q >= 0.5 - 1e-4

    def test_cosine_lsh_oversized_bucket_star(self, rd, ray_session):
        """A duplicate group larger than pair_cap must still connect (star
        fallback) instead of being silently skipped."""
        import pyarrow as pa

        from dynaalign_ray.functions.similarity_search import cosine_neardup_lsh

        rng = np.random.Generator(np.random.PCG64(3))
        base = rng.standard_normal(16)
        vecs = base + 0.001 * rng.standard_normal((50, 16))
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(50), pa.int64()),
                "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
            }
        )
        ds = rd.from_arrow(tbl)
        rows = cosine_neardup_lsh(ds, 0.9, num_partitions=2, pair_cap=10).take_all()
        # star edges must connect all 50 into one component
        parent = {i: i for i in range(50)}
        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        for r in rows:
            parent[find(r["a"])] = find(r["b"])
        assert len({find(i) for i in range(50)}) == 1
        assert len(rows) >= 49


class TestTopTerms:
    def test_known_answer(self, rd):
        from dynaalign_ray.functions.tfidf import top_terms

        # 3 docs: "rare" appears only in doc 0 (df=1), "common" in all (df=3)
        t = pa.table(
            {
                "doc_id": pa.array([10, 11, 12], pa.int64()),
                "text": pa.array(
                    [
                        "common rare common",
                        "common filler filler",
                        "common  ",
                    ]
                ),
            }
        )
        out = top_terms(rd.from_arrow(t), num_partitions=2).to_pandas()
        out = out.set_index("doc_id").sort_index()
        # doc 10: rare tf=1 df=1 score=3 beats common tf=2 df=3 score=2
        assert out.loc[10, "term"] == "rare" and out.loc[10, "score"] == 3.0
        # doc 11: filler tf=2 df=1 score=6
        assert out.loc[11, "term"] == "filler" and out.loc[11, "score"] == 6.0
        # doc 12: only common tf=1 df=3 score=1
        assert out.loc[12, "term"] == "common" and out.loc[12, "score"] == 1.0

    def test_duckdb_parity_sf0001(self, rd):
        import duckdb
        import sys

        sys.path.insert(0, "/root/repo")
        import __ray_entry__ as entry

        got = (
            entry.queries()["doc_top_terms"]("/root/testdata/sf0.001")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            "read_parquet('/root/testdata/sf0.001/documents.parquet')"
        )
        want = (
            con.sql(entry.oracle_sql()["doc_top_terms"])
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(got) == len(want)
        assert got.doc_id.tolist() == want.doc_id.tolist()
        assert got.term.tolist() == want.term.tolist()
        assert got.tf.tolist() == want.tf.tolist()
        assert got.df.tolist() == want.df.tolist()
        # bit-exact: integer inputs, one multiply + one divide each side
        assert got.score.tolist() == want.score.tolist()


class TestExactQuantiles:
    def test_known_answer_and_duckdb_rule(self, rd):
        import duckdb

        from dynaalign_ray.functions.sketches import exact_int_quantiles

        rng = np.random.default_rng(3)
        vals = rng.integers(0, 200, size=5000).astype(np.int64)
        ds = rd.from_arrow(pa.table({"n": pa.array(vals, pa.int64())}))
        qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0]
        got = exact_int_quantiles(ds, "n", qs, num_partitions=3)
        con = duckdb.connect()
        con.register("t", pa.table({"n": pa.array(vals, pa.int64())}))
        for q, v in zip(got.column("q").to_pylist(), got.column("value").to_pylist()):
            want = con.sql(f"SELECT quantile_disc(n, {q}) FROM t").fetchone()[0]
            assert v == want, (q, v, want)

    def test_query_duckdb_parity_sf0001(self, rd):
        import duckdb
        import sys

        sys.path.insert(0, "/root/repo")
        import __ray_entry__ as entry

        got = entry.queries()["doc_length_quantiles"]("/root/testdata/sf0.001")
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            "read_parquet('/root/testdata/sf0.001/documents.parquet')"
        )
        want = con.sql(entry.oracle_sql()["doc_length_quantiles"]).arrow()
        assert got.column("q").to_pylist() == want.column("q").to_pylist()
        assert got.column("n_tokens").to_pylist() == want.column("n_tokens").to_pylist()


class TestTopBySource:
    def test_duckdb_parity_sf0001(self, rd):
        import duckdb
        import sys

        sys.path.insert(0, "/root/repo")
        import __ray_entry__ as entry

        got = (
            entry.queries()["doc_top_by_source"]("/root/testdata/sf0.001")
            .to_pandas()
            .sort_values(["source", "rnk"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            "read_parquet('/root/testdata/sf0.001/documents.parquet')"
        )
        want = (
            con.sql(entry.oracle_sql()["doc_top_by_source"])
            .df()
            .sort_values(["source", "rnk"])
            .reset_index(drop=True)
        )
        assert len(got) == len(want) > 0
        for col in ("source", "doc_id", "n_chars", "rnk"):
            assert got[col].tolist() == want[col].tolist(), col


class TestDistinctCount:
    def test_duckdb_parity_sf0001(self, rd):
        import duckdb
        import sys

        sys.path.insert(0, "/root/repo")
        import __ray_entry__ as entry

        got = (
            entry.queries()["events_type_users"]("/root/testdata/sf0.001")
            .to_pandas()
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.sql(
            "CREATE VIEW events AS SELECT * FROM "
            "read_parquet('/root/testdata/sf0.001/events.parquet')"
        )
        want = (
            con.sql(entry.oracle_sql()["events_type_users"])
            .df()
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        assert got.event_type.tolist() == want.event_type.tolist()
        assert got.n_users.tolist() == want.n_users.tolist()
