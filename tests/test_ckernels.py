"""Equivalence gate for the compiled verify kernel (ckernels) vs the
numpy reference semantics (shingles.jaccard_from_sketches).

The C path is an optimization only — any divergence from the numpy path
is a correctness bug, so these tests compare them bit-for-bit across the
exact branch (both sketches complete), the capped bottom-k estimator
branch, empty sides, and aliased value arrays (the broadcast-CSR layout).
"""

import numpy as np
import pytest

from dynaalign_ray import ckernels
from dynaalign_ray.shingles import jaccard_from_sketches


def _random_csr(rng, n_rows, cap, max_len):
    """Random sorted-distinct uint64 sketch rows packed as (vals, st, en)."""
    vals_l, st, en = [], [], []
    base = 0
    for _ in range(n_rows):
        ln = int(rng.integers(0, max_len + 1))
        # small value universe so intersections actually happen
        v = np.unique(rng.integers(0, 4 * max_len, size=ln).astype(np.uint64))
        if len(v) > cap:
            v = v[:cap]
        vals_l.append(v)
        st.append(base)
        en.append(base + len(v))
        base += len(v)
    vals = (
        np.concatenate(vals_l) if vals_l else np.empty(0, dtype=np.uint64)
    )
    return vals, np.array(st, dtype=np.int64), np.array(en, dtype=np.int64)


def test_ckernel_compiles():
    assert ckernels.available(), "cc present in this image; build must work"


def test_jaccard_batch_matches_numpy_exact_and_capped():
    rng = np.random.default_rng(7)
    for cap in (8, 64, 512):
        vals, st, en = _random_csr(rng, 400, cap, max_len=cap + cap // 2)
        n = 200
        ia = rng.integers(0, 400, size=n)
        ib = rng.integers(0, 400, size=n)
        got = ckernels.jaccard_batch(
            vals, st[ia], en[ia], vals, st[ib], en[ib], cap
        )
        assert got is not None
        want = np.array(
            [
                jaccard_from_sketches(
                    vals[st[a] : en[a]], vals[st[b] : en[b]], cap
                )
                for a, b in zip(ia, ib)
            ]
        )
        np.testing.assert_array_equal(got, want)


def test_jaccard_batch_distinct_value_arrays():
    """The join verify plans pass two different flat-value arrays."""
    rng = np.random.default_rng(11)
    va, sta, ena = _random_csr(rng, 100, 32, 40)
    vb, stb, enb = _random_csr(rng, 100, 32, 40)
    got = ckernels.jaccard_batch(va, sta, ena, vb, stb, enb, 32)
    assert got is not None
    want = np.array(
        [
            jaccard_from_sketches(va[sta[i] : ena[i]], vb[stb[i] : enb[i]], 32)
            for i in range(100)
        ]
    )
    np.testing.assert_array_equal(got, want)


def test_jaccard_batch_empty_sides_and_identical():
    v = np.array([1, 2, 3, 4], dtype=np.uint64)
    st = np.array([0, 0, 0], dtype=np.int64)  # rows: empty, full, full
    en = np.array([0, 4, 4], dtype=np.int64)
    got = ckernels.jaccard_batch(
        v,
        np.array([0, 0, 0], dtype=np.int64),
        np.array([0, 4, 0], dtype=np.int64),
        v,
        st,
        en,
        512,
    )
    assert got is not None
    # (empty, empty)=0, (full, full)=1, (empty, full)=0
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])


def test_jaccard_row_vs_tail_matches_pairwise():
    rng = np.random.default_rng(3)
    vals, st, en = _random_csr(rng, 50, 1 << 31, 30)
    for row in (0, 10, 48, 49):
        got = ckernels.jaccard_row_vs_tail(vals, st, en, row)
        assert got is not None
        want = np.array(
            [
                jaccard_from_sketches(
                    vals[st[row] : en[row]], vals[st[q] : en[q]], 1 << 62
                )
                for q in range(row + 1, 50)
            ]
        )
        np.testing.assert_array_equal(got, want)


def test_fused_minhash_matches_numpy():
    import unittest.mock as mock

    import dynaalign_ray.ckernels as ck
    import dynaalign_ray.shingles as S
    from dynaalign_ray.hashing import make_permutations

    rng = np.random.default_rng(17)
    a, b = make_permutations(64, seed=99)
    # counts include zeros (empty docs -> U64_MAX sentinel rows)
    counts = rng.integers(0, 40, size=200).astype(np.int64)
    counts[::13] = 0
    sh = rng.integers(0, 2**63, size=int(counts.sum())).astype(np.uint64)
    fused = S.minhash_signatures(sh, counts, a, b)
    with mock.patch.object(ck, "minhash_segments", lambda *x: None):
        plain = S.minhash_signatures(sh, counts, a, b)
    np.testing.assert_array_equal(fused, plain)
    assert (fused[counts == 0] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()


def test_fused_simhash_matches_numpy():
    import unittest.mock as mock

    import dynaalign_ray.ckernels as ck
    import dynaalign_ray.shingles as S

    rng = np.random.default_rng(23)
    counts = rng.integers(0, 70, size=300).astype(np.int64)
    counts[::7] = 0
    sh = rng.integers(0, 2**64, size=int(counts.sum()), dtype=np.uint64)
    fused = S.simhash_signatures(sh, counts)
    with mock.patch.object(ck, "simhash_segments", lambda *x: None):
        plain = S.simhash_signatures(sh, counts)
    np.testing.assert_array_equal(fused, plain)
    assert (fused[counts == 0] == 0).all()


def test_verify_helper_falls_back_without_compiler(monkeypatch):
    """_pairwise_jaccard must produce identical output with the kernel
    disabled (the no-compiler degradation path)."""
    from dynaalign_ray.stages import verify as V

    rng = np.random.default_rng(5)
    vals, st, en = _random_csr(rng, 60, 16, 24)
    ia = rng.integers(0, 60, size=80)
    ib = rng.integers(0, 60, size=80)
    with_c = V._pairwise_jaccard(vals, st[ia], en[ia], vals, st[ib], en[ib], 16)
    monkeypatch.setattr(ckernels, "jaccard_batch", lambda *a, **k: None)
    without = V._pairwise_jaccard(vals, st[ia], en[ia], vals, st[ib], en[ib], 16)
    np.testing.assert_array_equal(with_c, without)


def test_jaccard_cross_block_matches_pairwise():
    rng = np.random.default_rng(9)
    va, sa, ea = _random_csr(rng, 21, 1 << 31, 25)
    vb, sb, eb = _random_csr(rng, 17, 1 << 31, 25)
    got = ckernels.jaccard_cross_block(va, sa, ea, vb, sb, eb)
    assert got is not None
    assert got.shape == (21, 17)
    want = np.array(
        [
            [
                jaccard_from_sketches(
                    va[sa[r] : ea[r]], vb[sb[q] : eb[q]], 1 << 62
                )
                for q in range(17)
            ]
            for r in range(21)
        ]
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_jaccard_cross_block_empty_rows():
    v = np.array([1, 2, 3], dtype=np.uint64)
    sa = np.array([0, 0], dtype=np.int64)
    ea = np.array([0, 3], dtype=np.int64)  # rows: empty, {1,2,3}
    got = ckernels.jaccard_cross_block(v, sa, ea, v, sa, ea)
    assert got is not None
    np.testing.assert_array_equal(got, [[0.0, 0.0], [0.0, 1.0]])


def test_failed_build_warns_with_compiler_stderr(monkeypatch, tmp_path):
    """A build that fails falls back to numpy, and says so with cc's stderr."""
    monkeypatch.delenv("DYNAALIGN_NO_CKERNEL", raising=False)
    monkeypatch.setattr(ckernels, "_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(ckernels, "_C_SOURCE", "int broken(void) { return undeclared_name; }\n")
    with pytest.warns(RuntimeWarning, match="(?s)numpy fallback.*undeclared_name"):
        assert ckernels._build() is None
    assert not any(p.suffix == ".so" for p in tmp_path.iterdir())
