"""Shape fuzz for the signature kernels: the compiled path (ckernels) and
the numpy fallback must give byte-identical token hashes, window hashes,
bottom-k sketches and signature tables for every batch shape (whole,
sliced, multi-chunk, empty, one-row, large_string) and awkward text (null,
all-whitespace, shorter than k, non-ASCII and Unicode whitespace).  The
fallback side runs with ``ckernels._load`` stubbed to None, exactly what a
host without a C compiler runs."""

import numpy as np
import pyarrow as pa
import pytest

from dynaalign_ray import ckernels
from dynaalign_ray.config import DedupConfig
from dynaalign_ray.shingles import (
    _hash_utf8_spans,
    batch_shingle_hashes,
    bottomk_sketches,
    list_matrix,
)
from dynaalign_ray.stages.minhash import minhash_batch

_VOCAB = ["a", "b", "the", "page", "naïve", "東京", "дом", "🙂", "x" * 40, "á"]
# ASCII and Unicode whitespace: Arrow's utf8_split_whitespace splits on all
_SPACES = [" ", "  ", "\t", "\n", " ", " ", "　", " 　 "]


def _texts(seed: int, n: int = 64) -> list:
    rng = np.random.default_rng(seed)
    out = [None, "", "   ", "  　", "one", "two words", "a b c d"]
    while len(out) < n:
        m = int(rng.integers(0, 40))
        parts = [
            str(rng.choice(_VOCAB)) + str(rng.choice(_SPACES)) for _ in range(m)
        ]
        lead = str(rng.choice(_SPACES)) if rng.random() < 0.3 else ""
        out.append(lead + "".join(parts))
    rng.shuffle(out)
    return out


def _shapes(texts: list) -> dict:
    arr = pa.array(texts, type=pa.string())
    n = len(arr)
    return {
        "whole": arr,
        "sliced": arr.slice(3, n - 8),
        "chunked": pa.chunked_array([arr.slice(0, 10), arr.slice(10, 0), arr.slice(10)]),
        "empty": arr.slice(0, 0),
        "one_row": arr.slice(n // 2, 1),
        "large_string": arr.cast(pa.large_string()).slice(5),
    }


def _fallback(fn):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ckernels, "_load", lambda: None)
        return fn()


def _same(got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.fixture(autouse=True)
def _compiled():
    assert ckernels.available(), "the comparison needs the compiled path"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("hash_seed", [0, 0x5417, 0x5EE7, 0xC0F3])
def test_hash_utf8_spans(seed, hash_seed):
    for name, arr in _shapes(_texts(seed)).items():
        got = _hash_utf8_spans(arr, hash_seed)
        _same(got, _fallback(lambda: _hash_utf8_spans(arr, hash_seed)))
        assert len(got) == len(arr), name


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 5])
def test_word_shingles(seed, k):
    texts = _texts(seed)
    for name, arr in _shapes(texts).items():
        got = batch_shingle_hashes(arr, k)
        _same(got, _fallback(lambda: batch_shingle_hashes(arr, k)))
        assert got[1].sum() == len(got[0]), name
    # a Python list takes the same kernel
    _same(batch_shingle_hashes(texts[1:], k), _fallback(lambda: batch_shingle_hashes(texts[1:], k)))


@pytest.mark.parametrize("cap", [1, 8, 512, 1 << 62])
def test_bottomk_from_text(cap):
    for seed in (1, 2):
        for arr in _shapes(_texts(seed)).values():
            h, c = batch_shingle_hashes(arr, 2)
            _same(bottomk_sketches(h, c, cap), _fallback(lambda: bottomk_sketches(h, c, cap)))


@pytest.mark.parametrize("cap", [1, 8, 512, 1 << 62])
def test_bottomk_segment_shapes(cap):
    """Segments the sort must handle: long, heavily duplicated, already
    sorted, reversed, all equal, empty, and full-range uint64 values."""
    rng = np.random.default_rng(cap % 97)
    segs = [
        rng.integers(0, 50, 3000).astype(np.uint64),
        np.arange(700, dtype=np.uint64),
        np.arange(700, dtype=np.uint64)[::-1].copy(),
        np.full(600, 7, dtype=np.uint64),
        np.empty(0, dtype=np.uint64),
        rng.integers(0, 2**64, 2000, dtype=np.uint64),
        np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**64, 17, dtype=np.uint64),
    ]
    h = np.concatenate(segs)
    c = np.array([len(s) for s in segs], dtype=np.int64)
    got = bottomk_sketches(h, c, cap)
    _same(got, _fallback(lambda: bottomk_sketches(h, c, cap)))
    want_distinct = [len(np.unique(s)) for s in segs]
    assert got[2].tolist() == want_distinct


def test_bottomk_rejects_counts_that_miss_the_hashes():
    h = np.arange(5, dtype=np.uint64)
    with pytest.raises(ValueError):
        bottomk_sketches(h, np.array([2, 2], dtype=np.int64), 8)


@pytest.mark.parametrize("seed", [1, 2])
def test_signature_tables(seed):
    cfg = DedupConfig(sketch_cap=8)  # small cap: most docs' sketches are capped
    for name, arr in _shapes(_texts(seed)).items():
        batch = pa.table({"doc_id": pa.array(np.arange(len(arr)), pa.int64()), "text": arr})
        got = minhash_batch(batch, cfg=cfg)
        want = _fallback(lambda: minhash_batch(batch, cfg=cfg))
        assert got.schema == want.schema, name
        for col in got.column_names:
            g, w = got.column(col).combine_chunks(), want.column(col).combine_chunks()
            assert g.equals(w), (name, col)
            if col == "sketch":
                assert g.buffers()[2] == w.buffers()[2], name


def test_list_matrix_reads_only_its_rows():
    vals = np.arange(24, dtype=np.uint64)
    fixed = pa.FixedSizeListArray.from_arrays(pa.array(vals), 4)
    np.testing.assert_array_equal(list_matrix(fixed.slice(2, 3)), vals.reshape(6, 4)[2:5])
    floats = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(
        list_matrix(pa.chunked_array([floats.slice(1), floats.slice(0, 1)]), np.float64),
        [[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]],
    )
    assert list_matrix(floats.slice(3)).shape == (0, 0)
    for bad in (pa.array([[1.0], [2.0, 3.0]]), pa.array([[1.0], None])):
        with pytest.raises(ValueError):
            list_matrix(bad)


def test_explode_bands_on_a_sliced_batch():
    from dynaalign_ray.stages.bands import explode_bands

    cfg = DedupConfig()
    texts = [f"w{i % 7} w{i % 5} w{i % 3} common words here and there" for i in range(40)]
    sigs = minhash_batch(
        pa.table({"doc_id": pa.array(np.arange(40), pa.int64()), "text": pa.array(texts)}),
        cfg=cfg,
    )
    sliced = sigs.slice(11, 20)
    copied = pa.Table.from_pylist(sliced.to_pylist(), schema=sigs.schema)
    assert explode_bands(sliced, cfg=cfg).equals(explode_bands(copied, cfg=cfg))
