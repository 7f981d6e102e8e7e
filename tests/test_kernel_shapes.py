"""The back-half kernels give the same answer whatever the batch shape.

Every kernel ``near_dedup`` runs between the pages and the clusters is fed
the same rows in three layouts — one fresh contiguous table (the
reference), a slice at a non-zero offset into a larger table, and a table
whose columns span several chunks — for three row sets: a small corpus
with a salted boilerplate cluster, one row, and no rows.  The outputs must
be identical.  No Ray: these are the kernels the one-task back half and
the staged map tasks call.
"""

import numpy as np
import pyarrow as pa
import pytest

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.extract import extract_text_batch
from dynaalign_ray.stages.bands import dedup_pairs_block, emit_pairs_block, explode_bands
from dynaalign_ray.stages.cluster import _decide, component_labels
from dynaalign_ray.stages.minhash import minhash_batch
from dynaalign_ray.stages.verify import build_sketch_csr, verify_pairs_csr

# small caps so the corpus takes the salted explode and the star emission
CFG = DedupConfig(salt_cap=8, pair_cap=4)


def _fresh(t: pa.Table, idx) -> pa.Table:
    """The rows ``idx`` of ``t`` as a new contiguous table (offset 0)."""
    return t.take(pa.array(np.asarray(idx, dtype=np.int64), pa.int64())).combine_chunks()


@pytest.fixture(scope="module")
def tables() -> dict:
    from dynaalign_ray.fixtures import generate_pages

    pages, _ = generate_pages(60, seed=3, boiler_frac=0.25)
    docs = extract_text_batch(pages)
    # one doc without shingles: explode must skip it, _decide keep it
    docs = docs.set_column(
        docs.schema.get_field_index("text"),
        "text",
        pa.array(["" if i == 5 else t for i, t in enumerate(docs.column("text").to_pylist())]),
    )
    sigs = minhash_batch(docs, cfg=CFG)
    bands = explode_bands(sigs, cfg=CFG)
    keys, counts = np.unique(np.asarray(bands.column("band_key")), return_counts=True)
    hot = (keys[counts > CFG.salt_cap], counts[counts > CFG.salt_cap])
    assert len(hot[0]) > 0
    salted = explode_bands(sigs, cfg=CFG, hot_keys=hot)
    pairs = emit_pairs_block(salted, pair_cap=CFG.pair_cap)
    dup_pairs = pa.concat_tables([pairs, pairs.slice(0, len(pairs) // 2)]).combine_chunks()
    edges = verify_pairs_csr(
        np.asarray(dedup_pairs_block(pairs).column("a")),
        np.asarray(dedup_pairs_block(pairs).column("b")),
        build_sketch_csr([sigs]),
        CFG,
    )
    assert edges.num_rows > 0
    nodes, root = component_labels(np.asarray(edges.column("a")), np.asarray(edges.column("b")))
    doc = np.asarray(sigs.column("doc_id")).astype(np.int64)
    pos = np.minimum(np.searchsorted(nodes, doc), len(nodes) - 1)
    labels = pa.table(
        {"doc_id": pa.array(doc), "label": pa.array(root[pos], pa.int64(), mask=nodes[pos] != doc)}
    )
    return {
        "pages": pages, "sigs": sigs, "bands": salted, "pairs": pairs,
        "dup_pairs": dup_pairs, "edges": edges, "labels": labels, "hot": hot,
    }


def _verify(t: pa.Table, tables: dict) -> pa.Table:
    """Sketch lookup built from the layout's record batches (one CSR part
    per chunk), probed with every candidate pair of the corpus."""
    pairs = dedup_pairs_block(tables["pairs"])
    parts = [pa.Table.from_batches([b]) for b in t.to_batches()]
    return verify_pairs_csr(
        np.asarray(pairs.column("a")), np.asarray(pairs.column("b")),
        build_sketch_csr(parts), CFG,
    )


# kernel -> (input table, function of the laid-out input)
KERNELS = {
    "extract_text_batch": ("pages", lambda t, _: extract_text_batch(t)),
    "explode_bands": ("sigs", lambda t, tb: explode_bands(t, cfg=CFG, hot_keys=tb["hot"])),
    "emit_pairs_block": ("bands", lambda t, _: emit_pairs_block(t, pair_cap=CFG.pair_cap)),
    "dedup_pairs_block": ("dup_pairs", lambda t, _: dedup_pairs_block(t)),
    "verify_pairs_csr": ("sigs", _verify),
    "_decide": ("labels", lambda t, _: _decide(t)),
}


def _rows(t: pa.Table, rowset: str) -> np.ndarray:
    return {
        "corpus": np.arange(t.num_rows),
        "one_row": np.array([t.num_rows // 2]),
        "empty": np.array([], dtype=np.int64),
    }[rowset]


def _layout(t: pa.Table, idx: np.ndarray, layout: str) -> pa.Table:
    rows = _fresh(t, idx)
    if layout == "sliced":
        # the rows sit at a non-zero offset inside larger buffers
        pad = _fresh(t, np.arange(min(3, t.num_rows)))
        return pa.concat_tables([pad, rows, pad]).combine_chunks().slice(pad.num_rows, len(idx))
    # several chunks, each itself a slice of the contiguous rows
    n = len(idx)
    cuts = [0, n // 3, (2 * n) // 3, n]
    return pa.concat_tables([rows.slice(a, b - a) for a, b in zip(cuts, cuts[1:])])


def _same(got: pa.Table, want: pa.Table) -> None:
    assert got.schema.equals(want.schema)
    assert got.to_pydict() == want.to_pydict()


@pytest.mark.parametrize("layout", ["sliced", "chunked"])
@pytest.mark.parametrize("rowset", ["corpus", "one_row", "empty"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_table_kernels_ignore_layout(tables, kernel, rowset, layout):
    src, fn = KERNELS[kernel]
    t = tables[src]
    idx = _rows(t, rowset)
    want = fn(_fresh(t, idx), tables)
    got = fn(_layout(t, idx, layout), tables)
    _same(got, want)
    if rowset == "corpus":
        assert want.num_rows > 0


def _array_layout(x: np.ndarray, layout: str) -> np.ndarray:
    if layout == "sliced":
        buf = np.concatenate([x[:3], x, x[:3]])
        return buf[min(3, len(x)) : min(3, len(x)) + len(x)]
    # a strided (non-contiguous) view
    buf = np.empty(2 * len(x), dtype=x.dtype)
    buf[::2] = x
    return buf[::2]


@pytest.mark.parametrize("layout", ["sliced", "strided"])
@pytest.mark.parametrize("rowset", ["corpus", "one_row", "empty"])
def test_component_labels_ignores_layout(tables, rowset, layout):
    edges = tables["edges"]
    idx = _rows(edges, rowset)
    a = np.asarray(edges.column("a")).astype(np.int64)[idx].copy()
    b = np.asarray(edges.column("b")).astype(np.int64)[idx].copy()
    want = component_labels(a, b)
    got = component_labels(_array_layout(a, layout), _array_layout(b, layout))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if rowset == "corpus":
        # labels are component minima: every root is its own root
        nodes, root = want
        assert (root <= nodes).all()
        assert np.array_equal(root[np.searchsorted(nodes, root)], root)
