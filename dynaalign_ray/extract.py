"""Canonical HTML -> text extraction.

The reference has NO extractor (its inputs are raw peptide strings); the
north-star's per-url byte-identity invariant is therefore defined against
this module's single canonical pure-Python ``extract_text``, the row-wise
oracle in pytest and perfbench (SURVEY.md §2.5 "Per-record maps").

Extraction contract:
  1. decode bytes as UTF-8 (errors="replace"),
  2. strip <script>/<style>/<!--comments-->,
  3. main content = inner HTML of the first <main>...</main> element when
     present (site chrome/boilerplate lives outside it), else the whole
     document,
  4. paragraphs = <p>...</p> runs inside the main content; each paragraph is
     tag-stripped, entity-unescaped, whitespace-collapsed; paragraphs join
     with "\n".  If the main content has no <p>, the whole main content is
     treated as one paragraph.

The batched Ray kernel ``extract_text_batch`` runs the same passes as C
loops over the html column's Arrow buffers (``ckernels.extract_pages``).
They mirror the regexes for ASCII markup: case-insensitive tag names,
``\\b`` after a name, ``\\s`` and ``str.split`` whitespace (which includes
``\\x1c``-``\\x1f``), leftmost non-greedy matches that skip an opener
without a closer, and the five ``html.escape`` entities.  Any other
non-ASCII byte is copied through.  A page goes to ``extract_text`` instead
when it is not valid UTF-8, holds a non-ASCII whitespace code point or a
letter ``re.I`` folds onto ASCII (U+0130 U+0131 U+017F U+212A), has a
non-ASCII byte right after a candidate tag name, or keeps an ``&`` that is
not one of those five entities.  The F1 corpora send no page there.
``extract_text`` also runs every page when the C kernels are unavailable.
"""

from __future__ import annotations

import html as _htmlmod
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dynaalign_ray import ckernels
from dynaalign_ray.shingles import varlen_data, varlen_offsets

_SCRIPT_RE = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.I | re.S)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_MAIN_RE = re.compile(r"<main\b[^>]*>(.*?)</main\s*>", re.I | re.S)
_P_RE = re.compile(r"<p\b[^>]*>(.*?)</p\s*>", re.I | re.S)
_TAG_RE = re.compile(r"<[^>]+>")


def _clean_fragment(fragment: str) -> str:
    """Tag-strip, unescape, collapse whitespace of one HTML fragment."""
    text = _TAG_RE.sub(" ", fragment)
    text = _htmlmod.unescape(text)
    return " ".join(text.split())


def extract_text(html: bytes | str) -> str:
    """Canonical extractor — the per-url byte-identity oracle."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    html = _SCRIPT_RE.sub(" ", html)
    html = _COMMENT_RE.sub(" ", html)
    m = _MAIN_RE.search(html)
    content = m.group(1) if m else html
    paragraphs = _P_RE.findall(content)
    if not paragraphs:
        return _clean_fragment(content)
    return "\n".join(_clean_fragment(p) for p in paragraphs)


def _bad_html(batch: pa.Table, row: int, why: str) -> ValueError:
    url = batch.column("url")[row].as_py() if row < batch.num_rows else None
    return ValueError(f"html column, row {row} (url {url!r}): {why}")


def _html_chunks(batch: pa.Table) -> list:
    """The ``html`` column's chunks, checked: binary or string (plain or
    large_) without nulls."""
    col = batch.column("html")
    if not (
        pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)
        or pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
    ):
        raise _bad_html(batch, 0, f"has type {col.type}, not binary or string")
    if col.null_count:
        row = pc.index(col.is_null(), True).as_py()
        raise _bad_html(batch, row, "is null")
    return col.chunks


def _extract_chunk(arr: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """``(text, n_chars)`` of one chunk of html: the C scanner, with the
    pages it does not mirror recomputed by ``extract_text`` and spliced in,
    or ``extract_text`` on every page when the C kernels are unavailable."""
    got = ckernels.extract_pages(varlen_offsets(arr), varlen_data(arr))
    if got is None:
        texts = [extract_text(v) for v in arr.to_pylist()]
        n_chars = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        return pa.array(texts, type=pa.string()), n_chars
    offs, data, n_chars, spec = got
    text = pa.Array.from_buffers(
        pa.string(), len(arr), [None, pa.py_buffer(offs), pa.py_buffer(data)]
    )
    rows = np.flatnonzero(spec)
    if len(rows):
        redo = [extract_text(arr[int(i)].as_py()) for i in rows]
        text = pc.replace_with_mask(text, pa.array(spec), pa.array(redo, pa.string()))
        n_chars[rows] = [len(t) for t in redo]
    return text, n_chars


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """Batched kernel for ``Dataset.map_batches(..., batch_format="pyarrow")``.

    pages(url, warc_ts, html, text?, lang) -> docs(doc_id, url, text, lang,
    n_chars).  The wide ``html`` binary column is DROPPED here, immediately
    after extraction, so downstream blocks stay narrow (SURVEY.md §7 hard
    part 4).  A null ``html``, or an ``html`` column that is not binary or
    string, raises ValueError naming the row and its url.

    Each chunk of ``html`` goes through ``ckernels.extract_pages``: one C
    scan per page over the Arrow ``(offsets, data)`` buffers, writing the
    ``text`` column's buffers and ``n_chars`` directly, with no Python str
    per page.  Pages it does not mirror (module docstring) are recomputed
    by ``extract_text`` and spliced in, so every page is byte-identical to
    the spec (tests/test_extract_kernels.py).  Without the C kernels every
    page runs ``extract_text``.  Measured without Ray on the 3k-page F1
    corpus (seed 42, 6.6 MB of html, one Xeon vCPU), best of 5: 0.024 s
    on the C path, 0.22 s with ``extract_text`` on every page.

    An earlier vectorized form lost to the per-page regex path: an Arrow-RE2
    column-kernel pipeline (``pc.replace_substring_regex`` passes plus
    ``pc.extract_regex`` for <main>) was 4-16x SLOWER (31.4 s vs 1.1 s at
    20k pages single-threaded), because RE2 with ``(?is)`` non-greedy
    patterns rewrites the whole column once per pass.  The gain had to come
    from one native scan per page, not from more regex passes.
    """
    from dynaalign_ray.hashing import doc_id_from_urls

    parts = [_extract_chunk(c) for c in _html_chunks(batch)]
    urls = batch.column("url")
    doc_id = doc_id_from_urls(urls.to_pylist())
    return pa.table(
        {
            "doc_id": pa.array(doc_id, type=pa.int64()),
            "url": urls,
            "text": pa.chunked_array([t for t, _ in parts], type=pa.string()),
            "lang": batch.column("lang"),
            "n_chars": pa.array(
                np.concatenate([n for _, n in parts]) if parts else np.empty(0, np.int64)
            ),
        }
    )
