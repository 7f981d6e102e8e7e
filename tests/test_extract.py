"""Extraction invariant: byte-identical text per url, row-wise oracle vs the
batched kernel (BASELINE.json input_hint; FIXTURES.md invariant 1)."""

import pyarrow as pa

from dynaalign_ray.extract import extract_text, extract_text_batch
from dynaalign_ray.fixtures import build_html


class TestExtractOracle:
    def test_byte_identity_over_corpus(self, small_corpus):
        pages, _ = small_corpus
        for html, text in zip(
            pages.column("html").to_pylist(), pages.column("text").to_pylist()
        ):
            assert extract_text(html) == text

    def test_build_html_roundtrip_special_chars(self):
        text = 'quote " amp & less < more > unicode é中\nsecond para'
        assert extract_text(build_html(text, 3)) == text

    def test_script_style_comment_stripped(self):
        html = (
            b"<html><body><main><p>keep</p></main>"
            b"<script>drop()</script><style>p{}</style><!--gone--></body></html>"
        )
        assert extract_text(html) == "keep"

    def test_no_main_fallback(self):
        assert extract_text(b"<div>plain  <b>body</b> here</div>") == "plain body here"

    def test_empty(self):
        assert extract_text(b"") == ""

    def test_bad_utf8(self):
        # decoded with errors="replace"; the batch kernel hands such a page
        # to this function, so both give the same text
        html = b"<main><p>keep \xff\xfe</p></main>"
        assert extract_text(html) == "keep \ufffd\ufffd"
        batch = pa.table({"url": ["u"], "html": pa.array([html]), "lang": ["en"]})
        assert extract_text_batch(batch).column("text").to_pylist() == ["keep \ufffd\ufffd"]


class TestExtractBatchKernel:
    def test_batch_matches_rowwise_oracle(self, small_corpus):
        pages, _ = small_corpus
        out = extract_text_batch(pages)
        assert out.column_names == ["doc_id", "url", "text", "lang", "n_chars"]
        assert out.column("text").to_pylist() == pages.column("text").to_pylist()
        n_chars = out.column("n_chars").to_pylist()
        assert n_chars == [len(t) for t in pages.column("text").to_pylist()]
        # html column dropped right after extraction
        assert "html" not in out.column_names
        assert out.column("doc_id").type == pa.int64()
