"""Fuzz the two extract paths against each other: ``extract_text_batch``
with the C scanner (``ckernels.extract_pages`` plus per-page spec
fallback) and the same call with ``ckernels._load`` stubbed to None, which
runs the Python ``extract_text`` on every page, exactly what a host
without a C compiler runs.  ``text``, ``n_chars`` and ``doc_id`` must be
identical for every batch shape and for the markup the C loops mirror
(case, nesting, unclosed openers, ``\\b``, ``\\s``, entities) and the cases
they hand back to the spec (non-ASCII word bytes after a tag name, Unicode
whitespace, re.I case folds, other entities, invalid UTF-8)."""

import re
import time

import numpy as np
import pyarrow as pa
import pytest

from dynaalign_ray import ckernels
from dynaalign_ray.extract import extract_text, extract_text_batch
from dynaalign_ray.fixtures import generate_pages
from dynaalign_ray.shingles import varlen_data, varlen_offsets

# markup the C loops mirror: no page built from these alone goes to the spec
_MIRRORED = [
    "<p>", "</p>", "<P class='x'>", "</p >", "</P\t>", "</p\x1c>", "<p/>", "<p-x>",
    "<main>", "</main>", "<MAIN id=m>", "</Main \n>", "<mainx>", "</mainx>",
    "<pre>", "</pre>", "<script>", "</script>", "<SCRIPT type=t>", "</Script >",
    "<style>", "</STYLE>", "<scriptx>", "<!--", "-->", "<!-->", "<!--->", "<!---->",
    "<", ">", "<>", "<<a>", "<b>", "</b>", "<br/>", "<div\nclass=a>",
    "&amp;", "&lt;", "&gt;", "&quot;", "&#x27;", "&amp;lt;",
    "word", "Words", "x_1", "©", "—", "naïve", "東京", "🙂",
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x00",
]
# cases the C path hands to the spec, page by page
_SPEC_ONLY = [
    "<pé>", "<scripté>", "<main©>", "</pé>", "<ſcript>", "</ſcript>", "<maın>",
    "\u0130", "\u212a", "&amp b", "&nbsp;", "&#160;", "& ", "&",
    "\x85", "\xa0", "\u1680", "\u2000", "\u200a", "\u2028", "\u2029",
    "\u202f", "\u205f", "\u3000",
]
_BAD_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80"]


def _page(rng, vocab, bad: bool) -> bytes:
    parts = [str(rng.choice(vocab)).encode() for _ in range(int(rng.integers(0, 60)))]
    if bad and rng.random() < 0.3:
        parts.insert(int(rng.integers(0, len(parts) + 1)), _BAD_UTF8[rng.integers(len(_BAD_UTF8))])
    return b"".join(parts)


def _corpus(seed: int, vocab, n: int = 300, bad: bool = False) -> list:
    rng = np.random.default_rng(seed)
    return [_page(rng, vocab, bad) for _ in range(n)]


def _table(htmls: list, html_type=pa.binary()) -> pa.Table:
    if pa.types.is_string(html_type) or pa.types.is_large_string(html_type):
        htmls = [h.decode() for h in htmls]
    n = len(htmls)
    return pa.table(
        {
            "url": pa.array([f"https://x.test/{i}" for i in range(n)], pa.string()),
            "html": pa.array(htmls, html_type),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )


def _shapes(t: pa.Table) -> dict:
    n = t.num_rows
    return {
        "whole": t,
        "sliced": t.slice(3, n - 8),
        "chunked": pa.concat_tables([t.slice(0, 10), t.slice(10, 0), t.slice(10)]),
        "empty": t.slice(0, 0),
        "one_row": t.slice(n // 2, 1),
    }


def _fallback(fn):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ckernels, "_load", lambda: None)
        return fn()


def _spec_mask(t: pa.Table) -> np.ndarray:
    """Which pages the C scanner hands to the spec."""
    col = t.column("html").combine_chunks()
    return ckernels.extract_pages(varlen_offsets(col), varlen_data(col))[3]


def _same(got: pa.Table, want: pa.Table) -> None:
    assert got.schema.equals(want.schema)
    for name in ("doc_id", "text", "n_chars", "url", "lang"):
        g, w = got.column(name).combine_chunks(), want.column(name).combine_chunks()
        assert g.equals(w), name


def _both(t: pa.Table) -> pa.Table:
    got = extract_text_batch(t)
    _same(got, _fallback(lambda: extract_text_batch(t)))
    return got


@pytest.fixture(autouse=True)
def _compiled():
    assert ckernels.available(), "the comparison needs the compiled path"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "html_type", [pa.binary(), pa.large_binary(), pa.string(), pa.large_string()]
)
def test_mirrored_markup_never_falls_back(seed, html_type):
    t = _table(_corpus(seed, _MIRRORED), html_type)
    assert not _spec_mask(t).any()
    for shape in _shapes(t).values():
        _both(shape)


@pytest.mark.parametrize("seed", [4, 5, 6])
@pytest.mark.parametrize("html_type", [pa.binary(), pa.large_binary()])
def test_every_case_matches_the_spec(seed, html_type):
    t = _table(_corpus(seed, _MIRRORED + _SPEC_ONLY, bad=True), html_type)
    spec = _spec_mask(t)
    assert 0 < spec.sum() < t.num_rows
    for shape in _shapes(t).values():
        _both(shape)


@pytest.mark.parametrize(
    "html, text, spec",
    [
        (b"<main><p>keep \xff\xfe</p></main>", "keep ��", True),
        (b"<P>a</p><pre>b</pre><p >c</P >", "a\nc", False),
        (b"<mainx><p>a</p></mainx><main><p>b</p></main>", "b", False),
        (b"<p>a</p\x1c>b", "a", False),
        ("<pé>x</pé>".encode(), "x", True),
        ("<p©>x</p>".encode(), "x", True),
        ("<ſcript>x</script>y".encode(), "x y", True),
        ("<ſcript>x</ſcript>y".encode(), "y", True),
        ("<maın><p>a</p></maın><p>b</p>".encode(), "a", True),
        (b"<script><!-- </script> -->z", "-->z", False),
        (b"<!-- <script> -->x</script>y", "<!-- y", False),
        (b"<!-->a-->b", "b", False),
        (b"<!--->a-->b", "b", False),
        (b"<SCRIPT type=x>a</script  >b<style>c</STYLE>d", "b d", False),
        (b"<scriptx>d</scriptx>", "d", False),
        (b"<p>&lt;b&gt; &quot;c&quot; &#x27;d&#x27; &amp;lt;</p>", "<b> \"c\" 'd' &lt;", False),
        (b"&amp b", "& b", True),
        (b"a&nbsp;b&#160;c", "a b c", True),
        ("a\xa0b\u2028c\u3000d".encode(), "a b c d", True),
        (b"a\x1fb", "a b", False),
        (b"<p>x<p>y</p></p>", "x y", False),
        (b"<<a>b<>c<", "b<>c<", False),
        ("<p>©—</p>".encode(), "©—", False),
        (b"", "", False),
    ],
)
def test_named_cases(html, text, spec):
    t = _table([html])
    assert extract_text(html) == text
    assert bool(_spec_mask(t)[0]) == spec
    got = _both(t)
    assert got.column("text").to_pylist() == [text]
    assert got.column("n_chars").to_pylist() == [len(text)]


def test_python_classifications_match_the_c_lists():
    """The C loops hard-code what Python counts as whitespace and which
    non-ASCII letters re.I folds onto ASCII; a Python that changes either
    must fail here, not silently diverge."""
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    assert spaces == [
        *range(9, 14), *range(28, 33), 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
        0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
    ]
    letter = re.compile(r"[a-z]", re.I)
    folds = [c for c in range(0x80, 0x110000) if letter.fullmatch(chr(c))]
    assert folds == [0x130, 0x131, 0x17F, 0x212A]


@pytest.mark.parametrize(
    "unit, text",
    [
        (b"<script", "<script" * 20_000),
        (b"<script>", ""),
        (b"<style x", "<style x" * 20_000),
        (b"<p>", ""),
        (b"<main>", ""),
        (b"<!--", "<!--" * 20_000),
    ],
)
def test_unclosed_openers_stay_linear(unit, text):
    t = _table([unit * 20_000])
    start = time.perf_counter()
    got = extract_text_batch(t)
    assert time.perf_counter() - start < 2.0
    assert got.column("text").to_pylist() == [text]
    # the spec agrees at a size its backtracking regexes finish quickly
    _both(_table([unit * 1000]))


@pytest.mark.parametrize("seed", [42, 130])
@pytest.mark.parametrize("boiler_frac", [0.05, 0.25])
def test_f1_corpora_identical_without_fallback(seed, boiler_frac):
    pages, _ = generate_pages(3000, seed=seed, boiler_frac=boiler_frac)
    assert not _spec_mask(pages).any()
    got = _both(pages)
    assert got.column("text").to_pylist() == pages.column("text").to_pylist()


@pytest.mark.parametrize("path", ["c", "fallback"])
def test_bad_html_raises_naming_the_row(path):
    run = extract_text_batch if path == "c" else (lambda t: _fallback(lambda: extract_text_batch(t)))
    t = _table([b"<p>a</p>", b"<p>b</p>", b"<p>c</p>"])
    nulls = t.set_column(1, "html", pa.array([b"<p>a</p>", None, b"<p>c</p>"], pa.binary()))
    with pytest.raises(ValueError, match=r"html column, row 1 \(url 'https://x.test/1'\): is null"):
        run(nulls)
    ints = t.set_column(1, "html", pa.array([1, 2, 3], pa.int64()))
    with pytest.raises(ValueError, match=r"html column, row 0 \(url 'https://x.test/0'\).*int64"):
        run(ints)


def test_text_past_int32_offsets_raises(monkeypatch):
    monkeypatch.setattr(ckernels, "_MAX_TEXT_BYTES", 10)
    with pytest.raises(ValueError, match="int32"):
        extract_text_batch(_table([b"<p>0123456789abc</p>"]))
