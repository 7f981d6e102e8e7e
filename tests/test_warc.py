"""WARC source: byte-exact roundtrip (plain + record-per-member gzip),
exact microsecond timestamps, spec robustness (truncation, missing
length, non-response skipping, fractional dates), determinism, and
end-to-end cluster parity of near_dedup fed from WARC vs fed from the
in-memory pages table."""

import gzip

import numpy as np
import pyarrow as pa
import pytest

from dynaalign_ray.fixtures import generate_pages
from dynaalign_ray.sources.warc import (
    _iso_from_us,
    _us_from_iso,
    parse_warc_bytes,
    read_warc,
    write_warc,
)


def _pages(n=60):
    pages, _ = generate_pages(n, seed=42)
    return pages.select(["url", "warc_ts", "html"])


class TestRoundtrip:
    @pytest.mark.parametrize("gz", [False, True])
    def test_byte_exact(self, tmp_path, gz):
        pages = _pages()
        path = str(tmp_path / ("a.warc.gz" if gz else "a.warc"))
        write_warc(pages, path, gzip_per_record=gz)
        with open(path, "rb") as f:
            got = parse_warc_bytes(f.read())
        assert got.column("url").to_pylist() == pages.column("url").to_pylist()
        assert (
            got.column("html").to_pylist() == pages.column("html").to_pylist()
        )
        want_us = np.asarray(pages.column("warc_ts").cast(pa.int64()))
        got_us = np.asarray(got.column("warc_ts").cast(pa.int64()))
        assert np.array_equal(got_us, want_us)

    def test_deterministic_bytes(self, tmp_path):
        pages = _pages(20)
        p1 = write_warc(pages, str(tmp_path / "x1.warc.gz"))
        p2 = write_warc(pages, str(tmp_path / "x2.warc.gz"))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_record_ids_are_rfc4122(self, tmp_path):
        """WARC-Record-ID is a dashed version-4 UUID with the RFC 4122
        variant, one per record, distinct, and derived from the url."""
        import re
        import uuid

        from dynaalign_ray.sources.warc import write_wet

        pages = _pages(40)
        wet = pa.table({
            "url": pages.column("url"),
            "warc_ts": pages.column("warc_ts"),
            "text": pa.array(["t"] * pages.num_rows),
        })
        form = re.compile(
            rb"WARC-Record-ID: <urn:uuid:([0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}"
            rb"-[89ab][0-9a-f]{3}-[0-9a-f]{12})>\r\n"
        )
        for write in (write_warc, write_wet):
            path = write(pages if write is write_warc else wet,
                         str(tmp_path / f"{write.__name__}.gz"))
            with gzip.open(path, "rb") as f:
                raw = f.read()
            ids = form.findall(raw)
            assert len(ids) == raw.count(b"WARC-Record-ID:") >= pages.num_rows
            assert len(set(ids)) == len(ids)
            for i in ids:
                u = uuid.UUID(i.decode())
                assert u.version == 4 and u.variant == uuid.RFC_4122

    def test_timestamp_roundtrip_exact(self):
        # every microsecond epoch from 2000 to 2030 survives WARC-Date
        # formatting and parsing; a float-seconds conversion is 1 us off on
        # about 1% of them
        lo, hi = 946_684_800_000_000, 1_893_456_000_000_000  # 2000, 2030
        us = np.random.default_rng(7).integers(lo, hi, 200_000).tolist()
        assert [u for u in us if _us_from_iso(_iso_from_us(u)) != u] == []

    def test_gzip_members_are_per_record(self, tmp_path):
        """Crawl convention: one gzip member per record, so a reader can
        seek; the stream must contain one magic per record + warcinfo."""
        pages = _pages(10)
        path = write_warc(pages, str(tmp_path / "m.warc.gz"))
        raw = open(path, "rb").read()
        assert raw.count(b"\x1f\x8b\x08") == pages.num_rows + 1


class TestRobustness:
    def test_truncated_record_raises(self, tmp_path):
        pages = _pages(5)
        path = write_warc(pages, str(tmp_path / "t.warc"), gzip_per_record=False)
        raw = open(path, "rb").read()
        with pytest.raises(ValueError, match="truncated"):
            parse_warc_bytes(raw[: len(raw) - 40])

    def test_garbage_raises(self):
        with pytest.raises(ValueError, match="WARC/"):
            parse_warc_bytes(b"NOT A WARC FILE\r\n\r\n")

    def test_non_response_records_skipped(self):
        rec = (
            b"WARC/1.1\r\nWARC-Type: metadata\r\n"
            b"WARC-Date: 2024-01-01T00:00:00Z\r\n"
            b"Content-Length: 2\r\n\r\nxy\r\n\r\n"
        )
        t = parse_warc_bytes(rec)
        assert t.num_rows == 0

    def test_fractional_and_plain_dates(self):
        body = b"HTTP/1.1 200 OK\r\n\r\nhi"
        for date, want_us in [
            ("2024-01-01T00:00:00Z", 1704067200000000),
            ("2024-01-01T00:00:00.000123Z", 1704067200000123),
        ]:
            rec = (
                b"WARC/1.1\r\nWARC-Type: response\r\n"
                b"WARC-Target-URI: https://e.x/\r\n"
                + f"WARC-Date: {date}\r\n".encode()
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
                + b"\r\n\r\n"
            )
            t = parse_warc_bytes(rec)
            assert t.column("warc_ts").cast(pa.int64()).to_pylist() == [want_us]
            assert t.column("html").to_pylist() == [b"hi"]


class TestEndToEnd:
    def test_near_dedup_from_warc_matches_in_memory(self, ray_session, tmp_path):
        """The flagship pipeline fed from sharded .warc.gz files produces
        the IDENTICAL cluster assignment as the same pages from memory."""
        import ray.data as rd

        from dynaalign_ray.config import DedupConfig
        from dynaalign_ray.pipelines.neardup import near_dedup

        pages, _ = generate_pages(200, seed=42)
        sub = pages.select(["url", "warc_ts", "html"])
        shard = (pages.num_rows + 3) // 4
        paths = []
        for s in range(4):
            chunk = sub.slice(s * shard, shard)
            if chunk.num_rows:
                paths.append(
                    write_warc(chunk, str(tmp_path / f"part-{s}.warc.gz"))
                )
        cfg = DedupConfig()
        from_warc = near_dedup(
            pages_ds=read_warc(paths), cfg=cfg, num_partitions=2
        )
        cw = {r["doc_id"]: r["cluster_id"] for r in from_warc.clusters.take_all()}
        from_mem = near_dedup(
            pages_ds=rd.from_arrow(pages), cfg=cfg, num_partitions=2
        )
        cm = {r["doc_id"]: r["cluster_id"] for r in from_mem.clusters.take_all()}
        assert cw == cm and len(cw) == 200


class TestWet:
    def test_roundtrip(self, tmp_path):
        from dynaalign_ray.sources.warc import parse_wet_bytes, write_wet

        pages, _ = generate_pages(30, seed=42)
        from dynaalign_ray.extract import extract_text

        texts = [extract_text(h) for h in pages.column("html").to_pylist()]
        wet = pa.table(
            {
                "url": pages.column("url"),
                "warc_ts": pages.column("warc_ts"),
                "text": pa.array(texts, pa.string()),
            }
        )
        path = write_wet(wet, str(tmp_path / "a.wet.gz"))
        got = parse_wet_bytes(open(path, "rb").read())
        assert got.column("url").to_pylist() == wet.column("url").to_pylist()
        assert got.column("text").to_pylist() == texts
        assert np.array_equal(
            np.asarray(got.column("warc_ts").cast(pa.int64())),
            np.asarray(wet.column("warc_ts").cast(pa.int64())),
        )

    def test_unicode_text_and_invalid_utf8(self, tmp_path):
        from dynaalign_ray.sources.warc import parse_wet_bytes, write_wet

        wet = pa.table(
            {
                "url": pa.array(["https://e.x/u"], pa.string()),
                "warc_ts": pa.array([1704067200000000], pa.timestamp("us")),
                "text": pa.array(["héllo wörld — ünïcode"], pa.string()),
            }
        )
        path = write_wet(wet, str(tmp_path / "u.wet.gz"), gzip_per_record=False)
        got = parse_wet_bytes(open(path, "rb").read())
        assert got.column("text").to_pylist() == ["héllo wörld — ünïcode"]
        # invalid utf-8 in a conversion block must raise, not replace
        bad_body = b"\xff\xfe broken"
        rec = (
            b"WARC/1.1\r\nWARC-Type: conversion\r\n"
            b"WARC-Target-URI: https://e.x/b\r\n"
            b"WARC-Date: 2024-01-01T00:00:00Z\r\n"
            + f"Content-Length: {len(bad_body)}\r\n\r\n".encode()
            + bad_body
            + b"\r\n\r\n"
        )
        with pytest.raises(UnicodeDecodeError):
            parse_wet_bytes(rec)

    def test_read_wet_feeds_docs(self, ray_session, tmp_path):
        from dynaalign_ray.sources.warc import read_wet, write_wet

        wet = pa.table(
            {
                "url": pa.array([f"https://e.x/{i}" for i in range(12)]),
                "warc_ts": pa.array(
                    [1704067200000000 + i for i in range(12)], pa.timestamp("us")
                ),
                "text": pa.array([f"doc number {i} body" for i in range(12)]),
            }
        )
        paths = [
            write_wet(wet.slice(0, 6), str(tmp_path / "p0.wet.gz")),
            write_wet(wet.slice(6, 6), str(tmp_path / "p1.wet.gz")),
        ]
        df = read_wet(paths).to_pandas().sort_values("url").reset_index(drop=True)
        assert len(df) == 12
        assert set(df.columns) == {"url", "warc_ts", "text"}
