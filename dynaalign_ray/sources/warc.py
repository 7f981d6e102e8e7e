"""Pure-spec WARC source/sink — the Common-Crawl container format.

The north-star input is "Common-Crawl-style web pages"; their native
container is WARC (ISO 28500): a sequence of records, each a
``WARC/1.x`` version line + CRLF headers + empty line + an exactly
``Content-Length``-byte block + CRLF CRLF.  Crawl archives store one
GZIP MEMBER PER RECORD concatenated into a ``.warc.gz`` so readers can
seek; stdlib ``gzip.decompress`` handles concatenated members.

No WARC library exists in this environment, so — like the PNG/GIF/JPEG
codecs — the format is implemented from the spec with stdlib + numpy
only:

- :func:`write_warc` — (url, warc_ts, html) rows -> one WARC file (a
  leading ``warcinfo`` record + one ``response`` record per row, HTTP
  response block, deterministic record ids, ``mtime=0`` gzip members so
  output bytes are reproducible).
- :func:`parse_warc_bytes` — file bytes (plain or record-per-member
  gzip) -> ``pa.Table(url, warc_ts, html)``; skips non-response records
  (warcinfo/request/metadata); truncated records raise loudly instead of
  yielding silently short pages.
- :func:`read_warc` — paths -> ``ray.data.Dataset`` via
  ``read_binary_files`` + a parse ``map_batches`` (one parse call per
  FILE, not per record — the batch loop is over archive files).

No counterpart exists in the reference (it reads in-RAM R objects); this
extends the engine's source family (sources/io.py) to the crawl-native
container, feeding the same ``near_dedup(pages_ds=...)`` entry point as
the parquet reader.
"""

from __future__ import annotations

import gzip
import io
import uuid
from datetime import datetime, timedelta, timezone

import numpy as np
import pyarrow as pa

_GZIP_MAGIC = b"\x1f\x8b"
_CRLF = b"\r\n"
_HDR_END = b"\r\n\r\n"

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        # WARC response records carry no language; the column exists so
        # the reader feeds near_dedup's pages schema directly — empty
        # string, to be filled by the engine's language-ID stage
        ("lang", pa.string()),
    ]
)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _iso_from_us(us: int) -> str:
    # integer timedelta arithmetic: a float seconds value cannot hold every
    # microsecond epoch of this century exactly
    dt = _EPOCH + timedelta(microseconds=us)
    # WARC/1.1 allows fractional seconds; always emit microseconds so the
    # roundtrip is exact at the pages schema's us resolution
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _record_id(h) -> str:
    """A record's WARC-Record-ID from its 64-bit url hash: an RFC 4122
    version-4 UUID whose two 64-bit halves are both the hash (the version
    and variant bits overwrite 6 bits, each still held by the other half,
    so distinct hashes keep distinct ids)."""
    h = int(h)
    return f"<urn:uuid:{uuid.UUID(int=(h << 64) | h, version=4)}>"


def _us_from_iso(s: str) -> int:
    s = s.strip()
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // timedelta(microseconds=1)


def _record(headers: list[tuple[str, str]], block: bytes, version: str) -> bytes:
    head = f"WARC/{version}\r\n".encode()
    head += b"".join(f"{k}: {v}\r\n".encode() for k, v in headers)
    head += f"Content-Length: {len(block)}\r\n".encode()
    return head + _CRLF + block + _CRLF + _CRLF


def write_warc(
    table: pa.Table,
    path: str,
    *,
    gzip_per_record: bool = True,
    version: str = "1.1",
) -> str:
    """(url, warc_ts, html) rows -> one WARC file at ``path``.

    Deterministic bytes for fixed input: record ids derive from the url
    hash, the warcinfo date is the first row's timestamp (or epoch), and
    gzip members carry ``mtime=0``.  Returns ``path``."""
    from dynaalign_ray.hashing import hash_strings

    urls = table.column("url").to_pylist()
    ts_col = table.column("warc_ts")
    if pa.types.is_timestamp(ts_col.type):
        us = np.asarray(ts_col.cast(pa.int64()), dtype=np.int64)
    else:
        us = np.asarray(ts_col, dtype=np.int64)
    htmls = table.column("html").to_pylist()
    rid = hash_strings(urls, seed=0x3A9C) if urls else np.zeros(0, dtype=np.uint64)

    def emit(rec: bytes, out: io.BufferedWriter) -> None:
        if gzip_per_record:
            out.write(gzip.compress(rec, mtime=0))
        else:
            out.write(rec)

    with open(path, "wb") as out:
        info_block = b"software: dynaalign_ray warc writer\r\nformat: WARC File Format\r\n"
        info_date = _iso_from_us(int(us[0]) if len(us) else 0)
        emit(
            _record(
                [
                    ("WARC-Type", "warcinfo"),
                    ("WARC-Date", info_date),
                    ("WARC-Record-ID", "<urn:uuid:00000000-0000-4000-8000-000000000000>"),
                    ("Content-Type", "application/warc-fields"),
                ],
                info_block,
                version,
            ),
            out,
        )
        for i, (url, html) in enumerate(zip(urls, htmls)):
            http = (
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/html; charset=UTF-8\r\n"
                + f"Content-Length: {len(html)}\r\n".encode()
                + _CRLF
                + html
            )
            emit(
                _record(
                    [
                        ("WARC-Type", "response"),
                        ("WARC-Target-URI", url),
                        ("WARC-Date", _iso_from_us(int(us[i]))),
                        ("WARC-Record-ID", _record_id(rid[i])),
                        ("Content-Type", "application/http;msgtype=response"),
                    ],
                    http,
                    version,
                ),
                out,
            )
    return path


def parse_warc_bytes(data: bytes) -> pa.Table:
    """WARC file bytes (plain or record-per-member gzip) ->
    pa.Table(url, warc_ts, html) of the response records, in file order."""
    if data[:2] == _GZIP_MAGIC:
        data = gzip.decompress(data)  # handles concatenated members
    urls: list[str] = []
    tss: list[int] = []
    htmls: list[bytes] = []
    view = memoryview(data)
    pos = 0
    n = len(data)
    while pos < n:
        # tolerate inter-record CRLF padding
        while pos < n and data[pos : pos + 2] == _CRLF:
            pos += 2
        if pos >= n:
            break
        if not data.startswith(b"WARC/", pos):
            raise ValueError(
                f"warc: expected a WARC/ version line at byte {pos}, "
                f"got {data[pos : pos + 16]!r}"
            )
        hdr_end = data.find(_HDR_END, pos)
        if hdr_end < 0:
            raise ValueError(f"warc: unterminated record header at byte {pos}")
        header_lines = data[pos:hdr_end].split(_CRLF)
        headers: dict[str, str] = {}
        for line in header_lines[1:]:
            k, _, v = line.partition(b":")
            headers[k.strip().lower().decode()] = v.strip().decode()
        try:
            length = int(headers["content-length"])
        except KeyError:
            raise ValueError(f"warc: record at byte {pos} has no Content-Length")
        block_start = hdr_end + 4
        block_end = block_start + length
        if block_end > n:
            raise ValueError(
                f"warc: truncated record at byte {pos}: block needs "
                f"{length} bytes, file has {n - block_start}"
            )
        if headers.get("warc-type") == "response":
            block = view[block_start:block_end]
            http_end = data.find(_HDR_END, block_start, block_end)
            if http_end < 0:
                raise ValueError(
                    f"warc: response record at byte {pos} has no HTTP header"
                )
            body = bytes(view[http_end + 4 : block_end])
            urls.append(headers.get("warc-target-uri", ""))
            tss.append(_us_from_iso(headers.get("warc-date", "1970-01-01T00:00:00Z")))
            htmls.append(body)
        pos = block_end
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "lang": pa.array([""] * len(urls), pa.string()),
        },
        schema=PAGES_SCHEMA,
    )


def read_warc(paths: list[str] | str):
    """WARC file paths -> ray Dataset(url, warc_ts, html).

    One ``read_binary_files`` scan + one parse ``map_batches``; the
    Python loop inside the kernel is over ARCHIVE FILES (each a few
    thousand records), not rows — the container-parse analog of the
    codec actors.  On a multi-node cluster point this at shared storage,
    exactly like the parquet reader."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context

    configure_context()

    def parse(batch: pa.Table) -> pa.Table:
        tables = [
            parse_warc_bytes(m.as_py()) for m in batch.column("bytes")
        ]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return PAGES_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    return rd.read_binary_files(paths).map_batches(
        parse, batch_format="pyarrow", zero_copy_batch=True
    )


WET_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("text", pa.string()),
    ]
)


def parse_wet_bytes(data: bytes) -> pa.Table:
    """WET file bytes -> pa.Table(url, warc_ts, text).

    WET is the extracted-text form of a crawl: the same WARC container,
    but records are ``WARC-Type: conversion`` whose block IS the plain
    utf-8 text (no HTTP envelope).  Invalid utf-8 raises — a WET record
    is text by definition, silent replacement would corrupt dedup."""
    if data[:2] == _GZIP_MAGIC:
        data = gzip.decompress(data)
    urls: list[str] = []
    tss: list[int] = []
    texts: list[str] = []
    view = memoryview(data)
    pos = 0
    n = len(data)
    while pos < n:
        while pos < n and data[pos : pos + 2] == _CRLF:
            pos += 2
        if pos >= n:
            break
        if not data.startswith(b"WARC/", pos):
            raise ValueError(
                f"wet: expected a WARC/ version line at byte {pos}, "
                f"got {data[pos : pos + 16]!r}"
            )
        hdr_end = data.find(_HDR_END, pos)
        if hdr_end < 0:
            raise ValueError(f"wet: unterminated record header at byte {pos}")
        headers: dict[str, str] = {}
        for line in data[pos:hdr_end].split(_CRLF)[1:]:
            k, _, v = line.partition(b":")
            headers[k.strip().lower().decode()] = v.strip().decode()
        try:
            length = int(headers["content-length"])
        except KeyError:
            raise ValueError(f"wet: record at byte {pos} has no Content-Length")
        block_start = hdr_end + 4
        block_end = block_start + length
        if block_end > n:
            raise ValueError(
                f"wet: truncated record at byte {pos}: block needs "
                f"{length} bytes, file has {n - block_start}"
            )
        if headers.get("warc-type") == "conversion":
            urls.append(headers.get("warc-target-uri", ""))
            tss.append(_us_from_iso(headers.get("warc-date", "1970-01-01T00:00:00Z")))
            texts.append(bytes(view[block_start:block_end]).decode("utf-8"))
        pos = block_end
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "text": pa.array(texts, pa.string()),
        },
        schema=WET_SCHEMA,
    )


def write_wet(
    table: pa.Table, path: str, *, gzip_per_record: bool = True, version: str = "1.1"
) -> str:
    """(url, warc_ts, text) rows -> one WET file (conversion records)."""
    from dynaalign_ray.hashing import hash_strings

    urls = table.column("url").to_pylist()
    ts_col = table.column("warc_ts")
    us = (
        np.asarray(ts_col.cast(pa.int64()), dtype=np.int64)
        if pa.types.is_timestamp(ts_col.type)
        else np.asarray(ts_col, dtype=np.int64)
    )
    texts = table.column("text").to_pylist()
    rid = hash_strings(urls, seed=0x3A9D) if urls else np.zeros(0, dtype=np.uint64)
    with open(path, "wb") as out:
        for i, (url, text) in enumerate(zip(urls, texts)):
            rec = _record(
                [
                    ("WARC-Type", "conversion"),
                    ("WARC-Target-URI", url),
                    ("WARC-Date", _iso_from_us(int(us[i]))),
                    ("WARC-Record-ID", _record_id(rid[i])),
                    ("Content-Type", "text/plain"),
                ],
                text.encode("utf-8"),
                version,
            )
            out.write(gzip.compress(rec, mtime=0) if gzip_per_record else rec)
    return path


def read_wet(paths: list[str] | str):
    """WET file paths -> ray Dataset(url, warc_ts, text) — the direct
    docs-bearing source for text pipelines (``near_dedup(docs_ds=...)``
    after a doc_id projection); same scan shape as :func:`read_warc`."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context

    configure_context()

    def parse(batch: pa.Table) -> pa.Table:
        tables = [parse_wet_bytes(m.as_py()) for m in batch.column("bytes")]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return WET_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    return rd.read_binary_files(paths).map_batches(
        parse, batch_format="pyarrow", zero_copy_batch=True
    )
