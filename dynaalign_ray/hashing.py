"""Vectorized deterministic 64-bit hashing primitives.

Plays the role of the reference's MurmurHash3 + HashFamily
(/root/reference/src/minHash.cpp:21-89) but (a) 64-bit instead of 32 (at
10^12 docs a 32-bit shingle space collides constantly), (b) fully
vectorized with numpy over whole Arrow batches, and (c) seeded from config
instead of ``std::random_device`` (src/minHash.cpp:73) so results are
deterministic across runs / partitionings / retries.

All arithmetic is uint64 with wraparound (numpy semantics).
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
_SPLITMIX_C1 = U64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = U64(0x94D049BB133111EB)
_POLY_P = U64(0x100000001B3)  # FNV-ish odd multiplier for window combining

# numpy >=1.24 emits RuntimeWarning-free wraparound for unsigned ints; keep
# everything explicitly uint64 so nothing upcasts to float64/object.


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — bijective avalanche mix of uint64 values."""
    x = np.asarray(x, dtype=U64)
    x = (x ^ (x >> U64(30))) * _SPLITMIX_C1
    x = (x ^ (x >> U64(27))) * _SPLITMIX_C2
    return x ^ (x >> U64(31))


def hash_strings(values, seed: int = 0) -> np.ndarray:
    """Deterministic uint64 hash of an array of Python strings.

    Uses pandas' SipHash-1-3 C kernel (``pd.util.hash_array`` with the fixed
    default key) — deterministic across processes and machines, vectorized,
    and collision-resistant at 64 bits.  ``seed`` remixes the result so
    independent hash uses don't correlate.
    """
    import pandas as pd

    arr = np.asarray(values, dtype=object)
    h = pd.util.hash_array(arr, categorize=True).astype(U64, copy=False)
    if seed:
        h = mix64(h ^ U64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
    return h


def hash_u64(x: np.ndarray, seed: int = 0) -> np.ndarray:
    """Hash an array of uint64 values (with optional seed)."""
    x = np.asarray(x, dtype=U64)
    if seed:
        x = x ^ U64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    return mix64(x)


def poly_powers(k: int) -> np.ndarray:
    """[P^0, P^1, ..., P^(k-1)] mod 2^64 for the window-combine polynomial."""
    p = int(_POLY_P)
    return np.array(
        [pow(p, j, 1 << 64) for j in range(k)],
        dtype=U64,
    )


def make_permutations(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) parameter arrays for the multiply-add hash family.

    h_i(x) = a_i * x + b_i  (uint64 wraparound, a_i odd) — the analog of the
    reference's per-call random hash family (R/minHash.R:81-88 ``(a*x+b) mod
    m``; src/minHash.cpp:67-89 seeded murmur3), but generated ONCE from the
    config seed and shared by every actor in the pool.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(1, 2**63, size=num_perm, dtype=np.uint64) * U64(2) + U64(1)
    b = rng.integers(0, 2**63, size=num_perm, dtype=np.uint64)
    return a, b


def make_band_salts(num_bands: int, seed: int) -> np.ndarray:
    """Per-band salt so identical row-slices in different bands collide
    into different buckets."""
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    return rng.integers(0, 2**63, size=num_bands, dtype=np.uint64)


def content_hash(texts) -> np.ndarray:
    """int63 content hash of whole strings (exact-dedup key)."""
    return to_id63(hash_strings(texts, seed=0xC0FFEE))


def to_id63(h: np.ndarray) -> np.ndarray:
    """uint64 hash -> non-negative int64 id.

    All ids/keys that flow through Ray-native groupby / aggregate / join
    (doc_id, band_key, pair endpoints, cluster labels) are 63-bit int64:
    Ray's hash-aggregate finalize converts key columns through Python ints
    and falls back to a slow object path for uint64 values >= 2^63.
    """
    return (np.asarray(h, dtype=U64) >> U64(1)).astype(np.int64)


def doc_id_from_urls(urls) -> np.ndarray:
    """Canonical doc_id: int63 hash of the url (shared by the extract
    kernel, fixtures and the oracle)."""
    return to_id63(hash_strings(urls, seed=0xD0C1D))
