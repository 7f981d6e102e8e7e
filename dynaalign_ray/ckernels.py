"""Optional C-speed kernels, compiled at first use with the system cc.

Three families of per-row loops live here, each behind the Python function
whose body stays the specification and the fallback:

- the signature stage (``shingles``): word-mode token hashes straight off
  Arrow's ``(offsets, data)`` buffers (``hash_spans``), token hash + k-window
  combine in one pass per doc (``word_shingles``), fused MinHash / SimHash
  over doc segments, and per-doc sort + unique bottom-k sketches
  (``bottomk_segments``).  The numpy forms stream multi-MB uint64
  temporaries per batch (prefix sums, sliding windows, a whole-batch
  lexsort); these loops keep a doc's working set in cache;
- sorted-set Jaccard merges for verify and the exact all-pairs queries,
  where ``np.intersect1d`` costs ~15 µs of Python dispatch per pair;
- HTML -> text extraction (``extract_pages``): one scan per page over the
  html column's ``(offsets, data)`` buffers, writing the ``text`` column's
  buffers and ``n_chars`` with no Python str per page.  Its spec is the
  regex form ``extract.extract_text``, which also runs, page by page, on
  the pages the C loops report as not mirrored (see ``extract``).

The source compiles once per machine into a content-addressed ``.so`` in
the temp dir (one synchronous ``cc`` call; atomic rename, so concurrent
workers race safely) and loads via ctypes.  The C paths are byte-identical to
their specs (tests/test_ckernels.py, tests/test_signature_kernels.py,
tests/test_extract_kernels.py).  Without a compiler, or if the build
fails, callers run the Python path; a failed build warns once per process
with the tail of cc's stderr, since the fallback is several times slower
on the signature and extract stages.

Set ``DYNAALIGN_NO_CKERNEL=1`` to force the Python fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* splitmix64 finalizer; mirrors dynaalign_ray.hashing.mix64 */
static inline uint64_t mix64(uint64_t x) {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Hash of the utf8 bytes data[s:e]; mirrors shingles._hash_utf8_spans:
   the byte polynomial sum_j data[s+j] * P^j in the 2^64 ring (reverse
   Horner, one multiply per byte), mixed with the byte length, then with
   seed_mix when `seeded`. */
static inline uint64_t span_hash(const uint8_t *data, int64_t s, int64_t e,
                                 uint64_t seed_mix, int32_t seeded) {
    uint64_t h = 0;
    for (int64_t j = e - 1; j >= s; j--) h = h * 0x100000001B3ULL + data[j];
    h = mix64(h ^ mix64((uint64_t)(e - s)));
    return seeded ? mix64(h ^ seed_mix) : h;
}

/* out[i] = hash of string i, data[offs[i]:offs[i+1]]. */
void hash_spans(const int64_t *restrict offs, const uint8_t *restrict data,
                int64_t n, uint64_t seed_mix, int32_t seeded,
                uint64_t *restrict out) {
    for (int64_t i = 0; i < n; i++)
        out[i] = span_hash(data, offs[i], offs[i + 1], seed_mix, seeded);
}

/* Word-mode k-shingles of a batch; mirrors shingles._word_shingles_arrow.
   Doc d owns the next doc_toks[d] tokens of the flat token array (token i
   is data[offs[i]:offs[i+1]]).  Empty tokens are skipped.  A doc's m token
   hashes are written to out, then overwritten in place by its windows
   (window w reads slots w..w+k-1 only, so left to right is safe):
   mix64(sum_j x_{w+j} * pows[j]).  out_counts[d] = max(m - k + 1, 0);
   windows stay grouped by doc.  out needs room for every token.  Returns
   the number of windows written. */
int64_t word_shingles(const int64_t *restrict offs,
                      const uint8_t *restrict data,
                      const int64_t *restrict doc_toks, int64_t n_docs,
                      int64_t k, const uint64_t *restrict pows,
                      uint64_t seed_mix, uint64_t *restrict out,
                      int64_t *restrict out_counts) {
    int64_t tok = 0, pos = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        uint64_t *x = out + pos;
        int64_t m = 0;
        for (int64_t t = tok + doc_toks[d]; tok < t; tok++)
            if (offs[tok + 1] > offs[tok])
                x[m++] = span_hash(data, offs[tok], offs[tok + 1], seed_mix, 1);
        int64_t nw = m >= k ? m - k + 1 : 0;
        for (int64_t w = 0; w < nw; w++) {
            uint64_t acc = 0;
            for (int64_t j = 0; j < k; j++) acc += x[w + j] * pows[j];
            x[w] = mix64(acc);
        }
        out_counts[d] = nw;
        pos += nw;
    }
    return pos;
}

static int cmp_u64(const void *a, const void *b) {
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* Ascending in-place sort: quicksort (median-of-3 pivot, Hoare partition)
   over insertion sort for short runs; past `depth` levels a run goes to
   libc qsort, so crafted inputs cannot make it quadratic.  qsort alone
   measured ~2x slower here: one indirect comparator call per compare. */
static void sort_u64(uint64_t *a, int64_t n, int depth) {
    while (n > 16) {
        if (depth-- == 0) {
            qsort(a, (size_t)n, sizeof(uint64_t), cmp_u64);
            return;
        }
        uint64_t t, *m = a + (n - 1) / 2, *z = a + n - 1;
        if (*m < *a) { t = *m; *m = *a; *a = t; }
        if (*z < *m) { t = *z; *z = *m; *m = t; }
        if (*m < *a) { t = *m; *m = *a; *a = t; }
        uint64_t p = *m;
        int64_t i = -1, j = n;
        for (;;) {
            do i++; while (a[i] < p);
            do j--; while (a[j] > p);
            if (i >= j) break;
            t = a[i]; a[i] = a[j]; a[j] = t;
        }
        /* a[0..j] <= p <= a[j+1..n-1]; recurse into the smaller side */
        if (j + 1 < n - j - 1) {
            sort_u64(a, j + 1, depth);
            a += j + 1;
            n -= j + 1;
        } else {
            sort_u64(a + j + 1, n - j - 1, depth);
            n = j + 1;
        }
    }
    for (int64_t i = 1; i < n; i++) {
        uint64_t v = a[i];
        int64_t j = i;
        for (; j > 0 && a[j - 1] > v; j--) a[j] = a[j - 1];
        a[j] = v;
    }
}

/* Bottom-k sketches; mirrors shingles.bottomk_sketches.  Doc d's hashes
   are the next counts[d] values of s.  Each segment is sorted in scratch
   (room for the largest segment) and deduplicated: distinct[d] counts its
   distinct values and the first min(distinct[d], cap) go to out, grouped
   by doc, with sizes[d] of them.  Returns the number written. */
int64_t bottomk_segments(const uint64_t *restrict s,
                         const int64_t *restrict counts, int64_t n_docs,
                         int64_t cap, uint64_t *restrict scratch,
                         uint64_t *restrict out, int64_t *restrict sizes,
                         int64_t *restrict distinct) {
    int64_t pos = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t c = counts[d], nd = 0, kept = 0;
        memcpy(scratch, s, (size_t)c * sizeof(uint64_t));
        sort_u64(scratch, c, 64);
        for (int64_t i = 0; i < c; i++) {
            if (i && scratch[i] == scratch[i - 1]) continue;
            nd++;
            if (kept < cap) out[pos + kept++] = scratch[i];
        }
        s += c;
        distinct[d] = nd;
        sizes[d] = kept;
        pos += kept;
    }
    return pos;
}

/* Jaccard from two sorted-distinct bottom-k sketches; mirrors
   dynaalign_ray.shingles.jaccard_from_sketches exactly:
   - empty side -> 0.0
   - both complete (len < cap): exact |A∩B| / |A∪B|
   - else bottom-k estimator: among the cap smallest of A∪B, the
     fraction present in both (union size >= cap whenever either side
     is capped, so k == cap in that branch). */
static double jaccard_one(const uint64_t *a, int64_t la,
                          const uint64_t *b, int64_t lb, int64_t cap) {
    if (la == 0 || lb == 0) return 0.0;
    if (la < cap && lb < cap) {
        /* branchless merge: random-sorted-merge branches mispredict ~50%,
           and the predicate form measured 2x the if/else chain here */
        int64_t i = 0, j = 0, inter = 0;
        while (i < la && j < lb) {
            uint64_t x = a[i], y = b[j];
            inter += (x == y);
            i += (x <= y);
            j += (y <= x);
        }
        int64_t uni = la + lb - inter;
        return uni ? (double)inter / (double)uni : 0.0;
    }
    /* bottom-k estimator: hits among the first `cap` elements of the
       merged union.  Once one side is exhausted the remaining union
       elements come from the other side alone and cannot be hits, so the
       loop may stop there: hits is already final. */
    int64_t i = 0, j = 0, u = 0, hits = 0;
    while (u < cap && i < la && j < lb) {
        uint64_t x = a[i], y = b[j];
        hits += (x == y);
        i += (x <= y);
        j += (y <= x);
        u++;
    }
    return (double)hits / (double)cap;
}

/* Batch entry point over CSR slices: pair p's sketches are
   va[sa[p]:ea[p]] and vb[sb[p]:eb[p]].  va and vb may alias (the
   broadcast-CSR verify plan passes the same flat values array twice). */
void jaccard_batch(const uint64_t *va, const int64_t *sa, const int64_t *ea,
                   const uint64_t *vb, const int64_t *sb, const int64_t *eb,
                   int64_t n, int64_t cap, double *out) {
    for (int64_t p = 0; p < n; p++)
        out[p] = jaccard_one(va + sa[p], ea[p] - sa[p],
                             vb + sb[p], eb[p] - sb[p], cap);
}

/* Fused MinHash signatures over doc segments: sig[g][p] = min over the
   segment's shingle hashes x of (a[p]*x + b[p]) [u64 wraparound], the
   segmented min-reduce of shingles.minhash_signatures.  The numpy form
   materializes (perm_chunk, n_shingles) DRAM temporaries per chunk —
   memory-bandwidth-bound under many concurrent workers; this keeps the
   num_perm minima in L1 and reads each shingle hash exactly once, so the
   kernel is compute-bound and scales with cores.  Empty segments keep the
   ~0 (U64_MAX "infinity") sentinel, matching the numpy path. */
void minhash_segments(const uint64_t *restrict s,
                      const int64_t *restrict seg_starts,
                      const int64_t *restrict seg_counts,
                      int64_t n_segs,
                      const uint64_t *restrict a,
                      const uint64_t *restrict b,
                      int64_t num_perm,
                      uint64_t *restrict out) {
    for (int64_t g = 0; g < n_segs; g++) {
        uint64_t *m = out + g * num_perm;
        for (int64_t p = 0; p < num_perm; p++) m[p] = ~0ULL;
        const uint64_t *x0 = s + seg_starts[g];
        int64_t cnt = seg_counts[g];
        for (int64_t i = 0; i < cnt; i++) {
            uint64_t x = x0[i];
            for (int64_t p = 0; p < num_perm; p++) {
                uint64_t v = a[p] * x + b[p];
                if (v < m[p]) m[p] = v;
            }
        }
    }
}

/* Fused 64-bit SimHash over doc segments: bit j of the fingerprint is set
   iff more than half the segment's shingle hashes have bit j set
   (2*sum > count — ties round down, matching shingles.simhash_signatures).
   Empty segments -> 0. */
void simhash_segments(const uint64_t *restrict s,
                      const int64_t *restrict seg_starts,
                      const int64_t *restrict seg_counts,
                      int64_t n_segs,
                      uint64_t *restrict out) {
    for (int64_t g = 0; g < n_segs; g++) {
        int64_t cnt = seg_counts[g];
        const uint64_t *x0 = s + seg_starts[g];
        int32_t c[64] = {0};
        for (int64_t i = 0; i < cnt; i++) {
            uint64_t x = x0[i];
            for (int j = 0; j < 64; j++) c[j] += (int32_t)((x >> j) & 1ULL);
        }
        uint64_t f = 0;
        for (int j = 0; j < 64; j++) if (2LL * c[j] > cnt) f |= (1ULL << j);
        out[g] = f;
    }
}

/* One row vs a tail of CSR rows (exact all-pairs Jaccard query):
   row r's sketch is vals[st[r]:en[r]]; computes exact Jaccard of row
   `row` against rows row+1..n_rows-1 into out (length n_rows-row-1). */
void jaccard_row_vs_tail(const uint64_t *vals, const int64_t *st,
                         const int64_t *en, int64_t n_rows, int64_t row,
                         double *out) {
    const uint64_t *a = vals + st[row];
    int64_t la = en[row] - st[row];
    for (int64_t q = row + 1; q < n_rows; q++) {
        const uint64_t *b = vals + st[q];
        int64_t lb = en[q] - st[q];
        int64_t i = 0, j = 0, inter = 0;
        while (i < la && j < lb) {
            uint64_t x = a[i], y = b[j];
            inter += (x == y);
            i += (x <= y);
            j += (y <= x);
        }
        int64_t uni = la + lb - inter;
        out[q - row - 1] = uni ? (double)inter / (double)uni : 0.0;
    }
}

/* Every row of CSR block A vs every row of CSR block B (exact all-pairs
   Jaccard, STRIPED plan past the broadcast gate): out[r*nb + q] is the
   exact Jaccard of A row r against B row q.  Callers chunk A so the dense
   (rows_a, nb) output stays bounded regardless of block size. */
void jaccard_cross_block(const uint64_t *va, const int64_t *sa,
                         const int64_t *ea, int64_t na,
                         const uint64_t *vb, const int64_t *sb,
                         const int64_t *eb, int64_t nb, double *out) {
    for (int64_t r = 0; r < na; r++) {
        const uint64_t *a = va + sa[r];
        int64_t la = ea[r] - sa[r];
        double *o = out + r * nb;
        for (int64_t q = 0; q < nb; q++) {
            const uint64_t *b = vb + sb[q];
            int64_t lb = eb[q] - sb[q];
            int64_t i = 0, j = 0, inter = 0;
            while (i < la && j < lb) {
                uint64_t x = a[i], y = b[j];
                inter += (x == y);
                i += (x <= y);
                j += (y <= x);
            }
            int64_t uni = la + lb - inter;
            o[q] = uni ? (double)inter / (double)uni : 0.0;
        }
    }
}

/* ---- HTML -> text; mirrors dynaalign_ray.extract.extract_text ----
   The spec runs five regex passes over a decoded str; these loops run the
   same passes over a page's UTF-8 bytes.  They mirror it for ASCII markup
   only: a page whose result could depend on how Python classifies a
   non-ASCII code point is reported back (return -1) and the caller runs
   the spec on it.  Such pages hold invalid UTF-8, a code point str.split /
   \s count as whitespace, a letter re.I folds onto ASCII (U+0130 U+0131
   U+017F U+212A), a non-ASCII byte right after a candidate tag name (\b
   then depends on Unicode \w), or an '&' other than the five html.escape
   forms.  Every other non-ASCII byte is plain text and is copied through.
   Each pass is a leftmost scan that skips an opener without a closer and
   resumes at the next '<', as re.sub / re.search / re.findall do; a failed
   closer search is never repeated, so unclosed openers stay linear. */

/* str.isspace() on one ASCII byte: \t \n \v \f \r, \x1c-\x1f, space */
static inline int ws_byte(uint8_t c) {
    return (c >= 9 && c <= 13) || (c >= 28 && c <= 32);
}

static inline int word_byte(uint8_t c) {  /* ASCII \w */
    return (c >= '0' && c <= '9') || c == '_' ||
           ((c | 0x20) >= 'a' && (c | 0x20) <= 'z');
}

/* 1 when data[0:n] decodes as strict UTF-8 (what bytes.decode accepts)
   and holds none of the code points the byte scan cannot mirror. */
static int page_ok(const uint8_t *s, int64_t n) {
    int64_t i = 0;
    while (i < n) {
        if (i + 8 <= n) {
            uint64_t w;
            memcpy(&w, s + i, 8);
            if (!(w & 0x8080808080808080ULL)) { i += 8; continue; }
        }
        uint8_t c = s[i];
        if (c < 0x80) { i++; continue; }
        int len;
        uint32_t cp;
        if (c >= 0xC2 && c <= 0xDF) { len = 2; cp = c & 0x1F; }
        else if (c >= 0xE0 && c <= 0xEF) { len = 3; cp = c & 0x0F; }
        else if (c >= 0xF0 && c <= 0xF4) { len = 4; cp = c & 0x07; }
        else return 0;
        if (n - i < len) return 0;
        for (int j = 1; j < len; j++) {
            if ((s[i + j] & 0xC0) != 0x80) return 0;
            cp = (cp << 6) | (s[i + j] & 0x3F);
        }
        if ((len == 3 && cp < 0x800) || (len == 4 && cp < 0x10000) ||
            cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF))
            return 0;  /* overlong, out of range or a surrogate */
        if (cp == 0x85 || cp == 0xA0 || cp == 0x1680 ||
            (cp >= 0x2000 && cp <= 0x200A) || cp == 0x2028 || cp == 0x2029 ||
            cp == 0x202F || cp == 0x205F || cp == 0x3000)
            return 0;  /* Unicode whitespace */
        if (cp == 0x130 || cp == 0x131 || cp == 0x17F || cp == 0x212A)
            return 0;  /* re.I matches these against i, s and k */
        i += len;
    }
    return 1;
}

/* s starts with the lowercase ASCII letters lit, in any case (re.I) */
static inline int iprefix(const uint8_t *s, const uint8_t *e, const char *lit) {
    for (; *lit; lit++, s++)
        if (s >= e || (*s | 0x20) != (uint8_t)*lit) return 0;
    return 1;
}

/* \b right after a tag name ending at p: 1 at a boundary, 0 when an ASCII
   word byte follows, -1 when a non-ASCII byte follows (spec decides). */
static inline int name_end(const uint8_t *p, const uint8_t *e) {
    if (p == e) return 1;
    if (*p >= 0x80) return -1;
    return !word_byte(*p);
}

/* The first '>' at or after p, for [^>]*>; calls come with p never
   decreasing, so the scan behind all of them is one pass. */
typedef struct { const uint8_t *from, *at; } gt_memo;

static inline const uint8_t *next_gt(gt_memo *m, const uint8_t *p,
                                     const uint8_t *e) {
    if (!m->from || (m->at && p > m->at)) {
        m->from = p;
        m->at = p < e ? memchr(p, '>', (size_t)(e - p)) : NULL;
    }
    return m->at;
}

/* The first closer "</" lit \s* ">" at or after p; its length in *len. */
static const uint8_t *find_closer(const uint8_t *p, const uint8_t *e,
                                  const char *lit, int64_t *len) {
    size_t nl = strlen(lit);
    while (p < e && (p = memchr(p, '<', (size_t)(e - p)))) {
        if (e - p > 2 && p[1] == '/' && iprefix(p + 2, e, lit)) {
            const uint8_t *q = p + 2 + nl;
            while (q < e && ws_byte(*q)) q++;
            if (q < e && *q == '>') { *len = q + 1 - p; return p; }
        }
        p++;
    }
    return NULL;
}

/* Pass 1: <(script|style)\b[^>]*>.*?</\1\s*> -> " " (re.I | re.S). */
static int64_t strip_scripts(const uint8_t *s, int64_t n, uint8_t *out) {
    static const char *names[2] = {"script", "style"};
    const uint8_t *e = s + n, *p = s, *run = s, *lt;
    const uint8_t *dead[2] = {NULL, NULL};  /* no closer at or after */
    gt_memo gm = {NULL, NULL};
    int64_t o = 0;
    while (p < e && (lt = memchr(p, '<', (size_t)(e - p)))) {
        p = lt + 1;
        int t = iprefix(p, e, "script") ? 0 : iprefix(p, e, "style") ? 1 : -1;
        if (t < 0) continue;
        const uint8_t *j = p + strlen(names[t]);
        int b = name_end(j, e);
        if (b < 0) return -1;
        if (!b) continue;
        const uint8_t *k = next_gt(&gm, j, e);
        if (!k) break;  /* no '>' left for this or any later opener */
        if (dead[t] && k + 1 >= dead[t]) continue;
        int64_t cl;
        const uint8_t *c = find_closer(k + 1, e, names[t], &cl);
        if (!c) { dead[t] = k + 1; continue; }
        memcpy(out + o, run, (size_t)(lt - run));
        o += lt - run;
        out[o++] = ' ';
        p = run = c + cl;
    }
    memcpy(out + o, run, (size_t)(e - run));
    return o + (e - run);
}

/* Pass 2: <!--.*?--> -> " " (re.S). */
static int64_t strip_comments(const uint8_t *s, int64_t n, uint8_t *out) {
    const uint8_t *e = s + n, *p = s, *run = s, *lt;
    int64_t o = 0;
    while (p < e && (lt = memchr(p, '<', (size_t)(e - p)))) {
        p = lt + 1;
        if (e - lt < 4 || lt[1] != '!' || lt[2] != '-' || lt[3] != '-') continue;
        const uint8_t *c = NULL;  /* first "-->" at or after lt + 4 */
        for (const uint8_t *g = lt + 6; g < e; g++) {
            if (!(g = memchr(g, '>', (size_t)(e - g)))) break;
            if (g[-1] == '-' && g[-2] == '-') { c = g - 2; break; }
        }
        if (!c) break;  /* no later opener can close either */
        memcpy(out + o, run, (size_t)(lt - run));
        o += lt - run;
        out[o++] = ' ';
        p = run = c + 3;
    }
    memcpy(out + o, run, (size_t)(e - run));
    return o + (e - run);
}

/* Pass 3: the inner text of the first <main\b[^>]*>(.*?)</main\s*> goes
   to [*cs, *ce); both stay as they are when there is none. */
static int find_main(const uint8_t *s, const uint8_t *e, const uint8_t **cs,
                     const uint8_t **ce) {
    const uint8_t *p = s, *lt;
    gt_memo gm = {NULL, NULL};
    while (p < e && (lt = memchr(p, '<', (size_t)(e - p)))) {
        p = lt + 1;
        if (!iprefix(p, e, "main")) continue;
        int b = name_end(p + 4, e);
        if (b < 0) return -1;
        if (!b) continue;
        const uint8_t *k = next_gt(&gm, p + 4, e);
        int64_t cl;
        const uint8_t *c = k ? find_closer(k + 1, e, "main", &cl) : NULL;
        if (c) { *cs = k + 1; *ce = c; }
        return 0;  /* matched, or no later opener can match */
    }
    return 0;
}

/* html.unescape of one of the five html.escape forms at s: the char goes
   to *c and the bytes consumed are returned; 0 for any other '&'. */
static int64_t entity(const uint8_t *s, const uint8_t *e, uint8_t *c) {
    static const char *forms[5] = {"&amp;", "&lt;", "&gt;", "&quot;", "&#x27;"};
    static const uint8_t chars[5] = {'&', '<', '>', '"', '\''};
    for (int f = 0; f < 5; f++) {
        int64_t len = (int64_t)strlen(forms[f]);
        if (e - s >= len && !memcmp(s, forms[f], (size_t)len)) {
            *c = chars[f];
            return len;
        }
    }
    return 0;
}

/* Byte classes for clean_fragment: ASCII whitespace, '<', '&', other. */
enum { PLAIN, SPACE, LT, AMP };
static const uint8_t FRAG_CLASS[256] = {
    [9] = SPACE, [10] = SPACE, [11] = SPACE, [12] = SPACE, [13] = SPACE,
    [28] = SPACE, [29] = SPACE, [30] = SPACE, [31] = SPACE, [32] = SPACE,
    ['<'] = LT, ['&'] = AMP,
};

/* _clean_fragment: <[^>]+> -> " ", unescape, " ".join(split()), in one
   pass (the five entities hold no '<', so stripping first changes none). */
static int64_t clean_fragment(const uint8_t *s, const uint8_t *e, uint8_t *out) {
    gt_memo gm = {NULL, NULL};
    uint8_t *o = out;
    int gap = 0;
    while (s < e) {
        uint8_t c = *s, cls = FRAG_CLASS[c];
        if (cls == SPACE) { gap = 1; s++; continue; }
        if (cls == LT && e - s > 1 && s[1] != '>') {
            const uint8_t *k = next_gt(&gm, s + 1, e);
            if (k) { gap = 1; s = k + 1; continue; }  /* a tag is a space */
        }
        if (gap && o > out) *o++ = ' ';
        gap = 0;
        if (cls == AMP) {
            int64_t adv = entity(s, e, &c);
            if (!adv) return -1;
            *o++ = c;
            s += adv;
            continue;
        }
        /* a run of text up to the next whitespace, '<' or '&' */
        do *o++ = *s++; while (s < e && FRAG_CLASS[*s] == PLAIN);
    }
    return o - out;
}

/* Passes 4-5: the cleaned <p\b[^>]*>(.*?)</p\s*> runs of s[0:e], joined
   with '\n', or the whole content cleaned when it has none. */
static int64_t paragraphs(const uint8_t *s, const uint8_t *e, uint8_t *out) {
    const uint8_t *p = s, *lt;
    gt_memo gm = {NULL, NULL};
    int64_t o = 0, runs = 0;
    while (p < e && (lt = memchr(p, '<', (size_t)(e - p)))) {
        p = lt + 1;
        if (p == e || (*p | 0x20) != 'p') continue;
        int b = name_end(p + 1, e);
        if (b < 0) return -1;
        if (!b) continue;
        const uint8_t *k = next_gt(&gm, p + 1, e);
        int64_t cl;
        const uint8_t *c = k ? find_closer(k + 1, e, "p", &cl) : NULL;
        if (!c) break;  /* no later opener can match either */
        if (runs++) out[o++] = '\n';
        int64_t w = clean_fragment(k + 1, c, out + o);
        if (w < 0) return -1;
        o += w;
        p = c + cl;
    }
    return runs ? o : clean_fragment(s, e, out);
}

/* Text of every page i = data[offs[i]:offs[i+1]] into out as an Arrow
   string column (int32 out_offs, n + 1 of them) with n_chars[i] code
   points.  A page the loops do not mirror gets spec[i] = 1 and an empty
   slot.  No page's text is longer than its HTML, so out needs the input's
   byte count and scratch twice the longest page.  Returns the bytes
   written, or -1 once they pass `limit`. */
int64_t extract_pages(const int64_t *restrict offs,
                      const uint8_t *restrict data, int64_t n, int64_t limit,
                      uint8_t *restrict scratch, int32_t *restrict out_offs,
                      uint8_t *restrict out, int64_t *restrict n_chars,
                      uint8_t *restrict spec) {
    int64_t pos = 0;
    out_offs[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *pg = data + offs[i];
        int64_t len = offs[i + 1] - offs[i], w = -1;
        if (page_ok(pg, len)) {
            uint8_t *b1 = scratch, *b2 = scratch + len;
            int64_t n1 = strip_scripts(pg, len, b1);
            if (n1 >= 0) {
                const uint8_t *cs = b2, *ce = b2 + strip_comments(b1, n1, b2);
                if (find_main(cs, ce, &cs, &ce) == 0)
                    w = paragraphs(cs, ce, out + pos);
            }
        }
        spec[i] = w < 0;
        if (w < 0) w = 0;
        int64_t chars = 0;
        for (int64_t j = pos; j < pos + w; j++) chars += (out[j] & 0xC0) != 0x80;
        n_chars[i] = chars;
        pos += w;
        if (pos > limit) return -1;
        out_offs[i + 1] = (int32_t)pos;
    }
    return pos;
}
"""

_CACHE_DIR = os.path.join(tempfile.gettempdir(), "dynaalign_ckernels")
_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_tried = False

_U64P = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_I32P = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_I64, _I32, _U64 = ctypes.c_int64, ctypes.c_int32, ctypes.c_uint64
_STDERR_TAIL = 2000  # chars of cc's stderr quoted by the build warning

_SIGNATURES = [
    ("jaccard_batch",
     [_U64P, _I64P, _I64P, _U64P, _I64P, _I64P, _I64, _I64, _F64P], None),
    ("jaccard_row_vs_tail", [_U64P, _I64P, _I64P, _I64, _I64, _F64P], None),
    ("minhash_segments",
     [_U64P, _I64P, _I64P, _I64, _U64P, _U64P, _I64, _U64P], None),
    ("simhash_segments", [_U64P, _I64P, _I64P, _I64, _U64P], None),
    ("jaccard_cross_block",
     [_U64P, _I64P, _I64P, _I64, _U64P, _I64P, _I64P, _I64, _F64P], None),
    ("hash_spans", [_I64P, _U8P, _I64, _U64, _I32, _U64P], None),
    ("word_shingles",
     [_I64P, _U8P, _I64P, _I64, _I64, _U64P, _U64, _U64P, _I64P], _I64),
    ("bottomk_segments",
     [_U64P, _I64P, _I64, _I64, _U64P, _U64P, _I64P, _I64P], _I64),
    ("extract_pages",
     [_I64P, _U8P, _I64, _I64, _U8P, _I32P, _U8P, _I64P, _U8P], _I64),
]


def _build() -> ctypes.CDLL | None:
    if os.environ.get("DYNAALIGN_NO_CKERNEL"):
        return None
    key = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    so_path = os.path.join(_CACHE_DIR, f"jk_{key}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(_CACHE_DIR, exist_ok=True)
            src = os.path.join(_CACHE_DIR, f"jk_{key}.c")
            with open(src, "w") as f:
                f.write(_C_SOURCE)
            tmp = f"{so_path}.tmp.{os.getpid()}"
            subprocess.run(
                ["cc", "-O3", "-shared", "-fPIC", "-o", tmp, src],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.rename(tmp, so_path)  # atomic: concurrent builders race safely
        except subprocess.CalledProcessError as e:
            tail = e.stderr.decode(errors="replace")[-_STDERR_TAIL:]
            return _build_failed(f"cc exited {e.returncode}: {tail}")
        except (OSError, subprocess.TimeoutExpired) as e:
            return _build_failed(repr(e))
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as e:
        return _build_failed(repr(e))
    for name, argtypes, restype in _SIGNATURES:
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def _build_failed(why: str) -> None:
    """A failed build is not an error, but it costs the signature and
    extract stages most of their speed: say so once per process instead of
    falling back silently."""
    warnings.warn(
        f"dynaalign_ray C kernels unavailable, using the numpy fallback "
        f"({why.strip()})",
        RuntimeWarning,
    )
    return None


def _load() -> ctypes.CDLL | None:
    global _lib, _tried
    if _tried:
        return _lib
    with _lock:
        if not _tried:
            _lib = _build()
            _tried = True
    return _lib


def available() -> bool:
    return _load() is not None


def _c64(a: np.ndarray, dtype) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=dtype)


def jaccard_batch(
    va: np.ndarray,
    sa: np.ndarray,
    ea: np.ndarray,
    vb: np.ndarray,
    sb: np.ndarray,
    eb: np.ndarray,
    cap: int,
) -> np.ndarray | None:
    """Per-pair Jaccard over CSR sketch slices (C path), or None when the
    compiled kernel is unavailable — callers fall back to the numpy loop.
    Semantics identical to shingles.jaccard_from_sketches per pair."""
    lib = _load()
    if lib is None:
        return None
    n = len(sa)
    out = np.empty(n, dtype=np.float64)
    if n:
        lib.jaccard_batch(
            _c64(va, np.uint64), _c64(sa, np.int64), _c64(ea, np.int64),
            _c64(vb, np.uint64), _c64(sb, np.int64), _c64(eb, np.int64),
            n, int(cap), out,
        )
    return out


def minhash_segments(
    shingle_hashes: np.ndarray,
    seg_starts: np.ndarray,
    seg_counts: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray | None:
    """Fused (n_segs, num_perm) MinHash signature matrix (C path), or None
    when the compiled kernel is unavailable.  Empty segments come back as
    U64_MAX sentinel rows, matching shingles.minhash_signatures."""
    lib = _load()
    if lib is None:
        return None
    n_segs = len(seg_counts)
    num_perm = len(a)
    out = np.empty((n_segs, num_perm), dtype=np.uint64)
    if n_segs:
        lib.minhash_segments(
            _c64(shingle_hashes, np.uint64),
            _c64(seg_starts, np.int64),
            _c64(seg_counts, np.int64),
            n_segs,
            _c64(a, np.uint64),
            _c64(b, np.uint64),
            num_perm,
            out,
        )
    return out


def simhash_segments(
    shingle_hashes: np.ndarray,
    seg_starts: np.ndarray,
    seg_counts: np.ndarray,
) -> np.ndarray | None:
    """Fused per-segment 64-bit SimHash (C path), or None when the
    compiled kernel is unavailable.  Empty segments -> 0."""
    lib = _load()
    if lib is None:
        return None
    n_segs = len(seg_counts)
    out = np.empty(n_segs, dtype=np.uint64)
    if n_segs:
        lib.simhash_segments(
            _c64(shingle_hashes, np.uint64),
            _c64(seg_starts, np.int64),
            _c64(seg_counts, np.int64),
            n_segs,
            out,
        )
    return out


def _span_offsets(offs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Arrow string offsets as int64, checked to lie inside ``data`` (the C
    kernels read ``data[offs[i]:offs[i+1]]`` unchecked)."""
    offs = _c64(offs, np.int64)
    if len(offs) and (offs.min() < 0 or offs.max() > len(data)):
        raise ValueError("string offsets fall outside the data buffer")
    if (offs[1:] < offs[:-1]).any():
        raise ValueError("string offsets decrease")
    return offs


def _seed_mix(seed: int) -> int:
    return (int(seed) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF


def hash_utf8_spans(
    offs: np.ndarray, data: np.ndarray, seed: int
) -> np.ndarray | None:
    """uint64 hash of every string ``data[offs[i]:offs[i+1]]`` (C path), or
    None when the compiled kernel is unavailable.  Bit-identical to the
    numpy body of shingles._hash_utf8_spans."""
    lib = _load()
    if lib is None:
        return None
    offs = _span_offsets(offs, data)
    n = max(len(offs) - 1, 0)
    out = np.empty(n, dtype=np.uint64)
    if n:
        lib.hash_spans(offs, data, n, _seed_mix(seed), 1 if seed else 0, out)
    return out


def word_shingles(
    offs: np.ndarray,
    data: np.ndarray,
    doc_toks: np.ndarray,
    pows: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Word-mode ``(window hashes, per-doc window counts)`` of a batch whose
    doc d owns the next ``doc_toks[d]`` strings of ``(offs, data)`` (C
    path), or None when the compiled kernel is unavailable.  Bit-identical
    to shingles._word_shingles_arrow's numpy path: empty tokens skipped,
    token hashes seeded with ``seed``, windows combined with ``pows``
    (k = len(pows))."""
    lib = _load()
    if lib is None:
        return None
    if len(pows) < 1:
        raise ValueError("shingle k must be >= 1")
    offs = _span_offsets(offs, data)
    doc_toks = _c64(doc_toks, np.int64)
    n_tok = max(len(offs) - 1, 0)
    if (doc_toks < 0).any() or int(doc_toks.sum()) != n_tok:
        raise ValueError("per-doc token counts do not cover the token array")
    out = np.empty(n_tok, dtype=np.uint64)
    counts = np.zeros(len(doc_toks), dtype=np.int64)
    n = 0
    if n_tok:
        n = lib.word_shingles(
            offs, data, doc_toks, len(doc_toks), len(pows),
            _c64(pows, np.uint64), _seed_mix(seed), out, counts,
        )
    return out[:n], counts


def bottomk_segments(
    shingle_hashes: np.ndarray, counts: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Per-doc sorted distinct bottom-``cap`` sketches ``(values, sizes,
    distinct counts)`` (C path), or None when the compiled kernel is
    unavailable.  Bit-identical to shingles.bottomk_sketches."""
    lib = _load()
    if lib is None:
        return None
    s = _c64(shingle_hashes, np.uint64)
    counts = _c64(counts, np.int64)
    n_docs = len(counts)
    if (counts < 0).any() or int(counts.sum()) != len(s):
        raise ValueError("per-doc shingle counts do not cover the hashes")
    # no doc keeps more than all of its hashes, so clamping changes nothing
    cap = max(0, min(int(cap), len(s)))
    out = np.empty(int(np.minimum(counts, cap).sum()), dtype=np.uint64)
    sizes = np.zeros(n_docs, dtype=np.int64)
    distinct = np.zeros(n_docs, dtype=np.int64)
    n = 0
    if len(s):
        scratch = np.empty(int(counts.max()), dtype=np.uint64)
        n = lib.bottomk_segments(
            s, counts, n_docs, cap, scratch, out, sizes, distinct
        )
    return out[:n], sizes, distinct


_MAX_TEXT_BYTES = 2**31 - 1  # an Arrow string column's int32 offsets


def extract_pages(
    offs: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """``extract.extract_text`` of every page ``data[offs[i]:offs[i+1]]`` as
    the buffers of an Arrow ``string`` column ``(int32 offsets, UTF-8
    data)``, plus per-page ``n_chars`` and a ``spec`` mask (C path), or None
    when the compiled kernel is unavailable.  Pages under ``spec`` hold a
    case the C loops do not mirror (see the C source); their slots are
    empty, and the caller runs ``extract_text`` on them.  Raises
    ValueError when the text overflows int32 offsets."""
    lib = _load()
    if lib is None:
        return None
    offs = _span_offsets(offs, data)
    n = max(len(offs) - 1, 0)
    out_offs = np.zeros(n + 1, dtype=np.int32)
    n_chars = np.zeros(n, dtype=np.int64)
    spec = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return out_offs, np.empty(0, np.uint8), n_chars, spec.view(bool)
    # no page's text is longer than its HTML
    out = np.empty(max(int(offs[-1] - offs[0]), 1), dtype=np.uint8)
    scratch = np.empty(max(2 * int(np.diff(offs).max()), 1), dtype=np.uint8)
    total = lib.extract_pages(
        offs, data, n, _MAX_TEXT_BYTES, scratch, out_offs, out, n_chars, spec
    )
    if total < 0:
        raise ValueError(
            f"extracted text passes {_MAX_TEXT_BYTES} bytes, the int32 "
            "offsets of an Arrow string column"
        )
    return out_offs, out[:total], n_chars, spec.view(bool)


def jaccard_row_vs_tail(
    vals: np.ndarray, st: np.ndarray, en: np.ndarray, row: int
) -> np.ndarray | None:
    """Exact Jaccard of CSR row `row` vs every later row, or None when the
    compiled kernel is unavailable."""
    lib = _load()
    if lib is None:
        return None
    n_rows = len(st)
    m = n_rows - row - 1
    out = np.empty(max(m, 0), dtype=np.float64)
    if m > 0:
        lib.jaccard_row_vs_tail(
            _c64(vals, np.uint64), _c64(st, np.int64), _c64(en, np.int64),
            n_rows, int(row), out,
        )
    return out


def jaccard_cross_block(
    va: np.ndarray, sa: np.ndarray, ea: np.ndarray,
    vb: np.ndarray, sb: np.ndarray, eb: np.ndarray,
) -> np.ndarray | None:
    """Exact Jaccard of every CSR row of block A against every CSR row of
    block B as a dense ``(len(sa), len(sb))`` float64 matrix, or None when
    the compiled kernel is unavailable.  Callers chunk A's rows so the
    dense output stays bounded regardless of block size (striped exact
    all-pairs plan past the broadcast gate)."""
    lib = _load()
    if lib is None:
        return None
    na, nb = len(sa), len(sb)
    out = np.empty((max(na, 0), max(nb, 0)), dtype=np.float64)
    if na and nb:
        lib.jaccard_cross_block(
            _c64(va, np.uint64), _c64(sa, np.int64), _c64(ea, np.int64), na,
            _c64(vb, np.uint64), _c64(sb, np.int64), _c64(eb, np.int64), nb,
            out,
        )
    return out
