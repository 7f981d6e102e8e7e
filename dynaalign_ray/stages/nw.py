"""Needleman–Wunsch exact rescorer — re-expresses the reference's
``calculate_similarity`` / ``similarityNW``
(/root/reference/src/pairwiseSeqAlign.cpp:209-313, 331-365) for sequence
payloads: global alignment with affine gaps (M/Ix/Iy three-matrix DP),
traceback counting exact matches, similarity = matches / alignment_length.

Differences from the reference by design:
- never all-pairs: scoring runs only over candidate pairs that survive the
  LSH stage (``nw_rescore_edges``), as a ``map_batches`` kernel;
- the DP inner loop is vectorized over one axis with numpy (the reference
  uses scalar C++ loops + an outer OpenMP ``parallel for``).

Substitution matrices: all six the reference ships —
BLOSUM45/50/62/80/90/100 (public NCBI tables, pairwiseSeqAlign.cpp:23-186,
embedded in stages/blosum.py) — plus a match/mismatch "IDENTITY" matrix and
a custom (alphabet, matrix) hook.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dynaalign_ray.stages.blosum import TABLES as _BLOSUM_TABLES

AA_ALPHABET = "ARNDCQEGHILKMFPSTWYVBZX*"  # aa_to_index order, pairwiseSeqAlign.cpp:15-21

_NEG_INF = -(10**9)


def get_substitution_matrix(name: str) -> tuple[str, np.ndarray]:
    """Analog of getSubstitutionMatrix (pairwiseSeqAlign.cpp:190-206);
    errors on unknown names like the reference.  All six of the reference's
    tables are available (BLOSUM45/50/62/80/90/100) plus IDENTITY."""
    if name in _BLOSUM_TABLES:
        return AA_ALPHABET, _BLOSUM_TABLES[name]
    if name == "IDENTITY":
        m = np.full((24, 24), -1, dtype=np.int32)
        np.fill_diagonal(m, 1)
        return AA_ALPHABET, m
    raise ValueError(
        f"Unknown substitution matrix: {name!r} (supported: "
        f"{', '.join(sorted(_BLOSUM_TABLES))}, IDENTITY; or pass a custom "
        "(alphabet, matrix) pair)"
    )


def _encode(seq: str, index: dict[str, int]) -> np.ndarray:
    try:
        return np.fromiter((index[c] for c in seq), dtype=np.int64, count=len(seq))
    except KeyError as e:
        # same guard as the reference (pairwiseSeqAlign.cpp:240-250)
        raise ValueError(f"invalid character {e.args[0]!r} in sequence") from None


def _dp_from_scores(scores: np.ndarray, gap_open, gap_ext):
    """Three-matrix affine-gap DP over an arbitrary (n, m) position-score
    matrix, vectorized over the j axis per row.  Also serves the
    profile-profile alignment in stages/msa.py (float scores)."""
    n, m = scores.shape
    dtype = scores.dtype
    M = np.full((n + 1, m + 1), _NEG_INF, dtype=dtype)
    Ix = np.full((n + 1, m + 1), _NEG_INF, dtype=dtype)  # gap in y (up moves)
    Iy = np.full((n + 1, m + 1), _NEG_INF, dtype=dtype)  # gap in x (left moves)
    M[0, 0] = 0
    Ix[1:, 0] = -gap_open - gap_ext * np.arange(n, dtype=dtype)
    Iy[0, 1:] = -gap_open - gap_ext * np.arange(m, dtype=dtype)
    # Iy's intra-row dependency iy[j] = max(M[i,j-1] - gap_open,
    # iy[j-1] - gap_ext) is a prefix max after the affine substitution
    # c[j] = M[i,j-1] - gap_open + gap_ext*j:
    #   iy[j] = max_{1<=j'<=j} (M[i,j'-1] - gap_open - (j-j')*gap_ext)
    #         = maximum.accumulate(c)[j] - gap_ext*j
    # — no Python inner loop (the reference's scalar C++ scan,
    # pairwiseSeqAlign.cpp:262-266, vectorized).
    jj = np.arange(1, m + 1, dtype=dtype) * gap_ext
    for i in range(1, n + 1):
        prev_best = np.maximum(np.maximum(M[i - 1], Ix[i - 1]), Iy[i - 1])
        M[i, 1:] = prev_best[:-1] + scores[i - 1]
        Ix[i, 1:] = np.maximum(M[i - 1, 1:] - gap_open, Ix[i - 1, 1:] - gap_ext)
        Ix[i, 0] = -gap_open - gap_ext * (i - 1)
        c = M[i, :-1] - gap_open + jj
        Iy[i, 1:] = np.maximum.accumulate(c) - jj
    return M, Ix, Iy


def _dp_matrices(x: np.ndarray, y: np.ndarray, sub: np.ndarray, gap_open: int, gap_ext: int):
    """Three-matrix affine-gap DP for two encoded sequences."""
    return _dp_from_scores(sub[x][:, y].astype(np.int64), gap_open, gap_ext)


def _traceback(x, y, M, Ix, Iy, gap_open, gap_ext, pairs_out=None):
    """Shared traceback (pairwiseSeqAlign.cpp:283-308): counts matches and
    alignment length; optionally records the aligned (i, j) diagonal pairs."""
    n, m = len(x), len(y)
    i, j = n, m
    state = int(np.argmax([M[n, m], Ix[n, m], Iy[n, m]]))
    matches = 0
    length = 0
    while i > 0 or j > 0:
        length += 1
        if state == 0 and i > 0 and j > 0:
            if x[i - 1] == y[j - 1]:
                matches += 1
            if pairs_out is not None:
                pairs_out.append((i - 1, j - 1))
            cand = [M[i - 1, j - 1], Ix[i - 1, j - 1], Iy[i - 1, j - 1]]
            state = int(np.argmax(cand))
            i, j = i - 1, j - 1
        elif state == 1 and i > 0:  # up: gap in y
            state = 0 if M[i - 1, j] - gap_open >= Ix[i - 1, j] - gap_ext else 1
            i -= 1
        elif state == 2 and j > 0:  # left: gap in x
            state = 0 if M[i, j - 1] - gap_open >= Iy[i, j - 1] - gap_ext else 2
            j -= 1
        else:
            state = 1 if i > 0 else 2
    return matches, length


def nw_similarity(
    s1: str,
    s2: str,
    matrix_name: str = "BLOSUM62",
    gap_open: int = 10,
    gap_ext: int = 4,
    custom: tuple[str, np.ndarray] | None = None,
) -> float:
    """Global-alignment similarity = exact matches / alignment length.

    Affine gap: opening costs gap_open, each extension gap_ext (same
    parameter convention as the reference's defaults 10/4).
    """
    alphabet, sub = custom if custom is not None else get_substitution_matrix(matrix_name)
    index = {c: i for i, c in enumerate(alphabet)}
    x, y = _encode(s1, index), _encode(s2, index)
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        return 0.0 if (n or m) else 1.0
    M, Ix, Iy = _dp_matrices(x, y, sub, gap_open, gap_ext)
    matches, length = _traceback(x, y, M, Ix, Iy, gap_open, gap_ext)
    return matches / length if length else 0.0


def nw_alignment_pairs(
    s1: str,
    s2: str,
    matrix_name: str = "BLOSUM62",
    gap_open: int = 10,
    gap_ext: int = 4,
    custom: tuple[str, np.ndarray] | None = None,
) -> list[tuple[int, int]]:
    """Optimal global alignment's aligned position pairs: each (i, j) means
    s1[i] is aligned to s2[j] (diagonal moves only; gap columns are the
    positions absent from the list).  The primitive the center-star
    consensus builds its profile from."""
    alphabet, sub = custom if custom is not None else get_substitution_matrix(matrix_name)
    index = {c: i for i, c in enumerate(alphabet)}
    x, y = _encode(s1, index), _encode(s2, index)
    if len(x) == 0 or len(y) == 0:
        return []
    M, Ix, Iy = _dp_matrices(x, y, sub, gap_open, gap_ext)
    pairs: list[tuple[int, int]] = []
    _traceback(x, y, M, Ix, Iy, gap_open, gap_ext, pairs_out=pairs)
    pairs.reverse()
    return pairs


def nw_rescore_batch(
    batch: pa.Table,
    *,
    matrix_name: str = "BLOSUM62",
    gap_open: int = 10,
    gap_ext: int = 4,
    col_a: str = "text_a",
    col_b: str = "text_b",
) -> pa.Table:
    """(a, b, text_a, text_b) -> (a, b, nw_similarity) — the candidate-pair
    exact rescorer (never all-pairs; cf. similarityNW's O(n^2) loop)."""
    sims = np.empty(batch.num_rows, dtype=np.float64)
    ca, cb = batch.column(col_a), batch.column(col_b)
    for i in range(batch.num_rows):
        sims[i] = nw_similarity(
            ca[i].as_py(), cb[i].as_py(), matrix_name, gap_open, gap_ext
        )
    return pa.table(
        {
            "a": batch.column("a"),
            "b": batch.column("b"),
            "nw_similarity": pa.array(sims, type=pa.float64()),
        }
    )


class NWRescorer:
    """Actor-pool form: substitution matrix resolved once per actor
    (the stateful-stage analog of HashFamily, src/minHash.cpp:67-89)."""

    def __init__(self, matrix_name: str = "BLOSUM62", gap_open: int = 10, gap_ext: int = 4):
        self.custom = get_substitution_matrix(matrix_name)
        self.gap_open = gap_open
        self.gap_ext = gap_ext

    def __call__(self, batch: pa.Table) -> pa.Table:
        sims = np.empty(batch.num_rows, dtype=np.float64)
        ca, cb = batch.column("text_a"), batch.column("text_b")
        for i in range(batch.num_rows):
            sims[i] = nw_similarity(
                ca[i].as_py(), cb[i].as_py(), custom=self.custom,
                gap_open=self.gap_open, gap_ext=self.gap_ext,
            )
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "nw_similarity": pa.array(sims, type=pa.float64()),
            }
        )
