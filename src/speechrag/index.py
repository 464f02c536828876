"""Passage-embedding vector store with exact cosine top-k search.

Embeddings are L2-normalized at build time and queries at search time, so
cosine similarity is a plain dot product and there is a single canonical
similarity path. Search is exact (full scan): at desk scale, approximation
error must not be confounded with the retrieval quality under study.

An index is one float64 row matrix over strictly ascending ids, so row order
is id order and a stable sort by score breaks ties by ascending id. Rows are
rounded to f32 when built, so a saved and reloaded index scores bit-identically.

On-disk format, in the container of ``files``: magic ``SRAGIDX1`` | version
u32 | H u32 | N u64 | N id strings | N x H f32 rows. A sibling format with
magic ``SRAGEMB1`` stores raw (unnormalized) embeddings written by the CLI
``embed`` step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import files

INDEX_MAGIC = b"SRAGIDX1"
EMB_MAGIC = b"SRAGEMB1"
NORM_TOL = 1e-6


@dataclass(frozen=True)
class Index:
    ids: tuple[str, ...]  # strictly ascending
    matrix: np.ndarray  # N x H float64, rows unit-norm, row i belongs to ids[i]

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=np.float64))
        for prev, pid in zip(self.ids, self.ids[1:]):
            if prev == pid:
                raise ValueError(f"duplicate passage id {pid!r} in index")
            if prev > pid:
                raise ValueError(f"index ids not ascending: {pid!r} after {prev!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if not np.all((norms > 0.0) & np.isfinite(norms)):  # NaN fails both
        raise ValueError("zero or non-finite vector cannot be indexed")
    return (matrix / norms).astype(np.float32)


def build(ids, matrix) -> Index:
    """Build an index from passage ids and their embedding rows, row i for
    ids[i]: the shape `load_embeddings` returns. Content is independent of
    input order: rows are stored sorted by id."""
    ids = [str(pid) for pid in ids]
    if not ids:
        raise ValueError("cannot build an empty index")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"embeddings must be a 2-D row matrix, got shape {matrix.shape}")
    if matrix.shape[0] != len(ids):
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} embedding rows")
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return Index(ids=tuple(ids[i] for i in order), matrix=_normalize_rows(matrix[order]))


def search(index: Index, query: np.ndarray, k: int) -> tuple[list[str], list[float]]:
    """Exact top-k by dot product with the normalized query (equals cosine).
    Returns the min(k, N) best passage ids and their scores, scores
    non-increasing; ties break by ascending passage id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise ValueError(f"query shape {query.shape} does not match index dim {index.dim}")
    norm = np.linalg.norm(query)
    if norm == 0.0:
        raise ValueError("cannot search with a zero query vector")
    scores = index.matrix @ (query / norm)
    n = scores.size
    if k < n:
        # Every row scoring at least the k-th best is a candidate, so all
        # rows tied at the boundary reach the tie-break. NaN fails `<` and
        # stays in, as a full sort would place it too.
        kth = np.partition(scores, n - k)[n - k]
        candidates = np.flatnonzero(~(scores < kth))
    else:
        candidates = np.arange(n)
    # Candidates are ascending rows, so ascending ids: a stable sort breaks
    # exact-score ties by id, and NaN sorts last.
    order = candidates[np.argsort(-scores[candidates], kind="stable")][:k]
    return [index.ids[i] for i in order], scores[order].tolist()


def recall_from_ranks(ranks: list[int | None], k: int) -> float:
    """Recall@k: the fraction of queries whose single relevant passage is
    in the top k. `ranks` holds each query's 1-based relevant rank, or None
    when the passage is outside the query's ranking."""
    if not ranks:
        raise ValueError("no query results")
    hits = sum(rank is not None and rank <= k for rank in ranks)
    return hits / len(ranks)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _write_matrix_file(path, magic: bytes, ids, matrix: np.ndarray) -> None:
    header = [files.u32(matrix.shape[1]), files.u64(matrix.shape[0])]
    files.write(path, magic, [*header, *map(files.string, ids), files.f32(matrix)])


def _read_matrix_file(path, magic: bytes) -> tuple[tuple[str, ...], np.ndarray]:
    with files.read(path, magic) as src:
        dim, count = src.u32("dim"), src.u64("count")
        return src.strings(count, "id"), src.f32((count, dim), "embedding rows")


def save(index: Index, path) -> None:
    _write_matrix_file(path, INDEX_MAGIC, index.ids, index.matrix)


def load(path) -> Index:
    """Load and verify an index: magic, version, dims, count, strictly
    ascending ids, and per-row unit norms."""
    ids, matrix = _read_matrix_file(path, INDEX_MAGIC)
    try:
        index = Index(ids=ids, matrix=matrix)
    except ValueError as exc:
        raise ValueError(f"{exc}: {path}") from None
    norms = np.sqrt(np.einsum("ij,ij->i", index.matrix, index.matrix))  # no N x H temporary
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))  # NaN fails `<=`
    if bad.size:
        raise ValueError(
            f"norm violation in row {bad[0]} (norm {norms[bad[0]]:.6f}): {path}"
        )
    return index


def save_embeddings(path, ids, matrix: np.ndarray) -> None:
    """Persist raw (unnormalized) embeddings in id-sorted order."""
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    ordered_ids = [ids[i] for i in order]
    _write_matrix_file(path, EMB_MAGIC, ordered_ids, np.asarray(matrix)[order])


def load_embeddings(path) -> tuple[tuple[str, ...], np.ndarray]:
    return _read_matrix_file(path, EMB_MAGIC)
