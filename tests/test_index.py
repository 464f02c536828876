from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechrag.index import (
    EMB_MAGIC,
    INDEX_MAGIC,
    Index,
    _write_matrix_file,
    build,
    load,
    load_embeddings,
    recall_from_ranks,
    save,
    save_embeddings,
    search,
)

from oracles import recall_at_k


def brute_force_ranking(ids, matrix, query, k):
    """Independent oracle: full sort over exact cosine with the same
    tie-break (descending score, then ascending id). Returns (ids, scores)."""
    query = np.asarray(query, dtype=np.float64)
    query = query / np.linalg.norm(query)
    scored = []
    for pid, vec in zip(ids, matrix):
        v = np.asarray(vec, dtype=np.float64)
        v32 = (v / np.linalg.norm(v)).astype(np.float32).astype(np.float64)
        scored.append((pid, float(v32 @ query)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    top = scored[: min(k, len(scored))]
    return [pid for pid, _ in top], [score for _, score in top]


def random_rows(n, dim, seed):
    """n ascending ids and an n x dim matrix of Gaussian rows."""
    rng = np.random.default_rng(seed)
    return [f"p{i:04d}" for i in range(n)], rng.normal(size=(n, dim))


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_normalizes_rows():
    idx = build(["a"], np.array([[3.0, 4.0]]))
    assert np.allclose(idx.matrix[0], [0.6, 0.8])


def test_build_duplicate_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build(["a", "a"], np.ones((2, 2)))


def test_build_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        build(["a"], np.zeros((1, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_non_finite_vector_rejected(value):
    with pytest.raises(ValueError, match="non-finite vector"):
        build(["a", "b"], np.array([[1.0, 1.0, 1.0], [1.0, value, 0.0]]))


def test_build_dim_mismatch_rejected():
    # Rows of one matrix cannot differ in width; a matrix of any other rank is refused.
    with pytest.raises(ValueError, match=r"2-D row matrix, got shape \(3,\)"):
        build(["a"], np.ones(3))
    with pytest.raises(ValueError, match=r"2-D row matrix, got shape \(2, 3, 1\)"):
        build(["a", "b"], np.ones((2, 3, 1)))


@pytest.mark.parametrize("n_ids", [1, 3])
def test_build_id_count_mismatch_rejected(n_ids):
    with pytest.raises(ValueError, match=f"{n_ids} ids for 2 embedding rows"):
        build([f"p{i}" for i in range(n_ids)], np.ones((2, 3)))


def test_build_empty_rejected():
    with pytest.raises(ValueError, match="empty index"):
        build([], np.ones((0, 3)))


def test_build_order_independent():
    ids, matrix = random_rows(10, 8, seed=0)
    idx_fwd = build(ids, matrix)
    idx_rev = build(ids[::-1], matrix[::-1])
    assert idx_fwd.ids == idx_rev.ids
    assert np.array_equal(idx_fwd.matrix, idx_rev.matrix)
    query = np.random.default_rng(1).normal(size=8)
    assert search(idx_fwd, query, 5) == search(idx_rev, query, 5)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_self_match_ranks_first():
    ids, matrix = random_rows(20, 16, seed=2)
    idx = build(ids, matrix)
    ranked, scores = search(idx, matrix[7], 3)
    assert ranked[0] == ids[7]
    assert scores[0] == pytest.approx(1.0, abs=1e-6)


def test_search_returns_parallel_lists():
    ranked, scores = search(build(*random_rows(6, 4, seed=3)), np.ones(4), 4)
    assert isinstance(ranked, list) and isinstance(scores, list)
    assert len(ranked) == len(scores) == 4
    assert all(type(pid) is str for pid in ranked)
    assert all(type(score) is float for score in scores)
    assert scores == sorted(scores, reverse=True)


def test_k_larger_than_n_returns_all():
    idx = build(*random_rows(4, 8, seed=3))
    ranked, scores = search(idx, np.ones(8), 100)
    assert len(ranked) == len(scores) == 4


def test_zero_query_rejected():
    idx = build(*random_rows(3, 4, seed=4))
    with pytest.raises(ValueError, match="zero query"):
        search(idx, np.zeros(4), 2)


def test_bad_k_rejected():
    idx = build(*random_rows(3, 4, seed=4))
    with pytest.raises(ValueError, match="k"):
        search(idx, np.ones(4), 0)


def test_tie_break_ascending_id():
    vec = np.array([1.0, 1.0])
    idx = build(["zz", "aa", "mm"], np.tile(vec, (3, 1)))
    ranked, scores = search(idx, vec, 3)
    assert ranked == ["aa", "mm", "zz"]
    assert scores[0] == scores[1] == scores[2]


def test_thousand_vectors_match_brute_force():
    ids, matrix = random_rows(1000, 32, seed=5)
    idx = build(ids, matrix)
    rng = np.random.default_rng(6)
    for k in (5, 10, 100):
        query = rng.normal(size=32)
        got_ids, got_scores = search(idx, query, k)
        want_ids, want_scores = brute_force_ranking(ids, matrix, query, k)
        assert got_ids == want_ids
        assert got_scores == pytest.approx(want_scores, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_search_equals_brute_force_property(n, k, seed):
    ids, matrix = random_rows(n, 8, seed=seed)
    # Shuffled input: build sorts rows by id whatever order they come in.
    perm = np.random.default_rng(seed + 2).permutation(n)
    idx = build([ids[i] for i in perm], matrix[perm])
    query = np.random.default_rng(seed + 1).normal(size=8)
    got_ids, _ = search(idx, query, k)
    want_ids, _ = brute_force_ranking(ids, matrix, query, k)
    assert got_ids == want_ids


def oracle_ranking(index: Index, query, k):
    """Brute force over the index as stored: float64 scores, a full sort
    by (-score, id), the first k kept. Returns (ids, scores)."""
    query = np.asarray(query, dtype=np.float64)
    scores = index.matrix.astype(np.float64) @ (query / np.linalg.norm(query))
    order = sorted(range(len(index.ids)), key=lambda i: (-scores[i], index.ids[i]))[:k]
    return [index.ids[i] for i in order], [float(scores[i]) for i in order]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=45),
    copies=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n=1, k=1, copies=0, seed=0)
@example(n=1, k=5, copies=1, seed=1)
@example(n=6, k=6, copies=3, seed=2)
@example(n=7, k=30, copies=4, seed=3)
@example(n=12, k=4, copies=8, seed=4)
def test_fast_topk_equals_oracle_with_boundary_ties(n, k, copies, seed):
    rng = np.random.default_rng(seed)
    matrix = build(*random_rows(n, 6, seed)).matrix.copy()
    query = rng.normal(size=6)
    # Copy the row ranked k-th over other rows, so exact ties straddle the
    # boundary between the rows kept and the rows dropped.
    kth_row = np.argsort(-(matrix @ query), kind="stable")[min(k, n) - 1]
    matrix[rng.choice(n, size=min(copies, n), replace=False)] = matrix[kth_row]
    # Shuffle the rows over ascending ids, so the tied rows land at any ids.
    index = Index(ids=tuple(f"p{i:03d}" for i in range(n)), matrix=matrix[rng.permutation(n)])
    assert search(index, query, k) == oracle_ranking(index, query, k)


def test_identical_rows_rank_by_id_across_the_boundary():
    vec = np.array([0.6, 0.8], dtype=np.float32)
    index = build(["m", "c", "x", "a", "q"], np.tile(vec, (5, 1)))
    assert search(index, vec, 2)[0] == ["a", "c"]
    assert search(index, vec, 9)[0] == ["a", "c", "m", "q", "x"]


@pytest.mark.parametrize(
    "ids, message",
    [(("b", "a"), "index ids not ascending: 'a' after 'b'"),
     (("a", "b", "b"), "duplicate passage id 'b' in index"),
     # Ids compare as strings, as build sorts them: "p10" < "p9".
     (("p9", "p10"), "index ids not ascending: 'p10' after 'p9'")],
)
def test_index_rejects_unsorted_and_duplicate_ids(ids, message):
    with pytest.raises(ValueError, match=message):
        Index(ids=ids, matrix=np.eye(len(ids), 3))


def test_index_holds_float64_rows():
    index = Index(ids=("a", "b"), matrix=np.eye(2, dtype=np.float32))
    assert index.matrix.dtype == np.float64
    assert build(*random_rows(4, 3, seed=14)).matrix.dtype == np.float64


@pytest.mark.parametrize("ids, message", [(("b", "a"), "not ascending"), (("a", "a"), "duplicate")])
def test_load_rejects_unsorted_or_duplicate_ids_naming_the_path(tmp_path, ids, message):
    path = tmp_path / "bad.sidx"
    _write_matrix_file(path, INDEX_MAGIC, ids, np.eye(2, dtype=np.float32))
    with pytest.raises(ValueError, match=message) as info:
        load(path)
    assert str(info.value).endswith(f": {path}")


def test_reloaded_index_ranks_and_scores_bit_equal(tmp_path):
    ids, matrix = random_rows(200, 16, seed=13)
    ids += ["p9000", "p9001"]
    matrix = np.vstack([matrix, matrix[[5, 5]]])  # exact ties
    built = build(ids, matrix)
    save(built, tmp_path / "test.sidx")
    loaded = load(tmp_path / "test.sidx")
    assert loaded.ids == built.ids and np.array_equal(loaded.matrix, built.matrix)
    rng = np.random.default_rng(14)
    for query in [matrix[5], *rng.normal(size=(5, 16))]:
        for k in (1, 5, 202):
            # Bit-equal scores, not approximately equal: both score the same float64 rows.
            assert search(loaded, query, k) == search(built, query, k)


def test_scaling_inputs_leaves_rankings_and_scores():
    ids, matrix = random_rows(50, 16, seed=7)
    scale = np.where(np.arange(50) % 3, 13.0, 0.01)[:, None]
    idx_a, idx_b = build(ids, matrix), build(ids, matrix * scale)
    query = np.random.default_rng(8).normal(size=16)
    (ids_a, scores_a), (ids_b, scores_b) = search(idx_a, query, 10), search(idx_b, query, 10)
    assert ids_a == ids_b
    assert scores_a == pytest.approx(scores_b, abs=1e-6)


# ---------------------------------------------------------------------------
# recall@k
# ---------------------------------------------------------------------------


def test_recall_all_rank_one():
    results = {f"q{i}": [f"p{i}", "x", "y"] for i in range(4)}
    qrels = {f"q{i}": f"p{i}" for i in range(4)}
    for k in (5, 10, 100):
        assert recall_at_k(results, qrels, k) == 1.0


def test_recall_rank_seven_threshold():
    ids = [f"p{i}" for i in range(20)]
    results = {"q": ids}
    qrels = {"q": "p6"}  # 1-based rank 7
    assert recall_at_k(results, qrels, 5) == 0.0
    assert recall_at_k(results, qrels, 10) == 1.0
    assert recall_at_k(results, qrels, 100) == 1.0


def test_recall_mixed_ranks():
    # Relevant ranks 1, 6, 11, 200 -> 0.25 @5, 0.5 @10, 0.75 @100.
    ids = [f"p{i:04d}" for i in range(250)]
    results = {}
    qrels = {}
    for qi, rank in enumerate((1, 6, 11, 200)):
        results[f"q{qi}"] = ids
        qrels[f"q{qi}"] = ids[rank - 1]
    assert recall_at_k(results, qrels, 5) == 0.25
    assert recall_at_k(results, qrels, 10) == 0.5
    assert recall_at_k(results, qrels, 100) == 0.75


def test_recall_missing_query_rejected():
    results = {"q": ["a"]}
    with pytest.raises(KeyError, match="missing"):
        recall_at_k(results, {}, 5)


def test_recall_from_ranks_reproduces_the_specified_examples():
    assert all(recall_from_ranks([1, 1, 1, 1], k) == 1.0 for k in (5, 10, 100))
    assert [recall_from_ranks([7], k) for k in (5, 10, 100)] == [0.0, 1.0, 1.0]
    assert [recall_from_ranks([1, 6, 11, 200], k) for k in (5, 10, 100)] == [0.25, 0.5, 0.75]
    assert recall_from_ranks([None, 3], 100) == 0.5
    with pytest.raises(ValueError, match="no query results"):
        recall_from_ranks([], 5)


@settings(max_examples=60, deadline=None)
@given(
    queries=st.lists(
        st.tuples(
            st.permutations([f"p{i}" for i in range(12)]).flatmap(
                lambda ids: st.integers(min_value=1, max_value=12).map(lambda n: ids[:n])
            ),
            st.sampled_from([f"p{i}" for i in range(15)]),
        ),
        min_size=1,
        max_size=8,
    ),
    k=st.integers(min_value=1, max_value=15),
)
def test_recall_from_ranks_equals_recall_at_k(queries, k):
    results = {f"q{i}": list(ids) for i, (ids, _) in enumerate(queries)}
    qrels = {f"q{i}": relevant for i, (_, relevant) in enumerate(queries)}
    ranks = [ids.index(qrels[key]) + 1 if qrels[key] in ids else None
             for key, ids in results.items()]
    assert recall_from_ranks(ranks, k) == recall_at_k(results, qrels, k)


@settings(max_examples=15, deadline=None)
@given(rank=st.integers(min_value=1, max_value=40))
def test_recall_monotone_in_k(rank):
    ids = [f"p{i}" for i in range(40)]
    results = {"q": ids}
    qrels = {"q": ids[rank - 1]}
    values = [recall_at_k(results, qrels, k) for k in (1, 5, 10, 20, 40)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    idx = build(*random_rows(12, 8, seed=9))
    path = tmp_path / "test.sidx"
    save(idx, path)
    loaded = load(path)
    assert loaded.ids == idx.ids
    assert np.array_equal(loaded.matrix, idx.matrix)


def test_save_byte_deterministic(tmp_path):
    idx = build(*random_rows(12, 8, seed=9))
    save(idx, tmp_path / "a.sidx")
    save(idx, tmp_path / "b.sidx")
    assert (tmp_path / "a.sidx").read_bytes() == (tmp_path / "b.sidx").read_bytes()


def test_truncated_index_rejected(tmp_path):
    idx = build(*random_rows(6, 8, seed=10))
    path = tmp_path / "test.sidx"
    save(idx, path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ValueError, match="truncated"):
        load(path)


def test_tampered_row_norm_rejected(tmp_path):
    idx = build(*random_rows(3, 4, seed=11))
    path = tmp_path / "test.sidx"
    save(idx, path)
    data = bytearray(path.read_bytes())
    # Overwrite the first float of the first row (directly after the header
    # and id table) with a large value, breaking that row's unit norm.
    offset = 8 + 4 + 4 + 8 + sum(4 + len(pid) for pid in idx.ids)
    data[offset : offset + 4] = struct.pack("<f", 2.0)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="norm violation"):
        load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_row_rejected(tmp_path, value):
    path = tmp_path / "test.sidx"
    _write_matrix_file(path, INDEX_MAGIC, ("a", "b"), np.array([[1.0, 0.0], [value, 0.0]]))
    with pytest.raises(ValueError, match="norm violation in row 1"):
        load(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "test.sidx"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load(path)


def test_raw_embeddings_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    ids = [f"p{i}" for i in range(5)]
    matrix = rng.normal(size=(5, 6)).astype(np.float32)
    path = tmp_path / "emb.semb"
    save_embeddings(path, ids, matrix)
    got_ids, got = load_embeddings(path)
    assert list(got_ids) == sorted(ids)
    order = sorted(range(5), key=lambda i: ids[i])
    assert np.allclose(got, matrix[order], atol=1e-7)
    assert INDEX_MAGIC != EMB_MAGIC
