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


def brute_force_ranking(pairs, query, k):
    """Independent oracle: full sort over exact cosine with the same
    tie-break (descending score, then ascending id)."""
    query = np.asarray(query, dtype=np.float64)
    query = query / np.linalg.norm(query)
    scored = []
    for pid, vec in pairs:
        v = np.asarray(vec, dtype=np.float64)
        v32 = (v / np.linalg.norm(v)).astype(np.float32).astype(np.float64)
        scored.append((pid, float(v32 @ query)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[: min(k, len(scored))]


def random_pairs(n, dim, seed):
    rng = np.random.default_rng(seed)
    return [(f"p{i:04d}", rng.normal(size=dim)) for i in range(n)]


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_normalizes_rows():
    idx = build([("a", np.array([3.0, 4.0]))])
    assert np.allclose(idx.matrix[0], [0.6, 0.8])


def test_build_duplicate_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build([("a", np.ones(2)), ("a", np.ones(2))])


def test_build_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        build([("a", np.zeros(3))])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_non_finite_vector_rejected(value):
    with pytest.raises(ValueError, match="non-finite vector"):
        build([("a", np.ones(3)), ("b", np.array([1.0, value, 0.0]))])


def test_build_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        build([("a", np.ones(3)), ("b", np.ones(4))])


def test_build_order_independent():
    pairs = random_pairs(10, 8, seed=0)
    idx_fwd = build(pairs)
    idx_rev = build(list(reversed(pairs)))
    assert idx_fwd.ids == idx_rev.ids
    assert np.array_equal(idx_fwd.matrix, idx_rev.matrix)
    query = np.random.default_rng(1).normal(size=8)
    assert search(idx_fwd, query, 5).ranking == search(idx_rev, query, 5).ranking


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_self_match_ranks_first():
    pairs = random_pairs(20, 16, seed=2)
    idx = build(pairs)
    pid, vec = pairs[7]
    result = search(idx, vec, 3)
    assert result.ranking[0][0] == pid
    assert result.ranking[0][1] == pytest.approx(1.0, abs=1e-6)


def test_k_larger_than_n_returns_all():
    idx = build(random_pairs(4, 8, seed=3))
    assert len(search(idx, np.ones(8), 100).ranking) == 4


def test_zero_query_rejected():
    idx = build(random_pairs(3, 4, seed=4))
    with pytest.raises(ValueError, match="zero query"):
        search(idx, np.zeros(4), 2)


def test_bad_k_rejected():
    idx = build(random_pairs(3, 4, seed=4))
    with pytest.raises(ValueError, match="k"):
        search(idx, np.ones(4), 0)


def test_tie_break_ascending_id():
    vec = np.array([1.0, 1.0])
    idx = build([("zz", vec), ("aa", vec), ("mm", vec)])
    result = search(idx, vec, 3)
    assert result.ids == ["aa", "mm", "zz"]


def test_thousand_vectors_match_brute_force():
    pairs = random_pairs(1000, 32, seed=5)
    idx = build(pairs)
    rng = np.random.default_rng(6)
    for k in (5, 10, 100):
        query = rng.normal(size=32)
        got = search(idx, query, k)
        expected = brute_force_ranking(pairs, query, k)
        assert got.ids == [pid for pid, _ in expected]
        for (_, score_got), (_, score_exp) in zip(got.ranking, expected):
            assert score_got == pytest.approx(score_exp, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_search_equals_brute_force_property(n, k, seed):
    pairs = random_pairs(n, 8, seed=seed)
    idx = build(pairs)
    query = np.random.default_rng(seed + 1).normal(size=8)
    got = search(idx, query, k)
    expected = brute_force_ranking(pairs, query, k)
    assert got.ids == [pid for pid, _ in expected]


def oracle_ranking(index: Index, query, k):
    """Brute force over the index as stored: float64 scores, a full sort
    by (-score, id), the first k kept."""
    query = np.asarray(query, dtype=np.float64)
    scores = index.matrix.astype(np.float64) @ (query / np.linalg.norm(query))
    order = sorted(range(len(index.ids)), key=lambda i: (-scores[i], index.ids[i]))
    return tuple((index.ids[i], float(scores[i])) for i in order[:k])


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
    matrix = build(random_pairs(n, 6, seed)).matrix.copy()
    query = rng.normal(size=6)
    # Copy the row ranked k-th over other rows, so exact ties straddle the
    # boundary between the rows kept and the rows dropped.
    kth_row = np.argsort(-(matrix @ query), kind="stable")[min(k, n) - 1]
    matrix[rng.choice(n, size=min(copies, n), replace=False)] = matrix[kth_row]
    # Shuffle the rows over ascending ids, so the tied rows land at any ids.
    index = Index(ids=tuple(f"p{i:03d}" for i in range(n)), matrix=matrix[rng.permutation(n)])
    assert search(index, query, k).ranking == oracle_ranking(index, query, k)


def test_identical_rows_rank_by_id_across_the_boundary():
    vec = np.array([0.6, 0.8], dtype=np.float32)
    index = build([(pid, vec) for pid in ("m", "c", "x", "a", "q")])
    assert search(index, vec, 2).ids == ["a", "c"]
    assert search(index, vec, 9).ids == ["a", "c", "m", "q", "x"]


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
    assert build(random_pairs(4, 3, seed=14)).matrix.dtype == np.float64


@pytest.mark.parametrize("ids, message", [(("b", "a"), "not ascending"), (("a", "a"), "duplicate")])
def test_load_rejects_unsorted_or_duplicate_ids_naming_the_path(tmp_path, ids, message):
    path = tmp_path / "bad.sidx"
    _write_matrix_file(path, INDEX_MAGIC, ids, np.eye(2, dtype=np.float32))
    with pytest.raises(ValueError, match=message) as info:
        load(path)
    assert str(info.value).endswith(f": {path}")


def test_reloaded_index_ranks_and_scores_bit_equal(tmp_path):
    pairs = random_pairs(200, 16, seed=13)
    pairs += [("p9000", pairs[5][1]), ("p9001", pairs[5][1])]  # exact ties
    built = build(pairs)
    save(built, tmp_path / "test.sidx")
    loaded = load(tmp_path / "test.sidx")
    assert loaded.ids == built.ids and np.array_equal(loaded.matrix, built.matrix)
    rng = np.random.default_rng(14)
    for query in [pairs[5][1], *rng.normal(size=(5, 16))]:
        for k in (1, 5, 202):
            got, want = search(loaded, query, k), search(built, query, k)
            assert got.ids == want.ids
            # Bit-equal, not approximately equal: both score the same float64 rows.
            assert [s for _, s in got.ranking] == [s for _, s in want.ranking]


def test_scaling_inputs_leaves_rankings_and_scores():
    pairs = random_pairs(50, 16, seed=7)
    scaled = [(pid, vec * (13.0 if i % 3 else 0.01)) for i, (pid, vec) in enumerate(pairs)]
    idx_a, idx_b = build(pairs), build(scaled)
    query = np.random.default_rng(8).normal(size=16)
    ra, rb = search(idx_a, query, 10), search(idx_b, query, 10)
    assert ra.ids == rb.ids
    for (_, sa), (_, sb) in zip(ra.ranking, rb.ranking):
        assert sa == pytest.approx(sb, abs=1e-6)


# ---------------------------------------------------------------------------
# recall@k
# ---------------------------------------------------------------------------


def ranking_of(ids):
    from speechrag.index import SearchResult

    return SearchResult(ranking=tuple((pid, 1.0 - 0.001 * i) for i, pid in enumerate(ids)))


def test_recall_all_rank_one():
    results = {f"q{i}": ranking_of([f"p{i}", "x", "y"]) for i in range(4)}
    qrels = {f"q{i}": f"p{i}" for i in range(4)}
    for k in (5, 10, 100):
        assert recall_at_k(results, qrels, k) == 1.0


def test_recall_rank_seven_threshold():
    ids = [f"p{i}" for i in range(20)]
    results = {"q": ranking_of(ids)}
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
        results[f"q{qi}"] = ranking_of(ids)
        qrels[f"q{qi}"] = ids[rank - 1]
    assert recall_at_k(results, qrels, 5) == 0.25
    assert recall_at_k(results, qrels, 10) == 0.5
    assert recall_at_k(results, qrels, 100) == 0.75


def test_recall_missing_query_rejected():
    results = {"q": ranking_of(["a"])}
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
    results = {f"q{i}": ranking_of(ids) for i, (ids, _) in enumerate(queries)}
    qrels = {f"q{i}": relevant for i, (_, relevant) in enumerate(queries)}
    ranks = [results[key].rank_of(qrels[key]) for key in results]
    assert recall_from_ranks(ranks, k) == recall_at_k(results, qrels, k)


@settings(max_examples=15, deadline=None)
@given(rank=st.integers(min_value=1, max_value=40))
def test_recall_monotone_in_k(rank):
    ids = [f"p{i}" for i in range(40)]
    results = {"q": ranking_of(ids)}
    qrels = {"q": ids[rank - 1]}
    values = [recall_at_k(results, qrels, k) for k in (1, 5, 10, 20, 40)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    idx = build(random_pairs(12, 8, seed=9))
    path = tmp_path / "test.sidx"
    save(idx, path)
    loaded = load(path)
    assert loaded.ids == idx.ids
    assert np.array_equal(loaded.matrix, idx.matrix)


def test_save_byte_deterministic(tmp_path):
    idx = build(random_pairs(12, 8, seed=9))
    save(idx, tmp_path / "a.sidx")
    save(idx, tmp_path / "b.sidx")
    assert (tmp_path / "a.sidx").read_bytes() == (tmp_path / "b.sidx").read_bytes()


def test_truncated_index_rejected(tmp_path):
    idx = build(random_pairs(6, 8, seed=10))
    path = tmp_path / "test.sidx"
    save(idx, path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ValueError, match="truncated"):
        load(path)


def test_tampered_row_norm_rejected(tmp_path):
    idx = build(random_pairs(3, 4, seed=11))
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
