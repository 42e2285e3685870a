"""Tests for the synthetic matrix generators, graph stand-ins and collection."""

import numpy as np
import pytest

from repro.datasets.collection import MatrixCase, suitesparse_like_collection
from repro.datasets.generators import (
    _dedupe_edges,
    banded_matrix,
    block_community_matrix,
    erdos_renyi_matrix,
    power_law_matrix,
    random_rectangular_matrix,
)
from repro.datasets.graphs import TABLE4_GRAPHS, graph_table, list_graphs, make_graph
from repro.formats.csr import CSRMatrix


def test_erdos_renyi_targets_avg_row_length():
    m = erdos_renyi_matrix(2000, avg_row_length=10, seed=0)
    assert m.shape == (2000, 2000)
    assert 6 <= m.avg_row_length <= 10.5  # deduplication loses a few


def test_erdos_renyi_rectangular():
    m = erdos_renyi_matrix(500, 300, avg_row_length=5, seed=1)
    assert m.shape == (500, 300)
    assert m.indices.max() < 300


def test_power_law_matrix_is_skewed():
    m = power_law_matrix(3000, avg_row_length=16, seed=2)
    lengths = np.diff(m.indptr)
    assert lengths.max() > 4 * lengths.mean()
    assert m.nnz > 0


def test_banded_matrix_stays_near_diagonal():
    m = banded_matrix(400, bandwidth=3, seed=3)
    rows = np.repeat(np.arange(400), np.diff(m.indptr).astype(int))
    assert np.abs(rows - m.indices).max() <= 3


def test_block_community_matrix_homophily():
    m = block_community_matrix(1000, n_communities=4, avg_row_length=12, p_in=0.95, seed=4)
    assert m.nnz > 1000
    assert m.shape == (1000, 1000)


def test_block_community_validation():
    with pytest.raises(ValueError):
        block_community_matrix(100, p_in=1.5)


def test_random_rectangular_matrix_nnz_budget():
    m = random_rectangular_matrix(1000, 800, nnz=5000, seed=5)
    assert 0.5 * 5000 <= m.nnz <= 5000
    assert m.shape == (1000, 800)
    with pytest.raises(ValueError):
        random_rectangular_matrix(10, 10, 5, skew=2.0)


def test_random_rectangular_skew_increases_variance():
    uniform = random_rectangular_matrix(2000, 2000, nnz=20_000, skew=0.0, seed=6)
    skewed = random_rectangular_matrix(2000, 2000, nnz=20_000, skew=1.0, seed=6)
    assert np.diff(skewed.indptr).std() > np.diff(uniform.indptr).std()


def test_generators_are_deterministic():
    a = power_law_matrix(500, avg_row_length=8, seed=42)
    b = power_law_matrix(500, avg_row_length=8, seed=42)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    # Deduplication matches the np.unique construction on repeated keys.
    rng = np.random.default_rng(3)
    rows, cols, shape = rng.integers(0, 40, 3000), rng.integers(0, 30, 3000), (40, 30)
    unique = np.unique(rows * shape[1] + cols)
    vals = np.random.default_rng(9).uniform(0.1, 1.0, size=unique.size).astype(np.float32)
    want = CSRMatrix.from_coo(unique // shape[1], unique % shape[1], vals, shape)
    got = _dedupe_edges(rows, cols, shape, np.random.default_rng(9))
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_generator_input_validation():
    with pytest.raises(ValueError):
        erdos_renyi_matrix(0)
    with pytest.raises(ValueError):
        banded_matrix(10, bandwidth=0)


# ---------------------------------------------------------------------------
# Table 4 graph stand-ins
# ---------------------------------------------------------------------------
def test_table4_contains_paper_datasets():
    names = {spec.name for spec in TABLE4_GRAPHS.values()}
    for expected in ("GitHub", "Reddit", "OGBProducts", "AmazonProducts", "IGB-medium", "Yelp"):
        assert expected in names
    assert len(list_graphs()) >= 15


def test_make_graph_is_deterministic():
    a = make_graph("github")
    b = make_graph("github")
    np.testing.assert_array_equal(a.indices, b.indices)


def test_make_graph_scales_node_count():
    small = make_graph("github", scale=0.05)
    large = make_graph("github", scale=0.2)
    assert large.n_rows > small.n_rows


def test_make_graph_unknown_raises():
    with pytest.raises(KeyError):
        make_graph("not-a-graph")


def test_standins_preserve_avg_row_length_ordering():
    """Reddit must remain by far the densest graph, Ell/Yeast among the sparsest."""
    reddit = make_graph("reddit")
    ell = make_graph("ell")
    assert reddit.avg_row_length > 5 * ell.avg_row_length


def test_graph_table_reports_paper_and_standin_stats():
    rows = graph_table()
    assert len(rows) >= 14
    for row in rows:
        assert row["standin_vertices"] > 0
        assert row["standin_edges"] > 0
        assert row["paper_edges"] >= row["standin_edges"]


# ---------------------------------------------------------------------------
# SuiteSparse-like collection
# ---------------------------------------------------------------------------
def test_collection_size_and_grouping():
    cases = suitesparse_like_collection(num_matrices=12, seed=0, include_graphs=False)
    assert len(cases) == 12
    assert all(isinstance(c, MatrixCase) for c in cases)
    assert {c.size_group for c in cases} <= {"small", "large"}
    families = {c.family for c in cases}
    assert len(families) >= 3


def test_collection_includes_graphs_by_default():
    cases = suitesparse_like_collection(num_matrices=4, seed=0, include_graphs=True)
    graph_cases = [c for c in cases if c.family == "graph"]
    assert len(graph_cases) >= 14


def test_collection_is_deterministic():
    a = suitesparse_like_collection(num_matrices=6, seed=3, include_graphs=False)
    b = suitesparse_like_collection(num_matrices=6, seed=3, include_graphs=False)
    assert [c.name for c in a] == [c.name for c in b]
    assert [c.nnz for c in a] == [c.nnz for c in b]


def test_collection_rejects_negative():
    with pytest.raises(ValueError):
        suitesparse_like_collection(num_matrices=-1)


def test_collection_matrices_are_sparse_and_nonempty():
    for case in suitesparse_like_collection(num_matrices=8, seed=1, include_graphs=False):
        assert case.matrix.nnz > 0
        assert case.matrix.density < 0.5
