"""Synthetic sparse-matrix generators.

All generators are deterministic given a seed and return
:class:`~repro.formats.csr.CSRMatrix` instances.  They are written with
vectorised NumPy (edge lists, not per-edge Python loops) so that matrices
with a few million nonzeros are generated in well under a second.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.utils.random import default_rng
from repro.utils.validation import check_positive_int


def _dedupe_edges(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], rng: np.random.Generator) -> CSRMatrix:
    """Build a CSR matrix from possibly-duplicated COO edges with random values."""
    if rows.size == 0:
        return CSRMatrix(
            indptr=np.zeros(shape[0] + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int32),
            data=np.zeros(0, dtype=np.float32),
            shape=shape,
        )
    key = rows.astype(np.int64) * shape[1] + cols.astype(np.int64)
    # Sorted distinct keys by a sort and a neighbour mask: NumPy's own
    # ``unique`` takes a hash path on NumPy 2.x that is far slower here.
    key.sort()
    first = np.empty(key.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    unique = key[first]
    rows_u = (unique // shape[1]).astype(np.int64)
    cols_u = (unique % shape[1]).astype(np.int64)
    vals = rng.uniform(0.1, 1.0, size=unique.shape[0]).astype(np.float32)
    return CSRMatrix.from_coo(rows_u, cols_u, vals, shape)


def erdos_renyi_matrix(
    n_rows: int,
    n_cols: int | None = None,
    avg_row_length: float = 8.0,
    seed: int | np.random.Generator | None = None,
) -> CSRMatrix:
    """Uniformly random sparse matrix with a target average row length.

    Models the "evenly distributed" regime where load balance is easy; most
    SuiteSparse PDE matrices behave this way.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    n_cols = n_rows if n_cols is None else check_positive_int(n_cols, "n_cols")
    rng = default_rng(seed)
    nnz_target = int(round(avg_row_length * n_rows))
    nnz_target = max(1, min(nnz_target, n_rows * n_cols))
    rows = rng.integers(0, n_rows, size=nnz_target, dtype=np.int64)
    cols = rng.integers(0, n_cols, size=nnz_target, dtype=np.int64)
    return _dedupe_edges(rows, cols, (n_rows, n_cols), rng)


def power_law_matrix(
    n_rows: int,
    n_cols: int | None = None,
    avg_row_length: float = 16.0,
    exponent: float = 2.1,
    seed: int | np.random.Generator | None = None,
) -> CSRMatrix:
    """Power-law (scale-free) sparse matrix.

    Row lengths follow a truncated Zipf-like distribution and column targets
    are drawn preferentially, mimicking social / citation graphs (Reddit,
    Amazon, OGBProducts) whose skew drives the load-imbalance behaviour the
    baselines differ on.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    n_cols = n_rows if n_cols is None else check_positive_int(n_cols, "n_cols")
    rng = default_rng(seed)

    # Draw per-row degrees from a Pareto distribution scaled to the target mean.
    raw = rng.pareto(exponent - 1.0, size=n_rows) + 1.0
    degrees = raw / raw.mean() * avg_row_length
    degrees = np.clip(np.round(degrees).astype(np.int64), 0, n_cols)

    # Preferential column attachment: column popularity is itself power-law.
    col_weight = (rng.pareto(exponent - 1.0, size=n_cols) + 1.0)
    col_prob = col_weight / col_weight.sum()

    total = int(degrees.sum())
    if total == 0:
        degrees[rng.integers(0, n_rows)] = 1
        total = 1
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), degrees)
    cols = rng.choice(n_cols, size=total, p=col_prob)
    return _dedupe_edges(rows, cols, (n_rows, n_cols), rng)


def banded_matrix(
    n_rows: int,
    bandwidth: int = 5,
    avg_row_length: float | None = None,
    seed: int | np.random.Generator | None = None,
) -> CSRMatrix:
    """Banded / FEM-like matrix: nonzeros clustered near the diagonal.

    This regime produces long runs of nonzero vectors sharing columns, the
    favourable case for TC-block density.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    bandwidth = check_positive_int(bandwidth, "bandwidth")
    rng = default_rng(seed)
    per_row = int(round(avg_row_length)) if avg_row_length else min(2 * bandwidth + 1, n_rows)
    per_row = max(1, min(per_row, 2 * bandwidth + 1, n_rows))
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=(n_rows, per_row))
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), per_row)
    cols = (rows.reshape(n_rows, per_row) + offsets).reshape(-1)
    cols = np.clip(cols, 0, n_rows - 1)
    return _dedupe_edges(rows, cols, (n_rows, n_rows), rng)


def block_community_matrix(
    n_rows: int,
    n_communities: int = 16,
    avg_row_length: float = 20.0,
    p_in: float = 0.9,
    seed: int | np.random.Generator | None = None,
) -> CSRMatrix:
    """Planted-partition (stochastic block) adjacency matrix.

    Nodes are split into communities; a fraction ``p_in`` of each node's
    edges stay inside its community.  Produces the clustered sparsity of
    citation / product co-purchase graphs and is also used as the graph
    structure for the node-classification accuracy experiments.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    n_communities = check_positive_int(n_communities, "n_communities")
    if not 0.0 <= p_in <= 1.0:
        raise ValueError("p_in must be in [0, 1]")
    rng = default_rng(seed)
    community = rng.integers(0, n_communities, size=n_rows)
    degrees = np.maximum(1, rng.poisson(avg_row_length, size=n_rows)).astype(np.int64)
    total = int(degrees.sum())
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), degrees)
    # For each edge decide intra- vs inter-community, then draw a target.
    intra = rng.random(total) < p_in
    # Node ids sorted by community let us draw intra-community targets quickly.
    order = np.argsort(community, kind="stable")
    sorted_comm = community[order]
    comm_start = np.searchsorted(sorted_comm, np.arange(n_communities), side="left")
    comm_end = np.searchsorted(sorted_comm, np.arange(n_communities), side="right")
    edge_comm = community[rows]
    lo = comm_start[edge_comm]
    hi = np.maximum(comm_end[edge_comm], lo + 1)
    intra_targets = order[(lo + (rng.random(total) * (hi - lo)).astype(np.int64)).clip(0, n_rows - 1)]
    inter_targets = rng.integers(0, n_rows, size=total)
    cols = np.where(intra, intra_targets, inter_targets)
    return _dedupe_edges(rows, cols, (n_rows, n_rows), rng)


def random_rectangular_matrix(
    n_rows: int,
    n_cols: int,
    nnz: int,
    skew: float = 0.0,
    seed: int | np.random.Generator | None = None,
) -> CSRMatrix:
    """Rectangular sparse matrix with an exact-ish nonzero budget.

    ``skew`` interpolates between uniform rows (0) and strongly power-law
    rows (1); used by the SuiteSparse-like collection sampler.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    n_cols = check_positive_int(n_cols, "n_cols")
    nnz = check_positive_int(nnz, "nnz")
    if not 0.0 <= skew <= 1.0:
        raise ValueError("skew must be in [0, 1]")
    rng = default_rng(seed)
    if skew == 0.0:
        rows = rng.integers(0, n_rows, size=nnz, dtype=np.int64)
    else:
        weights = (rng.pareto(1.0 + 2.0 * (1.0 - skew) + 0.2, size=n_rows) + 1.0)
        prob = weights / weights.sum()
        rows = rng.choice(n_rows, size=nnz, p=prob)
    cols = rng.integers(0, n_cols, size=nnz, dtype=np.int64)
    return _dedupe_edges(rows, cols, (n_rows, n_cols), rng)
