"""Communication-delay modeling: delay matrices, FIR constraint spaces and
the quadratic-invariance test.

A controller network is a strongly connected directed graph.  Each node
carries a computational delay of at least one step (controllers are strictly
proper) and each edge a nonnegative communication delay.  The induced delay
matrix ``d`` has entries ``d[i, j]`` = computational delay at node i plus the
cheapest aggregate communication delay from node j to node i, i.e. the age of
the freshest copy of measurement j that controller i can act on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NotStronglyConnected
from .statespace import StateSpaceModel, impulse_response

# Frobenius norm below which a Markov-parameter block counts as zero.
TOL_ZERO = 1e-9


@dataclass(frozen=True)
class DelayGraph:
    """Controller communication topology.

    Nodes are indexed 0..node_count-1.  ``comp_delays[i]`` is the
    computational delay at node i (>= 1 so controllers stay strictly
    proper); ``edges`` holds directed links ``(from_node, to_node, delay)``
    with integer delay >= 0.
    """

    node_count: int
    comp_delays: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise DimensionMismatch("graph needs at least one node")
        comp = tuple(int(c) for c in self.comp_delays)
        if len(comp) != self.node_count:
            raise DimensionMismatch("one computational delay per node required")
        if any(c < 1 for c in comp):
            raise ValueError("computational delays must be >= 1")
        edges = []
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), int(w)
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise DimensionMismatch(f"edge ({u},{v}) out of range")
            if w < 0:
                raise ValueError("edge delays must be >= 0")
            edges.append((u, v, w))
        object.__setattr__(self, "comp_delays", comp)
        object.__setattr__(self, "edges", tuple(edges))


@dataclass(frozen=True)
class DelayMatrix:
    """Integer matrix of information delays, d[i, j] >= 1."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=int)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch("delay matrix must be square")
        if (d < 1).any():
            raise ValueError("delays must be positive integers")
        object.__setattr__(self, "d", d)

    @property
    def node_count(self) -> int:
        return self.d.shape[0]

    def max_delay(self) -> int:
        return int(self.d.max())


@dataclass(frozen=True)
class ConstraintSpace:
    """Per-lag block sparsity patterns Y_1 ... Y_N plus an unconstrained tail.

    ``patterns[k-1][i, j]`` is True when controller-output block i may depend
    on measurement block j at lag k.  Beyond lag ``n_horizon`` everything is
    allowed.  ``block_rows`` are the controller output block sizes and
    ``block_cols`` the measurement block sizes.
    """

    n_horizon: int
    block_rows: Tuple[int, ...]
    block_cols: Tuple[int, ...]
    patterns: Tuple[np.ndarray, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.block_rows)
        cols = tuple(int(c) for c in self.block_cols)
        if any(r < 1 for r in rows) or any(c < 1 for c in cols):
            raise DimensionMismatch("block sizes must be positive")
        pats = tuple(np.asarray(p, dtype=bool) for p in self.patterns)
        if len(pats) != self.n_horizon:
            raise DimensionMismatch("need one pattern per lag 1..n_horizon")
        for p in pats:
            if p.shape != (len(rows), len(cols)):
                raise DimensionMismatch(
                    f"pattern shape {p.shape} != block grid {(len(rows), len(cols))}"
                )
        for earlier, later in zip(pats, pats[1:]):
            if (earlier & ~later).any():
                raise ValueError("patterns must be monotone: allowed blocks stay allowed")
        object.__setattr__(self, "block_rows", rows)
        object.__setattr__(self, "block_cols", cols)
        object.__setattr__(self, "patterns", pats)

    def entry_mask(self, lag: int) -> np.ndarray:
        """Entry-level boolean mask for the pattern at ``lag`` (1-based)."""
        if not 1 <= lag <= self.n_horizon:
            raise IndexError(f"lag {lag} outside 1..{self.n_horizon}")
        return expand_pattern(self.patterns[lag - 1], self.block_rows, self.block_cols)


def expand_pattern(pattern, block_rows, block_cols) -> np.ndarray:
    """Blow a block-level boolean pattern up to entry level."""
    pattern = np.asarray(pattern, dtype=bool)
    if pattern.shape != (len(block_rows), len(block_cols)):
        raise DimensionMismatch("pattern does not match the block grid")
    return np.repeat(np.repeat(pattern, block_rows, axis=0), block_cols, axis=1)


class QiCheck(NamedTuple):
    ok: bool
    witness: Optional[Tuple[int, int, int, int]]


def delay_matrix(g: DelayGraph) -> DelayMatrix:
    """Build the delay matrix of a communication graph.

    Shortest aggregate communication delays are computed with
    Floyd-Warshall; ``d[i, j] = comp_delays[i] + dist(j -> i)``.

    Raises
    ------
    NotStronglyConnected
        If some ordered pair of nodes has no directed path.
    """
    n = g.node_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in g.edges:
        if w < dist[u, v]:
            dist[u, v] = w
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    if np.isinf(dist).any():
        bad = np.argwhere(np.isinf(dist))[0]
        raise NotStronglyConnected(
            f"no directed path from node {bad[0]} to node {bad[1]}"
        )
    comp = np.asarray(g.comp_delays, dtype=int)
    return DelayMatrix(comp[:, None] + dist.T.astype(int))


def constraint_space(
    d: DelayMatrix, block_rows, block_cols, n_horizon: Optional[int] = None
) -> ConstraintSpace:
    """FIR constraint space induced by a delay matrix.

    Block (i, j) is allowed at lag k iff ``d[i, j] <= k``.  The horizon
    defaults to ``N = max(d) - 1``, the last lag with a forbidden block; a
    longer horizon only appends unconstrained lags.  ``N = 0`` yields the
    vacuous constraint (every block free from lag 1 on), i.e. the
    centralized one-step-delayed case.
    """
    n = d.node_count
    if len(block_rows) != n or len(block_cols) != n:
        raise DimensionMismatch("block lists must have one entry per node")
    if n_horizon is None:
        n_horizon = d.max_delay() - 1
    patterns = tuple(d.d <= k for k in range(1, n_horizon + 1))
    return ConstraintSpace(n_horizon, tuple(block_rows), tuple(block_cols), patterns)


def check_qi(d: DelayMatrix, p) -> QiCheck:
    """Quadratic-invariance test of a delay pattern against plant delays.

    ``p[i, j]`` is the transport delay of plant block (measurement i,
    control input j).  The constraint set is quadratically invariant iff
    ``d[k, i] + p[i, j] + d[j, l] >= d[k, l]`` for every quadruple, i.e.
    information moving through the controller network is never slower than
    through the plant.  The minimum over (i, j) of the left side is two
    min-plus products, ``mid = d (x) p`` then ``reach = mid (x) d``, so QI
    holds iff ``reach >= d``.  On failure a violating quadruple
    ``(k, i, j, l)`` is returned as witness, with j and i recovered by
    ``argmin`` at the first violating (k, l).
    """
    p = np.asarray(p, dtype=int)
    n = d.node_count
    if p.shape != (n, n):
        raise DimensionMismatch(f"plant delay matrix {p.shape} != {(n, n)}")
    if (p < 0).any():
        raise ValueError("plant block delays must be >= 0")
    dd = d.d
    mid = (dd[:, :, None] + p[None, :, :]).min(axis=1)
    reach = (mid[:, :, None] + dd[None, :, :]).min(axis=1)
    bad = np.argwhere(reach < dd)
    if not len(bad):
        return QiCheck(True, None)
    k, l = bad[0]
    j = np.argmin(mid[k] + dd[:, l])
    i = np.argmin(dd[k] + p[:, j])
    return QiCheck(False, (int(k), int(i), int(j), int(l)))


def qi_witness_text(d: DelayMatrix, p, verdict: QiCheck) -> str:
    """The inequality that the witness (k, i, j, l) of a failed
    :func:`check_qi` verdict violates, with its values; every QI failure
    message quotes it."""
    k, i, j, l = verdict.witness
    p = np.asarray(p)
    return (f"witness (k={k}, i={i}, j={j}, l={l}): d[{k},{i}] + p[{i},{j}] + d[{j},{l}] "
            f"= {d.d[k, i] + p[i, j] + d.d[j, l]} < d[{k},{l}] = {d.d[k, l]}")


def block_norms(m, row_sizes, col_sizes) -> np.ndarray:
    """Frobenius norms of the blocks of a matrix or of a stack of matrices.

    The last two axes of ``m`` are cut into blocks of ``row_sizes`` rows and
    ``col_sizes`` columns; the result has shape
    ``m.shape[:-2] + (len(row_sizes), len(col_sizes))``.
    """
    sq = np.square(np.asarray(m, dtype=float))
    rows, cols = np.asarray(row_sizes, dtype=int), np.asarray(col_sizes, dtype=int)
    if min(rows.min(), cols.min()) < 1 or sq.shape[-2:] != (rows.sum(), cols.sum()):
        raise DimensionMismatch(f"blocks {row_sizes} x {col_sizes} do not tile {sq.shape[-2:]}")
    sq = np.add.reduceat(sq, np.cumsum(rows) - rows, axis=-2)
    return np.sqrt(np.add.reduceat(sq, np.cumsum(cols) - cols, axis=-1))


def plant_block_delays(
    g22: StateSpaceModel, block_rows, block_cols, horizon: int, tol_zero: float = TOL_ZERO
) -> np.ndarray:
    """Per-block transport delays of a plant, read off its Markov parameters.

    Block (i, j) pairs measurement block i (sizes ``block_cols``, the rows
    of g22) with control block j (sizes ``block_rows``, its columns).  The
    delay is the smallest lag k <= horizon at which the block of the k-th
    Markov parameter exceeds ``tol_zero`` in Frobenius norm, or
    ``horizon + 1`` when the block stays zero throughout.
    """
    nonzero = block_norms(impulse_response(g22, horizon), block_cols, block_rows) > tol_zero
    return np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), horizon + 1)
