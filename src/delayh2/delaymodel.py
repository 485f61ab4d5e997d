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

from .errors import AssumptionViolated, DimensionMismatch, NotStronglyConnected
from .statespace import StateSpaceModel, impulse_response


def whole_numbers(values, what: str, error: type = AssumptionViolated) -> np.ndarray:
    """``values`` as an int array.  A fraction, NaN, infinity, a magnitude of 2**53
    or more (floats skip integers there) or a non-number raises ``error``
    instead of being truncated: a delay rounded down loosens its constraint."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be whole numbers") from exc
    ok = (np.abs(arr) < 2.0**53) & (arr == np.round(arr))
    if not ok.all():
        raise error(f"{what} must be whole numbers below 2**53, got {arr[~ok][0]:g}")
    return arr.astype(int)


def block_sizes(values) -> Tuple[int, ...]:
    """A list of positive whole block sizes as a tuple of ints."""
    sizes = whole_numbers(values, "block sizes", DimensionMismatch)
    if sizes.ndim != 1 or (sizes < 1).any():
        raise DimensionMismatch("block sizes must be a list of positive whole numbers")
    return tuple(sizes.tolist())


@dataclass(frozen=True)
class DelayGraph:
    """Controller communication topology.

    Nodes are indexed 0..node_count-1.  ``comp_delays[i]`` is the
    computational delay at node i (>= 1 so controllers stay strictly
    proper); ``edges`` holds directed links ``(from_node, to_node, delay)``
    with integer delay >= 0.  Every entry must be a whole number.
    """

    node_count: int
    comp_delays: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        n = int(whole_numbers(self.node_count, "node count", DimensionMismatch))
        if n < 1:
            raise DimensionMismatch("graph needs at least one node")
        comp = whole_numbers(self.comp_delays, "computational delays")
        if comp.shape != (n,):
            raise DimensionMismatch("one computational delay per node required")
        if (comp < 1).any():
            raise AssumptionViolated("computational delays must be >= 1")
        edges = []
        for edge in self.edges:
            edge = whole_numbers(edge, "edge entries")
            if edge.shape != (3,):
                raise DimensionMismatch("edges must be (from, to, delay) triples")
            u, v, w = edge.tolist()
            if not (0 <= u < n and 0 <= v < n):
                raise DimensionMismatch(f"edge ({u},{v}) out of range")
            if w < 0:
                raise AssumptionViolated("edge delays must be >= 0")
            edges.append((u, v, w))
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "comp_delays", tuple(comp.tolist()))
        object.__setattr__(self, "edges", tuple(edges))


@dataclass(frozen=True)
class DelayMatrix:
    """Integer matrix of information delays, d[i, j] >= 1 (whole numbers)."""

    d: np.ndarray

    def __post_init__(self):
        d = whole_numbers(self.d, "delays")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch("delay matrix must be square")
        if (d < 1).any():
            raise AssumptionViolated("delays must be positive integers")
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
    ``block_cols`` the measurement block sizes, positive whole numbers.
    """

    n_horizon: int
    block_rows: Tuple[int, ...]
    block_cols: Tuple[int, ...]
    patterns: Tuple[np.ndarray, ...]

    def __post_init__(self):
        rows, cols = block_sizes(self.block_rows), block_sizes(self.block_cols)
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
                raise AssumptionViolated("patterns must be monotone: allowed blocks stay allowed")
        object.__setattr__(self, "n_horizon", len(pats))
        object.__setattr__(self, "block_rows", rows)
        object.__setattr__(self, "block_cols", cols)
        object.__setattr__(self, "patterns", pats)

    def entry_mask(self, lag: int) -> np.ndarray:
        """Entry-level boolean mask for the pattern at ``lag`` (1-based)."""
        if not 1 <= lag <= self.n_horizon:
            raise DimensionMismatch(f"lag {lag} outside 1..{self.n_horizon}")
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


def constraint_space(d: DelayMatrix, block_rows, block_cols) -> ConstraintSpace:
    """FIR constraint space induced by a delay matrix.

    Block (i, j) is allowed at lag k iff ``d[i, j] <= k``.  The horizon is
    ``N = max(d) - 1``, the last lag with a forbidden block; N = 0 (every
    delay 1) is the vacuous constraint, the centralized one-step-delayed
    case.
    """
    n = d.node_count
    if len(block_rows) != n or len(block_cols) != n:
        raise DimensionMismatch("block lists must have one entry per node")
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
    p = whole_numbers(p, "plant block delays")
    n = d.node_count
    if p.shape != (n, n):
        raise DimensionMismatch(f"plant delay matrix {p.shape} != {(n, n)}")
    if (p < 0).any():
        raise AssumptionViolated("plant block delays must be >= 0")
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
    ``m.shape[:-2] + (len(row_sizes), len(col_sizes))``.  The squares are
    summed by ``np.add.reduceat`` only along an axis with a block of more
    than one entry: along the other, every sum has one term, the entry
    itself, which ``reduceat`` would copy at about 17 ns each.
    """
    sq = np.square(np.asarray(m, dtype=float))
    rows, cols = np.asarray(row_sizes, dtype=int), np.asarray(col_sizes, dtype=int)
    if min(rows.min(), cols.min()) < 1 or sq.shape[-2:] != (rows.sum(), cols.sum()):
        raise DimensionMismatch(f"blocks {row_sizes} x {col_sizes} do not tile {sq.shape[-2:]}")
    for axis, sizes in ((-2, rows), (-1, cols)):
        if sizes.max() > 1:
            sq = np.add.reduceat(sq, np.cumsum(sizes) - sizes, axis=axis)
    return np.sqrt(sq)


def rounding_bounds(g, horizon: int, row_sizes, col_sizes, markov=impulse_response) -> np.ndarray:
    """How large rounding alone can make a computed block of g's Markov
    parameters G_0 ... G_horizon: gamma_k ||M_k,ij|| per lag k and block
    (i, j), with M_k = |C| |A|^(k-1) |B| (M_0 = |D|), gamma_k =
    2 (k + 1)(n + 1) eps and n the order (the bound is argued in
    :func:`plant_block_delays`).  ``row_sizes`` and ``col_sizes`` cut g's
    outputs and inputs into blocks, as in :func:`block_norms`, and
    ``markov`` computes M_k as the caller computes G_k, by
    :func:`impulse_response` or a recursion of the same products."""
    size = markov(StateSpaceModel(*(np.abs(m) for m in (g.a, g.b, g.c, g.d))), horizon)
    gamma = 2.0 * np.arange(1, horizon + 2)[:, None, None] * (g.order + 1) * np.finfo(float).eps
    return gamma * block_norms(size, row_sizes, col_sizes)


def plant_block_delays(g22: StateSpaceModel, block_rows, block_cols, horizon: int) -> np.ndarray:
    """Per-block transport delays of a plant, read off its Markov parameters.

    Block (i, j) pairs measurement block i (sizes ``block_cols``, the rows
    of g22) with control block j (sizes ``block_rows``, its columns).  The
    delay is the smallest lag k <= horizon at which the block of G_k is
    nonzero, or ``horizon + 1`` when the block stays zero throughout.

    A block counts as zero when its computed Frobenius norm is no larger
    than the rounding of its own computation could make it
    (:func:`rounding_bounds`): ||G_k,ij|| <= gamma_k ||M_k,ij||, with
    M_k = |C| |A|^(k-1) |B| (M_0 = |D|), gamma_k = 2 (k + 1)(n + 1) eps and
    n the order.  G_k = C A^(k-1) B takes k products of inner dimension n,
    so each computed entry is within (1 + gamma_n)^k - 1, about k n u
    (u = eps / 2), of its exact value relative to the same entry of M_k
    (Higham 2002, section 3.5), and so is each block in norm.  gamma_k is at
    least four times that first-order term, which covers the second-order
    terms and the rounding of M_k itself.  So the verdict does not depend
    on the plant's units (scaling B or C scales both sides), a structural
    zero gives 0 <= 0, and a block of D is zero only when it is exactly
    zero (gamma_0 < 1).  A nonzero block below its bound reads as zero;
    coupling that rounding put into the stored matrices themselves reads as
    coupling.
    """
    markov = block_norms(impulse_response(g22, horizon), block_cols, block_rows)
    nonzero = markov > rounding_bounds(g22, horizon, block_cols, block_rows)
    return np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), horizon + 1)
