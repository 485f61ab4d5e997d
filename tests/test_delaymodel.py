import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from delayh2 import (
    AssumptionViolated,
    ConstraintSpace,
    DelayGraph,
    DelayMatrix,
    DimensionMismatch,
    NotStronglyConnected,
    QIViolation,
    StateSpaceModel,
    check_qi,
    constraint_space,
    delay_matrix,
    expand_pattern,
    plant_block_delays,
    synthesize,
)
from delayh2.delaymodel import block_norms
from delayh2.statespace import vec
from conftest import DENSE_A, householder, make_chain_graph, make_chain_plant, plant_with_channel


def random_connected_graph(rng, n_nodes):
    """Directed cycle (guaranteeing strong connectivity) plus extras."""
    edges = []
    for i in range(n_nodes):
        edges.append((i, (i + 1) % n_nodes, int(rng.integers(0, 4))))
    for _ in range(rng.integers(0, n_nodes + 1)):
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            edges.append((int(u), int(v), int(rng.integers(0, 4))))
    comp = tuple(int(rng.integers(1, 3)) for _ in range(n_nodes))
    return DelayGraph(n_nodes, comp, tuple(edges))


class TestDelayMatrix:
    def test_three_node_chain(self):
        d = delay_matrix(make_chain_graph())
        npt.assert_array_equal(d.d, [[1, 2, 3], [2, 1, 2], [3, 2, 1]])

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_two_nodes_with_n_step_links(self, n):
        g = DelayGraph(2, (1, 1), ((0, 1, n), (1, 0, n)))
        d = delay_matrix(g)
        npt.assert_array_equal(d.d, [[1, n + 1], [n + 1, 1]])

    def test_single_node(self):
        d = delay_matrix(DelayGraph(1, (1,), ()))
        npt.assert_array_equal(d.d, [[1]])

    def test_disconnected_graph_rejected(self):
        g = DelayGraph(2, (1, 1), ((0, 1, 1),))
        with pytest.raises(NotStronglyConnected):
            delay_matrix(g)

    def test_shortest_path_beats_direct_edge(self):
        # direct edge 0->2 costs 9, the two-hop route costs 2
        g = DelayGraph(
            3, (1, 1, 1),
            ((0, 1, 1), (1, 2, 1), (2, 1, 1), (1, 0, 1), (0, 2, 9)),
        )
        d = delay_matrix(g)
        assert d.d[2, 0] == 3

    def test_communication_part_is_subadditive(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 5)))
            d = delay_matrix(g).d
            comm = d - np.array(g.comp_delays)[:, None]
            n = d.shape[0]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert comm[i, j] <= comm[i, k] + comm[k, j]

    def test_computational_delay_must_be_positive(self):
        with pytest.raises(AssumptionViolated):
            DelayGraph(1, (0,), ())


class TestConstraintSpace:
    def test_chain_patterns(self):
        d = delay_matrix(make_chain_graph())
        cs = constraint_space(d, (1, 1, 1), (1, 1, 1))
        assert cs.n_horizon == 2
        npt.assert_array_equal(cs.patterns[0], np.eye(3, dtype=bool))
        tridiag = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        npt.assert_array_equal(cs.patterns[1], tridiag)

    def test_whole_float_sizes_are_ints(self):
        cs = ConstraintSpace(2.0, (1.0, 2.0), (3.0,), (np.ones((2, 1)),) * 2)
        assert (cs.n_horizon, cs.block_rows, cs.block_cols) == (2, (1, 2), (3,))
        assert all(type(v) is int for v in (cs.n_horizon, *cs.block_rows, *cs.block_cols))
        assert cs.entry_mask(2).shape == (3, 3)

    def test_single_node_is_vacuous(self):
        cs = constraint_space(DelayMatrix([[1]]), (2,), (3,))
        assert cs.n_horizon == 0
        assert cs.patterns == ()

    def test_two_node_long_link_stays_block_diagonal(self):
        d = delay_matrix(DelayGraph(2, (1, 1), ((0, 1, 3), (1, 0, 3))))
        cs = constraint_space(d, (1, 1), (1, 1))
        assert cs.n_horizon == 3
        for pat in cs.patterns:
            npt.assert_array_equal(pat, np.eye(2, dtype=bool))

    def test_patterns_monotone_and_terminal(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 5)))
            d = delay_matrix(g)
            n = d.node_count
            cs = constraint_space(d, (1,) * n, (1,) * n)
            for earlier, later in zip(cs.patterns, cs.patterns[1:]):
                assert not (earlier & ~later).any()
            if cs.n_horizon:
                npt.assert_array_equal(cs.patterns[-1], d.d <= cs.n_horizon)
                # blocks opening exactly at the tail are those with max delay
                npt.assert_array_equal(~cs.patterns[-1], d.d == cs.n_horizon + 1)

    def test_non_monotone_patterns_rejected(self):
        with pytest.raises(AssumptionViolated):
            ConstraintSpace(
                2, (1,), (1,),
                (np.array([[True]]), np.array([[False]])),
            )

    def test_entry_mask_column_stacked_positions(self):
        # the QP and the KKT oracle index vec(V) with entry_mask(lag).ravel("F"),
        # so the flattened mask must line up with vec's column stacking
        cs = ConstraintSpace(1, (1, 1, 1), (1, 1, 1), (np.eye(3, dtype=bool),))
        allowed = cs.entry_mask(1).ravel(order="F")
        npt.assert_array_equal(np.flatnonzero(allowed), [0, 4, 8])
        npt.assert_array_equal(np.flatnonzero(~allowed), [1, 2, 3, 5, 6, 7])
        npt.assert_array_equal(allowed, vec(cs.entry_mask(1)).astype(bool))

    def test_entry_mask_expansion(self):
        pattern = np.array([[True, False], [False, True]])
        mask = expand_pattern(pattern, (2, 1), (1, 2))
        npt.assert_array_equal(
            mask,
            [
                [True, False, False],
                [True, False, False],
                [False, True, True],
            ],
        )


def qi_brute_force(d: DelayMatrix, p: np.ndarray, rng, n_samples=20, tol=1e-9) -> bool:
    """Check K G22 K membership on random FIR controllers in the set.

    G22 is a random FIR transfer matrix whose block delays are exactly p
    (leading coefficients bounded away from zero); K is sampled with the
    delay-pattern support.  Membership of the truncated product is tested
    entrywise against the delay matrix.
    """
    dd = d.d
    n = d.node_count
    n_hor = dd.max() - 1
    t_out = 2 * n_hor + int(p.max()) + 2

    g22 = []
    for lag in range(t_out + 1):
        coeff = rng.standard_normal((n, n)) * (lag >= p)
        lead = lag == p
        coeff[lead] = np.sign(coeff[lead] + 1e-12) * (0.5 + np.abs(coeff[lead]))
        g22.append(coeff)

    for _ in range(n_samples):
        k_fir = [np.zeros((n, n))]
        for lag in range(1, n_hor + 2):
            k_fir.append(rng.standard_normal((n, n)) * (lag >= dd))
        prod = oracles.fir_convolve(k_fir, oracles.fir_convolve(g22, k_fir, t_out), t_out)
        for lag in range(t_out + 1):
            if np.abs(prod[lag][lag < dd]).max(initial=0.0) > tol:
                return False
    return True


class TestCheckQi:
    def test_chain_with_matching_plant_delays(self):
        d = delay_matrix(make_chain_graph())
        verdict = check_qi(d, d.d)
        assert verdict.ok and verdict.witness is None

    def test_fast_plant_slow_network_fails(self):
        d = DelayMatrix([[1, 3], [3, 1]])
        p = np.array([[1, 0], [0, 1]])
        verdict = check_qi(d, p)
        assert not verdict.ok
        k, i, j, l = verdict.witness
        assert d.d[k, i] + p[i, j] + d.d[j, l] < d.d[k, l]

    def test_slow_plant_always_passes(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(2, 5)))
            d = delay_matrix(g)
            p = np.full(d.d.shape, d.max_delay())
            assert check_qi(d, p).ok

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            check_qi(DelayMatrix([[1]]), np.zeros((2, 2), dtype=int))

    def test_agrees_with_brute_force_membership(self):
        rng = np.random.default_rng(45)
        seen = {True: 0, False: 0}
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(2, 4)))
            d = delay_matrix(g)
            if d.max_delay() < 2:
                continue
            p = rng.integers(0, d.max_delay() + 1, size=d.d.shape)
            verdict = check_qi(d, p)
            assert verdict.ok == qi_brute_force(d, p, rng), (d.d, p)
            if not verdict.ok:
                k, i, j, l = verdict.witness
                assert d.d[k, i] + p[i, j] + d.d[j, l] < d.d[k, l], (d.d, p)
            seen[verdict.ok] += 1
        assert seen[True] >= 1 and seen[False] >= 1

    def test_matches_the_quadruple_loop(self):
        # the defining inequality checked over every (k, i, j, l)
        rng = np.random.default_rng(46)
        seen = {True: 0, False: 0}
        for _ in range(300):
            n = int(rng.integers(1, 6))
            d = DelayMatrix(rng.integers(1, 6, size=(n, n)))
            p = rng.integers(0, 4, size=(n, n))
            violated = any(
                d.d[k, i] + p[i, j] + d.d[j, l] < d.d[k, l]
                for k in range(n) for i in range(n) for j in range(n) for l in range(n)
            )
            verdict = check_qi(d, p)
            assert verdict.ok == (not violated), (d.d, p)
            if violated:
                k, i, j, l = verdict.witness
                assert d.d[k, i] + p[i, j] + d.d[j, l] < d.d[k, l], (d.d, p)
            seen[verdict.ok] += 1
        assert min(seen.values()) >= 20


class TestPlantBlockDelays:
    def test_feedthrough_block_gives_zero(self):
        g = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        npt.assert_array_equal(plant_block_delays(g, (1,), (1,), 5), [[0]])

    def test_chain_delays_mirror_the_network(self):
        plant = make_chain_plant()
        p = plant_block_delays(plant.g22, plant.block_rows, plant.block_cols, 5)
        npt.assert_array_equal(p, [[1, 2, 3], [2, 1, 2], [3, 2, 1]])

    def test_dead_block_hits_sentinel(self):
        # second input never reaches the output
        g = StateSpaceModel(
            np.diag([0.5, 0.4]),
            np.eye(2),
            np.array([[1.0, 0.0]]),
            np.zeros((1, 2)),
        )
        p = plant_block_delays(g, (1, 1), (1,), 6)
        npt.assert_array_equal(p, [[1, 7]])

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    @pytest.mark.parametrize("a, want", [
        (make_chain_plant().a, [[1, 2, 3], [2, 1, 2], [3, 2, 1]]),
        (DENSE_A, [[1, 2, 2], [2, 1, 2], [2, 2, 1]]),
    ], ids=["chain", "dense"])
    def test_delays_do_not_depend_on_the_units(self, a, want, scale):
        # an absolute threshold of 1e-9 read every block of the 1e-5 plants
        # as zero
        g22 = plant_with_channel(a, scale * np.eye(3), scale * np.eye(3)).g22
        npt.assert_array_equal(plant_block_delays(g22, (1,) * 3, (1,) * 3, 5), want)

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_rotated_decoupled_plant_reads_decoupled(self, scale):
        # A = Q diag(0.5, 0.7, 0.9) Q^T, B2 = s Q, C2 = s Q^T: G_k is
        # s^2 diag(...)^(k-1), and its off-diagonal blocks are rounding
        # noise of size s^2 eps, which read as coupling at s = 1e5 under an
        # absolute threshold.  The stored reflector's columns are orthogonal
        # well within the rounding bound; a Q whose stored columns are not
        # carries real coupling in its data, and that reads as coupling
        q = householder([1.0, 2.0, 3.0])
        plant = plant_with_channel(q @ np.diag([0.5, 0.7, 0.9]) @ q.T, scale * q, scale * q.T)
        d = delay_matrix(make_chain_graph(link_delay=2))
        p = plant_block_delays(plant.g22, plant.block_rows, plant.block_cols, d.max_delay())
        npt.assert_array_equal(p, np.where(np.eye(3, dtype=bool), 1, d.max_delay() + 1))
        assert check_qi(d, p).ok
        synthesize(plant, constraint_space(d, plant.block_rows, plant.block_cols), delays=d)

    def test_badly_scaled_dense_plant_is_refused(self):
        plant = plant_with_channel(DENSE_A, 1e-5 * np.eye(3), 1e-5 * np.eye(3))
        d = delay_matrix(make_chain_graph(link_delay=2))
        cs = constraint_space(d, plant.block_rows, plant.block_cols)
        with pytest.raises(QIViolation, match=r"witness \(k=0, i=0, j=2, l=2\)"):
            synthesize(plant, cs, delays=d)


@pytest.mark.parametrize("make, error", [
    (lambda: DelayGraph(2, (1, 1), ((0, 1, -1), (1, 0, 1))), AssumptionViolated),
    (lambda: DelayMatrix([[1, 0], [2, 1]]), AssumptionViolated),
    (lambda: check_qi(DelayMatrix([[1]]), [[-1]]), AssumptionViolated),
    (lambda: ConstraintSpace(1, (1,), (1,), (np.ones((1, 1)),)).entry_mask(2), DimensionMismatch),
    (lambda: DelayGraph(2, (1, 1), ((0, 1), (1, 0, 1))), DimensionMismatch),
    (lambda: dataclasses.replace(make_chain_plant(3), block_rows=(2, -1, 2)), DimensionMismatch),
], ids=["negative edge delay", "zero delay", "negative plant delay", "lag past the horizon",
        "edge pair", "negative plant block"])
def test_bad_inputs_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("make, error", [
    (lambda: DelayMatrix([[1, 2.5], [2.5, 1]]), AssumptionViolated),
    (lambda: DelayMatrix([[1, np.nan], [2, 1]]), AssumptionViolated),
    (lambda: DelayMatrix([[1, np.inf], [2, 1]]), AssumptionViolated),
    (lambda: DelayMatrix([[1, 1e20], [2, 1]]), AssumptionViolated),
    (lambda: DelayGraph(2, (1.9, 1), ((0, 1, 0.5), (1, 0, 2.7))), AssumptionViolated),
    (lambda: DelayGraph(2, (1, np.nan), ((0, 1, 1), (1, 0, 1))), AssumptionViolated),
    (lambda: DelayGraph(2, (1, 1), ((0, 1, 1), (1, 0, 1.5))), AssumptionViolated),
    (lambda: DelayGraph(2, (1, 1), ((0, 1, 1), (0.5, 0, 1))), AssumptionViolated),
    (lambda: DelayGraph(2, (1, 1), ((0, 1, np.inf), (1, 0, 1))), AssumptionViolated),
    (lambda: check_qi(DelayMatrix([[1, 2], [2, 1]]), [[0, 0.5], [0.5, 0]]), AssumptionViolated),
    (lambda: ConstraintSpace(1, (1.5, 1), (1, 1), (np.ones((2, 2)),)), DimensionMismatch),
    (lambda: ConstraintSpace(1, (1, 1), (1, np.nan), (np.ones((2, 2)),)), DimensionMismatch),
    (lambda: dataclasses.replace(make_chain_plant(2), block_rows=(1.9, 1)), DimensionMismatch),
    (lambda: dataclasses.replace(make_chain_plant(2), block_cols=(1, np.inf)), DimensionMismatch),
], ids=["fractional delay", "NaN delay", "infinite delay", "huge delay", "fractional graph",
        "NaN computational delay", "fractional edge delay", "fractional edge endpoint",
        "infinite edge delay", "fractional plant delay", "fractional constraint block",
        "NaN constraint block", "fractional plant block", "infinite plant block"])
def test_non_whole_values_are_refused_not_truncated(make, error):
    # a delay rounded down loosens the constraint, so the controller could
    # act on a measurement before it arrives
    with pytest.raises(error, match="must be whole numbers"):
        make()


class TestBlockNorms:
    ROWS, COLS = (2, 1), (1, 2, 1)

    def loop_norms(self, m):
        r_edges, c_edges = np.cumsum((0,) + self.ROWS), np.cumsum((0,) + self.COLS)
        out = np.zeros((len(self.ROWS), len(self.COLS)))
        for i in range(len(self.ROWS)):
            for j in range(len(self.COLS)):
                blk = m[r_edges[i]:r_edges[i + 1], c_edges[j]:c_edges[j + 1]]
                out[i, j] = np.linalg.norm(blk)
        return out

    def test_uneven_blocks_of_one_matrix(self):
        m = np.random.default_rng(31).standard_normal((3, 4))
        got = block_norms(m, self.ROWS, self.COLS)
        assert got.shape == (2, 3)
        npt.assert_allclose(got, self.loop_norms(m), rtol=1e-14)

    def test_uneven_blocks_of_a_stack(self):
        stack = np.random.default_rng(32).standard_normal((5, 3, 4))
        got = block_norms(stack, self.ROWS, self.COLS)
        assert got.shape == (5, 2, 3)
        for k in range(5):
            npt.assert_allclose(got[k], self.loop_norms(stack[k]), rtol=1e-14)

    @pytest.mark.parametrize("rows, cols, stack", [
        ((1, 1, 1), (1, 1, 1, 1), ()), ((1, 1, 1), (1, 2, 1), ()), ((2, 1), (1, 1, 1, 1), ()),
        ((2, 1), (1, 2, 1), ()), ((1, 1, 1), (1, 1, 1, 1), (5,)), ((1, 1, 1), (1, 2, 1), (2, 5))])
    def test_equals_the_two_reductions_bit_for_bit(self, rows, cols, stack):
        # np.add.reduceat along both axes, also along one of one-entry
        # blocks, which block_norms skips; a NaN stays in its block
        m = np.random.default_rng(33).standard_normal(stack + (3, 4))
        m[..., 0, 0] = np.nan
        sq = np.add.reduceat(np.square(m), np.cumsum(rows) - rows, axis=-2)
        want = np.sqrt(np.add.reduceat(sq, np.cumsum(cols) - cols, axis=-1))
        npt.assert_array_equal(block_norms(m, rows, cols), want, strict=True)

    @pytest.mark.parametrize(
        "rows, cols", [((2, 2), (1, 2, 1)), ((2, 1), (1, 2)), ((3, 0), (1, 2, 1))]
    )
    def test_blocks_must_tile_the_matrix(self, rows, cols):
        with pytest.raises(DimensionMismatch):
            block_norms(np.ones((3, 4)), rows, cols)
