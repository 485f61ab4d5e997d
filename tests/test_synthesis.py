import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from delayh2 import (
    AssumptionViolated,
    BezoutCheckFailed,
    ConstraintSpace,
    DelayMatrix,
    DimensionMismatch,
    GeneralizedPlant,
    QIViolation,
    closed_loop,
    coprime_factorization,
    h2_norm_sq,
    impulse_response,
    model_matching_matrices,
    realize_controller,
    riccati_gains,
    solve_constrained_qp,
    spectral_radius,
    synthesize,
    vectorized_system,
)
from delayh2.synthesis import _fir_realization
from conftest import lemma_identity_errors, make_chain_graph
from delayh2 import constraint_space, delay_matrix

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

CHAIN_NORM = 34.9304          # published three-player chain optimum
CENTRALIZED_NORM = 24.236     # published centralized reference


def channel_terms(plant, gains, v, n_lags):
    """Markov terms up to ``n_lags`` of the constrained channel
    (Y^ - M^ V) M~, by convolving the factors' Markov parameters."""
    f = oracles.coprime_factors(plant, gains)
    m_hat, y_hat, m_tilde = (oracles.model_terms(g, n_lags) for g in (f.m_hat, f.y_hat, f.m_tilde))
    v_terms = np.zeros((n_lags + 1,) + v.shape[1:])
    v_terms[1:len(v) + 1] = v[:n_lags]
    inner = y_hat - oracles.fir_convolve(m_hat, v_terms, n_lags)
    return oracles.fir_convolve(inner, m_tilde, n_lags)


@pytest.fixture(scope="module")
def chain_gains(chain_plant):
    return riccati_gains(chain_plant)


class TestPlantValidation:
    def test_bad_feedthrough_normalization_rejected(self):
        with pytest.raises(AssumptionViolated):
            GeneralizedPlant(
                a=[[0.5]], b1=[[1.0, 0.0]], b2=[[1.0]],
                c1=[[1.0], [0.0]], c2=[[1.0]],
                d12=[[0.0], [2.0]],            # D12^T D12 = 4 != 1
                d21=[[0.0, 1.0]],
                block_rows=(1,), block_cols=(1,),
            )

    def test_cross_term_rejected(self):
        with pytest.raises(AssumptionViolated):
            GeneralizedPlant(
                a=[[0.5]], b1=[[1.0, 0.0]], b2=[[1.0]],
                c1=[[1.0], [1.0]], c2=[[1.0]],  # D12^T C1 = 1 != 0
                d12=[[0.0], [1.0]], d21=[[0.0, 1.0]],
                block_rows=(1,), block_cols=(1,),
            )

    def test_unstabilizable_plant_rejected(self):
        with pytest.raises(AssumptionViolated):
            GeneralizedPlant(
                a=np.diag([2.0, 0.5]),
                b1=np.hstack([np.eye(2), np.zeros((2, 1))]),
                b2=[[0.0], [1.0]],              # unstable mode unreachable
                c1=np.vstack([np.eye(2), np.zeros((1, 2))]),
                c2=[[1.0, 0.0]],
                d12=[[0.0], [0.0], [1.0]],
                d21=[[0.0, 0.0, 1.0]],
                block_rows=(1,), block_cols=(1,),
            )

    def test_block_sizes_must_tile_channels(self):
        with pytest.raises(DimensionMismatch):
            GeneralizedPlant(
                a=[[0.5]], b1=[[1.0, 0.0]], b2=[[1.0]],
                c1=[[1.0], [0.0]], c2=[[1.0]],
                d12=[[0.0], [1.0]], d21=[[0.0, 1.0]],
                block_rows=(1, 1), block_cols=(1,),
            )


class TestRiccatiGains:
    def test_memoryless_plant(self):
        plant = GeneralizedPlant(
            a=np.zeros((2, 2)),
            b1=np.hstack([np.eye(2), np.zeros((2, 2))]),
            b2=np.array([[1.0, 0.0], [1.0, 1.0]]),
            c1=np.vstack([np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((2, 2))]),
            c2=np.eye(2),
            d12=np.vstack([np.zeros((2, 2)), np.eye(2)]),
            d21=np.hstack([np.zeros((2, 2)), np.eye(2)]),
            block_rows=(2,), block_cols=(2,),
        )
        gains = riccati_gains(plant)
        q = plant.c1.T @ plant.c1
        npt.assert_allclose(gains.x_ctrl, q, atol=1e-11)
        npt.assert_allclose(gains.k_gain, 0.0, atol=1e-11)
        npt.assert_allclose(
            gains.omega, np.eye(2) + plant.b2.T @ q @ plant.b2, atol=1e-10
        )

    def test_scalar_golden_ratio(self):
        plant = GeneralizedPlant(
            a=[[1.0]], b1=[[1.0, 0.0]], b2=[[1.0]],
            c1=[[1.0], [0.0]], c2=[[1.0]],
            d12=[[0.0], [1.0]], d21=[[0.0, 1.0]],
            block_rows=(1,), block_cols=(1,),
        )
        gains = riccati_gains(plant)
        npt.assert_allclose(gains.x_ctrl, [[GOLDEN]], rtol=1e-10)
        npt.assert_allclose(gains.k_gain, [[-GOLDEN / (1 + GOLDEN)]], rtol=1e-10)

    def test_chain_gains_satisfy_riccati_pair(self, chain_plant, chain_gains):
        p, g = chain_plant, chain_gains
        x, y = g.x_ctrl, g.y_filt
        ctrl_rhs = p.c1.T @ p.c1 + p.a.T @ x @ p.a - p.a.T @ x @ p.b2 @ np.linalg.solve(
            np.eye(3) + p.b2.T @ x @ p.b2, p.b2.T @ x @ p.a
        )
        filt_rhs = p.b1 @ p.b1.T + p.a @ y @ p.a.T - p.a @ y @ p.c2.T @ np.linalg.solve(
            np.eye(3) + p.c2 @ y @ p.c2.T, p.c2 @ y @ p.a.T
        )
        assert np.linalg.norm(x - ctrl_rhs) < 1e-9 * (1 + np.linalg.norm(x))
        assert np.linalg.norm(y - filt_rhs) < 1e-9 * (1 + np.linalg.norm(y))
        assert spectral_radius(p.a + p.b2 @ g.k_gain) < 1.0
        assert spectral_radius(p.a + g.l_gain @ p.c2) < 1.0
        npt.assert_allclose(g.omega, np.eye(3) + p.b2.T @ x @ p.b2, rtol=1e-12)
        npt.assert_allclose(g.psi, np.eye(3) + p.c2 @ y @ p.c2.T, rtol=1e-12)


class TestCoprimeFactorization:
    def test_feedthrough_structure(self, chain_plant, chain_gains):
        f = oracles.coprime_factors(chain_plant, chain_gains)
        npt.assert_allclose(f.m_hat.d, np.eye(3))
        npt.assert_allclose(f.y_hat.d, 0.0)
        npt.assert_allclose(f.x_hat.d, np.eye(3))
        npt.assert_allclose(f.m_tilde.d, np.eye(3))
        for factor in vars(f).values():
            assert factor.is_stable

    def test_bezout_identity_markov_parameters(self, chain_plant, chain_gains):
        # the eight factors stacked lag by lag, independent of the shared-state
        # realizations the library checks
        n = chain_plant.n
        product = oracles.bezout_product(chain_plant, chain_gains, 2 * n + 2)
        npt.assert_allclose(product[0], np.eye(6), atol=1e-7)
        for k in range(1, 2 * n + 3):
            npt.assert_allclose(product[k], 0.0, atol=1e-7)

    def test_right_factorization_recovers_g22(self, chain_plant, chain_gains):
        f = oracles.coprime_factors(chain_plant, chain_gains)
        # G22 = n_hat m_hat^{-1}  <=>  G22 m_hat - n_hat = 0
        g22, m_hat, n_hat = (
            oracles.model_terms(g, 10) for g in (chain_plant.g22, f.m_hat, f.n_hat)
        )
        residual = oracles.fir_convolve(g22, m_hat, 10) - n_hat
        assert np.abs(residual).max() < 1e-8

    def test_left_factorization_recovers_g22(self, chain_plant, chain_gains):
        f = oracles.coprime_factors(chain_plant, chain_gains)
        g22, m_tilde, n_tilde = (
            oracles.model_terms(g, 10) for g in (chain_plant.g22, f.m_tilde, f.n_tilde)
        )
        residual = oracles.fir_convolve(m_tilde, g22, 10) - n_tilde
        assert np.abs(residual).max() < 1e-8

    def test_returns_the_bezout_residual(self, chain_plant, chain_gains):
        residual = coprime_factorization(chain_plant, chain_gains)
        assert isinstance(residual, float)
        assert 0.0 <= residual < 1e-12

    def test_inconsistent_gains_fail_the_check(self, chain_plant, chain_gains):
        # any stabilizing K and L give a doubly-coprime pair, but a regulator
        # loop that is not A + B2 K breaks the identity
        bad = dataclasses.replace(chain_gains, a_k=0.5 * chain_gains.a_k)
        with pytest.raises(BezoutCheckFailed):
            coprime_factorization(chain_plant, bad)


class TestModelMatchingMatrices:
    def test_p11_is_stable_and_strictly_proper(self, chain_plant, chain_gains):
        p11 = model_matching_matrices(chain_plant, chain_gains)
        p12, p21 = oracles.model_matching_factors(chain_plant, chain_gains)
        assert p11.is_stable and p12.is_stable and p21.is_stable
        npt.assert_allclose(p11.d, 0.0)

    def test_product_identities_chain(self, chain_plant, chain_gains):
        err_omega, err_psi, err_cross = lemma_identity_errors(chain_plant, chain_gains)
        assert err_omega < 1e-8
        assert err_psi < 1e-8
        assert err_cross < 1e-8

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_product_identities_random_plants(self, seed):
        rng = np.random.default_rng(seed)
        plant = oracles.random_normalized_plant(
            rng, int(rng.integers(1, 5)), 2, 2, block_rows=(1, 1), block_cols=(1, 1)
        )
        gains = riccati_gains(plant)
        err_omega, err_psi, err_cross = lemma_identity_errors(plant, gains)
        assert max(err_omega, err_psi, err_cross) < 1e-8


class TestVectorizedSystem:
    def test_chain_dimensions(self, chain_plant, chain_gains):
        vsys = vectorized_system(chain_plant, chain_gains)
        assert vsys.a_v.shape == (18, 18)
        assert vsys.b_v.shape == (18, 9)
        assert vsys.c_v.shape == (9, 18)
        npt.assert_allclose(vsys.x1[:9], chain_gains.l_gain.reshape(-1, order="F"))
        npt.assert_allclose(vsys.x1[9:], 0.0)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_recursion_matches_transfer_arithmetic(self, chain_plant, chain_gains, seed):
        # FIR terms of (-y_hat + m_hat V) m_tilde from plain state-space
        # algebra must match the lifted recursion exactly
        rng = np.random.default_rng(seed)
        n_lags = 3
        blocks = rng.standard_normal((n_lags, 3, 3))
        resp = -channel_terms(chain_plant, chain_gains, blocks, n_lags)

        vsys = vectorized_system(chain_plant, chain_gains)
        state = vsys.x1
        for i in range(1, n_lags + 1):
            v_vec = blocks[i - 1].reshape(-1, order="F")
            j_vec = vsys.c_v @ state + v_vec
            want = resp[i].reshape(-1, order="F")
            npt.assert_allclose(j_vec, want, atol=1e-9)
            state = vsys.a_v @ state + vsys.b_v @ v_vec


class TestSolveConstrainedQp:
    def test_unconstrained_minimum_is_zero(self, chain_plant, chain_gains):
        vsys = vectorized_system(chain_plant, chain_gains)
        cs = ConstraintSpace(
            2, (1, 1, 1), (1, 1, 1), (np.ones((3, 3), bool),) * 2
        )
        v_star, cost = solve_constrained_qp(vsys, cs, chain_gains.omega, chain_gains.psi)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert v_star.shape == (2, 3, 3)
        npt.assert_allclose(v_star, 0.0, atol=1e-9)

    def test_empty_horizon(self, chain_plant, chain_gains):
        vsys = vectorized_system(chain_plant, chain_gains)
        cs = ConstraintSpace(0, (1, 1, 1), (1, 1, 1), ())
        v_star, cost = solve_constrained_qp(vsys, cs, chain_gains.omega, chain_gains.psi)
        assert v_star.shape == (0, 3, 3) and cost == 0.0

    def test_chain_cost_reproduces_published_norm(
        self, chain_plant, chain_gains, chain_space
    ):
        vsys = vectorized_system(chain_plant, chain_gains)
        _, cost = solve_constrained_qp(vsys, cs=chain_space, omega=chain_gains.omega,
                                       psi=chain_gains.psi)
        total = h2_norm_sq(model_matching_matrices(chain_plant, chain_gains)) + cost
        assert np.sqrt(total) == pytest.approx(CHAIN_NORM, abs=1e-3)


class TestRealizeController:
    def test_zero_parameter_recovers_central_lqg(self, chain_plant, chain_gains):
        # with V = 0 the realization must be IO-equivalent to the observer
        # controller y_hat x_hat^{-1}, whatever the shift-register size.  The
        # controller is unstable, so its terms are solved from K x_hat = y_hat
        # lag by lag (x_hat starts with I) rather than convolved back
        f = oracles.coprime_factors(chain_plant, chain_gains)
        x_hat, y_hat = oracles.model_terms(f.x_hat, 20), oracles.model_terms(f.y_hat, 20)
        want = []
        for m in range(21):
            want.append(y_hat[m] - sum(want[j] @ x_hat[m - j] for j in range(m)))
        for n_lags in (0, 2):
            v0 = np.zeros((n_lags, 3, 3))
            k = realize_controller(v0, chain_gains, chain_plant)
            assert k.order == 3 + 3 * n_lags
            got = impulse_response(k, 20)
            for lag in range(21):
                npt.assert_allclose(got[lag], want[lag], atol=1e-9)

    def test_chain_controller_order_and_strict_properness(
        self, chain_plant, chain_gains, chain_space
    ):
        vsys = vectorized_system(chain_plant, chain_gains)
        v_star, _ = solve_constrained_qp(
            vsys, chain_space, chain_gains.omega, chain_gains.psi
        )
        k = realize_controller(v_star, chain_gains, chain_plant)
        assert k.order == 3 + 3 * 2
        npt.assert_allclose(k.d, 0.0)

    def test_chain_controller_respects_delay_pattern(
        self, chain_plant, chain_gains, chain_space
    ):
        vsys = vectorized_system(chain_plant, chain_gains)
        v_star, _ = solve_constrained_qp(
            vsys, chain_space, chain_gains.omega, chain_gains.psi
        )
        k = realize_controller(v_star, chain_gains, chain_plant)
        resp = impulse_response(k, 2)
        # the (1,3) channel is forbidden at lags 1 and 2; (1,2) at lag 1 only
        assert abs(resp[1][0, 2]) < 1e-9
        assert abs(resp[2][0, 2]) < 1e-9
        assert abs(resp[1][0, 1]) < 1e-9
        assert abs(resp[2][0, 1]) > 1e-3


class TestSynthesize:
    def test_chain_problem_reproduces_published_norm(self, chain_plant, chain_space):
        d = delay_matrix(make_chain_graph())
        result = synthesize(chain_plant, chain_space, delays=d)
        assert result.h2_norm == pytest.approx(CHAIN_NORM, abs=1e-3)
        assert result.total_norm_sq == pytest.approx(
            result.p11_norm_sq + result.qp_cost, rel=1e-12
        )

    def test_centralized_reference(self, chain_plant):
        cs = ConstraintSpace(0, (1, 1, 1), (1, 1, 1), ())
        result = synthesize(chain_plant, cs)
        assert result.h2_norm == pytest.approx(CENTRALIZED_NORM, abs=1e-2)
        assert result.qp_cost == 0.0
        assert len(result.v_star) == 0

    def test_closed_loop_matches_cost_decomposition(self, chain_plant, chain_space):
        result = synthesize(chain_plant, chain_space)
        loop = closed_loop(chain_plant, result.controller)
        assert loop.is_internally_stable
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-5)

    def test_constrained_channel_satisfies_pattern(self, chain_plant, chain_space):
        # FIR terms of (y_hat - m_hat V*) m_tilde vanish on forbidden blocks
        gains = riccati_gains(chain_plant)
        result = synthesize(chain_plant, chain_space)
        resp = channel_terms(chain_plant, gains, result.v_star, chain_space.n_horizon)
        for lag in range(1, chain_space.n_horizon + 1):
            forbidden = ~chain_space.entry_mask(lag)
            assert np.abs(resp[lag][forbidden]).max(initial=0.0) < 1e-7

    def test_delayed_perturbations_strictly_increase_the_norm(
        self, chain_plant, chain_space
    ):
        gains = riccati_gains(chain_plant)
        result = synthesize(chain_plant, chain_space)
        rng = np.random.default_rng(55)
        for _ in range(5):
            extra = 0.05 * rng.standard_normal((2, 3, 3))
            perturbed = np.concatenate([result.v_star, extra])
            k = realize_controller(perturbed, gains, chain_plant)
            loop = closed_loop(chain_plant, k)
            assert loop.is_internally_stable
            assert h2_norm_sq(loop.model) > result.total_norm_sq + 1e-6

    def test_sweep_plant_monotone_and_ordered(self, sweep_plant):
        tri = np.array([[1, 0], [1, 1]], bool)
        di = np.eye(2, dtype=bool)
        low = np.array([[0, 0], [0, 1]], bool)
        norms = {}
        for name, pattern in (("tri", tri), ("di", di), ("low", low)):
            series = []
            for n in range(1, 4):
                cs = ConstraintSpace(n, (1, 1), (1, 1), (pattern,) * n)
                series.append(synthesize(sweep_plant, cs).h2_norm)
            norms[name] = series
            assert all(a <= b + 1e-8 for a, b in zip(series, series[1:]))
        for a, b, c in zip(norms["tri"], norms["di"], norms["low"]):
            assert a <= b + 1e-8 <= c + 2e-8

    def test_qi_violation_raises(self):
        plant = GeneralizedPlant(
            a=[[1.2, 0.5], [0.5, 1.2]],
            b1=np.hstack([np.eye(2), np.zeros((2, 2))]),
            b2=np.eye(2),
            c1=np.vstack([np.eye(2), np.zeros((2, 2))]),
            c2=np.eye(2),
            d12=np.vstack([np.zeros((2, 2)), np.eye(2)]),
            d21=np.hstack([np.zeros((2, 2)), np.eye(2)]),
            block_rows=(1, 1), block_cols=(1, 1),
        )
        d = DelayMatrix([[1, 5], [5, 1]])
        cs = constraint_space(d, (1, 1), (1, 1))
        with pytest.raises(QIViolation):
            synthesize(plant, cs, delays=d)

    def test_block_mismatch_rejected(self, chain_plant):
        cs = ConstraintSpace(1, (1, 1), (1, 1), (np.ones((2, 2), bool),))
        with pytest.raises(DimensionMismatch):
            synthesize(chain_plant, cs)


class TestFirMatrix:
    def test_shift_register_realization_reproduces_blocks(self):
        rng = np.random.default_rng(77)
        blocks = rng.standard_normal((4, 2, 3))
        a, b, c = _fir_realization(blocks)
        assert (a.shape, b.shape, c.shape) == ((12, 12), (12, 3), (2, 12))
        resp = oracles.markov_terms(a, b, c, np.zeros((2, 3)), 6)
        npt.assert_allclose(resp[0], 0.0)
        for k, blk in enumerate(blocks, 1):
            npt.assert_allclose(resp[k], blk, atol=1e-12)
        npt.assert_allclose(resp[5], 0.0, atol=1e-12)
        npt.assert_allclose(resp[6], 0.0, atol=1e-12)

    def test_misshapen_coefficients_rejected(self, chain_plant, chain_gains):
        with pytest.raises(DimensionMismatch):
            realize_controller(np.zeros((2, 3, 2)), chain_gains, chain_plant)
