import numpy as np
import numpy.testing as npt
import pytest

from delayh2 import (
    ConstraintSpace,
    IllPosed,
    StateSpaceModel,
    closed_loop,
    conformance,
    constraint_space,
    delay_matrix,
    h2_norm_sq,
    impulse_response,
    kkt_oracle,
    realize_controller,
    riccati_gains,
    solve_constrained_qp,
    synthesize,
    vectorized_system,
)
from conftest import make_chain_graph, make_chain_plant, random_qp_instance

CHAIN_NORM = 34.9304
CENTRALIZED_NORM = 24.236


@pytest.fixture(scope="module")
def chain_result(chain_plant, chain_space):
    return synthesize(chain_plant, chain_space)


class TestClosedLoop:
    def test_zero_controller_recovers_open_loop_channel(self, chain_plant):
        k0 = StateSpaceModel.static(np.zeros((3, 3)))
        loop = closed_loop(chain_plant, k0)
        got = impulse_response(loop.model, 8)
        want = impulse_response(chain_plant.g11, 8)
        for lag in range(9):
            npt.assert_allclose(got[lag], want[lag], atol=1e-12)
        assert not loop.is_internally_stable  # chain plant is open-loop unstable

    def test_central_lqg_reaches_published_centralized_norm(self, chain_plant):
        gains = riccati_gains(chain_plant)
        k = realize_controller(np.zeros((0, 3, 3)), gains, chain_plant)
        loop = closed_loop(chain_plant, k)
        assert loop.is_internally_stable
        assert np.sqrt(h2_norm_sq(loop.model)) == pytest.approx(
            CENTRALIZED_NORM, abs=1e-2
        )

    def test_synthesized_chain_controller_norm(self, chain_plant, chain_result):
        loop = closed_loop(chain_plant, chain_result.controller)
        assert loop.is_internally_stable
        assert np.sqrt(h2_norm_sq(loop.model)) == pytest.approx(CHAIN_NORM, abs=1e-3)

    def test_interconnection_state_dimension(self, chain_plant, chain_result):
        loop = closed_loop(chain_plant, chain_result.controller)
        assert loop.model.order == chain_plant.n + chain_result.controller.order

    def test_nonzero_feedthrough_rejected(self, chain_plant):
        k = StateSpaceModel.static(0.1 * np.eye(3))
        with pytest.raises(IllPosed):
            closed_loop(chain_plant, k)

    def test_unstable_controller_flagged(self, chain_plant):
        k = StateSpaceModel(2.0 * np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)))
        loop = closed_loop(chain_plant, k)
        assert not loop.is_internally_stable


class TestConformance:
    def test_central_lqg_breaks_the_chain_pattern(self, chain_plant, chain_space):
        gains = riccati_gains(chain_plant)
        k = realize_controller(np.zeros((0, 3, 3)), gains, chain_plant)
        report = conformance(k, chain_space)
        assert not report.ok
        lags = {v[0] for v in report.violations}
        assert 1 in lags  # off-diagonal lag-1 blocks are populated

    def test_synthesized_controller_conforms(self, chain_result, chain_space):
        report = conformance(chain_result.controller, chain_space)
        assert report.ok
        assert report.violations == ()

    def test_zero_controller_conforms(self, chain_space):
        k = StateSpaceModel.static(np.zeros((3, 3)))
        assert conformance(k, chain_space).ok

    def test_nonzero_feedthrough_reported_at_lag_zero(self, chain_space):
        k = StateSpaceModel.static(np.eye(3))
        report = conformance(k, chain_space)
        assert not report.ok
        assert all(v[0] == 0 for v in report.violations)

    def test_zero_horizon_checks_only_the_feedthrough(self, chain_plant):
        # N = 0 leaves every lag >= 1 free, so the centralized controller
        # conforms and only a lag-0 feedthrough block can violate
        cs = ConstraintSpace(0, (1, 1, 1), (1, 1, 1), ())
        central = realize_controller(np.zeros((0, 3, 3)), riccati_gains(chain_plant), chain_plant)
        assert conformance(central, cs).ok
        d = np.zeros((3, 3))
        d[1, 2] = 0.5
        report = conformance(StateSpaceModel.static(d), cs)
        assert not report.ok
        assert len(report.violations) == 1
        lag, i, j, mag = report.violations[0]
        assert (lag, i, j) == (0, 1, 2)
        assert mag == pytest.approx(0.5)


class TestKktOracle:
    def test_unconstrained_is_zero(self, chain_plant, chain_space):
        gains = riccati_gains(chain_plant)
        vsys = vectorized_system(chain_plant, gains)
        cs = ConstraintSpace(2, (1, 1, 1), (1, 1, 1), (np.ones((3, 3), bool),) * 2)
        v, cost = kkt_oracle(vsys, cs, gains.omega, gains.psi)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert v.shape == (2, 3, 3)
        npt.assert_allclose(v, 0.0, atol=1e-10)

    def test_chain_cost_consistency(self, chain_plant, chain_space, chain_result):
        gains = riccati_gains(chain_plant)
        vsys = vectorized_system(chain_plant, gains)
        _, cost = kkt_oracle(vsys, chain_space, gains.omega, gains.psi)
        # total norm^2 = ||p11||^2 + QP cost, so the oracle's cost must equal
        # the published total minus the LQG floor
        assert cost == pytest.approx(
            CHAIN_NORM**2 - chain_result.p11_norm_sq, abs=2e-2
        )
        assert cost == pytest.approx(chain_result.qp_cost, rel=1e-9)

    def test_matches_recursive_solver_on_random_instances(self):
        rng = np.random.default_rng(314)
        for _ in range(15):
            _, vsys, cs, gains = random_qp_instance(rng)
            v_fast, cost_fast = solve_constrained_qp(vsys, cs, gains.omega, gains.psi)
            v_ref, cost_ref = kkt_oracle(vsys, cs, gains.omega, gains.psi)
            assert cost_fast == pytest.approx(cost_ref, rel=1e-9, abs=1e-12)
            assert v_fast.shape == v_ref.shape
            npt.assert_allclose(v_fast, v_ref, atol=1e-7)

    def test_fully_forbidden_patterns_agree(self, chain_plant):
        gains = riccati_gains(chain_plant)
        vsys = vectorized_system(chain_plant, gains)
        cs = ConstraintSpace(2, (1, 1, 1), (1, 1, 1), (np.zeros((3, 3), bool),) * 2)
        v_fast, cost_fast = solve_constrained_qp(vsys, cs, gains.omega, gains.psi)
        v_ref, cost_ref = kkt_oracle(vsys, cs, gains.omega, gains.psi)
        assert cost_fast == pytest.approx(cost_ref, rel=1e-9)
        npt.assert_allclose(v_fast, v_ref, atol=1e-7)
        assert cost_fast > 0.0


class TestEndToEnd:
    def test_synthesis_result_passes_all_checks(self, chain_plant, chain_space, chain_result):
        loop = closed_loop(chain_plant, chain_result.controller)
        assert loop.is_internally_stable
        assert conformance(chain_result.controller, chain_space).ok
        assert h2_norm_sq(loop.model) == pytest.approx(
            chain_result.total_norm_sq, rel=1e-5
        )

    def test_twelve_node_chain_loop_norm_matches_synthesis(self):
        # closed-loop order 156: a dense Kronecker Lyapunov solve would need
        # a 24336 x 24336 matrix (4.7 GB); doubling works on 156 x 156
        plant = make_chain_plant(12)
        d = delay_matrix(make_chain_graph(12))
        cs = constraint_space(d, plant.block_rows, plant.block_cols)
        result = synthesize(plant, cs, delays=d)
        loop = closed_loop(plant, result.controller)
        assert loop.model.order == 156
        assert loop.is_internally_stable
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9)
