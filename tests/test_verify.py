import dataclasses
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from delayh2 import (
    ClosedLoop,
    ConstraintSpace,
    DimensionMismatch,
    GeneralizedPlant,
    IllPosed,
    SolverFailure,
    StateSpaceModel,
    UnstableSystem,
    closed_loop,
    conformance,
    constraint_space,
    delay_matrix,
    h2_norm_sq,
    impulse_response,
    realize_controller,
    riccati_gains,
    solve_constrained_qp,
    spectral_radius,
    synthesize,
)
from delayh2 import statespace, verify
from delayh2.config import load_config
from delayh2.statespace import _diagonal_blocks, _stability
from delayh2.synthesis import model_matching_matrices, vectorized_system
from delayh2.verify import kkt_oracle
from conftest import (
    dense_orders, g11, make_chain_graph, make_chain_plant, random_qp_instance, static_model)

CHAIN_NORM = 34.9304
CENTRALIZED_NORM = 24.236


@pytest.fixture(scope="module")
def chain_result(chain_plant, chain_space):
    return synthesize(chain_plant, chain_space)


class TestClosedLoop:
    def test_zero_controller_recovers_open_loop_channel(self, chain_plant):
        k0 = static_model(np.zeros((3, 3)))
        loop = closed_loop(chain_plant, k0)
        got = impulse_response(loop.model, 8)
        want = impulse_response(g11(chain_plant), 8)
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
        k = static_model(0.1 * np.eye(3))
        with pytest.raises(IllPosed):
            closed_loop(chain_plant, k)

    def test_mismatched_dimensions_name_both_sides(self, chain_plant):
        k = StateSpaceModel(np.eye(1), np.ones((1, 2)), np.ones((3, 1)), np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch, match=r"^controller has 2 inputs and 3 outputs, "
                           r"the plant 3 measurements and 3 controls$"):
            closed_loop(chain_plant, k)

    def test_unstable_controller_flagged(self, chain_plant):
        k = StateSpaceModel(2.0 * np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)))
        loop = closed_loop(chain_plant, k)
        assert not loop.is_internally_stable


@pytest.fixture(scope="module")
def chain12():
    """Synthesis result and closed loop of the 12-node chain."""
    plant = make_chain_plant(12)
    d = delay_matrix(make_chain_graph(12))
    cs = constraint_space(d, plant.block_rows, plant.block_cols)
    result = synthesize(plant, cs, delays=d)
    return result, closed_loop(plant, result.controller)


def plain_copy(k: StateSpaceModel) -> StateSpaceModel:
    """A copy of ``k``'s realization, as a controller file holds it."""
    return StateSpaceModel(k.a, k.b, k.c, k.d)


def reversed_copy(k: StateSpaceModel) -> StateSpaceModel:
    """``k`` with its states in reverse order, an exact similarity
    transform: the realization loses the synthesized structure, so its loop
    is the raw interconnection, one dense matrix."""
    return StateSpaceModel(k.a[::-1, ::-1], k.b[::-1], k.c[:, ::-1], k.d)


def shift_chain_problem(a_diag: float, comp_delay: int):
    """(plant, synthesis result) of the 4-node one-way chain
    A = a_diag I + shift, B2 = C2 = I, with unit link delays and
    ``comp_delay`` at each node (horizon comp_delay + 2)."""
    n = 4
    eye, zero = np.eye(n), np.zeros((n, n))
    plant = GeneralizedPlant(
        a=a_diag * eye + np.eye(n, k=1),
        b1=np.hstack([eye, zero]),
        b2=eye,
        c1=np.vstack([eye, zero]),
        c2=eye,
        d12=np.vstack([zero, eye]),
        d21=np.hstack([zero, eye]),
        block_rows=(1,) * n,
        block_cols=(1,) * n,
    )
    d = delay_matrix(make_chain_graph(n, comp_delay))
    cs = constraint_space(d, plant.block_rows, plant.block_cols)
    return plant, synthesize(plant, cs, delays=d)


def shift_chain_loop(a_diag: float, comp_delay: int, raw: bool = False):
    """Closed loop of the optimal controller of :func:`shift_chain_problem`.
    Its exact spectrum is that of A_K and A_L plus 0.  With ``raw`` the
    controller is a :func:`reversed_copy`, and the loop is the raw
    interconnection, whose shift register is far from normal and whose
    norm grows with a_diag and the horizon."""
    plant, result = shift_chain_problem(a_diag, comp_delay)
    k = result.controller
    return closed_loop(plant, reversed_copy(k) if raw else k)


class TestDenseLoopStability:
    """Verdicts on dense closed loops: the raw interconnection of a
    synthesized controller's reversed copy, decided by one eigenvalue solve."""

    @pytest.mark.parametrize("n, scale", [(n, 1.0) for n in range(6, 13)] + [(6, 1e4)])
    def test_reversed_copy_loops_are_stable(self, n, scale):
        # chains of 6 to 12 nodes, orders 42 to 156, each loop one diagonal
        # block; with B2 scaled by 1e4 and C2 by 1e-4 the 6-node loop mixes
        # entries from 1e-4 to 1e4
        plant = make_chain_plant(n)
        plant = dataclasses.replace(plant, b2=scale * plant.b2, c2=plant.c2 / scale)
        d = delay_matrix(make_chain_graph(n))
        cs = constraint_space(d, plant.block_rows, plant.block_cols)
        loop = closed_loop(plant, reversed_copy(synthesize(plant, cs, delays=d).controller))
        order = n * (n + 1)
        assert _diagonal_blocks(loop.model.a) == [0, order]
        assert loop.model.is_stable
        assert loop.is_internally_stable

    def test_transient_growth_leaves_the_verdict_to_the_eigenvalues(self):
        # ||A_cl||_F is about 10^9.8, so the loop's powers grow far before
        # they decay, and the eigenvalue solve of the one order-72 block
        # decides.  Its radius (about 0.5) is itself rounding-dominated and
        # moves with the controller's last bits, so the verdict must report
        # exactly what the solve returns
        loop = shift_chain_loop(3.1, 14, raw=True)
        assert loop.is_internally_stable
        stable, why = _stability(loop.model.a)
        assert stable
        rho = spectral_radius(loop.model.a)
        assert why == f"eigenvalues: spectral radius {rho:.6g} < 1 - 1e-09"

    def test_overflowing_doubling_fails_early_with_a_typed_error(self):
        # the loop is stable by its eigenvalues, but its powers overflow
        # double precision long before Smith doubling's tail vanishes: the
        # solve stops at the first non-finite tail, with no numpy warning
        loop = shift_chain_loop(3.1, 14, raw=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SolverFailure,
                match=r"^Smith doubling overflowed at step \d+ \(last finite tail factor "
                r"\|\|A_k\|\|_F\^2 = [\d.]+e\+\d+\)$",
            ):
                h2_norm_sq(loop.model)

    def test_unstable_verdict_names_the_eigenvalues(self):
        # the exact spectrum lies inside the unit circle, but in double
        # precision the eigenvalue solve of the dense loop reports a radius
        # above 1 (about 1.7), which moves with the controller's last bits.
        # A_K and A_L, of radius 0.161, decide the synthesized controller's
        # loop
        plant, result = shift_chain_problem(6.1, 24)
        loop = closed_loop(plant, reversed_copy(result.controller))
        assert not loop.model.is_stable
        assert not loop.is_internally_stable
        assert closed_loop(plant, result.controller).is_internally_stable
        rho = spectral_radius(loop.model.a)
        assert rho >= 1.0
        with pytest.raises(UnstableSystem) as failure:
            h2_norm_sq(loop.model)
        assert str(failure.value) == f"h2_norm_sq: eigenvalues: spectral radius {rho:.6g} >= 1 - 1e-09"


SWEEP_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "two_subsystem_sweep.json")


def stability_orders(monkeypatch) -> list:
    """Orders of the matrices ``statespace._stability`` decides from now on."""
    seen, decide = [], statespace._stability

    def spy(a):
        seen.append(a.shape[0])
        return decide(a)

    monkeypatch.setattr(statespace, "_stability", spy)
    return seen


def with_changed_shift_entry(k: StateSpaceModel, n: int) -> StateSpaceModel:
    """``k``, of plant order ``n``, with the first one of its shift register
    moved by one ulp."""
    a = k.a.copy()
    a[n + k.n_inputs, n] = np.nextafter(1.0, 2.0)
    return dataclasses.replace(k, a=a)


def with_changed_tap(k: StateSpaceModel, n: int) -> StateSpaceModel:
    """``k`` with the first tap of its register rows of B, -1, moved by one
    ulp."""
    b = k.b.copy()
    b[n, 0] = np.nextafter(-1.0, -2.0)
    return dataclasses.replace(k, b=b)


def with_changed_feed(k: StateSpaceModel, n: int) -> StateSpaceModel:
    """``k`` with the entry (0, 0) of its register's feed rows, C2's, moved by
    one ulp."""
    a = k.a.copy()
    a[n, 0] = np.nextafter(a[n, 0], 2.0 * a[n, 0])
    return dataclasses.replace(k, a=a)


def with_an_extra_state(k: StateSpaceModel, n: int) -> StateSpaceModel:
    """``k`` with one more state, decoupled and stable (pole 0.5), so that
    the order past the plant's is no multiple of n_y."""
    order = k.order
    a = np.zeros((order + 1, order + 1))
    a[:order, :order] = k.a
    a[order, order] = 0.5
    return StateSpaceModel(a, np.vstack([k.b, np.zeros((1, k.n_inputs))]),
                           np.hstack([k.c, np.zeros((k.n_outputs, 1))]), k.d)


def zero_order_controller(k: StateSpaceModel, n: int) -> StateSpaceModel:
    """The zero controller with no state, of order below the plant's."""
    return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, k.n_inputs)),
                           np.zeros((k.n_outputs, 0)), k.d)


class TestYoulaStability:
    """A synthesized controller's loop is decided from A_K and A_L, the
    n x n diagonal blocks of its block-triangular form, once the rebuild
    from the (K, L, V) read off its B and C matches its realization."""

    def test_synthesized_loop_is_decided_at_the_plant_order(self, chain12, monkeypatch):
        result, _ = chain12
        loop = closed_loop(make_chain_plant(12), result.controller)
        seen = stability_orders(monkeypatch)
        assert loop.is_internally_stable
        assert seen == [12, 12]
        a_k, a_l = loop.youla_blocks
        assert spectral_radius(a_k) < 1 and spectral_radius(a_l) < 1

    @pytest.mark.parametrize(
        "strip, stable",
        [(lambda k, n: reversed_copy(k), True), (with_changed_shift_entry, True),
         (with_changed_tap, True), (with_changed_feed, True), (with_an_extra_state, True),
         (zero_order_controller, False)],
        ids=["reversed states", "changed shift entry", "changed tap", "changed feed",
             "order not n plus a multiple of n_y", "order below n"],
    )
    def test_other_controllers_are_decided_on_the_whole_loop(self, chain12, monkeypatch, strip,
                                                             stable):
        result, _ = chain12
        plant = make_chain_plant(12)
        k = strip(result.controller, plant.n)
        loop = closed_loop(plant, k)
        assert loop.youla_blocks is None
        seen = stability_orders(monkeypatch)
        assert loop.is_internally_stable is stable
        assert seen == [plant.n + k.order]

    def test_a_product_block_off_by_more_than_rounding_is_refused(self, chain_plant, chain_result):
        k = chain_result.controller
        a = k.a.copy()
        a[0, 0] *= 1 + 1e-12
        assert closed_loop(chain_plant, k).youla_blocks is not None
        assert closed_loop(chain_plant, dataclasses.replace(k, a=a)).youla_blocks is None

    def test_blocks_cannot_be_handed_in(self, chain_plant, chain_result):
        loop = closed_loop(chain_plant, chain_result.controller)
        with pytest.raises(TypeError):
            ClosedLoop(loop.model, loop.youla_blocks)

    def test_centralized_controller_has_no_shift_register(self, chain_plant):
        gains = riccati_gains(chain_plant)
        k = realize_controller(np.zeros((0, 3, 3)), gains, chain_plant)
        loop = closed_loop(chain_plant, k)
        assert loop.youla_blocks is not None
        assert loop.is_internally_stable is loop.model.is_stable is True

    @pytest.mark.parametrize("n", range(3, 13))
    def test_verdicts_agree_on_chains(self, n):
        plant = make_chain_plant(n)
        d = delay_matrix(make_chain_graph(n))
        cs = constraint_space(d, plant.block_rows, plant.block_cols)
        loop = closed_loop(plant, synthesize(plant, cs, delays=d).controller)
        assert loop.youla_blocks is not None
        assert loop.is_internally_stable is loop.model.is_stable is True

    @pytest.mark.parametrize("n_horizon", [5, 10, 20])
    def test_verdicts_agree_on_the_sweep_config(self, n_horizon):
        cfg = load_config(SWEEP_CONFIG)
        k = synthesize(cfg.plant, cfg.sweep_space(n_horizon)).controller
        loop = closed_loop(cfg.plant, k)
        assert loop.youla_blocks is not None
        assert loop.is_internally_stable is loop.model.is_stable is True


CONFORMANCE_CASES = [f"chain-{n}" for n in range(3, 13)] + [
    "sweep-5", "sweep-10", "sweep-20", "centralized"]


class TestYoulaLoop:
    """The loop of a synthesized controller is realized in the state order
    (x, shift-register slots oldest first, e = x - x^), block upper
    triangular with A_K, the shift and A_L on its diagonal."""

    @pytest.mark.parametrize("a_diag, comp_delay", [(3.1, 14), (6.1, 24), (4.6, 5), (6.1, 5)])
    def test_fragile_loops_have_their_norm(self, a_diag, comp_delay):
        # the raw interconnections of these loops overflow the Gramian's
        # doubling (3.1, 14) or cannot be proven stable (the others)
        plant, result = shift_chain_problem(a_diag, comp_delay)
        loop = closed_loop(plant, result.controller)
        assert loop.is_internally_stable is loop.model.is_stable is True
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9)

    @pytest.mark.parametrize("a_diag, comp_delay", [(3.1, 14), (6.1, 24), (4.6, 5), (6.1, 5)])
    def test_a_plain_copy_has_the_same_loop(self, a_diag, comp_delay):
        # a controller file holds only (A, B, C, D), and its loop is the
        # library controller's bit for bit: on (6.1, 24) it is not the raw
        # loop, whose eigenvalue solve reports a radius above 1
        plant, result = shift_chain_problem(a_diag, comp_delay)
        library = closed_loop(plant, result.controller).model
        loop = closed_loop(plant, plain_copy(result.controller))
        for name in "abcd":
            npt.assert_array_equal(getattr(loop.model, name), getattr(library, name))
        assert loop.is_internally_stable is loop.model.is_stable is True
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9)

    @pytest.mark.parametrize("case", CONFORMANCE_CASES[:-1])
    def test_youla_and_raw_loops_agree(self, case):
        plant, cs, result = synthesized_case(case)
        youla = closed_loop(plant, result.controller)
        raw = closed_loop(plant, reversed_copy(result.controller))
        assert youla.youla_blocks is not None and raw.youla_blocks is None
        assert youla.model.order == raw.model.order
        assert youla.is_internally_stable is youla.model.is_stable is True
        assert h2_norm_sq(youla.model) == pytest.approx(h2_norm_sq(raw.model), rel=1e-9)
        lags = youla.model.order + 10
        want = impulse_response(raw.model, lags)
        got = impulse_response(youla.model, lags)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["chain-6", "sweep-10", "centralized"])
    def test_loop_is_block_upper_triangular(self, case):
        plant, cs, result = synthesized_case(case)
        loop = closed_loop(plant, result.controller)
        a_k, a_l = loop.youla_blocks
        n, n_y = plant.n, plant.n_meas
        m = cs.n_horizon * n_y
        e = n + m
        a, b = loop.model.a, loop.model.b
        npt.assert_array_equal(a[:n, :n], a_k)
        npt.assert_array_equal(a[e:, e:], a_l)
        npt.assert_array_equal(a[n:, :n], 0.0)
        npt.assert_array_equal(a[e:, :e], 0.0)
        npt.assert_array_equal(a[n:e, n:e], np.eye(m, k=n_y))
        if m:  # only the newest slot is fed
            npt.assert_array_equal(a[n:e - n_y, e:], 0.0)
            npt.assert_array_equal(a[e - n_y:e, e:], -plant.c2)
            npt.assert_array_equal(b[n:e - n_y], 0.0)
            npt.assert_array_equal(b[e - n_y:e], -plant.d21)
        # one 1 x 1 diagonal block per register state, between A_K's and A_L's
        bounds = statespace._diagonal_blocks(a)
        assert [k for k in bounds if n <= k <= e] == list(range(n, e + 1))

    def test_zero_horizon_loop_is_p11_bit_for_bit(self):
        plant, _, result = synthesized_case("centralized")
        loop = closed_loop(plant, result.controller).model
        p11 = model_matching_matrices(plant, riccati_gains(plant))
        for name in "abcd":
            npt.assert_array_equal(getattr(loop, name), getattr(p11, name))

    def test_norm_decides_stability_on_the_small_blocks(self, chain12, monkeypatch):
        # order 156, decided from A_K and A_L (order 12) and 132 zeros on
        # the diagonal: no eigenvalues of the whole loop
        result, loop = chain12
        orders, decide = [], statespace._block_stability

        def spy(a):
            orders.append(a.shape[0])
            return decide(a)

        monkeypatch.setattr(statespace, "_block_stability", spy)
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9)
        assert orders == [12, 12]


def synthesized_case(case: str):
    """(plant, constraint space, synthesis result) of the n-node chain
    ('chain-<n>'), the sweep config at horizon N ('sweep-<N>'), or the
    3-node chain at N = 0 ('centralized')."""
    kind, _, size = case.partition("-")
    if kind == "chain":
        plant = make_chain_plant(int(size))
        d = delay_matrix(make_chain_graph(int(size)))
        cs = constraint_space(d, plant.block_rows, plant.block_cols)
        return plant, cs, synthesize(plant, cs, delays=d)
    if kind == "sweep":
        cfg = load_config(SWEEP_CONFIG)
        cs = cfg.sweep_space(int(size))
        return cfg.plant, cs, synthesize(cfg.plant, cs)
    plant = make_chain_plant(3)
    cs = ConstraintSpace(0, plant.block_rows, plant.block_cols, ())
    return plant, cs, synthesize(plant, cs)


def conformance_case(case: str):
    """A synthesized controller of :func:`synthesized_case` and the space it
    was designed for."""
    _, cs, result = synthesized_case(case)
    return result.controller, cs


def with_register_fed_from_the_observer(k, cs):
    """``k`` with one entry of ``a[n + n_y:, :n]``, which a shift register
    keeps zero, made nonzero."""
    n = k.order - cs.n_horizon * k.n_inputs
    a = k.a.copy()
    a[n + k.n_inputs, 0] = 1e-3
    return dataclasses.replace(k, a=a), cs


def with_b_feeding_a_later_slot(k, cs):
    """``k`` with B also feeding the third slot of its register, which
    ``_is_shift_register`` does not read: A^(i-1) B then fills that slot
    and the next i - 1 ones too."""
    n = k.order - cs.n_horizon * k.n_inputs
    b = k.b.copy()
    b[n + 2 * k.n_inputs, 0] = 1e-3
    return dataclasses.replace(k, b=b), cs


def checked_one_lag_longer(k, cs):
    """``k`` against ``cs`` with one more lag, on which every block is free."""
    pats = cs.patterns + (np.ones_like(cs.patterns[-1]),)
    return k, ConstraintSpace(cs.n_horizon + 1, cs.block_rows, cs.block_cols, pats)


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
        k = static_model(np.zeros((3, 3)))
        assert conformance(k, chain_space).ok

    def test_nonzero_feedthrough_reported_at_lag_zero(self, chain_space):
        k = static_model(np.eye(3))
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
        report = conformance(static_model(d), cs)
        assert not report.ok
        assert len(report.violations) == 1
        lag, i, j, mag = report.violations[0]
        assert (lag, i, j) == (0, 1, 2)
        assert mag == pytest.approx(0.5)

    @pytest.mark.parametrize("case", CONFORMANCE_CASES + ["chain-6 fed at a later slot"])
    def test_shift_register_path_matches_the_dense_recursion(self, case, monkeypatch):
        # the later-slot case fails if the recursion skips B's later rows
        k, cs = conformance_case(case.partition(" ")[0])
        if case.endswith("later slot"):
            k, cs = with_b_feeding_a_later_slot(k, cs)
        seen = dense_orders(monkeypatch)
        fast = verify._markov_parameters(k, cs.n_horizon)
        dense = impulse_response(k, cs.n_horizon)
        assert seen == []
        assert fast.shape == dense.shape
        assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_shift_register_zeros_are_compared_not_bit_counted(self):
        # a -0.0 off the register is zero and a NaN is not, as x != 0 says
        k, cs = conformance_case("chain-4")
        n, n_y = k.order - cs.n_horizon * k.n_inputs, k.n_inputs
        assert verify._is_shift_register(k.a, n, n_y)
        for where in [(n + n_y, 0), (n + n_y, n + 2 * n_y), (k.order - 1, k.order - 1)]:
            a = k.a.copy()
            a[where] = -0.0
            assert verify._is_shift_register(a, n, n_y)
            a[where] = np.nan
            assert not verify._is_shift_register(a, n, n_y)

    @pytest.mark.parametrize("case", CONFORMANCE_CASES)
    def test_synthesized_controllers_skip_the_dense_recursion(self, case, monkeypatch):
        k, cs = conformance_case(case)
        seen = dense_orders(monkeypatch)
        assert conformance(k, cs).ok
        assert conformance(StateSpaceModel(k.a, k.b, k.c, k.d), cs).ok
        assert seen == []

    @pytest.mark.parametrize(
        "change",
        [lambda k, cs: (with_changed_shift_entry(k, k.order - cs.n_horizon * k.n_inputs), cs),
         with_register_fed_from_the_observer, checked_one_lag_longer],
        ids=["changed shift entry", "register fed from the observer", "one lag longer"],
    )
    def test_other_realizations_take_the_dense_recursion(self, change, monkeypatch):
        # the response, and for a controller with a forbidden block above
        # the fixed tolerance also its rounding bound, by the dense recursion
        k, cs = change(*conformance_case("chain-6"))
        seen = dense_orders(monkeypatch)
        report = conformance(k, cs)
        assert seen == [k.order] * (1 if report.ok else 2)

    @pytest.mark.parametrize("case", ["chain-3", "chain-8", "sweep-10"])
    def test_a_perturbed_forbidden_entry_is_reported_alike_on_both_paths(self, case, monkeypatch):
        k, cs = conformance_case(case)
        i, j = np.argwhere(~cs.entry_mask(1))[0]
        n = k.order - cs.n_horizon * k.n_inputs
        c = k.c.copy()
        c[i, n + j] += 0.05  # V_1 entry (i, j)
        k = dataclasses.replace(k, c=c)
        fast = conformance(k, cs)
        monkeypatch.setattr(verify, "_is_shift_register", lambda *args: False)
        seen = dense_orders(monkeypatch)
        dense = conformance(k, cs)
        assert seen == [k.order] * 2  # the response and, the block flagged, its rounding bound
        assert not fast.ok
        assert [v[:3] for v in fast.violations] == [v[:3] for v in dense.violations]
        npt.assert_allclose([v[3] for v in fast.violations], [v[3] for v in dense.violations],
                            rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["central", "synthesized"])
    def test_a_nan_controller_does_not_conform(self, case):
        # the 4-chain's centralized LQG controller with C[0, 0] = NaN and its
        # synthesized controller with C[0, -1] = NaN: a NaN made the
        # response scale, and so the tolerance, NaN, which no block exceeded
        k, cs = conformance_case("chain-4")
        if case == "central":
            plant = make_chain_plant(4)
            k = realize_controller(np.zeros((0, 4, 4)), riccati_gains(plant), plant)
        c = k.c.copy()
        c[0, 0 if case == "central" else -1] = np.nan
        report = conformance(dataclasses.replace(k, c=c), cs)
        assert not report.ok
        assert all(np.isnan(v[3]) for v in report.violations if v[1] == 0)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_the_verdict_does_not_depend_on_the_units(self, scale):
        # C times s scales every Markov parameter by s; the forbidden lag-1
        # entry (0, 2), moved by 1% of the response scale, is reported at
        # every s, with the violations of s = 1 times s
        k, cs = conformance_case("chain-3")
        n = k.order - cs.n_horizon * k.n_inputs
        size = np.linalg.norm(impulse_response(k, cs.n_horizon), axis=(1, 2)).max()

        def moved(s):
            c = s * k.c
            c[0, n + 2] += 0.01 * s * size  # V_1 entry (0, 2)
            return conformance(dataclasses.replace(k, c=c), cs).violations

        want, got = moved(1.0), moved(scale)
        assert (1, 0, 2) in [v[:3] for v in want]
        assert [v[:3] for v in got] == [v[:3] for v in want]
        npt.assert_allclose([v[3] / scale for v in got], [v[3] for v in want], rtol=1e-12)

    def test_a_controller_that_does_not_fit_the_blocks_is_refused(self, chain_result,
                                                                   monkeypatch):
        # the controller's own n_y = 3 sets its split, so it takes the
        # shift-register path, but its 3 x 3 response does not tile 2 x 2 blocks
        cs = ConstraintSpace(2, (1, 1), (1, 1), (np.eye(2, dtype=bool),) * 2)
        seen = dense_orders(monkeypatch)
        with pytest.raises(DimensionMismatch):
            conformance(chain_result.controller, cs)
        assert seen == []


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
            plant, cs, gains = random_qp_instance(rng)
            v_fast, cost_fast = solve_constrained_qp(plant, gains, cs)
            v_ref, cost_ref = kkt_oracle(vectorized_system(plant, gains), cs, gains.omega,
                                         gains.psi)
            assert cost_fast == pytest.approx(cost_ref, rel=1e-9, abs=1e-12)
            assert v_fast.shape == v_ref.shape
            npt.assert_allclose(v_fast, v_ref, atol=1e-7)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_recursive_solver_on_chains(self, n):
        # lifted dimensions 32 to 128, on both sides of the switch from
        # dense to Kronecker-factored products
        plant = make_chain_plant(n)
        cs = constraint_space(
            delay_matrix(make_chain_graph(n)), plant.block_rows, plant.block_cols
        )
        gains = riccati_gains(plant)
        v_fast, cost_fast = solve_constrained_qp(plant, gains, cs)
        v_ref, cost_ref = kkt_oracle(vectorized_system(plant, gains), cs, gains.omega, gains.psi)
        assert cost_fast == pytest.approx(cost_ref, rel=1e-9, abs=1e-12)
        assert v_fast.shape == v_ref.shape
        npt.assert_allclose(v_fast, v_ref, atol=1e-7)

    def test_fully_forbidden_patterns_agree(self, chain_plant):
        gains = riccati_gains(chain_plant)
        vsys = vectorized_system(chain_plant, gains)
        cs = ConstraintSpace(2, (1, 1, 1), (1, 1, 1), (np.zeros((3, 3), bool),) * 2)
        v_fast, cost_fast = solve_constrained_qp(chain_plant, gains, cs)
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

    def test_twelve_node_chain_loop_norm_matches_synthesis(self, chain12):
        # closed-loop order 156: a dense Kronecker Lyapunov solve would need
        # a 24336 x 24336 matrix (4.7 GB); doubling works on 156 x 156
        result, loop = chain12
        assert loop.model.order == 156
        assert loop.is_internally_stable
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9)
