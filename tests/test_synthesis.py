import dataclasses
import gc
import math
import re
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from delayh2 import (
    AssumptionViolated,
    ConstraintSpace,
    DelayH2Error,
    DelayMatrix,
    DimensionMismatch,
    GeneralizedPlant,
    QIViolation,
    SolverFailure,
    closed_loop,
    h2_norm_sq,
    impulse_response,
    realize_controller,
    riccati_gains,
    solve_constrained_qp,
    spectral_radius,
    synthesize,
)
from delayh2 import synthesis
from delayh2.config import load_config
from delayh2.verify import kkt_oracle
from delayh2.synthesis import (
    PRICED_COST_TOL,
    RICCATI_RESIDUAL_TOL,
    _fir_realization,
    _lift,
    _plant_prefix,
    coprime_factorization,
    model_matching_matrices,
    riccati_residuals,
    sweep_norms,
    vectorized_system,
)
from conftest import (
    lemma_identity_errors, make_chain_graph, make_chain_plant, make_sweep_plant, random_qi_instance,
    random_qp_instance, seeded_family_instance)
from delayh2 import constraint_space, delay_matrix

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

CHAIN_NORM = 34.9304          # published three-player chain optimum
CENTRALIZED_NORM = 24.236     # published centralized reference
# The absolute bound on the Bezout residual that synthesis applied before the
# Riccati residual check replaced it
BEZOUT_BOUND = 1e-6

CONFIGS = [
    str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    for name in ("chain_three_player", "chain_centralized", "two_subsystem_sweep")
]


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

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
    @pytest.mark.parametrize("dual", [False, True], ids=["D12^T C1", "D21 B1^T"])
    def test_cross_term_rejected_in_any_units(self, scale, dual):
        # the cross term is half the scale of C1 (or B1) at every scale, so
        # the verdict must not change with the scale
        c1, b1 = [[1.0], [0.0]], [[1.0, 0.0]]
        if dual:
            b1 = [[scale, 0.5 * scale]]
        else:
            c1 = [[scale], [0.5 * scale]]
        with pytest.raises(AssumptionViolated, match=r"^normalization .* fails$"):
            GeneralizedPlant(
                a=[[0.5]], b1=b1, b2=[[1.0]], c1=c1, c2=[[1.0]],
                d12=[[0.0], [1.0]], d21=[[0.0, 1.0]],
                block_rows=(1,), block_cols=(1,),
            )

    @pytest.mark.parametrize("dual", [False, True], ids=["(D12, C1)", "(D21, B1)"])
    def test_rotated_and_scaled_normalized_plant_accepted(self, dual):
        # an orthogonal Q keeps D^T [C D] = [0 I] exactly, but rounds the
        # cross term of C1 scaled by 1e9 to |D12^T C1| = 3.1e-7: a rounding
        # of C1's units, not a coupling
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        c1, d12 = np.vstack([np.eye(2), np.zeros((1, 2))]), np.array([[0.0], [0.0], [1.0]])
        b1, d21 = c1.T, d12.T
        if dual:
            b1, d21 = 1e9 * (b1 @ q.T), d21 @ q.T
            assert np.abs(d21 @ b1.T).max() > 1e-7
        else:
            c1, d12 = 1e9 * (q @ c1), q @ d12
            assert np.abs(d12.T @ c1).max() > 1e-7
        plant = GeneralizedPlant(
            a=np.diag([2.0, 0.5]), b1=b1, b2=[[1.0], [1.0]], c1=c1, c2=[[1.0, 1.0]],
            d12=d12, d21=d21, block_rows=(1,), block_cols=(1,),
        )
        assert plant.n_perf == plant.n_dist == 3

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

    def test_undetectable_plant_rejected(self):
        with pytest.raises(AssumptionViolated, match=r"^\(A, C2\) not stabilizable/detectable: "
                           r"eigenvalue 2 is fixed$"):
            GeneralizedPlant(
                a=np.diag([2.0, 0.5]),
                b1=np.hstack([np.eye(2), np.zeros((2, 1))]),
                b2=[[1.0], [1.0]],
                c1=np.vstack([np.eye(2), np.zeros((1, 2))]),
                c2=[[0.0, 1.0]],                # unstable mode unobservable
                d12=[[0.0], [0.0], [1.0]],
                d21=[[0.0, 0.0, 1.0]],
                block_rows=(1,), block_cols=(1,),
            )

    def test_eigenvalues_of_a_are_computed_once(self, monkeypatch):
        # both PBH tests examine the eigenvalues of A
        seen, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a.shape) or eigvals(a))
        make_chain_plant(4)
        assert seen == [(4, 4)]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        # a NaN in D12 passed the normalization test, whose comparisons are
        # all false for NaN
        p = make_chain_plant(3)
        d12 = p.d12.copy()
        d12[0, 0] = value
        with pytest.raises(AssumptionViolated, match=r"^d12 has a non-finite entry$"):
            dataclasses.replace(p, d12=d12)

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

    @pytest.mark.parametrize("t, equation", [(41, "filter"), (274, "control")])
    def test_singular_doubling_names_its_equation(self, t, equation):
        # ROADMAP item 4's singular fuzz cases: family 5 (t = 41) fails in the
        # filter equation, family 4 (t = 274) in the control one
        plant, _ = seeded_family_instance(t)
        args = {"control": (plant.a, plant.b2, plant.c1.T @ plant.c1),
                "filter": (plant.a.T, plant.c2.T, plant.b1 @ plant.b1.T)}[equation]
        with pytest.raises(SolverFailure, match=r"^Riccati doubling: singular I \+ G H") as alone:
            synthesis.dare_solve(*args)
        with pytest.raises(SolverFailure) as failure:
            riccati_gains(plant)
        assert type(failure.value) is SolverFailure and failure.value.__cause__ is not None
        assert str(failure.value) == f"{equation} Riccati equation: {alone.value}"

    def test_zero_state_weight_names_the_control_equation(self):
        # the 3-player chain with C1's state rows zeroed, so Q = 0: the
        # doubling returns X = 0, whose closed loop A + B2 K = A is unstable
        plant = load_config(CONFIGS[0]).plant
        c1 = plant.c1.copy()
        c1[:plant.n] = 0.0
        with pytest.raises(AssumptionViolated, match=r"^control Riccati equation: Riccati closed "
                                                     r"loop is not stable \(") as failure:
            riccati_gains(dataclasses.replace(plant, c1=c1))
        assert isinstance(failure.value.__cause__, AssumptionViolated)


def perturbed_gains(plant, gains, which, seed):
    """``gains`` with K or L moved by 0.05 N(0, 1) and its loop rebuilt, so
    the loop still is A + B2 K or A + L C2 for the gain it holds."""
    rng = np.random.default_rng(seed)
    if which == "K":
        k = gains.k_gain + 0.05 * rng.standard_normal(gains.k_gain.shape)
        return dataclasses.replace(gains, k_gain=k, a_k=plant.a + plant.b2 @ k)
    l = gains.l_gain + 0.05 * rng.standard_normal(gains.l_gain.shape)
    return dataclasses.replace(gains, l_gain=l, a_l=plant.a + l @ plant.c2)


def scaled_chain(n, self_coupling, io_scale):
    """The n-chain with its self coupling replaced and B2, C2 = io_scale I."""
    p = make_chain_plant(n)
    a = p.a + (self_coupling - 1.5) * np.eye(n)
    return dataclasses.replace(p, a=a, b2=io_scale * p.b2, c2=io_scale * p.c2)


class TestRiccatiResiduals:
    """The pipeline's check of the gains: both Riccati equations, formed with
    the K and L that synthesis uses, hold to RICCATI_RESIDUAL_TOL relative."""

    @pytest.mark.parametrize("n", [3, 6, 12, 20])
    def test_correct_gains_read_an_eps_sized_residual(self, n):
        plant = make_chain_plant(n)
        residuals = riccati_residuals(plant, riccati_gains(plant))
        assert max(residuals) < 4 * np.finfo(float).eps

    @pytest.mark.parametrize("which, equation", [("K", "control"), ("L", "filter")])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_perturbed_gain_fails_where_the_bezout_check_passes(self, which, equation, seed):
        plant = make_chain_plant(6)
        bad = perturbed_gains(plant, riccati_gains(plant), which, seed)
        # any stabilizing K and L give a doubly-coprime pair
        assert spectral_radius(bad.a_k) < 1.0 and spectral_radius(bad.a_l) < 1.0
        assert coprime_factorization(plant, bad) < 1e-14
        with pytest.raises(SolverFailure, match=rf"^{equation} Riccati equation: relative "
                           rf"residual \S+ exceeds {RICCATI_RESIDUAL_TOL:.3g}$"):
            riccati_residuals(plant, bad)

    def test_riccati_gains_runs_the_check(self, monkeypatch):
        seen = []
        monkeypatch.setattr(synthesis, "riccati_residuals", lambda p, g: seen.append(g))
        gains = riccati_gains(make_chain_plant(3))
        assert len(seen) == 1 and seen[0] is gains

    @pytest.mark.parametrize("scale", [1e-2, 1e-3, 1e-4])
    def test_badly_scaled_chains_pass(self, scale):
        # the residual grows like 1/scale^2 (5.1e4 eps at 1e-4); an eps-sized
        # bound would refuse these correct solutions
        plant = scaled_chain(6, 1.5, scale)
        assert max(riccati_residuals(plant, riccati_gains(plant))) < RICCATI_RESIDUAL_TOL

    def test_vanishing_terms_read_zero(self):
        # C1 = 0 and a stable A give X = 0: every term of the control
        # equation vanishes
        plant = GeneralizedPlant(
            a=[[0.5]], b1=[[1.0, 0.0]], b2=[[1.0]],
            c1=[[0.0], [0.0]], c2=[[1.0]],
            d12=[[0.0], [1.0]], d21=[[0.0, 1.0]],
            block_rows=(1,), block_cols=(1,),
        )
        assert riccati_residuals(plant, riccati_gains(plant))[0] == 0.0


def closed_form_cases():
    for n in range(3, 21):
        yield pytest.param(make_chain_plant(n), id=f"chain{n}")
    for path in CONFIGS:
        yield pytest.param(load_config(path).plant, id=Path(path).stem)
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        yield pytest.param(oracles.random_normalized_plant(rng, 5, 2, 3), id=f"random{seed}")


class TestP11ClosedForm:
    @pytest.mark.parametrize("plant", closed_form_cases())
    def test_matches_the_gramian_of_p11(self, plant):
        gains, p11_norm_sq = _plant_prefix(plant)
        want = h2_norm_sq(model_matching_matrices(plant, gains))
        assert abs(p11_norm_sq - want) <= 1e-13 * want

    @pytest.mark.parametrize("plant, cs", [
        pytest.param(scaled_chain(3, 300.0, 0.01),
                     constraint_space(delay_matrix(make_chain_graph(3)), (1,) * 3, (1,) * 3),
                     id="chain-300"),
        pytest.param(GeneralizedPlant(a=[[300.0]], b1=[[1.0, 0.0]], b2=[[0.01]],
                                      c1=[[1.0], [0.0]], c2=[[0.01]], d12=[[0.0], [1.0]],
                                      d21=[[0.0, 1.0]], block_rows=(1,), block_cols=(1,)),
                     ConstraintSpace(0, (1,), (1,), ()),
                     id="scalar-300-centralized"),
    ])
    def test_badly_scaled_plants_synthesize(self, plant, cs):
        # the Bezout check refused both (residuals 2.1e-5 and 9.7e-6), though
        # the solutions are right
        assert coprime_factorization(plant, riccati_gains(plant)) > BEZOUT_BOUND
        result = synthesize(plant, cs)
        loop = closed_loop(plant, result.controller)
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9)

    def test_the_pipeline_runs_no_reference(self, chain_plant, chain_space, sweep_plant,
                                            monkeypatch):
        def reference(*args):
            raise AssertionError("a reference ran in the pipeline")

        for name in ("coprime_factorization", "model_matching_matrices", "h2_norm_sq"):
            monkeypatch.setattr(synthesis, name, reference)
        assert synthesize(chain_plant, chain_space).h2_norm == pytest.approx(CHAIN_NORM, abs=1e-3)
        assert len(list(sweep_norms(sweep_plant, np.eye(2, dtype=bool), 5))) == 5


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
        assert coprime_factorization(chain_plant, bad) > BEZOUT_BOUND


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


class TestLift:
    def test_chain_dimensions(self, chain_plant, chain_gains):
        vsys = vectorized_system(chain_plant, chain_gains)
        assert vsys.a_v.shape == (18, 18)
        assert vsys.b_v.shape == (18, 9)
        assert vsys.c_v.shape == (9, 18)
        npt.assert_allclose(vsys.x1[:9], chain_gains.l_gain.reshape(-1, order="F"))
        npt.assert_allclose(vsys.x1[9:], 0.0)

    @pytest.mark.parametrize(
        "n, n_ctrl, n_meas, seed",
        [(3, 3, 3, None), (3, 2, 1, 21), (3, 1, 3, 22), (2, 3, 2, 23), (5, 2, 3, 24)],
        ids=["chain", "n3-u2-y1", "n3-u1-y3", "n2-u3-y2", "n5-u2-y3"],
    )
    def test_factored_products_match_dense_lift(self, n, n_ctrl, n_meas, seed, lift_path):
        # with J_i as input the state matrix is A_bar = A_v - B_v C_v; the
        # QP applies A_bar^T, B_v^T and A_bar/2 through the n x n factors,
        # and at small order as the matrices formed from them
        if seed is None:
            plant = make_chain_plant(n)
        else:
            plant = oracles.random_normalized_plant(
                np.random.default_rng(seed), n, n_ctrl, n_meas
            )
        gains = riccati_gains(plant)
        vsys = vectorized_system(plant, gains)
        lift = _lift(plant, gains)
        order = lift.order
        assert order == n * (n_ctrl + n_meas)
        assert np.array_equal(lift.x1, vsys.x1)
        a_bar = vsys.a_v - vsys.b_v @ vsys.c_v
        y = np.random.default_rng(5).standard_normal((order, 7))
        # rounding bound: eps-sized relative to max |y| times the 1-norm
        tol = 1e-12 * np.abs(y).max() * max(np.abs(m).sum(axis=0).max() for m in (a_bar, vsys.b_v))
        npt.assert_allclose(lift.a_bar_t_times(y), a_bar.T @ y, atol=tol)
        out = np.full_like(y, np.nan)
        assert lift.a_bar_t_times(y, out=out) is out
        npt.assert_allclose(out, a_bar.T @ y, atol=tol)
        npt.assert_allclose(lift.b_v_t_times(y), vsys.b_v.T @ y, atol=tol)

        # the row-side product m A_bar/2, on the factors and as the matrix
        # the sweep forms from them below MATRIX_LIFT_ORDER
        m = np.ascontiguousarray(y.T)
        want = 0.5 * m @ a_bar
        half_a_bar = lift.times_half_a_bar(np.eye(order))
        npt.assert_allclose(half_a_bar, 0.5 * a_bar, atol=1e-12 * np.abs(a_bar).max())
        out = np.full_like(m, np.nan)
        assert lift.times_half_a_bar(m, out=out) is out
        for got in (lift.times_half_a_bar(m), out, m @ half_a_bar):
            npt.assert_allclose(got, want, atol=tol)
        # A/2 and L/2 are exact: twice the product is the unhalved factor
        # product, the same arithmetic on A and L, bit for bit
        doubled = _lift(dataclasses.replace(plant, a=2.0 * plant.a),
                        dataclasses.replace(gains, l_gain=2.0 * gains.l_gain))
        assert np.array_equal(2.0 * out, doubled.times_half_a_bar(m))
        assert np.array_equal(2.0 * half_a_bar, doubled.times_half_a_bar(np.eye(order)))

    @pytest.mark.parametrize("n, n_ctrl, n_meas, seed", [(3, 2, 1, 21), (2, 3, 2, 23), (4, 1, 3, 25)])
    def test_factored_c_v_products_match_dense_lift(self, n, n_ctrl, n_meas, seed, lift_path):
        plant = oracles.random_normalized_plant(np.random.default_rng(seed), n, n_ctrl, n_meas)
        gains = riccati_gains(plant)
        lift = _lift(plant, gains)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((n_ctrl * n_meas, 5))
        c_v = vectorized_system(plant, gains).c_v
        tol = 1e-12 * np.abs(u).max() * np.abs(c_v).sum(axis=1).max()
        npt.assert_allclose(lift.c_v_t_times(u), c_v.T @ u, atol=tol)

    @pytest.mark.parametrize("n, n_ctrl, n_meas, seed",
                             [(3, 3, 3, None), (4, 4, 4, None), (5, 5, 5, None), (5, 2, 3, 24)],
                             ids=["chain3", "chain4", "chain5", "n5-u2-y3"])
    def test_small_orders_apply_the_formed_matrices(self, n, n_ctrl, n_meas, seed):
        # up to MATRIX_LIFT_ORDER each product is one matmul with its matrix,
        # which holds the dense lift's Kronecker blocks entry for entry, so
        # every stage applies the lift one way
        if seed is None:
            plant = make_chain_plant(n)
        else:
            plant = oracles.random_normalized_plant(np.random.default_rng(seed), n, n_ctrl, n_meas)
        gains = riccati_gains(plant)
        lift = _lift(plant, gains)
        assert lift.order <= synthesis.MATRIX_LIFT_ORDER
        vsys = vectorized_system(plant, gains)
        a_bar = np.block([
            [np.kron(np.eye(n_meas), plant.a), -np.kron(gains.l_gain.T, plant.b2)],
            [np.zeros((n * n_ctrl, n * n_meas)), np.kron(plant.a.T, np.eye(n_ctrl))],
        ])
        rng = np.random.default_rng(9)
        y, m = rng.standard_normal((lift.order, 6)), rng.standard_normal((6, lift.order))
        u = rng.standard_normal((n_ctrl * n_meas, 6))
        formed = np.ascontiguousarray
        for got, want in ((lift.a_bar_t_times(y), formed(a_bar.T) @ y),
                          (lift.b_v_t_times(y), formed(vsys.b_v.T) @ y),
                          (lift.c_v_t_times(u), formed(vsys.c_v.T) @ u),
                          (lift.times_half_a_bar(m), m @ (0.5 * a_bar))):
            assert np.array_equal(got, want)

    @staticmethod
    def assert_adds_half_c_r_c(plant, gains, seed):
        # C_v^T R C_v / 2 as four Kronecker quadrants of the weight's
        # factors; the fifth product adds each entry's one product, halved
        # exactly, at the first call and at a later one, through a buffer of
        # one block row, so the add runs a block row at a time
        psi, omega, k, l = gains.psi, gains.omega, gains.k_gain, gains.l_gain
        half = 0.5 * np.block([[np.kron(psi, k.T @ omega @ k), np.kron(psi @ l.T, k.T @ omega)],
                               [np.kron(l @ psi, omega @ k), np.kron(l @ psi @ l.T, omega)]])
        c_v = vectorized_system(plant, gains).c_v
        npt.assert_allclose(2.0 * half, c_v.T @ np.kron(psi, omega) @ c_v,
                            rtol=1e-12, atol=1e-12 * np.abs(half).max())
        lift = _lift(plant, gains)
        buffer = np.empty(max(plant.n, plant.n_ctrl) * lift.order)
        x = np.random.default_rng(seed).standard_normal((lift.order, lift.order))
        want = x + half
        assert lift.add_half_c_r_c(x, buffer) is x
        assert np.array_equal(x, want)
        assert np.array_equal(lift.add_half_c_r_c(x, buffer), want + half)

    @pytest.mark.parametrize("n", [4, 6])
    def test_half_c_r_c_adds_the_kronecker_quadrants_on_chains(self, n):
        # orders 32 and 72, on either side of MATRIX_LIFT_ORDER: the matrix
        # formed at the first call, and the block rows from the factors
        plant = make_chain_plant(n)
        assert (n * 2 * n <= synthesis.MATRIX_LIFT_ORDER) == (n == 4)
        self.assert_adds_half_c_r_c(plant, riccati_gains(plant), n)

    def test_half_c_r_c_adds_the_kronecker_quadrants_on_random_instances(self, lift_path):
        rng = np.random.default_rng(36)
        for seed in range(20):
            plant, _, gains = random_qp_instance(rng)
            self.assert_adds_half_c_r_c(plant, gains, seed)

    @pytest.mark.parametrize("n", [4, 6])
    def test_the_lift_is_freed_by_reference_counting(self, n):
        # no product refers to itself, so C_v^T R C_v / 2's factors, or its
        # formed matrix, go when the sweep drops the lift, not at the next
        # cyclic collection; left to it, they stayed between QPs and raised
        # the peak resident memory of a run of QPs
        plant = make_chain_plant(n)
        lift = _lift(plant, riccati_gains(plant))
        lift.add_half_c_r_c(np.zeros((lift.order, lift.order)), np.empty(lift.order**2))
        product = weakref.ref(lift.add_half_c_r_c)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del lift
            assert product() is None
        finally:
            if enabled:
                gc.enable()

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


@pytest.fixture(scope="module")
def chain_qp():
    """(plant, gains, cs) of the n-node chain with its delay pattern, by n."""
    cache = {}

    def build(n):
        if n not in cache:
            plant = make_chain_plant(n)
            d = delay_matrix(make_chain_graph(n))
            cs = constraint_space(d, plant.block_rows, plant.block_cols)
            cache[n] = (plant, riccati_gains(plant), cs)
        return cache[n]

    return build


@pytest.fixture
def uncondensed(monkeypatch):
    """No lag condensed: ``solve_constrained_qp`` runs every lag in the
    backward sweep, as :func:`sweep_norms` does."""
    monkeypatch.setattr(synthesis, "_condensed_lags", lambda *args: 0)


class TestSolveConstrainedQp:
    def test_unconstrained_minimum_is_zero(self, chain_plant, chain_gains):
        # every lag runs the rank-0 factored stage, where X = 0 holds exactly
        cs = ConstraintSpace(
            2, (1, 1, 1), (1, 1, 1), (np.ones((3, 3), bool),) * 2
        )
        v_star, cost = solve_constrained_qp(chain_plant, chain_gains, cs)
        assert cost == 0.0
        assert v_star.shape == (2, 3, 3)
        assert not v_star.any()

    @pytest.mark.parametrize("extra", [1, 3])
    def test_trailing_allowed_lags_change_nothing(self, chain_qp, factored_stages, extra):
        # fully allowed lags past the last constrained one run the rank-0
        # factored stage: their V rows are exactly zero, and the earlier
        # rows and the cost are those of the space without them, bit for bit
        plant, gains, cs = chain_qp(6)
        n = cs.n_horizon
        longer = ConstraintSpace(n + extra, cs.block_rows, cs.block_cols,
                                 cs.patterns + (np.ones_like(cs.patterns[0]),) * extra)
        v_star, cost = solve_constrained_qp(plant, gains, cs)
        factored_stages.clear()
        v_long, cost_long = solve_constrained_qp(plant, gains, longer)
        assert factored_stages[:extra] == [f"lag {lag}" for lag in range(n + extra, n, -1)]
        assert cost_long == cost
        assert v_long[:n].tobytes() == v_star.tobytes()
        assert (v_long[n:] == 0.0).all()

    def test_empty_horizon(self, chain_plant, chain_gains):
        cs = ConstraintSpace(0, (1, 1, 1), (1, 1, 1), ())
        v_star, cost = solve_constrained_qp(chain_plant, chain_gains, cs)
        assert v_star.shape == (0, 3, 3) and cost == 0.0

    def test_chain_cost_reproduces_published_norm(
        self, chain_plant, chain_gains, chain_space
    ):
        _, cost = solve_constrained_qp(chain_plant, chain_gains, cs=chain_space)
        total = h2_norm_sq(model_matching_matrices(chain_plant, chain_gains)) + cost
        assert np.sqrt(total) == pytest.approx(CHAIN_NORM, abs=1e-3)


    @pytest.mark.parametrize("share, matrix", [(0.5, "R = psi kron omega of order 9"),
                                               (0.0, "h of order 7")], ids=["factored", "dense"])
    def test_singular_stage_names_its_lag(self, chain_gains, chain_space, chain_plant,
                                          monkeypatch, share, matrix):
        # omega = 0 zeroes R at the first stage of the backward sweep, lag
        # N = 2, where 7 of the 9 coordinates are allowed: the factored stage
        # cannot invert the weight, and the dense one's h = R_aa vanishes
        monkeypatch.setattr(synthesis, "FACTORED_RANK_SHARE", share)
        gains = dataclasses.replace(chain_gains, omega=np.zeros((3, 3)))
        with pytest.raises(SolverFailure, match=rf"^singular stage matrix {re.escape(matrix)} at "
                           r"lag 2 \(7 allowed coordinates\): it is zero$"):
            solve_constrained_qp(chain_plant, gains, chain_space)

    @pytest.mark.parametrize("seed, scale, share, where", [
        # ROADMAP item 7's fuzz instance t = 163: cond(psi) 7.3e9, cond(omega)
        # 5.7e11, and (R^-1)_ff of lag 3's four forbidden coordinates is
        # indefinite in floating point
        (187232773, None, None, r"of order 4 at lag 3 \(16 allowed coordinates\)"),
        # B2 and C2 x 1000 and every stage factored: lag 1 forbids all 25
        # coordinates, and N_ff is the whole of R^-1
        (4, 1000.0, 10**9, r"of order 25 at lag 1 \(0 allowed coordinates\)"),
    ], ids=["fuzz-163", "seed-4-factored"])
    def test_failed_weight_block_is_named_with_its_eigenvalues(self, monkeypatch, seed, scale,
                                                               share, where):
        rng = np.random.default_rng(seed)
        plant, _, cs = random_qi_instance(rng)
        scale = scale or 10 ** rng.uniform(-5, 5)
        plant = dataclasses.replace(plant, b2=scale * plant.b2, c2=scale * plant.c2)
        if share:
            monkeypatch.setattr(synthesis, "FACTORED_RANK_SHARE", share)
            monkeypatch.setattr(synthesis, "_condensed_lags", lambda *args: 0)
        with pytest.raises(SolverFailure) as info:
            synthesize(plant, cs)
        found = re.fullmatch(r"singular stage matrix \(R\^-1\)_ff " + where + r": its smallest"
                             r" eigenvalue is (\S+) times its largest", str(info.value))
        assert found, str(info.value)
        assert -1e-6 < float(found.group(1)) < 0.0

    def test_non_finite_stage_matrix_reports_no_eigenvalue(self):
        # eigvalsh returns numbers for a matrix holding NaN or inf, which
        # would misreport the failed matrix
        failure = synthesis._stage_failure("h", np.array([[np.inf, 0.0], [0.0, 0.0]]), "lag 1", 2)
        assert str(failure) == ("singular stage matrix h of order 2 at lag 1 (2 allowed"
                                " coordinates): it has a non-finite entry")

    @pytest.mark.parametrize("n", [10, 12])
    def test_matches_v_coordinate_recursion(self, chain_qp, n):
        plant, gains, cs = chain_qp(n)
        v_star, cost = solve_constrained_qp(plant, gains, cs)
        v_ref, cost_ref = oracles.v_coordinate_qp(vectorized_system(plant, gains), cs,
                                                  gains.omega, gains.psi)
        assert cost == pytest.approx(cost_ref, rel=1e-12)
        assert np.abs(v_star - v_ref).max() <= 1e-9 * (1.0 + np.abs(v_ref).max())

    def test_chain_solution_is_a_feasibility_certificate(self, chain_qp):
        # the returned V, pushed through the dense lift, must zero every
        # forbidden coordinate of J and cost exactly what the solver reports
        plant, gains, cs = chain_qp(12)
        v_star, cost = solve_constrained_qp(plant, gains, cs)
        a_v, b_v, c_v, state = vectorized_system(plant, gains)
        for lag in range(1, cs.n_horizon + 1):
            v_vec = v_star[lag - 1].reshape(-1, order="F")
            j_vec = c_v @ state + v_vec
            forbidden = ~cs.entry_mask(lag).ravel(order="F")
            assert np.abs(j_vec[forbidden]).max() < 1e-9
            state = a_v @ state + b_v @ v_vec
        assert oracles.priced_cost(v_star, gains.omega, gains.psi) == pytest.approx(cost, rel=1e-12)


class TestKktReference:
    """The float solvers held to :func:`oracles.kkt_reference`, the QP's
    KKT system solved to 60 digits."""

    def test_solvers_match_the_reference(self, chain_plant, chain_gains, chain_space):
        vsys = vectorized_system(chain_plant, chain_gains)
        omega, psi = chain_gains.omega, chain_gains.psi
        v_ref, cost_ref = oracles.kkt_reference(vsys, chain_space, omega, psi)
        for v_star, cost in (solve_constrained_qp(chain_plant, chain_gains, chain_space),
                             kkt_oracle(vsys, chain_space, omega, psi)):
            assert abs(cost - cost_ref) <= 1e-12 * cost_ref
            assert np.abs(v_star - v_ref).max() <= 1e-12 * np.abs(v_ref).max()

    @pytest.mark.xfail(
        strict=True,
        reason="fuzz t = 121 (conftest.seeded_family_instance), refused by the "
        "priced-cost check: the single sweep's V prices 6.8e-7 of the total above "
        "the reference; refining V on the sweep's own stages (ROADMAP item 13) "
        "brings it to the reference",
    )
    def test_wrong_v_fuzz_instance_prices_at_its_reference(self):
        plant, cs = seeded_family_instance(121)
        gains, p11_norm_sq = _plant_prefix(plant)
        v_star, _ = solve_constrained_qp(plant, gains, cs)
        _, cost_ref = oracles.kkt_reference(vectorized_system(plant, gains), cs,
                                            gains.omega, gains.psi)
        excess = oracles.priced_cost(v_star, gains.omega, gains.psi) - float(cost_ref)
        assert abs(excess) <= 1e-12 * (p11_norm_sq + float(cost_ref))


def test_fuzz_instance_below_the_sweep_floor_reports_its_priced_cost():
    # fuzz t = 493: the sweep's cost reads -2.42e-10, below the floor, while
    # its V prices at 2.52e-10.  The result reports the price, which the
    # rebuilt loop confirms (3.1e-16 measured); V's excess over the 60-digit
    # optimum is 8.3e-12, 2.9e-12 of the total
    plant, cs = seeded_family_instance(493)
    result = synthesize(plant, cs)
    loop = closed_loop(plant, result.controller)
    assert abs(h2_norm_sq(loop.model) - result.total_norm_sq) <= 1e-12 * result.total_norm_sq
    gains = riccati_gains(plant)
    _, cost_ref = oracles.kkt_reference(vectorized_system(plant, gains), cs,
                                        gains.omega, gains.psi)
    assert abs(result.qp_cost - float(cost_ref)) <= 1e-11 * result.total_norm_sq


@pytest.mark.parametrize("t", [86, 439])
def test_condensed_fuzz_instances_price_at_their_reference(t):
    # fuzz t = 86 (family 2) and t = 439 (family 1): with every lag in the
    # backward sweep the priced-cost check refused them; with lag 1
    # condensed their V prices within 1e-11 of the total above the 60-digit
    # optimum (-3.1e-12 and 1.7e-15 measured)
    plant, cs = seeded_family_instance(t)
    result = synthesize(plant, cs)
    gains = riccati_gains(plant)
    _, cost_ref = oracles.kkt_reference(vectorized_system(plant, gains), cs,
                                        gains.omega, gains.psi)
    assert abs(result.qp_cost - float(cost_ref)) <= 1e-11 * result.total_norm_sq


def test_priced_cost_matches_the_exact_price():
    # a badly scaled QI instance (cond(omega), cond(psi) about 2e5), priced
    # against the exact rational price of the V that synthesis returns
    plant, delays, cs = random_qi_instance(np.random.default_rng(133332660))
    plant = dataclasses.replace(plant, a=223 * plant.a)
    result = synthesize(plant, cs, delays=delays)
    gains = riccati_gains(plant)
    exact = oracles.exact_price(result.v_star, gains.omega, gains.psi)
    priced = oracles.priced_cost(result.v_star, gains.omega, gains.psi)
    assert abs(Fraction(priced) - exact) <= Fraction(1e-11) * exact


def test_seeded_families_synthesize_or_raise_a_typed_error():
    # a seeded property gate over families 0, 1, 2 and 5 of
    # conftest.seeded_family_instance (t = 0 ... 599): as drawn, B2 and C2
    # scaled, A scaled, B1's state columns scaled.  Family 3 scales A to a
    # spectral radius within 1e-3 of 1 and is not gated yet.  Family 4 scales
    # C1's state rows, where the Riccati solution of two instances leaves the
    # loop norm off by more than 1e-9 (t = 166 by 5.1e-9, t = 364 by 1.3e-9);
    # it is left out.  Each synthesis raises a typed error or rebuilds its
    # loop norm
    outcomes = Counter()
    for t in range(600):
        if t % 6 not in (0, 1, 2, 5):
            continue
        try:
            plant, cs = seeded_family_instance(t)
            result = synthesize(plant, cs)
        except DelayH2Error:
            outcomes["typed error"] += 1
            continue
        loop = closed_loop(plant, result.controller)
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9), t
        outcomes["synthesized"] += 1
    assert outcomes.total() == 400 and outcomes["synthesized"] >= 360, outcomes


class MaskSequence:
    """A constraint given as one entry mask per lag, without the monotonicity
    that :class:`ConstraintSpace` enforces; the solver and the oracle read
    only these attributes."""

    def __init__(self, masks):
        self.masks = masks
        self.n_horizon = len(masks)
        self.block_rows, self.block_cols = (masks[0].shape[0],), (masks[0].shape[1],)

    def entry_mask(self, lag):
        return self.masks[lag - 1]


@pytest.fixture
def factored_stages(monkeypatch):
    """Labels of the backward stages run on a factor of the cost-to-go."""
    seen = []
    real = synthesis._factored_stage

    def spy(lift, psi_inv, omega_inv, z, where, idx, forb):
        seen.append(where)
        return real(lift, psi_inv, omega_inv, z, where, idx, forb)

    monkeypatch.setattr(synthesis, "_factored_stage", spy)
    return seen


def well_conditioned_plant(rng, n, n_u, n_y):
    """Random plant with a stable symmetric tridiagonal A and orthonormal B2
    and C2 (n_u, n_y <= n), whose QP costs are neither tiny nor huge."""
    eye = np.eye(n)
    return GeneralizedPlant(
        a=rng.uniform(0.4, 0.6) * eye + rng.uniform(0.2, 0.4) * (np.eye(n, k=1) + np.eye(n, k=-1)),
        b1=np.hstack([eye, np.zeros((n, n_y))]),
        b2=np.linalg.qr(rng.standard_normal((n, n_u)))[0],
        c1=np.vstack([eye, np.zeros((n_u, n))]),
        c2=np.linalg.qr(rng.standard_normal((n, n_y)))[0].T,
        d12=np.vstack([np.zeros((n, n_u)), np.eye(n_u)]),
        d21=np.hstack([np.zeros((n_y, n)), np.eye(n_y)]),
        block_rows=(n_u,),
        block_cols=(n_y,),
    )


def assert_solves_qp(plant, gains, cs):
    """The solver agrees with the V-coordinate oracle, and its V is a
    feasibility certificate: pushed through the dense lift it zeroes every
    forbidden coordinate of J and costs what the solver reports."""
    vsys = vectorized_system(plant, gains)
    v_star, cost = solve_constrained_qp(plant, gains, cs)
    v_ref, cost_ref = oracles.v_coordinate_qp(vsys, cs, gains.omega, gains.psi)
    assert np.abs(v_star - v_ref).max() <= 1e-9 * (1.0 + np.abs(v_ref).max())
    assert cost == pytest.approx(cost_ref, rel=1e-12)
    assert cost == pytest.approx(oracles.priced_cost(v_star, gains.omega, gains.psi), rel=1e-12)
    a_v, b_v, c_v, state = vsys
    for lag in range(1, cs.n_horizon + 1):
        v_vec = v_star[lag - 1].reshape(-1, order="F")
        j_vec = c_v @ state + v_vec
        forbidden = ~cs.entry_mask(lag).ravel(order="F")
        assert np.abs(j_vec[forbidden]).max(initial=0.0) < 1e-9
        state = a_v @ state + b_v @ v_vec


class TestFactoredStages:
    """The first backward stages run on X = Z Z^T until the rank bound, the
    forbidden coordinates summed from lag N down, would pass
    ``FACTORED_RANK_SHARE`` of the order; the dense stage finishes."""

    def test_chain_hands_over_where_the_rank_bound_passes_the_share(self, chain_qp, factored_stages):
        # n = 12, order 288: the forbidden counts from lag 11 down are
        # 2, 6, 12, 20, 30, 42 and 56, so the rank bound 112 of lag 6 is the
        # last within 288 / 2
        solve_constrained_qp(*chain_qp(12))
        assert factored_stages == [f"lag {lag}" for lag in range(11, 5, -1)]

    def test_random_patterns_match_the_oracle(self, factored_stages):
        # non-monotone masks mixing lags with no allowed coordinate, fully
        # allowed lags and partial ones, on plants of order 6 to 30
        rng = np.random.default_rng(808)
        hits = Counter()
        for _ in range(80):
            n, n_u, n_y = (int(v) for v in rng.integers([3, 1, 1], [6, 4, 4]))
            plant = well_conditioned_plant(rng, n, n_u, n_y)
            gains = riccati_gains(plant)
            share = [float(rng.choice([0.0, 0.6, 0.85, 1.0])) for _ in range(int(rng.integers(1, 6)))]
            masks = [rng.random((n_u, n_y)) < p for p in share]
            factored_stages.clear()
            assert_solves_qp(plant, gains, MaskSequence(masks))

            lags = [int(label.split()[1]) for label in factored_stages]
            last_constrained = max((lag for lag, m in enumerate(masks, 1) if not m.all()),
                                   default=0)
            hits["factored to lag 1"] += 1 in lags
            hits["handover"] += 0 < len(lags) < len(masks)
            hits["no allowed coordinate"] += any(not masks[lag - 1].any() for lag in lags)
            hits["fully allowed below a constrained lag"] += any(
                masks[lag - 1].all() for lag in lags if lag < last_constrained)
        assert min(hits.values()) >= 3 and len(hits) == 4, hits

    def test_stages_are_arrays_named_by_the_spy(self, chain_qp, factored_stages):
        # the data the forward sweep applies: no callable; T, S_y and S_z at
        # exactly the lags the spy records, two of them fully allowed past
        # the last constrained lag; a dense gain h^-1 g of shape
        # (allowed, order) at the handover, lag 3; and at the condensed lags
        # 2 and 1 the allowed coordinates and a gain of shape (allowed, d_k)
        # on xi_k, d_1 = 1 and d_2 = 1 + 8
        plant, gains, cs = chain_qp(8)
        n_j, order = plant.n_ctrl * plant.n_meas, plant.n * (plant.n_ctrl + plant.n_meas)
        masks = [cs.entry_mask(lag) for lag in range(1, cs.n_horizon + 1)]
        masks += [np.ones_like(masks[0])] * 2
        stages = [(f"lag {lag}", np.flatnonzero(masks[lag - 1].ravel(order="F")))
                  for lag in range(len(masks), 0, -1)]
        swept = list(synthesis._backward_sweep(plant, gains, stages[:-2], stages[:-3:-1]))
        assert all(isinstance(array, np.ndarray) for data, _ in swept for array in data)
        for ((where, idx), (data, _)), d in zip(zip(stages[-2:], swept[-2:], strict=True), (9, 1)):
            assert data[0] is idx and data[1].shape == (idx.size, d) and len(data) == 2
        factored = []
        for (where, idx), (data, _) in zip(stages[:-2], swept[:-2], strict=True):
            allowed, forb, *rest = data
            assert allowed is idx
            assert np.array_equal(np.sort(np.concatenate([idx, forb])), np.arange(n_j))
            if len(rest) == 3:
                factored.append(where)
                t, s_y, s_z = rest
                assert t.shape == (idx.size, forb.size)
                assert s_y.shape[0] == idx.size and s_z.shape == (order, s_y.shape[1])
            else:
                assert len(rest) == 1 and rest[0].shape == (idx.size, order)
        assert factored == factored_stages
        assert factored[:2] == [f"lag {len(masks)}", f"lag {len(masks) - 1}"]
        assert factored[-1] == "lag 4"


def weight_factor(rng, n, cond):
    """Random n x n weight I + G G^T, the form of psi and omega (each
    identity plus a positive semidefinite term), of condition number
    ``cond``."""
    g = rng.standard_normal((n, n))
    m = g @ g.T
    return np.eye(n) + (cond - 1.0) / np.linalg.eigvalsh(m)[-1] * m


class TestAllowedSolves:
    """T = R_aa^-1 R_af and Y = R_aa^-1 W for R = psi kron omega, taken in
    closed form from R^-1 = psi^-1 kron omega^-1 instead of a solve with
    R_aa."""

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 1e8])
    def test_matches_a_solve_with_the_allowed_block(self, cond):
        # np.linalg.solve's own forward error grows like eps cond(R), so
        # above cond 4.5e3 the match is held to that instead of 1e-12
        tol = max(1e-12, np.finfo(float).eps * cond)
        rng = np.random.default_rng(int(np.log10(cond)))
        for _ in range(40):
            n_u, n_y = (int(v) for v in rng.integers(1, 7, size=2))
            split = rng.uniform()
            psi, omega = weight_factor(rng, n_y, cond**split), weight_factor(rng, n_u, cond ** (1 - split))
            r = np.kron(psi, omega)
            allowed = rng.random(n_u * n_y) < rng.choice([0.0, rng.uniform(), 1.0])
            idx, forb = np.flatnonzero(allowed), np.flatnonzero(~allowed)
            w = rng.standard_normal((idx.size, 3))
            psi_inv, omega_inv = np.linalg.inv(psi), np.linalg.inv(omega)
            t, y, k_f_inv = synthesis._allowed_solves(psi_inv, omega_inv, idx, forb, w, "a test")
            ref = np.linalg.solve(r[np.ix_(idx, idx)], np.hstack([r[np.ix_(idx, forb)], w]))
            for got, want in ((t, ref[:, :forb.size]), (y, ref[:, forb.size:])):
                assert got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= tol * np.abs(want).max(initial=0.0)
            # K_f^-1 N_ff K_f^-T = I, with K_f K_f^T = N_ff
            n_ff = np.kron(psi_inv, omega_inv)[np.ix_(forb, forb)]
            assert np.abs(k_f_inv @ n_ff @ k_f_inv.T - np.eye(forb.size)).max(initial=0.0) <= tol

    def test_factored_only_solve_of_a_scaled_instance(self, monkeypatch, factored_stages,
                                                      uncondensed):
        # B2 and C2 x 10 give cond(psi kron omega) = 4e4; with the share
        # above every rank bound and no lag condensed each stage runs factored
        plant, _, cs = random_qi_instance(np.random.default_rng(1))
        plant = dataclasses.replace(plant, b2=10.0 * plant.b2, c2=10.0 * plant.c2)
        gains = riccati_gains(plant)
        monkeypatch.setattr(synthesis, "FACTORED_RANK_SHARE", 10**9)
        assert_solves_qp(plant, gains, cs)
        assert factored_stages == [f"lag {lag}" for lag in range(cs.n_horizon, 0, -1)]


@pytest.fixture(params=[0, 10**9], ids=["factors", "matrices"])
def lift_path(request, monkeypatch):
    """The dense stage on the lift's factors (limit 0) or on the formed
    matrices (a limit above every lifted order)."""
    monkeypatch.setattr(synthesis, "MATRIX_LIFT_ORDER", request.param)


class TestMatrixLiftOrder:
    """Up to ``MATRIX_LIFT_ORDER`` the dense stage applies A_bar^T and B_v^T
    as formed matrices, above it through the factors of the lift.  The two
    round differently and solve the same QP."""

    @staticmethod
    def assert_paths_agree(monkeypatch, plant, gains, cs):
        monkeypatch.setattr(synthesis, "MATRIX_LIFT_ORDER", 0)
        v_f, cost_f = solve_constrained_qp(plant, gains, cs)
        monkeypatch.setattr(synthesis, "MATRIX_LIFT_ORDER", 10**9)
        v_m, cost_m = solve_constrained_qp(plant, gains, cs)
        # absolute below a cost of 1: on some random draws the shared dense
        # downdate is off the priced cost of its own V by up to 9e-12
        # relative on either path (ROADMAP item 1), which is not the switch's
        assert cost_m == pytest.approx(cost_f, rel=1e-12, abs=1e-12)
        assert np.abs(v_m - v_f).max(initial=0.0) <= 1e-12 * np.abs(v_f).max(initial=0.0)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_chains_agree(self, chain_qp, monkeypatch, factored_stages, n):
        # the rank bound passes half the order at lag 1 or above, so each
        # chain ends on the dense stage
        self.assert_paths_agree(monkeypatch, *chain_qp(n))
        assert factored_stages and "lag 1" not in factored_stages

    def test_random_instances_agree(self, monkeypatch, factored_stages):
        # many of these small instances finish on the factored stage, where
        # the paths are the same code; count those that reach the dense one
        rng = np.random.default_rng(2718)
        dense = 0
        for _ in range(60):
            plant, cs, gains = random_qp_instance(rng)
            factored_stages.clear()
            self.assert_paths_agree(monkeypatch, plant, gains, cs)
            dense += len(factored_stages) < 2 * cs.n_horizon
        assert dense >= 10

    def test_sweep_plant_agrees(self, sweep_plant, monkeypatch):
        # the benchmark's sweep pattern at its longest horizon
        pattern = np.array([[1, 0], [1, 1]], bool)
        cs = ConstraintSpace(120, sweep_plant.block_rows, sweep_plant.block_cols, (pattern,) * 120)
        self.assert_paths_agree(monkeypatch, sweep_plant, riccati_gains(sweep_plant), cs)


class TestHandoverStage:
    """The first dense stage reads X = Z Z^T through the factor Z, with
    W = B_a^T Z and G = A_bar^T Z, and X is formed after it."""

    @pytest.mark.parametrize("n", range(6, 13))
    def test_chains_match_the_oracle(self, chain_qp, factored_stages, lift_path, n):
        # each chain runs factored from lag n - 1 and hands over at a rank > 0
        assert_solves_qp(*chain_qp(n))
        assert factored_stages and "lag 1" not in factored_stages

    def test_rank_zero_handover_matches_the_oracle(self, factored_stages, lift_path):
        # the last constrained lag forbids more than half the lifted order,
        # so the sweep hands over at its first stage, on an empty factor
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(60):
            plant, cs, gains = random_qp_instance(rng)
            factored_stages.clear()
            assert_solves_qp(plant, gains, cs)
            # fully allowed lags past the last constrained one run factored on
            # the empty factor, which stays empty up to the handover
            last_constrained = max((lag for lag in range(1, cs.n_horizon + 1)
                                    if not cs.entry_mask(lag).all()), default=0)
            hits += last_constrained > 0 and all(
                int(label.split()[1]) > last_constrained for label in factored_stages)
        assert hits >= 10


def condensed_lags(plant, cs) -> int:
    """How many early lags ``solve_constrained_qp`` condenses."""
    sizes = [np.count_nonzero(cs.entry_mask(lag)) for lag in range(1, cs.n_horizon + 1)]
    return synthesis._condensed_lags(plant.n * (plant.n_ctrl + plant.n_meas),
                                     plant.n_ctrl * plant.n_meas, sizes)


class TestCondensedLags:
    """Lags 1 ... s run in the coordinates xi_k = [1; J_{1,a}; ...;
    J_{k-1,a}] from X~ = S^T X_{s+1} S, where s is the last lag, at or
    before the last constrained one, whose bound d_{s+1} = 1 + a_1 + ... +
    a_s stays within ``FACTORED_RANK_SHARE`` of the order.  They solve the
    QP of the sweep that condenses no lag."""

    @staticmethod
    def assert_matches_uncondensed(monkeypatch, plant, gains, cs, solved):
        # the sweep cost and the priced cost of V within 1e-12 of the total
        # ||P11||^2 + cost of the solve that condenses no lag
        with monkeypatch.context() as uncondensed:
            uncondensed.setattr(synthesis, "_condensed_lags", lambda *args: 0)
            v_ref, cost_ref = solve_constrained_qp(plant, gains, cs)
        (v, cost), omega, psi = solved, gains.omega, gains.psi
        total = _plant_prefix(plant)[1] + cost_ref
        assert abs(cost - cost_ref) <= 1e-12 * total
        assert abs(oracles.priced_cost(v, omega, psi)
                   - oracles.priced_cost(v_ref, omega, psi)) <= 1e-12 * total

    @pytest.mark.parametrize("n", range(3, 13))
    def test_chains_match_the_uncondensed_sweep(self, chain_qp, monkeypatch, n):
        plant, gains, cs = chain_qp(n)
        assert condensed_lags(plant, cs) > 0
        solved = solve_constrained_qp(plant, gains, cs)
        self.assert_matches_uncondensed(monkeypatch, plant, gains, cs, solved)

    def test_random_instances_match_the_uncondensed_sweep(self, monkeypatch, factored_stages):
        # count the draws that condense every lag (X~ = 0), that hand over
        # at a lag s + 1 still factored (X~ read through Z) and that hand
        # over from the dense stage
        rng = np.random.default_rng(38)
        hits = Counter()
        for _ in range(200):
            plant, cs, gains = random_qp_instance(rng)
            factored_stages.clear()
            solved = solve_constrained_qp(plant, gains, cs)
            s, n = condensed_lags(plant, cs), cs.n_horizon
            self.assert_matches_uncondensed(monkeypatch, plant, gains, cs, solved)
            if s == n > 0:
                hits["every lag"] += 1
            elif s:
                hits["from a factor" if len(factored_stages) == n - s else "from X"] += 1
        assert len(hits) == 3 and min(hits.values()) >= 5, hits

    def test_chain_condenses_the_lags_within_the_bound(self, chain_qp, monkeypatch):
        # n = 12, order 288: lags 1 ... 4 allow 12, 34, 54 and 70
        # coordinates, so d_4 = 1 + 100 = 101 is the last bound within
        # 288 / 2 (d_5 = 171); the sweep runs lags 11 ... 4 and hands X_4 over
        seen, real = [], synthesis._backward_sweep

        def spy(plant, gains, stages, condensed=()):
            stages = list(stages)
            seen.append(([where for where, _ in stages], [where for where, _ in condensed]))
            return real(plant, gains, stages, condensed)

        monkeypatch.setattr(synthesis, "_backward_sweep", spy)
        solve_constrained_qp(*chain_qp(12))
        assert seen == [([f"lag {lag}" for lag in range(11, 3, -1)], ["lag 1", "lag 2", "lag 3"])]

    def test_lags_past_the_last_constrained_one_are_not_condensed(self, chain_plant, chain_gains):
        # lag 1 alone is constrained: lags 2 and 3, fully allowed, run the
        # rank-0 factored stage at V = 0, and lag 1 is condensed from X~ = 0
        eye, ones = np.eye(3, dtype=bool), np.ones((3, 3), bool)
        cs = ConstraintSpace(3, (1, 1, 1), (1, 1, 1), (eye, ones, ones))
        assert condensed_lags(chain_plant, cs) == 1
        v_star, cost = solve_constrained_qp(chain_plant, chain_gains, cs)
        assert (v_star[1:] == 0.0).all() and cost > 0.0


class TestDenseStageWeights:
    """The dense stage takes R_aa and (R C_v)_a from the factors of R, with
    vec(J)'s index y n_u + u split by divmod, and forms neither R nor R C_v."""

    def test_allowed_rows_match_the_formed_matrices(self):
        # n_u = 3 and n_y = 5 in uneven blocks, so a swapped split of the
        # index or a transposed factor reads other entries
        rng = np.random.default_rng(28)
        rows, cols = (1, 2), (2, 3)
        plant = oracles.random_normalized_plant(rng, 4, sum(rows), sum(cols),
                                                block_rows=rows, block_cols=cols)
        gains = riccati_gains(plant)
        psi, omega, k, l = gains.psi, gains.omega, gains.k_gain, gains.l_gain
        r = np.kron(psi, omega)
        r_c = np.hstack([np.kron(psi, omega @ k), np.kron(psi @ l.T, omega)])
        npt.assert_allclose(r_c, r @ vectorized_system(plant, gains).c_v, rtol=1e-13, atol=1e-13)
        pats = oracles.random_monotone_patterns(rng, 12, (2, 2), p_start=0.2)
        cs = ConstraintSpace(12, rows, cols, tuple(pats))
        sets = [np.flatnonzero(cs.entry_mask(lag).ravel(order="F")) for lag in range(1, 13)]
        sets += [np.flatnonzero(rng.random(15) < 0.5) for _ in range(8)]
        sets += [np.arange(0), np.arange(15)]
        for idx in sets:
            r_aa, r_ca = synthesis._allowed_weights(psi, omega, omega @ k, psi @ l.T, idx)
            assert np.array_equal(r_aa, r[np.ix_(idx, idx)])
            assert np.array_equal(r_ca, r_c[idx])
        assert len({idx.size for idx in sets}) >= 8


def traced_qp_peak(plant, gains, cs) -> int:
    """Bytes allocated at the peak of one ``solve_constrained_qp`` call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_constrained_qp(plant, gains, cs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    def test_qp_holds_few_order_squared_arrays(self, chain_qp):
        # the 12-chain (lifted order 288) hands over to the dense stage at
        # lag 5 and condenses lags 3 ... 1, and one panel covers its X; X
        # and one work buffer are two order^2 arrays, C_v^T R C_v / 2 is
        # added from its factors (order 288 is above MATRIX_LIFT_ORDER), and
        # the stored gains and the products' temporaries take about three
        # more, 5.06 in all.  A formed C_v^T R C_v / 2, R or R C_v, or a third
        # X buffer, passes the bound.
        plant, gains, cs = chain_qp(12)
        order = plant.n * (plant.n_ctrl + plant.n_meas)
        assert traced_qp_peak(plant, gains, cs) <= 5.5 * 8 * order**2

    def test_panelled_stage_holds_x_and_one_panel(self, chain_qp):
        # the 16-chain (order 512) runs its dense stages on four panels of
        # X: besides X and the 128-row buffer it holds the stored gains
        # (2.3 order^2) and the stage's temporaries, 4.75 order^2 in all.  A
        # second order x order array, such as a formed C_v^T R C_v / 2 or a
        # work buffer the size of X, passes the bound.
        plant, gains, cs = chain_qp(16)
        order = plant.n * (plant.n_ctrl + plant.n_meas)
        assert traced_qp_peak(plant, gains, cs) <= 5.5 * 8 * order**2


@pytest.fixture
def panel_heights(monkeypatch):
    """Per QP, the rows of each panel that the dense stages after the
    handover pass to (A_bar^T X) A_bar/2, recorded through ``_lift``."""
    seen, real = [], synthesis._lift

    def spy(plant, gains):
        lift, heights = real(plant, gains), []
        seen.append(heights)

        def times_half_a_bar(m, out=None, first=0):
            heights.append(m.shape[0])
            return lift.times_half_a_bar(m, out=out, first=first)

        return lift._replace(times_half_a_bar=times_half_a_bar)

    monkeypatch.setattr(synthesis, "_lift", spy)
    return seen


class TestPanels:
    """Where X holds at least twice ``PANEL_ENTRIES`` doubles, the dense
    stage runs its order x order work on row and column panels of X, in
    place through a panel-sized buffer, and adds C_v^T R C_v / 2 from its
    Kronecker factors.  Lowering the constant panels small instances; they
    solve the same QP as the one-panel stage."""

    @staticmethod
    def assert_panels_agree(monkeypatch, plant, gains, cs, panel_entries):
        monkeypatch.setattr(synthesis, "PANEL_ENTRIES", 10**9)
        v_one, cost_one = solve_constrained_qp(plant, gains, cs)
        monkeypatch.setattr(synthesis, "PANEL_ENTRIES", panel_entries)
        v, cost = solve_constrained_qp(plant, gains, cs)
        assert np.abs(v - v_one).max(initial=0.0) <= 1e-12 * np.abs(v_one).max(initial=0.0)
        assert abs(cost - cost_one) <= 1e-13 * abs(cost_one)

    @staticmethod
    def narrower_last(heights) -> bool:
        """At least three panels, the last narrower than the others."""
        return len(heights) >= 3 and heights[-1] < heights[0]

    def test_chain_runs_five_panels(self, chain_qp, monkeypatch, panel_heights, uncondensed):
        # order 72: 72^2 // 1000 = 5 panels of 15 rows, the last of 12; with
        # no lag condensed, lags 2 and 1 run the dense stage after the
        # handover at lag 3
        plant, gains, cs = chain_qp(6)
        self.assert_panels_agree(monkeypatch, plant, gains, cs, 1000)
        assert panel_heights[0] == [72] and panel_heights[1] == [15, 15, 15, 15, 12]

    def test_condensed_chain_reads_x_on_panels(self, chain_qp, monkeypatch, factored_stages):
        # order 128: 16 panels of 8 rows; the 8-chain hands over at lag 3
        # and condenses lags 2 and 1, so X~ = S^T X S is read from the
        # panels of the handover's X
        plant, gains, cs = chain_qp(8)
        self.assert_panels_agree(monkeypatch, plant, gains, cs, 1000)
        assert factored_stages == [f"lag {lag}" for lag in range(7, 3, -1)] * 2
        assert condensed_lags(plant, cs) == 2

    def test_random_instances_agree(self, monkeypatch, panel_heights, uncondensed):
        # one entry per panel: panels of max(n, n_u) rows, where a panel
        # holds one block row of C_v^T R C_v; with no lag condensed, count
        # the draws whose dense stage after the handover splits X into three
        # or more panels with a narrower last
        rng = np.random.default_rng(5)
        split = 0
        for _ in range(200):
            plant, cs, gains = random_qp_instance(rng)
            panel_heights.clear()
            self.assert_panels_agree(monkeypatch, plant, gains, cs, 1)
            split += self.narrower_last(panel_heights[1])
        assert split >= 10

    def test_condensed_random_instances_agree(self, monkeypatch, factored_stages):
        # the same draws with the first lags condensed; count those that
        # read X~ = S^T X S from the dense stage's X, on one-row panels
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(200):
            plant, cs, gains = random_qp_instance(rng)
            factored_stages.clear()
            self.assert_panels_agree(monkeypatch, plant, gains, cs, 1)
            s = condensed_lags(plant, cs)
            hits += 0 < s and len(factored_stages) < 2 * (cs.n_horizon - s)
        assert hits >= 10


class TestSweepNorms:
    @pytest.mark.parametrize(
        "plant, template, n_max, panel_entries",
        [(make_sweep_plant(), [[1, 0], [1, 1]], 40, None),
         (make_sweep_plant(), [[1, 0], [0, 1]], 40, None),
         (make_sweep_plant(), [[0, 0], [0, 1]], 40, None),
         (make_sweep_plant(), [[1, 1], [1, 1]], 40, None),
         # the benchmark's largest scale, where the diagonal template is
         # refused from N = 52 on; these two templates are refused nowhere
         (make_sweep_plant(1.1), [[1, 0], [1, 1]], 120, None),
         (make_sweep_plant(1.1), [[1, 1], [1, 1]], 120, None),
         # order 72 and one forbidden coordinate a lag: the first 18 steps
         # run factored on the same index array
         (make_chain_plant(6), ~np.eye(6, k=5, dtype=bool), 30, None),
         # the same on five panels of X (TestPanels)
         (make_chain_plant(6), ~np.eye(6, k=5, dtype=bool), 30, 1000)],
        ids=["lower-triangular", "diagonal", "low", "full", "lower-triangular-1.1-to-120",
             "full-1.1-to-120", "chain-6-one-forbidden", "chain-6-one-forbidden-in-panels"],
    )
    def test_one_pass_equals_per_horizon_syntheses(self, plant, template, n_max, panel_entries,
                                                   lift_path, monkeypatch):
        # the one pass shares every stage's arithmetic with the solver that
        # condenses no lag, so the norms agree bit for bit with its sweep
        # cost, the all-allowed template's included; synthesize reports the
        # price of each V, which the priced-cost check holds to that cost
        if panel_entries is not None:
            monkeypatch.setattr(synthesis, "PANEL_ENTRIES", panel_entries)
        blocks = plant.block_rows, plant.block_cols
        pattern = np.array(template, bool)
        norms = list(sweep_norms(plant, pattern, n_max))
        p11_norm_sq, swept, solve = _plant_prefix(plant)[1], [], synthesis.solve_constrained_qp

        def recorded(*args):
            # the sweep's arithmetic is the solver's with no lag condensed
            with monkeypatch.context() as uncondensed:
                uncondensed.setattr(synthesis, "_condensed_lags", lambda *args: 0)
                swept.append(math.sqrt(p11_norm_sq + solve(*args)[1]))
            return solve(*args)

        monkeypatch.setattr(synthesis, "solve_constrained_qp", recorded)
        priced = [synthesize(plant, ConstraintSpace(n, *blocks, (pattern,) * n)).h2_norm
                  for n in range(1, n_max + 1)]
        assert norms == swept
        for norm, h2_norm in zip(norms, priced):
            assert abs(norm**2 - h2_norm**2) <= PRICED_COST_TOL * h2_norm**2

    @pytest.mark.parametrize("n, first_fall", [(2, 18), (3, 15)])
    def test_a_falling_norm_is_refused(self, n, first_fall):
        # each horizon adds constraints, so the optimum cannot fall as N
        # grows; on these chains the diagonal template's sweep drifts
        # (ROADMAP item 11) and falls several horizons before its squared
        # norm would pass below ||P11||^2
        plant, template = make_chain_plant(n), np.eye(n, dtype=bool)
        norms = sweep_norms(plant, template, first_fall + 5)
        delivered = [next(norms) for _ in range(first_fall - 1)]
        assert delivered == list(sweep_norms(plant, template, first_fall - 1))
        with pytest.raises(SolverFailure, match=(
                rf"^squared H2 norm \S+ at horizon N = {first_fall} is below \S+ at"
                rf" N = {first_fall - 1} by \S+, more than 1e-09 of it: the QP cost lost"
                r" its accuracy$")):
            next(norms)

    def test_singular_stage_names_its_step(self, chain_plant, monkeypatch):
        # omega = 0 zeroes R, so h vanishes at the first step
        real = synthesis.riccati_gains
        monkeypatch.setattr(synthesis, "riccati_gains",
                            lambda plant: dataclasses.replace(real(plant), omega=np.zeros((3, 3))))
        norms = sweep_norms(chain_plant, np.eye(3, dtype=bool), 5)
        with pytest.raises(SolverFailure, match=r"^singular stage matrix R = psi kron omega of "
                           r"order 9 at backward step 1 \(3 allowed coordinates\): it is zero$"):
            next(norms)


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
        v_star, _ = solve_constrained_qp(chain_plant, chain_gains, chain_space)
        k = realize_controller(v_star, chain_gains, chain_plant)
        assert k.order == 3 + 3 * 2
        npt.assert_allclose(k.d, 0.0)

    def test_chain_controller_respects_delay_pattern(
        self, chain_plant, chain_gains, chain_space
    ):
        v_star, _ = solve_constrained_qp(chain_plant, chain_gains, chain_space)
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
        # qp_cost is the price of the V returned, and the total adds it
        gains, v = riccati_gains(chain_plant), result.v_star
        assert result.qp_cost == float(np.sum(gains.omega @ v @ gains.psi.T * v))
        assert result.total_norm_sq == result.p11_norm_sq + result.qp_cost

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

    @pytest.mark.parametrize("total", [-1e-3, 0.5, float("nan")])
    def test_negative_norm_squared_is_a_solver_failure(self, chain_plant, monkeypatch, total):
        # ||P11||^2 is the sweep's floor: a step-1 cost that makes the total
        # (in units of ||P11||^2) negative, positive but below the floor, or
        # NaN fails horizon 1
        p11_norm_sq = _plant_prefix(chain_plant)[1]
        cost = (total - 1.0) * p11_norm_sq
        monkeypatch.setattr(synthesis, "_backward_sweep",
                            lambda plant, gains, stages: iter([((), cost)]))
        norms = sweep_norms(chain_plant, np.eye(3, dtype=bool), 5)
        with pytest.raises(SolverFailure, match=(
                r"^squared H2 norm \S+ at horizon N = 1 is NaN or below the centralized floor "
                rf"\|\|P11\|\|\^2 = {re.escape(f'{p11_norm_sq:.6g}')}: the QP cost lost its"
                r" accuracy$")):
            next(norms)

    @pytest.mark.parametrize("seed, factor", [(570417371, 9.47e4), (394056959, 995.0)])
    def test_qp_cost_off_its_priced_v_is_a_solver_failure(self, seed, factor):
        # two of ROADMAP item 1's instances, B2 and C2 scaled: the sweep's
        # cost is off the priced cost of its own V by 4.5e-3 and 1.3e-5 of
        # ||P11||^2 + priced
        plant, _, cs = random_qi_instance(np.random.default_rng(seed))
        plant = dataclasses.replace(plant, b2=factor * plant.b2, c2=factor * plant.c2)
        with pytest.raises(SolverFailure, match=r"^QP cost \S+ at horizon N = 3 is off the priced "
                           r"cost \S+ of its own V by \S+, more than 1e-09 of \|\|P11\|\|\^2 "
                           r"\+ priced: the QP cost lost its accuracy$"):
            synthesize(plant, cs)

    def test_sweep_cost_below_the_floor_reports_the_price_of_v(self, chain_plant, chain_space,
                                                               monkeypatch):
        # a QP that returns V = 0 and a sweep cost of -1e-10 ||P11||^2
        # passes the priced-cost check; the result reports the price of
        # V = 0, so its total is the floor itself
        p11_norm_sq = _plant_prefix(chain_plant)[1]

        def below_the_floor(plant, gains, cs):
            v = np.zeros((cs.n_horizon, plant.n_ctrl, plant.n_meas))
            return v, -1e-10 * p11_norm_sq

        monkeypatch.setattr(synthesis, "solve_constrained_qp", below_the_floor)
        result = synthesize(chain_plant, chain_space)
        assert result.qp_cost == 0.0
        assert result.total_norm_sq == result.p11_norm_sq == p11_norm_sq

    def test_nan_in_v_is_a_solver_failure(self, chain_plant, chain_space, monkeypatch):
        # a V with a NaN prices at NaN, which no gap passes
        def nan_v(plant, gains, cs):
            v = np.zeros((cs.n_horizon, plant.n_ctrl, plant.n_meas))
            v[0, 0, 0] = np.nan
            return v, 0.0

        monkeypatch.setattr(synthesis, "solve_constrained_qp", nan_v)
        with pytest.raises(SolverFailure, match=rf"^QP cost 0 at horizon N = "
                           rf"{chain_space.n_horizon} is off the priced cost nan of its own V "
                           r"by nan, more than 1e-09 of \|\|P11\|\|\^2 \+ priced: the QP cost "
                           r"lost its accuracy$"):
            synthesize(chain_plant, chain_space)

    def test_priced_instance_has_its_loop_norm(self):
        # item 1's third instance, A x 223: its QP cost, 2e17, is within
        # 2.1e-11 of its exactly priced V, and the loop's norm agrees
        plant, _, cs = random_qi_instance(np.random.default_rng(133332660))
        plant = dataclasses.replace(plant, a=223.0 * plant.a)
        result = synthesize(plant, cs)
        loop = closed_loop(plant, result.controller)
        assert h2_norm_sq(loop.model) == pytest.approx(result.total_norm_sq, rel=1e-9)

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
        with pytest.raises(QIViolation, match=r"^not quadratically invariant: witness "
                           r"\(k=0, i=0, j=1, l=1\): d\[0,0\] \+ p\[0,1\] \+ d\[1,1\] = 4 "
                           r"< d\[0,1\] = 5$"):
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
