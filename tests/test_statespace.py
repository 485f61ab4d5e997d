import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given, seed, settings, strategies as st

import oracles
from delayh2 import (
    AssumptionViolated,
    DimensionMismatch,
    SolverFailure,
    StateSpaceModel,
    UnstableSystem,
    conformance,
    constraint_space,
    dare_solve,
    delay_matrix,
    h2_norm_sq,
    impulse_response,
    plant_block_delays,
    realize_controller,
    riccati_gains,
    spectral_radius,
    synthesize,
)
from delayh2 import delaymodel, statespace, synthesis, verify
from delayh2.statespace import (
    TOL_STAB,
    _diagonal_blocks,
    _gramian,
    _stability,
    vec,
)
from delayh2.synthesis import coprime_factorization
from conftest import make_chain_graph, make_chain_plant, no_eigvals, static_model

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_model(a, b=1.0, c=1.0, d=0.0):
    return StateSpaceModel([[a]], [[b]], [[c]], [[d]])


class TestModel:
    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceModel(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), 0.0)
        with pytest.raises(DimensionMismatch):
            StateSpaceModel(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), 0.0)

    def test_static_gain_has_zero_order(self):
        g = static_model([[1.0, 2.0], [3.0, 4.0]])
        assert g.order == 0
        assert (g.n_outputs, g.n_inputs) == (2, 2)

    def test_stability_predicate_is_strict(self):
        assert scalar_model(0.999).is_stable
        assert not scalar_model(1.0).is_stable
        assert static_model([[5.0]]).is_stable

    def test_stability_predicate_agrees_with_h2_norm(self):
        # a pole inside the unit circle but within the stability margin is
        # unstable for the norm, so the predicate must say so too
        g = scalar_model(1.0 - 1e-12)
        with pytest.raises(UnstableSystem, match="eigenvalues: spectral radius 1 >= 1 - 1e-09"):
            h2_norm_sq(g)
        assert not g.is_stable

    def test_vec_is_column_stacking(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        npt.assert_array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])


def rotated(a, seed=0):
    """Q a Q^T for a random orthogonal Q: the same spectrum and norms,
    with every entry filled."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(a.shape))
    return q @ a @ q.T


def near_margin(lam, seed, gain=20.0, order=5):
    """Q (lam (+) gain shift) Q^T: spectral radius |lam|, with powers that
    grow to gain^(order - 1) before the shift part vanishes."""
    a = np.zeros((order + 1, order + 1))
    a[0, 0] = lam
    a[1:, 1:] = gain * np.eye(order, k=1)
    return rotated(a, seed)


class TestStabilityPredicate:
    """The predicate's verdict is the eigenvalues' wherever it is asked."""

    def test_riccati_closed_loop_uses_the_predicate(self, monkeypatch):
        plant = make_chain_plant()
        monkeypatch.setattr(statespace, "_stability", lambda a: (False, "verdict"))
        with pytest.raises(AssumptionViolated, match=r"^Riccati closed loop is not stable \(verdict\)"):
            dare_solve(plant.a, plant.b2, plant.c1.T @ plant.c1)

    def test_verdict_is_the_spectral_radius(self):
        # random dense matrices of radius 0.2 to 1.8, and matrices of radius
        # within 1e-6 of 1 whose powers first grow by up to 30^7
        rng = np.random.default_rng(2024)
        for _ in range(200):
            m = int(rng.integers(1, 49))
            a = rng.standard_normal((m, m))
            a *= rng.uniform(0.2, 1.8) / spectral_radius(a)
            assert _stability(a)[0] == (spectral_radius(a) < 1.0 - TOL_STAB)
        for _ in range(100):
            lam = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, -6.0)
            a = near_margin(lam, int(rng.integers(2**32)), rng.uniform(1.0, 30.0),
                            int(rng.integers(2, 9)))
            assert _stability(a)[0] == (spectral_radius(a) < 1.0 - TOL_STAB)


def block_triangular(blocks, entropy):
    """A random block upper triangular matrix and the boundaries of its
    diagonal blocks: ``blocks`` lists (size, spectral radius) per block, and
    every entry on or above the block diagonal is drawn from ``entropy``."""
    rng = np.random.default_rng(entropy)
    bounds = np.concatenate(([0], np.cumsum([size for size, _ in blocks])))
    a = rng.standard_normal((bounds[-1], bounds[-1]))
    for (s, t), (_, radius) in zip(zip(bounds, bounds[1:]), blocks):
        a[t:, s:t] = 0.0
        a[s:t, s:t] *= radius / spectral_radius(a[s:t, s:t])
    return a, bounds


BLOCKS = st.lists(st.tuples(st.integers(1, 12), st.floats(0.2, 1.5)), min_size=1, max_size=6)
SPLIT_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


class TestBlockTriangularSplit:
    """``_stability`` decides each diagonal block of the finest block upper
    triangular partition alone."""

    @seed(20130705)
    @SPLIT_SETTINGS
    @given(BLOCKS, st.integers(0, 2**32 - 1))
    def test_verdict_is_that_of_the_blocks_one_by_one(self, blocks, entropy):
        a, bounds = block_triangular(blocks, entropy)
        assert _diagonal_blocks(a) == bounds.tolist()
        alone = [_stability(a[s:t, s:t].copy())[0] for s, t in zip(bounds, bounds[1:])]
        assert _stability(a)[0] == all(alone)

    @seed(20130706)
    @SPLIT_SETTINGS
    @given(BLOCKS.filter(lambda blocks: len(blocks) > 1), st.integers(0, 2**32 - 1))
    def test_an_entry_below_a_boundary_merges_the_blocks(self, blocks, entropy):
        a, bounds = block_triangular(blocks, entropy)
        rng = np.random.default_rng(entropy + 1)
        k = bounds[rng.integers(1, bounds.size - 1)]
        i, j = rng.integers(k, bounds[-1]), rng.integers(0, k)
        a[i, j] = 1e-300
        merged = bounds[(bounds <= j) | (bounds > i)]
        assert _diagonal_blocks(a) == merged.tolist()

    def test_zero_rows_and_columns_split_off(self):
        a = np.zeros((4, 4))
        a[1, 3] = 2.0
        assert _diagonal_blocks(a) == [0, 1, 2, 3, 4]
        assert _stability(a) == (True, "4 diagonal blocks; 4 of order 1 below 1 - 1e-09")

    def test_an_unstable_block_is_named(self, monkeypatch):
        a = np.zeros((5, 5))
        a[:2, :2] = [[0.5, 1.0], [-1.0, 0.5]]  # radius 1.118
        a[2, 2], a[3:, 3:] = -0.5, 0.9 * np.eye(2)[::-1]
        a[0, 2:] = 1.0
        assert _stability(a) == (
            False, "3 diagonal blocks; block 0:2: eigenvalues: spectral radius 1.11803 "
            ">= 1 - 1e-09")
        a[2, 2] = np.nan
        assert _stability(a) == (False, "3 diagonal blocks; block 2:3: modulus nan >= 1 - 1e-09")
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        a[:2, :2] = np.triu(a[:2, :2])
        a[2, 2] = -1.0
        assert _stability(a) == (False, "4 diagonal blocks; block 2:3: modulus 1 >= 1 - 1e-09")


class TestImpulseResponse:
    def test_nilpotent_scalar(self):
        resp = impulse_response(scalar_model(0.0), 3)
        npt.assert_allclose(resp[:, 0, 0], [0.0, 1.0, 0.0, 0.0])

    def test_geometric_scalar(self):
        resp = impulse_response(scalar_model(0.5), 2)
        npt.assert_allclose(resp[:, 0, 0], [0.0, 1.0, 0.5])

    def test_chain_cross_block_opens_at_lag_three(self):
        # the (1,3) entry must stay zero until the signal has crossed both
        # nearest-neighbour couplings: first nonzero Markov parameter is
        # C A^2 B, frozen from the matrix-power oracle
        plant = make_chain_plant()
        expected = oracles.markov_terms(plant.a, plant.b2, plant.c2, np.zeros((3, 3)), 3)
        resp = impulse_response(plant.g22, 3)
        for k in range(4):
            npt.assert_allclose(resp[k], expected[k])
        npt.assert_allclose([resp[k][0, 2] for k in range(4)], [0.0, 0.0, 0.0, 1.0])

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(7)
        g = oracles.random_stable_model(rng, 4, 2, 3)
        resp = impulse_response(g, 12)
        expected = oracles.markov_terms(g.a, g.b, g.c, g.d, 12)
        for k in range(13):
            npt.assert_allclose(resp[k], expected[k], atol=1e-12)

    def test_negative_horizon_rejected(self):
        with pytest.raises(DimensionMismatch):
            impulse_response(scalar_model(0.0), -1)

    @pytest.mark.parametrize("horizon", [0, 1, 5])
    def test_stacked_shape(self, horizon):
        g = oracles.random_stable_model(np.random.default_rng(8), 3, 2, 4)
        resp = impulse_response(g, horizon)
        assert isinstance(resp, np.ndarray)
        assert resp.shape == (horizon + 1, 4, 2)
        npt.assert_array_equal(resp[0], g.d)

    @pytest.mark.parametrize("horizon", [0, 3])
    def test_zero_state_model_is_feedthrough_then_zero(self, horizon):
        d = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        resp = impulse_response(static_model(d), horizon)
        assert resp.shape == (horizon + 1, 2, 3)
        npt.assert_array_equal(resp[0], d)
        npt.assert_array_equal(resp[1:], 0.0)

    @pytest.mark.parametrize("markov", [[0.0, 1e150], [0.0, 1e-50, 1e150],
                                        [0.0, 1e-250, 1e-50, 1e150]])
    def test_no_product_after_the_last_lag(self, markov):
        # C A^(k-1) B is finite up to the last lag, 1e150, and one more
        # product with A overflows, which the suite turns into an error
        g = StateSpaceModel([[1e200]], [[markov[1]]], [[1.0]], [[0.0]])
        npt.assert_array_equal(impulse_response(g, len(markov) - 1)[:, 0, 0], markov)

    @pytest.mark.parametrize("caller", ["plant block delays", "Bezout check",
                                        "conformance fallback"])
    def test_callers_are_bit_identical_to_the_full_recursion(self, caller, monkeypatch):
        # the recursion that also forms the discarded product after the last
        # lag, patched in where each caller looks the function up
        plant = make_chain_plant(4)
        d = delay_matrix(make_chain_graph(4))
        cs = constraint_space(d, plant.block_rows, plant.block_cols)
        gains = riccati_gains(plant)
        k = realize_controller(synthesize(plant, cs).v_star, gains, plant)
        a = k.a.copy()
        a[plant.n + plant.n_meas, plant.n] = np.nextafter(1.0, 2.0)  # no shift register
        c = k.c.copy()
        c[0, plant.n + 1] += 0.05  # V_1 entry (0, 1), forbidden at lag 1
        k = StateSpaceModel(a, k.b, c, k.d)
        module, run = {
            "plant block delays": (delaymodel, lambda: plant_block_delays(
                plant.g22, plant.block_rows, plant.block_cols, 6)),
            "Bezout check": (synthesis, lambda: coprime_factorization(plant, gains)),
            "conformance fallback": (verify, lambda: conformance(k, cs)),
        }[caller]
        seen = []

        def full_recursion(g, horizon):
            seen.append(horizon)
            return oracles.model_terms(g, horizon)

        got = run()
        monkeypatch.setattr(module, "impulse_response", full_recursion)
        want = run()
        assert seen
        if caller == "conformance fallback":
            assert not got.ok
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


class TestH2Norm:
    def test_zero_system(self):
        assert h2_norm_sq(scalar_model(0.5, c=0.0)) == 0.0

    def test_scalar_geometric_series(self):
        # sum of squared Markov parameters 1 + a^2 + a^4 + ... = 1/(1-a^2)
        got = h2_norm_sq(scalar_model(0.5))
        npt.assert_allclose(got, 1.0 / (1.0 - 0.25), rtol=1e-12)
        npt.assert_allclose(
            got, oracles.h2_sq_truncated([[0.5]], [[1]], [[1]], [[0]], 200), rtol=1e-12
        )

    def test_static_gain_frobenius(self):
        g = static_model([[2.0, 0.0], [0.0, 0.0]])
        assert h2_norm_sq(g) == 4.0

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            h2_norm_sq(scalar_model(1.0))

    def test_matches_truncated_markov_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = oracles.random_stable_model(rng, int(rng.integers(1, 5)), 2, 2, rho=0.8)
            horizon = oracles.horizon_for(spectral_radius(g.a), tail=1e-12)
            want = oracles.h2_sq_truncated(g.a, g.b, g.c, g.d, horizon)
            npt.assert_allclose(h2_norm_sq(g), want, rtol=1e-6)


class TestDlyapCross:
    """The observability Gramian W = A^T W A + C^T C behind :func:`h2_norm_sq`,
    the symmetric Stein solve of :func:`statespace._gramian`."""

    def test_zero_dynamics_degenerates(self):
        c = np.array([[1.0, 2.0], [3.0, -1.0]])
        got = _gramian(np.zeros((2, 2)), c)
        npt.assert_allclose(got, c.T @ c)

    def test_scalar_geometric_fixed_point(self):
        got = _gramian(np.array([[0.5]]), np.array([[1.0]]))
        npt.assert_allclose(got, [[1.0 / 0.75]], rtol=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(12)
        a = oracles.random_stable_model(rng, 3, 1, 1, rho=0.7).a
        c = rng.standard_normal((2, 3))
        got = _gramian(a, c)
        want = oracles.cross_gramian_series(a, c, a, c, 400)
        npt.assert_allclose(got, want, atol=1e-10)

    def test_defining_equation_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = oracles.random_stable_model(rng, 4, 1, 1, rho=0.9).a
            c = rng.standard_normal((2, 4))
            w = _gramian(a, c)
            residual = w - (a.T @ w @ a + c.T @ c)
            assert np.linalg.norm(residual) <= 1e-10 * (1 + np.linalg.norm(w))

    def test_matches_dense_kronecker_solve(self):
        rng = np.random.default_rng(14)
        a = oracles.random_stable_model(rng, 9, 1, 1, rho=0.95).a
        c = rng.standard_normal((3, 9))
        got = _gramian(a, c)
        want = oracles.stein_kronecker(a, c, a, c)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_jordan_block_with_large_transient_growth(self):
        # A^k = lam^k I + k lam^(k-1) mu N peaks near 3.7e3 at k = 100; with
        # r = lam^2 the Gramian sum of (A^T)^k A^k is, entry by entry,
        # [[S0, mu S1], [mu S1, mu^2 S2 + S0]] with S0 = 1/(1-r),
        # S1 = r/(lam (1-r)^2) and S2 = (1+r)/(1-r)^3
        lam, mu = 0.99, 100.0
        r = lam * lam
        s0, s1, s2 = 1 / (1 - r), r / (lam * (1 - r) ** 2), (1 + r) / (1 - r) ** 3
        want = np.array([[s0, mu * s1], [mu * s1, mu * mu * s2 + s0]])
        a = np.array([[lam, mu], [0.0, lam]])
        got = _gramian(a, np.eye(2))
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_scalar_pole_next_to_the_unit_circle(self):
        # 1 - a is exact in floating point, so the oracle carries only a
        # rounding or two; the solution's condition number in a is
        # 2a^2/(1-a^2) ~ 1e6, so any backward-stable solver is within
        # about 1e6 eps ~ 2e-10 of it
        a = 1.0 - 1e-6
        got = _gramian(np.array([[a]]), np.array([[1.0]]))
        npt.assert_allclose(got, [[1.0 / ((1.0 - a) * (1.0 + a))]], rtol=1e-9)

    @pytest.mark.parametrize("order", [156, 420])
    def test_matches_scipy_at_closed_loop_sizes(self, order):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(order)
        g = oracles.random_stable_model(rng, order, 1, 4, rho=0.98)
        got = _gramian(g.a, g.c)
        want = linalg.solve_discrete_lyapunov(g.a.T, g.c.T @ g.c)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestDareSolve:
    def test_zero_dynamics_returns_q(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        npt.assert_allclose(dare_solve(np.zeros((2, 2)), np.eye(2), q), q, atol=1e-12)

    def test_scalar_golden_ratio(self):
        got = dare_solve([[1.0]], [[1.0]], [[1.0]])
        npt.assert_allclose(got, [[GOLDEN]], rtol=1e-10)

    @pytest.mark.parametrize(
        "a, b, q",
        [(1.0, 0.01, 1e-4), (0.999, 0.05, 1.0)],
        ids=["integrator-weak-input", "slow-pole"],
    )
    def test_scalar_closed_form_near_unit_circle(self, a, b, q):
        # the scalar equation is b^2 x^2 + beta x - q = 0 with
        # beta = 1 - a^2 - q b^2; both cases have beta < 0, where the
        # positive root has no cancellation.  Closed loops: 0.9999 and 0.951
        beta = 1.0 - a * a - q * b * b
        assert beta < 0
        want = (-beta + np.sqrt(beta * beta + 4.0 * b * b * q)) / (2.0 * b * b)
        npt.assert_allclose(dare_solve([[a]], [[b]], [[q]]), [[want]], rtol=1e-10)

    def test_chain_plant_riccati_residual(self):
        plant = make_chain_plant()
        q = plant.c1.T @ plant.c1
        x = dare_solve(plant.a, plant.b2, q)
        rhs = q + plant.a.T @ x @ plant.a - plant.a.T @ x @ plant.b2 @ np.linalg.solve(
            np.eye(3) + plant.b2.T @ x @ plant.b2, plant.b2.T @ x @ plant.a
        )
        assert np.linalg.norm(x - rhs) < 1e-10 * (1 + np.linalg.norm(x))

    def test_residual_and_closed_loop_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, m))
            c = rng.standard_normal((n, n))
            q = c.T @ c + 1e-6 * np.eye(n)
            x = dare_solve(a, b, q)
            k = -np.linalg.solve(np.eye(m) + b.T @ x @ b, b.T @ x @ a)
            rhs = q + a.T @ x @ a + a.T @ x @ b @ k
            assert np.linalg.norm(x - rhs) < 1e-9 * (1 + np.linalg.norm(x))
            assert spectral_radius(a + b @ k) < 1.0

    def test_matches_scipy_on_random_stabilizable_instances(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(32)
        for n, m in [(2, 1), (5, 2), (12, 3), (30, 4)]:
            a = 1.2 * rng.standard_normal((n, n)) / np.sqrt(n)
            b = rng.standard_normal((n, m))
            c = rng.standard_normal((n, n))
            q = c.T @ c
            want = linalg.solve_discrete_are(a, b, q, np.eye(m))
            got = dare_solve(a, b, q)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_the_solution_does_not_depend_on_the_units(self):
        # B -> 2^(-e/2) B, Q -> 2^e Q leaves I + G H, every A_k and so the
        # step count unchanged and scales every H_k by 2^e, exactly: the
        # stop must not depend on the scale of X.  The 3-player chain's
        # control equation and a random stable instance
        plant = make_chain_plant()
        rng = np.random.default_rng(33)
        m = rng.standard_normal((4, 4))
        c = rng.standard_normal((2, 4))
        for a, b, q in ((plant.a, plant.b2, plant.c1.T @ plant.c1),
                        (0.9 * m / spectral_radius(m), rng.standard_normal((4, 2)), c.T @ c)):
            x = dare_solve(a, b, q)
            for e in (-64, -32, 32, 64):
                assert np.array_equal(dare_solve(a, 2.0 ** (-e / 2) * b, 2.0 ** e * q),
                                      2.0 ** e * x), e

    def test_singular_step_names_the_equation_step_and_condition(self, monkeypatch):
        # a synthetic singular I + G H at step 2, the third solve of the
        # chain's control equation; the condition number is the real
        # matrix's, computed on the failure path
        real_solve = np.linalg.solve
        seen = []

        def singular_third_solve(w, rhs):
            seen.append(w)
            if len(seen) == 3:
                raise np.linalg.LinAlgError("synthetic singular matrix")
            return real_solve(w, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular_third_solve)
        plant = make_chain_plant()
        with pytest.raises(SolverFailure) as failure:
            dare_solve(plant.a, plant.b2, plant.c1.T @ plant.c1)
        assert str(failure.value) == ("Riccati doubling: singular I + G H at step 2"
                                      f" (cond(I + G H) = {np.linalg.cond(seen[2]):.3g})")

    @pytest.mark.xfail(
        strict=True, raises=AssumptionViolated,
        reason="doubling from H_0 = Q = 0 returns the non-stabilizing solution X = 0 "
        "(ROADMAP item 4)",
    )
    def test_zero_state_weight_finds_the_stabilizing_solution(self):
        # the chain with C1's state rows zeroed, so Q = 0: no eigenvalue of A
        # (2.914, 1.5, 0.086) is on the unit circle, so the stabilizing
        # solution exists; scipy finds it with closed-loop radius 2/3
        linalg = pytest.importorskip("scipy.linalg")
        plant = make_chain_plant()
        q = np.zeros((3, 3))
        want = linalg.solve_discrete_are(plant.a, plant.b2, q, np.eye(3))
        got = dare_solve(plant.a, plant.b2, q)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_uncontrollable_unstable_mode_rejected(self):
        # second state is unstable and unreachable: no stabilizing solution
        a = np.diag([0.5, 2.0])
        b = np.array([[1.0], [0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverFailure):
                dare_solve(a, b, np.eye(2))
