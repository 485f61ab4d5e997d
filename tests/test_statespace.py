import re

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from delayh2 import (
    AssumptionViolated,
    DimensionMismatch,
    SolverFailure,
    StateSpaceModel,
    UnstableSystem,
    dare_solve,
    h2_norm_sq,
    impulse_response,
    spectral_radius,
)
from delayh2 import statespace
from delayh2.statespace import (
    CERTIFY_MIN_ORDER,
    TOL_STAB,
    _gramian,
    _stability,
    _stein_certificate,
    multiply,
    vec,
)
from conftest import make_chain_plant, no_eigvals

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
        g = StateSpaceModel.static([[1.0, 2.0], [3.0, 4.0]])
        assert g.order == 0
        assert (g.n_outputs, g.n_inputs) == (2, 2)

    def test_stability_predicate_is_strict(self):
        assert scalar_model(0.999).is_stable
        assert not scalar_model(1.0).is_stable
        assert StateSpaceModel.static([[5.0]]).is_stable

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
    """The Stein certificate proves stability where its rounding allows,
    from order ``CERTIFY_MIN_ORDER`` on; the eigenvalues decide elsewhere."""

    def test_nilpotent_is_certified_without_eigenvalues(self, monkeypatch):
        # the powers of Q 1.2 shift Q^T grow to 1.2^39 = 1.2e3, then vanish
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        stable, why = _stability(rotated(1.2 * np.eye(40, k=1)))
        assert stable
        assert why.startswith("Stein certificate from 2^6 powers")

    def test_small_orders_go_to_the_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        assert _stability(0.5 * np.eye(CERTIFY_MIN_ORDER))[0]
        with pytest.raises(AssertionError, match="eigenvalues computed"):
            _stability(0.5 * np.eye(CERTIFY_MIN_ORDER - 1))

    def test_riccati_closed_loop_uses_the_predicate(self, monkeypatch):
        plant = make_chain_plant()
        monkeypatch.setattr(statespace, "_stability", lambda a: (False, "verdict"))
        with pytest.raises(AssumptionViolated, match=r"^Riccati closed loop is not stable \(verdict\)"):
            dare_solve(plant.a, plant.b2, plant.c1.T @ plant.c1)

    def test_zero_matrix_is_certified(self):
        certified, why = _stein_certificate(np.zeros((3, 3)))
        assert certified
        assert why.startswith("Stein certificate from 2^0 powers")

    @pytest.mark.parametrize("a", [
        rotated(3.0 * np.eye(16, k=1)),
        rotated(0.5 * np.eye(30) + np.eye(30, k=1)),
    ], ids=["nilpotent-3-shift", "jordan-0.5"])
    def test_transient_growth_defeats_the_certificate(self, a):
        # the powers grow to 3^15 = 1.4e7 and about 10^7.7 before they
        # decay, so the rounding bound of the Stein residual exceeds the
        # residual; both matrices are stable
        certified, why = _stein_certificate(a)
        assert not certified
        assert re.fullmatch(r"residual rounding bound \S+ after \d doubling steps", why)
        assert spectral_radius(a) < 1.0 - TOL_STAB

    @pytest.mark.parametrize("lam", [1.0, 1.0 + 1e-8, 1.0 - 1e-8])
    def test_no_certificate_near_the_margin(self, lam):
        # ||A^4||_F = 1.6e5, yet A^8 has norm |lam|^8: rounding in the powers
        # is far above the margin, which a power bound ||A^(2^k)||^(1/2^k)
        # without error control takes for decay
        for seed in range(20):
            assert not _stein_certificate(near_margin(lam, seed))[0]

    def test_certificate_is_sound(self):
        # every certified matrix has spectral radius below 1 - TOL_STAB, and
        # the predicate's verdict is the eigenvalues' wherever they decide
        rng = np.random.default_rng(2024)
        certified = 0
        for _ in range(200):
            m = int(rng.integers(1, 49))
            a = rng.standard_normal((m, m))
            a *= rng.uniform(0.2, 1.8) / spectral_radius(a)
            stable = spectral_radius(a) < 1.0 - TOL_STAB
            proof, _ = _stein_certificate(a)
            assert stable or not proof
            assert _stability(a)[0] == stable
            certified += proof
        for _ in range(100):
            lam = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, -6.0)
            a = near_margin(lam, int(rng.integers(2**32)), rng.uniform(1.0, 30.0),
                            int(rng.integers(2, 9)))
            assert not _stein_certificate(a)[0]
            assert _stability(a)[0] == (spectral_radius(a) < 1.0 - TOL_STAB)
        assert certified > 50


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
        with pytest.raises(ValueError):
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
        resp = impulse_response(StateSpaceModel.static(d), horizon)
        assert resp.shape == (horizon + 1, 2, 3)
        npt.assert_array_equal(resp[0], d)
        npt.assert_array_equal(resp[1:], 0.0)


class TestAlgebraHelpers:
    def test_multiply_matches_convolution(self):
        rng = np.random.default_rng(3)
        g = oracles.random_stable_model(rng, 3, 2, 2)
        h = oracles.random_stable_model(rng, 2, 4, 2)
        prod = multiply(g, h)
        gl = oracles.Laurent.from_model(g, 30)
        hl = oracles.Laurent.from_model(h, 30)
        want = gl.multiply(hl, 0, 15)
        got = impulse_response(prod, 15)
        for k in range(16):
            npt.assert_allclose(got[k], want.at(k), atol=1e-10)


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
        g = StateSpaceModel.static([[2.0, 0.0], [0.0, 0.0]])
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

    def test_uncontrollable_unstable_mode_rejected(self):
        # second state is unstable and unreachable: no stabilizing solution
        a = np.diag([0.5, 2.0])
        b = np.array([[1.0], [0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverFailure):
                dare_solve(a, b, np.eye(2))
