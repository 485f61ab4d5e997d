"""H2-optimal output feedback under delay constraints.

The pipeline: the two Riccati equations of the centralized LQG problem,
checked by their residuals (:func:`riccati_gains`); ||P11||^2 in closed
form from the two solutions (:func:`_plant_prefix`); a finite quadratic
program over the first N impulse-response coefficients of the free
parameter V, held as one ``(N, n_ctrl, n_meas)`` array and solved exactly
as a finite-horizon LQR (:func:`solve_constrained_qp`) on the
Kronecker-lifted FIR recursion, applied as formed matrices at small lifted
order and through its factors above (:func:`_lift`), by one backward sweep
over the stages, on a factor of the cost-to-go while its rank is small and
on the dense cost-to-go after (:func:`_backward_sweep`); and the
controller in closed form (:func:`realize_controller`).  :func:`sweep_norms`
runs the plant's part and one backward pass for every horizon of a
repeated pattern.  A squared norm below the centralized floor ||P11||^2,
or NaN, or a qp_cost off the priced cost of its own V is the QP's lost
accuracy and raises :class:`SolverFailure` (:func:`synthesize`), and so
is a sweep's squared norm that falls as N grows.
:func:`vectorized_system`, :func:`coprime_factorization` and
:func:`model_matching_matrices` are references off the pipeline, kept here
because ``perfbench`` calls or traces them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .delaymodel import ConstraintSpace, DelayMatrix, QiCheck, block_sizes, check_qi
from .delaymodel import expand_pattern, plant_block_delays, qi_witness_text
from .errors import AssumptionViolated, DimensionMismatch, QIViolation, SolverFailure
from .statespace import (
    StateSpaceModel,
    TOL_STAB,
    dare_solve,
    h2_norm_sq,  # off the pipeline; kept while the benchmark traces it as synthesis.p11_norm
    impulse_response,
    vec,
)

# Tolerance of the plant's normalization test D^T [C D] = [0 I]: on D^T D - I
# as it stands, and on the cross term D^T C relative to max|C|, whose
# products it sums, so the verdict does not depend on C's units.
NORMALIZATION_TOL = 1e-9

# Bound on the norm-wise relative residual of each Riccati equation
# (:func:`riccati_residuals`).  A backward stable solve leaves a residual of
# a modest multiple of eps, but the multiple grows with the conditioning of
# the equation.  Measured in units of eps, the correct solutions of the
# chains n = 3 ... 20 and the three configs read 0.18 - 0.46, while the
# 6-chain with B2 and C2 scaled by s = 1e-2, 1e-3 and 1e-4 reads 3.8,
# 1.06e3 and 5.1e4, growing like 1/s^2.  So a c n eps bound would refuse
# plants that synthesize correctly.  The 6-chain's K or L perturbed by
# 0.05 N(0, 1) reads 5.4e13 eps or more (20 draws each).  sqrt(eps), 6.7e7
# eps, lies three decades above the first side and five below the second.
RICCATI_RESIDUAL_TOL = math.sqrt(np.finfo(float).eps)

# The QP's backward sweep runs on a factor of its cost-to-go while the
# factor's rank bound stays within this share of the lifted order, then
# hands X to the dense stage, which is cheaper once the rank nears the
# order.  The chains n = 12, 16 and 20 (orders 288 to 800; one BLAS thread,
# x86 VM, in process, median of 8 alternating rounds) took 0.42/0.36/0.34/
# 0.36/0.39/0.45 s for the three syntheses at shares 0.25/0.4/0.5/0.6/0.75/1,
# lowest at 0.5.  At 0.5 the 20-chain runs lags 19 ... 11 factored and
# 10 ... 1 dense.  Per synthesis (median of 300 alternating rounds), 0.5
# against 0.25 read +0.9%/-1.3%/-1.2%/-5.6% at n = 5/6/7/8, where the
# factored stage's fixed numpy overhead weighs most.
FACTORED_RANK_SHARE = 0.5

# Bound on the gap between the QP's cost and the priced cost of its own V,
# relative to ||P11||^2 + priced, the squared norm it feeds (:func:`synthesize`).
# The price, a direct sum over the lags, does not inherit the backward
# sweep's rounding.  1e-9 is the relative match that the closed loop's
# norm is held to.  The gap reads 4e-12 on the 20-chain; over 397 random
# QI instances, many of them badly scaled (ROADMAP item 7's recipe), it
# spreads up to 1e-2, 20 of them above 1e-9.
PRICED_COST_TOL = 1e-9

# Up to this lifted order :func:`_lift` applies the lift as matrices formed
# once per QP, above it through its n x n factors.  Per step of 60 dense
# stages of the diagonal pattern on A = 0.5 I + 0.25 (its two off-diagonals),
# B2 = C2 = I, so n_ctrl = n_meas = n and 1 x 1 blocks (one BLAS thread, x86
# VM, in process, median of 40 alternating rounds), the dense stage on the
# matrices took 0.45/0.46/0.45/0.50/0.66/0.88/1.48 x the factors' time at
# orders 8/18/32/50/72/98/128, and the whole QP of the chains n = 3 ... 8
# (orders 18 to 128, 200 rounds) 1.007/0.993/0.983/0.969/1.033/1.229 x: the
# QP's crossover lies between orders 72 and 98, above this limit.
MATRIX_LIFT_ORDER = 64


@dataclass(frozen=True)
class GeneralizedPlant:
    """Four-block discrete-time plant.

        x+ = A x + B1 w + B2 u
        z  = C1 x          + D12 u
        y  = C2 x + D21 w

    with the usual normalization D12^T [C1 D12] = [0 I] and
    D21 [B1^T D21^T] = [0 I], validated at construction (not enforced by
    rescaling, since rescaling would silently change reported norms).
    ``block_rows`` partitions the control input u into per-subsystem blocks
    and ``block_cols`` partitions the measurement y (positive whole sizes).
    """

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    d12: np.ndarray
    d21: np.ndarray
    block_rows: Tuple[int, ...]
    block_cols: Tuple[int, ...]

    def __post_init__(self):
        mats = {
            name: np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            for name in ("a", "b1", "b2", "c1", "c2", "d12", "d21")
        }
        for name, m in mats.items():
            # NaN would pass every tolerance test below
            if not np.isfinite(m).all():
                raise AssumptionViolated(f"{name} has a non-finite entry")
        n = mats["a"].shape[0]
        if mats["a"].shape != (n, n):
            raise DimensionMismatch("A must be square")
        m1, m2 = mats["b1"].shape[1], mats["b2"].shape[1]
        p1, p2 = mats["c1"].shape[0], mats["c2"].shape[0]
        expected = {
            "b1": (n, m1),
            "b2": (n, m2),
            "c1": (p1, n),
            "c2": (p2, n),
            "d12": (p1, m2),
            "d21": (p2, m1),
        }
        for name, shape in expected.items():
            if mats[name].shape != shape:
                raise DimensionMismatch(f"{name} is {mats[name].shape}, expected {shape}")
        rows, cols = block_sizes(self.block_rows), block_sizes(self.block_cols)
        if sum(rows) != m2:
            raise DimensionMismatch("block_rows must sum to the control dimension")
        if sum(cols) != p2:
            raise DimensionMismatch("block_cols must sum to the measurement dimension")

        # D^T [C D] = [0 I] for (D12, C1) and its dual (D21^T, B1^T)
        for d, c, label in ((mats["d12"], mats["c1"], "D12^T [C1 D12]"),
                            (mats["d21"].T, mats["b1"].T, "D21 [B1^T D21^T]")):
            if (
                np.abs(d.T @ c).max(initial=0.0) > NORMALIZATION_TOL * np.abs(c).max(initial=0.0)
                or np.abs(d.T @ d - np.eye(d.shape[1])).max() > NORMALIZATION_TOL
            ):
                raise AssumptionViolated(f"normalization {label} = [0 I] fails")

        a = mats["a"]
        outside = [lam for lam in np.linalg.eigvals(a) if abs(lam) >= 1.0 - TOL_STAB]
        _check_stabilizable(a, mats["b2"], outside, "(A, B2)")
        _check_stabilizable(a.T, mats["c2"].T, outside, "(A, C2)")

        for name, m in mats.items():
            object.__setattr__(self, name, m)
        object.__setattr__(self, "block_rows", rows)
        object.__setattr__(self, "block_cols", cols)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_dist(self) -> int:
        return self.b1.shape[1]

    @property
    def n_ctrl(self) -> int:
        return self.b2.shape[1]

    @property
    def n_perf(self) -> int:
        return self.c1.shape[0]

    @property
    def n_meas(self) -> int:
        return self.c2.shape[0]

    @property
    def g22(self) -> StateSpaceModel:
        """Control-to-measurement channel seen by the controller."""
        return StateSpaceModel(self.a, self.b2, self.c2, np.zeros((self.n_meas, self.n_ctrl)))


def _check_stabilizable(a: np.ndarray, b: np.ndarray, outside, label: str) -> None:
    """PBH test of (a, b) at ``outside``, the eigenvalues of ``a`` on or
    outside the unit circle (A and A^T share them)."""
    n = a.shape[0]
    for lam in outside:
        pencil = np.hstack([a - lam * np.eye(n), b.astype(complex)])
        if np.linalg.matrix_rank(pencil) < n:
            raise AssumptionViolated(
                f"{label} not stabilizable/detectable: eigenvalue {lam:.4g} is fixed"
            )


@dataclass(frozen=True)
class RiccatiGains:
    """Solutions and gains of the control/filter Riccati pair.

    omega = I + B2^T X B2 and psi = I + C2 Y C2^T are the innovation
    weights; the regulator loop a_k = A + B2 K and the estimator loop
    a_l = A + L C2 are stable, which :func:`dare_solve` checks.
    """

    x_ctrl: np.ndarray
    y_filt: np.ndarray
    k_gain: np.ndarray
    l_gain: np.ndarray
    omega: np.ndarray
    psi: np.ndarray
    a_k: np.ndarray
    a_l: np.ndarray


class VectorizedSystem(NamedTuple):
    """The dense lift of :func:`_lift`, x_{i+1} = a_v x_i + b_v vec(V_i) and
    vec(J_i) = c_v x_i + vec(V_i) from x1, as :func:`vectorized_system` forms it."""

    a_v: np.ndarray
    b_v: np.ndarray
    c_v: np.ndarray
    x1: np.ndarray


def _fir_realization(v: np.ndarray):
    """Shift register (A, B, C) of the strictly proper FIR matrix
    sum_i V_i z^-i for a ``(N, n_ctrl, n_meas)`` stack V; order N * n_meas."""
    n_terms, n_ctrl, n_meas = v.shape
    order = n_terms * n_meas
    c = v.swapaxes(0, 1).reshape(n_ctrl, order)
    return np.eye(order, k=-n_meas), np.eye(order, n_meas), c


@dataclass(frozen=True)
class SynthesisResult:
    controller: StateSpaceModel
    v_star: np.ndarray
    p11_norm_sq: float
    qp_cost: float
    total_norm_sq: float

    @property
    def h2_norm(self) -> float:
        return _h2_norm(self.total_norm_sq, self.p11_norm_sq, self.v_star.shape[0])


def _h2_norm(total_norm_sq: float, p11_norm_sq: float, horizon: int) -> float:
    """sqrt(||P11||^2 + qp_cost) at ``horizon`` lags.  A constrained optimum
    never falls below the unconstrained one, so a total below the floor
    max(||P11||^2, 0), or NaN, is the QP's lost accuracy and raises
    :class:`SolverFailure`.  A qp_cost too small to move the rounded total
    passes."""
    if not total_norm_sq >= max(p11_norm_sq, 0.0):
        raise SolverFailure(
            f"squared H2 norm {total_norm_sq:.6g} at horizon N = {horizon} is NaN or below"
            f" the centralized floor ||P11||^2 = {p11_norm_sq:.6g}: the QP cost lost its accuracy"
        )
    return math.sqrt(total_norm_sq)


def riccati_gains(plant: GeneralizedPlant) -> RiccatiGains:
    """Solve the control and filtering Riccati equations, form the gains and
    check them.

    X solves the equation of :func:`dare_solve` with (A, B2, C1^T C1) and Y
    the dual with (A^T, C2^T, B1 B1^T).  :func:`dare_solve` proves both
    loops stable; the filter's loop (A + L C2)^T has the eigenvalues of
    A + L C2.  Both equations must then hold under these K and L
    (:func:`riccati_residuals`).  A failed solve is raised again as its own
    class, prefixed with the equation's name as there.
    """
    a, b2, c1 = plant.a, plant.b2, plant.c1
    c2, b1 = plant.c2, plant.b1
    equation = "control"
    try:
        x = dare_solve(a, b2, c1.T @ c1)
        equation = "filter"
        y = dare_solve(a.T, c2.T, b1 @ b1.T)
    except (SolverFailure, AssumptionViolated) as exc:
        raise type(exc)(f"{equation} Riccati equation: {exc}") from exc
    omega = np.eye(plant.n_ctrl) + b2.T @ x @ b2
    psi = np.eye(plant.n_meas) + c2 @ y @ c2.T
    k = -np.linalg.solve(omega, b2.T @ x @ a)
    l = -np.linalg.solve(psi.T, (a @ y @ c2.T).T).T
    gains = RiccatiGains(x, y, k, l, omega, psi, a + b2 @ k, a + l @ c2)
    riccati_residuals(plant, gains)
    return gains


def riccati_residuals(plant: GeneralizedPlant, gains: RiccatiGains) -> tuple[float, float]:
    """Norm-wise relative residuals of the control and filter Riccati
    equations, formed with the gains K and L that synthesis uses.

    With A^T X B2 K = -A^T X B2 (I + B2^T X B2)^{-1} B2^T X A the control
    equation's residual is R = C1^T C1 + A^T X A + A^T X B2 K - X, divided
    by ||C1^T C1|| + ||A^T X A|| + ||A^T X B2 K|| + ||X|| (Frobenius), the
    scale at which its terms cancel.  The filter's is the dual, with
    (A^T, C2^T, B1 B1^T, Y, L^T).  So a wrong X, Y, K or L shows, which the
    Bezout identity of :func:`coprime_factorization` does not: any
    stabilizing K and L give a doubly-coprime pair.  A residual over
    ``RICCATI_RESIDUAL_TOL``, or not a number, raises :class:`SolverFailure`.
    """
    a, x, y, k, l = plant.a, gains.x_ctrl, gains.y_filt, gains.k_gain, gains.l_gain
    residuals = (
        ("control", _relative_residual(plant.c1.T @ plant.c1, a.T @ x @ a,
                                       a.T @ x @ plant.b2 @ k, x)),
        ("filter", _relative_residual(plant.b1 @ plant.b1.T, a @ y @ a.T,
                                      a @ y @ plant.c2.T @ l.T, y)),
    )
    for equation, residual in residuals:
        if not residual <= RICCATI_RESIDUAL_TOL:
            raise SolverFailure(
                f"{equation} Riccati equation: relative residual {residual:.3g} "
                f"exceeds {RICCATI_RESIDUAL_TOL:.3g}"
            )
    return residuals[0][1], residuals[1][1]


def _relative_residual(q, a_x_a, a_x_b_k, x) -> float:
    """The relative residual of :func:`riccati_residuals` (0 when all four
    terms vanish)."""
    scale = sum(np.linalg.norm(t) for t in (q, a_x_a, a_x_b_k, x))
    return float(np.linalg.norm(q + a_x_a + a_x_b_k - x) / scale) if scale else 0.0


def coprime_factorization(plant: GeneralizedPlant, gains: RiccatiGains) -> float:
    """Bezout residual of the doubly-coprime factorization of g22.

    The eight factors built from the LQG gains are slices of two stacked
    realizations sharing the regulator and estimator loops,

        [ X~  -Y~ ]     [ M^  Y^ ]
        [ -N~  M~ ] and [ N^  X^ ],

    whose product must be the identity.  Both are (A_L, B, -C_r, I) and
    (A_K, B, C_r, I) with B = [B2, -L] and C_r = [K; C2], so the product
    is realized in place as ([[A_L, B C_r], [0, A_K]], [B; B], [-C_r, C_r],
    I).  Its Markov parameters up to lag 2n + 2 are compared with I at lag
    0 and 0 after, and the largest deviation is returned.
    """
    n, eye = plant.n, np.eye(plant.n_ctrl + plant.n_meas)
    b = np.hstack([plant.b2, -gains.l_gain])
    c_r = np.vstack([gains.k_gain, plant.c2])
    a = np.block([[gains.a_l, b @ c_r], [np.zeros((n, n)), gains.a_k]])
    product = StateSpaceModel(a, np.vstack([b, b]), np.hstack([-c_r, c_r]), eye)
    resp = impulse_response(product, 2 * n + 2)
    resp[0] -= eye
    return float(np.abs(resp).max())


def model_matching_matrices(plant: GeneralizedPlant, gains: RiccatiGains) -> StateSpaceModel:
    """Closed-form realization of P11, the performance channel under the
    centralized LQG controller (stable, strictly proper); ||P11||^2 is the
    unconstrained floor of the optimal squared norm.
    """
    b1, b2 = plant.b1, plant.b2
    k, l = gains.k_gain, gains.l_gain
    n = plant.n
    return StateSpaceModel(
        np.block([[gains.a_k, -b2 @ k], [np.zeros((n, n)), gains.a_l]]),
        np.vstack([b1, b1 + l @ plant.d21]),
        np.hstack([plant.c1 + plant.d12 @ k, -plant.d12 @ k]),
        np.zeros((plant.n_perf, plant.n_dist)),
    )


def vectorized_system(plant: GeneralizedPlant, gains: RiccatiGains) -> VectorizedSystem:
    """The lift of :func:`_lift` as dense matrices, formed once with ``np.kron``:

        A_v = [[I kron A_K, 0], [C2^T kron K, A_L^T kron I]],
        B_v = [I kron B2; C2^T kron I],   C_v = [I kron K, L^T kron I],
        x_1 = [vec(L); 0].

    O(order^2) memory, for the reference solvers (``verify.kkt_oracle`` and
    the test oracles); the pipeline never forms it."""
    b2, c2, k, l = plant.b2, plant.c2, gains.k_gain, gains.l_gain
    eye_u, eye_y = np.eye(plant.n_ctrl), np.eye(plant.n_meas)
    a_v = np.block([
        [np.kron(eye_y, gains.a_k), np.zeros((plant.n * plant.n_meas, plant.n * plant.n_ctrl))],
        [np.kron(c2.T, k), np.kron(gains.a_l.T, eye_u)],
    ])
    b_v = np.vstack([np.kron(eye_y, b2), np.kron(c2.T, eye_u)])
    c_v = np.hstack([np.kron(eye_y, k), np.kron(l.T, eye_u)])
    return VectorizedSystem(a_v, b_v, c_v, np.concatenate([vec(l), np.zeros(k.size)]))


class _Lift(NamedTuple):
    """The lifted order, x_1 and the four products of :func:`_lift`, each a
    function of a block, as matmuls or as factor products for the whole QP."""

    order: int
    x1: np.ndarray
    a_bar_t_times: Callable
    b_v_t_times: Callable
    c_v_t_times: Callable
    times_half_a_bar: Callable


def _lift(plant: GeneralizedPlant, gains: RiccatiGains) -> _Lift:
    """The Kronecker lift of the constrained-channel FIR recursion, applied
    through its n x n factors or as the matrices formed from them.

    The lifted state x_i = [vec(P_i); vec(Q_i)] stacks an n x n_meas block
    P and an n_ctrl x n block Q, so its dimension ``order`` is
    n * (n_meas + n_ctrl).  Driven by the free coefficient V_i,

        P_{i+1} = A_K P_i + B2 V_i,   Q_{i+1} = K P_i C2 + Q_i A_L + V_i C2,

    from P_1 = L and Q_1 = 0, and the i-th coefficient of the constrained
    channel is J_i = K P_i + Q_i L + V_i.  Column-stacked this reads
    x_{i+1} = A_v x_i + B_v vec(V_i) and vec(J_i) = C_v x_i + vec(V_i)
    (:func:`vectorized_system`).  Taking J_i as the input instead,
    V_i = J_i - K P_i - Q_i L, the gains drop out:

        P_{i+1} = A P_i + B2 (J_i - Q_i L),   Q_{i+1} = Q_i A + J_i C2,

    that is x_{i+1} = A_bar x_i + B_v vec(J_i) with the stage-independent
    A_bar = A_v - B_v C_v = [[I kron A, -L^T kron B2], [0, A^T kron I]].

    The products act on the factors through vec(M X N) = (N^T kron M) vec(X).
    For an (order, k) block y, whose columns hold [vec(P); vec(Q)] and
    which C-order reshapes read back as P^T and Q^T, and an
    (n_ctrl * n_meas, k) block u holding vec(U), U n_ctrl x n_meas,

        A_bar^T y = [vec(A^T P); vec(Q A^T - B2^T P L^T)],
        B_v^T y = vec(B2^T P + Q C2^T),   C_v^T u = [vec(K^T U); vec(U L^T)],

    at O(k * order * n) instead of O(k * order^2).  The row-side product
    m A_bar/2 = (A_bar^T m^T)^T / 2 of a (k, order) block m is the same map
    on the rows, which C-order reshapes read as P^T and Q^T: each P^T
    becomes P^T (A/2) and each Q^T becomes (A/2) Q^T - (L/2) (P^T B2).  On a
    C-contiguous m this moves no data, where A_bar^T of m^T would copy it.
    A/2 and L/2 are exact, so twice the product is, bit for bit, the same
    arithmetic with A and L.  A_bar^T and the row-side product write into
    ``out`` if given.

    At small order a product costs its two to four numpy calls, not its
    flops.  So up to ``MATRIX_LIFT_ORDER`` the four matrices are formed
    once from the factor products on identities, entry for entry their
    Kronecker forms (each entry one product), and each product is one
    matmul with its matrix; above it, its factor product.  Every stage of
    a QP applies the lift one way.  C_v x = vec(K P + Q L) has no product
    here: the forward sweep of :func:`solve_constrained_qp` forms it.
    """
    a, b2, c2, k_gain, l = plant.a, plant.b2, plant.c2, gains.k_gain, gains.l_gain
    n, n_u, n_y = plant.n, plant.n_ctrl, plant.n_meas
    order, split = n * (n_y + n_u), n * n_y
    a_half, l_half = 0.5 * a, 0.5 * l

    def a_bar_t_times(y, out=None):
        k = y.shape[1]
        p_t = y[:split].reshape(n_y, n, k)
        if out is None:
            out = np.empty((order, k))
        np.matmul(a.T, p_t, out=out[:split].reshape(n_y, n, k))
        q_part = out[split:].reshape(n, n_u * k)
        np.matmul(a, y[split:].reshape(n, n_u * k), out=q_part)
        q_part -= l @ (b2.T @ p_t).reshape(n_y, n_u * k)
        return out

    def b_v_t_times(y):
        k = y.shape[1]
        p_t = y[:split].reshape(n_y, n, k)
        out = (b2.T @ p_t).reshape(n_y, n_u * k)
        out += c2 @ y[split:].reshape(n, n_u * k)
        return out.reshape(n_y * n_u, k)

    def c_v_t_times(u):
        k = u.shape[1]
        u_t = u.reshape(n_y, n_u, k)
        return np.vstack([np.matmul(k_gain.T, u_t).reshape(split, k),
                          (l @ u_t.reshape(n_y, n_u * k)).reshape(n * n_u, k)])

    def times_half_a_bar(m, out=None):
        k = m.shape[0]
        if out is None:
            out = np.empty((k, order))
        p_t = m[:, :split].reshape(k, n_y, n)
        np.matmul(p_t, a_half, out=out[:, :split].reshape((k, n_y, n), copy=False))
        q_t = out[:, split:].reshape((k, n, n_u), copy=False)
        np.matmul(a_half, m[:, split:].reshape(k, n, n_u), out=q_t)
        q_t -= np.matmul(l_half, p_t @ b2)
        return out

    products = a_bar_t_times, b_v_t_times, c_v_t_times, times_half_a_bar
    if order <= MATRIX_LIFT_ORDER:
        eye = np.eye(order)
        a_bar_t, b_v_t, half_a_bar = a_bar_t_times(eye), b_v_t_times(eye), times_half_a_bar(eye)
        c_v_t = c_v_t_times(np.eye(n_u * n_y))
        products = (partial(np.matmul, a_bar_t), partial(np.matmul, b_v_t),
                    partial(np.matmul, c_v_t), lambda m, out=None: np.matmul(m, half_a_bar, out=out))
    return _Lift(order, np.concatenate([vec(l), np.zeros(k_gain.size)]), *products)


def _kron(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices, bit for bit (each entry is the same
    one product a_ij b_kl), as one broadcast product without ``np.kron``'s
    shape handling for any dimension; written into ``out``, which may be a
    block of a larger matrix, if given."""
    shape = (a.shape[0], b.shape[0], a.shape[1], b.shape[1])
    if out is None:
        out = np.empty((shape[0] * shape[1], shape[2] * shape[3]))
    np.multiply(a[:, None, :, None], b[None, :, None, :], out=out.reshape(shape, copy=False))
    return out


def _stage_failure(name: str, m: np.ndarray, where: str, n_allowed: int) -> SolverFailure:
    """The failure of the stage ``where`` to factor or invert its matrix
    ``name``, ``m``: its order and, computed on this path only, its
    smallest eigenvalue relative to its largest in magnitude."""
    if not np.isfinite(m).all():
        detail = "it has a non-finite entry"
    else:
        ev = np.linalg.eigvalsh(m)
        top = np.abs(ev).max(initial=0.0)
        detail = (f"its smallest eigenvalue is {ev[0] / top:.3g} times its largest" if top
                  else "it is zero")
    return SolverFailure(f"singular stage matrix {name} of order {m.shape[0]} at {where}"
                         f" ({n_allowed} allowed coordinates): {detail}")


def _backward_sweep(plant: GeneralizedPlant, gains: RiccatiGains,
                    stages: Iterable[tuple[str, np.ndarray]]):
    """The backward Riccati sweep of :func:`solve_constrained_qp` from
    X = 0 over ``stages``, (label, allowed coordinates a of vec(J)) from the
    last lag back.  Yields, per stage, its feedback (a function from the
    lifted state x and e = C_v x to the optimal J_a) and the cost
    x_1^T X x_1 after it.

    X_k is the cost of the minimum-norm V meeting the constraints of lags
    k ... N, so its rank is at most their forbidden coordinates summed.  One
    loop runs every stage.  It holds X as a factor Z Z^T, from rank 0, and
    runs :func:`_factored_stage` while the rank bound stays within
    ``FACTORED_RANK_SHARE`` of the order.  The dense stage finishes the
    sweep.  It picks the allowed rows and columns of B_v^T X B_v,
    B_v^T X A_bar, R = psi kron omega and R C_v:

        h = R_aa + (B_v^T X B_v)_aa,   g = (B_v^T X A_bar)_a - (R C_v)_a,
        X <- A_bar^T X A_bar + C_v^T R C_v - g^T h^-1 g,   J_a = -h^-1 g x.

    R_aa and (R C_v)_a come from the factors of R (:func:`_allowed_weights`),
    so neither R nor R C_v is formed, and besides C_v^T R C_v / 2 the dense
    stage holds two order x order buffers: X and one work buffer.

    The first dense stage is the handover.  It forms C_v^T R C_v / 2 once
    and reads X = Z Z^T through the factor, with W = B_a^T Z and
    G = A_bar^T Z:

        h = R_aa + W W^T,   g = W G^T - (R C_v)_a,   A_bar^T X A_bar = G G^T,

    the last one matmul of G with its own transpose, which numpy runs as a
    symmetric rank-k update; it becomes X's buffer, and the factor is
    released.  Each later stage reads X for h and g, forms A_bar^T X in the
    work buffer and then (A_bar^T X) A_bar/2 from the rows (:func:`_lift`)
    into X's own, both on C-contiguous blocks, and takes the downdate
    through the work buffer.  With C_v^T R C_v halved once and the downdate
    taken as (g/2)^T h^-1 g, every term of Y/2 = (A_bar^T X A_bar +
    C_v^T R C_v - g^T h^-1 g)/2 is halved exactly, so X <- Y/2 + (Y/2)^T is
    (Y + Y^T)/2 bit for bit.  The transpose is copied into the work buffer
    and then added, each entry the same sum as in ``np.add(y, y.T)``, whose
    strided read of y^T took about 1.4 times as long at order 800.

    The products with A_bar, B_v and C_v are :func:`_lift`'s, so above
    ``MATRIX_LIFT_ORDER`` only the downdate costs O(a order^2).  The
    forbidden set, and in the dense stage R_aa and (R C_v)_a, are formed
    again only for a new index array object, which :func:`sweep_norms`
    keeps for every stage.  Both stage forms are exact, and each horizon
    rounds the same way there as in :func:`solve_constrained_qp`, since
    both choose from the lifted order only."""
    lift = _lift(plant, gains)
    order, x1 = lift.order, lift.x1
    omega, psi, k, l = gains.omega, gains.psi, gains.k_gain, gains.l_gain
    n_j = omega.shape[0] * psi.shape[0]
    omega_k, psi_l_t = omega @ k, psi @ l.T
    z, inverses, x_cost, last = np.zeros((order, 0)), None, None, None
    for where, idx in stages:
        if idx is not last:
            forbidden = np.ones(n_j, bool)
            forbidden[idx] = False
            last, forb, r_aa = idx, np.flatnonzero(forbidden), None
        if z is not None and z.shape[1] + forb.size <= FACTORED_RANK_SHARE * order:
            if inverses is None:  # a singular psi or omega fails the first stage
                try:
                    inverses = np.linalg.inv(psi), np.linalg.inv(omega)
                except np.linalg.LinAlgError as exc:
                    raise _stage_failure("R = psi kron omega", np.kron(psi, omega),
                                         where, idx.size) from exc
            feedback, z = _factored_stage(lift, *inverses, z, where, idx, forb)
            zx = x1 @ z
            yield feedback, float(zx @ zx)
            continue
        if r_aa is None:
            r_aa, r_ca = _allowed_weights(psi, omega, omega_k, psi_l_t, idx)
        if z is not None:
            # the handover, once: C_v^T R C_v / 2, block by block, then X = Z Z^T
            # read through Z, with W = B_a^T Z and G = A_bar^T Z
            split = plant.n * plant.n_meas
            c_r_c = np.empty((order, order))
            _kron(psi, k.T @ omega @ k, out=c_r_c[:split, :split])
            _kron(psi_l_t, k.T @ omega, out=c_r_c[:split, split:])
            _kron(l @ psi, omega_k, out=c_r_c[split:, :split])
            _kron(l @ psi @ l.T, omega, out=c_r_c[split:, split:])
            c_r_c *= 0.5
            w, g_z = lift.b_v_t_times(z)[idx], lift.a_bar_t_times(z)
            h = r_aa + w @ w.T
            g = w @ g_z.T - r_ca
            x_cost = np.matmul(g_z, g_z.T)                 # G G^T = A_bar^T X A_bar
            x_cost *= 0.5
            z = w = g_z = None
            # X and one work buffer, reused at every stage: fresh order x order
            # temporaries would page-fault anew each time
            work = np.empty_like(x_cost)
        else:
            xb = lift.b_v_t_times(x_cost)[idx].T             # X B_v, allowed columns
            h = r_aa + lift.b_v_t_times(xb)[idx]
            g = lift.a_bar_t_times(xb).T - r_ca
            # X has been read in full, so (A_bar^T X) A_bar/2 goes into its buffer
            lift.times_half_a_bar(lift.a_bar_t_times(x_cost, out=work), out=x_cost)
        try:
            gain = np.linalg.inv(h) @ g
        except np.linalg.LinAlgError as exc:
            raise _stage_failure("h", h, where, idx.size) from exc
        x_cost += c_r_c
        g *= 0.5
        x_cost -= np.matmul(g.T, gain, out=work)
        np.copyto(work, x_cost.T)                          # X <- Y/2 + (Y/2)^T
        x_cost += work
        yield (lambda x, e, gain=gain: -(gain @ x)), float(x1 @ x_cost @ x1)


def _allowed_weights(psi, omega, omega_k, psi_l_t, idx):
    """R_aa and (R C_v)_a for the allowed coordinates ``idx`` of vec(J), with
    R = psi kron omega and R C_v = [psi kron omega K, psi L^T kron omega],
    from ``omega_k`` = omega K and ``psi_l_t`` = psi L^T.  The index
    y n_u + u of vec(J) is split by divmod, and each entry is the one
    product of a factor entry by a factor entry that :func:`_kron` forms."""
    a, (n_y, n), n_u = idx.size, psi_l_t.shape, omega.shape[0]
    y, u = np.divmod(idx, n_u)
    r_ca = np.hstack([(psi[y, :, None] * omega_k[u, None, :]).reshape(a, n_y * n),
                      (psi_l_t[y, :, None] * omega[u, None, :]).reshape(a, n * n_u)])
    return psi[np.ix_(y, y)] * omega[np.ix_(u, u)], r_ca


def _factored_stage(lift: _Lift, psi_inv, omega_inv, z, where: str, idx, forb):
    """One backward stage on a factor, X_{k+1} = Z Z^T -> X_k = Z' Z'^T,
    returning the stage's feedback and Z'.  ``lift`` is :func:`_lift`'s,
    ``psi_inv`` and ``omega_inv`` are the inverses of the weight's factors,
    ``idx`` the allowed coordinates and ``forb`` the forbidden ones, and
    ``where`` labels a failed stage.

    With R = psi kron omega, W = B_a^T Z, T = R_aa^-1 R_af and
    A^ = A_bar + B_a R_aa^-1 (R C_v)_a the optimal J_a is u_0 + delta:
    u_0 = (C_a + T C_f) x minimizes the stage cost alone, at
    x^T C_f^T [(R^-1)_ff]^-1 C_f x, and delta = -Y M^-1 (A^T Z)^T x, with
    Y = R_aa^-1 W and M = I + W^T Y >= I, minimizes
    delta^T R_aa delta + ||Z^T (A^ x + B_a delta)||^2.  So, with
    (R^-1)_ff = K_f K_f^T and M = L_M L_M^T,

        Z' = [C_f^T K_f^-T, A^T Z L_M^-T],
        A^T Z = A_bar^T Z + C_v^T (E_a^T W + E_f^T T^T W),

    two positive semidefinite square roots joined, nothing subtracted.  T,
    Y and K_f^-1 come from R^-1 in closed form (:func:`_allowed_solves`).
    The triangular factors K_f and L_M, of orders n_f and r, are each
    inverted once with ``np.linalg.inv`` and applied to their order-wide
    blocks as matmuls, which numpy's solve would LU-factor again and
    copy.  So the stage costs
    O(n_f^3 + a n_f (n_f + r) + n_j (n_u + n_y) r + (a + order) (n_f^2 + r^2))
    for a allowed and n_f forbidden coordinates and rank r, with no O(a^3)
    factorization of R_aa.  At rank 0, the first stage, numpy's empty
    products make A^T Z L_M^-T empty and delta 0.  The feedback takes
    u_0 from e = C_v x, which the forward sweep forms."""
    rank, n_f, n_j = z.shape[1], forb.size, psi_inv.shape[0] * omega_inv.shape[0]
    w = lift.b_v_t_times(z)[idx]                          # B_a^T Z
    t, y, k_f_inv = _allowed_solves(psi_inv, omega_inv, idx, forb, w, where)
    m = np.eye(rank) + w.T @ y
    try:
        l_m_inv = np.linalg.inv(np.linalg.cholesky(m))
    except np.linalg.LinAlgError as exc:
        raise _stage_failure("M = I + W^T Y", m, where, idx.size) from exc
    u = np.empty((n_j, rank))
    u[idx], u[forb] = w, t.T @ w                         # R_fa Y = T^T W
    a_hat_z = lift.a_bar_t_times(z) + lift.c_v_t_times(u)  # A^T Z
    # A^T Z L_M^-T, the new factor's second block, and Y L_M^-T, which with
    # it gives Y M^-1 (A^T Z)^T
    s_z, s_y = a_hat_z @ l_m_inv.T, y @ l_m_inv.T
    z_new = np.hstack([lift.c_v_t_times(np.eye(n_j)[:, forb]) @ k_f_inv.T, s_z])

    def feedback(x, e):
        return e[idx] + t @ e[forb] - s_y @ (x @ s_z)    # u_0 + delta

    return feedback, z_new


def _allowed_solves(psi_inv, omega_inv, idx, forb, w, where: str):
    """T = R_aa^-1 R_af and Y = R_aa^-1 W for R = psi kron omega, allowed
    coordinates ``idx`` and forbidden ``forb``, without factoring R_aa;
    returns (T, Y, K_f^-1) with K_f K_f^T = N_ff.  A failed factorization of
    N_ff raises the :class:`SolverFailure` of the stage ``where``.

    N = R^-1 = psi^-1 kron omega^-1 is known in closed form (Van Loan, "The
    ubiquitous Kronecker product", J. Comput. Appl. Math. 2000), and the
    block inverse of R reads N_af = -R_aa^-1 R_af N_ff and
    R_aa^-1 = N_aa - N_af N_ff^-1 N_fa.  So

        T = -N_af N_ff^-1,   Y = (N W^)_a + T (N W^)_f,

    with W^ the n_j-row block holding W on the allowed rows and 0 elsewhere.
    N is applied to [E_f, W^] as vec(omega^-1 U psi^-1) on the n_u x n_y
    blocks U, at O(n_j (n_u + n_y)) a column, and N_ff^-1 = K_f^-T K_f^-1
    through its Cholesky factor K_f, inverted once:
    T = -(N_af K_f^-T) K_f^-1."""
    n_y, n_u = psi_inv.shape[0], omega_inv.shape[0]
    n_f, k = forb.size, forb.size + w.shape[1]
    u = np.zeros((n_y * n_u, k))
    u[forb, np.arange(n_f)] = 1.0
    u[idx, n_f:] = w
    n_ew = np.matmul(omega_inv, (psi_inv @ u.reshape(n_y, n_u * k)).reshape(n_y, n_u, k))
    n_ew = n_ew.reshape(n_y * n_u, k)                    # N [E_f, W^]
    n_ff = n_ew[forb, :n_f]
    try:
        k_f = np.linalg.cholesky(n_ff)
    except np.linalg.LinAlgError as exc:
        raise _stage_failure("(R^-1)_ff", n_ff, where, idx.size) from exc
    k_f_inv = np.linalg.inv(k_f)
    t = -(n_ew[idx, :n_f] @ k_f_inv.T) @ k_f_inv
    return t, n_ew[idx, n_f:] + t @ n_ew[forb, n_f:], k_f_inv


def solve_constrained_qp(plant: GeneralizedPlant, gains: RiccatiGains,
                         cs: ConstraintSpace) -> tuple[np.ndarray, float]:
    """Minimize sum_i vec(V_i)^T (psi kron omega) vec(V_i) subject to the
    forbidden coordinates of every constrained FIR coefficient J_i
    (``~cs.entry_mask(i)``, column stacked) vanishing.

    In the coordinates J_i of :func:`_lift` this is a finite-horizon LQR
    whose inputs are the allowed coordinates of vec(J_i), with the state
    matrix A_bar at every lag and the stage cost
    (J_i - C_v x_i)^T (psi kron omega) (J_i - C_v x_i).  After the backward
    sweep (:func:`_backward_sweep`) a forward sweep of the n x n recursion
    forms E_i = K P_i + Q_i L, the matrix of C_v x_i, once per lag, recovers
    each optimal J_i from x_i and vec(E_i), and returns V_i = J_i - E_i as an
    ``(N, n_ctrl, n_meas)`` array with the optimal cost x_1^T X_1 x_1.  The
    constraint's blocks must be the plant's.
    """
    if (cs.block_rows, cs.block_cols) != (plant.block_rows, plant.block_cols):
        raise DimensionMismatch("constraint blocks do not match the plant blocks")
    n_u, n_y, n = plant.n_ctrl, plant.n_meas, cs.n_horizon

    allowed = [np.flatnonzero(cs.entry_mask(lag).ravel(order="F")) for lag in range(1, n + 1)]
    # Past the last lag with a forbidden coordinate V = 0 and X = 0, so both
    # sweeps stop there; C_v^T R C_v - g^T h^-1 g would leave rounding noise
    # where that X is exactly zero.
    n_con = max((lag for lag, idx in enumerate(allowed, 1) if idx.size < n_u * n_y),
                default=0)
    stages = ((f"lag {lag}", allowed[lag - 1]) for lag in range(n_con, 0, -1))
    feedback, qp_cost = [], 0.0
    for stage_feedback, qp_cost in _backward_sweep(plant, gains, stages):
        feedback.append(stage_feedback)

    a, b2, c2, k, l = plant.a, plant.b2, plant.c2, gains.k_gain, gains.l_gain
    p, q = l, np.zeros((n_u, plant.n))
    v = np.zeros((n, n_u, n_y))
    for i, stage_feedback in enumerate(reversed(feedback)):
        e = k @ p + q @ l                                # C_v x
        j = np.zeros(n_u * n_y)
        j[allowed[i]] = stage_feedback(np.concatenate([vec(p), vec(q)]), vec(e))
        j = j.reshape(n_u, n_y, order="F")
        v[i] = j - e
        p, q = a @ p + b2 @ (j - q @ l), q @ a + j @ c2
    return v, qp_cost


def realize_controller(
    v_star: np.ndarray, gains: RiccatiGains, plant: GeneralizedPlant
) -> StateSpaceModel:
    """Assemble the strictly proper controller for a FIR free parameter,
    given as its ``(N, n_ctrl, n_meas)`` coefficients V_1 ... V_N.

    The realization couples the LQG observer loop with a shift register
    holding the last N measurements; its order is n + n_meas * N:

        A = [[A + B2 K + L C2, B2 C_fir], [B_fir C2, A_fir]],
        B = [-L; -B_fir],   C = [K, C_fir],   D = 0,

    with (A_fir, B_fir, C_fir) the shift register of V.  K, L and V are
    stored bit for bit in B and C, where :func:`delayh2.verify.closed_loop`
    reads them back.
    """
    b2, c2 = plant.b2, plant.c2
    k, l = gains.k_gain, gains.l_gain
    n_u, n_y = plant.n_ctrl, plant.n_meas
    v_star = np.asarray(v_star, dtype=float)
    if v_star.ndim != 3 or v_star.shape[1:] != (n_u, n_y):
        raise DimensionMismatch(
            f"FIR coefficients {v_star.shape} do not stack {(n_u, n_y)} blocks"
        )
    a_fir, b_fir, c_fir = _fir_realization(v_star)
    a_ctrl = np.block(
        [
            [gains.a_k + l @ c2, b2 @ c_fir],
            [b_fir @ c2, a_fir],
        ]
    )
    b_ctrl = np.vstack([-l, -b_fir])
    c_ctrl = np.hstack([k, c_fir])
    return StateSpaceModel(a_ctrl, b_ctrl, c_ctrl, np.zeros((n_u, n_y)))


def _plant_prefix(plant: GeneralizedPlant) -> tuple[RiccatiGains, float]:
    """The plant's part of synthesis: the gains (:func:`riccati_gains`) and
    ||P11||^2.

    ||P11||^2 = tr(B1^T X B1) + tr(Omega K Y K^T) is the standard LQG cost
    identity (Zhou, Doyle & Glover, Robust and Optimal Control, 1996): the
    cost of full-information control plus Omega-weighted estimation error,
    whose covariance is Y.  It is the squared H2 norm of
    :func:`model_matching_matrices`, whose loops A + B2 K and A + L C2 are
    the ones :func:`dare_solve` proved stable, without its Gramian.
    """
    gains = riccati_gains(plant)
    b1, k = plant.b1, gains.k_gain
    p11_norm_sq = float(np.trace(b1.T @ gains.x_ctrl @ b1)
                        + np.trace(gains.omega @ k @ gains.y_filt @ k.T))
    return gains, p11_norm_sq


def qi_verdict(plant: GeneralizedPlant, delays: DelayMatrix) -> tuple[np.ndarray, QiCheck]:
    """The plant's block transport delays p up to ``delays.max_delay()``
    (:func:`plant_block_delays`) and the :func:`check_qi` verdict of
    ``delays`` against them: the one quadratic-invariance test of a plant."""
    p = plant_block_delays(plant.g22, plant.block_rows, plant.block_cols, delays.max_delay())
    return p, check_qi(delays, p)


def synthesize(plant: GeneralizedPlant, cs: ConstraintSpace,
               delays: Optional[DelayMatrix] = None) -> SynthesisResult:
    """Full synthesis pipeline for one plant and constraint space.

    When ``delays`` is supplied the quadratic-invariance condition is
    verified first (:func:`qi_verdict`) and a failure raises
    :class:`QIViolation`; otherwise the caller is trusted to have checked
    it.  The QP's V is priced directly, at O(N n_j (n_u + n_y)), and
    a qp_cost off that price by more than ``PRICED_COST_TOL`` of
    ||P11||^2 + priced raises :class:`SolverFailure`, as does a total below
    the floor (:func:`_h2_norm`), before any result is returned.
    """
    if delays is not None:
        p, verdict = qi_verdict(plant, delays)
        if not verdict.ok:
            raise QIViolation(
                f"not quadratically invariant: {qi_witness_text(delays, p, verdict)}"
            )

    gains, p11_norm_sq = _plant_prefix(plant)
    v_star, qp_cost = solve_constrained_qp(plant, gains, cs)
    # sum_i vec(V_i)^T (psi kron omega) vec(V_i) = sum_i <V_i, omega V_i psi^T>
    priced = float(np.sum(gains.omega @ v_star @ gains.psi.T * v_star))
    gap = abs(qp_cost - priced)
    if not gap <= PRICED_COST_TOL * (p11_norm_sq + priced):
        raise SolverFailure(
            f"QP cost {qp_cost:.6g} at horizon N = {cs.n_horizon} is off the priced cost"
            f" {priced:.6g} of its own V by {gap:.3g}, more than {PRICED_COST_TOL:g} of"
            f" ||P11||^2 + priced: the QP cost lost its accuracy"
        )
    _h2_norm(p11_norm_sq + qp_cost, p11_norm_sq, cs.n_horizon)
    controller = realize_controller(v_star, gains, plant)
    return SynthesisResult(controller, v_star, p11_norm_sq, qp_cost, p11_norm_sq + qp_cost)


def sweep_norms(plant: GeneralizedPlant, template, n_max: int) -> Iterator[float]:
    """The ``h2_norm`` of :func:`synthesize` for N = 1 ... n_max lags of the
    block pattern ``template``, bit for bit, from one backward pass with
    ``template`` at every stage and no controller: x_1^T X x_1 after step N
    is the QP cost at horizon N (an all-allowed template runs n_max
    factored stages on an empty factor, at cost 0.0).  An error raised after
    k norms fails every N > k: a singular stage at backward step k + 1, a
    squared norm below ||P11||^2 at horizon k + 1, or one below horizon k's
    by more than ``PRICED_COST_TOL`` of it.  Each horizon adds constraints,
    so the optimum cannot fall as N grows, and a fall is the sweep's lost
    accuracy."""
    gains, p11_norm_sq = _plant_prefix(plant)
    mask = expand_pattern(template, plant.block_rows, plant.block_cols)
    idx = np.flatnonzero(mask.ravel(order="F"))
    stages = ((f"backward step {m}", idx) for m in range(1, n_max + 1))
    last = 0.0  # every total passes the floor max(||P11||^2, 0), so N = 1 cannot fall
    for horizon, (_, qp_cost) in enumerate(_backward_sweep(plant, gains, stages), 1):
        total = p11_norm_sq + qp_cost
        norm = _h2_norm(total, p11_norm_sq, horizon)
        if last - total > PRICED_COST_TOL * last:
            raise SolverFailure(f"squared H2 norm {total:.10g} at horizon N = {horizon} is below"
                                f" {last:.10g} at N = {horizon - 1} by {last - total:.3g}, more"
                                f" than {PRICED_COST_TOL:g} of it: the QP cost lost its accuracy")
        last = total
        yield norm
