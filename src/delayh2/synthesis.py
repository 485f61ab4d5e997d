"""H2-optimal output feedback under delay constraints.

The pipeline: the two Riccati equations of the centralized LQG problem,
checked by their residuals (:func:`riccati_gains`); ||P11||^2 in closed
form from the two solutions (:func:`_plant_prefix`); a finite quadratic
program over the first N impulse-response coefficients of the free
parameter V, held as one ``(N, n_ctrl, n_meas)`` array and solved exactly
as a finite-horizon LQR (:func:`solve_constrained_qp`) on the
Kronecker-lifted FIR recursion, applied as formed matrices at small lifted
order and through its factors above (:func:`_lift`), by one backward sweep
from the last lag: on a factor of the cost-to-go while its rank is small,
on the dense cost-to-go after, and at the first lags, whose states span
few directions, in the coordinates of the inputs that reach them
(:func:`_backward_sweep`); it hands each stage's data as arrays to one
forward sweep that applies them; and the controller in closed form
(:func:`realize_controller`).  :func:`sweep_norms`
runs the plant's part and one backward pass for every horizon of a
repeated pattern.  :func:`synthesize` reports the priced cost f(V) of the
V it returns, and a sweep cost off that price, or NaN, is the QP's lost
accuracy and raises :class:`SolverFailure`; so is a sweep's squared norm
below the centralized floor ||P11||^2, NaN, or one that falls as N grows
(:func:`sweep_norms`).
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
# lowest at 0.5.  Per synthesis (median of 300 alternating rounds), 0.5
# against 0.25 read +0.9%/-1.3%/-1.2%/-5.6% at n = 5/6/7/8, where the
# factored stage's fixed numpy overhead weighs most.  At the other end the
# same share bounds the dimension of the first lags' states, which
# :func:`solve_constrained_qp` condenses (:func:`_condensed_lags`): the
# three QPs took 309/273/241/252 ms with that bound at 0/0.35/0.5/0.6
# (median of 10 alternating rounds).  At 0.5 the 20-chain runs lags
# 19 ... 11 factored, 10 ... 5 dense and 4 ... 1 condensed.
FACTORED_RANK_SHARE = 0.5

# Bound on the gap between the backward sweep's cost and the priced cost of
# its own V, relative to ||P11||^2 + priced, the squared norm that
# :func:`synthesize` reports.  The price, a direct sum over the lags, does
# not inherit the backward sweep's rounding.  1e-9 is the relative match
# that the closed loop's norm is held to.  The gap reads 4e-12 on the
# 20-chain; over 397 random QI instances, many of them badly scaled
# (ROADMAP item 7's recipe), it spreads up to 1e-2, 20 of them above 1e-9.
PRICED_COST_TOL = 1e-9

# Up to this lifted order :func:`_lift` applies the lift as matrices formed
# once per QP, above it through its n x n factors.  Formed against factors
# (one BLAS thread, x86 VM, in process, median of 101 alternating rounds),
# the 120-step sweep of configs/two_subsystem_sweep.json (order 8; 4
# factored and 116 dense stages) took 0.42 x the time (3.09 against 7.33
# ms).  The QPs of the chains n = 3/4/5 (orders 18/32/50) took
# 1.07/1.07/1.05 x: their one or two factored stages took 0.70 - 0.73 x,
# but forming costs 35 - 50 us and the condensed lags apply no lift.  At
# n = 6 and 7 (orders 72 and 98) the QP read 1.05/1.08 x.
MATRIX_LIFT_ORDER = 64

# The dense stage of :func:`_backward_sweep` splits X into order^2 // this
# many row panels, so one panel covers X up to order 362, and above it
# works on X in place a panel at a time, holding X and one panel-sized
# buffer.  Per QP of the chains n = 12, 14, 16 and 20 (orders 288 to 800;
# one BLAS thread, x86 VM, in process, median of 30 alternating rounds),
# 2^15/2^16/2^17 doubles took 0.99/1.00/1.00, 0.95/0.96/1.00,
# 0.94/0.96/1.05 and 0.97/0.97/1.03 x the time of one panel.  At 2^16 (512
# KB) the 12-chain keeps one panel and its numbers, and the 16-chain's
# buffer is a quarter of X.
PANEL_ENTRIES = 2**16


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
    """The controller of one synthesis and what it achieves.

    ``v_star`` is its free parameter V, an ``(N, n_ctrl, n_meas)`` array;
    ``qp_cost`` is V's priced cost f(V) = sum_i <V_i, Omega V_i Psi^T>; and
    ``total_norm_sq`` = ``p11_norm_sq`` + ``qp_cost`` is the controller's
    squared closed-loop H2 norm."""

    controller: StateSpaceModel
    v_star: np.ndarray
    p11_norm_sq: float
    qp_cost: float
    total_norm_sq: float

    @property
    def h2_norm(self) -> float:
        return math.sqrt(self.total_norm_sq)


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
    """The lifted order, x_1, the weight products omega K and psi L^T, and
    the five products of :func:`_lift`, each a function of a block, as
    matmuls (an add for C_v^T R C_v / 2) or as factor products for the
    whole QP."""

    order: int
    x1: np.ndarray
    omega_k: np.ndarray
    psi_l_t: np.ndarray
    a_bar_t_times: Callable
    b_v_t_times: Callable
    c_v_t_times: Callable
    times_half_a_bar: Callable
    add_half_c_r_c: Callable


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
    ``out`` if given.  The row-side product's ``first`` restricts it to the
    columns from ``first`` on: it forms the P^T blocks y and the Q^T rows i
    from the ones that hold column ``first`` on, writes them in place in
    ``out``, and returns ``out[:, first:]``.

    The fifth product, ``add_half_c_r_c(x, buffer)``, adds C_v^T R C_v / 2,
    the stage cost of :func:`_backward_sweep` with R = psi kron omega, into
    an order x order x in place and returns x.  It is four Kronecker
    products of the weight's factors, one per quadrant of x:

        C_v^T R C_v = [psi kron K^T omega K,       psi L^T kron K^T omega]
                      [L psi kron omega K,    L psi L^T kron omega      ].

    Block row i of a quadrant a kron b is b's rows, tiled once per column
    of a, times a's row i with each entry repeated once per column of b.
    So each block row of x's upper or lower half adds its two quadrants'
    tiled right factors times the halved left factors' repeated row, as
    many block rows at a time as ``buffer``'s entries hold (at least one,
    max(n, n_ctrl) x order entries).  Each entry is the one product that
    ``np.kron`` forms, halved exactly.  The factors are built at the first
    call, so a QP without a dense stage builds none but omega K and psi L^T.
    Those two are built with the lift, as its ``omega_k`` and ``psi_l_t``,
    since the dense stage's :func:`_allowed_weights` reads them too.

    At small order a product costs its two to four numpy calls, not its
    flops.  So up to ``MATRIX_LIFT_ORDER`` the four matrices are formed
    once from the factor products on identities, entry for entry their
    Kronecker forms (each entry one product), and each product is one
    matmul with its matrix; above it, its factor product.  There the fifth
    forms C_v^T R C_v / 2 at its first call, as its block-row add on zeros,
    and is one ``np.add`` of that matrix.  Every stage of a QP applies the
    lift one way.  C_v x = vec(K P + Q L) has no product here: the forward
    sweep of :func:`solve_constrained_qp` forms it.
    """
    a, b2, c2, n, n_u, n_y = plant.a, plant.b2, plant.c2, plant.n, plant.n_ctrl, plant.n_meas
    k_gain, l, omega, psi = gains.k_gain, gains.l_gain, gains.omega, gains.psi
    order, split = n * (n_y + n_u), n * n_y
    a_half, l_half = 0.5 * a, 0.5 * l
    omega_k, psi_l_t = omega @ k_gain, psi @ l.T

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

    def times_half_a_bar(m, out=None, first=0):
        k = m.shape[0]
        if out is None:
            out = np.empty((k, order))
        p_t = m[:, :split].reshape(k, n_y, n)
        y0, i0 = min(first // n, n_y), max(first - split, 0) // n_u
        np.matmul(p_t[:, y0:], a_half,
                  out=out[:, y0 * n:split].reshape((k, n_y - y0, n), copy=False))
        q_t = out[:, split + i0 * n_u:].reshape((k, n - i0, n_u), copy=False)
        np.matmul(a_half[i0:], m[:, split:].reshape(k, n, n_u), out=q_t)
        q_t -= np.matmul(l_half[i0:], p_t @ b2)
        return out[:, first:] if first else out

    # filled at the first call, which a QP may not make.  No closure here
    # refers to itself, so a dropped lift frees them at once: in a reference
    # cycle they waited for the cyclic collector, and chain-large's peak
    # resident memory rose 11%
    halves, formed = [], []

    def add_rows(x, buffer):
        # block row i of x's upper or lower half adds tiled * repeated[i]
        for half, (tiled, repeated) in zip((x[:split], x[split:]), halves):
            blocks, step = half.reshape(-1, *tiled.shape), buffer.size // tiled.size
            for i in range(0, len(blocks), step):
                chunk = blocks[i:i + step]
                chunk += np.multiply(tiled, repeated[i:i + step, None],
                                     out=buffer.reshape(-1)[:chunk.size].reshape(chunk.shape))
        return x

    def add_half_c_r_c(x, buffer):
        if not halves:
            halves[:] = [(np.hstack([np.tile(b, (1, a.shape[1])) for a, b in r]),
                          np.hstack([np.repeat(0.5 * a, b.shape[1], axis=1) for a, b in r]))
                         for r in (((psi, k_gain.T @ omega @ k_gain), (psi_l_t, k_gain.T @ omega)),
                                   ((l @ psi, omega_k), (l @ psi @ l.T, omega)))]
            if order <= MATRIX_LIFT_ORDER:
                formed.append(add_rows(np.zeros((order, order)), buffer))
        return np.add(x, formed[0], out=x) if formed else add_rows(x, buffer)

    products = a_bar_t_times, b_v_t_times, c_v_t_times, times_half_a_bar
    if order <= MATRIX_LIFT_ORDER:
        eye = np.eye(order)
        a_bar_t, b_v_t, half_a_bar = a_bar_t_times(eye), b_v_t_times(eye), times_half_a_bar(eye)
        c_v_t = c_v_t_times(np.eye(n_u * n_y))

        def times_formed_half_a_bar(m, out=None, first=0):
            return np.matmul(m, half_a_bar[:, first:], out=out[:, first:] if first else out)

        products = (partial(np.matmul, a_bar_t), partial(np.matmul, b_v_t),
                    partial(np.matmul, c_v_t), times_formed_half_a_bar)
    return _Lift(order, np.concatenate([vec(l), np.zeros(k_gain.size)]), omega_k, psi_l_t,
                 *products, add_half_c_r_c)


def _stage_failure(name: str, m: np.ndarray, where: str, n_allowed: int) -> SolverFailure:
    """The failure of the stage ``where`` to factor or invert its matrix
    ``name``, ``m``: its order and, computed on this path only, its
    smallest eigenvalue relative to its largest in magnitude.  Raised by
    :func:`_stage_solve`, and for a singular psi or omega as R = psi kron
    omega."""
    if not np.isfinite(m).all():
        detail = "it has a non-finite entry"
    else:
        ev = np.linalg.eigvalsh(m)
        top = np.abs(ev).max(initial=0.0)
        detail = (f"its smallest eigenvalue is {ev[0] / top:.3g} times its largest" if top
                  else "it is zero")
    return SolverFailure(f"singular stage matrix {name} of order {m.shape[0]} at {where}"
                         f" ({n_allowed} allowed coordinates): {detail}")


def _stage_solve(solve: Callable, name: str, m: np.ndarray, where: str, n_allowed: int):
    """``solve(m)``, or the :func:`_stage_failure` of the stage ``where`` raised
    if numpy finds ``m`` singular or, for a Cholesky factorization, not
    positive definite."""
    try:
        return solve(m)
    except np.linalg.LinAlgError as exc:
        raise _stage_failure(name, m, where, n_allowed) from exc


def _inverse_cholesky(m: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L L^T = m."""
    return np.linalg.inv(np.linalg.cholesky(m))


def _backward_sweep(plant: GeneralizedPlant, gains: RiccatiGains,
                    stages: Iterable[tuple[str, np.ndarray]], condensed=()):
    """The backward Riccati sweep of :func:`solve_constrained_qp` from
    X = 0 over ``stages``, (label, allowed coordinates a of vec(J)) from the
    last lag back, then over ``condensed``, the same pairs of lags 1 ... s
    in forward order, in their input coordinates.  Yields, per stage, its
    data as arrays, one record of two forms: (a, gain h^-1 g) for a dense
    stage, a x order on x_k, and for a condensed one
    (:func:`_condensed_stages`), a x d_k on xi_k; (a, forbidden
    coordinates, T, S_y, S_z) for a factored one (:func:`_factored_stage`);
    and the cost x_1^T X x_1 after it, which for a condensed stage is meant
    after lag 1 only.  A singular stage matrix raises the
    :class:`SolverFailure` of :func:`_stage_solve`.

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
    so neither R nor R C_v is formed.

    The first dense stage is the handover.  It reads X = Z Z^T through the
    factor, with W = B_a^T Z and G = A_bar^T Z:

        h = R_aa + W W^T,   g = W G^T - (R C_v)_a,   A_bar^T X A_bar = G G^T,

    the last one matmul of G with its own transpose, which numpy runs as a
    symmetric rank-k update; it becomes X's buffer, and the factor is
    released.  Each later stage reads X for h and g, then forms A_bar^T X
    and (A_bar^T X) A_bar/2 from the rows (:func:`_lift`), both on
    C-contiguous blocks.  Every stage then adds C_v^T R C_v / 2 by
    :func:`_lift`'s product, from the weight's factors a few block rows at
    a time through the work buffer, or up to ``MATRIX_LIFT_ORDER`` as the
    matrix it forms at the first dense stage, and takes the downdate.
    With C_v^T R C_v halved and the downdate taken as (g/2)^T h^-1 g, every
    term of Y/2 = (A_bar^T X A_bar + C_v^T R C_v - g^T h^-1 g)/2 is halved
    exactly, so X <- Y/2 + (Y/2)^T is (Y + Y^T)/2 bit for bit.

    The order x order work runs on row panels of X (``PANEL_ENTRIES``).
    Where one panel covers X, the stage holds X and a work array of X's
    size (and up to ``MATRIX_LIFT_ORDER`` the formed C_v^T R C_v / 2).
    A_bar^T X goes into the work array and (A_bar^T X) A_bar/2 into X's
    own, and the downdate goes through the work array.  For Y/2 + (Y/2)^T
    the transpose is copied into the work array and then added, each entry
    the same sum as in ``np.add(y, y.T)``, whose strided read of y^T took
    about 1.4 times as long at order 800.

    Above that, X is the one order x order array, next to a buffer of one
    panel, and each order x order step runs a panel at a time, in place
    through the buffer: (B_v^T X)_a and A_bar^T X on column panels, the
    second written back into them; then, on each row panel, only its
    columns from its diagonal block on, which hold X's upper triangle:
    (A_bar^T X) A_bar/2 by :func:`_lift`'s row-side product restricted to
    them, and the downdate.  X <- Y then takes D + D^T on each diagonal
    block D of Y/2, and doubles the blocks right of it and mirrors them
    below: exact, and symmetric, with half the flops of both steps.  A
    panel's product is the same sum as the whole product's, but BLAS blocks
    a narrower product differently, so a panelled stage may round otherwise
    than one product.  The traced QP peak on the chains n = 12, 16, 20 and
    24 is 5.1, 4.8, 5.2 and 6.1 order^2, reached before the condensed lags,
    of which the stored stage data is 1.4, 2.3, 3.1 and 4.1
    (``tests/qp_memory.py``).

    After ``stages``, the condensed lags read X_{s+1}, or its factor Z, once
    as X~ = S^T X S in the coordinates xi_{s+1} (:func:`_input_bases`, whose
    one pass also reads each lag's E_k^T = (C_v S_k)^T off S_k^T): as
    (S^T Z)(S^T Z)^T, with S^T Z empty, so X~ = 0, if no stage ran; or as
    S^T (X S), X S formed a row panel at a time through the buffer into X's
    own rows.  The last stage's order-wide temporaries go before S is
    formed, and X and S before :func:`_condensed_stages` runs lags s ... 1
    on X~ and the E_k^T, d_k x n_j each, which keep no order-wide array.

    The products with A_bar, B_v and C_v are :func:`_lift`'s, so above
    ``MATRIX_LIFT_ORDER`` only the downdate costs O(a order^2).  The
    forbidden set, and in the dense stage R_aa and (R C_v)_a, are formed
    again only for a new index array object, which :func:`sweep_norms`
    keeps for every stage.  Every stage form is exact, and each horizon
    rounds the same way there as in :func:`solve_constrained_qp` with no
    lag condensed, since both choose the lift's form and the panels from
    the plant's dimensions only."""
    lift = _lift(plant, gains)
    order, x1 = lift.order, lift.x1
    # order^2 // PANEL_ENTRIES row panels of X (at least one), of one height
    # but the last, and at least one block row of a quadrant high; the
    # buffer holds one panel
    count = max(1, order * order // PANEL_ENTRIES)
    rows = max(-(-order // count), plant.n, plant.n_ctrl)
    panels = [(s, min(s + rows, order)) for s in range(0, order, rows)]
    whole = len(panels) == 1

    def buffer(*shape):
        """The work buffer's first entries as a C-contiguous block of ``shape``."""
        return work.reshape(-1)[:math.prod(shape)].reshape(shape)

    z, inverses, x_cost, last = np.zeros((order, 0)), None, None, None
    for where, idx in stages:
        if idx is not last:
            last, forb, r_aa = idx, np.delete(np.arange(plant.n_ctrl * plant.n_meas), idx), None
        if z is not None and z.shape[1] + forb.size <= FACTORED_RANK_SHARE * order:
            if inverses is None:  # a singular psi or omega fails the first stage
                try:
                    inverses = np.linalg.inv(gains.psi), np.linalg.inv(gains.omega)
                except np.linalg.LinAlgError as exc:
                    raise _stage_failure("R = psi kron omega", np.kron(gains.psi, gains.omega),
                                         where, idx.size) from exc
            (t, s_y, s_z), z = _factored_stage(lift, *inverses, z, where, idx, forb)
            zx = x1 @ z
            yield (idx, forb, t, s_y, s_z), float(zx @ zx)
            continue
        if r_aa is None:
            r_aa, r_ca = _allowed_weights(gains.psi, gains.omega, lift.omega_k, lift.psi_l_t,
                                          idx)
        if z is not None:
            # the handover, once: X = Z Z^T read through Z, with W = B_a^T Z
            # and G = A_bar^T Z
            w, g_z = lift.b_v_t_times(z)[idx], lift.a_bar_t_times(z)
            h = r_aa + w @ w.T
            g = w @ g_z.T - r_ca
            x_cost = np.matmul(g_z, g_z.T)                 # G G^T = A_bar^T X A_bar
            x_cost *= 0.5
            z = w = g_z = None
            # X and a work buffer of one panel, X's size where one panel covers
            # X, reused at every stage: fresh order x order temporaries would
            # page-fault anew each time
            work = np.empty((rows, order))
        else:
            if whole:
                xb = lift.b_v_t_times(x_cost)[idx].T         # X B_v, allowed columns
            else:
                xb = np.empty((order, idx.size))
                for s, e in panels:
                    xb[s:e] = lift.b_v_t_times(x_cost[:, s:e])[idx].T
            h = r_aa + lift.b_v_t_times(xb)[idx]
            g = lift.a_bar_t_times(xb).T - r_ca
            xb = None
            # X has been read in full, so A_bar^T X, then (A_bar^T X) A_bar/2,
            # go into X's own buffer
            if whole:
                lift.times_half_a_bar(lift.a_bar_t_times(x_cost, out=work), out=x_cost)
            else:
                for s, e in panels:
                    x_cost[:, s:e] = lift.a_bar_t_times(x_cost[:, s:e], out=buffer(order, e - s))
                for s, e in panels:
                    x_cost[s:e, s:] = lift.times_half_a_bar(x_cost[s:e], out=buffer(e - s, order),
                                                            first=s)
        gain = _stage_solve(np.linalg.inv, "h", h, where, idx.size) @ g
        g *= 0.5
        lift.add_half_c_r_c(x_cost, work)
        if whole:
            x_cost -= np.matmul(g.T, gain, out=work)
            np.copyto(work, x_cost.T)                      # X <- Y/2 + (Y/2)^T
            x_cost += work
        else:
            for s, e in panels:
                x_cost[s:e, s:] -= np.matmul(g.T[s:e], gain[:, s:], out=buffer(e - s, order - s))
            for s, e in panels:                            # X <- Y from its upper triangle
                np.copyto(buffer(e - s, e - s), x_cost[s:e, s:e].T)
                x_cost[s:e, s:e] += buffer(e - s, e - s)
                x_cost[s:e, e:] *= 2.0
                x_cost[e:, s:e] = x_cost[s:e, e:].T
        yield (idx, gain), float(x1 @ x_cost @ x1)
    if condensed:
        # X_{s+1}, or its factor, read once as S^T X S; the last stage's
        # order-wide temporaries go first, and X before the condensed lags
        h = g = r_ca = None
        basis, terms = _input_bases(plant, gains, condensed)
        if z is not None:
            x_tilde = basis @ z
            x_tilde = x_tilde @ x_tilde.T
        else:
            d = len(basis)
            for s, e in panels:                            # X S into X's own rows
                x_cost[s:e, :d] = np.matmul(x_cost[s:e], basis.T, out=buffer(e - s, d))
            x_tilde = basis @ x_cost[:, :d]
        z = x_cost = work = basis = None
        yield from _condensed_stages(plant, gains, condensed, x_tilde, terms)


def _input_bases(plant: GeneralizedPlant, gains: RiccatiGains, condensed):
    """S_{s+1}^T, a (d_{s+1}, order) array, and the list of the terms
    E_k^T = (C_v S_k)^T, d_k x n_j, of lags k = 1 ... s for the condensed
    lags ``condensed``, (label, allowed coordinates) of lags 1 ... s.  One
    pass builds S^T in place, and each E_k^T is read off the rows S_k^T
    before the next step overwrites them.

    S_1 = x_1 and S_{k+1} = [A_bar S_k, B_{a_k}], so x_k = S_k xi_k with
    xi_k = [1; J_{1,a}; ...; J_{k-1,a}] and d_k = 1 + a_1 + ... + a_{k-1}
    columns.  Each row of S^T holds [vec(P); vec(Q)] of one generator, which
    C-order reshapes read as P^T and Q^T, so A_bar S is the recursion of
    :func:`_lift` transposed, P^T <- P^T A^T - L^T (Q^T B2^T) and
    Q^T <- A^T Q^T, run a panel of rows at a time in place.  The column of
    B_v for vec(J)'s index y n_u + u holds P = B2 e_u e_y^T and
    Q = e_u e_y^T C2, so its row is B2's column u in P^T's row y and C2's
    row y in Q^T's column u, written from B2 and C2 directly.  E_k = C_v S_k
    is vec(K P + Q L) on each generator, read off S_k^T as
    P^T K^T + L^T Q^T."""
    a, b2, c2, k, l = plant.a, plant.b2, plant.c2, gains.k_gain, gains.l_gain
    n, n_u, n_y = plant.n, plant.n_ctrl, plant.n_meas
    order, split, d, terms = n * (n_u + n_y), n * n_y, 1, []
    basis = np.zeros((d + sum(idx.size for _, idx in condensed), order))
    p_t = basis[:, :split].reshape((len(basis), n_y, n), copy=False)
    q_t = basis[:, split:].reshape((len(basis), n, n_u), copy=False)
    p_t[0] = l.T                                         # x_1 = [vec(L); 0]
    step = max(1, PANEL_ENTRIES // order)
    for _, idx in condensed:
        terms.append((p_t[:d] @ k.T + l.T @ q_t[:d]).reshape(d, n_y * n_u))  # E_k^T
        for r in range(0, d, step):
            p, q = p_t[r:min(r + step, d)], q_t[r:min(r + step, d)]
            p_next = p @ a.T
            p_next -= l.T @ (q @ b2.T)
            p[...] = p_next
            q[...] = a.T @ q
        y, u = np.divmod(idx, n_u)
        rows = np.arange(d, d + idx.size)
        p_t[rows, y] = b2[:, u].T
        q_t[rows, :, u] = c2[y]
        d += idx.size
    return basis, terms


def _condensed_stages(plant: GeneralizedPlant, gains: RiccatiGains, condensed, x_tilde, terms):
    """The backward stages of the condensed lags s ... 1 from
    X~ = S_{s+1}^T X_{s+1} S_{s+1} and ``terms``, the E_k^T = (C_v S_k)^T of
    lags 1 ... s (both from :func:`_input_bases`), in the coordinates xi_k;
    yields each stage's (a, gain h^-1 g), a x d_k, and X~_k[0, 0], the cost
    x_1^T X_1 x_1 after lag 1.

    xi_{k+1} = [xi_k; J_{k,a}], so X~_{k+1}'s leading d_k rows and columns
    (A) and its last a_k (B) hold the blocks of A_bar^T X A_bar, B_a^T X A_bar
    and B_a^T X B_a in these coordinates, and with E = C_v S_k the stage reads

        h = R_aa + X~[B, B],   g = X~[B, A] - (R E)_a,
        X~ <- X~[A, A] + E^T R E - g^T h^-1 g,   J_a = -h^-1 g xi_k,

    on d_k x d_k and d_k x n_j arrays, none order x order.  R E is
    vec(omega U psi^T) on the n_u x n_y blocks U of E's columns.  X~ is
    taken as (Y + Y^T)/2 of the updated Y."""
    psi, omega, n_u, n_y = gains.psi, gains.omega, plant.n_ctrl, plant.n_meas
    for (where, idx), e in zip(reversed(condensed), reversed(terms)):
        d = len(e)
        r_e = (psi @ e.reshape(d, n_y, n_u) @ omega.T).reshape(d, n_y * n_u)
        y, u = np.divmod(idx, n_u)
        h = psi[np.ix_(y, y)] * omega[np.ix_(u, u)] + x_tilde[d:, d:]
        g = x_tilde[d:, :d] - r_e[:, idx].T
        gain = _stage_solve(np.linalg.inv, "h", h, where, idx.size) @ g
        x_next = e @ r_e.T
        x_next += x_tilde[:d, :d]
        x_next -= g.T @ gain
        x_next += x_next.T
        x_next *= 0.5
        x_tilde = x_next
        yield (idx, gain), float(x_tilde[0, 0])


def _allowed_weights(psi, omega, omega_k, psi_l_t, idx):
    """R_aa and (R C_v)_a for the allowed coordinates ``idx`` of vec(J), with
    R = psi kron omega and R C_v = [psi kron omega K, psi L^T kron omega],
    from ``omega_k`` = omega K and ``psi_l_t`` = psi L^T.  The index
    y n_u + u of vec(J) is split by divmod, and each entry is the one
    product of a factor entry by a factor entry that ``np.kron`` forms."""
    a, (n_y, n), n_u = idx.size, psi_l_t.shape, omega.shape[0]
    y, u = np.divmod(idx, n_u)
    r_ca = np.hstack([(psi[y, :, None] * omega_k[u, None, :]).reshape(a, n_y * n),
                      (psi_l_t[y, :, None] * omega[u, None, :]).reshape(a, n * n_u)])
    return psi[np.ix_(y, y)] * omega[np.ix_(u, u)], r_ca


def _factored_stage(lift: _Lift, psi_inv, omega_inv, z, where: str, idx, forb):
    """One backward stage on a factor, X_{k+1} = Z Z^T -> X_k = Z' Z'^T,
    returning the stage's (T, S_y, S_z) and Z'.  ``lift`` is :func:`_lift`'s,
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
    products make A^T Z L_M^-T empty and delta 0.  The optimal J_a is
    e_a + T e_f - S_y S_z^T x, with S_z = A^T Z L_M^-T, S_y = Y L_M^-T and
    e = C_v x, which the forward sweep forms."""
    rank, n_f, n_j = z.shape[1], forb.size, psi_inv.shape[0] * omega_inv.shape[0]
    w = lift.b_v_t_times(z)[idx]                          # B_a^T Z
    t, y, k_f_inv = _allowed_solves(psi_inv, omega_inv, idx, forb, w, where)
    m = np.eye(rank) + w.T @ y
    l_m_inv = _stage_solve(_inverse_cholesky, "M = I + W^T Y", m, where, idx.size)
    u = np.empty((n_j, rank))
    u[idx], u[forb] = w, t.T @ w                         # R_fa Y = T^T W
    a_hat_z = lift.a_bar_t_times(z) + lift.c_v_t_times(u)  # A^T Z
    # A^T Z L_M^-T, the new factor's second block, and Y L_M^-T, which with
    # it gives Y M^-1 (A^T Z)^T
    s_z, s_y = a_hat_z @ l_m_inv.T, y @ l_m_inv.T
    z_new = np.hstack([lift.c_v_t_times(np.eye(n_j)[:, forb]) @ k_f_inv.T, s_z])
    return (t, s_y, s_z), z_new


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
    k_f_inv = _stage_solve(_inverse_cholesky, "(R^-1)_ff", n_ff, where, idx.size)
    t = -(n_ew[idx, :n_f] @ k_f_inv.T) @ k_f_inv
    return t, n_ew[idx, n_f:] + t @ n_ew[forb, n_f:], k_f_inv


def _condensed_lags(order: int, n_j: int, sizes) -> int:
    """The number s of first lags that :func:`solve_constrained_qp` runs in
    their input coordinates, for a lifted ``order``, ``n_j`` coordinates of
    vec(J) and ``sizes``, the allowed count a_k of lags 1 ... N.

    The state x_k = A_bar^(k-1) x_1 + sum_(j<k) A_bar^(k-1-j) B_(a_j) J_(j,a)
    lies in a space of dimension at most d_k = 1 + a_1 + ... + a_(k-1).  s
    is the last lag whose bound d_(s+1) stays within ``FACTORED_RANK_SHARE``
    of the order, the factored stage's rule at the other end, and at most
    the last constrained lag: lags past it keep the empty factor, at V = 0
    and cost 0.0 exactly, where a condensed stage would subtract its stage
    cost from itself."""
    sizes = np.asarray(sizes, dtype=int)
    last = max(np.flatnonzero(sizes < n_j), default=-1) + 1
    return min(int(np.count_nonzero(1 + np.cumsum(sizes) <= FACTORED_RANK_SHARE * order)), last)


def solve_constrained_qp(plant: GeneralizedPlant, gains: RiccatiGains,
                         cs: ConstraintSpace) -> tuple[np.ndarray, float]:
    """Minimize sum_i vec(V_i)^T (psi kron omega) vec(V_i) subject to the
    forbidden coordinates of every constrained FIR coefficient J_i
    (``~cs.entry_mask(i)``, column stacked) vanishing.

    In the coordinates J_i of :func:`_lift` this is a finite-horizon LQR
    whose inputs are the allowed coordinates of vec(J_i), with the state
    matrix A_bar at every lag and the stage cost
    (J_i - C_v x_i)^T (psi kron omega) (J_i - C_v x_i).  The backward sweep
    (:func:`_backward_sweep`) runs lags N ... s + 1 on the lifted state; a
    fully allowed lag past the last constrained one stays on the empty
    factor, at V = 0 and cost 0.0.  Lags s ... 1 (:func:`_condensed_lags`)
    it runs condensed, in the coordinates xi_i = [1; J_(1,a); ...;
    J_(i-1,a)] of the inputs that reach x_i = S_i xi_i, whose dimension is
    far below the order there (partial condensing: Axehill, "Controlling
    the level of sparsity in MPC", Systems & Control Letters 2015).  One
    forward sweep of the n x n recursion forms E_i = K P_i + Q_i L, the
    matrix of C_v x_i, once per lag, and applies each stage's record
    (:func:`_backward_sweep`) for the optimal J_i: a gain h^-1 g as
    J_a = -h^-1 g xi_i at a condensed lag, xi_i growing by each lag's
    J_(i,a), and as -h^-1 g x_i at a dense one; a factored stage's
    (forbidden, T, S_y, S_z) to x_i and vec(E_i).  It returns
    V_i = J_i - E_i as an ``(N, n_ctrl, n_meas)`` array with the optimal
    cost x_1^T X_1 x_1.  The constraint's blocks must be the plant's.
    """
    if (cs.block_rows, cs.block_cols) != (plant.block_rows, plant.block_cols):
        raise DimensionMismatch("constraint blocks do not match the plant blocks")
    n_u, n_y, n = plant.n_ctrl, plant.n_meas, cs.n_horizon

    allowed = [np.flatnonzero(cs.entry_mask(lag).ravel(order="F")) for lag in range(1, n + 1)]
    s = _condensed_lags(plant.n * (n_u + n_y), n_u * n_y, [idx.size for idx in allowed])
    stages = ((f"lag {lag}", allowed[lag - 1]) for lag in range(n, s, -1))
    condensed = [(f"lag {lag}", allowed[lag - 1]) for lag in range(1, s + 1)]
    swept = list(_backward_sweep(plant, gains, stages, condensed))
    cost = swept[-1][1] if swept else 0.0

    a, b2, c2, k, l = plant.a, plant.b2, plant.c2, gains.k_gain, gains.l_gain
    p, q, xi = l, np.zeros((n_u, plant.n)), np.ones(1)
    v = np.zeros((n, n_u, n_y))
    for i, ((idx, *data), _) in enumerate(reversed(swept)):
        e = k @ p + q @ l                                # C_v x
        state = xi if i < s else np.concatenate([vec(p), vec(q)])  # xi_i, then x_i
        e_vec, j = vec(e), np.zeros(n_u * n_y)
        if len(data) == 1:                               # J_a = -h^-1 g state
            j[idx] = -(data[0] @ state)
        else:                                            # factored: u_0 + delta
            forb, t, s_y, s_z = data
            j[idx] = e_vec[idx] + t @ e_vec[forb] - s_y @ (state @ s_z)
        if i < s:                                        # xi_(i+1) = [xi_i; J_(i,a)]
            xi = np.concatenate([xi, j[idx]])
        j = j.reshape(n_u, n_y, order="F")
        v[i] = j - e
        p, q = a @ p + b2 @ (j - q @ l), q @ a + j @ c2
    return v, cost


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
    it.  The QP's V is priced directly, at O(N n_j (n_u + n_y)), and that
    price f(V) is the result's ``qp_cost``.  Omega and Psi are at least I,
    so f(V) >= 0 and the total never falls below ||P11||^2.  A sweep cost
    x_1^T X_1 x_1 (:func:`solve_constrained_qp`) off f(V) by more than
    ``PRICED_COST_TOL`` of ||P11||^2 + f(V), or NaN anywhere, raises
    :class:`SolverFailure` before any result is returned.
    """
    if delays is not None:
        p, verdict = qi_verdict(plant, delays)
        if not verdict.ok:
            raise QIViolation(
                f"not quadratically invariant: {qi_witness_text(delays, p, verdict)}"
            )

    gains, p11_norm_sq = _plant_prefix(plant)
    v_star, swept_cost = solve_constrained_qp(plant, gains, cs)
    # sum_i vec(V_i)^T (psi kron omega) vec(V_i) = sum_i <V_i, omega V_i psi^T>
    qp_cost = float(np.sum(gains.omega @ v_star @ gains.psi.T * v_star))
    gap = abs(swept_cost - qp_cost)
    if not gap <= PRICED_COST_TOL * (p11_norm_sq + qp_cost):
        raise SolverFailure(
            f"QP cost {swept_cost:.6g} at horizon N = {cs.n_horizon} is off the priced cost"
            f" {qp_cost:.6g} of its own V by {gap:.3g}, more than {PRICED_COST_TOL:g} of"
            f" ||P11||^2 + priced: the QP cost lost its accuracy"
        )
    controller = realize_controller(v_star, gains, plant)
    return SynthesisResult(controller, v_star, p11_norm_sq, qp_cost, p11_norm_sq + qp_cost)


def sweep_norms(plant: GeneralizedPlant, template, n_max: int) -> Iterator[float]:
    """The ``h2_norm`` of :func:`synthesize` for N = 1 ... n_max lags of the
    block pattern ``template``, within ``PRICED_COST_TOL``, from one backward
    pass with ``template`` at every stage and no controller: x_1^T X x_1
    after step N is the QP cost at horizon N (an all-allowed template runs
    n_max factored stages on an empty factor, at cost 0.0).  An error raised
    after k norms fails every N > k: a singular stage at backward step
    k + 1, a squared norm at horizon k + 1 that is NaN or below the floor
    max(||P11||^2, 0), or one below horizon k's by more than
    ``PRICED_COST_TOL`` of it.  A constrained optimum never falls below the
    unconstrained one, and each horizon adds constraints, so the optimum
    cannot fall as N grows either: a total below the floor or a fall is the
    sweep's lost accuracy."""
    gains, p11_norm_sq = _plant_prefix(plant)
    mask = expand_pattern(template, plant.block_rows, plant.block_cols)
    idx = np.flatnonzero(mask.ravel(order="F"))
    stages = ((f"backward step {m}", idx) for m in range(1, n_max + 1))
    last = 0.0  # every total passes the floor max(||P11||^2, 0), so N = 1 cannot fall
    for horizon, (_, swept_cost) in enumerate(_backward_sweep(plant, gains, stages), 1):
        total = p11_norm_sq + swept_cost
        if not total >= max(p11_norm_sq, 0.0):
            raise SolverFailure(
                f"squared H2 norm {total:.6g} at horizon N = {horizon} is NaN or below the"
                f" centralized floor ||P11||^2 = {p11_norm_sq:.6g}: the QP cost lost its accuracy")
        if last - total > PRICED_COST_TOL * last:
            raise SolverFailure(f"squared H2 norm {total:.10g} at horizon N = {horizon} is below"
                                f" {last:.10g} at N = {horizon - 1} by {last - total:.3g}, more"
                                f" than {PRICED_COST_TOL:g} of it: the QP cost lost its accuracy")
        last = total
        yield math.sqrt(total)
