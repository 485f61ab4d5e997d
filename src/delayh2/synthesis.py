"""H2-optimal output feedback under delay constraints.

The pipeline: solve the two Riccati equations of the centralized LQG
problem and check both by their residuals under the gains they give, then
split the optimal squared norm into ||P11||^2, in closed form from the two
solutions, plus a finite quadratic program over the first N
impulse-response coefficients of the free parameter V, held as one
``(N, n_ctrl, n_meas)`` array.  That program is solved exactly as a
finite-horizon LQR on the Kronecker-lifted FIR recursion, whose inputs are
the coefficients J_i of the constrained channel: the delay constraint, a
boolean mask over each column-stacked coefficient, pins their forbidden
coordinates to zero, the state matrix is the same at every lag, and the
lifted products act on the n x n Kronecker factors.  The backward sweep
starts on an exact low-rank factor of the cost-to-go, whose rank is at most
the forbidden coordinates summed over the lags already swept, and hands the
cost-to-go to a dense stage once that bound nears the lifted order.  The
optimal controller is then assembled in closed form.  When every lag has
one pattern, horizon N's backward sweep is the first N steps of one pass,
so a sweep over N runs the plant's part and that pass once.  The
doubly-coprime factorization's Bezout check and the realization of P11
(:func:`coprime_factorization`, :func:`model_matching_matrices`) stay as
references off the pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from .delaymodel import ConstraintSpace, DelayMatrix, check_qi, expand_pattern, plant_block_delays
from .delaymodel import qi_witness_text
from .errors import (
    AssumptionViolated,
    BezoutCheckFailed,
    DimensionMismatch,
    QIViolation,
    SolverFailure,
)
from .statespace import (
    StateSpaceModel,
    TOL_STAB,
    dare_solve,
    h2_norm_sq,  # off the pipeline; kept while the benchmark traces it as synthesis.p11_norm
    impulse_response,
    multiply,
    vec,
)

# Tolerances for the built-in sanity checks.
NORMALIZATION_TOL = 1e-9
BEZOUT_TOL = 1e-6

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
# order.  On the n = 20 chain (order 800, one BLAS thread, x86 VM) handing
# over at 0.25/0.5/0.75/1/1.5 x order took 0.44/0.41/0.47/0.53/0.79 s per
# QP, against 0.74 s all dense.  A share of 0.5 was slower at n = 5 ... 7,
# where the factored stage's fixed numpy overhead weighs most.
FACTORED_RANK_SHARE = 0.25


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
    and ``block_cols`` partitions the measurement y.
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
        rows = tuple(int(r) for r in self.block_rows)
        cols = tuple(int(c) for c in self.block_cols)
        if sum(rows) != m2:
            raise DimensionMismatch("block_rows must sum to the control dimension")
        if sum(cols) != p2:
            raise DimensionMismatch("block_cols must sum to the measurement dimension")

        d12, c1 = mats["d12"], mats["c1"]
        d21, b1 = mats["d21"], mats["b1"]
        if (
            np.abs(d12.T @ c1).max(initial=0.0) > NORMALIZATION_TOL
            or np.abs(d12.T @ d12 - np.eye(m2)).max() > NORMALIZATION_TOL
        ):
            raise AssumptionViolated("normalization D12^T [C1 D12] = [0 I] fails")
        if (
            np.abs(d21 @ b1.T).max(initial=0.0) > NORMALIZATION_TOL
            or np.abs(d21 @ d21.T - np.eye(p2)).max() > NORMALIZATION_TOL
        ):
            raise AssumptionViolated("normalization D21 [B1^T D21^T] = [0 I] fails")

        _check_stabilizable(mats["a"], mats["b2"], "(A, B2)")
        _check_stabilizable(mats["a"].T, mats["c2"].T, "(A, C2)")

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
    def g11(self) -> StateSpaceModel:
        """Open-loop disturbance-to-performance channel."""
        return StateSpaceModel(self.a, self.b1, self.c1, np.zeros((self.n_perf, self.n_dist)))

    @property
    def g22(self) -> StateSpaceModel:
        """Control-to-measurement channel seen by the controller."""
        return StateSpaceModel(self.a, self.b2, self.c2, np.zeros((self.n_meas, self.n_ctrl)))


def _check_stabilizable(a: np.ndarray, b: np.ndarray, label: str) -> None:
    """PBH test on every eigenvalue on or outside the unit circle."""
    n = a.shape[0]
    if n == 0:
        return
    for lam in np.linalg.eigvals(a):
        if abs(lam) < 1.0 - TOL_STAB:
            continue
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


@dataclass(frozen=True)
class VectorizedSystem:
    """Kronecker lift of the constrained-channel FIR recursion, kept as its
    n x n factors.

    The lifted state x_i = [vec(P_i); vec(Q_i)] stacks an n x n_meas block
    P and an n_ctrl x n block Q, so its dimension ``order`` is
    n * (n_meas + n_ctrl).  Driven by the free coefficient V_i,

        P_{i+1} = A_K P_i + B2 V_i,   Q_{i+1} = K P_i C2 + Q_i A_L + V_i C2,

    from P_1 = L and Q_1 = 0, and the i-th coefficient of the constrained
    channel is J_i = K P_i + Q_i L + V_i.  Column-stacked this reads
    x_{i+1} = A_v x_i + B_v vec(V_i) and vec(J_i) = C_v x_i + vec(V_i).  Taking
    J_i as the input instead, V_i = J_i - K P_i - Q_i L, the gains drop out:

        P_{i+1} = A P_i + B2 (J_i - Q_i L),   Q_{i+1} = Q_i A + J_i C2,

    that is x_{i+1} = A_bar x_i + B_v vec(J_i) with the stage-independent
    A_bar = A_v - B_v C_v = [[I kron A, -L^T kron B2], [0, A^T kron I]].
    The dense A_v, B_v and C_v are properties formed on each access.
    """

    a: np.ndarray
    b2: np.ndarray
    c2: np.ndarray
    k_gain: np.ndarray
    l_gain: np.ndarray

    @property
    def order(self) -> int:
        n, n_u = self.b2.shape
        return n * (self.c2.shape[0] + n_u)

    def _identities(self):
        return np.eye(self.b2.shape[1]), np.eye(self.c2.shape[0])

    @property
    def a_v(self) -> np.ndarray:
        """[[I kron A_K, 0], [C2^T kron K, A_L^T kron I]]"""
        a, b2, c2, k, l = self.a, self.b2, self.c2, self.k_gain, self.l_gain
        eye_u, eye_y = self._identities()
        upper = np.kron(eye_y, a + b2 @ k)
        return np.block(
            [
                [upper, np.zeros((len(upper), a.shape[0] * len(eye_u)))],
                [np.kron(c2.T, k), np.kron((a + l @ c2).T, eye_u)],
            ]
        )

    @property
    def b_v(self) -> np.ndarray:
        """[I kron B2; C2^T kron I]"""
        eye_u, eye_y = self._identities()
        return np.vstack([np.kron(eye_y, self.b2), np.kron(self.c2.T, eye_u)])

    @property
    def c_v(self) -> np.ndarray:
        """[I kron K, L^T kron I]"""
        eye_u, eye_y = self._identities()
        return np.hstack([np.kron(eye_y, self.k_gain), np.kron(self.l_gain.T, eye_u)])

    @property
    def x1(self) -> np.ndarray:
        """[vec(L); 0]"""
        return np.concatenate([vec(self.l_gain), np.zeros(self.k_gain.size)])


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
        return math.sqrt(self.total_norm_sq)


def riccati_gains(plant: GeneralizedPlant) -> RiccatiGains:
    """Solve the control and filtering Riccati equations, form the gains and
    check them.

    X solves X = C1^T C1 + A^T X A - A^T X B2 (I + B2^T X B2)^{-1} B2^T X A
    and Y the dual equation with (A^T, C2^T, B1 B1^T); the gains are
    K = -(I + B2^T X B2)^{-1} B2^T X A and L = -A Y C2^T (I + C2 Y C2^T)^{-1}.
    :func:`dare_solve` raises :class:`AssumptionViolated` unless both loops
    are stable; the filter's loop (A + L C2)^T has the eigenvalues of A + L C2.
    Both equations, formed with these K and L, must then hold to
    ``RICCATI_RESIDUAL_TOL`` (:func:`riccati_residuals`), or
    :class:`SolverFailure` is raised.
    """
    a, b2, c1 = plant.a, plant.b2, plant.c1
    c2, b1 = plant.c2, plant.b1
    x = dare_solve(a, b2, c1.T @ c1)
    y = dare_solve(a.T, c2.T, b1 @ b1.T)
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
    ``RICCATI_RESIDUAL_TOL``, or not a number, raises
    :class:`SolverFailure` naming the equation, the residual and the bound.
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
    """||Q + A^T X A + A^T X B K - X|| over the sum of the four terms' norms
    (0 when all four vanish)."""
    scale = sum(np.linalg.norm(t) for t in (q, a_x_a, a_x_b_k, x))
    return float(np.linalg.norm(q + a_x_a + a_x_b_k - x) / scale) if scale else 0.0


def coprime_factorization(plant: GeneralizedPlant, gains: RiccatiGains) -> float:
    """Bezout residual of the doubly-coprime factorization of g22.

    The eight factors built from the LQG gains are slices of two stacked
    realizations sharing the regulator and estimator loops,

        [ X~  -Y~ ]     [ M^  Y^ ]
        [ -N~  M~ ] and [ N^  X^ ],

    whose product must be the identity.  Its Markov parameters up to lag
    2n + 2 are compared with I at lag 0 and 0 after; the largest deviation
    is returned, and one beyond ``BEZOUT_TOL`` raises
    :class:`BezoutCheckFailed`.
    """
    b2, c2 = plant.b2, plant.c2
    k, l = gains.k_gain, gains.l_gain
    inputs, eye = np.hstack([b2, -l]), np.eye(plant.n_ctrl + plant.n_meas)
    left = StateSpaceModel(gains.a_l, inputs, np.vstack([-k, -c2]), eye)
    right = StateSpaceModel(gains.a_k, inputs, np.vstack([k, c2]), eye)
    resp = impulse_response(multiply(left, right), 2 * plant.n + 2)
    resp[0] -= eye
    residual = float(np.abs(resp).max())
    if residual > BEZOUT_TOL:
        raise BezoutCheckFailed(f"Bezout identity residual {residual:.3g}")
    return residual


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


def vectorized_system(
    plant: GeneralizedPlant, gains: RiccatiGains
) -> VectorizedSystem:
    """Kronecker lift of the constrained-channel FIR recursion, held as the
    plant's A, B2, C2 and the gains K, L (see :class:`VectorizedSystem`)."""
    return VectorizedSystem(plant.a, plant.b2, plant.c2, gains.k_gain, gains.l_gain)


def _lifted_products(vsys: VectorizedSystem):
    """Left products ``A_bar^T y`` (optionally into ``out``) and ``B_v^T y``
    for an (order, k) block y.

    They act on the n x n factors through vec(M X N) = (N^T kron M) vec(X):
    a column of y holds [vec(P); vec(Q)] with P n x n_meas and Q n_ctrl x n,
    which C-order reshapes read back as P^T and Q^T, and

        A_bar^T [vec(P); vec(Q)] = [vec(A^T P); vec(Q A^T - B2^T P L^T)],
        B_v^T [vec(P); vec(Q)] = vec(B2^T P + Q C2^T),

    which costs O(k * order * n) instead of O(k * order^2).
    """
    a, b2, c2, l = vsys.a, vsys.b2, vsys.c2, vsys.l_gain
    n, n_u = b2.shape
    n_y = c2.shape[0]
    split = n * n_y

    def a_bar_t_times(y, out=None):
        k = y.shape[1]
        p_t = y[:split].reshape(n_y, n, k)
        if out is None:
            out = np.empty((vsys.order, k))
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

    return a_bar_t_times, b_v_t_times


def _c_v_products(vsys: VectorizedSystem):
    """Products ``C_v x`` for a lifted state x and ``C_v^T u`` for an
    (n_ctrl * n_meas, k) block u, on the n x n factors: with
    x = [vec(P); vec(Q)] and u holding vec(U), U n_ctrl x n_meas,

        C_v x = vec(K P + Q L),   C_v^T vec(U) = [vec(K^T U); vec(U L^T)].
    """
    k_gain, l = vsys.k_gain, vsys.l_gain
    n_u, n = k_gain.shape
    n_y = l.shape[1]
    split = n * n_y

    def c_v_times(x):
        return (x[:split].reshape(n_y, n) @ k_gain.T + l.T @ x[split:].reshape(n, n_u)).ravel()

    def c_v_t_times(u):
        k = u.shape[1]
        u_t = u.reshape(n_y, n_u, k)
        return np.vstack([
            np.matmul(k_gain.T, u_t).reshape(n * n_y, k),
            (l @ u_t.reshape(n_y, n_u * k)).reshape(n * n_u, k),
        ])

    return c_v_times, c_v_t_times


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


def _stage_failure(where: str, n_allowed: int) -> SolverFailure:
    return SolverFailure(f"singular stage matrix h at {where} ({n_allowed} allowed coordinates)")


def _backward_sweep(vsys: VectorizedSystem, omega, psi, stages: Iterable[tuple[str, np.ndarray]]):
    """The backward sweep of :func:`solve_constrained_qp` from X = 0 over
    ``stages``, (label, allowed coordinates of vec(J)) from the last lag
    back.  Yields, per stage, its feedback (a function from the lifted state
    x to the allowed coordinates of the optimal J) and the cost
    x_1^T X x_1 after it.

    The first stages run on a factor X = Z Z^T (:func:`_factored_stages`),
    starting from rank 0, and each adds its forbidden count to the rank.
    Once that would pass ``FACTORED_RANK_SHARE`` of the order, X is formed
    and the dense stage finishes the sweep."""
    order, x1 = vsys.order, vsys.x1
    n_j = omega.shape[0] * psi.shape[0]
    r = _kron(psi, omega)
    stages = iter(stages)
    z, factored_stage = np.zeros((order, 0)), None
    for where, idx in stages:
        forbidden = np.ones(n_j, bool)
        forbidden[idx] = False
        forb = np.flatnonzero(forbidden)
        if z.shape[1] + forb.size > FACTORED_RANK_SHARE * order:
            stages = itertools.chain([(where, idx)], stages)
            break
        if factored_stage is None:
            factored_stage = _factored_stages(vsys, omega, psi, r, where, idx.size)
        feedback, z = factored_stage(z, where, idx, forb)
        zx = x1 @ z
        yield feedback, float(zx @ zx)
    else:
        return

    k, l = vsys.k_gain, vsys.l_gain
    split = k.shape[1] * psi.shape[0]
    # R C_v and C_v^T R C_v, block by block
    r_c = np.empty((n_j, order))
    _kron(psi, omega @ k, out=r_c[:, :split])
    _kron(psi @ l.T, omega, out=r_c[:, split:])
    c_r_c = np.empty((order, order))
    _kron(psi, k.T @ omega @ k, out=c_r_c[:split, :split])
    _kron(psi @ l.T, k.T @ omega, out=c_r_c[:split, split:])
    _kron(l @ psi, omega @ k, out=c_r_c[split:, :split])
    _kron(l @ psi @ l.T, omega, out=c_r_c[split:, split:])
    a_bar_t_times, b_v_t_times = _lifted_products(vsys)

    # X and two work buffers, reused at every stage: fresh order x order
    # temporaries would page-fault anew each time
    x_cost = z @ z.T
    x_next, work = np.empty_like(x_cost), np.empty_like(x_cost)
    for where, idx in stages:
        xb = b_v_t_times(x_cost)[idx].T                  # X B_v, allowed columns
        h = r[np.ix_(idx, idx)] + b_v_t_times(xb)[idx]
        g = a_bar_t_times(xb).T - r_c[idx]
        try:
            gain = np.linalg.inv(h) @ g
        except np.linalg.LinAlgError as exc:
            raise _stage_failure(where, idx.size) from exc
        a_bar_t_times(a_bar_t_times(x_cost, out=work).T, out=x_next)
        x_next += c_r_c
        x_next -= np.matmul(g.T, gain, out=work)
        np.add(x_next, x_next.T, out=x_cost)
        x_cost *= 0.5
        yield (lambda x, gain=gain: -(gain @ x)), float(x1 @ x_cost @ x1)


def _factored_stages(vsys: VectorizedSystem, omega, psi, r, where: str, n_allowed: int):
    """The backward stage on a factor, X_{k+1} = Z Z^T -> X_k = Z' Z'^T, as a
    function of (Z, label, allowed and forbidden coordinates) returning the
    stage's feedback and Z'.

    With a allowed and f forbidden coordinates, R = psi kron omega and
    W = B_a^T Z, the stage splits J_a = u_0 + delta.  The part in R alone,
    min over J_a of (J - C_v x)^T R (J - C_v x), is
    x^T C_f^T [(R^-1)_ff]^-1 C_f x at u_0 = R_aa^-1 (R C_v x)_a
    = (C_a + T C_f) x, T = R_aa^-1 R_af.  With
    A^ = A_bar + B_a R_aa^-1 (R C_v)_a what remains is
    delta^T R_aa delta + ||Z^T (A^ x + B_a delta)||^2, minimized at
    delta = -Y M^-1 (A^T Z)^T x with Y = R_aa^-1 W and M = I + W^T Y >= I.
    So, with (R^-1)_ff = K_f K_f^T and M = L_M L_M^T,

        Z' = [C_f^T K_f^-T, A^T Z L_M^-T],
        A^T Z = A_bar^T Z + C_v^T (E_a^T W + E_f^T R_fa Y),

    two positive semidefinite square roots joined, nothing subtracted.  The
    stage costs O(a^3 + a^2 r + (a + order) r^2) for a factor of rank r,
    against the dense stage's O(a order^2), and it is exact: nothing is
    truncated.  R^-1 = psi^-1 kron omega^-1 is formed here, so a singular
    psi or omega fails the first factored stage, labelled ``where``; the
    products with A_bar, B_v and C_v run on the Kronecker factors."""
    try:
        r_inv = _kron(np.linalg.inv(psi), np.linalg.inv(omega))
    except np.linalg.LinAlgError as exc:
        raise _stage_failure(where, n_allowed) from exc
    order, eye_j = vsys.order, np.eye(r.shape[0])
    a_bar_t_times, b_v_t_times = _lifted_products(vsys)
    c_v_times, c_v_t_times = _c_v_products(vsys)

    def stage(z, where, idx, forb):
        rank, n_f = z.shape[1], forb.size
        w = b_v_t_times(z)[idx]                          # B_a^T Z
        try:
            t_y = np.linalg.solve(r[np.ix_(idx, idx)], np.hstack([r[np.ix_(idx, forb)], w]))
            k_f = np.linalg.cholesky(r_inv[np.ix_(forb, forb)])
            l_m = np.linalg.cholesky(np.eye(rank) + w.T @ t_y[:, n_f:]) if rank else None
        except np.linalg.LinAlgError as exc:
            raise _stage_failure(where, idx.size) from exc
        t, y = t_y[:, :n_f], t_y[:, n_f:]
        z_new = np.empty((order, n_f + rank))
        z_new[:, :n_f] = np.linalg.solve(k_f, c_v_t_times(eye_j[:, forb]).T).T   # C_f^T K_f^-T
        if rank:
            u = np.empty((r.shape[0], rank))
            u[idx], u[forb] = w, r[np.ix_(forb, idx)] @ y
            a_hat_z = a_bar_t_times(z) + c_v_t_times(u)   # A^T Z
            # L_M^-1 [(A^T Z)^T, Y^T]: the new factor's second block and,
            # with it, Y M^-1 (A^T Z)^T
            s = np.linalg.solve(l_m, np.hstack([a_hat_z.T, y.T]))
            z_new[:, n_f:] = s[:, :order].T
            s_z, s_y = s[:, :order], s[:, order:].T

        def feedback(x):
            e = c_v_times(x)
            j_a = e[idx] + t @ e[forb]                   # u_0
            if rank:
                j_a -= s_y @ (s_z @ x)                   # delta
            return j_a

        return feedback, z_new

    return stage


def solve_constrained_qp(
    vsys: VectorizedSystem,
    cs: ConstraintSpace,
    omega: np.ndarray,
    psi: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Minimize sum_i vec(V_i)^T (psi kron omega) vec(V_i) subject to the
    forbidden coordinates of every constrained FIR coefficient J_i vanishing.

    The problem is a finite-horizon time-varying LQR on the lifted
    recursion in constrained-channel coordinates: the input at lag i is
    vec(J_i), whose forbidden coordinates (``~cs.entry_mask(i)``, column
    stacked) are zero, so only the allowed ones are inputs.  The state
    matrix A_bar is the same at every lag, and the stage cost is
    (J_i - C_v x_i)^T R (J_i - C_v x_i) with R = psi kron omega.  A backward
    Riccati sweep from X_{N+1} = 0 picks, at each lag, the allowed rows and
    columns of B_v^T X B_v, B_v^T X A_bar, R and R C_v:

        h = R_aa + (B_v^T X B_v)_aa,   g = (B_v^T X A_bar)_a - (R C_v)_a,
        X <- A_bar^T X A_bar + C_v^T R C_v - g^T h^-1 g.

    The products with A_bar and B_v run on the Kronecker factors
    (:func:`_lifted_products`), which leaves the downdate as the only step
    costing O(allowed * order^2).  That dense stage runs only at the early
    lags.  X_k is the cost of the minimum-norm V meeting the constraints of
    lags k ... N, so its rank is at most their forbidden coordinates summed,
    and the sweep starts on a factor X = Z Z^T of that width
    (:func:`_factored_stages`), at O(allowed^3 + allowed^2 r + order r^2) for
    rank r.  Once the rank bound would pass ``FACTORED_RANK_SHARE`` of the
    order, X = Z Z^T goes to the dense stage, which finishes the sweep
    (:func:`_backward_sweep`).  Both forms are exact.  A forward sweep of
    the n x n recursion of :class:`VectorizedSystem` then recovers each
    stage's optimal J_i from x_i, here J_i = -h^-1 g x_i, and
    V_i = J_i - K P_i - Q_i L, returned as an ``(N, n_ctrl, n_meas)`` array;
    the optimal cost is x_1^T X_1 x_1.
    """
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    n_u, n_y = omega.shape[0], psi.shape[0]
    n = cs.n_horizon
    if sum(cs.block_rows) != n_u or sum(cs.block_cols) != n_y:
        raise DimensionMismatch("constraint blocks do not match the weight sizes")

    allowed = [np.flatnonzero(cs.entry_mask(lag).ravel(order="F")) for lag in range(1, n + 1)]
    # Past the last lag with a forbidden coordinate V = 0 and X = 0, so both
    # sweeps stop there; C_v^T R C_v - g^T h^-1 g would leave rounding noise
    # where that X is exactly zero.
    n_con = max(
        (lag for lag, idx in enumerate(allowed, 1) if idx.size < n_u * n_y), default=0
    )
    stages = ((f"lag {lag}", allowed[lag - 1]) for lag in range(n_con, 0, -1))
    feedback, qp_cost = [], 0.0
    for stage_feedback, qp_cost in _backward_sweep(vsys, omega, psi, stages):
        feedback.append(stage_feedback)

    a, b2, c2, k, l = vsys.a, vsys.b2, vsys.c2, vsys.k_gain, vsys.l_gain
    p, q = l, np.zeros((n_u, a.shape[0]))
    v = np.zeros((n, n_u, n_y))
    for i, stage_feedback in enumerate(reversed(feedback)):
        j = np.zeros(n_u * n_y)
        j[allowed[i]] = stage_feedback(np.concatenate([vec(p), vec(q)]))
        j = j.reshape(n_u, n_y, order="F")
        v[i] = j - k @ p - q @ l
        p, q = a @ p + b2 @ (j - q @ l), q @ a + j @ c2
    return v, qp_cost


def _horizon_qp_costs(vsys: VectorizedSystem, mask: np.ndarray, omega, psi, n_max: int):
    """x_1^T X x_1 after each step of one pass with ``mask`` at every stage: the
    costs of :func:`solve_constrained_qp` for N = 1 ... n_max, bit for bit."""
    idx = np.flatnonzero(mask.ravel(order="F"))
    if idx.size == mask.size:  # no forbidden coordinate: X = 0, as in the solver
        yield from [0.0] * n_max
        return
    stages = ((f"backward step {m}", idx) for m in range(1, n_max + 1))
    for _, qp_cost in _backward_sweep(vsys, omega, psi, stages):
        yield qp_cost


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


def _plant_prefix(plant: GeneralizedPlant) -> tuple[RiccatiGains, float, VectorizedSystem]:
    """The plant's part of synthesis: the gains, checked by the residuals of
    both Riccati equations (:func:`riccati_gains`), ||P11||^2 and the lift.

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
    return gains, p11_norm_sq, vectorized_system(plant, gains)


def synthesize(
    plant: GeneralizedPlant,
    cs: ConstraintSpace,
    delays: Optional[DelayMatrix] = None,
) -> SynthesisResult:
    """Full synthesis pipeline for one plant and constraint space.

    When ``delays`` is supplied the quadratic-invariance condition is
    verified against the plant's block transport delays first and a failure
    raises :class:`QIViolation`; otherwise the caller is trusted to have
    checked it.
    """
    if tuple(cs.block_rows) != tuple(plant.block_rows) or tuple(cs.block_cols) != tuple(
        plant.block_cols
    ):
        raise DimensionMismatch("constraint blocks do not match the plant blocks")
    if delays is not None:
        horizon = delays.max_delay()
        p = plant_block_delays(plant.g22, plant.block_rows, plant.block_cols, horizon)
        verdict = check_qi(delays, p)
        if not verdict.ok:
            raise QIViolation(
                f"not quadratically invariant: {qi_witness_text(delays, p, verdict)}"
            )

    gains, p11_norm_sq, vsys = _plant_prefix(plant)
    v_star, qp_cost = solve_constrained_qp(vsys, cs, gains.omega, gains.psi)
    controller = realize_controller(v_star, gains, plant)
    return SynthesisResult(controller, v_star, p11_norm_sq, qp_cost, p11_norm_sq + qp_cost)


def sweep_norms(plant: GeneralizedPlant, template, n_max: int) -> Iterator[float]:
    """The ``h2_norm`` of :func:`synthesize` for N = 1 ... n_max lags of the
    block pattern ``template``, from one backward pass and no controller.  An
    error raised after k norms fails every N > k (at backward step k + 1)."""
    gains, p11_norm_sq, vsys = _plant_prefix(plant)
    mask = expand_pattern(template, plant.block_rows, plant.block_cols)
    for qp_cost in _horizon_qp_costs(vsys, mask, gains.omega, gains.psi, n_max):
        yield math.sqrt(p11_norm_sq + qp_cost)
