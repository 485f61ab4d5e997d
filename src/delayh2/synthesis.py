"""H2-optimal output feedback under delay constraints.

The pipeline: solve the two Riccati equations of the centralized LQG
problem, check the Bezout identity of the doubly-coprime factorization they
induce, and split the optimal squared norm into ||P11||^2 plus a finite
quadratic program over the first N impulse-response coefficients of the
free parameter V, held as one ``(N, n_ctrl, n_meas)`` array.  That program
is solved exactly as a finite-horizon time-varying LQR after vectorizing
the FIR recursion with Kronecker products; the delay constraint enters as a
boolean mask over each column-stacked coefficient, so allowed and forbidden
coordinates are picked by indexing.  The optimal controller is then
assembled in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .delaymodel import ConstraintSpace, DelayMatrix, check_qi, plant_block_delays
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
    h2_norm_sq,
    impulse_response,
    multiply,
    unvec,
    vec,
)

# Tolerances for the built-in sanity checks.
NORMALIZATION_TOL = 1e-9
BEZOUT_TOL = 1e-6


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
    """Kronecker-lifted recursion generating the constrained FIR coefficients.

    State dimension is n*(n_meas + n_ctrl); the input at step i is the
    column-stacked i-th FIR coefficient of the free parameter and the output
    is the column-stacked i-th coefficient of the constrained channel, with
    identity feedthrough.
    """

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
        return math.sqrt(self.total_norm_sq)


def riccati_gains(plant: GeneralizedPlant) -> RiccatiGains:
    """Solve the control and filtering Riccati equations and form the gains.

    X solves X = C1^T C1 + A^T X A - A^T X B2 (I + B2^T X B2)^{-1} B2^T X A
    and Y the dual equation with (A^T, C2^T, B1 B1^T); the gains are
    K = -(I + B2^T X B2)^{-1} B2^T X A and L = -A Y C2^T (I + C2 Y C2^T)^{-1}.
    :func:`dare_solve` raises :class:`AssumptionViolated` unless both loops
    are stable; the filter's loop (A + L C2)^T has the eigenvalues of A + L C2.
    """
    a, b2, c1 = plant.a, plant.b2, plant.c1
    c2, b1 = plant.c2, plant.b1
    x = dare_solve(a, b2, c1.T @ c1)
    y = dare_solve(a.T, c2.T, b1 @ b1.T)
    omega = np.eye(plant.n_ctrl) + b2.T @ x @ b2
    psi = np.eye(plant.n_meas) + c2 @ y @ c2.T
    k = -np.linalg.solve(omega, b2.T @ x @ a)
    l = -np.linalg.solve(psi.T, (a @ y @ c2.T).T).T
    return RiccatiGains(x, y, k, l, omega, psi, a + b2 @ k, a + l @ c2)


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
    """Kronecker lift of the constrained-channel FIR recursion.

    Column-stacking the i-th FIR coefficient J_i of the constrained channel
    gives vec(J_i) = C_v x_i + vec(V_i) with x_{i+1} = A_v x_i + B_v vec(V_i)
    and x_1 = [vec(L); 0].
    """
    b2, c2 = plant.b2, plant.c2
    k, l = gains.k_gain, gains.l_gain
    a_k, a_l = gains.a_k, gains.a_l
    n, n_u, n_y = plant.n, plant.n_ctrl, plant.n_meas
    a_v = np.block(
        [
            [np.kron(np.eye(n_y), a_k), np.zeros((n * n_y, n * n_u))],
            [np.kron(c2.T, k), np.kron(a_l.T, np.eye(n_u))],
        ]
    )
    b_v = np.vstack([np.kron(np.eye(n_y), b2), np.kron(c2.T, np.eye(n_u))])
    c_v = np.hstack([np.kron(np.eye(n_y), k), np.kron(l.T, np.eye(n_u))])
    x1 = np.concatenate([vec(l), np.zeros(n * n_u)])
    return VectorizedSystem(a_v, b_v, c_v, x1)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def solve_constrained_qp(
    vsys: VectorizedSystem,
    cs: ConstraintSpace,
    omega: np.ndarray,
    psi: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Minimize sum_i vec(V_i)^T (psi kron omega) vec(V_i) subject to the
    forbidden coordinates of every constrained FIR coefficient vanishing.

    The problem is a finite-horizon time-varying LQR on the lifted
    recursion.  At lag i the mask ``cs.entry_mask(i)`` splits vec(V_i) into
    allowed and forbidden coordinates; the forbidden ones are pinned to
    cancel the constrained channel, -C_v[forb] x_i, and the allowed ones
    are the inputs.  A backward Riccati recursion from X_{N+1} = 0 yields
    feedback gains, and a forward sweep reconstructs the optimal
    coefficients V_1 ... V_N, returned as an ``(N, n_ctrl, n_meas)`` array.
    The optimal cost is x_1^T X_1 x_1.
    """
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    n_u, n_y = omega.shape[0], psi.shape[0]
    n = cs.n_horizon
    if n == 0:
        return np.zeros((0, n_u, n_y)), 0.0
    if sum(cs.block_rows) != n_u or sum(cs.block_cols) != n_y:
        raise DimensionMismatch("constraint blocks do not match the weight sizes")

    r_half = np.kron(_psd_sqrt(psi), _psd_sqrt(omega))
    stages = []
    for lag in range(1, n + 1):
        allowed = cs.entry_mask(lag).ravel(order="F")
        forb = ~allowed
        c_forb = vsys.c_v[forb]
        stages.append(
            (
                vsys.a_v - vsys.b_v[:, forb] @ c_forb,
                vsys.b_v[:, allowed],
                -r_half[:, forb] @ c_forb,
                r_half[:, allowed],
                allowed,
            )
        )

    x_cost = np.zeros_like(vsys.a_v)
    feedback = [None] * n
    for i in range(n - 1, -1, -1):
        a_i, b_i, c_i, d_i, _ = stages[i]
        h = d_i.T @ d_i + b_i.T @ x_cost @ b_i
        g = b_i.T @ x_cost @ a_i + d_i.T @ c_i
        try:
            k_i = -np.linalg.solve(h, g)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular stage cost in the QP recursion") from exc
        x_new = c_i.T @ c_i + a_i.T @ x_cost @ a_i + (a_i.T @ x_cost @ b_i + c_i.T @ d_i) @ k_i
        x_cost = 0.5 * (x_new + x_new.T)
        feedback[i] = k_i

    qp_cost = float(vsys.x1 @ x_cost @ vsys.x1)

    state = vsys.x1.copy()
    v = np.empty((n, n_u, n_y))
    for i in range(n):
        a_i, b_i, _, _, allowed = stages[i]
        v_vec = np.empty(n_u * n_y)
        v_vec[allowed] = feedback[i] @ state
        v_vec[~allowed] = -vsys.c_v[~allowed] @ state
        v[i] = unvec(v_vec, n_u, n_y)
        state = (a_i + b_i @ feedback[i]) @ state
    return v, qp_cost


def realize_controller(
    v_star: np.ndarray, gains: RiccatiGains, plant: GeneralizedPlant
) -> StateSpaceModel:
    """Assemble the strictly proper controller for a FIR free parameter,
    given as its ``(N, n_ctrl, n_meas)`` coefficients V_1 ... V_N.

    The realization couples the LQG observer loop with a shift register
    holding the last N measurements; its order is n + n_meas * N.
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
            k, i, j, l = verdict.witness
            raise QIViolation(
                f"not quadratically invariant: d[{k},{i}] + p[{i},{j}] + d[{j},{l}] "
                f"< d[{k},{l}]"
            )

    gains = riccati_gains(plant)
    coprime_factorization(plant, gains)
    p11_norm_sq = h2_norm_sq(model_matching_matrices(plant, gains))
    vsys = vectorized_system(plant, gains)
    v_star, qp_cost = solve_constrained_qp(vsys, cs, gains.omega, gains.psi)
    controller = realize_controller(v_star, gains, plant)
    return SynthesisResult(controller, v_star, p11_norm_sq, qp_cost, p11_norm_sq + qp_cost)
