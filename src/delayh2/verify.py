"""Independent checks on synthesized controllers.

Nothing here reuses the synthesis pipeline's intermediate quantities: the
closed loop is rebuilt from the raw interconnection, delay-pattern
conformance is read off the controller's own Markov parameters, and the
quadratic program is re-solved as one explicit KKT system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .delaymodel import ConstraintSpace, block_norms
from .errors import DimensionMismatch, IllPosed, SolverFailure
from .statespace import StateSpaceModel, impulse_response
from .synthesis import GeneralizedPlant, VectorizedSystem

CONFORMANCE_TOL = 1e-7


@dataclass(frozen=True)
class ClosedLoop:
    """Disturbance-to-performance map of the plant/controller interconnection.

    ``model.a`` is the state matrix of the whole interconnection, so its
    stability is internal stability.  From order 32 on it is proven by a
    Stein certificate X - A^T X A > 0 built from a few squarings of A; the
    eigenvalues decide below that order and where the powers grow too far
    for the proof to survive its rounding (see
    :attr:`StateSpaceModel.is_stable`).
    """

    model: StateSpaceModel

    @property
    def is_internally_stable(self) -> bool:
        return self.model.is_stable


def closed_loop(plant: GeneralizedPlant, k: StateSpaceModel) -> ClosedLoop:
    """Interconnect a strictly proper controller with the plant.

    Raises
    ------
    IllPosed
        If the controller has a nonzero feedthrough (the loop would need an
        algebraic inversion, which the strictly proper setting rules out).
    """
    if (k.n_inputs, k.n_outputs) != (plant.n_meas, plant.n_ctrl):
        raise DimensionMismatch("controller dimensions do not match the plant")
    if np.count_nonzero(k.d):
        raise IllPosed("controller must be strictly proper (zero feedthrough)")
    n, nk = plant.n, k.order
    a = np.block(
        [
            [plant.a, plant.b2 @ k.c],
            [k.b @ plant.c2, k.a],
        ]
    )
    b = np.vstack([plant.b1, k.b @ plant.d21])
    c = np.hstack([plant.c1, plant.d12 @ k.c])
    d = np.zeros((plant.n_perf, plant.n_dist))
    return ClosedLoop(StateSpaceModel(a, b, c, d))


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of a delay-pattern membership check.

    ``violations`` lists (lag, row_block, col_block, magnitude); lag 0
    entries flag a nonzero feedthrough block.
    """

    ok: bool
    violations: Tuple[Tuple[int, int, int, float], ...]


def conformance(
    k: StateSpaceModel, cs: ConstraintSpace, tol: float = CONFORMANCE_TOL
) -> ConformanceReport:
    """Check that a controller's impulse response lives in the constraint set.

    The feedthrough must vanish and, for each lag 1..N, every forbidden
    block of the corresponding Markov parameter must be zero up to ``tol``
    relative to the overall response scale.
    """
    resp = impulse_response(k, cs.n_horizon)
    tol = tol * (1.0 + float(np.linalg.norm(resp, axis=(1, 2)).max()))
    no_feedthrough = np.zeros((len(cs.block_rows), len(cs.block_cols)), dtype=bool)
    allowed = np.stack((no_feedthrough,) + cs.patterns)
    mags = block_norms(resp, cs.block_rows, cs.block_cols)
    violations = tuple(
        (int(lag), int(i), int(j), float(mags[lag, i, j]))
        for lag, i, j in np.argwhere(~allowed & (mags > tol))
    )
    return ConformanceReport(not violations, violations)


def kkt_oracle(
    vsys: VectorizedSystem,
    cs: ConstraintSpace,
    omega: np.ndarray,
    psi: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Brute-force reference solution of the constrained quadratic program.

    Stacks all FIR coefficients into one decision vector, unrolls the lifted
    recursion into explicit linear equality constraints on the forbidden
    coordinates, and solves the resulting KKT system with a single dense
    solve (minimum-norm least squares when the constraints are redundant).
    Returns the ``(N, n_ctrl, n_meas)`` coefficients and the cost.  Intended
    for small instances only.
    """
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    n_u, n_y = omega.shape[0], psi.shape[0]
    m = n_u * n_y
    n = cs.n_horizon
    if n == 0:
        return np.zeros((0, n_u, n_y)), 0.0

    r = np.kron(psi, omega)
    r_all = np.kron(np.eye(n), r)
    n_var = n * m

    powers = [np.eye(vsys.a_v.shape[0])]
    for _ in range(n):
        powers.append(vsys.a_v @ powers[-1])

    rows = []
    rhs = []
    for i in range(1, n + 1):
        forb = ~cs.entry_mask(i).ravel(order="F")
        c_forb = vsys.c_v[forb]
        row = np.zeros((np.count_nonzero(forb), n_var))
        for j in range(1, i):
            row[:, (j - 1) * m:j * m] = c_forb @ powers[i - 1 - j] @ vsys.b_v
        row[:, (i - 1) * m:i * m] += np.eye(m)[forb]
        rows.append(row)
        rhs.append(-c_forb @ powers[i - 1] @ vsys.x1)

    con = np.vstack(rows)
    con_rhs = np.concatenate(rhs)
    n_con = con.shape[0]

    kkt = np.block([[2.0 * r_all, con.T], [con, np.zeros((n_con, n_con))]])
    full_rhs = np.concatenate([np.zeros(n_var), con_rhs])
    try:
        sol = np.linalg.solve(kkt, full_rhs)
    except np.linalg.LinAlgError:
        sol, _, rank, _ = np.linalg.lstsq(kkt, full_rhs, rcond=None)
        if not np.allclose(kkt @ sol, full_rhs, atol=1e-8):
            raise SolverFailure("KKT system is inconsistent")
    v = sol[:n_var]
    cost = float(v @ r_all @ v)
    return v.reshape(n, n_y, n_u).swapaxes(1, 2), cost
