"""Dense state-space primitives for discrete-time linear systems.

Systems evolve as ``x[t+1] = A x[t] + B u[t]``, ``y[t] = C x[t] + D u[t]``
and are represented by immutable :class:`StateSpaceModel` values.  The
pipeline needs only a few operations on them: impulse responses (one
``(T+1, outputs, inputs)`` array indexed by lag), the series product behind
the Bezout check, squared H2 norms, and the Stein (discrete
Lyapunov/Sylvester) and Riccati equations, both solved by doubling, O(n^3)
per step, each step covering twice the horizon of the last.

``vec`` stacks columns (Fortran order) throughout, which is the convention
under which vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    SolverFailure,
    UnstableSystem,
)

# Slack on the unit circle when declaring a matrix stable.
TOL_STAB = 1e-9

# Relative change of the Riccati iterate at which doubling stops.
DARE_TOL = 1e-12

# Step cap of both doubling solvers: step k covers 2^k terms, so a spectral
# radius of 1 - TOL_STAB decays below eps within about 35 steps.
DOUBLING_MAX_STEPS = 64


def _as_matrix(m) -> np.ndarray:
    return np.atleast_2d(np.asarray(m, dtype=float))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-d vector."""
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a matrix of known shape."""
    return np.asarray(v, dtype=float).reshape((rows, cols), order="F")


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix (0 for the 0x0 matrix)."""
    a = _as_matrix(a)
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _require_stable(a: np.ndarray, what: str) -> None:
    rho = spectral_radius(a)
    if rho >= 1.0 - TOL_STAB:
        raise UnstableSystem(f"{what}: spectral radius {rho:.6g} >= 1 - {TOL_STAB:g}")


@dataclass(frozen=True)
class StateSpaceModel:
    """A real discrete-time realization (A, B, C, D).

    The state dimension may be zero, in which case the model is the static
    gain D.  Instances are immutable; treat the arrays as read-only.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a, b, c, d = map(_as_matrix, (self.a, self.b, self.c, self.d))
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        if b.shape[0] != n:
            raise DimensionMismatch(f"B has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"C has {c.shape[1]} cols, expected {n}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionMismatch(
                f"D is {d.shape}, expected {(c.shape[0], b.shape[1])}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    @property
    def is_stable(self) -> bool:
        """Spectral radius of A below 1 - ``TOL_STAB``, the margin every
        solver that needs a stable A applies."""
        return spectral_radius(self.a) < 1.0 - TOL_STAB

    @staticmethod
    def static(d) -> "StateSpaceModel":
        """Zero-state model realizing a constant gain."""
        d = _as_matrix(d)
        return StateSpaceModel(
            np.zeros((0, 0)), np.zeros((0, d.shape[1])), np.zeros((d.shape[0], 0)), d
        )


def impulse_response(g: StateSpaceModel, horizon: int) -> np.ndarray:
    """Markov parameters G_0 = D, G_k = C A^{k-1} B of ``g`` up to lag
    ``horizon`` (inclusive), stacked into a ``(horizon + 1, p, m)`` array.

    Parameters
    ----------
    g : StateSpaceModel
    horizon : int
        Largest lag to compute; must be >= 0.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    terms = [g.d]
    w = g.b
    for _ in range(horizon):
        terms.append(g.c @ w)
        w = g.a @ w
    return np.stack(terms)


def multiply(g: StateSpaceModel, h: StateSpaceModel) -> StateSpaceModel:
    """Realization of the transfer-matrix product G(z) H(z)."""
    if g.n_inputs != h.n_outputs:
        raise DimensionMismatch(
            f"product undefined: G has {g.n_inputs} inputs, H has {h.n_outputs} outputs"
        )
    ng, nh = g.order, h.order
    a = np.block(
        [[g.a, g.b @ h.c], [np.zeros((nh, ng)), h.a]]
    )
    b = np.vstack([g.b @ h.d, h.b])
    c = np.hstack([g.c, g.d @ h.c])
    return StateSpaceModel(a, b, c, g.d @ h.d)


def h2_norm_sq(g: StateSpaceModel) -> float:
    """Squared H2 norm: the sum of squared Frobenius norms of all Markov
    parameters, computed exactly through the observability Gramian.

    Raises
    ------
    UnstableSystem
        If the spectral radius of A is not strictly inside the unit circle.
    """
    _require_stable(g.a, "h2_norm_sq")
    static_part = float(np.trace(g.d.T @ g.d))
    if g.order == 0:
        return static_part
    w_obs = _smith_doubling(g.a, g.c, g.a, g.c)
    return static_part + float(np.trace(g.b.T @ w_obs @ g.b))


def dlyap_cross(
    a_g: np.ndarray, c_g: np.ndarray, a_h: np.ndarray, c_h: np.ndarray
) -> np.ndarray:
    """Solve the Stein equation  Gamma = A_g^T Gamma A_h + C_g^T C_h.

    Smith doubling (Smith 1968) from P_g = A_g^T, P_h = A_h: each step sets
    ``Gamma <- Gamma + P_g Gamma P_h``, which doubles the terms of the series
    sum_k (A_g^T)^k C_g^T C_h A_h^k summed, then squares P_g and P_h.  It
    stops once ||P_g|| ||P_h|| < eps, leaving a tail below eps ||Gamma||.
    Raises :class:`UnstableSystem` for a factor of spectral radius at least
    1 - ``TOL_STAB``, and :class:`SolverFailure` if the tail has not
    vanished within ``DOUBLING_MAX_STEPS`` steps.
    """
    a_g, c_g, a_h, c_h = map(_as_matrix, (a_g, c_g, a_h, c_h))
    _require_stable(a_g, "dlyap_cross (left factor)")
    _require_stable(a_h, "dlyap_cross (right factor)")
    return _smith_doubling(a_g, c_g, a_h, c_h)


def _smith_doubling(a_g, c_g, a_h, c_h) -> np.ndarray:
    """:func:`dlyap_cross` on factors already known to be stable."""
    gamma = c_g.T @ c_h
    p_g, p_h = a_g.T, a_h
    for _ in range(DOUBLING_MAX_STEPS):
        tail = np.linalg.norm(p_g) * np.linalg.norm(p_h)
        if tail < np.finfo(float).eps:
            return gamma
        gamma = gamma + p_g @ gamma @ p_h
        p_g, p_h = p_g @ p_g, p_h @ p_h
    raise SolverFailure(f"Smith doubling did not converge in {DOUBLING_MAX_STEPS} "
                        f"steps (tail factor ||P_g|| ||P_h|| = {tail:.3g})")


def dare_solve(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stabilizing solution of  X = Q + A^T X A - A^T X B (I + B^T X B)^{-1} B^T X A.

    Solved in the form X = A^T X (I + G X)^{-1} A + Q, G = B B^T, by the
    structure-preserving doubling algorithm (Chu, Fan, Lin & Wang 2004): from
    A_0 = A, G_0 = G, H_0 = Q, each step forms W = I + G_k H_k and
    A_{k+1} = A_k W^{-1} A_k, G_{k+1} = G_k + A_k W^{-1} G_k A_k^T,
    H_{k+1} = H_k + A_k^T H_k W^{-1} A_k.  H_k converges to X quadratically
    for stabilizable (A, B) and detectable (A, Q^{1/2}).  The unit input
    weight is baked into the equation; scale B and Q beforehand if a
    different weighting is wanted.  Raises :class:`SolverFailure` if the
    iterates stop being finite or miss ``DARE_TOL`` within
    ``DOUBLING_MAX_STEPS`` steps, and :class:`AssumptionViolated` if the
    resulting closed loop A + B K is not stable.
    """
    a, b, q = map(_as_matrix, (a, b, q))
    n, m = a.shape[0], b.shape[1]
    if q.shape != (n, n) or b.shape[0] != n:
        raise DimensionMismatch("dare_solve: incompatible shapes")
    a_k, g_k, x = a, b @ b.T, 0.5 * (q + q.T)
    for _ in range(DOUBLING_MAX_STEPS):
        try:
            w_inv = np.linalg.solve(np.eye(n) + g_k @ x, np.hstack([a_k, g_k]))
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular I + G H in Riccati doubling") from exc
        w_inv_a, w_inv_g = np.hsplit(w_inv, 2)
        x_next = x + a_k.T @ x @ w_inv_a
        x_next = 0.5 * (x_next + x_next.T)
        if not np.isfinite(x_next).all():
            raise SolverFailure("Riccati doubling diverged; (A, B) is likely not stabilizable")
        g_k = g_k + a_k @ w_inv_g @ a_k.T
        g_k, a_k = 0.5 * (g_k + g_k.T), a_k @ w_inv_a
        residual = np.linalg.norm(x_next - x, "fro") / (1.0 + np.linalg.norm(x_next, "fro"))
        x = x_next
        if residual < DARE_TOL:
            break
    else:
        raise SolverFailure(f"Riccati doubling did not converge in {DOUBLING_MAX_STEPS} "
                            f"steps (residual {residual:.3g})")
    k = -np.linalg.solve(np.eye(m) + b.T @ x @ b, b.T @ x @ a)
    if spectral_radius(a + b @ k) >= 1.0 - TOL_STAB:
        raise AssumptionViolated(
            "Riccati closed loop is not stable; check stabilizability/detectability"
        )
    return x
