"""Dense state-space primitives for discrete-time linear systems.

Systems evolve as ``x[t+1] = A x[t] + B u[t]``, ``y[t] = C x[t] + D u[t]``
and are represented by immutable :class:`StateSpaceModel` values.  The
package needs only a few operations on them: impulse responses (one
``(T+1, outputs, inputs)`` array indexed by lag), squared H2 norms and the
Riccati equation, the last two by doubling, O(n^3) per step, each step
covering twice the horizon of the last.  The series product
(:func:`multiply`) serves only the Bezout reference off the pipeline and the
demos.  One predicate, :func:`_stability`, decides stability everywhere
(``is_stable``, the norm's precondition, the Riccati closed loop).  A
zero-order system takes the general path: numpy's products, traces and
eigenvalue solves of empty arrays give its spectral radius 0 and its
squared H2 norm ||D||_F^2.

``vec`` stacks columns (Fortran order) throughout, which is the convention
under which vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import math
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

# Step cap of the Gramian and Riccati doublings: step k covers 2^k terms, so
# a spectral radius of 1 - TOL_STAB decays below eps within about 35 steps.
DOUBLING_MAX_STEPS = 64


def _as_matrix(m) -> np.ndarray:
    return np.atleast_2d(np.asarray(m, dtype=float))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-d vector."""
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix (0 for the 0x0 matrix)."""
    return float(np.max(np.abs(np.linalg.eigvals(_as_matrix(a))), initial=0.0))


def _stability(a: np.ndarray) -> tuple[bool, str]:
    """Whether the spectral radius of ``a`` is below 1 - ``TOL_STAB``, and
    which test decided it, by how much.

    ``a`` is first split into its finest block upper triangular partition
    in the stored order (:func:`_diagonal_blocks`).  The spectrum of a block
    triangular matrix is the union of its diagonal blocks' spectra, so the
    verdict is exact for ``a`` when each block is decided alone: a 1 x 1
    block by its modulus, all at once, and a larger one by
    :func:`_block_stability`.  A matrix that does not split is one block
    and goes to :func:`_block_stability` whole."""
    m = a.shape[0]
    if m == 0:
        return True, "zero-order system"
    bounds = _diagonal_blocks(a)
    if len(bounds) == 2:
        return _block_stability(a)
    blocks = list(zip(bounds, bounds[1:]))
    head = f"{len(blocks)} diagonal blocks"
    whys = []
    single = [s for s, t in blocks if t == s + 1]
    if single:
        moduli = np.abs(a[single, single])
        inside = moduli < 1.0 - TOL_STAB  # false for nan too
        if not inside.all():
            i = int(inside.argmin())
            return False, (f"{head}; block {single[i]}:{single[i] + 1}: modulus "
                           f"{moduli[i]:.6g} >= 1 - {TOL_STAB:g}")
        whys.append(f"{len(single)} of order 1 below 1 - {TOL_STAB:g}")
    for s, t in blocks:
        if t > s + 1:
            # a contiguous copy: the block is decided as the same matrix alone
            stable, why = _block_stability(np.ascontiguousarray(a[s:t, s:t]))
            if not stable:
                return False, f"{head}; block {s}:{t}: {why}"
            whys.append(f"block {s}:{t}: {why}")
    return True, f"{head}; " + "; ".join(whys)


def _diagonal_blocks(a: np.ndarray) -> list:
    """Boundaries 0 = k_0 < k_1 < ... < k_r = m of the finest block upper
    triangular partition of the m x m ``a`` without permuting, that is every
    k with ``a[k:, :k] == 0``.  That holds when no row from k on has its
    first nonzero before column k: the first nonzeros come from one argmax
    per row of the C-order ``a != 0`` (a zero row counts as m), and their
    running minimum from the bottom row up is compared with k.  A nonzero
    bottom-left entry lies below every boundary, so it alone shows that
    ``a`` is one block."""
    m = a.shape[0]
    if a[-1, 0] != 0:
        return [0, m]
    nonzero = np.empty((m, m + 1), dtype=bool)
    nonzero[:, m] = True
    np.not_equal(a, 0.0, out=nonzero[:, :m])
    reach = np.minimum.accumulate(nonzero.argmax(axis=1)[::-1])[::-1]
    return np.flatnonzero(reach >= np.arange(m)).tolist() + [m]


def _block_stability(a: np.ndarray) -> tuple[bool, str]:
    """The test :func:`_stability` applies to one diagonal block: its
    eigenvalues (:func:`spectral_radius`)."""
    rho = spectral_radius(a)
    stable = rho < 1.0 - TOL_STAB
    return stable, (f"eigenvalues: spectral radius {rho:.6g} "
                    f"{'<' if stable else '>='} 1 - {TOL_STAB:g}")


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
        solver that needs a stable A applies (:func:`_stability`)."""
        return _stability(self.a)[0]


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
        raise DimensionMismatch("horizon must be >= 0")
    terms = [g.d]
    w = g.b
    for lag in range(1, horizon + 1):
        terms.append(g.c @ w)
        if lag < horizon:
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
        If A is not stable (:func:`_stability`); the message names the block
        that decided and its modulus or spectral radius.
    SolverFailure
        If the Gramian's doubling overflows or does not converge
        (:func:`_gramian`).
    """
    stable, why = _stability(g.a)
    if not stable:
        raise UnstableSystem(f"h2_norm_sq: {why}")
    w_obs = _gramian(g.a, g.c)
    return float(np.trace(g.d.T @ g.d)) + float(np.trace(g.b.T @ w_obs @ g.b))


def _gramian(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Observability Gramian sum_t (A^t)^T C^T C A^t of a stable A, the
    solution of the Stein equation W = A^T W A + C^T C.

    Smith doubling (Smith 1968): from W = C^T C and P = A, each step takes
    W <- W + P^T W P and P <- P P, three products that keep W exactly
    symmetric and double the number of terms W sums.  It stops once the
    tail factor ||P||_F^2 = ||A^(2^k)||_F^2 is below eps, leaving a tail
    below eps ||W||.  Raises :class:`SolverFailure` if the tail has not
    vanished within ``DOUBLING_MAX_STEPS`` steps, or as soon as the powers
    overflow, which transient growth of a stable A can cause.
    """
    w, p = c.T @ c, a
    last = math.nan
    # powers that overflow show as a non-finite tail, which fails the solve
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(DOUBLING_MAX_STEPS):
            tail = np.linalg.norm(p) ** 2
            if not math.isfinite(tail):
                raise SolverFailure(
                    f"Smith doubling overflowed at step {step} (last finite tail factor "
                    f"||A^(2^k)||_F^2 = {last:.3g})"
                )
            if tail < np.finfo(float).eps:
                return w
            last = tail
            v = p.T @ (w @ p)
            w = w + 0.5 * (v + v.T)
            p = p @ p
    raise SolverFailure(f"Smith doubling did not converge in {DOUBLING_MAX_STEPS} "
                        f"steps (tail factor ||A^(2^k)||_F^2 = {tail:.3g})")


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
    resulting closed loop A + B K is not stable (:func:`_stability`).
    """
    a, b, q = map(_as_matrix, (a, b, q))
    n, m = a.shape[0], b.shape[1]
    if q.shape != (n, n) or b.shape[0] != n:
        raise DimensionMismatch("dare_solve: incompatible shapes")
    a_k, g_k, x = a, b @ b.T, 0.5 * (q + q.T)
    eye = np.eye(n)
    for _ in range(DOUBLING_MAX_STEPS):
        try:
            w_inv = np.linalg.solve(eye + g_k @ x, np.hstack([a_k, g_k]))
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular I + G H in Riccati doubling") from exc
        w_inv_a, w_inv_g = w_inv[:, :n], w_inv[:, n:]
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
    stable, why = _stability(a + b @ k)
    if not stable:
        raise AssumptionViolated(
            f"Riccati closed loop is not stable ({why}); check stabilizability/detectability"
        )
    return x
