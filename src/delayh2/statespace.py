"""Dense state-space primitives for discrete-time linear systems.

Systems evolve as ``x[t+1] = A x[t] + B u[t]``, ``y[t] = C x[t] + D u[t]``
and are represented by immutable :class:`StateSpaceModel` values.  The
package needs only a few operations on them: impulse responses (one
``(T+1, outputs, inputs)`` array indexed by lag), squared H2 norms and the
Riccati equation, the last two by one doubling (:func:`_doubling`), O(n^3)
per step, each covering twice the horizon of the last.  One predicate,
:func:`_stability`, decides stability everywhere (``is_stable``, the
norm's precondition, the Riccati closed loop).  A zero-order system takes
the general path: numpy's products, traces and eigenvalue solves of empty
arrays give its spectral radius 0 and its squared H2 norm ||D||_F^2.

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

# Step cap of :func:`_doubling`: step k covers 2^k terms, so a spectral radius
# of 1 - TOL_STAB (A's or the Riccati loop's) decays below eps within about 35 steps.
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


def h2_norm_sq(g: StateSpaceModel) -> float:
    """Squared H2 norm: the sum of squared Frobenius norms of all Markov
    parameters, computed exactly through the observability Gramian.

    Raises
    ------
    UnstableSystem
        If A is not stable (:func:`_stability`); the message names the block
        that decided and its modulus or spectral radius.
    SolverFailure
        If the Gramian's doubling overflows or does not converge (:func:`_doubling`).
    """
    stable, why = _stability(g.a)
    if not stable:
        raise UnstableSystem(f"h2_norm_sq: {why}")
    w_obs = _gramian(g.a, g.c)
    return float(np.trace(g.d.T @ g.d)) + float(np.trace(g.b.T @ w_obs @ g.b))


def _gramian(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Observability Gramian sum_t (A^t)^T C^T C A^t of a stable A, the
    solution of W = A^T W A + C^T C: :func:`_doubling` with G = 0."""
    return _doubling(a, None, c.T @ c, "Smith")


def _doubling(a: np.ndarray, g, h: np.ndarray, name: str) -> np.ndarray:
    """X = A^T X (I + G X)^{-1} A + H by structure-preserving doubling (Chu,
    Fan, Lin & Wang 2004); ``g`` None is G = 0, with no solve.

    From (A_0, G_0, H_0) = (A, G, H) each step forms W = I + G_k H_k,
    A_{k+1} = A_k W^{-1} A_k, G_{k+1} = G_k + A_k W^{-1} G_k A_k^T and
    H_{k+1} = H_k + A_k^T H_k W^{-1} A_k, adding the symmetric part of the
    symmetric increment (H_k W^{-1} = (I + H_k G_k)^{-1} H_k).  G = 0 is
    Smith's step (Smith 1968): A_k = A^(2^k), and H_k sums 2^k terms
    (A^t)^T H A^t.  The increment is at most ||A_k||^2 ||H_k|| ||W^{-1}||,
    so the loop stops once the tail factor ||A_k||_F^2 is below eps.  The
    test is unit-free: G, H -> G / s, s H leaves W, every A_k and so the
    step count unchanged and scales H_k by s, exactly for a power of two;
    a stop on ||H_{k+1} - H_k||_F / (1 + ||H_{k+1}||_F) is absolute for
    ||X|| << 1 and stops early there.  H = 0 returns at once, as X = 0
    solves both equations.  Raises :class:`SolverFailure` naming ``name``
    on a singular I + G_k H_k (with its condition number, computed on this
    path only), as soon as the tail factor overflows, or if it is not below
    eps within ``DOUBLING_MAX_STEPS`` steps.
    """
    if not h.any():
        return h
    n = a.shape[0]
    eye = np.eye(n)
    last = math.nan
    # iterates that overflow show as a non-finite tail, which fails the solve
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(DOUBLING_MAX_STEPS):
            tail = np.linalg.norm(a) ** 2
            if not math.isfinite(tail):
                raise SolverFailure(f"{name} doubling overflowed at step {step} (last finite"
                                    f" tail factor ||A_k||_F^2 = {last:.3g})")
            if tail < np.finfo(float).eps:
                return h
            last = tail
            w_inv_a = a
            if g is not None:
                w = eye + g @ h
                try:
                    w_inv = np.linalg.solve(w, np.hstack([a, g]))
                except np.linalg.LinAlgError as exc:
                    cond = np.linalg.cond(w) if np.isfinite(w).all() else math.nan
                    raise SolverFailure(f"{name} doubling: singular I + G H at step {step}"
                                        f" (cond(I + G H) = {cond:.3g})") from exc
                w_inv_a = w_inv[:, :n]
                g = g + a @ w_inv[:, n:] @ a.T
                g = 0.5 * (g + g.T)
            v = a.T @ (h @ w_inv_a)
            h = h + 0.5 * (v + v.T)
            a = a @ w_inv_a
    raise SolverFailure(f"{name} doubling did not converge in {DOUBLING_MAX_STEPS} "
                        f"steps (tail factor ||A_k||_F^2 = {tail:.3g})")


def dare_solve(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stabilizing solution of  X = Q + A^T X A - A^T X B (I + B^T X B)^{-1} B^T X A.

    Solved as X = A^T X (I + G X)^{-1} A + Q, G = B B^T, by :func:`_doubling`,
    which converges quadratically for stabilizable (A, B) and detectable
    (A, Q^{1/2}); B -> B / sqrt(s), Q -> s Q scales X by s (the unit input
    weight is baked in).  Raises :class:`SolverFailure` if the doubling
    fails, and :class:`AssumptionViolated` if the closed loop A + B K is not
    stable (:func:`_stability`), as with X = 0 from Q = 0 and an unstable A.
    """
    a, b, q = map(_as_matrix, (a, b, q))
    n, m = a.shape[0], b.shape[1]
    if q.shape != (n, n) or b.shape[0] != n:
        raise DimensionMismatch("dare_solve: incompatible shapes")
    x = _doubling(a, b @ b.T, 0.5 * (q + q.T), "Riccati")
    k = -np.linalg.solve(np.eye(m) + b.T @ x @ b, b.T @ x @ a)
    stable, why = _stability(a + b @ k)
    if not stable:
        raise AssumptionViolated(
            f"Riccati closed loop is not stable ({why}); check stabilizability/detectability"
        )
    return x
