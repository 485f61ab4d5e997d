"""Dense state-space primitives for discrete-time linear systems.

Systems evolve as ``x[t+1] = A x[t] + B u[t]``, ``y[t] = C x[t] + D u[t]``
and are represented by immutable :class:`StateSpaceModel` values.  The
pipeline needs only a few operations on them: impulse responses (one
``(T+1, outputs, inputs)`` array indexed by lag), the series product behind
the Bezout check, squared H2 norms and the Riccati equation, the last two
by doubling, O(n^3) per step, each step covering twice the horizon of the
last.  One Smith doubling sums the symmetric Stein series
sum_t (A^t)^T Q A^t, for the observability Gramian (Q = C^T C) and for the
stability test.

One predicate decides stability everywhere (``is_stable``, the norm's
precondition, the Riccati closed loop).  From order 32 on it tries a Stein
(Lyapunov) certificate X - A^T X A > 0, X > 0 (Q = I), proven positive
definite in floating point; the eigenvalues decide below that order and
wherever the certificate cannot be proven.

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

# Order from which stability is first tried by a Stein certificate.  Below
# it one eigenvalue solve costs less than the certificate's forty-odd numpy
# calls (about 0.1 ms); they break even near order 32 on an x86 VM with one
# BLAS thread, and at order 420 the certificate takes half the time.
CERTIFY_MIN_ORDER = 32

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
    a = _as_matrix(a)
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _stability(a: np.ndarray) -> tuple[bool, str]:
    """Whether the spectral radius of ``a`` is below 1 - ``TOL_STAB``, and
    which test decided it, by how much: from order ``CERTIFY_MIN_ORDER`` on,
    the Stein certificate of :func:`_stein_certificate` where it proves
    stability, otherwise the eigenvalues (:func:`spectral_radius`).  The
    certificate never turns a stable verdict unstable; it only spares the
    eigenvalue solve."""
    m = a.shape[0]
    if m == 0:
        return True, "zero-order system"
    why = ""
    if m >= CERTIFY_MIN_ORDER:
        certified, why = _stein_certificate(a)
        if certified:
            return True, why
        why = f"Stein certificate: {why}; "
    rho = spectral_radius(a)
    stable = rho < 1.0 - TOL_STAB
    return stable, (f"{why}eigenvalues: spectral radius {rho:.6g} "
                    f"{'<' if stable else '>='} 1 - {TOL_STAB:g}")


def _stein_certificate(a: np.ndarray) -> tuple[bool, str]:
    """Prove that the spectral radius of ``a`` is below c = 1 - ``TOL_STAB``,
    or say why not.

    A is stable with that margin if some X > 0 has X - A^T X A / c^2 > 0,
    since an eigenvector v of eigenvalue lambda gives
    (1 - |lambda|^2 / c^2) v* X v > 0.  A is first balanced, an exact
    similarity (:func:`_balanced`).  :func:`_smith_doubling` then builds
    X = sum_{t < 2^k} (A^t)^T A^t, squaring A at most ceil(log2 m) + 2 times
    (a nilpotent A of order m vanishes by then), until ||A^(2^k)||_F < 1/2,
    where the residual is close to I.  Both matrices are then proven
    positive definite in floating point: X, and the computed residual less a
    bound on its rounding, each by a Cholesky factorization shifted by the
    rounding of the factorization (Rump 2006).  The proof holds for the
    computed X whatever its own rounding, so transient growth of the powers
    costs only the size of the residual's rounding bound,
    m eps || |A^T| |X| |A| ||, which gives up once it reaches 1/2.
    """
    m = a.shape[0]
    eps = np.finfo(float).eps
    # Twice the relative rounding of a length-m dot product and a few
    # operations more (Higham 2002, section 3.5), leaving room for the
    # rounding of the bounds computed with it.
    gamma = 2.0 * (m + 3) * eps
    # At least 1 / c^2 despite the rounding of its own computation.
    lift = (1.0 + 4.0 * eps) / (1.0 - TOL_STAB) ** 2
    b = _balanced(a)
    abs_b = np.abs(b)
    abs_b_rows = abs_b.sum(axis=1)
    max_squarings = math.ceil(math.log2(m)) + 2
    for k, (x, p) in zip(range(max_squarings + 1), _smith_doubling(b, np.eye(m))):
        # Every entry of fl(R), R = X - lift B^T X B, is within
        # gamma (lift |B^T| |X| |B| + |X|) of R's; that matrix is symmetric
        # and >= 0, so its inf-norm bounds the 2-norm of the error.
        abs_x = np.abs(x)
        rounding = gamma * float((lift * (abs_b.T @ (abs_x @ abs_b_rows))
                                  + abs_x.sum(axis=1)).max())
        if not rounding < 0.5:  # false for nan too
            return False, f"residual rounding bound {rounding:.3g} after {k} doubling steps"
        p_norm = float(np.linalg.norm(p))
        if p_norm < 0.5:
            break
        if k == max_squarings:
            return False, f"||A^(2^{k})||_F = {p_norm:.3g} after {k} doubling steps"
    # np.linalg.cholesky reads the lower triangle only, so the residual need
    # not be symmetrized: its error there is bounded entrywise as above.
    residual = x - lift * (b.T @ (x @ b))
    residual.flat[:: m + 1] -= rounding
    if not (_proven_positive_definite(x, gamma) and _proven_positive_definite(residual, gamma)):
        return False, (f"residual not proven positive definite after {k} doubling "
                       f"steps (rounding bound {rounding:.3g})")
    return True, (f"Stein certificate from 2^{k} powers (||X||_F = {np.linalg.norm(x):.3g}, "
                  f"residual rounding bound {rounding:.3g})")


def _balanced(a: np.ndarray) -> np.ndarray:
    """D^-1 A D for a diagonal D of powers of two that evens out the
    off-diagonal row and column sums of A: one sweep of Osborne's balancing
    (Osborne 1960), scaling all indices at once.  Scaling by powers of two
    is exact in floating point, so the spectrum is A's; should an entry
    leave the normal range, A itself is returned."""
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    rows, cols = off.sum(axis=1), off.sum(axis=0)
    e = np.where((rows > 0) & (cols > 0), (np.frexp(rows)[1] - np.frexp(cols)[1]) // 2, 0)
    if not e.any():
        return a
    f = np.ldexp(1.0, e)
    b = a * f / f[:, None]
    moved = np.abs(b[a != 0])
    if np.all(moved >= np.finfo(float).tiny) and np.all(moved < np.inf):
        return b
    return a


def _proven_positive_definite(h: np.ndarray, gamma: float) -> bool:
    """Whether the symmetric ``h`` is positive definite, proven by a Cholesky
    factorization of h - gamma |tr(h)| I that runs to completion; the shift
    covers the rounding of the factorization (Rump 2006, BIT 46)."""
    shifted = h.copy()
    shifted.flat[:: h.shape[0] + 1] -= gamma * abs(h.trace())
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


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
        solver that needs a stable A applies.  Proven by a Stein certificate
        from order ``CERTIFY_MIN_ORDER`` on where its rounding allows,
        otherwise decided by the eigenvalues (see :func:`_stability`)."""
        return _stability(self.a)[0]

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
        If A is not stable by the test of :attr:`StateSpaceModel.is_stable`;
        the message names the test that decided and by how much.
    SolverFailure
        If the Gramian's doubling overflows or does not converge
        (:func:`_gramian`).
    """
    stable, why = _stability(g.a)
    if not stable:
        raise UnstableSystem(f"h2_norm_sq: {why}")
    static_part = float(np.trace(g.d.T @ g.d))
    if g.order == 0:
        return static_part
    w_obs = _gramian(g.a, g.c)
    return static_part + float(np.trace(g.b.T @ w_obs @ g.b))


def _smith_doubling(a: np.ndarray, q: np.ndarray):
    """Smith doubling (Smith 1968): yield X_k = sum_{t < 2^k} (A^t)^T Q A^t
    and A^(2^k) for k = 0, 1, ..., from X_0 = Q.  Each step is
    X <- X + P^T X P and P <- P P, three products, and keeps X exactly
    symmetric.  A step is taken only when the next pair is asked for, so the
    consumer's stopping rule decides how many are paid for."""
    x, p = q, a
    while True:
        yield x, p
        w = p.T @ (x @ p)
        x = x + 0.5 * (w + w.T)
        p = p @ p


def _gramian(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Observability Gramian sum_t (A^t)^T C^T C A^t of a stable A, the
    solution of the Stein equation W = A^T W A + C^T C.

    It stops the doubling (:func:`_smith_doubling`) once the tail factor
    ||A^(2^k)||_F^2 is below eps, leaving a tail below eps ||W||.  Raises
    :class:`SolverFailure` if the tail has not vanished within
    ``DOUBLING_MAX_STEPS`` steps, or as soon as the powers overflow, which
    transient growth of a stable A can cause.
    """
    last = math.nan
    # powers that overflow show as a non-finite tail, which fails the solve
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (w, p) in zip(range(DOUBLING_MAX_STEPS), _smith_doubling(a, c.T @ c)):
            tail = np.linalg.norm(p) ** 2
            if not math.isfinite(tail):
                raise SolverFailure(
                    f"Smith doubling overflowed at step {step} (last finite tail factor "
                    f"||P_g|| ||P_h|| = {last:.3g})"
                )
            if tail < np.finfo(float).eps:
                return w
            last = tail
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
    resulting closed loop A + B K is not stable by the test of
    :attr:`StateSpaceModel.is_stable`.
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
    stable, why = _stability(a + b @ k)
    if not stable:
        raise AssumptionViolated(
            f"Riccati closed loop is not stable ({why}); check stabilizability/detectability"
        )
    return x
