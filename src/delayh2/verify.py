"""Independent checks on synthesized controllers.

The closed loop is rebuilt from the plant and the controller
(:func:`closed_loop`), delay-pattern conformance is read off the
controller's own Markov parameters (:func:`conformance`), and the quadratic
program is re-solved as one explicit KKT system (:func:`kkt_oracle`).  Both
checks read the controller's realization (A, B, C, D) alone, so a
controller file verifies like the controller it was written from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import statespace
from .delaymodel import ConstraintSpace, block_norms
from .errors import DimensionMismatch, IllPosed, SolverFailure
from .statespace import StateSpaceModel, impulse_response
from .synthesis import GeneralizedPlant, VectorizedSystem

CONFORMANCE_TOL = 1e-7


@dataclass(frozen=True)
class ClosedLoop:
    """Disturbance-to-performance map of the plant/controller interconnection.

    ``model.a`` is the state matrix of the whole interconnection, so its
    stability is internal stability.  Its realization depends on the
    controller:

    * A controller whose realization has the synthesized structure (see
      :func:`_youla_loop`) gives the loop of its factors (K, L, V) in the
      state order (x, shift-register slots oldest first, e = x - x^).  There
      ``model.a`` is block upper triangular, with exact zeros below its
      diagonal blocks A_K = A + B2 K, the nilpotent shift and A_L = A + L C2,
      and ``youla_blocks`` holds (A_K, A_L).  Its spectrum is
      spec(A_K) u {0} u spec(A_L).
    * Any other controller gives the raw interconnection in the state order
      (x, controller state), and ``youla_blocks`` is None.
    """

    model: StateSpaceModel
    # Set only by closed_loop, after the rebuild check; not an init field,
    # so a verdict cannot come from blocks that were not checked.
    youla_blocks: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    @property
    def is_internally_stable(self) -> bool:
        """``model.is_stable``, the precondition of :func:`h2_norm_sq`.  With
        ``youla_blocks`` it decides A_K and A_L alone, to the same verdict
        (see :class:`ClosedLoop`), without scanning ``model.a`` for its
        diagonal blocks."""
        if self.youla_blocks is None:
            return self.model.is_stable
        return all(statespace._stability(block)[0] for block in self.youla_blocks)


def closed_loop(plant: GeneralizedPlant, k: StateSpaceModel) -> ClosedLoop:
    """Interconnect a strictly proper controller with the plant, in one of
    the two realizations of :class:`ClosedLoop`; both realize the same
    transfer matrix.

    Raises
    ------
    DimensionMismatch
        If the controller's inputs and outputs are not the plant's
        measurements and controls.
    IllPosed
        If the controller has a nonzero feedthrough (the loop would need an
        algebraic inversion, which the strictly proper setting rules out).
    """
    if (k.n_inputs, k.n_outputs) != (plant.n_meas, plant.n_ctrl):
        raise DimensionMismatch(
            f"controller has {k.n_inputs} inputs and {k.n_outputs} outputs, "
            f"the plant {plant.n_meas} measurements and {plant.n_ctrl} controls")
    if np.count_nonzero(k.d):
        raise IllPosed("controller must be strictly proper (zero feedthrough)")
    loop = _youla_loop(plant, k)
    if loop is not None:
        return loop
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


def _youla_loop(plant: GeneralizedPlant, k: StateSpaceModel) -> Optional[ClosedLoop]:
    """The loop of the factors read off ``k``'s realization, if that
    realization is the one they give with the plant; None otherwise.

    By the realization of :func:`delayh2.synthesis.realize_controller`,
    with n the plant order, a realization of order n + m, m a multiple of
    n_y, holds K = C[:, :n], L = -B[:n] and C_fir = C[:, n:] exactly, and is
    theirs when the rest of it follows: the register, its taps and its feed
    C2 bit for bit, and the two product blocks, whose rounding depends on
    the order of summation, within a bound on it.

    The loop is realized in the state order (x, shift-register slots
    oldest first, e = x - x^):

        A = [[A_K, B2 C_fir, -B2 K], [0, S, F], [0, 0, A_L]],
        B = [B1; 0 ... 0; -D21; B1 + L D21],
        C = [C1 + D12 K, D12 C_fir, -D12 K],   D = 0,

    where S is the strictly upper shift of the N slots, F is zero except
    for the newest (last) slot's rows, -C2, and C_fir = [V_N ... V_1]
    holds the coefficients in that reversed slot order.  It follows from
    x^ = x - e: e+ = A_L e + (B1 + L D21) w, the newest slot takes
    -(y - C2 x^) = -C2 e - D21 w, and
    x+ = A_K x - B2 K e + B2 C_fir xi + B1 w.  At N = 0 there is no
    register and the state is (x, e).
    """
    a, b2, c2 = plant.a, plant.b2, plant.c2
    n, n_u, n_y = plant.n, plant.n_ctrl, plant.n_meas
    m = k.order - n
    if m < 0 or m % n_y:
        return None
    structured = (
        np.array_equal(k.b[n:], -np.eye(m, n_y))
        and _is_shift_register(k.a, n, n_y)
        and (m == 0 or np.array_equal(k.a[n:n + n_y, :n], c2))
    )
    if not structured:
        return None
    gain, filt, c_fir = k.c[:, :n], -k.b[:n], k.c[:, n:]
    # An entry of a sum of products with at most j = max(n_u, n_y) terms,
    # plus two additions, is within gamma_(j+2) = (j + 2) u / (1 - (j + 2) u),
    # u = eps / 2, of its exact value relative to the same sum of absolute
    # values, in any order of summation (Higham 2002, section 3.5).  Both
    # realizations are that close to the exact block, so they differ by
    # about (j + 2) eps times it; a factor 2 more covers the second-order
    # terms and the rounding of the bound itself.
    gamma = 2.0 * (max(n_u, n_y) + 2) * np.finfo(float).eps
    b2_k, b2_c_fir, l_c2 = b2 @ gain, b2 @ c_fir, filt @ c2
    a_k, a_l = a + b2_k, a + l_c2
    bound_11 = gamma * (np.abs(a) + np.abs(b2) @ np.abs(gain) + np.abs(filt) @ np.abs(c2))
    bound_12 = gamma * (np.abs(b2) @ np.abs(c_fir))
    if not (np.all(np.abs(k.a[:n, :n] - (a_k + l_c2)) <= bound_11)
            and np.all(np.abs(k.a[:n, n:] - b2_c_fir) <= bound_12)):
        return None

    e = n + m  # first state of e
    oldest_first = np.arange(m).reshape(-1, n_y)[::-1].ravel()
    a_loop = np.zeros((e + n, e + n))
    a_loop[:n, :n] = a_k
    a_loop[:n, n:e] = b2_c_fir[:, oldest_first]
    a_loop[:n, e:] = -b2_k
    a_loop[e:, e:] = a_l
    b_loop = np.zeros((e + n, plant.n_dist))
    b_loop[:n] = plant.b1
    b_loop[e:] = plant.b1 + filt @ plant.d21
    if m:
        slot = np.arange(n, e - n_y)
        a_loop[slot, slot + n_y] = 1.0
        a_loop[e - n_y:e, e:] = -c2
        b_loop[e - n_y:e] = -plant.d21
    d12_k = plant.d12 @ gain
    c_loop = np.hstack([plant.c1 + d12_k, plant.d12 @ c_fir[:, oldest_first], -d12_k])
    loop = ClosedLoop(StateSpaceModel(a_loop, b_loop, c_loop,
                                      np.zeros((plant.n_perf, plant.n_dist))))
    object.__setattr__(loop, "youla_blocks", (a_k, a_l))
    return loop


def _is_shift_register(a: np.ndarray, n: int, n_y: int) -> bool:
    """Whether the states of ``a`` from n on are exactly a shift register
    of n_y-vectors fed only through its first slot: ``a[n:, n:]`` is
    ``np.eye(m, k=-n_y)``, m = order - n, and ``a[n + n_y:, :n]`` is zero.
    Decided without forming the m x m shift: with the register's ones in
    place, the contiguous rows ``a[n:]`` may have no nonzeros besides them
    and the feed block ``a[n:n + n_y, :n]``.
    """
    ones = np.diagonal(a[n + n_y:], offset=n)
    return (np.count_nonzero(ones == 1.0) == ones.size
            and np.count_nonzero(a[n:]) == ones.size + np.count_nonzero(a[n:n + n_y, :n]))


def _markov_parameters(k: StateSpaceModel, horizon: int) -> np.ndarray:
    """``impulse_response(k, horizon)``, through the shift register when
    the realization shows one.

    With n = order - horizon * n_y, the realization qualifies when its last
    horizon * n_y states are a shift register (:func:`_is_shift_register`):
    then only the first n + n_y rows of A x are products, and the rest of x
    moves down by n_y rows.  A^(i-1) B is kept as a window sliding up one
    buffer: each lag multiplies C and those top rows by the window and
    writes the second product just above it, at O((n + n_y) order n_y)
    instead of O(order^2 n_y).  Any other realization takes the dense
    recursion of :func:`impulse_response`.
    """
    a, order, n_y = k.a, k.order, k.n_inputs
    n = order - horizon * n_y
    if n < 0 or not _is_shift_register(a, n, n_y):
        return impulse_response(k, horizon)
    top = a[:n + n_y]
    resp = np.empty((horizon + 1,) + k.d.shape)
    resp[0] = k.d
    p = horizon * n_y
    buf = np.empty((p + order, n_y))
    buf[p:] = k.b
    for lag in range(1, horizon + 1):
        w = buf[p:p + order]
        np.matmul(k.c, w, out=resp[lag])
        if lag < horizon:
            p -= n_y
            buf[p:p + n + n_y] = top @ w
    return resp


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of a delay-pattern membership check.

    ``violations`` lists (lag, row_block, col_block, magnitude); lag 0
    entries flag a nonzero feedthrough block.
    """

    ok: bool
    violations: Tuple[Tuple[int, int, int, float], ...]


def conformance(k: StateSpaceModel, cs: ConstraintSpace) -> ConformanceReport:
    """Check that a controller's impulse response lives in the constraint set.

    The feedthrough must vanish and, for each lag 1..N, every forbidden
    block of the corresponding Markov parameter must be zero up to
    ``CONFORMANCE_TOL`` times the response scale, the largest norm of a
    Markov parameter, so the verdict does not depend on the controller's
    units.  The Markov parameters come from :func:`_markov_parameters`; at
    N = 0 only the feedthrough is read.
    """
    resp = _markov_parameters(k, cs.n_horizon)
    tol = CONFORMANCE_TOL * float(np.linalg.norm(resp, axis=(1, 2)).max())
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
    solve.  The system is nonsingular by construction: each lag's forbidden
    rows carry an identity block on V_i with the earlier lags' blocks to its
    left, so the constraints have full row rank, and R = Psi kron Omega is
    positive definite; a singular one raises :class:`SolverFailure`.
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

    a_v, b_v, c_v, x1 = vsys
    powers = [np.eye(a_v.shape[0])]
    for _ in range(n):
        powers.append(a_v @ powers[-1])

    rows = []
    rhs = []
    for i in range(1, n + 1):
        forb = ~cs.entry_mask(i).ravel(order="F")
        c_forb = c_v[forb]
        row = np.zeros((np.count_nonzero(forb), n_var))
        for j in range(1, i):
            row[:, (j - 1) * m:j * m] = c_forb @ powers[i - 1 - j] @ b_v
        row[:, (i - 1) * m:i * m] += np.eye(m)[forb]
        rows.append(row)
        rhs.append(-c_forb @ powers[i - 1] @ x1)

    con = np.vstack(rows)
    con_rhs = np.concatenate(rhs)
    n_con = con.shape[0]

    kkt = np.block([[2.0 * r_all, con.T], [con, np.zeros((n_con, n_con))]])
    full_rhs = np.concatenate([np.zeros(n_var), con_rhs])
    try:
        sol = np.linalg.solve(kkt, full_rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular KKT matrix of order {kkt.shape[0]}: {exc}") from exc
    v = sol[:n_var]
    cost = float(v @ r_all @ v)
    return v.reshape(n, n_y, n_u).swapaxes(1, 2), cost
