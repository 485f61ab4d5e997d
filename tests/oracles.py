"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's own algebra: impulse
responses come from raw matrix powers, two-sided (Laurent) series are
convolved term by term, and norms are truncated sums.  Truncation horizons
are chosen from the measured spectral radius so tail errors sit far below
the assertion tolerances.  The eight coprime factors of g22 and the
model-matching factors P12, P21, which the pipeline never forms, are
written out here from their closed-form realizations, and
:func:`v_coordinate_qp` solves the constrained QP as a dense LQR in V
coordinates, a second formulation to check the solver against, and prices
its V directly (:func:`priced_cost`).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def horizon_for(rho: float, tail: float = 1e-13, lo: int = 30, hi: int = 4000) -> int:
    """Lag count after which a rho-decaying tail is below ``tail``."""
    if rho <= 0:
        return lo
    if rho >= 1:
        raise ValueError("series does not decay")
    return int(np.clip(math.ceil(math.log(tail) / math.log(rho)), lo, hi))


def markov_terms(a, b, c, d, horizon: int) -> np.ndarray:
    """Markov parameters [D, CB, CAB, ...] computed from raw matrix powers."""
    a, b, c, d = map(np.atleast_2d, (a, b, c, d))
    out = np.zeros((horizon + 1,) + d.shape)
    out[0] = d
    w = b.copy()
    for k in range(1, horizon + 1):
        out[k] = c @ w
        w = a @ w
    return out


def model_terms(g, horizon: int) -> np.ndarray:
    """:func:`markov_terms` of a model with ``a``, ``b``, ``c``, ``d``."""
    return markov_terms(g.a, g.b, g.c, g.d, horizon)


class Laurent:
    """Two-sided matrix series: coefficient ``terms[k]`` sits at lag
    ``min_lag + k`` (positive lags are causal, z^{-lag})."""

    def __init__(self, min_lag: int, terms: np.ndarray):
        self.min_lag = int(min_lag)
        self.terms = np.asarray(terms, dtype=float)

    @property
    def max_lag(self) -> int:
        return self.min_lag + self.terms.shape[0] - 1

    def at(self, lag: int) -> np.ndarray:
        if self.min_lag <= lag <= self.max_lag:
            return self.terms[lag - self.min_lag]
        return np.zeros(self.terms.shape[1:])

    @staticmethod
    def from_model(g, horizon: int) -> "Laurent":
        return Laurent(0, model_terms(g, horizon))

    def conjugate(self) -> "Laurent":
        """Series of G~: coefficient at lag -k is the transpose of G's at k."""
        flipped = np.transpose(self.terms[::-1], (0, 2, 1))
        return Laurent(-self.max_lag, flipped)

    def multiply(self, other: "Laurent", lo: int, hi: int) -> "Laurent":
        """Coefficients of the product on the lag window [lo, hi]."""
        out = np.zeros((hi - lo + 1, self.terms.shape[1], other.terms.shape[2]))
        for m in range(lo, hi + 1):
            k0 = max(self.min_lag, m - other.max_lag)
            k1 = min(self.max_lag, m - other.min_lag)
            if k0 > k1:
                continue
            left = self.terms[k0 - self.min_lag:k1 - self.min_lag + 1]
            right = other.terms[m - k1 - other.min_lag:m - k0 - other.min_lag + 1][::-1]
            out[m - lo] = np.einsum("kij,kjl->il", left, right)
        return Laurent(lo, out)


def cross_gramian_series(a_g, c_g, a_h, c_h, horizon: int) -> np.ndarray:
    """Truncated sum of (A_g^T)^k C_g^T C_h A_h^k."""
    total = np.zeros((a_g.shape[0], a_h.shape[0]))
    left = np.eye(a_g.shape[0])
    right = np.eye(a_h.shape[0])
    for _ in range(horizon + 1):
        total += left @ (c_g.T @ c_h) @ right
        left = a_g.T @ left
        right = right @ a_h
    return total


def stein_kronecker(a_g, c_g, a_h, c_h) -> np.ndarray:
    """Gamma = A_g^T Gamma A_h + C_g^T C_h as one dense Kronecker solve,
    (I - A_h^T kron A_g^T) vec(Gamma) = vec(C_g^T C_h); memory grows with
    the fourth power of the order, so keep the factors small."""
    n_g, n_h = a_g.shape[0], a_h.shape[0]
    lhs = np.eye(n_g * n_h) - np.kron(a_h.T, a_g.T)
    sol = np.linalg.solve(lhs, (c_g.T @ c_h).reshape(-1, order="F"))
    return sol.reshape((n_g, n_h), order="F")


def h2_sq_truncated(a, b, c, d, horizon: int) -> float:
    terms = markov_terms(a, b, c, d, horizon)
    return float(sum(np.sum(t * t) for t in terms))


def fir_convolve(left, right, n_lags: int) -> np.ndarray:
    """Causal FIR product: coefficient m of sum_k left[k] right[m-k], for
    sequences of matrices indexed by lag."""
    out = np.zeros((n_lags + 1, left[0].shape[0], right[0].shape[1]))
    for m in range(n_lags + 1):
        for k in range(len(left)):
            if 0 <= m - k < len(right):
                out[m] += left[k] @ right[m - k]
    return out


def coprime_factors(plant, gains) -> SimpleNamespace:
    """The eight doubly-coprime factors of g22 built from the LQG gains,

        M^ = (A_K, B2, K, I)     N^ = (A_K, B2, C2, 0)
        Y^ = (A_K, -L, K, 0)     X^ = (A_K, -L, C2, I)
        X~ = (A_L, B2, -K, I)    Y~ = (A_L, -L, K, 0)
        N~ = (A_L, B2, C2, 0)    M~ = (A_L, -L, -C2, I),

    with G22 = N^ M^^-1 = M~^-1 N~ and the Bezout identity
    [X~ -Y~; -N~ M~] [M^ Y^; N^ X^] = I."""
    from delayh2 import StateSpaceModel

    b2, c2, k, l = plant.b2, plant.c2, gains.k_gain, gains.l_gain
    a_k, a_l = gains.a_k, gains.a_l
    iu, iy = np.eye(plant.n_ctrl), np.eye(plant.n_meas)
    zuy, zyu = np.zeros((plant.n_ctrl, plant.n_meas)), np.zeros((plant.n_meas, plant.n_ctrl))
    return SimpleNamespace(
        m_hat=StateSpaceModel(a_k, b2, k, iu),
        n_hat=StateSpaceModel(a_k, b2, c2, zyu),
        y_hat=StateSpaceModel(a_k, -l, k, zuy),
        x_hat=StateSpaceModel(a_k, -l, c2, iy),
        x_tilde=StateSpaceModel(a_l, b2, -k, iu),
        y_tilde=StateSpaceModel(a_l, -l, k, zuy),
        n_tilde=StateSpaceModel(a_l, b2, c2, zyu),
        m_tilde=StateSpaceModel(a_l, -l, -c2, iy),
    )


def bezout_product(plant, gains, horizon: int) -> np.ndarray:
    """Markov terms up to ``horizon`` of the Bezout product of
    :func:`coprime_factors`, each lag's 2x2 block matrices formed by
    ``np.block``; they must be I at lag 0 and 0 after."""
    t = {name: model_terms(g, horizon)
         for name, g in vars(coprime_factors(plant, gains)).items()}
    left = [np.block([[t["x_tilde"][k], -t["y_tilde"][k]], [-t["n_tilde"][k], t["m_tilde"][k]]])
            for k in range(horizon + 1)]
    right = [np.block([[t["m_hat"][k], t["y_hat"][k]], [t["n_hat"][k], t["x_hat"][k]]])
             for k in range(horizon + 1)]
    return fir_convolve(left, right, horizon)


def model_matching_factors(plant, gains):
    """P12 = (A_K, B2, -(C1 + D12 K), -D12) and P21 = (A_L, B1 + L D21, C2,
    D21), the factors multiplying the free parameter in P11 + P12 Q P21."""
    from delayh2 import StateSpaceModel

    k, l = gains.k_gain, gains.l_gain
    p12 = StateSpaceModel(gains.a_k, plant.b2, -(plant.c1 + plant.d12 @ k), -plant.d12)
    p21 = StateSpaceModel(gains.a_l, plant.b1 + l @ plant.d21, plant.c2, plant.d21)
    return p12, p21


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def priced_cost(v, omega, psi) -> float:
    """QP cost sum_i vec(V_i)^T (psi kron omega) vec(V_i) of the
    ``(N, n_ctrl, n_meas)`` coefficients ``v``: a sum of nonnegative terms,
    accurate to a few eps whatever the conditioning of the recursion that
    produced ``v``."""
    r = np.kron(np.atleast_2d(psi), np.atleast_2d(omega))
    return float(sum(vec @ r @ vec for vec in np.reshape(v, (len(v), -1), order="F")))


def v_coordinate_qp(vsys, cs, omega, psi):
    """Reference solution of the constrained QP as a time-varying LQR whose
    input is the free coefficient vec(V_i), on the dense lift.

    At lag i the forbidden coordinates of vec(V_i) are pinned to cancel the
    constrained channel, -C_v[forb] x_i, and the allowed ones are the
    inputs, so each lag gets its own dense stage (A_i, B_i, C_i, D_i) with
    cost |C_i x + D_i u|^2 through a square root of psi kron omega.  Returns
    the ``(N, n_ctrl, n_meas)`` coefficients and their :func:`priced_cost`,
    not the recursion's x_1^T X_1 x_1: that comes from the same subtracting
    Riccati downdate as the solvers checked against it.
    """
    omega, psi = np.atleast_2d(omega), np.atleast_2d(psi)
    n_u, n_y = omega.shape[0], psi.shape[0]
    n = cs.n_horizon
    if n == 0:
        return np.zeros((0, n_u, n_y)), 0.0
    a_v, b_v, c_v, x1 = vsys

    r_half = np.kron(_psd_sqrt(psi), _psd_sqrt(omega))
    stages = []
    for lag in range(1, n + 1):
        allowed = cs.entry_mask(lag).ravel(order="F")
        forb = ~allowed
        c_forb = c_v[forb]
        stages.append(
            (
                a_v - b_v[:, forb] @ c_forb,
                b_v[:, allowed],
                -r_half[:, forb] @ c_forb,
                r_half[:, allowed],
                allowed,
            )
        )

    x_cost = np.zeros_like(a_v)
    feedback = [None] * n
    for i in range(n - 1, -1, -1):
        a_i, b_i, c_i, d_i, _ = stages[i]
        h = d_i.T @ d_i + b_i.T @ x_cost @ b_i
        g = b_i.T @ x_cost @ a_i + d_i.T @ c_i
        k_i = -np.linalg.solve(h, g)
        x_new = c_i.T @ c_i + a_i.T @ x_cost @ a_i + (a_i.T @ x_cost @ b_i + c_i.T @ d_i) @ k_i
        x_cost = 0.5 * (x_new + x_new.T)
        feedback[i] = k_i

    state = x1.copy()
    v = np.empty((n, n_u, n_y))
    for i in range(n):
        a_i, b_i, _, _, allowed = stages[i]
        v_vec = np.empty(n_u * n_y)
        v_vec[allowed] = feedback[i] @ state
        v_vec[~allowed] = -c_v[~allowed] @ state
        v[i] = v_vec.reshape((n_u, n_y), order="F")
        state = (a_i + b_i @ feedback[i]) @ state
    return v, priced_cost(v, omega, psi)


def random_stable_model(rng, n: int, m: int, p: int, rho: float = 0.85):
    """Random stable realization with spectral radius about ``rho``."""
    from delayh2 import StateSpaceModel

    a = rng.standard_normal((n, n))
    if n:
        a *= rho / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-9)
    return StateSpaceModel(
        a, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
        rng.standard_normal((p, m)),
    )


def random_normalized_plant(rng, n: int, n_ctrl: int, n_meas: int,
                            block_rows=None, block_cols=None, a_scale: float = 0.6):
    """Random plant satisfying the feedthrough normalization by construction.

    C1 = [Cz; 0], D12 = [0; I] and B1 = [Bw 0], D21 = [0 I], so the
    orthogonality conditions hold exactly.  A is lightly scaled and may be
    unstable; random (A, B2) and (A, C2) are stabilizable/detectable almost
    surely.
    """
    from delayh2 import GeneralizedPlant

    nz, nw = n, n
    cz = rng.standard_normal((nz, n))
    bw = rng.standard_normal((n, nw))
    plant = GeneralizedPlant(
        a=a_scale * rng.standard_normal((n, n)),
        b1=np.hstack([bw, np.zeros((n, n_meas))]),
        b2=rng.standard_normal((n, n_ctrl)),
        c1=np.vstack([cz, np.zeros((n_ctrl, n))]),
        c2=rng.standard_normal((n_meas, n)),
        d12=np.vstack([np.zeros((nz, n_ctrl)), np.eye(n_ctrl)]),
        d21=np.hstack([np.zeros((n_meas, nw)), np.eye(n_meas)]),
        block_rows=tuple(block_rows) if block_rows else (n_ctrl,),
        block_cols=tuple(block_cols) if block_cols else (n_meas,),
    )
    return plant


def random_block_sizes(rng, total_blocks: int, max_size: int = 2):
    return tuple(int(rng.integers(1, max_size + 1)) for _ in range(total_blocks))


def random_monotone_patterns(rng, n_lags: int, shape, p_start: float = 0.4):
    """Monotone nondecreasing random block patterns Y_1 <= ... <= Y_N."""
    pats = []
    current = rng.random(shape) < p_start
    for _ in range(n_lags):
        pats.append(current.copy())
        current = current | (rng.random(shape) < 0.35)
    return pats
