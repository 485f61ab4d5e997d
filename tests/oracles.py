"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's own algebra: impulse
responses come from raw matrix powers, two-sided (Laurent) series are
convolved term by term, and norms are truncated sums.  Truncation horizons
are chosen from the measured spectral radius so tail errors sit far below
the assertion tolerances.
"""

from __future__ import annotations

import math

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
    def causal(a, b, c, d, horizon: int) -> "Laurent":
        return Laurent(0, markov_terms(a, b, c, d, horizon))

    @staticmethod
    def from_model(g, horizon: int) -> "Laurent":
        return Laurent.causal(g.a, g.b, g.c, g.d, horizon)

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


def fir_convolve(left: list, right: list, n_lags: int) -> list:
    """Causal FIR product: coefficient m of sum_k left[k] right[m-k]."""
    shape = (left[0].shape[0], right[0].shape[1])
    out = [np.zeros(shape) for _ in range(n_lags + 1)]
    for m in range(n_lags + 1):
        for k in range(len(left)):
            if 0 <= m - k < len(right):
                out[m] += left[k] @ right[m - k]
    return out


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
