import dataclasses
from functools import cache

import numpy as np
import pytest

from delayh2 import (
    ConstraintSpace,
    DelayGraph,
    GeneralizedPlant,
    StateSpaceModel,
    constraint_space,
    delay_matrix,
    spectral_radius,
    verify,
)
from delayh2.synthesis import model_matching_matrices


def make_chain_plant(n: int = 3) -> GeneralizedPlant:
    """n coupled subsystems in a line (three in the paper's example); each
    node measures and actuates its own state, performance weights state and
    input equally."""
    a = 1.5 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    return plant_with_channel(a, np.eye(n), np.eye(n))


def plant_with_channel(a, b2, c2) -> GeneralizedPlant:
    """The chain plant's disturbance and performance channels around the
    control channel (a, b2, c2), one scalar block per state."""
    n = len(a)
    eye, zero = np.eye(n), np.zeros((n, n))
    return GeneralizedPlant(
        a=a,
        b1=np.hstack([eye, zero]),
        b2=b2,
        c1=np.vstack([eye, zero]),
        c2=c2,
        d12=np.vstack([zero, eye]),
        d21=np.hstack([zero, eye]),
        block_rows=(1,) * n,
        block_cols=(1,) * n,
    )


def make_chain_graph(n: int = 3, comp_delay: int = 1, link_delay: int = 1) -> DelayGraph:
    """``link_delay`` (by default 1) on each link of the line, ``comp_delay``
    (by default 1) at each node."""
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1, link_delay), (i + 1, i, link_delay)]
    return DelayGraph(n, (comp_delay,) * n, tuple(edges))


# A dense stable A of three states: every block couples at lag 2.
DENSE_A = np.full((3, 3), 0.3) + 0.2 * np.eye(3)


def householder(v) -> np.ndarray:
    """The orthogonal reflector I - 2 v v^T / (v^T v)."""
    v = np.asarray(v, dtype=float)
    return np.eye(len(v)) - 2.0 * np.outer(v, v) / (v @ v)


def no_eigvals(a):
    """Stand-in for ``np.linalg.eigvals`` in tests that must not reach it."""
    raise AssertionError("eigenvalues computed")


def dense_orders(monkeypatch) -> list:
    """Orders of the models whose Markov parameters ``verify`` computes by
    the dense recursion from now on."""
    seen, dense = [], verify.impulse_response

    def spy(g, horizon):
        seen.append(g.order)
        return dense(g, horizon)

    monkeypatch.setattr(verify, "impulse_response", spy)
    return seen


def make_sweep_plant(scale: float = 1.0) -> GeneralizedPlant:
    """Two decoupled modes (one stable, one not), scalar blocks per node:
    ``configs/two_subsystem_sweep.json``'s plant with A, B2 and C2 times
    ``scale``, as the benchmark's delay-sweep scales them."""
    return GeneralizedPlant(
        a=scale * np.diag([0.9, 1.1]),
        b1=np.hstack([np.ones((2, 1)), np.zeros((2, 2))]),
        b2=scale * 0.1 * np.eye(2),
        c1=np.vstack([np.ones((1, 2)), np.zeros((2, 2))]),
        c2=scale * 0.1 * np.eye(2),
        d12=np.vstack([np.zeros((1, 2)), np.eye(2)]),
        d21=np.hstack([np.zeros((2, 1)), np.eye(2)]),
        block_rows=(1, 1),
        block_cols=(1, 1),
    )


def static_model(d) -> StateSpaceModel:
    """Zero-state model realizing the constant gain ``d``."""
    d = np.atleast_2d(np.asarray(d, dtype=float))
    return StateSpaceModel(
        np.zeros((0, 0)), np.zeros((0, d.shape[1])), np.zeros((d.shape[0], 0)), d
    )


def g11(plant: GeneralizedPlant) -> StateSpaceModel:
    """The plant's open-loop disturbance-to-performance channel."""
    return StateSpaceModel(plant.a, plant.b1, plant.c1, np.zeros((plant.n_perf, plant.n_dist)))


@pytest.fixture(scope="session")
def chain_plant() -> GeneralizedPlant:
    return make_chain_plant()


@pytest.fixture(scope="session")
def chain_space(chain_plant) -> ConstraintSpace:
    d = delay_matrix(make_chain_graph())
    return constraint_space(d, chain_plant.block_rows, chain_plant.block_cols)


@pytest.fixture(scope="session")
def sweep_plant() -> GeneralizedPlant:
    return make_sweep_plant()


def lemma_identity_errors(plant, gains, tail_lags=20):
    """Max deviations of the three model-matching product identities
    P12~ P12 = Omega, P21 P21~ = Psi and P12~ P11 P21~ = 0, each evaluated
    by an independent Laurent-series convolution of raw Markov parameters
    on the lags -tail_lags .. tail_lags (the cross term on 1 .. tail_lags).
    """
    import oracles

    p11 = model_matching_matrices(plant, gains)
    p12, p21 = oracles.model_matching_factors(plant, gains)

    rho = max(
        spectral_radius(p11.a), spectral_radius(p12.a), spectral_radius(p21.a)
    )
    horizon = oracles.horizon_for(rho, tail=1e-16, lo=60)

    def weight_error(series, weight):
        # the product must be the constant weight: lag 0 only
        terms = series.terms.copy()
        terms[-series.min_lag] -= weight
        return np.abs(terms).max()

    s12 = oracles.Laurent.from_model(p12, horizon + tail_lags)
    err_omega = weight_error(s12.conjugate().multiply(s12, -tail_lags, tail_lags), gains.omega)
    s21 = oracles.Laurent.from_model(p21, horizon + tail_lags)
    err_psi = weight_error(s21.multiply(s21.conjugate(), -tail_lags, tail_lags), gains.psi)

    # the anticausal outer factor reaches back `horizon` lags, so the inner
    # product is needed out to lag tail_lags + horizon
    l12 = oracles.Laurent.from_model(p12, 2 * horizon + tail_lags).conjugate()
    l11 = oracles.Laurent.from_model(p11, 2 * horizon + tail_lags)
    l21 = oracles.Laurent.from_model(p21, horizon).conjugate()
    inner = l12.multiply(l11, 1, tail_lags + horizon)
    triple = inner.multiply(l21, 1, tail_lags)
    err_cross = np.abs(triple.terms).max()
    return err_omega, err_psi, err_cross


def random_qp_instance(rng):
    """Small random plant + monotone random constraint, ready for the QP.

    Returns (plant, cs, gains); dimensions stay small so the
    brute-force KKT solver remains applicable.  The constraint pattern is
    arbitrary (no quadratic-invariance guarantee), which is fine for
    comparing the two QP solvers but not for conformance claims about the
    resulting controller.
    """
    import oracles
    from delayh2 import riccati_gains

    n = int(rng.integers(1, 5))
    n_blocks = int(rng.integers(1, 4))
    block_rows = oracles.random_block_sizes(rng, n_blocks)
    block_cols = oracles.random_block_sizes(rng, n_blocks)
    plant = oracles.random_normalized_plant(
        rng, n, sum(block_rows), sum(block_cols),
        block_rows=block_rows, block_cols=block_cols,
    )
    n_lags = int(rng.integers(1, 4))
    pats = oracles.random_monotone_patterns(rng, n_lags, (n_blocks, n_blocks))
    cs = ConstraintSpace(n_lags, block_rows, block_cols, tuple(pats))
    return plant, cs, riccati_gains(plant)


def random_qi_instance(rng):
    """Random plant + delay constraint that is quadratically invariant.

    The delay matrix comes from a complete graph whose communication
    distances never exceed 2, so d[k,l] <= d[k,i] + 1 + d[j,l] holds for
    every quadruple whatever the (strictly proper) plant does; the QI
    premise of the synthesis theorems is then satisfied by construction and
    is double-checked here.  Returns (plant, delays, cs).
    """
    import oracles
    from delayh2 import DelayMatrix, qi_verdict

    n_nodes = int(rng.integers(2, 4))
    comp = rng.integers(1, 3, size=n_nodes)
    comm = rng.integers(0, 3, size=(n_nodes, n_nodes))
    np.fill_diagonal(comm, 0)
    delays = DelayMatrix(comp[:, None] + comm.T)
    block_rows = oracles.random_block_sizes(rng, n_nodes)
    block_cols = oracles.random_block_sizes(rng, n_nodes)
    n = int(rng.integers(1, 5))
    plant = oracles.random_normalized_plant(
        rng, n, sum(block_rows), sum(block_cols),
        block_rows=block_rows, block_cols=block_cols,
    )
    assert qi_verdict(plant, delays)[1].ok
    cs = constraint_space(delays, block_rows, block_cols)
    return plant, delays, cs


@cache
def _family_seeds() -> tuple:
    rng0 = np.random.default_rng(12345)
    return tuple(int(rng0.integers(1 << 30)) for _ in range(600))


def seeded_family_instance(t: int):
    """Instance t = 0 ... 599 of the seeded families of random QI instances.

    Its seed is the t-th draw of ``default_rng(12345).integers(1 << 30)``;
    from that seed :func:`random_qi_instance` draws the plant, then
    s = 10^U(-5, 5) is drawn, and family t % 6 perturbs the plant: 0, as
    drawn; 1, B2 and C2 x s; 2, A x 10^U(0, 2.5); 4, the first n (state)
    rows of C1 x 10^U(-12, 0); 5, the first n columns of B1 x 10^U(-12, 0).
    Family 3, A's eigenvalues moved to the unit circle, is not written down
    and raises ``ValueError``.  Returns (plant, cs)."""
    family = t % 6
    if family == 3:
        raise ValueError("family 3 is not defined")
    rng = np.random.default_rng(_family_seeds()[t])
    plant, _, cs = random_qi_instance(rng)
    s = 10 ** rng.uniform(-5, 5)
    if family == 1:
        plant = dataclasses.replace(plant, b2=s * plant.b2, c2=s * plant.c2)
    elif family == 2:
        plant = dataclasses.replace(plant, a=10 ** rng.uniform(0, 2.5) * plant.a)
    elif family == 4:
        c1 = plant.c1.copy()
        c1[:plant.n] *= 10 ** rng.uniform(-12, 0)
        plant = dataclasses.replace(plant, c1=c1)
    elif family == 5:
        b1 = plant.b1.copy()
        b1[:, :plant.n] *= 10 ** rng.uniform(-12, 0)
        plant = dataclasses.replace(plant, b1=b1)
    return plant, cs
