"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one PASS/FAIL line (run pytest with -s to see them all
on success).
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from delayh2 import (
    ConstraintSpace,
    cli,
    closed_loop,
    conformance,
    h2_norm_sq,
    riccati_gains,
    solve_constrained_qp,
    synthesize,
    vectorized_system,
)
from delayh2.synthesis import coprime_factorization
from delayh2.verify import kkt_oracle
from conftest import (
    lemma_identity_errors,
    make_chain_plant,
    make_sweep_plant,
    random_qi_instance,
    random_qp_instance,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CHAIN_CONFIG = str(CONFIG_DIR / "chain_three_player.json")
CENTRALIZED_CONFIG = str(CONFIG_DIR / "chain_centralized.json")
SWEEP_CONFIG = str(CONFIG_DIR / "two_subsystem_sweep.json")

SWEEP_TEMPLATES = {
    "tri": [[1, 0], [1, 1]],
    "di": [[1, 0], [0, 1]],
    "low": [[0, 0], [0, 1]],
}


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def random_plants():
    """Fifty random normalized plants with their LQG gains (criteria 4, 7).

    Plants whose Riccati solutions explode are resampled: the identities are
    asserted with an absolute 1e-8 tolerance, which is only meaningful while
    the channel coefficients stay within a few orders of magnitude of one
    (float64 resolution on sums of coefficient products).
    """
    rng = np.random.default_rng(2024)
    plants = []
    while len(plants) < 50:
        n = int(rng.integers(1, 5))
        n_ctrl = int(rng.integers(1, 3))
        n_meas = int(rng.integers(1, 3))
        plant = oracles.random_normalized_plant(
            rng, n, n_ctrl, n_meas, block_rows=(n_ctrl,), block_cols=(n_meas,)
        )
        gains = riccati_gains(plant)
        if max(np.linalg.norm(gains.x_ctrl), np.linalg.norm(gains.y_filt)) > 50.0:
            continue
        plants.append((plant, gains))
    return plants


@pytest.fixture(scope="module")
def synthesized_instances(chain_plant, chain_space, sweep_plant):
    """Every (plant, constraint space, result) synthesized in criteria 1-5."""
    instances = [
        ("chain", chain_plant, chain_space, synthesize(chain_plant, chain_space)),
    ]
    centralized = ConstraintSpace(0, (1, 1, 1), (1, 1, 1), ())
    instances.append(
        ("centralized", chain_plant, centralized, synthesize(chain_plant, centralized))
    )
    for name, template in SWEEP_TEMPLATES.items():
        pattern = np.array(template, dtype=bool)
        for n in range(1, 9):
            cs = ConstraintSpace(n, (1, 1), (1, 1), (pattern,) * n)
            instances.append(
                (f"sweep-{name}-N{n}", sweep_plant, cs, synthesize(sweep_plant, cs))
            )
    rng = np.random.default_rng(99)
    for idx in range(10):
        plant, delays, cs = random_qi_instance(rng)
        instances.append(
            (f"random-{idx}", plant, cs, synthesize(plant, cs, delays=delays))
        )
    return instances


def test_criterion_1_chain_problem_reproduction(tmp_path, capsys):
    with criterion(1, "chain problem reproduction"):
        start = time.perf_counter()
        code = cli.main(
            ["synth", "--config", CHAIN_CONFIG, "--out", str(tmp_path / "k.json")]
        )
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        printed = float(out.split("H2 norm:")[1].strip())
        assert abs(printed - 34.9304) <= 1e-3
        assert elapsed < 5.0


def test_criterion_2_centralized_reference(capsys):
    with criterion(2, "centralized reference"):
        code = cli.main(["synth", "--config", CENTRALIZED_CONFIG])
        out = capsys.readouterr().out
        assert code == 0
        printed = float(out.split("H2 norm:")[1].strip())
        assert abs(printed - 24.236) <= 1e-2


def test_criterion_3_delay_sweep_monotone_and_ordered(tmp_path):
    with criterion(3, "delay sweep monotone and ordered"):
        base = json.loads(Path(SWEEP_CONFIG).read_text())
        norms = {}
        for name, template in SWEEP_TEMPLATES.items():
            doc = dict(base)
            doc["sweep"] = {"template": template}
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            out_csv = tmp_path / f"{name}.csv"
            code = cli.main([
                "sweep", "--config", str(cfg),
                "--n-min", "1", "--n-max", "8", "--out", str(out_csv),
            ])
            assert code == 0
            lines = out_csv.read_text().strip().splitlines()
            assert lines[0] == "N,norm" and len(lines) == 9
            norms[name] = [float(line.split(",")[1]) for line in lines[1:]]
        for series in norms.values():
            for a, b in zip(series, series[1:]):
                assert a <= b + 1e-8
        for tri, di, low in zip(norms["tri"], norms["di"], norms["low"]):
            assert tri <= di + 1e-8
            assert di <= low + 1e-8


def test_criterion_4_lemma_suite(random_plants):
    with criterion(4, "model-matching product identities on 50 random plants"):
        for plant, gains in random_plants:
            err_omega, err_psi, err_cross = lemma_identity_errors(plant, gains)
            assert err_omega < 1e-8
            assert err_psi < 1e-8
            assert err_cross < 1e-8


def test_criterion_5_oracle_equivalence():
    with criterion(5, "QP solver vs KKT oracle on 100 random instances"):
        rng = np.random.default_rng(500)
        for _ in range(100):
            plant, cs, gains = random_qp_instance(rng)
            v_fast, cost_fast = solve_constrained_qp(plant, gains, cs)
            v_ref, cost_ref = kkt_oracle(vectorized_system(plant, gains), cs, gains.omega,
                                         gains.psi)
            assert v_fast.shape == v_ref.shape
            assert np.abs(v_fast - v_ref).max(initial=0.0) < 1e-7
            assert abs(cost_fast - cost_ref) <= 1e-9 * (1.0 + abs(cost_ref))


def test_criterion_6_end_to_end_cost_identity(synthesized_instances):
    with criterion(6, "closed-loop norm equals cost decomposition"):
        for name, plant, cs, result in synthesized_instances:
            loop = closed_loop(plant, result.controller)
            assert loop.is_internally_stable, name
            cl_norm_sq = h2_norm_sq(loop.model)
            assert cl_norm_sq == pytest.approx(result.total_norm_sq, rel=1e-5), name
            assert conformance(result.controller, cs).ok, name


def test_criterion_7_bezout_property(random_plants):
    with criterion(7, "Bezout identity for the coprime factors"):
        plants = [make_chain_plant(), make_sweep_plant()]
        gains_list = [riccati_gains(p) for p in plants]
        all_pairs = list(zip(plants, gains_list)) + list(random_plants)
        for plant, gains in all_pairs:
            n = plant.n
            assert coprime_factorization(plant, gains) <= 1e-7
            resp = oracles.bezout_product(plant, gains, 2 * n + 2)
            npt.assert_allclose(resp[0], np.eye(plant.n_ctrl + plant.n_meas), atol=1e-7)
            for lag in range(1, 2 * n + 3):
                npt.assert_allclose(resp[lag], 0.0, atol=1e-7)
