"""Correctness gate of the benchmark.

Every check runs outside the timed region and returns the names of the
checks that failed, so that a failure can be counted by class.  None of
them reuses an intermediate quantity of the synthesis pipeline except the
KKT oracle, which re-solves the QP from the pipeline's lifted system.
"""

from __future__ import annotations

import math

import numpy as np

# The reported total must be the sum of its two parts.
REL_COST_IDENTITY = 1e-12
# Rebuilt closed-loop norm squared against total_norm_sq (chain-verify).
REL_LOOP_NORM = 1e-9
# Truncated Markov-parameter sum against total_norm_sq (chain-large).
REL_MARKOV = 1e-8
# KKT oracle QP cost against the reported one, scaled by 1 + |cost|.  The
# oracle is a dense solve of a KKT system whose condition number reaches
# about 1e11 on the 8-node chain, so its own error bound (eps * cond) is
# about 2.5e-5; it leaves its constraints violated by up to ~3e-13 of the
# response scale, which lowers its cost by up to ~1.5e-9 relative.  The
# square root of eps sits ten times above that and far below any error of
# a wrong QP solution.
REL_KKT = math.sqrt(np.finfo(float).eps)
# A timed pass must reproduce the warm-up pass.
REL_REPEAT = 1e-12
# Sweep norms are minima over nested sets, so they may not decrease in N.
REL_MONOTONE = 1e-9
# The sweep CSV keeps 10 significant digits of the norm.
REL_CSV = 1e-9

# The paper's three-node chain and its centralized design (H2 norms).
CHAIN_NORM = 34.9304
CHAIN_NORM_TOL = 1e-3
CENTRALIZED_NORM = 24.236
CENTRALIZED_NORM_TOL = 1e-2


def reference_checks(chain_norm: float, centralized_norm: float) -> list[str]:
    """The unperturbed three-node chain must give the paper's two norms."""
    failures = []
    if abs(chain_norm - CHAIN_NORM) > CHAIN_NORM_TOL:
        failures.append("reference_chain_norm")
    if abs(centralized_norm - CENTRALIZED_NORM) > CENTRALIZED_NORM_TOL:
        failures.append("reference_centralized_norm")
    return failures


def relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def controller_checks(result, stable: bool, conforms: bool) -> list[str]:
    """Checks every synthesized controller must pass."""
    failures = []
    if not conforms:
        failures.append("conformance")
    if not stable:
        failures.append("stability")
    parts = result.p11_norm_sq + result.qp_cost
    if relative_gap(parts, result.total_norm_sq) > REL_COST_IDENTITY:
        failures.append("cost_identity")
    return failures


def markov_norm_sq(model, max_terms: int = 20000) -> float:
    """H2 norm squared as the sum of squared Markov parameters.

    Summation stops once eight consecutive terms each fall below 1e-18 of
    the running sum; the closed loops here decay geometrically, so the tail
    left out is far below the 1e-8 this is compared with.
    """
    w = model.b
    total = float(np.sum(model.d * model.d))
    small = 0
    for _ in range(max_terms):
        term = float(np.sum(np.square(model.c @ w)))
        total += term
        small = small + 1 if term <= 1e-18 * total else 0
        if small == 8 and total > 0.0:
            return total
        w = model.a @ w
    return math.nan


def kkt_cost_gap(plant, cs, qp_cost: float) -> float:
    """Gap between the reported QP cost and the KKT oracle's, scaled by
    1 + |oracle cost| as in the acceptance suite."""
    from delayh2 import synthesis, verify

    gains = synthesis.riccati_gains(plant)
    vsys = synthesis.vectorized_system(plant, gains)
    _, cost = verify.kkt_oracle(vsys, cs, gains.omega, gains.psi)
    return abs(qp_cost - cost) / (1.0 + abs(cost))


def sweep_csv(text: str, n_min: int, n_max: int) -> tuple[list[str], dict[int, float]]:
    """Parse a sweep CSV; flag missing rows, empty cells and decreasing norms."""
    lines = text.strip().splitlines()
    failures = []
    norms: dict[int, float] = {}
    if not lines or lines[0] != "N,norm":
        return ["csv_header"], norms
    for line in lines[1:]:
        n_text, _, norm_text = line.partition(",")
        if not norm_text:
            failures.append("csv_empty_cell")
            continue
        norms[int(n_text)] = float(norm_text)
    missing = set(range(n_min, n_max + 1)) - set(norms)
    failures += ["csv_missing_row"] * len(missing)
    series = [norms[n] for n in sorted(norms)]
    for a, b in zip(series, series[1:]):
        if b < a * (1.0 - REL_MONOTONE):
            failures.append("csv_not_monotone")
    return failures, norms
