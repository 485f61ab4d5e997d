"""Cost and stage mix of the constrained QP on the n-node chain, n = 3 ... 20.

Run as ``PYTHONPATH=src python3 tests/qp_table.py``.  For each chain (self
coupling 1.5, neighbour coupling 1.0, unit delays, horizon n - 1), and for
the well-conditioned twin at n = 24 (self coupling 1.0, neighbours 0.5,
the same channels and delays), it prints the lifted order, the best of
five timings of ``solve_constrained_qp`` in ms, the Riccati gains computed
before, and how many lags ran factored and dense in the backward sweep and
condensed in their input coordinates, with d_(s+1) = 1 + a_1 + ... + a_s,
the dimension of the coordinates that X is read in after lag s + 1 (``-``
where no lag is condensed).  The last line gives the log-log slope of the
QP time over the chains n = 10 ... 20, the power of n that it grows with
there (ROADMAP item 3's synthesis half).  pytest does not collect this
file; it asserts nothing.
"""

import sys
import time

import numpy as np

from conftest import make_chain_graph, make_chain_plant, plant_with_channel
from delayh2 import constraint_space, delay_matrix, riccati_gains, solve_constrained_qp
from delayh2 import synthesis

SIZES = range(3, 21)
SLOPE_FROM = 10
TWIN = 24


def twin_plant(n: int):
    """The chain's channels around A = I + 0.5 (neighbours)."""
    eye = np.eye(n)
    return plant_with_channel(eye + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1)), eye, eye)


def stage_mix(plant, gains, cs) -> tuple[int, int, int, int]:
    """(factored, dense, condensed, d_(s+1)) of one QP, d_(s+1) = 0 for s = 0."""
    factored, real = [], synthesis._factored_stage

    def spy(*args):
        factored.append(args)
        return real(*args)

    synthesis._factored_stage = spy
    try:
        solve_constrained_qp(plant, gains, cs)
    finally:
        synthesis._factored_stage = real
    sizes = [np.count_nonzero(cs.entry_mask(lag)) for lag in range(1, cs.n_horizon + 1)]
    s = synthesis._condensed_lags(plant.n * (plant.n_ctrl + plant.n_meas),
                                  plant.n_ctrl * plant.n_meas, sizes)
    return len(factored), cs.n_horizon - s - len(factored), s, 1 + sum(sizes[:s]) if s else 0


def best_ms(plant, gains, cs) -> float:
    """Best of five timings of one QP, in ms."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        solve_constrained_qp(plant, gains, cs)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def main() -> int:
    print(f"{'chain':>7}{'n':>4}{'order':>7}{'QP ms':>10}{'factored':>10}{'dense':>7}"
          f"{'condensed':>11}{'d_s+1':>7}")
    cases = [("1.5/1.0", n, make_chain_plant(n)) for n in SIZES]
    cases.append(("1.0/0.5", TWIN, twin_plant(TWIN)))
    times = []
    for label, n, plant in cases:
        cs = constraint_space(delay_matrix(make_chain_graph(n)), plant.block_rows, plant.block_cols)
        gains = riccati_gains(plant)
        factored, dense, condensed, d = stage_mix(plant, gains, cs)
        ms = best_ms(plant, gains, cs)
        if label == "1.5/1.0":
            times.append(ms)
        print(f"{label:>7}{n:>4}{n * (plant.n_ctrl + plant.n_meas):>7}{ms:>10.1f}{factored:>10}"
              f"{dense:>7}{condensed:>11}{d if d else '-':>7}")
    sizes = np.array(SIZES)
    fit = sizes >= SLOPE_FROM
    slope = np.polyfit(np.log(sizes[fit]), np.log(np.array(times)[fit]), 1)[0]
    print(f"slope of the QP time over n = {SLOPE_FROM} ... {sizes[-1]}: {slope:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
