"""Working set of the constrained QP on the order-8 sweep plant and the n-node chains.

Run as ``PYTHONPATH=src python3 tests/qp_memory.py``.  For each problem it
prints the lifted order, the peak of ``solve_constrained_qp`` as traced by
``tracemalloc``, in MB of 2^20 bytes (the unit of the benchmark's
``peak_rss_mb``) and in order x order arrays of doubles, the MB of stage
data that the backward sweep hands the forward sweep (the stage's arrays,
which the QP keeps to its end), what is left of the peak besides them in
order x order arrays, and the best wall time of three untraced calls.  The
Riccati gains are computed before the measurement.

The first row, ``sweep``, is the plant of
``configs/two_subsystem_sweep.json`` at N = 120 under its lower-triangular
template, the benchmark's delay-sweep problem at its longest horizon:
lags 120 ... 117 run factored, 116 ... 2 dense and lag 1 condensed.  Its
order, 8, is below ``MATRIX_LIFT_ORDER`` = 64, so its dense stages apply
the lift as formed matrices and hold a formed C_v^T R C_v / 2 besides X
and its work array; at that order a QP costs about one numpy call per line.
The chains (self coupling 1.5, neighbour coupling 1.0, unit delays) follow.
At n = 4 and 6 (orders 32 and 72, on either side of that limit) no lag
runs the dense stage: their factored stages apply the formed matrices at
order 32 and the factor products at order 72, and their first lags run
condensed, on arrays of the condensed dimension (``tests/qp_table.py``).
From n = 8 (order 128) the dense stage adds C_v^T R C_v / 2 from its
Kronecker factors, and one panel of X holds X and a work array of X's size
up to order 362 (n = 13).  From n = 14 (order 392) X is larger than two
panels of ``PANEL_ENTRIES`` doubles, and the dense stage runs on panels of
X next to a buffer of one panel.  n = 24 (order 1152) is the first size
past the benchmark's chains.  pytest does not collect this file; it
asserts nothing, and ``tests/test_synthesis.py::TestWorkingSet`` bounds
the peak.
"""
import sys
import time
import tracemalloc

import numpy as np

from conftest import make_chain_graph, make_chain_plant, make_sweep_plant
from delayh2 import ConstraintSpace, constraint_space, delay_matrix, riccati_gains
from delayh2 import solve_constrained_qp, synthesis

SIZES = (4, 6, 8, 12, 16, 20, 24)
SWEEP_HORIZON = 120


def problems():
    """(label, plant, constraint space): the sweep plant, then the chains."""
    plant = make_sweep_plant()
    lower = np.array([[1, 0], [1, 1]], bool)
    yield "sweep", plant, ConstraintSpace(SWEEP_HORIZON, plant.block_rows, plant.block_cols,
                                          (lower,) * SWEEP_HORIZON)
    for n in SIZES:
        plant = make_chain_plant(n)
        yield str(n), plant, constraint_space(delay_matrix(make_chain_graph(n)),
                                              plant.block_rows, plant.block_cols)


def traced_peak(plant, gains, cs) -> int:
    """Bytes allocated at the peak of one ``solve_constrained_qp`` call,
    above what was allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_constrained_qp(plant, gains, cs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def stage_bytes(plant, gains, cs) -> int:
    """Bytes of the arrays that the backward sweep yields for the forward
    sweep in one ``solve_constrained_qp`` call."""
    real, total = synthesis._backward_sweep, 0

    def counted(*args):
        nonlocal total
        for data, cost in real(*args):
            total += sum(array.nbytes for array in data)
            yield data, cost

    synthesis._backward_sweep = counted
    try:
        solve_constrained_qp(plant, gains, cs)
    finally:
        synthesis._backward_sweep = real
    return total


def main() -> int:
    print(f"{'n':>5}{'order':>7}{'peak MB':>10}{'order^2':>9}{'stage MB':>10}{'rest o^2':>10}"
          f"{'wall ms':>9}")
    for label, plant, cs in problems():
        gains = riccati_gains(plant)
        order = plant.n * (plant.n_ctrl + plant.n_meas)
        peak, stage = traced_peak(plant, gains, cs), stage_bytes(plant, gains, cs)
        wall = []
        for _ in range(3):
            start = time.perf_counter()
            solve_constrained_qp(plant, gains, cs)
            wall.append(time.perf_counter() - start)
        print(f"{label:>5}{order:>7}{peak / 2**20:>10.2f}{peak / (8 * order**2):>9.2f}"
              f"{stage / 2**20:>10.2f}{(peak - stage) / (8 * order**2):>10.2f}"
              f"{1e3 * min(wall):>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
