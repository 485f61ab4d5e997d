"""Working set of the constrained QP on the n-node chain, n = 4, 6, 8, 12, 16, 20, 24.

Run as ``PYTHONPATH=src python3 tests/qp_memory.py``.  For each chain (self
coupling 1.5, neighbour coupling 1.0, unit delays) it prints the lifted
order, the peak of ``solve_constrained_qp`` as traced by ``tracemalloc``, in
MB of 2^20 bytes (the unit of the benchmark's ``peak_rss_mb``) and in
order x order arrays of doubles, the MB of stage data that the backward
sweep hands the forward sweep (the stage's arrays, which the QP keeps to
its end), what is left of the peak besides them in order x order arrays,
and the best wall time of three untraced calls.  The Riccati gains are
computed before the measurement.  The lifted orders of n = 4 and 6, 32 and
72, lie on either side of ``MATRIX_LIFT_ORDER`` = 64, where a QP costs
about one numpy call per line.  From n = 14 (order 392) X is larger than
two panels of ``PANEL_ENTRIES`` doubles, and the dense stage runs on
panels of X.  n = 24 (order 1152) is the first size past the benchmark's
chains.  pytest does not collect this file; it asserts nothing, and
``tests/test_synthesis.py::TestWorkingSet`` bounds the peak.
"""

import sys
import time
import tracemalloc

from conftest import make_chain_graph, make_chain_plant
from delayh2 import constraint_space, delay_matrix, riccati_gains, solve_constrained_qp
from delayh2 import synthesis

SIZES = (4, 6, 8, 12, 16, 20, 24)


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
    print(f"{'n':>3}{'order':>7}{'peak MB':>10}{'order^2':>9}{'stage MB':>10}{'rest o^2':>10}"
          f"{'wall ms':>9}")
    for n in SIZES:
        plant = make_chain_plant(n)
        cs = constraint_space(delay_matrix(make_chain_graph(n)), plant.block_rows, plant.block_cols)
        gains = riccati_gains(plant)
        order = n * (plant.n_ctrl + plant.n_meas)
        peak, stage = traced_peak(plant, gains, cs), stage_bytes(plant, gains, cs)
        wall = []
        for _ in range(3):
            start = time.perf_counter()
            solve_constrained_qp(plant, gains, cs)
            wall.append(time.perf_counter() - start)
        print(f"{n:>3}{order:>7}{peak / 2**20:>10.2f}{peak / (8 * order**2):>9.2f}"
              f"{stage / 2**20:>10.2f}{(peak - stage) / (8 * order**2):>10.2f}"
              f"{1e3 * min(wall):>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
