"""Cost of the verify path on the n-node chain, n = 3 ... 20.

Run as ``PYTHONPATH=src python3 tests/verify_table.py``.  For each chain
(self coupling 1.5, neighbour coupling 1.0, unit delays, horizon n - 1) it
synthesizes the controller and prints the closed-loop order and the best of
five timings, in µs per call, of ``closed_loop``, the loop's
``is_internally_stable``, ``conformance``, the ``_markov_parameters``
recursion inside it, and ``h2_norm_sq`` of the loop (the norm that
chain-verify computes and chain-large does not).  Each timing repeats the
call enough times to fill about 20 ms.  The last line gives the log-log
slope of each column over n = 10 ... 20, the power of n that its cost
grows with there.  pytest does not collect this file; it asserts nothing.
"""

import sys
import time

import numpy as np

from conftest import make_chain_graph, make_chain_plant
from delayh2 import closed_loop, conformance, constraint_space, delay_matrix, h2_norm_sq, synthesize
from delayh2 import verify

SIZES = range(3, 21)
SLOPE_FROM = 10
COLUMNS = ("closed_loop", "stable", "conformance", "markov", "h2_norm_sq")


def best_us(call) -> float:
    """Best of five timings of ``call``, in µs per call."""
    start = time.perf_counter()
    call()
    number = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return 1e6 * best


def main() -> int:
    print(f"{'n':>3}{'order':>7}" + "".join(f"{c:>13}" for c in COLUMNS))
    rows = []
    for n in SIZES:
        plant = make_chain_plant(n)
        cs = constraint_space(delay_matrix(make_chain_graph(n)), plant.block_rows, plant.block_cols)
        k = synthesize(plant, cs).controller
        loop = closed_loop(plant, k)
        times = [best_us(lambda: closed_loop(plant, k)),
                 best_us(lambda: loop.is_internally_stable),
                 best_us(lambda: conformance(k, cs)),
                 best_us(lambda: verify._markov_parameters(k, cs.n_horizon)),
                 best_us(lambda: h2_norm_sq(loop.model))]
        rows.append(times)
        print(f"{n:>3}{loop.model.order:>7}" + "".join(f"{t:>13.1f}" for t in times))
    sizes = np.array(SIZES)
    fit = sizes >= SLOPE_FROM
    slopes = [np.polyfit(np.log(sizes[fit]), np.log(col[fit]), 1)[0] for col in np.array(rows).T]
    print(f"{'slope':>10}" + "".join(f"{s:>13.2f}" for s in slopes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
