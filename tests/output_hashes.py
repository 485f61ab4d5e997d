"""Short sha1 hashes of the program's outputs, one line per artifact.

It prints a hash of the raw bytes of V, of the controller's matrices, of
``qp_cost`` and of ``total_norm_sq`` for each n-node chain n = 3 ... 20
(unit delays, as in ``tests/qp_memory.py``); of each problem file's
``synth --out`` file; of the 120-row ``sweep`` CSV of
``configs/two_subsystem_sweep.json``; and of the standard output of
``tests/sweep_table.py`` and ``tests/fuzz_families.py``.  Two trees give
the same outputs bit for bit when their printouts are the same, so a
claim of bit-identical numbers is a ``diff`` of two runs.  It asserts
nothing.  Run from the repository root:

    PYTHONPATH=src python3 tests/output_hashes.py
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import make_chain_graph, make_chain_plant
from delayh2 import constraint_space, delay_matrix, synthesize

ROOT = Path(__file__).resolve().parent.parent
CHAINS = range(3, 21)


def short(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:12]


def run(*args: str) -> bytes:
    """Standard output of a Python run from the repository root, which must
    exit 0."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def main() -> int:
    for n in CHAINS:
        plant = make_chain_plant(n)
        cs = constraint_space(delay_matrix(make_chain_graph(n)), plant.block_rows, plant.block_cols)
        result = synthesize(plant, cs)
        k = result.controller
        controller = b"".join(np.ascontiguousarray(m).tobytes() for m in (k.a, k.b, k.c, k.d))
        costs = [np.float64(x).tobytes() for x in (result.qp_cost, result.total_norm_sq)]
        print(f"chain {n:>2}  V {short(result.v_star.tobytes())}  controller {short(controller)}"
              f"  qp_cost {short(costs[0])}  total_norm_sq {short(costs[1])}")
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.json")):
            out = Path(tmp) / "controller.json"
            run("-m", "delayh2.cli", "synth", "--config", str(config), "--out", str(out))
            print(f"synth --out {config.name}  {short(out.read_bytes())}")
        csv = Path(tmp) / "norms.csv"
        run("-m", "delayh2.cli", "sweep", "--config", "configs/two_subsystem_sweep.json",
            "--n-min", "1", "--n-max", "120", "--out", str(csv))
        print(f"sweep CSV N = 1..120  {short(csv.read_bytes())}")
    for script in ("sweep_table.py", "fuzz_families.py"):
        print(f"tests/{script}  {short(run(f'tests/{script}'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
