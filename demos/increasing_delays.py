"""How the achievable H2 norm degrades as communication slows down.

Two subsystems share a plant; their controllers exchange measurements with
an N-step delay.  Three information structures are swept over N = 1..8:

  tri : node 1 hears node 0 immediately, node 0 waits N steps
  di  : both nodes wait N steps for each other
  low : node 0 eventually hears everything, node 1 only ever sees itself

Richer structures can only help, and longer delays can only hurt, so the
three curves are ordered and each is nondecreasing in N.  Writes
increasing_delays.csv and, when matplotlib is importable, a PNG.
"""

import csv

import numpy as np

import delayh2 as dh

plant = dh.GeneralizedPlant(
    a=np.diag([0.9, 1.1]),
    b1=np.hstack([np.ones((2, 1)), np.zeros((2, 2))]),
    b2=0.1 * np.eye(2),
    c1=np.vstack([np.ones((1, 2)), np.zeros((2, 2))]),
    c2=0.1 * np.eye(2),
    d12=np.vstack([np.zeros((1, 2)), np.eye(2)]),
    d21=np.hstack([np.zeros((2, 1)), np.eye(2)]),
    block_rows=(1, 1),
    block_cols=(1, 1),
)

STRUCTURES = {
    "tri": np.array([[True, False], [True, True]]),
    "di": np.eye(2, dtype=bool),
    "low": np.array([[False, False], [False, True]]),
}
HORIZONS = range(1, 9)

# one backward pass per structure gives the norms of every horizon
norms = {
    name: list(dh.sweep_norms(plant, pattern, HORIZONS[-1]))
    for name, pattern in STRUCTURES.items()
}

print(f"{'N':>3} {'tri':>12} {'di':>12} {'low':>12}")
for i, n in enumerate(HORIZONS):
    print(f"{n:>3} {norms['tri'][i]:>12.6f} {norms['di'][i]:>12.6f} {norms['low'][i]:>12.6f}")

for series in norms.values():
    assert all(a <= b + 1e-8 for a, b in zip(series, series[1:]))
for tri, di, low in zip(norms["tri"], norms["di"], norms["low"]):
    assert tri <= di + 1e-8 <= low + 2e-8
print("\nmonotone in N and ordered tri <= di <= low at every N")

with open("increasing_delays.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["N", "tri", "di", "low"])
    for i, n in enumerate(HORIZONS):
        writer.writerow([n, norms["tri"][i], norms["di"][i], norms["low"][i]])
print("wrote increasing_delays.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for name, series in norms.items():
        ax.plot(list(HORIZONS), series, marker="o", label=name)
    ax.set_xlabel("information delay N (steps)")
    ax.set_ylabel("closed-loop H2 norm")
    ax.set_title("Cost of waiting: optimal norm vs. communication delay")
    ax.legend()
    fig.tight_layout()
    fig.savefig("increasing_delays.png", dpi=120)
    print("wrote increasing_delays.png")
