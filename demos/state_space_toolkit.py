"""Tour of the low-level state-space machinery.

The synthesis pipeline (the Riccati pair, the closed-loop norm, the
controller's impulse response) rests on a handful of dense-matrix
primitives; this script pokes at each one.
"""

import numpy as np

import delayh2 as dh

np.set_printoptions(precision=4, suppress=True)

# --- impulse responses ----------------------------------------------------
g = dh.StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
resp = dh.impulse_response(g, 6)
print("Markov parameters of a geometric scalar system:")
print(resp[:, 0, 0].tolist())

# --- H2 norms -------------------------------------------------------------
exact = dh.h2_norm_sq(g)
truncated = float(np.sum(dh.impulse_response(g, 200) ** 2))
print(f"\nsquared H2 norm, Gramian vs. truncated sum: {exact:.12f} vs {truncated:.12f}")

# --- the observability Gramian behind the norm ------------------------------
# h2_norm_sq(A, B, C, 0) is trace(B^T W B) for the Gramian of the Stein
# equation W = A^T W A + C^T C, so replacing B by A B drops exactly the
# first Markov parameter C B from the sum.
rng = np.random.default_rng(0)
a = 0.7 * rng.standard_normal((3, 3)) / 3
b = rng.standard_normal((3, 2))
c = rng.standard_normal((2, 3))
zero = np.zeros((2, 2))
whole = dh.h2_norm_sq(dh.StateSpaceModel(a, b, c, zero))
shifted = dh.h2_norm_sq(dh.StateSpaceModel(a, a @ b, c, zero))
print(f"\nStein equation residual through the Gramian: "
      f"{abs(whole - shifted - np.sum((c @ b) ** 2)):.2e}")

# --- Riccati equation by doubling -------------------------------------------
x = dh.dare_solve([[1.0]], [[1.0]], [[1.0]])
print(f"\nscalar Riccati solution: {x[0, 0]:.10f} (golden ratio "
      f"{(1 + np.sqrt(5)) / 2:.10f})")
