"""Tour of the low-level state-space machinery.

Everything downstream (factorizations, vectorized recursions, norms) rests
on a handful of dense-matrix primitives; this script pokes at each one.
"""

import numpy as np

import delayh2 as dh
from delayh2.statespace import multiply

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

# --- cross Lyapunov/Sylvester solve ----------------------------------------
rng = np.random.default_rng(0)
a1 = 0.7 * rng.standard_normal((3, 3)) / 3
a2 = 0.7 * rng.standard_normal((3, 3)) / 3
c1 = rng.standard_normal((2, 3))
c2 = rng.standard_normal((2, 3))
gamma = dh.dlyap_cross(a1, c1, a2, c2)
residual = gamma - (a1.T @ gamma @ a2 + c1.T @ c2)
print(f"\ncross-Gramian equation residual: {np.linalg.norm(residual):.2e}")

# --- conjugate products -----------------------------------------------------
# G~H splits into a causal part and a strictly anticausal part; for the
# scalar geometric system both are geometric again.
causal, anti = dh.conjugate_product(g, g)
print("\nG~G causal feedthrough (the lag-0 autocorrelation):", causal.d[0, 0])
print("matches the closed form 1/(1-a^2):", 1.0 / (1.0 - 0.25))

# product helper sanity: (G~G at lag 1) equals a/(1-a^2)
print("lag-1 coefficient:", float((causal.c @ causal.b)[0, 0]), "=", 0.5 / 0.75)

# --- Riccati equation by doubling -------------------------------------------
x = dh.dare_solve([[1.0]], [[1.0]], [[1.0]])
print(f"\nscalar Riccati solution: {x[0, 0]:.10f} (golden ratio "
      f"{(1 + np.sqrt(5)) / 2:.10f})")

# --- everything composes ----------------------------------------------------
h = dh.StateSpaceModel([[0.2]], [[1.0]], [[2.0]], [[1.0]])
gh = multiply(g, h)
print("\nseries interconnection order:", gh.order)
print("H2 norm of the cascade:", np.sqrt(dh.h2_norm_sq(gh)))
