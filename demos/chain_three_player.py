"""Three subsystems in a chain, each talking only to its neighbours.

Walks through the whole synthesis pipeline on the classic three-player
chain: build the plant and the communication graph, derive the delay
matrix and FIR constraint space, confirm quadratic invariance, synthesize
the optimal delay-constrained controller, and compare it against the
centralized (delay-free network) design.
"""

import numpy as np

import delayh2 as dh

np.set_printoptions(precision=4, suppress=True)

# Plant: tridiagonal A couples each state to its neighbours; every node
# measures and actuates its own state, performance weights state and input.
a = np.array([[1.5, 1.0, 0.0],
              [1.0, 1.5, 1.0],
              [0.0, 1.0, 1.5]])
plant = dh.GeneralizedPlant(
    a=a,
    b1=np.hstack([np.eye(3), np.zeros((3, 3))]),
    b2=np.eye(3),
    c1=np.vstack([np.eye(3), np.zeros((3, 3))]),
    c2=np.eye(3),
    d12=np.vstack([np.zeros((3, 3)), np.eye(3)]),
    d21=np.hstack([np.zeros((3, 3)), np.eye(3)]),
    block_rows=(1, 1, 1),
    block_cols=(1, 1, 1),
)
print("open-loop spectral radius:", dh.spectral_radius(plant.a))

# Communication: unit computational delay at every node, unit delay on each
# link between neighbours (nodes 0-1 and 1-2).
graph = dh.DelayGraph(3, (1, 1, 1), ((0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)))
d = dh.delay_matrix(graph)
print("\ndelay matrix d (row = controller, column = measurement):")
print(d.d)

cs = dh.constraint_space(d, plant.block_rows, plant.block_cols)
print(f"\nFIR constraint horizon N = {cs.n_horizon}")
for lag, pattern in enumerate(cs.patterns, start=1):
    print(f"allowed blocks at lag {lag}:\n{pattern.astype(int)}")

# Quadratic invariance: the plant's own couplings propagate exactly as fast
# as the network, so the constrained problem is convex.
p = dh.plant_block_delays(plant.g22, plant.block_rows, plant.block_cols, d.max_delay())
print("\nplant block delays p:")
print(p)
print("QI:", dh.check_qi(d, p).ok)

result = dh.synthesize(plant, cs, delays=d)
print(f"\ndelay-constrained H2 norm : {result.h2_norm:.4f}")
print(f"  LQG floor ||P11||        : {np.sqrt(result.p11_norm_sq):.4f}")
print(f"  constraint penalty (QP)  : {result.qp_cost:.4f} (squared)")
print(f"controller order           : {result.controller.order}")

centralized = dh.synthesize(
    plant, dh.ConstraintSpace(0, plant.block_rows, plant.block_cols, ())
)
print(f"centralized H2 norm        : {centralized.h2_norm:.4f}")

# Independent verification: rebuild the closed loop from scratch and check
# the norm, internal stability, and the delay pattern of the controller.
loop = dh.closed_loop(plant, result.controller)
print("\ninternally stable          :", loop.is_internally_stable)
print(f"closed-loop norm (rebuilt) : {np.sqrt(dh.h2_norm_sq(loop.model)):.4f}")
print("delay-pattern conformance  :", dh.conformance(result.controller, cs).ok)

print("\noptimal FIR coefficients of the free parameter:")
for lag, block in enumerate(result.v_star, start=1):
    print(f"V_{lag} =\n{block}")
