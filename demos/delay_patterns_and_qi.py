"""Delay graphs, constraint spaces, and when synthesis is actually convex.

The delay-constrained problem is convex exactly when the constraint set is
quadratically invariant under the plant, which for these delay patterns
reduces to a four-index integer inequality: information routed through the
controller network must never lag information flowing through the plant.
"""

import numpy as np

import delayh2 as dh
from delayh2.delaymodel import qi_witness_text

np.set_printoptions(precision=4, suppress=True)

# Two nodes that only hear each other after four steps.
graph = dh.DelayGraph(2, comp_delays=(1, 1), edges=((0, 1, 4), (1, 0, 4)))
d = dh.delay_matrix(graph)
print("delay matrix for a 4-step link:")
print(d.d)

cs = dh.constraint_space(d, (1, 1), (1, 1))
print(f"horizon N = {cs.n_horizon}; allowed blocks per lag:")
for lag, pattern in enumerate(cs.patterns, start=1):
    print(f"  lag {lag}: {pattern.astype(int).tolist()}")

# A plant whose subsystems are physically coupled after one step.
coupled = dh.GeneralizedPlant(
    a=[[1.2, 0.5], [0.5, 1.2]],
    b1=np.hstack([np.eye(2), np.zeros((2, 2))]),
    b2=np.eye(2),
    c1=np.vstack([np.eye(2), np.zeros((2, 2))]),
    c2=np.eye(2),
    d12=np.vstack([np.zeros((2, 2)), np.eye(2)]),
    d21=np.hstack([np.zeros((2, 2)), np.eye(2)]),
    block_rows=(1, 1),
    block_cols=(1, 1),
)
# qi_verdict reads the plant's block delays off its Markov parameters and
# tests the delay matrix against them, as synthesize(..., delays=d) does.
p, verdict = dh.qi_verdict(coupled, d)
print("\nplant block delays:")
print(p)
print("QI with the 4-step network:", verdict.ok)
if not verdict.ok:
    print(f"  {qi_witness_text(d, p, verdict)}")
    print("  the plant couples the nodes faster than they can talk;")
    print("  the constrained problem is not convex and synthesis refuses it:")
    try:
        dh.synthesize(coupled, cs, delays=d)
    except dh.QIViolation as exc:
        print(f"  QIViolation: {exc}")

# Speed the network up until the inequality holds.
fast = dh.delay_matrix(dh.DelayGraph(2, (1, 1), ((0, 1, 0), (1, 0, 0))))
print("\nwith instantaneous links, d =")
print(fast.d)
print("QI:", dh.qi_verdict(coupled, fast)[1].ok)
result = dh.synthesize(coupled, dh.constraint_space(fast, (1, 1), (1, 1)), delays=fast)
print(f"synthesis now succeeds: H2 norm {result.h2_norm:.4f}")
