"""Walks over binary sceneries: observation trees and their distances.

A walk point is a deterministic fair-bit labeling of a group (the scenery)
plus the walker's position.  Looking n steps ahead yields a (2s)^n-leaf tree
whose leaf labels are the bits read along each increment word; the tree-
matching distance between two points is the level-n iterated semimetric of
the walk filtration.

A finite-scale surprise worth knowing about: at matched (n, m), larger
branching makes trees *easier* to match (the automorphism group supplies
log2(r!)/(r-1) bits of freedom per leaf while m-bit labels repeat heavily),
so the free-group walk shows *smaller* mean distances than the line walk even
though its filtration is the canonical nonstandard example asymptotically.
"""

from filtlab import (
    GroupSpec,
    ball_measure_profile,
    identity_matching_average,
    leaf_observations,
    mean_distance_profile,
    pair_distance,
    walk_point,
)

Z1 = GroupSpec.lattice(1)
F2 = GroupSpec.free(2)

p = walk_point(Z1, seed=7, m=4)
q = walk_point(Z1, seed=8, m=4)
system = leaf_observations(p, Z1, 4)
print(f"Z^1 depth-4 tree: {system.n_leaves} leaves, labels in 0..{system.base.size - 1}")
d = pair_distance(p, q, Z1, 4)
bound = identity_matching_average(p, q, Z1, 4)
print(f"pair distance {d:.4f} <= identity-matching average {bound:.4f}")

print()
print("Mean distance profiles, 100 pairs each (m tracks n):")
for spec in (Z1, F2):
    estimates = mean_distance_profile(spec, n_max=5, pairs=100, master_seed=11)
    row = "  ".join(f"c_{e.n}={e.mean:.3f}" for e in estimates)
    print(f"  {spec.describe():>4}: {row}")

print()
print("Ball mass around one free-group point at epsilon = 0.2:")
center = walk_point(F2, seed=99, m=5)
for est in ball_measure_profile(center, F2, (3, 4, 5), epsilon=0.2, samples=150, master_seed=5):
    print(f"  n={est.n}: fraction {est.fraction:.3f}  95% CI [{est.ci_low:.3f}, {est.ci_high:.3f}]")
