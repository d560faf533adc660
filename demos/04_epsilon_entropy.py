"""Epsilon-entropy brackets, the small-space oracle, and scaling fits.

The epsilon-entropy of a finite metric-measure space is the least entropy of
a measure within transport distance epsilon of the original.  The library
brackets it with certified bounds and, on spaces of up to five atoms, checks
the bracket against an exact oracle, which enumerates the vertices of the
polytope of couplings within budget.  Entropy tables over an
(epsilon, n) grid feed growth-exponent fits and the exponential-growth
classifier.
"""

import math

import numpy as np

from filtlab import (
    DiscreteMeasure,
    ScalingFamily,
    SemimetricMatrix,
    epsilon_entropy_bounds,
    epsilon_entropy_oracle,
    exponential_growth_test,
    scaled_entropy_eval,
    scaling_exponent_fit,
)

print("Uniform measure on 4 points at pairwise distance 1:")
d = SemimetricMatrix(1.0 - np.eye(4))
mu = DiscreteMeasure.uniform(4)
for eps in (0.05, 0.2, 0.4, 0.8):
    b = epsilon_entropy_bounds(d, mu, eps)
    o = epsilon_entropy_oracle(d, mu, eps)
    print(
        f"  eps={eps:<5} bracket [{b.lower:.3f}, {b.upper:.3f}]  "
        f"oracle {o.value:.3f} at weights {[round(x, 3) for x in o.weights]}"
    )
print("  small eps pins the full 2 bits; large eps lets everything merge.")

print()
print("Scaling families:")
power = ScalingFamily(form="power", beta=1.5)
print("  power beta=1.5 at (eps=0.25, n=4):", power.evaluate(0.25, 4))
expo = ScalingFamily(form="exponential", radices=(2, 2, 2))
print("  radix product at n=3:", expo.evaluate(0.1, 3))

print()
print("Exponent fit recovers a synthetic power law exactly:")
table = {
    (eps, n): (n * math.log2(1 / eps)) ** 1.5
    for eps in (0.1, 0.2, 0.3)
    for n in range(3, 9)
}
fit = scaling_exponent_fit(table)
print(f"  beta_hat = {fit.beta_hat:.6f} +- {fit.stderr:.2e} (true 1.5)")

result = scaled_entropy_eval(
    {k: 2.5 * ScalingFamily(form="power", beta=1.0).evaluate(*k) for k in table},
    ScalingFamily(form="power", beta=1.0),
)
print(f"  proportional table H = 2.5 c  ->  h = {result.h}")

print()
print("Growth classification:")
print("  H = 2^n :", exponential_growth_test({n: 2.0**n for n in range(1, 8)}).verdict)
print("  H = n^2 :", exponential_growth_test({n: float(n * n) for n in range(1, 8)}).verdict)
