"""Solve the characteristic time of an LRU cache and read off the
timer-cache approximation.

A cache of capacity C serving n contents under independent request
streams behaves, for large systems, like a reset-timer cache whose timer
T satisfies: expected number of timer-resident contents K(T) = C.
This script builds a Zipf catalog, solves for T, and prints the
approximate per-content hit probabilities.
"""

import numpy as np

from ttlapprox import (Exponential, ZipfLaw, build_catalog, characteristic_time,
                       expected_occupancy, miss_probability, tn_bracket, ttl_hit)

n, C, alpha = 1000, 300, 0.8
catalog = build_catalog(ZipfLaw(alpha), n, total_rate=float(n),
                        family_assignment=Exponential(1.0))

result = characteristic_time(catalog, C)
print(f"catalog: n={n}, Zipf({alpha}), Poisson streams, C={C}")
print(f"characteristic time T = {result.t:.6f}")
print(f"  solver: monotone Newton from the root of a grouped Jensen bound, "
      f"{result.iterations} full-catalog steps, residual {result.residual:.2e}")
print(f"  occupancy check: K(T) = {expected_occupancy(catalog, result.t):.6f} (= C)")

# analytic bracket from the envelope (all streams share the exponential shape)
lo, hi = tn_bracket(catalog, C, Exponential(1.0))
print(f"  analytic bracket: [{lo:.6f}, {hi:.6f}]")

hit = ttl_hit(catalog, result.t)
print(f"aggregate hit probability ~ {hit.aggregate:.4f} "
      f"(miss {miss_probability(catalog, result.t):.4f})")
for rank in (1, 10, 100, 1000):
    i = catalog.sorted_order[rank - 1]
    print(f"  rank {rank:4d}: rate {catalog.rates[i]:.4f}  "
          f"hit ~ {hit.per_content[i]:.4f}")

# the timer is the same for every content; only the rates differ
ranks = np.array([1, 10, 100, 1000]) - 1
lams = catalog.rates[catalog.sorted_order[ranks]]
print("rate * T at those ranks:", np.round(lams * result.t, 3))
