"""Simulate an LRU cache and compare measured hit ratios with the
timer-cache prediction at the characteristic time.

Streams here mix two shapes (exponential and Erlang-2 inter-request
times) to show that the approximation is not tied to Poisson traffic.
"""

import numpy as np

from ttlapprox import (LRU, Erlang, Exponential, SimulationConfig, ZipfLaw,
                       build_catalog, characteristic_time, replicate, ttl_hit)

n, C = 400, 120
catalog = build_catalog(ZipfLaw(0.7), n, total_rate=float(n),
                        family_assignment=[(0.5, Exponential(1.0)),
                                           (0.5, Erlang(2, 2.0))])
T = characteristic_time(catalog, C).t
prediction = ttl_hit(catalog, T)

config = SimulationConfig(catalog=catalog, policy=LRU(C), horizon_events=1_000_000,
                          seed=2026, replications=8)
report = replicate(config)

print(f"n={n}, C={C}, mixed exponential/Erlang-2 streams, T={T:.4f}")
print(f"simulated aggregate hit: {report.aggregate_hit:.5f} "
      f"(stderr {report.aggregate_stderr:.1e})")
print(f"predicted aggregate hit: {prediction.aggregate:.5f}")
print(f"aggregate gap: {abs(report.aggregate_hit - prediction.aggregate):.2e}")
print()
print("rank   requests   simulated   predicted    gap")
for rank in (1, 5, 20, 80, 200, 400):
    i = catalog.sorted_order[rank - 1]
    sim = report.hit_ratio[i]
    pred = prediction.per_content[i]
    print(f"{rank:4d} {report.requests[i]:10d}   {sim:9.5f}   {pred:9.5f}   "
          f"{sim - pred:+.5f}")

gaps = np.abs(report.hit_ratio - prediction.per_content)
frequent = report.requests / config.replications >= 1000
print(f"\nmax gap over the {frequent.sum()} frequent contents: "
      f"{gaps[frequent].max():.4f}")
